"""Speed probe: how fast the CPU it shares with a worker runs Python now.

    python3 perfbench/probe.py        # stop it with SIGTERM

Times a fixed stdlib-only job of about half a millisecond (big-integer
binomials, the arithmetic the layers do most), then sleeps DUTY_SLEEPS
times as long, so it takes about 5% of the CPU, until SIGTERM or until
its parent has gone (so that it never outlives a killed run.py).  Then
prints one JSON list of [start, seconds] pairs: start on the
time.perf_counter() clock, which on Linux is CLOCK_MONOTONIC and so the
same in every process, and seconds the job's CPU time, so that time the
probe spends preempted by a worker does not count.  A slower CPU makes
the CPU time longer too.

The host's cores are shared with other machines' work, and how fast they
run Python changes by up to 2x within a second.  run.py pins itself, this
probe and every worker to one CPU, so the probe's samples during an
operation show how fast that operation's CPU was running.  The probe never
imports covercount, so no change to the package changes its times.
"""

import json
import os
import signal
import sys
import time
from math import comb

DUTY_SLEEPS = 19


def job():
    total = 0
    for _ in range(10):
        for n in range(60, 80):
            for k in range(0, n, 4):
                total += comb(n, k) % 97
    return total


def main():
    stopped = []
    signal.signal(signal.SIGTERM, lambda signum, frame: stopped.append(signum))
    parent = os.getppid()
    samples = []
    while not stopped and os.getppid() == parent:
        start = time.perf_counter()
        cpu = time.thread_time()
        job()
        seconds = time.thread_time() - cpu
        samples.append([start, seconds])
        time.sleep(seconds * DUTY_SLEEPS)
    print(json.dumps(samples))
    return 0


if __name__ == "__main__":
    sys.exit(main())
