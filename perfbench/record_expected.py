"""Record the expected stdout digest of every benchmark operation.

    python3 perfbench/record_expected.py

Runs each operation of every workload as its own ``python3 -m covercount``
process, checks its exit status and the hand-checked values from the
README (see workloads.spot_check), and writes the sha256 of its stdout to
expected.json.  The benchmark counts an operation as failed when its
digest differs from the one stored here, so rerun this only at a commit
whose results are known to be right, and say so in the change.
"""

import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS, op_key, spot_check

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def main():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    commit = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
    ).stdout.strip()
    ops = {}
    for workload_ops in WORKLOADS.values():
        for argv in workload_ops:
            proc = subprocess.run(
                [sys.executable, "-m", "covercount", *argv], env=env, capture_output=True
            )
            stdout = proc.stdout.decode()
            problems = spot_check(argv, stdout)
            if proc.returncode != 0:
                problems.append(f"exit status {proc.returncode}: {proc.stderr.decode()}")
            if problems:
                sys.exit(f"{op_key(argv)}: " + "; ".join(problems))
            ops[op_key(argv)] = {
                "sha256": hashlib.sha256(proc.stdout).hexdigest(),
                "bytes": len(proc.stdout),
                "lines": stdout.count("\n"),
            }
            print(f"{op_key(argv)}: {len(proc.stdout)} bytes, ok")
    record = {"commit": commit, "python": platform.python_version(), "ops": ops}
    (BENCH / "expected.json").write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    main()
