"""Workload definitions: the fixed CLI operations each workload runs.

Every operation is an argv list for ``covercount.cli.main``.  A workload
runs all of its operations back to back in one fresh interpreter; the seed
only shuffles their order, which changes which cache entries are already
warm when each operation starts, never the set of operations.  README.md
in this directory explains why each workload exists and which layer it
loads.
"""

import random

WORKLOADS = {
    "surface-sweep": [["table", "--group", f"orient:{g}", "--max-index", "28"] for g in range(1, 5)]
    + [["table", "--group", f"nonorient:{p}", "--max-index", "28"] for p in range(2, 6)],
    "free-deep": [
        ["table", "--group", "free:2", "--max-index", "400"],
        ["table", "--group", "free:3", "--max-index", "250"],
        ["count", "--group", "free:6", "--index", "300", "--what", "classes"],
    ],
    "oracle-verify": [
        ["verify", "--group", "free:2", "--max-index", "5"],
        ["verify", "--group", "orient:2", "--max-index", "4"],
        ["verify", "--group", "nonorient:3", "--max-index", "5"],
    ],
}


def op_key(argv):
    """The key an operation's expected digest is stored under."""
    return " ".join(argv)


def ordered_ops(workload, seed):
    """The workload's operations in the order the seed gives."""
    ops = [list(argv) for argv in WORKLOADS[workload]]
    random.Random(seed).shuffle(ops)
    return ops


def spot_check(argv, stdout):
    """Values an operation's output must show, taken from the README.

    Returns a list of problems, empty when the output agrees.  Operations
    without a hand-checked value pass trivially.
    """
    key = op_key(argv)
    problems = []

    def csv_row(n):
        lines = stdout.splitlines()
        header = lines[0].split(",")
        for line in lines[1:]:
            row = dict(zip(header, line.split(",")))
            if row["n"] == str(n):
                return row
        return None

    if key == "table --group free:2 --max-index 400":
        row = csv_row(6)
        if row is None or row["M"] != "3447":
            problems.append(f"free:2 M(6) should be 3447, row is {row}")
    if key == "table --group nonorient:3 --max-index 28":
        row = csv_row(4)
        if row is None or row["N"] != "89":
            problems.append(f"nonorient:3 N(4) should be 89, row is {row}")
        want = {"n": "3", "M": "34", "M_plus": "0", "M_minus": "34", "N": "14"}
        row = csv_row(3)
        if row != want:
            problems.append(f"nonorient:3 row 3 should be {want}, got {row}")
    if argv[0] == "verify":
        lines = stdout.splitlines()
        if len(lines) != int(argv[-1]) or not all(" PASS " in line for line in lines):
            problems.append(f"{key}: every line should read PASS, got {lines}")
        if key == "verify --group nonorient:3 --max-index 5":
            if "n=3 PASS M=34 M+=0 M-=34 N=14" not in lines:
                problems.append("nonorient:3 n=3 should read M=34 M+=0 M-=34 N=14")
    return problems
