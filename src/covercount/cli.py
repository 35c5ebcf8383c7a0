"""Command line interface.

Subcommands: count (one number for one group and index), table (a census
over 1..max-index as CSV or JSON), verify (formula routes against the
brute-force oracle), epi (epimorphism counts onto a cyclic group).  table
and verify print one column layout, n, M, [M_plus, M_minus,] N, which
verify labels M+ and M- and compares whole, n included.  Results
go to stdout, diagnostics to stderr.  Exit status is 0 on success, 1 when
verify finds a mismatch, 2 on argument, domain or resource errors (running
out of memory included), 3 on an internal fault: a ConsistencyError (a
cross-check inside the package failed) or any other exception, whose
traceback goes to stderr.
"""

import argparse
import sys
from functools import cache

from .abelian import HomologySignature, epi_count
from .census import FAMILIES, GroupKind, count_subgroups
from .classes import census_table, count_classes
from .errors import ConsistencyError, ResourceLimitError, check_index


def parse_group_spec(text: str) -> GroupKind:
    """Parse a group spec: free:R, orient:G or nonorient:P."""
    family, sep, value = text.partition(":")
    if not sep:
        raise ValueError(f"bad group spec {text!r}, expected free:R, orient:G or nonorient:P")
    try:
        number = int(value)
    except ValueError:
        raise ValueError(f"bad group parameter {value!r} in {text!r}") from None
    if family not in FAMILIES:
        raise ValueError(f"unknown group family {family!r} in {text!r}")
    return FAMILIES[family](number)


def _parse_torsion(text: str) -> tuple[int, ...]:
    if not text:
        return ()
    orders = []
    for piece in text.split(","):
        try:
            order = int(piece)
        except ValueError:
            raise ValueError(f"bad torsion order {piece!r}") from None
        orders.append(order)
    return tuple(orders)


def cmd_count(args) -> int:
    kind = parse_group_spec(args.group)
    n = check_index(args.index, "--index")
    if args.what == "subgroups":
        print(count_subgroups(kind, n))
    elif args.what == "classes":
        print(count_classes(kind, n))
    else:
        split = kind.split(n)
        if split is None:
            raise ValueError("--what split applies only to nonorient groups")
        print(*split)
    return 0


def _columns(row) -> dict:
    # A row's fields under table's column names, in table's order.
    columns = {"n": row.n, "M": row.subgroups}
    if row.orientable_subgroups is not None:
        columns["M_plus"] = row.orientable_subgroups
        columns["M_minus"] = row.nonorientable_subgroups
    columns["N"] = row.conjugacy_classes
    return columns


def cmd_table(args) -> int:
    kind = parse_group_spec(args.group)
    n_max = check_index(args.max_index, "--max-index")
    records = [_columns(row) for row in census_table(kind, n_max)]
    if args.format == "json":
        import json
        print(json.dumps(records, separators=(",", ":")))
    else:
        columns = list(records[0])
        print(",".join(columns))
        for record in records:
            print(",".join(str(record[c]) for c in columns))
    return 0


def cmd_verify(args) -> int:
    from . import oracle

    kind = parse_group_spec(args.group)
    n_max = check_index(args.max_index, "--max-index")
    labels = {"M_plus": "M+", "M_minus": "M-"}
    failures = 0
    # The oracle's rows, all from one search at n_max, come first: one over
    # the node limit is refused before any line is printed.  The formula
    # side is the rows that table prints, from one pass, compared whole.
    oracle_rows = oracle.oracle_table(kind, n_max)
    for oracle_row, row in zip(oracle_rows, census_table(kind, n_max), strict=True):
        formula, brute = _columns(row), _columns(oracle_row)
        ok = formula == brute
        failures += not ok
        fields = []
        for column, value in formula.items():
            field = f"{labels.get(column, column)}={value}"
            fields.append(field if value == brute[column] else f"{field}!={brute[column]}")
        n, *rest = fields
        print(n, "PASS" if ok else "FAIL", *rest)
    return 1 if failures else 0


def cmd_epi(args) -> int:
    signature = HomologySignature(_parse_torsion(args.torsion), args.rank)
    order = check_index(args.order, "--order")
    print(epi_count(signature, order))
    return 0


# Built on the first main call, once: it binds the cmd_* as they are then.
@cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="covercount",
        description="Exact counts of finite-index subgroups and their conjugacy "
        "classes in free and surface groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    count = sub.add_parser("count", help="one count for one group and index")
    count.add_argument("--group", required=True, help="free:R, orient:G or nonorient:P")
    count.add_argument("--index", type=int, required=True, help="subgroup index n")
    count.add_argument(
        "--what",
        choices=["subgroups", "classes", "split"],
        default="subgroups",
        help="what to count (split prints orientable and non-orientable subgroup counts)",
    )
    count.set_defaults(func=cmd_count)

    table = sub.add_parser("table", help="census table for indices 1..max")
    table.add_argument("--group", required=True, help="free:R, orient:G or nonorient:P")
    table.add_argument("--max-index", type=int, required=True)
    table.add_argument("--format", choices=["csv", "json"], default="csv")
    table.set_defaults(func=cmd_table)

    verify = sub.add_parser("verify", help="check the formulas against the brute-force oracle")
    verify.add_argument("--group", required=True, help="free:R, orient:G or nonorient:P")
    verify.add_argument("--max-index", type=int, required=True)
    verify.set_defaults(func=cmd_verify)

    epi = sub.add_parser("epi", help="epimorphisms from an abelian group onto Z_order")
    epi.add_argument("--torsion", default="", help="comma-separated torsion orders, each >= 2")
    epi.add_argument("--rank", type=int, default=0, help="free rank of the source group")
    epi.add_argument("--order", type=int, required=True, help="order of the cyclic target")
    epi.set_defaults(func=cmd_epi)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # Exact counts outgrow CPython's default limit of 4300 digits for
    # int-to-str conversion (2^15000 - 1 has 4516).  Lift it while main
    # runs and put the caller's setting back afterwards.
    digit_limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if digit_limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        return args.func(args)
    except (ValueError, ResourceLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2
    except ConsistencyError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except Exception:
        import traceback
        traceback.print_exc()
        return 3
    finally:
        if digit_limit is not None:
            sys.set_int_max_str_digits(digit_limit)


if __name__ == "__main__":
    sys.exit(main())
