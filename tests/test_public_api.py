"""The package's public names: covercount.__all__ is sorted, has no
duplicates and names only what the package defines, so a stale export
fails here rather than at a user's import.  The oracle is loaded only when
one of its names is first used."""

import os
import subprocess
import sys
from pathlib import Path

import covercount
from covercount import census, characters, classes, numtheory, oracle

# Deleted or moved names, with the module that used to define each.
REMOVED = {
    "Partition": characters,
    "degree": characters,
    "DivisorPair": numtheory,
    "divisor_pairs": numtheory,
    "gcd": numtheory,
    "count_classes_generic": classes,
    "r_nu_closed": census,
    "_composition_sums": census,
    "partitions": characters,
    "hook_product": characters,
    "euler_phi": numtheory,
    "oracle_epi_count": oracle,
    "EPI_MAX_GENERATORS": oracle,
    "EPI_MAX_ORDER": oracle,
}


def test_all_is_sorted_unique_and_resolves():
    names = covercount.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    assert [name for name in names if not hasattr(covercount, name)] == []


def test_removed_names_are_gone():
    for name, module in REMOVED.items():
        assert name not in covercount.__all__
        assert not hasattr(covercount, name)
        assert not hasattr(module, name)


def test_family_records_have_no_splits_or_generator_count():
    # The split is asked of split(m); the generator count is the oracle's.
    kinds = (covercount.Free(2), covercount.OrientableSurface(2), covercount.NonOrientableSurface(2))
    for record in (covercount.GroupKind, *kinds):
        assert not hasattr(record, "splits")
        assert not hasattr(record, "generator_count")


ORACLE_NAMES = (
    "kernel_backend",
    "oracle_count_classes",
    "oracle_count_subgroups",
    "oracle_orientable_split",
)

# Run in a fresh interpreter: imports covercount, runs count and table, and
# prints whether the oracle or its kernels were loaded before and after
# the first use of an oracle name.
LAZY_PROBE = """
import sys
import covercount
from covercount.cli import main
main(["count", "--group", "orient:2", "--index", "4"])
main(["table", "--group", "nonorient:3", "--max-index", "3"])
loaded = lambda: sorted(m for m in ("covercount.oracle", "covercount._pykernels") if m in sys.modules)
print(loaded())
assert covercount.oracle_count_subgroups(covercount.Free(2), 3) == 13
print(loaded())
"""


def run_fresh(code):
    """stdout lines of code run in a fresh interpreter with this covercount on its path."""
    env = dict(os.environ, PYTHONPATH=str(Path(covercount.__file__).resolve().parent.parent))
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return result.stdout.splitlines()


def test_import_count_and_table_leave_the_oracle_unloaded():
    lines = run_fresh(LAZY_PROBE)
    assert lines[-2:] == ["[]", "['covercount._pykernels', 'covercount.oracle']"]


def test_import_leaves_fractions_and_decimal_unloaded():
    # All arithmetic is in ints; fractions would also load decimal.  The
    # records are plain slotted classes: dataclasses would load inspect,
    # and with it ast, dis and tokenize.
    unused = {"fractions", "decimal", "dataclasses", "inspect", "ast", "dis", "tokenize"}
    probe = f"import sys, covercount; print(sorted({unused!r} & set(sys.modules)))"
    assert run_fresh(probe) == ["[]"]


def test_cli_import_leaves_json_and_traceback_unloaded():
    # Only table --format json and an internal fault need them.
    probe = "import sys, covercount.cli; print(sorted({'json', 'traceback'} & set(sys.modules)))"
    assert run_fresh(probe) == ["[]"]


def test_oracle_names_resolve_to_the_oracle_module():
    assert set(ORACLE_NAMES) <= set(covercount.__all__)
    for name in ORACLE_NAMES:
        assert getattr(covercount, name) is getattr(oracle, name)
    assert not hasattr(covercount, "no_such_name")
