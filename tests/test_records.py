"""The contract of the package's six frozen records: positional and
keyword construction with the same defaults, equality and hashing by class
and fields, the exact reprs the README prints, no assignment or deletion,
and copies and pickles that give equal records."""

import copy
import pickle

import pytest

from covercount import (
    CensusRow,
    FiberClass,
    Free,
    HomologySignature,
    NonOrientableSurface,
    OrientableSurface,
)

# One record of each class, keyword-built, with its repr.
RECORDS = [
    (HomologySignature(torsion=(4, 2), rank=3), "HomologySignature(torsion=(2, 4), rank=3)"),
    (Free(rank=2), "Free(rank=2)"),
    (OrientableSurface(genus=2), "OrientableSurface(genus=2)"),
    (NonOrientableSurface(genus=3), "NonOrientableSurface(genus=3)"),
    (
        FiberClass(signature=HomologySignature(rank=4), multiplicity=1),
        "FiberClass(signature=HomologySignature(torsion=(), rank=4), multiplicity=1)",
    ),
    (
        CensusRow(n=1, subgroups=1, conjugacy_classes=1),
        "CensusRow(n=1, subgroups=1, conjugacy_classes=1, orientable_subgroups=None, "
        "nonorientable_subgroups=None)",
    ),
]

# The same records built positionally, in field order.
POSITIONAL = [
    HomologySignature((2, 4), 3),
    Free(2),
    OrientableSurface(2),
    NonOrientableSurface(3),
    FiberClass(HomologySignature((), 4), 1),
    CensusRow(1, 1, 1, None, None),
]

IDS = [type(record).__name__ for record, _ in RECORDS]


@pytest.mark.parametrize("record, text", RECORDS, ids=IDS)
def test_repr_is_class_and_fields_in_order(record, text):
    assert repr(record) == text


def test_readme_fiber_lines():
    lines = [str(fiber) for fiber in NonOrientableSurface(3).fiber(2)]
    assert lines == [
        "FiberClass(signature=HomologySignature(torsion=(), rank=4), multiplicity=1)",
        "FiberClass(signature=HomologySignature(torsion=(2,), rank=3), multiplicity=6)",
    ]


@pytest.mark.parametrize("keyword, positional", zip([r for r, _ in RECORDS], POSITIONAL), ids=IDS)
def test_keyword_and_positional_construction_agree(keyword, positional):
    assert keyword == positional
    assert hash(keyword) == hash(positional)
    assert keyword is not positional


def test_defaults():
    assert HomologySignature() == HomologySignature(torsion=(), rank=0)
    assert HomologySignature(rank=2).torsion == ()
    assert HomologySignature((3,)).rank == 0
    row = CensusRow(n=1, subgroups=1, conjugacy_classes=1)
    assert (row.orientable_subgroups, row.nonorientable_subgroups) == (None, None)


def test_torsion_is_stored_sorted_as_a_tuple():
    assert HomologySignature([6, 2, 3], 0).torsion == (2, 3, 6)
    assert HomologySignature((6, 2, 3)) == HomologySignature((3, 6, 2))


def test_unequal_fields_or_classes_are_unequal():
    assert Free(2) != Free(3)
    assert HomologySignature((2,), 1) != HomologySignature((), 1)
    assert CensusRow(1, 1, 1) != CensusRow(1, 1, 1, 0, 1)
    # Same field values, different family: never equal, so never the same
    # dict or cache key.
    kinds = [Free(2), OrientableSurface(2), NonOrientableSurface(2)]
    for i, a in enumerate(kinds):
        for j, b in enumerate(kinds):
            assert (a == b) == (i == j)
    assert len({*kinds, Free(2), OrientableSurface(2)}) == 3
    assert Free(2) != 2 and Free(2) != (2,)


@pytest.mark.parametrize("record, text", RECORDS, ids=IDS)
def test_assignment_and_deletion_raise_attribute_error(record, text):
    # The first field, as the repr names it.
    field = text.split("(", 1)[1].split("=", 1)[0]
    value = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, value)
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.no_such_field = 1
    assert getattr(record, field) == value


@pytest.mark.parametrize("record, _", RECORDS, ids=IDS)
def test_copy_deepcopy_and_pickle_give_equal_records(record, _):
    for clone in (
        copy.copy(record),
        copy.deepcopy(record),
        pickle.loads(pickle.dumps(record)),
        pickle.loads(pickle.dumps(record, protocol=0)),
    ):
        assert type(clone) is type(record)
        assert clone == record and hash(clone) == hash(record)
        assert repr(clone) == repr(record)


def test_constructor_checks_still_run():
    with pytest.raises(ValueError, match="free rank"):
        Free(0)
    with pytest.raises(ValueError, match="orientable genus"):
        OrientableSurface(0)
    with pytest.raises(ValueError, match="non-orientable genus"):
        NonOrientableSurface(1)
    with pytest.raises(ValueError, match="multiplicity"):
        FiberClass(HomologySignature(), -1)
    with pytest.raises(ValueError, match="torsion order"):
        HomologySignature((1,))
    with pytest.raises(TypeError, match="rank must be an int"):
        HomologySignature(rank=1.0)
