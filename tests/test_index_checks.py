"""Every function that takes a subgroup index, a partition size or the
order of a cyclic group refuses bool and non-int values with TypeError,
also once the int is cached, and so does every one that takes an exponent,
a rank or a genus.  Each of the first kind refuses an int below one with
ValueError.

True == 1 and 2.0 == 2 hash alike, so an lru_cache without typed=True would
answer beta(True, 2) from the entry of beta(1, 2) without running the check.
Each bad value is therefore tried on cold caches, then again after the
equal int has been computed and cached.
"""

import pytest

from covercount.abelian import HomologySignature, epi_count, hom_count
from covercount.census import (
    Free,
    NonOrientableSurface,
    OrientableSurface,
    covering_fiber,
    free_subgroups,
    r_nu_recursive,
)
from covercount.characters import beta, hook_spectrum
from covercount.classes import census_table, count_classes
from covercount.errors import check_index
from covercount.numtheory import divisors, mobius

from epi_reference import euler_phi, oracle_epi_count
from partition_reference import partitions
from r_nu_closed import r_nu_closed

INDEXED = {
    "free_subgroups": lambda m: free_subgroups(m, 2),
    "r_nu_recursive": lambda m: r_nu_recursive(m, 2),
    "r_nu_closed": lambda m: r_nu_closed(m, 2),
    "beta": lambda k: beta(k, 2),
    "hook_spectrum": hook_spectrum,
    "partitions": partitions,
    "Free(2).split": Free(2).split,
    "OrientableSurface(2).split": OrientableSurface(2).split,
    "NonOrientableSurface(3).split": NonOrientableSurface(3).split,
    "Free(2).fiber": Free(2).fiber,
    "OrientableSurface(2).fiber": OrientableSurface(2).fiber,
    "NonOrientableSurface(3).fiber": NonOrientableSurface(3).fiber,
    "covering_fiber": lambda m: covering_fiber(Free(2), m),
    "count_classes": lambda n: count_classes(Free(2), n),
    "census_table": lambda n: census_table(Free(2), n),
    "divisors": divisors,
    "mobius": mobius,
    "euler_phi": euler_phi,
    "hom_count": lambda d: hom_count(HomologySignature(rank=1), d),
    "epi_count": lambda ell: epi_count(HomologySignature(rank=1), ell),
    "oracle_epi_count": lambda ell: oracle_epi_count(HomologySignature(rank=1), ell),
}

# Exponents, ranks and genera, each with the least value it accepts.
PARAMETERS = {
    "Free": (Free, 1),
    "OrientableSurface": (OrientableSurface, 1),
    "NonOrientableSurface": (NonOrientableSurface, 2),
    "free_subgroups.r": (lambda r: free_subgroups(3, r), 1),
    "beta.nu": (lambda nu: beta(3, nu), 0),
    "r_nu_recursive.nu": (lambda nu: r_nu_recursive(3, nu), 0),
    "r_nu_closed.nu": (lambda nu: r_nu_closed(3, nu), 0),
    "HomologySignature.rank": (lambda rank: HomologySignature(rank=rank), 0),
    "HomologySignature.torsion": (lambda t: HomologySignature(torsion=(t,)), 2),
}


@pytest.mark.parametrize("name", sorted(INDEXED))
@pytest.mark.parametrize("bad", [True, False, 2.0, "3"], ids=repr)
def test_refuses_bool_and_non_int_cold_and_warm(name, bad, cold_package):
    call = INDEXED[name]
    with pytest.raises(TypeError):
        call(bad)
    if int(bad) >= 1:
        call(int(bad))
    with pytest.raises(TypeError):
        call(bad)


@pytest.mark.parametrize("name", sorted(PARAMETERS))
@pytest.mark.parametrize("bad", [True, False, 2.0, 2.5, 0.5, "3"], ids=repr)
def test_parameters_refuse_bool_and_non_int_cold_and_warm(name, bad, cold_package):
    call, minimum = PARAMETERS[name]
    with pytest.raises(TypeError):
        call(bad)
    call(max(int(bad), minimum))
    with pytest.raises(TypeError):
        call(bad)
    with pytest.raises(ValueError):
        call(minimum - 1)


def test_fiber_names_the_index_it_refuses():
    # The index is checked before the subgroups' signature is built from it,
    # so the error names m, not the rank computed from it.
    with pytest.raises(TypeError, match="m must be an int"):
        Free(2).fiber(2.0)


def test_check_index_accepts_positive_ints_only():
    assert check_index(3) == 3
    with pytest.raises(ValueError):
        check_index(0, "k")


@pytest.mark.parametrize("name", sorted(INDEXED))
@pytest.mark.parametrize("bad", [0, -1])
def test_orders_below_one_raise_value_error(name, bad):
    with pytest.raises(ValueError):
        INDEXED[name](bad)
