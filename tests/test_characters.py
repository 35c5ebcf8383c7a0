from collections import Counter
from math import factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st

import covercount.characters as characters
from covercount.characters import beta, hook_spectrum
from covercount.errors import ConsistencyError

import partition_reference
from partition_reference import hook_product, partition_count, partitions

EXPONENTS = (0, 1, 2, 3, 4, 6)


def _conjugate(parts):
    # Reference: the transposed Young diagram.
    return tuple(sum(1 for p in parts if p > j) for j in range(parts[0]))


def _degree(parts):
    # Reference: the degree of the S_k character labelled by parts, by the
    # hook length formula k! / hook product; the division must be exact.
    deg, rem = divmod(factorial(sum(parts)), hook_product(parts))
    if rem:
        raise ConsistencyError(f"hook product of {parts} does not divide {sum(parts)}!")
    return deg


def _cell_hook_product(parts):
    # Reference: the hook length of every cell of the Young diagram, read
    # off the conjugate, multiplied one cell at a time.
    conj = _conjugate(parts)
    prod = 1
    for i, row in enumerate(parts):
        for j in range(row):
            prod *= row - j + conj[j] - i - 1
    return prod


@pytest.mark.parametrize(
    "bad",
    [(), (1, 2), (2, 0), (3, -1)],
    ids=["empty", "increasing", "zero-part", "negative-part"],
)
def test_hook_product_input_check(bad):
    with pytest.raises(ValueError):
        hook_product(bad)


def test_hook_product_takes_any_sequence_of_parts():
    # A list is a sequence of parts too: hooks 4, 2, 1 and 1, degree 4!/8.
    assert hook_product([3, 1]) == 8
    assert _degree([3, 1]) == 3
    assert hook_product(range(3, 0, -2)) == hook_product((3, 1))


def test_hook_product_is_uncached():
    # Every call recomputes, so a call count is a count of partitions seen.
    assert not hasattr(hook_product, "cache_info")


def test_partitions_returns_a_fresh_list_of_int_tuples():
    first = partitions(6)
    assert type(first) is list
    assert all(type(parts) is tuple for parts in first)
    assert all(type(part) is int for parts in first for part in parts)
    first.clear()
    assert len(partitions(6)) == partition_count(6)


def test_partition_conjugate():
    assert _conjugate((3, 1)) == (2, 1, 1)
    assert _conjugate((2, 2)) == (2, 2)
    for k in range(1, 9):
        for parts in partitions(k):
            assert _conjugate(_conjugate(parts)) == parts
            assert sum(_conjugate(parts)) == k


def test_partitions_rejects_zero():
    with pytest.raises(ValueError):
        partitions(0)


def test_partitions_of_four_in_order():
    assert partitions(4) == [
        (4,),
        (3, 1),
        (2, 2),
        (2, 1, 1),
        (1, 1, 1, 1),
    ]


def test_partitions_lexicographically_decreasing():
    for k in range(1, 12):
        parts = partitions(k)
        assert parts == sorted(parts, reverse=True)
        assert len(set(parts)) == len(parts)
        assert all(sum(p) == k for p in parts)


def test_partitions_count_matches_recurrence():
    assert len(partitions(10)) == 42
    for k in range(1, 21):
        assert len(partitions(k)) == partition_count(k)


def test_degree_examples():
    assert _degree((2, 1)) == 2
    assert _degree((3, 1)) == 3
    assert _degree((2, 2)) == 2
    for k in range(1, 9):
        assert _degree((k,)) == 1
        assert _degree((1,) * k) == 1


def test_degree_conjugation_invariant():
    for k in range(1, 10):
        for parts in partitions(k):
            assert _degree(parts) == _degree(_conjugate(parts))


def test_hook_product_times_degree_is_factorial():
    for k in range(1, 11):
        for parts in partitions(k):
            assert hook_product(parts) * _degree(parts) == factorial(k)


def test_degree_squares_sum_to_factorial():
    for k in range(1, 11):
        assert sum(_degree(parts) ** 2 for parts in partitions(k)) == factorial(k)


def test_beta_examples():
    assert beta(3, 1) == 15
    assert beta(2, 2) == 8
    assert beta(1, 7) == 1
    assert beta(2, 1) == 4


def test_beta_at_zero_counts_partitions():
    for k in range(1, 21):
        assert beta(k, 0) == len(partitions(k))


def test_beta_rejects_bad_arguments():
    with pytest.raises(ValueError):
        beta(0, 1)
    with pytest.raises(ValueError):
        beta(3, -1)


def test_beta_memoized_and_fresh_agree():
    first = beta(6, 3)
    beta.cache_clear()
    assert beta(6, 3) == first


def test_degree_raises_when_hook_product_does_not_divide(monkeypatch):
    # 5 does not divide 4!, so the reference's guard must fire, also under
    # python -O, rather than floor a wrong hook product into a degree.
    monkeypatch.setitem(globals(), "hook_product", lambda parts: 5)
    with pytest.raises(ConsistencyError):
        _degree((3, 1))


def test_hook_product_raises_when_formula_is_not_integral(monkeypatch):
    # With every factorial replaced by 1 the numerator is 1, which the
    # Vandermonde product of (3, 1)'s first-column hooks (4, 1) does not divide.
    monkeypatch.setattr(partition_reference, "factorial", lambda n: 1)
    with pytest.raises(ConsistencyError):
        hook_product((3, 1))


def test_hook_product_and_spectrum_match_cell_reference():
    for k in range(1, 15):
        cells = [_cell_hook_product(parts) for parts in partitions(k)]
        assert [hook_product(parts) for parts in partitions(k)] == cells
        assert hook_spectrum(k) == tuple(sorted(Counter(cells).items()))


def _reference_spectrum(k):
    # Reference: the per-partition route, a first-column hook product for
    # every partition of k, shares no code with the branching rule.
    return tuple(sorted(Counter(hook_product(parts) for parts in partitions(k)).items()))


def test_hook_spectrum_matches_the_per_partition_route(cold_package):
    for k in range(1, 25):
        assert hook_spectrum(k) == _reference_spectrum(k)


def test_ascending_spectra_build_each_level_once(cold_package):
    assert characters._degrees.cache_info().maxsize == 1
    for k in range(1, 13):
        hook_spectrum(k)
        assert characters._degrees.cache_info().currsize == 1
    info = characters._degrees.cache_info()
    assert (info.misses, info.hits) == (12, 11)


def test_cold_spectrum_then_a_lower_one(cold_package):
    # Level 20 is the cached one when level 7 is asked for, so level 7 is
    # rebuilt from the bottom.
    assert hook_spectrum(20) == _reference_spectrum(20)
    assert hook_spectrum(7) == _reference_spectrum(7)


def test_level_with_wrong_squared_degrees_raises(cold_package, monkeypatch):
    # Frobenius: the squared degrees of each level sum to k!, not 2 k!.
    # Every degree still divides 2 k!, so only the sum can catch this.
    monkeypatch.setattr(characters, "factorial", lambda n: 2 * factorial(n))
    with pytest.raises(ConsistencyError):
        hook_spectrum(5)


def test_degree_that_does_not_divide_factorial_raises(cold_package, monkeypatch):
    # A level whose one degree, 5, does not divide 4!.
    monkeypatch.setattr(characters, "_degrees", lambda k: {0b1010: 5})
    with pytest.raises(ConsistencyError):
        hook_spectrum(4)


def test_boundary_words_and_degrees_of_small_partitions(cold_package):
    # Bit j of a word is step j of the rim from the bottom-left corner,
    # 1 up and 0 right: (3) is right, right, right, up; (2, 1) is right,
    # up, right, up; (1, 1, 1) is right, up, up, up.
    assert characters._degrees(1) == {0b10: 1}
    assert characters._degrees(2) == {0b100: 1, 0b110: 1}
    assert characters._degrees(3) == {0b1000: 1, 0b1010: 2, 0b1110: 1}


def test_hook_spectrum_counts_partitions_and_degree_squares():
    for k in range(1, 21):
        spectrum = hook_spectrum(k)
        assert [hook for hook, _ in spectrum] == sorted({hook for hook, _ in spectrum})
        assert sum(mult for _, mult in spectrum) == len(partitions(k))
        assert sum(mult * (factorial(k) // hook) ** 2 for hook, mult in spectrum) == factorial(k)


@given(st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=8))
def test_beta_matches_cell_reference_sum(k, nu):
    assert beta(k, nu) == sum(_cell_hook_product(parts) ** nu for parts in partitions(k))


def test_beta_builds_each_spectrum_once():
    beta.cache_clear()
    hook_spectrum.cache_clear()
    for nu in EXPONENTS:
        for k in range(1, 13):
            beta(k, nu)
    assert hook_spectrum.cache_info().misses == 12
    assert beta.cache_info().misses == 12 * len(EXPONENTS)


def test_hook_spectrum_rejects_zero():
    with pytest.raises(ValueError):
        hook_spectrum(0)
