"""Verification oracle by enumeration, independent of the character formulas.

An index-n subgroup is the stabiliser of a base point in a transitive
action on n points that satisfies the defining relation.  The counters
oracle_count_subgroups, oracle_count_classes and oracle_orientable_split
enumerate those actions as standard coset tables (the low-index subgroups
search, Sims, Computation with Finitely Presented Groups, ch. 5): a
backtracking search that reaches every index-n subgroup exactly once and
prunes partial tables whose relator traces fail to close.  The number of
leaves is M, the leaves that are least among their re-standardisations from
each base point number N, and for the squares relation a parity check on
each leaf splits M into orientable and non-orientable stabilisers.  One
search per (relation, generators, index) serves all three counters.

The tuple kernels in _pykernels walk every tuple of generator images in
the symmetric group instead.  They are the reference the search is tested
against at small n.

Everything here is exponential; it exists to confirm the formula routes on
small indices, not to compute.  A search that visits more than NODE_LIMIT
nodes stops with ResourceLimitError rather than run for minutes, and nothing
is ever silently truncated or cached.
"""

from functools import lru_cache
from itertools import product
from math import gcd

from . import _pykernels
from .abelian import HomologySignature
from .census import Free, GroupKind, NonOrientableSurface, OrientableSurface
from .errors import ConsistencyError, ResourceLimitError, check_index

_kernels = _pykernels

# The most nodes (entries to the search's descend step) one coset search may
# visit.  At 3-8 us a node (CPython 3.11) this stops a search after about 10-20 s: it admits
# free:2 n=8 (1.1M nodes) and orient:2 n=5 (2.0M), not free:3 n=6 (15M).
NODE_LIMIT = 2_500_000

# Epimorphism brute force stays pure Python; its bounds keep it tiny.
EPI_MAX_GENERATORS = 6
EPI_MAX_ORDER = 24


def kernel_backend() -> str:
    """The tuple kernels' backend: always "python", the only one there is.

    Kept, with the _kernels alias, for the benchmark harness outside the
    package: perfbench/worker.py records kernel_backend() on every run, and
    perfbench/tracer.py and its tests reach the kernels through
    oracle._kernels.
    """
    return "python"


def _relation_code(kind: GroupKind) -> int:
    if isinstance(kind, Free):
        return _pykernels.REL_FREE
    if isinstance(kind, OrientableSurface):
        return _pykernels.REL_COMMUTATOR
    if isinstance(kind, NonOrientableSurface):
        return _pykernels.REL_SQUARES
    raise TypeError(f"unsupported group kind {kind!r}")


def _relator(rel: int, gens: int) -> tuple[int, ...]:
    # The defining relator as letters: generator g is letter g, its inverse
    # is letter gens + g.  Same words as _pykernels.satisfies_relation.
    if rel == _pykernels.REL_FREE:
        return ()
    if rel == _pykernels.REL_COMMUTATOR:
        word = []
        for g in range(0, gens, 2):
            word += [g, g + 1, gens + g, gens + g + 1]
        return tuple(word)
    if rel == _pykernels.REL_SQUARES:
        return tuple(g for g in range(gens) for _ in range(2))
    raise ValueError(f"unknown relation code {rel}")


@lru_cache(maxsize=None)
def _coset_search(rel: int, gens: int, n: int) -> tuple[int, int, int]:
    """(M, N, M+) at index n by a search over standard coset tables.

    A coset table lists, for every coset x and generator g, the coset x.g.
    The table is standard when cosets are numbered in the order they first
    appear as the entries are read by coset, then by generator.  Index-n
    subgroups correspond one to one with complete standard tables on n
    cosets whose columns are permutations satisfying the relator, the
    subgroup being the stabiliser of coset 0.  The search fills entries in
    that reading order, giving each one an existing coset not yet in its
    column's image or else the next unused coset, so every such table is
    reached exactly once.

    After each entry is defined, the relator is traced through the new
    edge for every place its generator occurs in the relator.  A trace of
    full length that does not close prunes the branch; one that lacks a
    single edge forces that edge (a deduction, processed the same way).

    A leaf counts towards N when its table is the least of its n
    re-standardisations from each base point, one leaf per conjugacy class,
    and towards M+ when its point stabiliser is orientable (squares
    relation only).  Every leaf is re-checked with the tuple kernels'
    relation and transitivity tests.

    Each entry to descend is one node.  The search raises ResourceLimitError
    once it has visited more than NODE_LIMIT nodes, read when it starts; the
    cache keeps no entry for a search that raised.
    """
    limit = NODE_LIMIT
    nodes = 0
    word = _relator(rel, gens)
    length = len(word)
    fwd = [[-1] * n for _ in range(gens)]
    maps = fwd + [[-1] * n for _ in range(gens)]
    # For each generator, the places it occurs in the relator: its letter
    # there, the letters after it, and the inverses of the letters before
    # it, each list in the order a trace away from that place reads them.
    places = [[] for _ in range(gens)]
    for j, letter in enumerate(word):
        ahead = [word[(j + 1 + i) % length] for i in range(length - 1)]
        behind = [(word[(j - 1 - i) % length] + gens) % (2 * gens) for i in range(length - 1)]
        places[letter % gens].append((letter, ahead, behind))
    trail = []
    totals = [0, 0, 0]

    def define(x, g, y):
        # Set x.g = y and follow the relator through every new edge; False
        # when a trace fails to close.  Edges defined stay on the trail.
        pending = [(x, g, y)]
        while pending:
            x, g, y = pending.pop()
            if maps[g][x] >= 0 or maps[gens + g][y] >= 0:
                # A deduced edge that is already there, or that clashes
                # with another edge at either end.
                if maps[g][x] == y:
                    continue
                return False
            maps[g][x] = y
            maps[gens + g][y] = x
            trail.append((x, g, y))
            for letter, ahead, behind in places[g]:
                # The trace crosses the edge u -> v; an inverse letter
                # crosses x.g = y from y to x.
                u, v = (x, y) if letter == g else (y, x)
                f = v
                reach = 0
                for a in ahead:
                    nxt = maps[a][f]
                    if nxt < 0:
                        break
                    f = nxt
                    reach += 1
                else:
                    if f != u:
                        return False
                    continue
                gap = ahead[reach]
                b = u
                for a in behind[: length - 2 - reach]:
                    b = maps[a][b]
                    if b < 0:
                        break
                else:
                    # Exactly one edge is missing: f.gap = b.
                    pending.append((f, gap, b) if gap < gens else (b, gap - gens, f))
        return True

    def undo(mark):
        while len(trail) > mark:
            x, g, y = trail.pop()
            maps[g][x] = -1
            maps[gens + g][y] = -1

    def leaf():
        images = tuple(tuple(column) for column in fwd)
        if not _pykernels.satisfies_relation(rel, images, n) or not _pykernels._is_transitive(
            images, n
        ):
            raise ConsistencyError(f"coset search produced a bad table {images}")
        totals[0] += 1
        if _least_standard(fwd, n):
            totals[1] += 1
        if rel == _pykernels.REL_SQUARES and _pykernels.stabilizer_orientable(images, n):
            totals[2] += 1

    def descend(x, g, count):
        nonlocal nodes
        nodes += 1
        if nodes > limit:
            raise ResourceLimitError(f"the coset search exceeds the limit of {limit} nodes")
        while True:
            if g == gens:
                x += 1
                g = 0
            if x == count:
                # Cosets 0..count-1 are closed under every generator: a
                # complete table when count == n, intransitive otherwise.
                if count == n:
                    leaf()
                return
            if fwd[g][x] < 0:
                break
            g += 1
        image = maps[gens + g]
        mark = len(trail)
        for y in range(count + (count < n)):
            if image[y] < 0:
                if define(x, g, y):
                    descend(x, g + 1, max(count, y + 1))
                undo(mark)

    descend(0, 0, 1)
    subgroups, classes, orientable = totals
    if not classes <= subgroups <= n * classes:
        raise ConsistencyError(f"coset search gave M={subgroups}, N={classes} at index {n}")
    return subgroups, classes, orientable


def _least_standard(fwd: list[list[int]], n: int) -> bool:
    """Whether the standard table fwd is the least of its re-standardisations.

    Renumbering cosets by first appearance from base point b gives the
    standard table of b's stabiliser; those tables, one per b, are the
    standard tables of one conjugacy class of subgroups.
    """
    gens = len(fwd)
    for base in range(1, n):
        new = [-1] * n
        new[base] = 0
        old = [base]
        for slot in range(n * gens):
            row, g = divmod(slot, gens)
            y = fwd[g][old[row]]
            if new[y] < 0:
                new[y] = len(old)
                old.append(y)
            if new[y] != fwd[g][row]:
                if new[y] < fwd[g][row]:
                    return False
                break
    return True


def _search(kind: GroupKind, n: int) -> tuple[int, int, int]:
    check_index(n)
    rel = _relation_code(kind)
    try:
        return _coset_search(rel, kind.generator_count, n)
    except ResourceLimitError as exc:
        raise ResourceLimitError(f"{kind} at index {n}: {exc}") from None


def oracle_count_subgroups(kind: GroupKind, n: int) -> int:
    """Index-n subgroup count: the leaves of the coset-table search."""
    return _search(kind, n)[0]


def oracle_count_classes(kind: GroupKind, n: int) -> int:
    """Conjugacy classes of index-n subgroups: the coset-table search's
    leaves that are least among their re-standardisations."""
    return _search(kind, n)[1]


def oracle_orientable_split(p: int, n: int) -> tuple[int, int]:
    """(orientable, non-orientable) index-n subgroup counts for
    NonOrientableSurface(p), by the parity check on point stabilisers."""
    subgroups, _, orientable = _search(NonOrientableSurface(p), n)
    return orientable, subgroups - orientable


def oracle_epi_count(signature: HomologySignature, ell: int) -> int:
    """Epimorphism count onto the cyclic group of order ell, by enumeration.

    Try every order-respecting assignment of generator images in Z_ell and
    keep those whose images generate, i.e. whose gcd with ell is 1.
    """
    check_index(ell, "ell")
    generators = len(signature.torsion) + signature.rank
    if generators > EPI_MAX_GENERATORS or ell > EPI_MAX_ORDER:
        raise ResourceLimitError(
            f"epimorphism enumeration bounded to {EPI_MAX_GENERATORS} generators "
            f"and target order {EPI_MAX_ORDER}, got {generators} and {ell}"
        )
    choices = []
    for t in signature.torsion:
        step = ell // gcd(t, ell)
        choices.append(range(0, ell, step))
    for _ in range(signature.rank):
        choices.append(range(ell))
    count = 0
    for images in product(*choices):
        acc = ell
        for x in images:
            acc = gcd(acc, x)
        if acc == 1:
            count += 1
    return count
