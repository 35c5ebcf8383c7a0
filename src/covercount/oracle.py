"""Verification oracle by enumeration, independent of the character formulas.

An index-n subgroup is the stabiliser of a base point in a transitive
action on n points that satisfies the defining relation.  The counters
oracle_count_subgroups, oracle_count_classes and oracle_orientable_split
enumerate those actions as standard coset tables (the low-index subgroups
search, Sims, Computation with Finitely Presented Groups, ch. 5): a
backtracking search that prunes partial tables whose relator traces fail
to close, and partial tables that can no longer be the least of their
re-standardisations from each base point.  It keeps a live list of the
base points that might still tie with or undercut the table and reaches
exactly one leaf per conjugacy class, so the leaves number N.  A leaf H
stands for n / [N(H):H] conjugate subgroups, [N(H):H] being the number of
base points whose re-standardisation equals the table, so M is the sum of
n / [N(H):H] over the leaves; for the squares relation a parity check on
each leaf's stabiliser divides M into orientable and non-orientable
subgroups.  One search per (relation, generators, index) serves all three
counters; _presentation gives each family's relation and generator count.

Everything here is exponential; it exists to confirm the formula routes on
small indices, not to compute.  A search that visits more than NODE_LIMIT
nodes stops with ResourceLimitError rather than run for minutes; nothing is
ever silently truncated.  Finished searches are cached per (relation,
generators, index), and a refused search leaves no cache entry.
"""

from functools import lru_cache

from . import _pykernels
from .census import Free, GroupKind, NonOrientableSurface, OrientableSurface
from .errors import ConsistencyError, ResourceLimitError, check_index

_kernels = _pykernels

# The most nodes (entries to the search's descend step) one coset search may
# visit.  At 7-10 us a node (CPython 3.11) this stops a search after about
# 15-20 s: it admits free:2 n=9 (1.76M nodes) and orient:2 n=5 (0.62M), not
# free:3 n=6 (3.3M) or orient:3 n=4 (19M).
NODE_LIMIT = 2_000_000


def kernel_backend() -> str:
    """The tuple kernels' backend: always "python", the only one there is.

    It stays, with the _kernels alias, only because perfbench/worker.py
    records it on every run and perfbench/tracer.py wraps the tuple
    counters through oracle._kernels, until ROADMAP item 1 moves the
    benchmark onto the coset search.
    """
    return "python"


def _presentation(kind: GroupKind) -> tuple[int, int]:
    # The relation code and the generator count of kind's presentation.
    if isinstance(kind, Free):
        return _pykernels.REL_FREE, kind.rank
    if isinstance(kind, OrientableSurface):
        return _pykernels.REL_COMMUTATOR, 2 * kind.genus
    if isinstance(kind, NonOrientableSurface):
        return _pykernels.REL_SQUARES, kind.genus
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
    column's image or else the next unused coset.

    After each entry is defined, the relator is traced through the new
    edge for every place its generator occurs in the relator.  A trace of
    full length that does not close prunes the branch; one that lacks a
    single edge forces that edge (a deduction, processed the same way).

    Re-standardising a table from base point b gives the standard table of
    b's stabiliser, so the tables of one conjugacy class are the
    re-standardisations of any one of them.  The search keeps only tables
    that can still be the least of theirs: after each define it compares
    the table with its re-standardisation from every live base (_compare)
    and prunes the branch when one is already smaller.  A base whose
    re-standardisation is already larger stays larger in every completion
    and leaves the live list handed down; each coset a define opens joins
    it.  So the search reaches exactly one leaf per conjugacy class.  At a
    leaf the bases whose re-standardisation equals the table number
    [N(H):H], and the class holds n / [N(H):H] subgroups: that adds to M,
    one to N, and to M+ when the stabiliser is orientable (squares relation
    only; orientability is shared by conjugates, since the orientation
    character's kernel is normal).  Every leaf is re-checked with the tuple
    kernels' relation and transitivity tests and against every base.

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
        orders = [_compare(fwd, n, base) for base in range(n)]
        if orders[0] != 0 or -1 in orders or None in orders:
            raise ConsistencyError(
                f"coset search reached a table that is not the least standard table {images}"
            )
        # The bases whose stabiliser is H itself: [N(H):H] of them.
        fixed = orders.count(0)
        conjugates, rest = divmod(n, fixed)
        if rest:
            raise ConsistencyError(f"coset search found [N(H):H] = {fixed} does not divide {n}")
        totals[0] += conjugates
        totals[1] += 1
        if rel == _pykernels.REL_SQUARES and _pykernels.stabilizer_orientable(images, n):
            totals[2] += conjugates

    def descend(x, g, count, live):
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
                    # Prune when a base undercuts the table; a new coset
                    # y joins the bases, one already larger drops out.
                    kept = []
                    for base in live + [y] if y == count else live:
                        order = _compare(fwd, n, base)
                        if order == -1:
                            break
                        if order != 1:
                            kept.append(base)
                    else:
                        descend(x, g + 1, max(count, y + 1), kept)
                undo(mark)

    descend(0, 0, 1, [])
    subgroups, classes, orientable = totals
    if not classes <= subgroups <= n * classes:
        raise ConsistencyError(f"coset search gave M={subgroups}, N={classes} at index {n}")
    return subgroups, classes, orientable


def _compare(fwd: list[list[int]], n: int, base: int) -> int | None:
    """How the table fwd compares with its re-standardisation from base.

    Renumbering cosets by first appearance from base, reading entries by
    coset then generator, gives the standard table of base's stabiliser.
    Compared with fwd slot by slot in that order: -1 or 1 at the first
    slot where both are defined and differ (-1 when the re-standardisation
    is smaller), None when an undefined entry comes first, 0 when the
    complete tables are equal.  A partial table's -1 or 1 holds for every
    completion of it, since only defined entries were read.
    """
    new = [-1] * n
    new[base] = 0
    old = [base]
    for row in range(n):
        if row == len(old):
            # The cosets reached so far are closed: not a complete table.
            return None
        source = old[row]
        for column in fwd:
            entry = column[row]
            y = column[source]
            if entry < 0 or y < 0:
                return None
            renamed = new[y]
            if renamed < 0:
                renamed = new[y] = len(old)
                old.append(y)
            if renamed != entry:
                return -1 if renamed < entry else 1
    return 0


def _search(kind: GroupKind, n: int) -> tuple[int, int, int]:
    check_index(n)
    rel, gens = _presentation(kind)
    try:
        return _coset_search(rel, gens, n)
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
