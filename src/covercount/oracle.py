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
# visit.  In process a node costs about 2.6 us on free:3 n=5, 3.5 us on
# free:2 n=7, 4.6 us on orient:2 n=4 and 5.3 us on nonorient:3 n=6 (CPython
# 3.11 on a 2-CPU x86-64 host, CPU time at perfbench's probe reference
# speed), and verify stops at the limit after 4.5-7.6 s on a busy host: it
# admits free:2 n=9 (1.76M nodes) and orient:2 n=5 (0.62M), not free:3 n=6
# (3.3M) or orient:3 n=4 (19M).
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
    Where the relator has the generator's inverse, the trace reads the
    inverse relator, the same cycle the other way round, so every trace
    starts at x.g and must end at x.  Each place is built once per search
    as a list of columns to read, so a trace indexes nothing but them.

    Re-standardising a table from base point b gives the standard table of
    b's stabiliser, so the tables of one conjugacy class are the
    re-standardisations of any one of them.  The search keeps only tables
    that can still be the least of theirs.  Each live base holds the state
    of its comparison with that re-standardisation (_compare): renumbering,
    slot reached, and the undefined entry that stopped it.  After each
    define a base still stopped by that entry is kept unread; any other
    resumes from its slot on copies (_resume), so siblings see the parent's
    states, and the branch is pruned when one is already smaller.  A coset
    the define opens is a new base, compared after the live ones.  A base
    whose re-standardisation is already larger stays larger in every
    completion and leaves the live list handed down.  So the search reaches
    exactly one leaf per conjugacy class.  At a leaf the bases whose
    re-standardisation equals the table number [N(H):H], and the class
    holds n / [N(H):H] subgroups: that adds to M, one to N, and to M+ when
    the stabiliser is orientable (squares relation only; orientability is
    shared by conjugates, since the orientation character's kernel is
    normal).  Every leaf is re-checked: the relation with the tuple kernels'
    test, and every base compared afresh in one pass over the complete table
    (_fixed_bases), which also finds a table that is not transitive.  The
    bases it finds equal must number a divisor of n, and one more than the
    live list handed to the leaf, base 0 being the one: each live base has
    resumed to 0 there and each dropped one compared 1, so the scan checks
    the search's pruning at every leaf.

    Each entry to descend is one node.  The search raises ResourceLimitError
    once it has visited more than NODE_LIMIT nodes, read when it starts; the
    cache keeps no entry for a search that raised.
    """
    limit = NODE_LIMIT
    nodes = 0
    word = _relator(rel, gens)
    length = len(word)
    fwd = [[-1] * n for _ in range(gens)]
    inv = [[-1] * n for _ in range(gens)]
    # The column of each letter: generator g's is fwd[g], its inverse's inv[g].
    maps = fwd + inv
    # For each generator, the places it occurs in the relator.  A place is
    # read in the relator, or for an inverse letter in the inverse relator,
    # so that the generator itself stands there.  It is a list of steps, one
    # per letter after the place, in the order a trace from x.g reads them.
    # Step i holds that letter's column; the columns of the inverses of the
    # length - 2 - i letters before the place, nearest first, which a trace
    # stopped at step i reads back from x; and the letter, which names the
    # one edge missing when all of those are defined.
    places = [[] for _ in range(gens)]
    for j, letter in enumerate(word):
        ahead = [word[(j + 1 + i) % length] for i in range(length - 1)]
        behind = [(word[(j - 1 - i) % length] + gens) % (2 * gens) for i in range(length - 1)]
        if letter >= gens:
            ahead, behind = behind, ahead
        places[letter % gens].append(
            [(maps[a], [maps[c] for c in behind[: length - 2 - i]], a) for i, a in enumerate(ahead)]
        )
    # Every edge x.g = y defined, as (places of g, column, x, inverse
    # column, y): undo resets its two cells, and define reads it as the
    # queue of edges still to trace.
    trail = []
    totals = [0, 0, 0]

    def define(x, g, y):
        # Set x.g = y, both ends free, and follow the relator through every
        # new edge; False when a trace fails to close.  Edges defined stay
        # on the trail.
        column = fwd[g]
        inverse = inv[g]
        column[x] = y
        inverse[y] = x
        i = len(trail)
        trail.append((places[g], column, x, inverse, y))
        while i < len(trail):
            own, _, x, _, y = trail[i]
            i += 1
            for place in own:
                # Read the relator on from x.g = y; it must come back to x.
                f = y
                for step, behind, gap in place:
                    nxt = step[f]
                    if nxt < 0:
                        break
                    f = nxt
                else:
                    if f != x:
                        return False
                    continue
                b = x
                for step in behind:
                    b = step[b]
                    if b < 0:
                        break
                else:
                    # Exactly one edge is missing: f.gap = b.
                    if gap < gens:
                        u, h, v = f, gap, b
                    else:
                        u, h, v = b, gap - gens, f
                    column = fwd[h]
                    inverse = inv[h]
                    if column[u] >= 0 or inverse[v] >= 0:
                        # A clash at the far end b: the trace stopped at f,
                        # on the empty cell column[u] (gap < gens) or
                        # inverse[v] (gap >= gens), so the edge is not
                        # there and another edge already uses b.
                        return False
                    column[u] = v
                    inverse[v] = u
                    trail.append((places[h], column, u, inverse, v))
        return True

    def undo(mark):
        for _, column, x, inverse, y in trail[mark:]:
            column[x] = -1
            inverse[y] = -1
        del trail[mark:]

    def leaf(live):
        if not _pykernels.satisfies_relation(rel, fwd, n):
            raise ConsistencyError(f"coset search produced a bad table {tuple(map(tuple, fwd))}")
        fixed = _fixed_bases(fwd, n)
        conjugates, rest = divmod(n, fixed)
        if rest:
            raise ConsistencyError(f"coset search found [N(H):H] = {fixed} does not divide {n}")
        # Every live base has resumed to 0 here, base 0 never joins the
        # list, and every base the search dropped compared 1.
        if fixed != 1 + len(live):
            raise ConsistencyError(
                f"coset search kept {len(live)} live bases at a table with [N(H):H] = {fixed}"
            )
        totals[0] += conjugates
        totals[1] += 1
        if rel == _pykernels.REL_SQUARES and _pykernels.stabilizer_orientable(fwd, n):
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
                    leaf(live)
                return
            if fwd[g][x] < 0:
                break
            g += 1
        image = inv[g]
        mark = len(trail)
        for y in range(count + (count < n)):
            if image[y] < 0:
                if define(x, g, y):
                    # Prune when a base undercuts the table; one already
                    # larger drops out, one still stopped by an undefined
                    # cell stays unread.  A new coset y joins the bases,
                    # compared after the live ones.
                    kept = []
                    for state in live if y < count else live + [_start(n, y)]:
                        block, cell, new, old, row, at = state
                        if block[cell] >= 0:
                            order, state = _resume(fwd, new[:], old[:], row, at)
                            if order == -1:
                                break
                            if order == 1:
                                continue
                        kept.append(state)
                    else:
                        descend(x, g + 1, count + (y == count), kept)
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
    return _resume(fwd, new, [base], 0, 0)[0]


def _fixed_bases(fwd: list[list[int]], n: int) -> int:
    """[N(H):H] of the complete table fwd: the bases whose re-standardisation
    equals it, each compared from scratch as _compare does.

    Raises ConsistencyError when fwd is intransitive (the cosets reached
    from base 0 close up before n) or when any base's re-standardisation is
    smaller (fwd is not the least of its class).  Base 0's is never larger
    than fwd, so on a transitive table it is not equal to fwd exactly when
    fwd is not standard, and then it is smaller.
    """
    fixed = 0
    for base in range(n):
        new = [-1] * n
        new[base] = 0
        old = [base]
        size = 1
        row = 0
        while row < size:
            source = old[row]
            for column in fwd:
                y = column[source]
                renamed = new[y]
                if renamed < 0:
                    renamed = new[y] = size
                    old.append(y)
                    size += 1
                if renamed != column[row]:
                    break
            else:
                row += 1
                continue
            # The first slot where the two differ.
            if renamed < column[row]:
                raise ConsistencyError(
                    "coset search reached a table that is not the least standard table "
                    f"{tuple(map(tuple, fwd))}"
                )
            break
        else:
            # Equal on every row reached from base.
            if size < n:
                raise ConsistencyError(
                    f"coset search produced a bad table {tuple(map(tuple, fwd))}: "
                    f"the cosets reached from 0 close up at {size}"
                )
            fixed += 1
    return fixed


# A cell never undefined: the block of a comparison that no undefined entry
# has stopped, so the search always resumes it.
_OPEN = (0,)


def _start(n: int, base: int) -> tuple:
    # The state of a comparison from base that has read nothing yet.
    new = [-1] * n
    new[base] = 0
    return _OPEN, 0, new, [base], 0, 0


def _resume(fwd: list[list[int]], new: list[int], old: list[int], row: int, g: int) -> tuple:
    # Go on with a comparison (_compare) from slot (row, g), extending its
    # renumbering new and old (new[old[i]] == i) in place: its order, and the
    # state (column, cell, new, old, row, g) it stops in, column[cell] being
    # the undefined entry that stopped it.
    size = len(old)
    gens = len(fwd)
    while row < size:
        source = old[row]
        for g in range(g, gens):
            column = fwd[g]
            entry = column[row]
            y = column[source]
            if entry < 0 or y < 0:
                return None, (column, row if entry < 0 else source, new, old, row, g)
            renamed = new[y]
            if renamed < 0:
                renamed = new[y] = size
                old.append(y)
                size += 1
            if renamed != entry:
                return (-1, None) if renamed < entry else (1, None)
        row += 1
        g = 0
    # Complete, or the cosets reached from base are closed and it is not.
    return (0 if row == len(new) else None), (_OPEN, 0, new, old, row, 0)


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


def oracle_orientable_split(kind: NonOrientableSurface, n: int) -> tuple[int, int]:
    """(orientable, non-orientable) index-n subgroup counts of a
    non-orientable surface group, by the parity check on point stabilisers."""
    if not isinstance(kind, NonOrientableSurface):
        raise TypeError(f"the orientable split needs a NonOrientableSurface, got {kind!r}")
    subgroups, _, orientable = _search(kind, n)
    return orientable, subgroups - orientable
