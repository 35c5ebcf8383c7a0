"""Verification oracle by enumeration, independent of the character formulas.

An index-n subgroup is the stabiliser of a base point in a transitive
action on n points that satisfies the defining relation.  oracle_table
enumerates those actions as standard coset tables (the low-index subgroups
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
subgroups.  The search at index n gives the rows of every index up to n,
the same CensusRow records as census_table's and held to the same row
check; _presentation gives each family's relation and generator count.

Everything here is exponential; it exists to confirm the formula routes on
small indices, not to compute.  A search that visits more than NODE_LIMIT
nodes stops with ResourceLimitError rather than run for minutes; nothing is
ever silently truncated.
"""

from . import _pykernels
from .census import Free, GroupKind, NonOrientableSurface, OrientableSurface
from .classes import CensusRow, _check_row
from .errors import ConsistencyError, ResourceLimitError, check_index

_kernels = _pykernels

# The most nodes (entries to the search's descend step) one coset search may
# visit.  In process a node costs about 5.4 us on free:3 n=5, 6.8 us on
# free:2 n=7, 10.2 us on orient:2 n=4 and 9.7 us on nonorient:3 n=6 (CPython
# 3.11 on a 2-CPU x86-64 host, CPU time at perfbench's probe reference
# speed), and verify stops at the limit after 4.7-9.1 s on one CPU: it
# admits free:2 n=9 (0.84M nodes) and orient:2 n=5 (0.15M), not free:3 n=6
# (1.12M) or orient:3 n=4 (1.92M).
NODE_LIMIT = 1_000_000


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


def _coset_search(rel: int, gens: int, n: int) -> tuple[tuple[int, int, int], ...]:
    """(M, N, M+) at every index 1..n, from one search over coset tables.

    A coset table lists, for every coset x and generator g, the coset x.g.
    The table is standard when cosets are numbered in the order they first
    appear as the entries are read by coset, then by generator.  Index-n
    subgroups correspond one to one with complete standard tables on n
    cosets whose columns are permutations satisfying the relator, the
    subgroup being the stabiliser of coset 0.  While a coset is unopened the
    search fills entries in that reading order, giving each one an existing
    coset not yet in its column's image or else the next unused coset.  A
    node whose first m cosets close up under every generator is a leaf of
    index m: the index-m search is this one cut to the nodes that open at
    most m cosets.  Once every coset is open, each undefined cell of a
    column g can take any of the column's free[g] unused targets, so the
    search branches on the first column with the fewest undefined cells, at
    its first undefined row (the fewest-candidates choice of backtracking),
    and a node with none is the leaf of index n.  Before then only the first
    undefined entry in reading order may open the next coset, so a branch on
    any other cell would leave out the completions that open it there.

    After each entry is defined, the relator is traced through the new
    edge for every place its generator occurs in the relator.  A trace of
    full length that does not close prunes the branch; one that lacks a
    single edge forces that edge (a deduction, processed the same way).
    Where the relator has the generator's inverse, the trace reads the
    inverse relator, the same cycle the other way round, so every trace
    starts at x.g and must end at x.  Each place is built once per search
    as a list of columns to read, so a trace indexes nothing but them.
    When no edge is left to trace and a column has one undefined cell, that
    cell is forced as well: its row can only go to the column's one unused
    target.  The rows of unopened cosets are undefined, so this happens
    once every coset is open, or when only coset n - 1 is unopened and
    cosets 0..n-2 are closed under the generator g.  The forced cell is
    then (n-1).g = n - 1, which every completion that opens coset n - 1
    has; no other edge reaches that row, so its traces prune nothing.

    Re-standardising a table from base point b gives the standard table of
    b's stabiliser, so the tables of one conjugacy class are the
    re-standardisations of any one of them.  The search keeps only tables
    that can still be the least of theirs.  Each live base holds the state
    of its comparison with that re-standardisation (_resume): renumbering,
    slot reached, and the undefined entry that stopped it.  After each
    define a base still stopped by that entry is kept unread; any other
    resumes from its slot on copies, so siblings see the parent's
    states, and the branch is pruned when one is already smaller.  A coset
    the define opens is a new base, compared after the live ones.  A base
    whose re-standardisation is already larger stays larger in every
    completion and leaves the live list handed down.  So the search reaches
    exactly one leaf per conjugacy class.  At a leaf of index m the bases
    whose re-standardisation equals the table number [N(H):H], and the class
    holds m / [N(H):H] subgroups: that adds to index m's M, one to its N,
    and to its M+ when the stabiliser is orientable (squares relation only;
    orientability is shared by conjugates, since the orientation character's
    kernel is normal).  Every leaf is re-checked: the relation with the
    tuple kernels' test, and every base compared afresh in one pass over the
    table cut to m cosets (_fixed_bases), which also finds a table that is
    not transitive.  The bases it finds equal must number a divisor of m,
    and one more than the live list handed to the leaf, base 0 being the
    one: each live base has resumed to the end there and each dropped one
    compared 1, so the scan checks the search's pruning at every leaf.

    Each entry to descend is one node.  The search raises ResourceLimitError
    once it has visited more than NODE_LIMIT nodes, read when it starts.
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
    # column, y, g): undo resets its two cells, and define reads it as the
    # queue of edges still to trace.
    trail = []
    # The undefined cells of each column.
    free = [n] * gens
    totals = [[0, 0, 0] for _ in range(n)]

    def define(x, g, y):
        # Set x.g = y, both ends free, and follow the relator through every
        # new edge; False when a trace fails to close.  Edges defined stay
        # on the trail.
        column = fwd[g]
        inverse = inv[g]
        column[x] = y
        inverse[y] = x
        free[g] -= 1
        i = len(trail)
        trail.append((places[g], column, x, inverse, y, g))
        while i < len(trail):
            own, _, x, _, y, _ = trail[i]
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
                    free[h] -= 1
                    trail.append((places[h], column, u, inverse, v, h))
            if i == len(trail) and 1 in free:
                # The queue has drained and a column has one undefined
                # cell: a forced edge, traced like a deduction.
                h = free.index(1)
                column = fwd[h]
                inverse = inv[h]
                u = column.index(-1)
                v = inverse.index(-1)
                column[u] = v
                inverse[v] = u
                free[h] = 0
                trail.append((places[h], column, u, inverse, v, h))
        return True

    def undo(mark):
        for _, column, x, inverse, y, g in trail[mark:]:
            column[x] = -1
            inverse[y] = -1
            free[g] += 1
        del trail[mark:]

    def leaf(live, m):
        table = fwd if m == n else [column[:m] for column in fwd]
        if not _pykernels.satisfies_relation(rel, table, m):
            raise ConsistencyError(f"coset search produced a bad table {tuple(map(tuple, table))}")
        fixed = _fixed_bases(table, m)
        conjugates, rest = divmod(m, fixed)
        if rest:
            raise ConsistencyError(f"coset search found [N(H):H] = {fixed} does not divide {m}")
        # Every live base has resumed to the end here, base 0 never joins
        # the list, and every base the search dropped compared 1.
        if fixed != 1 + len(live):
            raise ConsistencyError(
                f"coset search kept {len(live)} live bases at a table with [N(H):H] = {fixed}"
            )
        row = totals[m - 1]
        row[0] += conjugates
        row[1] += 1
        if rel == _pykernels.REL_SQUARES and _pykernels.stabilizer_orientable(table, m):
            row[2] += conjugates

    def descend(x, g, count, live):
        nonlocal nodes
        nodes += 1
        if nodes > limit:
            raise ResourceLimitError(f"the coset search exceeds the limit of {limit} nodes")
        if count < n:
            while True:
                if g == gens:
                    x += 1
                    g = 0
                if x == count:
                    # Cosets 0..count-1 are closed under every generator: a
                    # complete table of index count.
                    leaf(live, count)
                    return
                if fwd[g][x] < 0:
                    break
                g += 1
        else:
            # Every coset is open, so each free cell of column g has the
            # same free[g] candidates: branch on the first column with the
            # fewest, at its first free row.
            fewest = n + 1
            for h, k in enumerate(free):
                if 0 < k < fewest:
                    fewest, g = k, h
            if fewest > n:
                leaf(live, n)
                return
            x = fwd[g].index(-1)
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
    return tuple(map(tuple, totals))


def _fixed_bases(fwd: list[list[int]], n: int) -> int:
    """[N(H):H] of the complete table fwd: the bases whose re-standardisation
    equals it, each compared from scratch in _resume's order.

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
    """Compare fwd from slot (row, g) on with its re-standardisation from a
    base: renumbering cosets by first appearance from it, reading entries by
    coset then generator, extending the renumbering new and old
    (new[old[i]] == i) in place.  Returns the order and the state (column,
    cell, new, old, row, g) it stops in, column[cell] being the undefined
    entry that stopped it.  The order is -1 or 1 at the first slot where
    both are defined and differ (-1 when the re-standardisation is smaller),
    None when an undefined entry comes first or the base's cosets close up
    short of len(new), 0 when the complete tables are equal.  A -1 or 1
    holds for every completion of fwd, since only defined entries were read.
    """
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


def oracle_table(kind: GroupKind, n_max: int) -> tuple[CensusRow, ...]:
    """The oracle's rows for n = 1..n_max, from one coset-table search at
    n_max: census_table's rows by an independent route, each checked as
    census_table checks its own."""
    check_index(n_max, "n_max")
    rel, gens = _presentation(kind)
    try:
        counts = _coset_search(rel, gens, n_max)
    except ResourceLimitError as exc:
        raise ResourceLimitError(f"{kind} at index {n_max}: {exc}") from None
    split = isinstance(kind, NonOrientableSurface)
    rows = []
    for n, (subgroups, classes, orientable) in enumerate(counts, 1):
        halves = (orientable, subgroups - orientable) if split else ()
        row = CensusRow(n, subgroups, classes, *halves)
        _check_row(row)
        rows.append(row)
    return tuple(rows)
