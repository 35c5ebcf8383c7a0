"""The oracle's coset-table search before canonicity pruning: a test reference.

full_leaf_search visits every complete standard coset table, one leaf per
index-n subgroup, so M is its leaf count, N the number of leaves that are
least among their re-standardisations (least_standard) and M+ the leaves
whose stabiliser is orientable.  The package's search keeps one leaf per
conjugacy class and weights it by n / [N(H):H]; the tests require both to
give the same (M, N, M+).  It has no cache and no node limit.

Loaded by path from the tests, as tests/r_nu_closed.py is.
"""

from covercount import _pykernels
from covercount.errors import ConsistencyError
from covercount.oracle import _relator


def full_leaf_search(rel: int, gens: int, n: int) -> tuple[int, int, int]:
    """(M, N, M+) at index n, counted leaf by leaf over every standard table."""
    word = _relator(rel, gens)
    length = len(word)
    fwd = [[-1] * n for _ in range(gens)]
    maps = fwd + [[-1] * n for _ in range(gens)]
    places = [[] for _ in range(gens)]
    for j, letter in enumerate(word):
        ahead = [word[(j + 1 + i) % length] for i in range(length - 1)]
        behind = [(word[(j - 1 - i) % length] + gens) % (2 * gens) for i in range(length - 1)]
        places[letter % gens].append((letter, ahead, behind))
    trail = []
    totals = [0, 0, 0]

    def define(x, g, y):
        pending = [(x, g, y)]
        while pending:
            x, g, y = pending.pop()
            if maps[g][x] >= 0 or maps[gens + g][y] >= 0:
                if maps[g][x] == y:
                    continue
                return False
            maps[g][x] = y
            maps[gens + g][y] = x
            trail.append((x, g, y))
            for letter, ahead, behind in places[g]:
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
        if least_standard(fwd, n):
            totals[1] += 1
        if rel == _pykernels.REL_SQUARES and _pykernels.stabilizer_orientable(images, n):
            totals[2] += 1

    def descend(x, g, count):
        while True:
            if g == gens:
                x += 1
                g = 0
            if x == count:
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
    return tuple(totals)


def least_standard(fwd: list[list[int]], n: int) -> bool:
    """Whether the standard table fwd is the least of its re-standardisations."""
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
