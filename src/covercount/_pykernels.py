"""Pure-Python enumeration kernels for the brute-force oracle.

satisfies_relation and stabilizer_orientable re-check each leaf of the
oracle's coset-table search, reading its columns as they stand; the leaf's
scan of every base finds an intransitive table, so it needs no
_is_transitive.  The tuple counters walk every tuple of generator images in
the symmetric group and are the small-n reference the search is tested
against.  They stay in the package only because perfbench/tracer.py wraps
them by name, until ROADMAP item 1 moves the benchmark onto the coset
search.  Permutations are sequences mapping point -> image (tuples in the
counters, the search's column lists at a leaf), composed left factor first.

Relation codes: REL_FREE (no defining relation), REL_COMMUTATOR (the
product of commutators [a1,b1]...[ag,bg] over consecutive generator pairs),
REL_SQUARES (the product of squares a1^2...ap^2).
"""

from itertools import permutations, product

REL_FREE = 0
REL_COMMUTATOR = 1
REL_SQUARES = 2


def _inverse(p):
    inv = [0] * len(p)
    for i, j in enumerate(p):
        inv[j] = i
    return tuple(inv)


def satisfies_relation(rel, images, n):
    """Whether the generator images satisfy the defining relation."""
    if rel == REL_FREE:
        return True
    if rel == REL_SQUARES:
        for x in range(n):
            y = x
            for a in images:
                y = a[a[y]]
            if y != x:
                return False
        return True
    if rel == REL_COMMUTATOR:
        inverses = [_inverse(a) for a in images]
        for x in range(n):
            y = x
            for g in range(0, len(images), 2):
                y = images[g][y]
                y = images[g + 1][y]
                y = inverses[g][y]
                y = inverses[g + 1][y]
            if y != x:
                return False
        return True
    raise ValueError(f"unknown relation code {rel}")


def _is_transitive(images, n):
    # Forward closure from point 0; on a finite set the generated monoid
    # equals the generated group, so forward edges suffice.
    seen = 1
    count = 1
    stack = [0]
    while stack:
        x = stack.pop()
        for a in images:
            y = a[x]
            bit = 1 << y
            if not seen & bit:
                seen |= bit
                count += 1
                stack.append(y)
    return count == n


def _iter_tuples(gens, n):
    if gens == 1:
        # Avoid materialising all n! permutations in the one-generator case.
        for p in permutations(range(n)):
            yield (p,)
        return
    perms = [tuple(p) for p in permutations(range(n))]
    yield from product(perms, repeat=gens)


def count_relation_tuples(rel, gens, n):
    """(relation-satisfying tuples, transitive relation-satisfying tuples)."""
    total = 0
    transitive = 0
    for images in _iter_tuples(gens, n):
        if not satisfies_relation(rel, images, n):
            continue
        total += 1
        if _is_transitive(images, n):
            transitive += 1
    return total, transitive


def _conjugate_adjacent(p, a):
    # Conjugate p by the transposition of points a and a+1.
    b = a + 1
    out = list(p)
    out[a], out[b] = p[b], p[a]
    for i in range(len(out)):
        y = out[i]
        if y == a:
            out[i] = b
        elif y == b:
            out[i] = a
    return tuple(out)


def count_transitive_orbits(rel, gens, n):
    """(transitive tuples, orbits under simultaneous conjugation).

    Conjugation by the adjacent transpositions generates the full symmetric
    group action, so union-find over those moves yields its orbits.
    """
    reps = []
    index = {}
    for images in _iter_tuples(gens, n):
        if satisfies_relation(rel, images, n) and _is_transitive(images, n):
            index[images] = len(reps)
            reps.append(images)

    parent = list(range(len(reps)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for images in reps:
        here = find(index[images])
        for a in range(n - 1):
            conjugated = tuple(_conjugate_adjacent(p, a) for p in images)
            there = find(index[conjugated])
            if here != there:
                parent[there] = here
    orbits = sum(1 for x in range(len(reps)) if find(x) == x)
    return len(reps), orbits


def stabilizer_orientable(images, n):
    """Whether the stabiliser of point 0 lies in the kernel of the
    orientation character (every generator contributing 1 mod 2).

    Assign parities outward from point 0 along generator edges; the
    stabiliser is orientable exactly when every generator edge flips
    parity.  Assumes the tuple is transitive.
    """
    parity = [-1] * n
    parity[0] = 0
    stack = [0]
    while stack:
        x = stack.pop()
        for a in images:
            y = a[x]
            if parity[y] < 0:
                parity[y] = parity[x] ^ 1
                stack.append(y)
    for a in images:
        for x in range(n):
            if parity[a[x]] == parity[x]:
                return False
    return True


def count_orientation_split(gens, n):
    """(orientable, non-orientable) transitive tuples for the squares relation."""
    orientable = 0
    nonorientable = 0
    for images in _iter_tuples(gens, n):
        if not satisfies_relation(REL_SQUARES, images, n):
            continue
        if not _is_transitive(images, n):
            continue
        if stabilizer_orientable(images, n):
            orientable += 1
        else:
            nonorientable += 1
    return orientable, nonorientable
