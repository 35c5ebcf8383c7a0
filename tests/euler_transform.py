"""Class counts of free groups by the Euler transform: a test reference.

An action of the free group F_r on n points splits uniquely into transitive
actions, and the transitive actions up to isomorphism are the conjugacy
classes of finite-index subgroups.  So with h(n) the number of S_n-orbits
on Hom(F_r, S_n) and N(d) the number of classes of index-d subgroups,

    sum_n h(n) x^n = prod_d (1 - x^d)^(-N(d)).

By Burnside's lemma h(n) = sum over the cycle types of S_n of z^(r-1), z
the centraliser order; grouping the cycles by length i, with m cycles of
each length contributing i^m * m!, this is

    h(n) = [x^n] prod_i sum_m (i^m * m!)^(r-1) x^(i m),

a product of polynomials, so no partition is enumerated.  N follows by the
inverse Euler transform, from the logarithmic derivative of the product:

    n h(n) = sum_{k=1}^{n} b(k) h(n-k),  b(k) = sum_{d | k} d N(d).

Every step is in integers and each final division must leave no remainder.
The route uses no Mobius function, no epimorphism count, no covering fiber
and no subgroup recursion, so it shares nothing with covercount's class
driver.

For any group G of the package, surface groups included, Burnside's lemma
gives h(n) = (1/n!) sum_sigma |Hom(G, C(sigma))|, where the centraliser of
a sigma with m_i cycles of length i is the product of the wreath products
Z_i wr S_{m_i}.  Grouping the sigma by cycle type,

    h(n) = [x^n] prod_i F_i(x^i),  F_i(y) = E_i(y / i),

with E_i(y) = sum_m |Hom(G, Z_i wr S_m)| y^m / m!.  By the exponential
formula over the transitive parts of the action on m points,

    E_i(y) = exp(sum_d W_i(d) y^d / d),
    W_i(d) = i^(d-1) * sum over the fiber at d of mult * hom_count(sig, i),

since a transitive action of degree d lifts to Z_i wr S_d in
|Hom(H, Z_i)| * i^(d-1) ways, H the stabiliser.  fiber_class_counts
evaluates this in exact fractions, requires every h(n) to be an integer
and takes N by the same inverse Euler transform.  It shares only the
covering fibers with the class driver: homomorphism counts and generating
functions stand in for its epimorphism counts and Mobius inversion.

Loaded by path from the tests, as tests/free_dot_product.py is.
"""

from fractions import Fraction

from covercount.abelian import hom_count
from covercount.census import covering_fiber


def orbit_counts(n_max: int, r: int) -> list[int]:
    """[h(0), h(1), ..., h(n_max)] for the free group of rank r."""
    h = [1] + [0] * n_max
    for i in range(1, n_max + 1):
        # Multiply h in place by sum_m c_m x^(i m), c_m = (i^m * m!)^(r-1),
        # from the top degree down, so each h[n - i m] read is still old.
        coefficients = [1]
        for m in range(1, n_max // i + 1):
            coefficients.append(coefficients[-1] * (i * m) ** (r - 1))
        for n in range(n_max, i - 1, -1):
            h[n] += sum(c * h[n - i * m] for m, c in enumerate(coefficients[1 : n // i + 1], 1))
    return h


def fiber_orbit_counts(kind, n_max: int) -> list[int]:
    """[h(0), h(1), ..., h(n_max)] for kind, from its covering fibers."""
    fibers = [None] + [covering_fiber(kind, d) for d in range(1, n_max + 1)]
    h = [Fraction(1)] + [Fraction(0)] * n_max
    for i in range(1, n_max + 1):
        top = n_max // i
        # F_i(y) = E_i(y / i) = exp(L), L = sum_d V(d) y^d / d with
        # V(d) = W_i(d) / i^d; its coefficients follow from y F_i' = (y L') F_i,
        # m f_m = sum_{d=1}^{m} V(d) f_{m-d}.
        v = [0] + [
            Fraction(sum(fc.multiplicity * hom_count(fc.signature, i) for fc in fibers[d]), i)
            for d in range(1, top + 1)
        ]
        f = [Fraction(1)]
        for m in range(1, top + 1):
            f.append(sum(v[d] * f[m - d] for d in range(1, m + 1)) / m)
        # Multiply h in place by F_i(x^i), from the top degree down, so each
        # h[n - i m] read is still old.
        for n in range(n_max, i - 1, -1):
            h[n] += sum(f[m] * h[n - i * m] for m in range(1, n // i + 1))
    for n, value in enumerate(h):
        if value.denominator != 1:
            raise ArithmeticError(f"h({n}) = {value} is not an integer")
    return [int(value) for value in h]


def class_counts(n_max: int, r: int) -> list[int]:
    """[N(1), ..., N(n_max)] for the free group of rank r."""
    return inverse_euler_transform(orbit_counts(n_max, r))


def fiber_class_counts(kind, n_max: int) -> list[int]:
    """[N(1), ..., N(n_max)] for kind, by the Burnside route above."""
    return inverse_euler_transform(fiber_orbit_counts(kind, n_max))


def inverse_euler_transform(h: list[int]) -> list[int]:
    """[N(1), ..., N(n_max)] from [h(0), ..., h(n_max)]."""
    n_max = len(h) - 1
    b = [0]
    counts = [0]
    for n in range(1, n_max + 1):
        b.append(n * h[n] - sum(b[k] * h[n - k] for k in range(1, n)))
        # b(n) = n N(n) + sum of d N(d) over the proper divisors d of n.
        rest = b[n] - sum(d * counts[d] for d in range(1, n // 2 + 1) if n % d == 0)
        count, remainder = divmod(rest, n)
        if remainder:
            raise ArithmeticError(f"b({n}) leaves remainder {remainder} mod {n}")
        counts.append(count)
    return counts[1:]
