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

Loaded by path from the tests, as tests/free_dot_product.py is.
"""


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


def class_counts(n_max: int, r: int) -> list[int]:
    """[N(1), ..., N(n_max)] for the free group of rank r."""
    h = orbit_counts(n_max, r)
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
