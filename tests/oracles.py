"""Self-contained brute-force oracles used to pin expected test values.

Nothing here imports the package under test: polynomials are plain
exponent->coefficient dicts and partitions are tuples, so these results are
an independent route to every number the tests freeze.
"""


def poly_mul(a, b, order):
    out = {}
    for i, ca in a.items():
        for j, cb in b.items():
            k = i + j
            if k <= order:
                out[k] = out.get(k, 0) + ca * cb
    return {k: c for k, c in out.items() if c}


def expand_product(factors, order):
    """Multiply out factors given as (sign, exp) pairs meaning 1 - sign*q^exp."""
    acc = {0: 1}
    for sign, exp in factors:
        factor = {0: 1}
        factor[exp] = factor.get(exp, 0) - sign  # exp may be 0
        acc = poly_mul(acc, factor, order)
    return acc


def brute_poch_infinite(sign, exp, step, order):
    factors = []
    e = exp
    while e <= order:
        factors.append((sign, e))
        e += step
    return expand_product(factors, order)


def brute_poch_finite(sign, exp, step, count, order):
    return expand_product(
        [(sign, exp + step * j) for j in range(count)], order
    )


def coeff_list(poly, order):
    return [poly.get(k, 0) for k in range(order + 1)]


def all_partitions(n, max_part=None):
    """Every partition of n as a nonincreasing tuple, lex decreasing order."""
    if n == 0:
        return [()]
    if max_part is None:
        max_part = n
    out = []
    for k in range(min(n, max_part), 0, -1):
        for rest in all_partitions(n - k, k):
            out.append((k,) + rest)
    return out


def pentagonal_euler_coeffs(order):
    """Coefficients of the Euler product from the alternating pentagonal sums."""
    cs = [0] * (order + 1)
    cs[0] = 1
    k = 1
    while k * (3 * k - 1) // 2 <= order:
        sign = -1 if k % 2 else 1
        for e in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
            if e <= order:
                cs[e] += sign
        k += 1
    return cs


def partition_numbers(order):
    """p(0..order) by Euler's pentagonal recurrence.

    p(n) = sum over k >= 1 of (-1)^(k+1) * (p(n - k(3k-1)/2) + p(n - k(3k+1)/2)),
    the coefficient identity behind 1/(q;q)_inf = sum p(n) q^n.
    """
    p = [1] + [0] * order
    for n in range(1, order + 1):
        acc, k = 0, 1
        while k * (3 * k - 1) // 2 <= n:
            sign = 1 if k % 2 else -1
            acc += sign * p[n - k * (3 * k - 1) // 2]
            if k * (3 * k + 1) // 2 <= n:
                acc += sign * p[n - k * (3 * k + 1) // 2]
            k += 1
        p[n] = acc
    return p


def divisor_sum_product(num, den, order):
    """Coefficients a(0..order) of prod(1 - s*q^e over num) / prod(1 - s*q^e over den).

    Binomials are (sign, e) pairs with e >= 1.  With F = prod (1 - s_i q^e_i)^c_i
    (c_i = 1 in num, -1 in den), the logarithmic derivative gives
    n*a(n) = -sum_{k=1..n} b(k)*a(n-k), b(k) = sum c_i*e_i*s_i^(k/e_i) over
    e_i | k; the n = 0 coefficient is 1.  Every division by n is checked to
    be exact, so a wrong b(k) shows as a failed assertion, not a rounded value.
    """
    b = [0] * (order + 1)
    for c, factors in ((1, num), (-1, den)):
        for sign, e in factors:
            assert e >= 1 and sign in (1, -1), (sign, e)
            for k in range(e, order + 1, e):
                b[k] += c * e * sign ** (k // e)
    a = [1] + [0] * order
    for n in range(1, order + 1):
        total = -sum(b[k] * a[n - k] for k in range(1, n + 1))
        quotient, remainder = divmod(total, n)
        assert remainder == 0, (n, total)
        a[n] = quotient
    return a
