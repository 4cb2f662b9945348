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


def shift(cs, d):
    """cs times q^d, truncated to the same length."""
    return ([0] * d + cs)[: len(cs)]


def times_binomial(cs, sign, e):
    """cs * (1 - sign*q^e) as a new list: c[k] - sign*c[k-e] of the old list."""
    return [c - sign * cs[k - e] if k >= e else c for k, c in enumerate(cs)]


def over_binomial(cs, sign, e):
    """cs / (1 - sign*q^e) as a new list, e >= 1: y[k] = c[k] + sign*y[k-e]."""
    assert e >= 1, e
    out = list(cs)
    for k in range(e, len(out)):
        out[k] += sign * out[k - e]
    return out


def euler_at(step, order):
    """(q^step;q^step)_inf to the given order, from the pentagonal sums at q^step."""
    cs = [0] * (order + 1)
    for j, c in enumerate(pentagonal_euler_coeffs(order // step)):
        cs[step * j] = c
    return cs


def four_regular_counts(order):
    """b4(0..order), the 4-regular partition counts, as p(n) times (q^4;q^4)_inf.

    (q^4;q^4)_inf/(q;q)_inf is sum p(n) q^n times the Euler product at q^4,
    whose few nonzero coefficients come from the pentagonal sums.
    """
    p = partition_numbers(order)
    euler4 = [(e, c) for e, c in enumerate(euler_at(4, order)) if c]
    return [sum(c * p[n - e] for e, c in euler4 if e <= n) for n in range(order + 1)]


def asv_rhs(step, a, b, order):
    """Q(a;Q)_inf/(b (b;Q)_inf (1 - aQ/b)) + (1 - Q/b)/(1 - aQ/b), Q = q^step.

    a = (sa, alpha) and b = (sb, beta) stand for sa*q^alpha and sb*q^beta,
    with 1 <= beta <= step and alpha >= 1.  Q/b = sb*q^d with d = step - beta
    and aQ/b = sa*sb*q^(alpha + d), so the sum is
    (sb*q^d*(a;Q)_inf/(b;Q)_inf + 1 - sb*q^d) / (1 - sa*sb*q^(alpha + d)).
    """
    (sa, alpha), (sb, beta) = a, b
    d = step - beta
    run = lambda sign, e: [(sign, k) for k in range(e, order + 1, step)]
    ratio = divisor_sum_product(run(sa, alpha), run(sb, beta), order)
    top = shift([sb * c for c in ratio], d)
    top[0] += 1
    if d <= order:
        top[d] -= sb
    return over_binomial(top, sa * sb, alpha + d)


def help_rhs(k, order):
    """The right side of the product-sum evaluation behind DE1 (k = 1), DE2 (2) or DE3 (3).

    With E = (q;q)_inf and F = (q^4;q^4)_inf these are (2F - E)/(1 + q),
    (2(1 - q)F - E)/(1 + q^3) and (2q^2*F + q(1 - q)E)/(1 + q^3).
    """
    euler, euler4 = euler_at(1, order), euler_at(4, order)
    if k == 1:
        top = [2 * f - e for f, e in zip(euler4, euler)]
        return over_binomial(top, -1, 1)
    if k == 2:
        top = [2 * f - e for f, e in zip(times_binomial(euler4, 1, 1), euler)]
    else:
        top = [2 * f + e for f, e in zip(shift(euler4, 2), shift(times_binomial(euler, 1, 1), 1))]
    return over_binomial(top, -1, 3)
