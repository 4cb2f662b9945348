"""Reference results computed without qident, for checking what it returns.

Nothing here imports the package under test: the series references are
plain-list loops and the family counts come from a direct dynamic program
over part choices.  A fast kernel or builder that returns a wrong
coefficient therefore fails the benchmark instead of winning it.
"""

from __future__ import annotations

from typing import Dict, List


def convolve(a: List[int], b: List[int], n: int) -> List[int]:
    """Coefficients of a * b modulo q^(n+1)."""
    out = [0] * (n + 1)
    for i in range(n + 1):
        if a[i]:
            for j in range(n + 1 - i):
                out[i + j] += a[i] * b[j]
    return out


def inverse(u: List[int], n: int) -> List[int]:
    """Coefficients of 1/u modulo q^(n+1), for u[0] in {+1, -1}."""
    out = [0] * (n + 1)
    out[0] = u[0]
    for k in range(1, n + 1):
        out[k] = -u[0] * sum(u[i] * out[k - i] for i in range(1, k + 1))
    return out


def times_binomial(a: List[int], e: int) -> List[int]:
    """Coefficients of a * (1 - q^e)."""
    return [a[k] - (a[k - e] if k >= e else 0) for k in range(len(a))]


def over_binomial(a: List[int], e: int) -> List[int]:
    """Coefficients of a / (1 - q^e)."""
    out = list(a)
    for k in range(e, len(out)):
        out[k] += out[k - e]
    return out


def euler(n: int) -> List[int]:
    """(q;q)_inf modulo q^(n+1), by the pentagonal number theorem."""
    out = [0] * (n + 1)
    out[0] = 1
    k = 1
    while k * (3 * k - 1) // 2 <= n:
        sign = -1 if k % 2 else 1
        for g in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
            if g <= n:
                out[g] += sign
        k += 1
    return out


def _unrestricted(n: int, parts) -> List[int]:
    out = [1] + [0] * n
    for p in parts:
        for k in range(p, n + 1):
            out[k] += out[k - p]
    return out


def family_counts(n: int) -> Dict[str, List[int]]:
    """Counts 0..n of every family, keyed as qident's FAMILY_SPECS.

    ``below[k]`` counts partitions of k into parts <= m with no even part
    repeated, for the current m.  A DE partition with odd largest part m is
    m (once, or twice or more) plus such a partition of the rest.
    """
    below = [1] + [0] * n
    de1, de2, de3 = [0] * (n + 1), [0] * (n + 1), [0] * (n + 1)
    for m in range(1, n + 1):
        if m % 2:
            for k in range(m, n + 1):  # largest part m exactly once
                de3[k] += below[k - m]
            for k in range(m, n + 1):  # odd parts repeat freely
                below[k] += below[k - m]
            for k in range(m, n + 1):
                de1[k] += below[k - m]
            for k in range(2 * m, n + 1):
                de2[k] += below[k - 2 * m]
        else:
            for k in range(n, m - 1, -1):  # even parts at most once
                below[k] += below[k - m]
    return {
        "DE1": de1,
        "DE2": de2,
        "DE3": de3,
        "ped": below,
        "regular4": _unrestricted(n, (p for p in range(1, n + 1) if p % 4)),
        "regular4min2": _unrestricted(n, (p for p in range(2, n + 1) if p % 4)),
    }
