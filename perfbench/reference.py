"""Reference computations made apart from modwind.

Nothing here imports the package under test.  Each function derives a
quantity the CLI reports from first principles, by a different route
than the program takes:

- the exact (n, psi, lw) table by Moebius inversion over pair-words
  instead of word enumeration;
- necklace counts as aperiodic-necklace counts over the A^2 digit pairs;
- the ergodic constant c-hat from a Chebyshev discretisation of the
  transfer operator instead of truncated averages c_k.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath
import numpy as np


def divisors(m):
    return [d for d in range(1, m + 1) if m % d == 0]


def mu(k):
    """Moebius function."""
    out = 1
    p = 2
    while p * p <= k:
        if k % p == 0:
            k //= p
            if k % p == 0:
                return 0
            out = -out
        p += 1
    return -out if k > 1 else out


def lyndon_count(q, m):
    """Number of aperiodic necklaces of length m over q letters."""
    total = sum(mu(d) * q ** (m // d) for d in divisors(m))
    assert total % m == 0
    return total // m


def necklaces_of_length(A, n):
    """Even-shift necklaces of period length n are the aperiodic
    necklaces of length n/2 over the A^2 digit pairs."""
    return lyndon_count(A * A, n // 2)


def necklace_total(A, N):
    return sum(necklaces_of_length(A, n) for n in range(2, N + 1, 2))


def asymptotic(A, N):
    """2 A^2 / (A^2 - 1) * A^N / N."""
    return float(Fraction(2 * A * A, A * A - 1) * Fraction(A**N, N))


def pair_table(A, N):
    """Exact {(n, psi, lw): count} over all necklaces of period length <= N.

    A word a_1 .. a_n read as n/2 digit pairs (a, b) has winding
    sum(a - b) and word length 2 * sum(a + b), so all pair-words of
    length m have the generating function P(x, y)^m with
    P = sum_{a,b} x^(a-b) y^(a+b).  A necklace is an aperiodic pair-word
    up to rotation; Moebius inversion over the repetition count gives the
    aperiodic words, and each necklace has m of them.
    """
    if A < 2 or N < 2 or N % 2:
        raise ValueError("need A >= 2 and even N >= 2")
    if A**N >= 2**62:
        raise ValueError("counts would overflow int64")
    M = N // 2
    off = (A - 1) * M
    rows, cols = 2 * off + 1, 2 * A * M + 1
    terms = [(a - b, a + b) for a in range(1, A + 1) for b in range(1, A + 1)]
    power = [np.zeros((rows, cols), dtype=np.int64)]
    power[0][off, 0] = 1
    for _ in range(M):
        prev, cur = power[-1], np.zeros((rows, cols), dtype=np.int64)
        for dp, ds in terms:
            # supports stay clear of the edges for up to M pairs, so the
            # cropped slices lose nothing
            r0, r1 = max(0, dp), rows + min(0, dp)
            cur[r0:r1, ds:] += prev[r0 - dp:r1 - dp, :cols - ds]
        power.append(cur)

    table = {}
    for m in range(1, M + 1):
        prim = np.zeros((rows, cols), dtype=np.int64)
        for d in divisors(m):
            sign = mu(d)
            if sign == 0:
                continue
            base = power[m // d]
            ri, ci = np.nonzero(base)
            prim[off + d * (ri - off), d * ci] += sign * base[ri, ci]
        if (prim % m).any() or (prim < 0).any():
            raise ArithmeticError(f"non-integral necklace count at m={m}")
        ri, ci = np.nonzero(prim)
        for r, c, v in zip(ri.tolist(), ci.tolist(), (prim[ri, ci] // m).tolist()):
            table[(2 * m, r - off, 2 * c)] = v
    return table


def chat(A, degree=48, tol=1e-15, max_iter=500):
    """Ergodic constant c-hat = 2 E[log(a + y)] of the A-bounded Gauss map.

    y follows the stationary law of the random map y -> 1 / (b + y), b
    uniform in 1..A.  The transfer operator (T u)(y) = mean_b u(1/(b+y))
    is discretised on Chebyshev points of [0, 1] by barycentric
    interpolation; iterating it from u(y) = mean_a log(a + y) converges
    to the constant E[u(y)] because every branch contracts.
    """
    j = np.arange(degree + 1)
    nodes = 0.5 * (1.0 - np.cos(np.pi * j / degree))
    weights = (-1.0) ** j
    weights[0] *= 0.5
    weights[-1] *= 0.5
    op = np.zeros((degree + 1, degree + 1))
    for b in range(1, A + 1):
        images = 1.0 / (b + nodes)
        diff = images[:, None] - nodes[None, :]
        exact = np.isclose(diff, 0.0, atol=0.0, rtol=0.0)
        diff[exact] = 1.0
        basis = weights / diff
        basis /= basis.sum(axis=1, keepdims=True)
        hit = exact.any(axis=1)
        basis[hit] = exact[hit].astype(float)
        op += basis / A
    digits = np.arange(1, A + 1, dtype=float)[:, None]
    u = np.log(digits + nodes).mean(axis=0)
    for _ in range(max_iter):
        u = op @ u
        if u.max() - u.min() < tol:
            return 2.0 * float(u.mean())
    raise ArithmeticError("transfer-operator iteration did not converge")


def sigma_p2(A):
    return (A * A - 1) / 12.0


def sigma_w2(A):
    return (A - 1) / 12.0


def fibonacci_bound(k):
    a, b = 1, 1
    for _ in range(k - 1):
        a, b = b, a + b
    return 2.0 / (a * a)


def gaussian_cdf(x, sigma2):
    return 0.5 * math.erfc(-x / math.sqrt(2.0 * sigma2))


def chi2_sf(stat, df):
    """Upper tail probability of a chi-squared variable."""
    return float(mpmath.gammainc(df / 2.0, stat / 2.0, mpmath.inf, regularized=True))


def normalized_values(table, norm, N):
    """{x: count} of psi / sqrt(length) under one lattice normalization."""
    out = {}
    for (n, psi, lw), c in table.items():
        if norm == "period":
            x = psi / math.sqrt(n)
        elif norm == "word":
            x = psi / math.sqrt(lw)
        elif norm == "maxn":
            x = psi / math.sqrt(N)
        else:
            raise ValueError(norm)
        out[x] = out.get(x, 0) + c
    return out


def central_moments(values):
    """(total, mean, variance, fourth central moment) of {x: count}."""
    total = sum(values.values())
    mean = math.fsum(c * x for x, c in values.items()) / total
    var = math.fsum(c * (x - mean) ** 2 for x, c in values.items()) / total
    m4 = math.fsum(c * (x - mean) ** 4 for x, c in values.items()) / total
    return total, mean, var, m4


def cdf_points(values):
    """Right-continuous CDF of {x: count} as [(x, F(x))]."""
    total = sum(values.values())
    out, running = [], 0
    for x in sorted(values):
        running += values[x]
        out.append((x, running / total))
    return out


def ks_of_points(points, sigma2):
    """KS distance of a CDF given at its jumps to N(0, sigma2)."""
    ks, prev = 0.0, 0.0
    for x, f in points:
        g = gaussian_cdf(x, sigma2)
        ks = max(ks, abs(f - g), abs(prev - g))
        prev = f
    return max(ks, 1.0 - prev)


def char_fn(values, t):
    total = sum(values.values())
    re = math.fsum(c * math.cos(t * x) for x, c in values.items()) / total
    im = math.fsum(c * math.sin(t * x) for x, c in values.items()) / total
    return re, im
