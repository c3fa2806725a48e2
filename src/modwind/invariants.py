"""Winding number, the three length functions, and variance constants.

The geometric length of a necklace is computed two independent ways in
mpmath at cfcore.PRECISION bits: as twice the log of the orbit's product
of fixed points, read off each rotation's integer matrix, and as twice
the log of the larger eigenvalue of the word's matrix.  length_gap checks
any length against the eigenvalue route, to within DUAL_LENGTH_TOL.
"""

from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

from . import cfcore, check_bound, check_tolerance, sigma_p2
from .cfcore import as_word, eigenvalue_max, matrix_of_word
from .errors import BudgetError

DUAL_LENGTH_TOL = 1e-9  # largest relative gap allowed between the two routes


def winding(word):
    """Alternating sum a1 - a2 + a3 - ... - an of an even-length word."""
    word = as_word(word, even=True)
    return sum(word[::2]) - sum(word[1::2])


def word_length(word):
    """Length 2 * sum(a_i) of the group element in the S, M generators."""
    word = as_word(word, even=True)
    return 2 * sum(word)


def geodesic_length_logsum(word):
    """2 * log of the orbit's product of fixed points, read off each
    rotation's integer matrix.

    Rotating q off the front conjugates the matrix by M(q) = (q 1; 1 0):
    M(q)^-1 (a b; c d) M(q) = (cq + d, c; (a - qc)q + b - qd, a - qc),
    the matrix of the next rotation, in plain ints.  A rotation with
    matrix (a b; c d), c >= 1, has the purely periodic value
    (a - d + sqrt(t^2 - 4)) / 2c, its attracting fixed point; all
    rotations share the trace t, so one square root and one log serve
    the orbit.
    """
    word = as_word(word, even=True)
    a, b, c, d = matrix_of_word(word)
    from mpmath import mp

    with mp.workprec(cfcore.PRECISION + 16):
        sqrt_disc = mp.sqrt((a + d) ** 2 - 4)
        product = mp.mpf(1)
        for q in word:
            a, b, c, d = c * q + d, c, (a - q * c) * q + b - q * d, a - q * c
            product *= (a - d + sqrt_disc) / (2 * c)
        return float(2 * mp.log(product))


def geodesic_length_eigen(word):
    """2 * log of the larger eigenvalue of the word's matrix."""
    word = as_word(word, even=True)
    from mpmath import mp

    with mp.workprec(cfcore.PRECISION + 16):
        return float(2 * mp.log(eigenvalue_max(matrix_of_word(word))))


def length_gap(word, *lengths):
    """Largest relative gap |v - eigen| / eigen of the lengths v from
    eigen = geodesic_length_eigen(word); DUAL_LENGTH_TOL bounds a good one."""
    eigen = geodesic_length_eigen(word)
    return max(abs(v - eigen) for v in lengths) / eigen


class GeodesicRecord(namedtuple("GeodesicRecord", "necklace psi lp lw lg")):
    """All four invariants of one primitive closed geodesic."""

    __slots__ = ()


def build_record(necklace, cross_check=False):
    """Bundle winding, period length, word length, geometric length."""
    rep = necklace.rep
    lg = geodesic_length_logsum(rep)
    if cross_check and (gap := length_gap(rep, lg)) >= DUAL_LENGTH_TOL:
        raise AssertionError(f"geodesic length mismatch for {rep}: relative gap {gap:.3e}")
    return GeodesicRecord(
        necklace=necklace,
        psi=winding(rep),
        lp=len(rep),
        lw=word_length(rep),
        lg=lg,
    )


def fibonacci(k):
    """F_1 = F_2 = 1 convention."""
    if k < 1:
        raise ValueError("Fibonacci index must be positive")
    a, b = 1, 1
    for _ in range(k - 1):
        a, b = b, a + b
    return a


WORD_BUDGET = 50_000_000  # most words a c_k average evaluates
TWO_TAIL_WIDTH = 1e-3  # widest interval for c-hat that chat_two_tail returns
# Entries in ck_constant's suffix table, and in each block of values it
# folds into products.
_TABLE = 1 << 20
_BLOCK = 1 << 15
# Bound on the bit length of each product: far inside float64's range.
_PRODUCT_BITS = 256


def ck_constant(A, k, tail=None):
    """Truncated ergodic average (2 / A^k) * sum over [A]^k of log(value).

    The value of a word a_1 ... a_k is its finite continued fraction
    [a_1; a_2, ..., a_k], or [a_1; a_2, ..., a_k, tail] when a tail value
    is given (two_tail_bounds evaluates it at both ends of the tail's
    range).  Words share their work: a float table holds the values x of
    all suffixes of the last m digits, built level by level as
    x -> a + 1/x from x = a_k (or a_k + 1/tail), with m the largest depth
    whose A^m entries fit in 2^20.
    The exact continuants (h, h', q, q') of each of the A^(k-m) prefixes
    give the word's value (h x + h') / (q x + q').  The table is taken in
    blocks of 2^15 entries, and over each block the values of up to
    `group` prefixes are multiplied cell by cell before one log per cell:
    a value lies in [1, A + 1], so a product stays below 2^256.  Each
    block of products adds the pairwise sum of its logs, and the partials
    are combined with fsum.  The table holds at most 2^20 floats and each
    block of products 2^15, whatever A^k is (an A above 2^20 takes its
    last digit in tables of 2^20); WORD_BUDGET caps the A^k words evaluated.
    """
    check_bound(A)
    if k < 1:
        raise ValueError("truncation depth must be positive")
    total = A**k
    if total > WORD_BUDGET:
        raise BudgetError(f"{A}^{k} words exceed word budget {WORD_BUDGET}")
    m = 1
    while m < k and A ** (m + 1) <= _TABLE:
        m += 1
    # Only deeper words grow the table or the prefixes digit by digit.
    digits = np.arange(1, A + 1, dtype=np.int64) if k > 1 else None
    # [[h, h'], [q, q']] = M(a_1) ... M(a_{k-m}) with M(a) = [[a, 1], [1, 0]].
    h, h_prev = np.ones(1, dtype=np.int64), np.zeros(1, dtype=np.int64)
    q, q_prev = np.zeros(1, dtype=np.int64), np.ones(1, dtype=np.int64)
    for _ in range(k - m):
        h, h_prev = (h[:, None] * digits + h_prev[:, None]).ravel(), np.repeat(h, A)
        q, q_prev = (q[:, None] * digits + q_prev[:, None]).ravel(), np.repeat(q, A)
    # Below 2^53 under the word budget, so exact in float64.
    h, h_prev, q, q_prev = (v.astype(np.float64)[:, None] for v in (h, h_prev, q, q_prev))
    group = max(1, _PRODUCT_BITS // (A + 1).bit_length())
    partials = []
    for lo in range(1, A + 1, _TABLE):
        x = np.arange(lo, min(lo + _TABLE, A + 1), dtype=np.float64)
        if tail is not None:
            x += 1.0 / tail
        for _ in range(m - 1):
            x = (digits[:, None] + 1.0 / x).ravel()
        for j in range(0, x.size, _BLOCK):
            xs = x[j:j + _BLOCK]
            # A step multiplies in the values of `rows` prefixes, so that
            # a block of products holds about 2^15 cells; a block takes
            # up to `group` steps before its logs are summed.
            rows = max(1, _BLOCK // xs.size)
            for i in range(0, len(h), rows * group):
                prod = None
                for r in range(i, min(i + rows * group, len(h)), rows):
                    s = slice(r, r + rows)
                    val = h[s] * xs + h_prev[s]
                    val /= q[s] * xs + q_prev[s]
                    if prod is None:
                        prod = val
                    else:
                        prod[:len(val)] *= val
                partials.append(float(np.sum(np.log(prod, out=prod))))
    return 2.0 * math.fsum(partials) / total


class ChatEstimate(namedtuple("ChatEstimate", "A k c_k error_bound")):
    """Estimate of the ergodic constant c-hat at truncation depth k.

    c-hat lies in chat_interval = c_k +- error_bound.  From chat_estimate,
    c_k is the truncated average and error_bound the Fibonacci bound
    2/F_k^2; from chat_two_tail, c_k is the midpoint of the two-tail
    interval and error_bound its half-width.
    """

    __slots__ = ()

    @property
    def sigma_g2(self):
        """Limiting variance sigma_p^2 / c_k of the geometric normalization.

        This estimates the constant sigma_p^2 / c-hat of the Gaussian limit
        of psi / sqrt(l_g).  The finite-N variance of psi / sqrt(l_g) lies
        above it and decreases towards it as N grows.
        """
        return float(sigma_p2(self.A)) / self.c_k

    @property
    def chat_interval(self):
        return (self.c_k - self.error_bound, self.c_k + self.error_bound)

    @property
    def sigma_g2_interval(self):
        """Interval for sigma_p^2 / c-hat implied by chat_interval.

        It is sigma_p^2 divided by each end of chat_interval, so it bounds
        the limiting constant, not the finite-N variance of psi / sqrt(l_g),
        which lies above it.
        """
        s = float(sigma_p2(self.A))
        lo, hi = self.chat_interval
        return (s / hi, s / lo)


def chat_estimate(A, tol):
    """Estimate at the smallest depth k whose Cauchy bound 2/F_k^2 meets tol:
    k >= 1 for A >= 6 and k >= 3 below, so that the sigma_g^2 interval is positive."""
    check_tolerance(tol)
    # The interval is positive where c_k > 2/F_k^2.  [a_1; ...] >= a_1 gives
    # every c_k >= c_1 = 2 log(A!)/A; 2/F_1^2 = 2/F_2^2 = 2 is below c_1
    # exactly when A >= 6, and 2/F_3^2 = 1/2 < log 2 <= c_1 for every A >= 2.
    k = 1 if math.lgamma(A + 1) > A else 3
    # Int/int division rounds correctly and underflows to 0.0 where a float
    # F_k^2 would overflow, so any positive tol ends the search.
    while 2 / fibonacci(k) ** 2 > tol:
        k += 1
    j = k
    while j and A**j > WORD_BUDGET:
        j -= 1
    if not j:
        raise BudgetError(f"A = {A} words at depth 1 exceed word budget {WORD_BUDGET}")
    est = ChatEstimate(A=A, k=j, c_k=ck_constant(A, j), error_bound=2 / fibonacci(j) ** 2)
    if j < k:
        raise BudgetError(
            f"depth {k} needs {A}^{k} words (budget {WORD_BUDGET}); "
            f"best achievable bound is {est.error_bound}",
            best=est,
        )
    return est


# Float rounding of ck_constant, relative to 1 + c (u = 2^-53).  The table
# entries x -> a + 1/x stay within 4u of exact: an error e in x becomes
# (e + u)/(x_prev x) + u <= (e + u)/2 + u, and the first entry a + 1/tail
# starts within 4u.  Under the word budget the continuants stay below
# 2^53, so they are exact in float64, and a word's value
# (h x + h')/(q x + q') is within 14u.  A product of g values, with one
# more rounding per multiplication, is within 15g u, and its np.log
# (within 4 ulp) within 15g u + 8u log(product): 15u + 8u log(value) per
# word.  Each block of products sums at most 2^15 logs, all >= 0, which in
# any order errs by at most 2^15 u times their sum; fsum and the final
# 2/A^k add 3u.  The mean is thus within about 2^-38 (1 + c) of its exact
# value.  The pad covers that 64 times over, and also the rounding of
# lo - pad and hi + pad to the nearest float; it keeps the value it had
# when each block summed 2^20 logs (a bound of 2^-33 (1 + c)), so that the
# intervals, and the sigma^2 taken from them, do not move.
_ROUNDING = 2.0**-32


def two_tail_bounds(A, k):
    """Rigorous (lo, hi) around c-hat from the A^k prefixes of depth k.

    With i.i.d. uniform digits, c-hat = 2 E[log [a_1; ..., a_k, w]], where
    the tail w = [a_(k+1); ...] is independent of the prefix and lies in
    [1 + 1/(A+1), A+1].  Every prefix matrix M(a_1) ... M(a_k) has
    determinant (-1)^k, so w -> [a_1; ..., a_k, w] is monotone in the same
    direction for every prefix, and ck_constant's average at the two ends
    of the tail's range bounds c-hat below and above.  The float rounding
    of both averages is padded outward (see _ROUNDING).
    """
    lo, hi = sorted(ck_constant(A, k, tail) for tail in (1.0 + 1.0 / (A + 1), A + 1.0))
    pad = _ROUNDING * (1.0 + hi)
    return lo - pad, hi + pad


def chat_two_tail(A):
    """Smallest-depth two-tail interval for c-hat at most TWO_TAIL_WIDTH wide.

    The width is read at each call.  Depth k costs 2 A^k words (k = 5 at
    A = 5, where the Fibonacci rule of chat_estimate needs 5^10 for a
    bound of 1e-3).  Raises BudgetError when the next depth would pass
    WORD_BUDGET words.
    """
    k = 1
    lo, hi = two_tail_bounds(A, k)
    while hi - lo > TWO_TAIL_WIDTH:
        k += 1
        if A**k > WORD_BUDGET:
            raise BudgetError(
                f"depth {k} needs {A}^{k} words (budget {WORD_BUDGET}); "
                f"the interval for c-hat at depth {k - 1} is {hi - lo} wide"
            )
        lo, hi = two_tail_bounds(A, k)
    mid = 0.5 * (lo + hi)
    # c_k +- error_bound, rounded to nearest, still contains [lo, hi].
    half = math.nextafter(max(mid - lo, hi - mid), math.inf)
    return ChatEstimate(A=A, k=k, c_k=mid, error_bound=half)
