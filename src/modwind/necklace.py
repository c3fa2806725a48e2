"""Primitivity, even-shift canonicalization, and counting of necklaces.

A necklace here is an equivalence class of primitive even-length words
over {1..A} under cyclic shifts by *even* amounts; each class is in
one-to-one correspondence with a primitive low-lying closed geodesic.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from fractions import Fraction

from . import check_bound
from .cfcore import as_word


def _divisors(n):
    """Divisors of n in increasing order, by trial division up to sqrt(n)."""
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return small + [n // d for d in reversed(small) if d * d != n]


def minimal_period(word):
    """Smallest divisor p of len(word) such that the word is p-periodic."""
    word = as_word(word)
    for d in _divisors(len(word)):
        if word[d:] + word[:d] == word:
            return d


def is_primitive(word):
    """Primitivity test for even-length words.

    A word of length n is primitive when its minimal period is n, with
    one exception: when n/2 is odd, minimal period n/2 also counts (the
    doubled period is then the minimal *even* period).
    """
    word = as_word(word, even=True)
    p = minimal_period(word)
    return p == len(word) or (p % 2 == 1 and 2 * p == len(word))


def canonical_even_shift(word):
    """Lexicographically smallest rotation among the even cyclic shifts."""
    word = as_word(word, even=True)
    return min(word[s:] + word[:s] for s in range(0, len(word), 2))


class Necklace(namedtuple("Necklace", "rep")):
    """Canonical primitive representative of an even-shift class."""

    __slots__ = ()

    def __new__(cls, rep):
        rep = as_word(rep)
        if rep != canonical_even_shift(rep):
            raise ValueError("representative is not canonical")
        if not is_primitive(rep):
            raise ValueError("representative is not primitive")
        return super().__new__(cls, rep)

    @property
    def n(self):
        return len(self.rep)


def mobius(k):
    """Moebius function via trial-division factorization."""
    if k < 1:
        raise ValueError("mobius is defined for positive integers")
    result = 1
    p = 2
    while p * p <= k:
        if k % p == 0:
            k //= p
            if k % p == 0:
                return 0
            result = -result
        p += 1
    if k > 1:
        result = -result
    return result


def count_min_period(A, n):
    """Exact number of words in [A]^n whose minimal period is n.

    Moebius inversion of sum_{k|n} f(k) = A^n.
    """
    check_bound(A)
    if n < 1:
        raise ValueError("n must be positive")
    return sum(mobius(k) * A ** (n // k) for k in _divisors(n))


def count_Pn(A, n):
    """Exact number of necklaces of period length n.

    Their canonical representatives are the Lyndon words of length n/2
    over the A^2 digit pairs: the aperiodic pair-words, n/2 rotations to
    a class.
    """
    check_bound(A, n)
    half = n // 2
    return count_min_period(A * A, half) // half


def pi_exact(A, N):
    """Exact number of necklaces of period length <= N."""
    check_bound(A, N)
    return sum(count_Pn(A, n) for n in range(2, N + 1, 2))


class CountReport(namedtuple("CountReport", "A N exact asymptotic")):
    __slots__ = ()

    @property
    def relative_error(self):
        return abs(self.exact - self.asymptotic) / self.asymptotic


def pi_asymptotic(A, N):
    """Asymptotic count c_A * A^N / N with c_A = 2 A^2 / (A^2 - 1)."""
    # The float first: past its range it raises before pi_exact sums, and
    # since c_A > 2, before A^N is formed once N log2(A) - log2(N) passes
    # 1024, the float exponent range.
    if N * math.log2(A) - math.log2(N) > 1024:
        raise OverflowError("integer division result too large for a float")
    c_A = Fraction(2 * A * A, A * A - 1)
    asymptotic = float(c_A * Fraction(A**N, N))
    exact = pi_exact(A, N)
    return CountReport(A=A, N=N, exact=exact, asymptotic=asymptotic)


def enumerate_necklaces(A, N):
    """Every necklace of period length <= N.

    Reference implementation: scans all words of each even length in
    lexicographic order and keeps each one that Necklace accepts.
    """
    check_bound(A, N)
    out = []
    for n in range(2, N + 1, 2):
        for word in itertools.product(range(1, A + 1), repeat=n):
            try:
                out.append(Necklace(word))
            except ValueError:
                pass
    return out


def sample_uniform_rng(A, n, rng):
    """Uniform draw, by the random.Random rng, from the necklaces of period
    length exactly n.

    Rejection sampling: each necklace has exactly n/2 primitive word
    preimages, so canonicalizing a uniform primitive word is uniform on
    necklaces.
    """
    while True:
        word = tuple(rng.randint(1, A) for _ in range(n))
        if is_primitive(word):
            return Necklace(canonical_even_shift(word))
