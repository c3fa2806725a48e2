"""Primitivity, even-shift canonicalization, and counting of necklaces.

A necklace here is an equivalence class of primitive even-length words
over {1..A} under cyclic shifts by *even* amounts; each class is in
one-to-one correspondence with a primitive low-lying closed geodesic.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .cfcore import as_word


def _divisors(n):
    """Divisors of n in increasing order, by trial division up to sqrt(n)."""
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return small + [n // d for d in reversed(small) if d * d != n]


def minimal_period(word):
    """Smallest divisor p of len(word) such that the word is p-periodic."""
    word = as_word(word)
    n = len(word)
    for d in _divisors(n):
        if all(word[i] == word[i % d] for i in range(n)):
            return d
    return n


def is_primitive(word):
    """Primitivity test for even-length words.

    A word of length n is primitive when its minimal period is n, with
    one exception: when n/2 is odd, minimal period n/2 also counts (the
    doubled period is then the minimal *even* period).
    """
    word = as_word(word)
    n = len(word)
    if n % 2 != 0:
        raise ValueError("primitivity is defined for even-length words")
    p = minimal_period(word)
    if p == n:
        return True
    half = n // 2
    return half % 2 == 1 and p == half


def canonical_even_shift(word):
    """Lexicographically smallest rotation among the even cyclic shifts."""
    word = as_word(word)
    n = len(word)
    if n % 2 != 0:
        raise ValueError("even-shift canonicalization needs even length")
    return min(word[s:] + word[:s] for s in range(0, n, 2))


@dataclass(frozen=True)
class Necklace:
    """Canonical primitive representative of an even-shift class."""

    rep: tuple

    def __post_init__(self):
        rep = as_word(self.rep)
        if rep != canonical_even_shift(rep):
            raise ValueError("representative is not canonical")
        if not is_primitive(rep):
            raise ValueError("representative is not primitive")
        object.__setattr__(self, "rep", rep)

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


def _check_bound(A):
    if A <= 1:
        raise ValueError("alphabet bound A must exceed 1")


def count_min_period(A, n):
    """Exact number of words in [A]^n whose minimal period is n.

    Moebius inversion of sum_{k|n} f(k) = A^n.
    """
    _check_bound(A)
    if n < 1:
        raise ValueError("n must be positive")
    return sum(mobius(k) * A ** (n // k) for k in _divisors(n))


def count_Pn(A, n):
    """Exact number of necklaces of period length n.

    Their canonical representatives are the Lyndon words of length n/2
    over the A^2 digit pairs: the aperiodic pair-words, n/2 rotations to
    a class.
    """
    _check_bound(A)
    if n < 2 or n % 2 != 0:
        raise ValueError("period length must be even and >= 2")
    half = n // 2
    return count_min_period(A * A, half) // half


def pi_exact(A, N):
    """Exact number of necklaces of period length <= N."""
    _check_bound(A)
    if N < 2 or N % 2 != 0:
        raise ValueError("N must be even and >= 2")
    return sum(count_Pn(A, n) for n in range(2, N + 1, 2))


@dataclass(frozen=True)
class CountReport:
    A: int
    N: int
    exact: int
    asymptotic: float

    @property
    def relative_error(self):
        return abs(self.exact - self.asymptotic) / self.asymptotic


def pi_asymptotic(A, N):
    """Asymptotic count c_A * A^N / N with c_A = 2 A^2 / (A^2 - 1)."""
    # The float first: past its range it raises before pi_exact sums.
    c_A = Fraction(2 * A * A, A * A - 1)
    asymptotic = float(c_A * Fraction(A**N, N))
    exact = pi_exact(A, N)
    return CountReport(A=A, N=N, exact=exact, asymptotic=asymptotic)


def enumerate_necklaces(A, N):
    """Every necklace of period length <= N.

    Reference implementation: scans all words of each even length in
    lexicographic order and keeps the canonical primitive ones.
    """
    _check_bound(A)
    if N % 2 != 0:
        raise ValueError("N must be even")
    out = []
    for n in range(2, N + 1, 2):
        for word in itertools.product(range(1, A + 1), repeat=n):
            if is_primitive(word) and word == canonical_even_shift(word):
                out.append(Necklace(word))
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
