"""Continued-fraction words, their integer matrices and fixed points.

Words are tuples of positive integer partial quotients, with the
convention w = a1 + 1/(a2 + 1/(... + 1/ak)), so every value is >= 1.
A word's matrix is the product of its digit matrices (a 1; 1 0).  An
even-length word gives a hyperbolic matrix of determinant 1 whose larger
fixed point, an exact quadratic surd, is the purely periodic continued
fraction with that word as period.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction


def as_word(digits):
    """Validate and normalize a digit sequence into a word tuple."""
    word = tuple(int(d) for d in digits)
    if not word:
        raise ValueError("word must be nonempty")
    for d in word:
        if d < 1:
            raise ValueError(f"partial quotient {d} < 1")
    return word


@dataclass(frozen=True)
class MatrixZ:
    """2x2 integer matrix with exact (arbitrary precision) entries."""

    a: int
    b: int
    c: int
    d: int

    def __matmul__(self, other):
        return MatrixZ(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    @property
    def det(self):
        return self.a * self.d - self.b * self.c

    @property
    def trace(self):
        return self.a + self.d


@dataclass(frozen=True)
class QuadraticSurd:
    """Exact value (p + r*sqrt(D)) / q with integer p, r, D >= 0, q != 0.

    Stored with q > 0 and gcd(p, r, q) = 1; a square D is folded into p.
    D is not made square-free (factoring huge discriminants would be
    wasteful).  Equality compares the key (p/q, sign r, r^2 D / q^2)
    instead: with D not a square, sqrt(D) is irrational, so two surds
    are equal exactly when their keys are.
    """

    p: int
    r: int
    D: int
    q: int

    def __post_init__(self):
        p, r, D, q = self.p, self.r, self.D, self.q
        if q == 0:
            raise ValueError("zero denominator")
        if D < 0:
            raise ValueError("negative radicand")
        s = math.isqrt(D)
        if r == 0 or s * s == D:
            p, r, D = p + r * s, 0, 0
        if q < 0:
            p, r, q = -p, -r, -q
        g = math.gcd(math.gcd(abs(p), abs(r)), q)
        if g > 1:
            p, r, q = p // g, r // g, q // g
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "D", D)
        object.__setattr__(self, "q", q)

    def _key(self):
        sign = (self.r > 0) - (self.r < 0)
        return Fraction(self.p, self.q), sign, Fraction(self.r * self.r * self.D, self.q**2)

    def __eq__(self, other):
        if not isinstance(other, QuadraticSurd):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def to_mpf(self, precision=128):
        """Numerical value at the requested binary precision."""
        from mpmath import mp

        with mp.workprec(precision + 16):
            val = (self.p + self.r * mp.sqrt(self.D)) / self.q
            return +val

    def __float__(self):
        return float(self.to_mpf(64))

    def __repr__(self):
        return f"({self.p} + {self.r}*sqrt({self.D}))/{self.q}"


def matrix_of_word(word):
    """Product of the digit matrices (a 1; 1 0) in word order."""
    word = as_word(word)
    m = MatrixZ(1, 0, 0, 1)
    for a in word:
        m = m @ MatrixZ(a, 1, 1, 0)
    return m


def cf_eval_finite(word):
    """Exact rational value a1 + 1/(a2 + 1/(... + 1/ak))."""
    m = matrix_of_word(word)
    return Fraction(m.a, m.c)


def fixed_points(m):
    """Both fixed points of a hyperbolic matrix, larger root first."""
    tr = m.trace
    if abs(tr) <= 2:
        raise ValueError(f"matrix is not hyperbolic (trace {tr})")
    if m.c == 0:
        raise ValueError("c = 0: fixed point at infinity")
    disc = tr * tr - 4
    ad = m.a - m.d
    plus = QuadraticSurd(ad, 1, disc, 2 * m.c)
    minus = QuadraticSurd(ad, -1, disc, 2 * m.c)
    return (plus, minus) if m.c > 0 else (minus, plus)


def eigenvalue_max(m, precision=128):
    """Larger eigenvalue (t + sqrt(t^2 - 4)) / 2 of a hyperbolic matrix."""
    tr = m.trace
    if tr <= 2:
        raise ValueError(f"trace {tr} <= 2: no expanding eigenvalue")
    from mpmath import mp

    with mp.workprec(precision + 16):
        return +((tr + mp.sqrt(tr * tr - 4)) / 2)
