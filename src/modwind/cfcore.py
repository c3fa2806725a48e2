"""Exact arithmetic for finite and periodic continued fractions.

Words are tuples of positive integer partial quotients, with the
convention w = a1 + 1/(a2 + 1/(... + 1/ak)), so every value is >= 1.
An even-length word corresponds to a hyperbolic matrix of determinant 1
whose larger fixed point is the purely periodic quadratic irrational
with that word as periodic part.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction


def as_word(digits, bound=None):
    """Validate and normalize a digit sequence into a word tuple."""
    word = tuple(int(d) for d in digits)
    if not word:
        raise ValueError("word must be nonempty")
    for d in word:
        if d < 1:
            raise ValueError(f"partial quotient {d} < 1")
        if bound is not None and d > bound:
            raise ValueError(f"partial quotient {d} exceeds bound {bound}")
    return word


def _require_even(word):
    if len(word) % 2 != 0:
        raise ValueError(f"word length {len(word)} must be even")


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

    def _coerce(self, other):
        if isinstance(other, QuadraticSurd):
            if other.D != 0 and self.D != 0 and other.D != self.D:
                # sqrt(D') = s sqrt(D) / D when D D' = s^2
                s = math.isqrt(self.D * other.D)
                if s * s != self.D * other.D:
                    raise ValueError("mixed radicands")
                return self, QuadraticSurd(other.p * self.D, other.r * s, self.D,
                                           other.q * self.D)
            return self, other
        if isinstance(other, Fraction):
            return self, QuadraticSurd(other.numerator, 0, 0, other.denominator)
        if isinstance(other, int):
            return self, QuadraticSurd(other, 0, 0, 1)
        return self, NotImplemented

    def __add__(self, other):
        a, b = self._coerce(other)
        if b is NotImplemented:
            return NotImplemented
        D = a.D or b.D
        return QuadraticSurd(
            a.p * b.q + b.p * a.q, a.r * b.q + b.r * a.q, D, a.q * b.q
        )

    __radd__ = __add__

    def __neg__(self):
        return QuadraticSurd(-self.p, -self.r, self.D, self.q)

    def __sub__(self, other):
        a, b = self._coerce(other)
        if b is NotImplemented:
            return NotImplemented
        return a + (-b)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        a, b = self._coerce(other)
        if b is NotImplemented:
            return NotImplemented
        D = a.D or b.D
        return QuadraticSurd(
            a.p * b.p + a.r * b.r * D, a.p * b.r + a.r * b.p, D, a.q * b.q
        )

    __rmul__ = __mul__

    def is_zero(self):
        return self.p == 0 and self.r == 0

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


def convergent(word, k):
    """Value of the first k digits of the word."""
    word = as_word(word)
    if not 1 <= k <= len(word):
        raise ValueError(f"convergent index {k} out of range 1..{len(word)}")
    return cf_eval_finite(word[:k])


def cf_expand(value):
    """Continued fraction digits of a rational value >= 1.

    The standard floor/invert algorithm; the final digit comes out >= 2
    except for the single-digit expansion of 1 itself.
    """
    value = Fraction(value)
    if value < 1:
        raise ValueError("value must be >= 1")
    digits = []
    x = value
    while True:
        a = x.numerator // x.denominator
        digits.append(a)
        frac = x - a
        if frac == 0:
            return tuple(digits)
        x = 1 / frac


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


def periodic_value(word, precision=128):
    """Value of the purely periodic continued fraction with this period.

    Computed from the exact fixed-point surd of the word's matrix, so the
    only rounding is a single square root at the working precision.
    """
    word = as_word(word)
    _require_even(word)
    w, _ = fixed_points(matrix_of_word(word))
    return w.to_mpf(precision)


def gauss_shift(word, j):
    """Cyclic left rotation by j digits (the Gauss map on periods)."""
    word = as_word(word)
    j %= len(word)
    return word[j:] + word[:j]


def eigenvalue_max(m, precision=128):
    """Larger eigenvalue (t + sqrt(t^2 - 4)) / 2 of a hyperbolic matrix."""
    tr = m.trace
    if tr <= 2:
        raise ValueError(f"trace {tr} <= 2: no expanding eigenvalue")
    from mpmath import mp

    with mp.workprec(precision + 16):
        return +((tr + mp.sqrt(tr * tr - 4)) / 2)
