"""Winding statistics of low-lying closed geodesics on the modular surface."""

import math
from fractions import Fraction

__version__ = "0.1.0"

# Normalizations of the winding number, the default bin count of the
# geom one's l_g histograms, the variances of the lattice ones and the
# rules on A, N, the bin count and the c-hat tolerance, defined here so
# that the cli and stats load neither numpy nor invariants for them.
PERIOD = "period"
MAXN = "maxn"
WORD = "word"
GEOM = "geom"
NORMALIZATIONS = (PERIOD, MAXN, WORD, GEOM)
BINS = 8192


def check_bound(A, N=None):
    """Raise ValueError unless A > 1 and, when N is given, N is even and >= 2."""
    if A <= 1:
        raise ValueError(f"A must exceed 1, got {A}")
    if N is not None and (N < 2 or N % 2):
        raise ValueError(f"N must be even and >= 2, got {N}")


def check_bins(bins):
    """Raise ValueError unless the l_g histogram gets 2 bins or more."""
    if bins < 2:
        raise ValueError(f"the l_g histogram needs 2 bins or more, got {bins}")


def check_tolerance(tol):
    """Raise ValueError unless the c-hat tolerance tol is positive and finite."""
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tolerance must be positive and finite, got {tol}")


def sigma_p2(A):
    """Variance (A^2 - 1) / 12 of the period-length normalization."""
    check_bound(A)
    return Fraction(A * A - 1, 12)


def sigma_w2(A):
    """Variance (A - 1) / 12 of the word-length normalization."""
    check_bound(A)
    return Fraction(A - 1, 12)
