"""Winding statistics of low-lying closed geodesics on the modular surface."""

__version__ = "0.1.0"

# Normalizations of the winding number, named here for a numpy-free cli.
PERIOD = "period"
MAXN = "maxn"
WORD = "word"
GEOM = "geom"
NORMALIZATIONS = (PERIOD, MAXN, WORD, GEOM)
