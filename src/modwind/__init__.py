"""Winding statistics of low-lying closed geodesics on the modular surface."""

__version__ = "0.1.0"
