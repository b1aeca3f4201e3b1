"""Arithmetic on the parameter circle R/Z.

Points are plain floats (or arrays of floats); the canonical representative
lives in [0, 1).  Reduction uses floor so exactly representable rationals stay
exact, which the golden tests rely on.
"""

import numpy as np


def wrap(x):
    """Canonical representative of x in [0, 1)."""
    return x - np.floor(x)


def signed_gap(x, y):
    """Shortest signed displacement from x to y, in (-1/2, 1/2]."""
    d = wrap(np.asarray(y, dtype=float) - np.asarray(x, dtype=float))
    return np.where(d > 0.5, d - 1.0, d)


def circle_dist(x, y):
    """Distance on R/Z: length of the shorter arc between x and y."""
    return np.abs(signed_gap(x, y))
