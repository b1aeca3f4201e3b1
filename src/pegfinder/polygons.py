"""Parameter space of counter-clockwise n-tuples on the circle.

A polygon parameter is a base point x on R/Z plus a gap vector
(t_0, ..., t_{n-1}) of nonnegative reals summing to 1; vertex i sits at
x + t_0 + ... + t_{i-1}.  The cyclic relabeling action rotates the gap
vector and advances the base by t_0.  Star coordinates replace the base by
x* = x + sum_k (n-k)/n * t_{k-1}, on which relabeling is a rigid 1/n shift.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circle import circle_dist, wrap
from .errors import DomainError

SUM_SLACK = 1e-9  # gap sums farther than this from 1 are rejected, not renormalized


@dataclass(frozen=True, eq=False)
class PolygonParam:
    base: float
    gaps: np.ndarray

    def __init__(self, base, gaps):
        gaps = np.asarray(gaps, dtype=float)
        if gaps.ndim != 1 or gaps.shape[0] < 3:
            raise DomainError("need at least 3 gaps")
        if np.any(gaps < 0.0):
            raise DomainError("gaps must be nonnegative")
        total = gaps.sum()
        if abs(total - 1.0) > SUM_SLACK:
            raise DomainError(f"gaps sum to {total!r}, not 1")
        gaps = gaps / total
        gaps.setflags(write=False)
        object.__setattr__(self, "base", float(wrap(base)))
        object.__setattr__(self, "gaps", gaps)

    @property
    def n(self) -> int:
        return self.gaps.shape[0]

    def is_interior(self) -> bool:
        return bool(np.min(self.gaps) > 0.0)

    def __repr__(self):
        gaps = ", ".join(f"{t:.6g}" for t in self.gaps)
        return f"PolygonParam({self.base:.6g}; {gaps})"


@dataclass(frozen=True, eq=False)
class StarParam:
    star_base: float
    gaps: np.ndarray

    def __init__(self, star_base, gaps):
        gaps = np.asarray(gaps, dtype=float)
        gaps = gaps / gaps.sum()
        gaps.setflags(write=False)
        object.__setattr__(self, "star_base", float(wrap(star_base)))
        object.__setattr__(self, "gaps", gaps)

    @property
    def n(self) -> int:
        return self.gaps.shape[0]


def vertices(p: PolygonParam) -> np.ndarray:
    """Vertex parameters (x, x+t_0, x+t_0+t_1, ...), wrapped to [0, 1)."""
    cum = np.concatenate([[0.0], np.cumsum(p.gaps[:-1])])
    return wrap(p.base + cum)


def from_vertices(xs) -> PolygonParam:
    """Bracket a counter-clockwise vertex tuple back into gap coordinates.

    Right-inverse to vertices() but not continuous across the base wrap;
    rejects tuples whose consecutive arcs already exceed a full turn.
    """
    xs = np.asarray(xs, dtype=float)
    arcs = wrap(np.diff(xs))
    last = 1.0 - arcs.sum()
    if last < -SUM_SLACK:
        raise DomainError("vertex tuple is not in counter-clockwise order")
    return PolygonParam(xs[0], np.concatenate([arcs, [max(last, 0.0)]]))


def cyclic_shift(p: PolygonParam, k: int = 1) -> PolygonParam:
    """Relabel vertices cyclically k steps: new base is the old second vertex."""
    k = k % p.n
    cum = np.concatenate([[0.0], np.cumsum(p.gaps[:-1])])
    return PolygonParam(p.base + cum[k], np.roll(p.gaps, -k))


def param_dict(p: PolygonParam) -> dict:
    """JSON form of a parameter: base, gaps and vertex parameters."""
    return {"base": p.base, "gaps": p.gaps.tolist(), "vertices": vertices(p).tolist()}


def star_base(p: PolygonParam) -> float:
    n = p.n
    weights = (n - np.arange(1, n)) / n
    return float(wrap(p.base + weights @ p.gaps[: n - 1]))


def to_star(p: PolygonParam) -> StarParam:
    return StarParam(star_base(p), p.gaps)


def from_star(s: StarParam) -> PolygonParam:
    n = s.n
    weights = (n - np.arange(1, n)) / n
    return PolygonParam(s.star_base - weights @ s.gaps[: n - 1], s.gaps)


def boundary_distance(p: PolygonParam) -> float:
    """Distance to the boundary of the open simplex: the smallest gap."""
    return float(np.min(p.gaps))


def param_dist(p: PolygonParam, q: PolygonParam) -> float:
    """Max-norm distance in (base, gaps), base compared on the circle."""
    return float(max(circle_dist(p.base, q.base), np.max(np.abs(p.gaps - q.gaps))))


def orbit_dist(p: PolygonParam, q: PolygonParam) -> float:
    """Distance between the cyclic orbits of p and q."""
    return min(param_dist(cyclic_shift(p, k), q) for k in range(p.n))


def canonical(p: PolygonParam) -> PolygonParam:
    """Orbit representative with the smallest star base over all relabelings."""
    shifts = [cyclic_shift(p, k) for k in range(p.n)]
    return min(shifts, key=lambda s: (star_base(s), tuple(s.gaps)))
