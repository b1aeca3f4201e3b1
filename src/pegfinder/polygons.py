"""The value type of counter-clockwise n-tuples on the circle.

A polygon parameter is a base point x on R/Z plus a gap vector
(t_0, ..., t_{n-1}) of nonnegative reals summing to 1; vertex i sits at
x + t_0 + ... + t_{i-1}.  It is what the finders report; relabeling,
orbit representatives and distances are chart arithmetic, owned by each
residual system (``PolygonSystem.shift``, ``canonical``, ``orbit_dist``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circle import wrap
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

    def __repr__(self):
        gaps = ", ".join(f"{t:.6g}" for t in self.gaps)
        return f"PolygonParam({self.base:.6g}; {gaps})"


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


def param_dict(p: PolygonParam) -> dict:
    """JSON form of a parameter: base, gaps and vertex parameters."""
    return {"base": p.base, "gaps": p.gaps.tolist(), "vertices": vertices(p).tolist()}
