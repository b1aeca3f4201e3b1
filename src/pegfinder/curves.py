"""Closed curves in R^2 / R^3 and coordinate-scaled spheres.

Two curve representations:

* ``FourierCurve`` -- finite cosine/sine series per coordinate; smooth,
  periodic by construction, with analytic derivatives.
* ``PolylineCurve`` -- closed vertex chain evaluated by constant-speed
  interpolation; derivatives are secant differences (step 1e-6).

Curves are parametrized by t in [0, 1), not by arc length.  Everything is
immutable after construction.
"""

from __future__ import annotations

import warnings

import numpy as np

from .circle import wrap
from .errors import DomainError

SECANT_STEP = 1e-6
SPEED_GRID = 512  # parameters at which a Fourier curve's speed must not vanish
SPEED_FLOOR = 1e-9  # ... relative to its largest speed there
_TWO_PI = 2.0 * np.pi
_PROBE_BLOCK = 2**14  # (probe x vertex) pairs per block of _encloses_area


class ClosedCurve:
    """Common interface: eval_and_deriv(t) -> (points, velocity vectors).

    ``eval_and_deriv`` is the one kernel a curve writes; ``eval`` and
    ``deriv`` are its two parts.
    """

    ambient_dim: int

    def eval_and_deriv(self, t):
        raise NotImplementedError

    def eval(self, t):
        return self.eval_and_deriv(t)[0]

    def deriv(self, t):
        return self.eval_and_deriv(t)[1]

    def spec(self) -> dict:
        """JSON-serializable description (see curve_spec schema)."""
        raise NotImplementedError


class FourierCurve(ClosedCurve):
    """gamma_j(t) = const_j + sum_k cos_jk cos(2 pi k t) + sin_jk sin(2 pi k t).

    One trig kernel, ``eval_and_deriv``: ``eval`` and ``deriv`` are its parts.
    """

    def __init__(self, const, cos_coeffs, sin_coeffs):
        const = np.atleast_1d(np.asarray(const, dtype=float))
        cos_coeffs = np.atleast_2d(np.asarray(cos_coeffs, dtype=float))
        sin_coeffs = np.atleast_2d(np.asarray(sin_coeffs, dtype=float))
        if cos_coeffs.shape != sin_coeffs.shape or cos_coeffs.shape[0] != const.shape[0]:
            raise DomainError("coefficient arrays disagree in shape")
        if const.shape[0] not in (2, 3):
            raise DomainError("ambient dimension must be 2 or 3")
        if not all(np.all(np.isfinite(a)) for a in (const, cos_coeffs, sin_coeffs)):
            raise DomainError("curve coefficients must be finite")
        self.const = const
        self.cos_coeffs = cos_coeffs
        self.sin_coeffs = sin_coeffs
        self.ambient_dim = const.shape[0]
        self.degree = cos_coeffs.shape[1]
        self._k = np.arange(1, self.degree + 1, dtype=float)
        self._w = _TWO_PI * self._k  # angular frequencies
        for a in (self.const, self.cos_coeffs, self.sin_coeffs):
            a.setflags(write=False)
        speed = np.linalg.norm(self.deriv(np.arange(SPEED_GRID) / SPEED_GRID), axis=-1)
        if np.min(speed) <= SPEED_FLOOR * np.max(speed):
            # a point, a doubled arc or a cusp: the chart of inscribed
            # polygons degenerates and the finders would chase it
            raise DomainError("the curve's velocity vanishes on the diagnostic grid")

    def eval_and_deriv(self, t):
        # two (..., K) arrays: the sines overwrite the angles, and the
        # velocity's frequency scaling is done in place after the positions
        ang = _TWO_PI * np.asarray(t, dtype=float)[..., None] * self._k  # (..., K)
        c, s = np.cos(ang), np.sin(ang, out=ang)
        pos = self.const + c @ self.cos_coeffs.T + s @ self.sin_coeffs.T
        c *= self._w
        s *= self._w
        vel = c @ self.sin_coeffs.T - s @ self.cos_coeffs.T
        return pos, vel

    def spec(self):
        return {
            "kind": "fourier",
            "dim": self.ambient_dim,
            "const": self.const.tolist(),
            "cos": self.cos_coeffs.tolist(),
            "sin": self.sin_coeffs.tolist(),
        }


class PolylineCurve(ClosedCurve):
    """Closed polygonal curve, constant-speed interpolation between vertices."""

    def __init__(self, vertices):
        v = np.asarray(vertices, dtype=float)
        if v.ndim != 2 or v.shape[0] < 3 or v.shape[1] not in (2, 3):
            raise DomainError("polyline needs >= 3 vertices in R^2 or R^3")
        seg = np.roll(v, -1, axis=0) - v
        seglen = np.linalg.norm(seg, axis=1)
        if np.any(seglen == 0.0):
            raise DomainError("consecutive polyline vertices must be distinct")
        centered = v - v.mean(axis=0)
        rank = np.linalg.matrix_rank(centered)
        if rank < 2:
            raise DomainError("polyline vertices are collinear")
        if rank == 2:  # tested in coordinates of its own plane (R^2 as given)
            plane = v if v.shape[1] == 2 else centered @ np.linalg.svd(centered, full_matrices=False)[2][:2].T
            if not _encloses_area(plane):
                raise DomainError("planar polyline encloses no area")
        self.vertices = v
        self.ambient_dim = v.shape[1]
        self._seg = seg
        self._seglen = seglen
        self._cum = np.concatenate([[0.0], np.cumsum(seglen)])
        self.length = self._cum[-1]
        for a in (self.vertices, self._seg, self._seglen, self._cum):
            a.setflags(write=False)

    def eval(self, t):
        # the positions alone: the velocities are secants of them
        t = np.asarray(t, dtype=float)
        s = wrap(t) * self.length
        i = np.clip(np.searchsorted(self._cum, s, side="right") - 1, 0, len(self._seglen) - 1)
        lam = (s - self._cum[i]) / self._seglen[i]
        return self.vertices[i] + lam[..., None] * self._seg[i]

    def eval_and_deriv(self, t):
        t = np.asarray(t, dtype=float)
        return self.eval(t), (self.eval(t + SECANT_STEP) - self.eval(t - SECANT_STEP)) / (2.0 * SECANT_STEP)

    def spec(self):
        return {
            "kind": "polyline",
            "dim": self.ambient_dim,
            "vertices": self.vertices.tolist(),
        }


def _encloses_area(v):
    """False for a planar chain that retraces itself (winding number zero
    everywhere).  A shoelace area above 1e-12 box diagonal^2 settles it;
    otherwise (a doubled chain, or lobes that cancel as in a figure eight)
    the winding number just beside each segment midpoint decides.  Probes
    on both sides of each segment, in segment order, are tested a block of
    at most _PROBE_BLOCK (probe x vertex) pairs at a time, stopping at the
    first block that holds an enclosed probe (a chain that encloses nothing
    checks all 2n)."""
    nxt = np.roll(v, -1, axis=0)
    seg = nxt - v
    if abs(np.sum(v[:, 0] * seg[:, 1] - seg[:, 0] * v[:, 1])) > 2e-12 * np.sum(np.ptp(v, axis=0) ** 2):
        return True
    side = 1e-6 * np.stack([-seg[:, 1], seg[:, 0]], axis=-1)
    mid = v + 0.5 * seg
    probes = np.stack([mid + side, mid - side], axis=1).reshape(-1, 2)
    step = max(1, _PROBE_BLOCK // len(v))
    for start in range(0, len(probes), step):
        px, py = probes[start : start + step, :, None].transpose(1, 0, 2)  # (P, 1) each
        a0, a1, b0, b1 = v[:, 0] - px, v[:, 1] - py, nxt[:, 0] - px, nxt[:, 1] - py
        # a x b and a . b, the 2-wide dot written out as numpy sums it
        turn = np.sum(np.arctan2(a0 * b1 - a1 * b0, a0 * b0 + a1 * b1), axis=-1)
        if np.any(np.abs(turn) > np.pi):
            return True
    return False


class EmbeddedSphere:
    """Unit 2-sphere scaled coordinatewise by (lx, ly, lz), all positive."""

    def __init__(self, scale):
        s = np.asarray(scale, dtype=float)
        if s.shape != (3,) or not np.all(np.isfinite(s) & (s > 0.0)):
            raise DomainError("sphere scale must be three finite positive reals")
        self.scale = s
        self.scale.setflags(write=False)

    @property
    def is_round(self):
        return bool(np.all(self.scale == self.scale[0]))

    def embed(self, q):
        """Map unit-sphere points (..., 3) to the scaled sphere."""
        return np.asarray(q, dtype=float) * self.scale

    def spec(self):
        return {"kind": "scaled-sphere", "scale": self.scale.tolist()}


def curve_points(curve: ClosedCurve, n: int = 512):
    return curve.eval(np.arange(n) / n)


def self_intersects(curve: ClosedCurve, n: int = 512, warn: bool = True) -> bool:
    """Pairwise segment test on an n-point polygonization (planar curves).

    Diagnostic only: the inscribed-polygon statements are about embedded
    curves, but nothing here enforces injectivity.  3D curves are projected
    to their first two coordinates, which can report false positives; those
    callers should pass warn=False.
    """
    pts = curve_points(curve, n)[:, :2]
    a = pts
    b = np.roll(pts, -1, axis=0)
    # all segment pairs (i, j), i < j, skipping adjacent segments
    i, j = np.triu_indices(n, k=2)
    keep = ~((i == 0) & (j == n - 1))
    i, j = i[keep], j[keep]
    hit = _segments_cross(a[i], b[i], a[j], b[j])
    found = bool(np.any(hit))
    if found and warn:
        warnings.warn("curve polygonization self-intersects; results assume an embedding")
    return found


def _segments_cross(p1, p2, q1, q2):
    def orient(a, b, c):
        return (b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1]) - (b[:, 1] - a[:, 1]) * (c[:, 0] - a[:, 0])

    d1 = orient(q1, q2, p1)
    d2 = orient(q1, q2, p2)
    d3 = orient(p1, p2, q1)
    d4 = orient(p1, p2, q2)
    return (d1 * d2 < 0) & (d3 * d4 < 0)


def signed_area(curve: ClosedCurve, n: int = 512) -> float:
    """Shoelace area of the n-point polygonization; positive = counter-clockwise."""
    pts = curve_points(curve, n)[:, :2]
    x, y = pts[:, 0], pts[:, 1]
    return float(0.5 * np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def curve_from_spec(spec: dict) -> ClosedCurve:
    """Rebuild a curve from its JSON spec (inverse of .spec())."""
    kind = spec.get("kind")
    if kind == "fourier":
        return FourierCurve(spec["const"], spec["cos"], spec["sin"])
    if kind == "polyline":
        return PolylineCurve(spec["vertices"])
    # corpus-style specs carry their construction parameters
    from .corpus import corpus as _corpus_build

    params = {k: v for k, v in spec.items() if k not in ("kind", "dim")}
    return _corpus_build(kind, **params)
