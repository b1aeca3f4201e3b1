"""Distance fields on the circle: symmetric, positive definite d(x, y).

Every residual system reads distances between its vertices through
``pair_dists``, or distances and their vertex gradients at once through
``pair_dists_and_grad``, which the chordal field serves from one curve
evaluation; ``as_field`` turns a curve into its chordal field, so curves and
synthetic fields share one path.

Two sources:

* ``ChordalField`` -- pull back chord lengths of an embedded curve.
* ``SyntheticField`` -- 2|sin(pi(x-y))| times a trigonometric modulation in
  (x+y) and (x-y).  The |sin| factor makes d(x, x) = 0 structural; the
  modulation is symmetric in x and y and must stay positive on a
  diagnostic grid.
"""

from __future__ import annotations

import numpy as np

from .curves import ClosedCurve, chord
from .errors import DomainError

GRID = 200  # diagnostic grid resolution for symmetry/definiteness checks
_TINY = 1e-300
_PAIR_INDEX = {}  # tuple of vertex pairs -> (rows, i, j) index arrays


def _coord_sum(x):
    """np.sum(x, axis=-1) over the 2 or 3 coordinates of points x, written
    out in the order numpy's reduction adds them, (x0 + x1) + x2, without
    the reduction's call overhead: the same bits."""
    s = x[..., 0] + x[..., 1]
    if x.shape[-1] == 3:
        s += x[..., 2]
    return s


def _coord_norm(x):
    """np.linalg.norm(x, axis=-1) over 2 or 3 coordinates: the same bits."""
    return np.sqrt(_coord_sum(x * x))


def _pair_index(pairs):
    """(rows, i, j): index arrays of a list of vertex pairs, built once per list."""
    key = tuple(pairs)
    index = _PAIR_INDEX.get(key)
    if index is None:
        index = tuple(np.array(a, dtype=np.intp) for a in (range(len(key)), *zip(*key)))
        for a in index:
            a.setflags(write=False)
        _PAIR_INDEX[key] = index
    return index


def _pair_grad(gi, gj, n, rows, i, j):
    """G (..., m, n) with G[..., e, i_e] = gi[..., e] and G[..., e, j_e] =
    gj[..., e], zero elsewhere (each pair joins two distinct vertices).  The
    j entries are written as 0.0 + gj, as adding into the zeros would: a
    -0.0 gradient is stored as 0.0."""
    G = np.zeros(gi.shape + (n,))
    G[..., rows, i] = gi
    G[..., rows, j] = 0.0 + gj
    return G


def chord_dists_and_grad(P, D, pairs):
    """Chord lengths between vertex pairs and their gradients (..., m, n)
    with respect to the vertex parameters, from the curve points P and
    velocities D (..., n, dim) of the n vertices."""
    rows, i, j = _pair_index(pairs)
    diff = P[..., i, :] - P[..., j, :]
    L = _coord_norm(diff)
    safe = np.maximum(L, _TINY)
    gi = _coord_sum(diff * D[..., i, :]) / safe
    gj = -_coord_sum(diff * D[..., j, :]) / safe
    return L, _pair_grad(gi, gj, P.shape[-2], rows, i, j)


class DistanceField:
    def d(self, x, y):
        raise NotImplementedError

    def partials(self, x, y):
        """(dd/dx, dd/dy) at (x, y); undefined on the diagonal."""
        raise NotImplementedError

    def spec(self) -> dict:
        raise NotImplementedError

    def pair_dists(self, V, pairs):
        """Distances between vertex pairs of tuples V (..., n): (..., len(pairs))."""
        _, i, j = _pair_index(pairs)
        return self.d(V[..., i], V[..., j])

    def pair_dists_and_grad(self, V, pairs):
        """(pair_dists, G) with G (..., len(pairs), n), G[..., e, v] = d pair_e / d vertex v."""
        rows, i, j = _pair_index(pairs)
        dx, dy = self.partials(V[..., i], V[..., j])
        return self.pair_dists(V, pairs), _pair_grad(dx, dy, V.shape[-1], rows, i, j)

    def check_definite(self):
        """Reject fields that vanish or go negative off the diagonal."""
        u = (np.arange(GRID) + 0.5) / GRID
        X, Y = np.meshgrid(u, u, indexing="ij")
        vals = self.d(X, Y)
        off = ~np.eye(GRID, dtype=bool)
        if np.min(vals[off]) <= 0.0:
            raise DomainError("distance field is not positive definite on the diagnostic grid")
        return self


class ChordalField(DistanceField):
    def __init__(self, curve: ClosedCurve):
        self.curve = curve

    def d(self, x, y):
        return chord(self.curve, x, y)

    def pair_dists(self, V, pairs):
        """Chord lengths, evaluating each vertex once."""
        P = self.curve.eval(V)
        _, i, j = _pair_index(pairs)
        return _coord_norm(P[..., i, :] - P[..., j, :])

    def pair_dists_and_grad(self, V, pairs):
        """Chord lengths and their gradients from one evaluation of each
        vertex (position and velocity together); finite on the diagonal.
        One point (V of shape (n,)) and a batch run the same arithmetic."""
        return chord_dists_and_grad(*self.curve.eval_and_deriv(V), pairs)

    def spec(self):
        return {"kind": "chordal", "curve": self.curve.spec()}


class SyntheticField(DistanceField):
    """d(x, y) = 2|sin(pi(x-y))| * m(x, y) with trig-polynomial modulation.

    m(x, y) = c0 + sum_j ps_j cos(2 pi j (x+y)) + qs_j sin(2 pi j (x+y))
                 + sum_j rs_j cos(2 pi j (x-y)).
    There are no sin(2 pi j (x-y)) terms: they are odd under swapping x and
    y, so a symmetric field has none.
    """

    def __init__(self, c0=1.0, ps=(), qs=(), rs=()):
        self.c0 = float(c0)
        self.ps = np.atleast_1d(np.asarray(ps, dtype=float))
        self.qs = np.atleast_1d(np.asarray(qs, dtype=float))
        self.rs = np.atleast_1d(np.asarray(rs, dtype=float))
        self.check_definite()

    def _modulation(self, x, y):
        s = np.asarray(x, dtype=float) + np.asarray(y, dtype=float)
        u = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
        m = self.c0 * np.ones(np.broadcast(s, u).shape)
        for j, p in enumerate(self.ps, start=1):
            m = m + p * np.cos(2 * np.pi * j * s)
        for j, q in enumerate(self.qs, start=1):
            m = m + q * np.sin(2 * np.pi * j * s)
        for j, r in enumerate(self.rs, start=1):
            m = m + r * np.cos(2 * np.pi * j * u)
        return m

    def d(self, x, y):
        u = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
        return 2.0 * np.abs(np.sin(np.pi * u)) * self._modulation(x, y)

    def partials(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        u = x - y
        s = x + y
        sn = np.sin(np.pi * u)
        base = 2.0 * np.abs(sn)
        dbase = 2.0 * np.pi * np.cos(np.pi * u) * np.sign(sn)
        m = self._modulation(x, y)
        dm_ds = np.zeros(np.broadcast(s, u).shape)
        for j, p in enumerate(self.ps, start=1):
            dm_ds = dm_ds - p * 2 * np.pi * j * np.sin(2 * np.pi * j * s)
        for j, q in enumerate(self.qs, start=1):
            dm_ds = dm_ds + q * 2 * np.pi * j * np.cos(2 * np.pi * j * s)
        dm_du = np.zeros(np.broadcast(s, u).shape)
        for j, r in enumerate(self.rs, start=1):
            dm_du = dm_du - r * 2 * np.pi * j * np.sin(2 * np.pi * j * u)
        ddx = dbase * m + base * (dm_ds + dm_du)
        ddy = -dbase * m + base * (dm_ds - dm_du)
        return ddx, ddy

    def spec(self):
        return {
            "kind": "synthetic-field",
            "c0": self.c0,
            "ps": self.ps.tolist(),
            "qs": self.qs.tolist(),
            "rs": self.rs.tolist(),
        }


def as_field(source) -> DistanceField:
    """A distance field as given, or the chordal field of a curve."""
    if isinstance(source, ClosedCurve):
        return ChordalField(source)
    if not isinstance(source, DistanceField):
        raise DomainError("need a curve or a distance field")
    return source


def field_from_curve(curve: ClosedCurve) -> ChordalField:
    """Pull the ambient metric back along an (assumed injective) embedding."""
    return ChordalField(curve)


def field_from_spec(spec: dict) -> DistanceField:
    kind = spec.get("kind")
    if kind == "chordal":
        from .curves import curve_from_spec

        return ChordalField(curve_from_spec(spec["curve"]))
    if kind == "synthetic-field":
        return SyntheticField(spec.get("c0", 1.0), spec.get("ps", ()), spec.get("qs", ()), spec.get("rs", ()))
    from .corpus import corpus as _corpus_build

    params = {k: v for k, v in spec.items() if k != "kind"}
    obj = _corpus_build(kind, **params)
    if not isinstance(obj, DistanceField):
        raise DomainError(f"spec {kind!r} is not a distance field")
    return obj
