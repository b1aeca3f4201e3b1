"""Distance fields on the circle: symmetric, positive definite d(x, y).

Each field writes one kernel, ``pair_dists_and_grad``: the distances between
vertex pairs and their vertex gradients, from one pass.  Its parts,
``pair_dists`` and ``d`` (one pair, broadcast), are written once in
``DistanceField``.  ``as_field`` turns a curve into its chordal field, so
curves and synthetic fields share one path.

Two sources:

* ``ChordalField`` -- pull back chord lengths of an embedded curve.
* ``SyntheticField`` -- 2|sin(pi(x-y))| times a trigonometric modulation in
  (x+y) and (x-y).  The |sin| factor makes d(x, x) = 0 structural; the
  modulation is symmetric in x and y and must stay positive on a
  diagnostic grid.
"""

from __future__ import annotations

import numpy as np

from .curves import ClosedCurve
from .errors import DomainError

GRID = 200  # diagnostic grid resolution for the definiteness check
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
    """One kernel, ``pair_dists_and_grad``; ``pair_dists`` and ``d`` are its parts."""

    def pair_dists_and_grad(self, V, pairs):
        """(L, G): distances between vertex pairs of tuples V (..., n),
        L (..., len(pairs)), and G (..., len(pairs), n) with
        G[..., e, v] = d pair_e / d vertex v."""
        raise NotImplementedError

    def spec(self) -> dict:
        raise NotImplementedError

    def pair_dists(self, V, pairs):
        """Distances between vertex pairs of tuples V (..., n): (..., len(pairs))."""
        return self.pair_dists_and_grad(V, pairs)[0]

    def d(self, x, y):
        """d(x, y), broadcast over x and y."""
        x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
        return self.pair_dists(np.stack([x, y], axis=-1), [(0, 1)])[..., 0]

    def check_definite(self):
        """Reject fields that vanish, go negative or are not finite off the
        diagonal; each unordered grid pair is tested once (d is symmetric)."""
        u = (np.arange(GRID) + 0.5) / GRID
        i, j = np.triu_indices(GRID, 1)
        if not np.all(self.d(u[i], u[j]) > 0.0):
            raise DomainError("distance field is not positive definite on the diagnostic grid")


class ChordalField(DistanceField):
    def __init__(self, curve: ClosedCurve):
        if not isinstance(curve, ClosedCurve):
            raise DomainError(f"a chordal field needs a curve, not a {type(curve).__name__}")
        self.curve = curve

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
        if not all(np.all(np.isfinite(a)) for a in (self.c0, self.ps, self.qs, self.rs)):
            raise DomainError("field coefficients must be finite")
        self.check_definite()

    def pair_dists_and_grad(self, V, pairs):
        """d = 2|sin(pi u)| m and its partials in x and y over the pairs
        (x, y), u = x - y and s = x + y: m, dm/ds and dm/du from one pass
        over the series."""
        rows, i, j = _pair_index(pairs)
        x, y = V[..., i], V[..., j]
        u = x - y
        s = x + y
        sn = np.sin(np.pi * u)
        base = 2.0 * np.abs(sn)
        dbase = 2.0 * np.pi * np.cos(np.pi * u) * np.sign(sn)
        m = self.c0 * np.ones(u.shape)
        dm_ds = np.zeros(u.shape)
        dm_du = np.zeros(u.shape)
        # the ps and qs terms of frequency k share cos and sin of 2 pi k s
        ks = range(1, max(len(self.ps), len(self.qs)) + 1)
        trig = [(np.cos(w), np.sin(w)) for w in (2 * np.pi * k * s for k in ks)]
        for k, (p, (c, sw)) in enumerate(zip(self.ps, trig), start=1):
            m += p * c
            dm_ds -= p * 2 * np.pi * k * sw
        for k, (q, (c, sw)) in enumerate(zip(self.qs, trig), start=1):
            m += q * sw
            dm_ds += q * 2 * np.pi * k * c
        for k, r in enumerate(self.rs, start=1):
            w = 2 * np.pi * k * u
            m += r * np.cos(w)
            dm_du -= r * 2 * np.pi * k * np.sin(w)
        ddx = dbase * m + base * (dm_ds + dm_du)
        ddy = -dbase * m + base * (dm_ds - dm_du)
        return base * m, _pair_grad(ddx, ddy, V.shape[-1], rows, i, j)

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
