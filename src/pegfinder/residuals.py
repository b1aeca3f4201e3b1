"""Residual systems whose zero sets are the polygon families of interest.

Each polygon family is a mix of pairwise distances: a system declares the
vertex ``pairs`` it measures and a ``mix`` matrix, and its residual is
``mix @ d(pairs)`` for the distance field of its source (a curve's chordal
field or any ``DistanceField``, see ``fields.as_field``).  A system writes
one kernel, ``linearize(z) -> (F, J)``: the residual and its Jacobian from
one pass.  ``residual`` and ``jacobian`` are its two parts.
``PolygonSystem`` writes it once for every mix of distances, and the
parallelogram (midpoints are not distances), the special-quadrilateral
slice and the octahedron write their own.

Every system owns its chart: ``chart_dim`` and ``codomain_dim`` are the
lengths of z and of the residual, ``circle_coords`` the entries of z on
R/Z, and ``chart_diff``, ``canonical`` (one point per relabeling orbit),
``orbit_dist`` and ``images`` (the relabelings under the system's symmetry
group) are all the chart arithmetic the tracer, the orbit dedup and the
branch search use.  Charts (flat coordinate vectors z for the solvers and
the tracer):

* P_n: z = (base, t_0, ..., t_{n-2}); the last gap is 1 minus the rest,
  so the simplex constraint is built into the chart; base on R/Z.
* Special-quadrilateral slice: z = (t, u_1, u_2); the first vertex sits at
  t and the last at t + eps, u_i are the arcs to the two free vertices.
* Octahedron: 18 ambient coordinates of six points, unit-norm constraints
  appended to the residual (intrinsic dimensions: 12 domain, 11 codomain).

All residuals and Jacobians are vectorized over leading batch dimensions.
"""

from __future__ import annotations

import itertools

import numpy as np

from .circle import circle_dist, signed_gap, wrap
from .curves import EmbeddedSphere
from .errors import DegenerateConfigurationError, DomainError
from .fields import _TINY, _coord_norm, _coord_sum, as_field, chord_dists_and_grad
from .polygons import PolygonParam


def _ties(m, *ties):
    """Mix over m pair distances with one row d_a - d_b per tie (a, b)."""
    mix = np.zeros((len(ties), m))
    for row, (a, b) in enumerate(ties):
        mix[row, a], mix[row, b] = 1.0, -1.0
    return mix


def central_difference(f, z, step):
    """Columns (f(z + e_m) - f(z - e_m)) / (2 step), e_m = step along axis m."""
    z = np.asarray(z, dtype=float)
    cols = []
    for m in range(z.shape[-1]):
        e = np.zeros_like(z)
        e[..., m] = step
        cols.append((f(z + e) - f(z - e)) / (2 * step))
    return np.stack(cols, axis=-1)


class ResidualSystem:
    """Base: a residual map on a flat chart, with cyclic symmetry metadata."""

    kind: str
    chart_dim: int
    codomain_dim: int
    symmetry_order: int = 1
    circle_coords: tuple = ()

    def chart_diff(self, a, b):
        """a - b, with the circle coordinates as signed gaps in (-1/2, 1/2]."""
        a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        d = a - b
        for c in self.circle_coords:
            d[..., c] = signed_gap(b[..., c], a[..., c])
        return d

    def canonical(self, Z):
        """Orbit representatives of the chart points Z."""
        return np.asarray(Z, dtype=float)

    def orbit_dist(self, Z, z):
        """Distance from the orbit of z to each point of Z (max norm)."""
        return np.max(np.abs(self.chart_diff(z, Z)), axis=-1)

    def images(self, Z, which=None):
        """The relabelings of the chart points Z under the system's symmetry
        group, stacked on a new leading axis, identity first.  ``which`` (an
        index or index array into that axis) builds only the images
        ``images(Z)[which]`` would give, with their bytes."""
        Z = np.asarray(Z, dtype=float)[None]
        return Z if which is None else Z[which]

    def linearize(self, z):
        """(F, J): the residual at z and its Jacobian, from one pass.  The
        one kernel a system writes; ``residual`` and ``jacobian`` are its
        parts."""
        raise NotImplementedError

    def residual(self, z):
        return self.linearize(z)[0]

    def jacobian(self, z):
        return self.linearize(z)[1]

    def boundary_margins(self, z):
        """Batched distance to the domain boundary, shape z.shape[:-1]."""
        return np.full(np.shape(z)[:-1], np.inf)


class PolygonSystem(ResidualSystem):
    """Residual mix @ d(pairs) on the P_n chart over a curve or distance field.

    Subclasses declare ``pairs`` (vertex index pairs) and ``mix`` (one row
    per residual component, one column per pair).
    """

    pairs: list
    mix: np.ndarray
    circle_coords = (0,)

    def __init__(self, source, n: int):
        if n < 3:
            raise DomainError("need at least 3 vertices")
        self.field = as_field(source)
        self.curve = getattr(self.field, "curve", None)
        self.n = n
        self.chart_dim = n
        self._chart_jac = np.tril(np.ones((n, n)))  # constant dV_i / dz_m

    @property
    def codomain_dim(self):
        return self.mix.shape[0]

    def to_param(self, z) -> PolygonParam:
        z = np.asarray(z, dtype=float)
        gaps = np.concatenate([z[1:], [1.0 - z[1:].sum()]])
        return PolygonParam(z[0], np.clip(gaps, 0.0, None))

    def from_param(self, p: PolygonParam):
        return np.concatenate([[p.base], p.gaps[:-1]])

    @staticmethod
    def star_base_z(z):
        """Star base x + sum_k (n-k)/n t_{k-1} of P_n chart points (..., n),
        on which a cyclic relabeling is a rigid 1/n shift."""
        z = np.asarray(z, dtype=float)
        n = z.shape[-1]
        weights = (n - np.arange(1, n)) / n
        return wrap(z[..., 0] + z[..., 1:] @ weights)

    def gaps_of(self, z):
        z = np.asarray(z, dtype=float)
        last = 1.0 - np.sum(z[..., 1:], axis=-1)
        return np.concatenate([z[..., 1:], last[..., None]], axis=-1)

    def shift(self, Z, k=1):
        """Chart points relabeled cyclically k steps (k an int or one per
        point): the base moves to vertex k and the gaps rotate."""
        Z = np.asarray(Z, dtype=float)
        k = np.broadcast_to(np.asarray(k) % self.n, Z.shape[:-1])[..., None]
        gaps = self.gaps_of(Z)
        cum = np.concatenate([np.zeros_like(gaps[..., :1]), np.cumsum(gaps[..., :-1], axis=-1)], axis=-1)
        base = wrap(Z[..., :1] + np.take_along_axis(cum, k, axis=-1))
        rolled = np.take_along_axis(gaps, (np.arange(self.n) + k) % self.n, axis=-1)
        return np.concatenate([base, rolled[..., :-1]], axis=-1)

    def canonical(self, Z):
        """The relabeling of each point, among the shifts by multiples of
        n / symmetry_order, whose star base lies in [0, 1/symmetry_order)."""
        Z = np.asarray(Z, dtype=float)
        s = self.symmetry_order
        if s <= 1:
            return Z
        return self.shift(Z, (self.n // s) * ((s - np.floor(self.star_base_z(Z) * s).astype(int)) % s))

    def images(self, Z, which=None):
        """Z shifted by each multiple of n / symmetry_order, on a new leading
        axis: the equivariant relabelings, identity first (``which`` picks
        the multiples, as in ``ResidualSystem.images``)."""
        Z = np.asarray(Z, dtype=float)
        k = np.arange(0, self.n, self.n // self.symmetry_order)
        if which is not None:
            k = k[which]
        return self.shift(np.broadcast_to(Z, k.shape + Z.shape), k.reshape(k.shape + (1,) * (Z.ndim - 1)))

    def orbit_dist(self, Z, z):
        """Smallest max-norm distance (base on the circle, all n gaps) from
        the equivariant relabelings of z to each point of Z."""
        Z, W = np.asarray(Z, dtype=float), self.images(z)
        base = circle_dist(W[:, 0], Z[..., None, 0])
        gaps = np.max(np.abs(self.gaps_of(W) - self.gaps_of(Z)[..., None, :]), axis=-1)
        return np.min(np.maximum(base, gaps), axis=-1)

    def boundary_margins(self, z):
        z = np.asarray(z, dtype=float)
        if z.ndim == 1:  # one point: the smallest of its gaps, not assembled
            gaps = z[1:]
            return np.minimum(gaps.min(), 1.0 - gaps.sum())
        return np.min(self.gaps_of(z), axis=-1)

    def vertex_params(self, z):
        """Vertex parameters (..., n) from chart (..., n): z_0 + the
        cumulative sums of the gaps, z_0 itself first."""
        z = np.asarray(z, dtype=float)
        V = np.empty(z.shape)
        V[..., 0] = z[..., 0]
        z[..., 1:].cumsum(axis=-1, out=V[..., 1:])
        V[..., 1:] += z[..., :1]
        return V

    def dists(self, z, pairs):
        """Field distances between the vertex pairs at chart points z."""
        return self.field.pair_dists(self.vertex_params(z), pairs)

    def linearize(self, z):
        """Residual and Jacobian from one pass over the pair distances."""
        L, G = self.field.pair_dists_and_grad(self.vertex_params(z), self.pairs)
        return L @ self.mix.T, self.mix @ (G @ self._chart_jac)


QUAD_PAIRS = [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (1, 3)]
QUAD_EDGES = QUAD_PAIRS[:4]


class SquareSystem(PolygonSystem):
    """Four equal edges and equal diagonals; zeros are metric squares."""

    kind = "square"
    symmetry_order = 4
    pairs = QUAD_PAIRS
    mix = _ties(6, (0, 1), (1, 2), (2, 3), (4, 5))

    def __init__(self, curve):
        super().__init__(curve, 4)


class EdgeRatioSystem(PolygonSystem):
    """Edges prescribed up to scale: e_i = rho_i * e_n for i < n."""

    kind = "edge_ratio"

    def __init__(self, curve, n, rhos=None):
        super().__init__(curve, n)
        rhos = np.ones(n - 1) if rhos is None else np.asarray(rhos, dtype=float)
        if rhos.shape != (n - 1,) or not np.all(np.isfinite(rhos) & (rhos > 0)):
            raise DomainError(f"need {n - 1} finite positive edge ratios")
        sides = np.concatenate([rhos, [1.0]])
        if np.any(sides >= sides.sum() - sides):
            raise DomainError("edge ratios violate the polygon inequality")
        self.rhos = rhos
        self.symmetry_order = n if np.all(rhos == 1.0) else 1
        self.pairs = [(i, (i + 1) % n) for i in range(n)]
        self.mix = np.hstack([np.eye(n - 1), -rhos[:, None]])

    def diagonal_gap(self, z):
        """d13 - d24 for n = 4; the diagonal-swap event function."""
        if self.n != 4:
            raise DomainError("diagonal gap is defined for quadrilaterals")
        L = self.dists(z, [(0, 2), (1, 3)])
        return L[..., 0] - L[..., 1]


class RectangleSystem(PolygonSystem):
    """Equal opposite edges and equal diagonals."""

    kind = "rectangle"
    symmetry_order = 4
    pairs = QUAD_PAIRS
    mix = _ties(6, (0, 2), (1, 3), (4, 5))

    def __init__(self, curve):
        super().__init__(curve, 4)

    def fatness(self, z):
        """e12 - e23: changes sign exactly where the rectangle is a square."""
        L = self.dists(z, [(0, 1), (1, 2)])
        return L[..., 0] - L[..., 1]

    def aspect_event(self, r):
        """(e12+e34) - r (e23+e41): zero where the aspect ratio hits r."""

        def event(z):
            L = self.dists(z, QUAD_EDGES)
            return L[..., 0] + L[..., 2] - r * (L[..., 1] + L[..., 3])

        return event


class ParallelogramSystem(PolygonSystem):
    """Diagonal midpoints coincide and the edge sums have ratio r."""

    kind = "parallelogram"
    codomain_dim = 3
    symmetry_order = 2

    def __init__(self, curve, r):
        if curve.ambient_dim != 2:
            raise DomainError("the parallelogram test map needs a planar curve")
        if not (np.isfinite(r) and r > 0):
            raise DomainError("aspect ratio must be finite and positive")
        super().__init__(curve, 4)
        self.r = float(r)

    def linearize(self, z):
        V = self.vertex_params(z)
        P, D = self.curve.eval_and_deriv(V)
        L, Glen = chord_dists_and_grad(P, D, QUAD_EDGES)
        mid = P[..., 0, :] + P[..., 2, :] - P[..., 1, :] - P[..., 3, :]
        ratio = L[..., 0] + L[..., 2] - self.r * (L[..., 1] + L[..., 3])
        sign = np.array([1.0, -1.0, 1.0, -1.0])
        # d mid / d V_v = sign_v * gamma'(V_v), per plane coordinate
        Gmid = sign * np.swapaxes(D, -1, -2)  # (..., 2, 4)
        Gratio = Glen[..., 0, :] + Glen[..., 2, :] - self.r * (Glen[..., 1, :] + Glen[..., 3, :])
        G = np.concatenate([Gmid, Gratio[..., None, :]], axis=-2)
        return np.concatenate([mid, ratio[..., None]], axis=-1), G @ self._chart_jac


class Rhombus3dSystem(PolygonSystem):
    """Four equal edges on a space curve; planarity is tracked separately."""

    kind = "rhombus3d"
    symmetry_order = 4
    pairs = QUAD_EDGES
    mix = _ties(4, (0, 1), (1, 2), (2, 3))

    def __init__(self, curve):
        super().__init__(curve, 4)

    def _points(self, z):
        P = self.curve.eval(self.vertex_params(z))
        if self.curve.ambient_dim == 2:
            P = np.concatenate([P, np.zeros(P.shape[:-1] + (1,))], axis=-1)
        return P

    def coplanarity(self, z):
        """Normalized triple product of the edge frame at vertex 1.

        Zero iff the four points are coplanar; the planarity event function.
        """
        P = self._points(z)
        a = P[..., 1, :] - P[..., 0, :]
        u = P[..., 2, :] - P[..., 0, :]
        b = P[..., 3, :] - P[..., 0, :]
        vol = np.sum(np.cross(a, u) * b, axis=-1)
        scale = np.linalg.norm(a, axis=-1) * np.linalg.norm(u, axis=-1) * np.linalg.norm(b, axis=-1)
        return vol / np.maximum(scale, _TINY)

    def diameter(self, z):
        return np.max(self.dists(z, QUAD_PAIRS), axis=-1)

    def planarity_angle(self, z) -> float:
        """Dihedral angle in (0, 2 pi) along diagonal v1 v3; pi means planar."""
        P = self._points(z)
        u = P[2] - P[0]
        nu = np.linalg.norm(u)
        if nu < 1e-12:
            raise DegenerateConfigurationError("diagonal collapsed")
        u = u / nu
        a = P[1] - P[0]
        b = P[3] - P[0]
        a_perp = a - (a @ u) * u
        b_perp = b - (b @ u) * u
        na, nb = np.linalg.norm(a_perp), np.linalg.norm(b_perp)
        if na < 1e-12 or nb < 1e-12:
            raise DegenerateConfigurationError("triangulation triangle is degenerate")
        cos_t = (a_perp @ b_perp) / (na * nb)
        sin_t = (u @ np.cross(a_perp, b_perp)) / (na * nb)
        ang = np.arctan2(sin_t, cos_t)
        return float(ang % (2 * np.pi))


class SpecialQuadSliceSystem(ResidualSystem):
    """Quadrilaterals of size eps with (a, a, a, b, e, e) shape.

    Chart z = (t, u1, u2): x1 = t, x2 = x1 + u1, x3 = x2 + u2, x4 = t + eps.
    """

    kind = "special_quad"
    chart_dim = 3
    codomain_dim = 3
    circle_coords = (0,)  # the position t of the first vertex
    tie_tol = 1e-9
    pairs = [(0, 1), (1, 2), (2, 3), (0, 2), (1, 3)]
    mix = _ties(5, (0, 1), (1, 2), (3, 4))
    # dV_i / dz_m: x1 and x4 move with t, x2 and x3 with u1, x3 with u2
    _CHART_JAC = np.array([[1.0, 0.0, 0.0], [1.0, 1.0, 0.0], [1.0, 1.0, 1.0], [1.0, 0.0, 0.0]])

    def __init__(self, source, eps):
        self.field = as_field(source)
        if not 0.0 < eps < 1.0:
            raise DomainError("size must lie in (0, 1)")
        self.eps = float(eps)

    def vertex_params(self, z):
        z = np.asarray(z, dtype=float)
        t, u1, u2 = z[..., 0], z[..., 1], z[..., 2]
        return np.stack([t, t + u1, t + u1 + u2, t + self.eps], axis=-1)

    def _margins(self, z):
        z = np.asarray(z, dtype=float)
        t, u1, u2 = z[..., 0], z[..., 1], z[..., 2]
        span = wrap((t + self.eps) - t)  # the span of the rounded vertex positions
        return np.stack([u1, u2, span - u1 - u2, 1.0 - span], axis=-1)

    def boundary_margins(self, z):
        return np.min(self._margins(z), axis=-1)

    def _dists(self, z, pairs):
        return self.field.pair_dists(self.vertex_params(z), pairs)

    def linearize(self, z):
        L, G = self.field.pair_dists_and_grad(self.vertex_params(z), self.pairs)
        return L @ self.mix.T, self.mix @ (G @ self._CHART_JAC)

    def classify(self, z):
        """(is_special, size, a, b, near_tie) at a residual zero."""
        D = self._dists(z, [(0, 1), (3, 0)])
        a, b = float(D[..., 0]), float(D[..., 1])
        V = self.vertex_params(z)
        size = float(wrap(V[..., 3] - V[..., 0]))
        return {
            "is_special": a >= b - self.tie_tol,
            "size": size,
            "a": a,
            "b": b,
            "near_tie": abs(a - b) < self.tie_tol,
        }


class SpecialQuadPathSystem(PolygonSystem):
    """The (a, a, a, b, e, e) equations on all of P_4; zero set is the
    one-dimensional set of special-shaped quadrilaterals, swept over sizes."""

    kind = "special_quad_path"
    symmetry_order = 1
    pairs = QUAD_PAIRS
    mix = _ties(6, (0, 1), (1, 2), (4, 5))

    def __init__(self, curve):
        super().__init__(curve, 4)

    def size(self, z):
        """Arc length from the first to the last vertex: 1 minus the last gap."""
        z = np.asarray(z, dtype=float)
        return np.sum(z[..., 1:], axis=-1)


class TriangleSystem(PolygonSystem):
    """Equilateral triangles of a distance field, on the P_3 chart."""

    kind = "triangle"
    symmetry_order = 3
    pairs = [(0, 1), (1, 2), (2, 0)]
    mix = _ties(3, (0, 1), (1, 2))

    def __init__(self, field):
        super().__init__(field, 3)

    def pairwise(self, z, field=None):
        """The three pairwise distances (d12, d23, d31), optionally in another field."""
        return (field or self.field).pair_dists(self.vertex_params(z), self.pairs)


# --- octahedron ------------------------------------------------------------

OCT_EDGES = [
    (i, j)
    for i, j in itertools.combinations(range(6), 2)
    if j != i + 3  # opposite vertices (0,3), (1,4), (2,5) are not edges
]
_OCT_ROWS = np.arange(len(OCT_EDGES))
_OCT_I, _OCT_J = (np.array(a) for a in zip(*OCT_EDGES))
_OCT_PAIRS = np.triu_indices(6, k=1)  # every vertex pair, for the separation
_SIX = np.arange(6)
# the 11 orthonormal contrasts of the 12 edge lengths, with the arithmetic of
# scipy.linalg.helmert(12) and so its bytes: row r is r ones, then -r, over
# sqrt(r (r + 1))
_HELMERT11 = (np.tril(np.ones((12, 12)), -1) - np.diag(np.arange(12)))[1:]
_HELMERT11 /= np.sqrt(np.arange(1, 12) * np.arange(2, 13))[:, None]
_HELMERT11.setflags(write=False)


# the 48 vertex-label permutations preserving the opposite-pair structure,
# built once at import without listing all 720 permutations: vertex v < 3
# goes to p[v] or to its opposite p[v] + 3 (bit v of s), and v + 3 to the
# opposite of that.  Sorted, they are in the order of itertools.permutations
_OCTAHEDRON_GROUP = tuple(
    sorted(
        tuple((p[v % 3] + 3 * ((s >> v % 3 & 1) + v // 3)) % 6 for v in range(6))
        for p in itertools.permutations(range(3))
        for s in range(8)
    )
)


def octahedron_group():
    """The 48 vertex-label permutations preserving the opposite-pair structure."""
    return list(_OCTAHEDRON_GROUP)


class OctahedronSystem(ResidualSystem):
    """Twelve equal octahedron edges on a coordinate-scaled sphere.

    Chart: 18 ambient coordinates of the six unit vectors; the six unit-norm
    constraints are appended to the 11 mean-free edge coordinates, giving a
    17-dimensional residual on an 18-dimensional chart.  Intrinsically the
    configuration space is 12-dimensional and the edge map lands in R^11.
    """

    kind = "octahedron"
    chart_dim = 18
    codomain_dim = 17
    fat_diagonal = 0.05  # minimum pairwise spherical distance

    def __init__(self, sphere: EmbeddedSphere):
        self.sphere = sphere

    def points(self, z):
        return np.asarray(z, dtype=float).reshape(np.shape(z)[:-1] + (6, 3))

    def edge_lengths(self, z):
        p = self.points(z) * self.sphere.scale
        return _coord_norm(p[..., _OCT_I, :] - p[..., _OCT_J, :])

    def linearize(self, z):
        z = np.asarray(z, dtype=float)
        q = self.points(z)
        p = q * self.sphere.scale
        diff = p[..., _OCT_I, :] - p[..., _OCT_J, :]
        L = _coord_norm(diff)
        F = np.concatenate([L @ _HELMERT11.T, 0.5 * (_coord_sum(q * q) - 1.0)], axis=-1)
        u = diff / np.maximum(L, _TINY)[..., None] * self.sphere.scale  # d L / d q_i per coordinate
        Gl = np.zeros(z.shape[:-1] + (12, 6, 3))
        Gl[..., _OCT_ROWS, _OCT_I, :] = u
        Gl[..., _OCT_ROWS, _OCT_J, :] = 0.0 - u  # as subtracting from the zeros would
        Gl = Gl.reshape(z.shape[:-1] + (12, 18))
        Gu = np.zeros(z.shape[:-1] + (6, 6, 3))
        Gu[..., _SIX, _SIX, :] = q
        Gu = Gu.reshape(z.shape[:-1] + (6, 18))
        return F, np.concatenate([_HELMERT11 @ Gl, Gu], axis=-2)

    def min_separation(self, z):
        q = self.points(z)
        qn = q / np.maximum(_coord_norm(q), _TINY)[..., None]
        i, j = _OCT_PAIRS
        dots = np.clip(_coord_sum(qn[..., i, :] * qn[..., j, :]), -1.0, 1.0)
        return np.min(np.arccos(dots), axis=-1)

    def boundary_margins(self, z):
        return self.min_separation(z) - self.fat_diagonal

    def images(self, Z, which=None):
        """Z relabeled by each of the 48 label symmetries, identity first,
        each written straight into its slot of one array (``which`` picks
        the symmetries, as in ``ResidualSystem.images``)."""
        Z = np.asarray(Z, dtype=float)
        k = np.arange(len(_OCTAHEDRON_GROUP))
        if which is not None:
            k = k[which]
        out = np.empty(k.shape + Z.shape)
        q = self.points(Z)
        for image, i in zip(out.reshape((k.size,) + Z.shape), k.ravel()):
            _relabel(q, _OCTAHEDRON_GROUP[i], self.points(image))
        return out


def _relabel(q, sigma, out):
    """Write the octahedron vertices q (..., 6, 3) into out, vertex v at
    label sigma[v]."""
    for v in range(6):
        out[..., sigma[v], :] = q[..., v, :]
