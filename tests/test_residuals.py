import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pegfinder import (
    DegenerateConfigurationError,
    DomainError,
    EdgeRatioSystem,
    OctahedronSystem,
    ParallelogramSystem,
    PolygonParam,
    PolylineCurve,
    RectangleSystem,
    Rhombus3dSystem,
    SpecialQuadPathSystem,
    SpecialQuadSliceSystem,
    SquareSystem,
    TriangleSystem,
    corpus,
    from_vertices,
    octahedron_group,
)
from pegfinder.circle import circle_dist, wrap
from pegfinder.curves import FourierCurve
from pegfinder.residuals import (
    OCT_EDGES,
    QUAD_EDGES,
    QUAD_PAIRS,
    ResidualSystem,
    central_difference,
)
from pegfinder.searches import _PlanarRhombusSystem
from pegfinder.tracing import PerturbedSystem
from references import relabel_octahedron


def cyclic_shift(p, k=1):
    """Reference relabeling on the value type: the base moves to vertex k
    and the gaps rotate (``PolygonSystem.shift`` is the program's)."""
    k = k % p.n
    cum = np.concatenate([[0.0], np.cumsum(p.gaps[:-1])])
    return PolygonParam(p.base + cum[k], np.roll(p.gaps, -k))


def octahedron_edge_permutation(sigma):
    """Reference: the edge index permutation induced by a vertex permutation."""
    index = {e: k for k, e in enumerate(OCT_EDGES)}
    return [index[tuple(sorted((sigma[i], sigma[j])))] for i, j in OCT_EDGES]


def param_dist(p, q):
    """Reference max-norm distance in (base, gaps), base on the circle."""
    return float(max(circle_dist(p.base, q.base), np.max(np.abs(p.gaps - q.gaps))))


def chord_circle(u):
    return 2.0 * abs(np.sin(np.pi * u))


def residual_at(sys, p):
    """The system's residual at the polygon parameter p."""
    return sys.residual(sys.from_param(p))


def edge_diag(curve, p):
    """(e12, e23, e34, e41, d13, d24) of a quadrilateral parameter."""
    sys = SquareSystem(curve)
    return sys.dists(sys.from_param(p), QUAD_PAIRS)


def shift_square_residual(r):
    """Exact image of the square residual under one cyclic relabeling."""
    r = np.asarray(r, dtype=float)
    return np.stack([r[..., 1], r[..., 2], -r[..., 0] - r[..., 1] - r[..., 2], -r[..., 3]], axis=-1)


def gaps4():
    return st.lists(st.floats(0.05, 1.0), min_size=4, max_size=4).map(
        lambda v: np.array(v) / np.sum(v)
    )


# --- edge/diagonal map -------------------------------------------------------


def test_edge_diag_square(circle):
    p = PolygonParam(0.0, [0.25] * 4)
    expected = [np.sqrt(2)] * 4 + [2.0, 2.0]
    assert np.allclose(edge_diag(circle, p), expected, atol=1e-14)


def test_edge_diag_degenerate(circle):
    p = PolygonParam(0.3, [0.0, 0.0, 1.0, 0.0])
    assert np.allclose(edge_diag(circle, p), 0.0)


def test_edge_diag_asymmetric_circle(circle):
    p = from_vertices([0.0, 0.1, 0.5, 0.6])
    expected = [
        chord_circle(0.1),
        chord_circle(0.4),
        chord_circle(0.1),
        chord_circle(0.4),
        2.0,
        2.0,
    ]
    assert np.allclose(edge_diag(circle, p), expected, atol=1e-13)


@settings(max_examples=60, deadline=None)
@given(st.floats(0, 1), gaps4())
def test_edge_diag_equivariance_exact(base, gaps):
    curve = corpus("ellipse", a=2, b=1)
    p = PolygonParam(base, gaps)
    before = edge_diag(curve, p)
    after = edge_diag(curve, cyclic_shift(p))
    # edges permute cyclically, diagonals swap; the only float slack is the
    # re-association of the cumulative gap sums (last-ulp scale)
    assert np.allclose(after[:4], np.roll(before[:4], -1), rtol=0, atol=1e-13)
    assert np.allclose(after[4:], before[[5, 4]], rtol=0, atol=1e-13)


# --- square system -----------------------------------------------------------


def test_square_residual_zero_on_circle_square(circle):
    p = PolygonParam(0.12, [0.25] * 4)
    assert np.max(np.abs(residual_at(SquareSystem(circle), p))) < 1e-14


def test_square_residual_on_algebraic_ellipse_square(ellipse):
    t1 = np.arctan(2) / (2 * np.pi)
    p = from_vertices([t1, 0.5 - t1, 0.5 + t1, 1 - t1])
    # vertices (+-2/sqrt5, +-2/sqrt5) lie on the ellipse and form a square
    pts = ellipse.eval(np.array([t1, 0.5 - t1]))
    assert np.allclose(np.abs(pts), 2 / np.sqrt(5), atol=1e-12)
    assert np.linalg.norm(residual_at(SquareSystem(ellipse), p)) < 1e-9


@settings(max_examples=60, deadline=None)
@given(st.floats(0, 1), gaps4())
def test_square_residual_shift_formula(base, gaps):
    curve = corpus("fourier-random", seed=2)
    p = PolygonParam(base, gaps)
    r = residual_at(SquareSystem(curve), p)
    r_shift = residual_at(SquareSystem(curve), cyclic_shift(p))
    assert np.allclose(r_shift, shift_square_residual(r), atol=1e-12)


# --- edge-ratio system ---------------------------------------------------------


def test_edge_ratio_square_zero(circle):
    p = PolygonParam(0.0, [0.25] * 4)
    assert np.allclose(residual_at(EdgeRatioSystem(circle, p.n, [1, 1, 1]), p), 0.0, atol=1e-14)


def test_edge_ratio_equilateral_triangle(circle):
    p = from_vertices([0.0, 1 / 3, 2 / 3])
    assert np.allclose(residual_at(EdgeRatioSystem(circle, p.n, [1, 1]), p), 0.0, atol=1e-14)


def test_edge_ratio_rhombus_mismatch(circle):
    u = 0.2
    p = from_vertices([0.0, u, 0.5, 0.5 + u])
    r = residual_at(EdgeRatioSystem(circle, p.n, [1, 1, 1]), p)
    assert r[0] == pytest.approx(chord_circle(0.2) - chord_circle(0.3), abs=1e-13)
    assert abs(r[0]) > 1e-2


def test_edge_ratio_polygon_inequality():
    curve = corpus("circle")
    with pytest.raises(DomainError):
        EdgeRatioSystem(curve, 4, [3.0, 0.5, 0.5])
    with pytest.raises(DomainError):
        EdgeRatioSystem(curve, 3, [5.0, 1.0])
    with pytest.raises(DomainError, match="need at least 3 vertices"):
        EdgeRatioSystem(curve, 2)


# --- special quadrilateral slice ------------------------------------------------


def test_special_quad_symmetric_circle_not_special(circle):
    eps = 0.1
    sys = SpecialQuadSliceSystem(circle, eps)
    z = np.array([0.0, eps / 3, eps / 3])  # t = 0, x2 = eps / 3, x3 = 2 eps / 3
    res, flags = sys.residual(z), sys.classify(z)
    assert np.max(np.abs(res)) < 1e-12
    assert flags["a"] == pytest.approx(chord_circle(eps / 3), abs=1e-14)
    assert flags["b"] == pytest.approx(chord_circle(eps), abs=1e-14)
    assert flags["a"] < flags["b"]
    assert not flags["is_special"]
    assert flags["size"] == pytest.approx(eps, abs=1e-14)


def test_special_quad_order_violation(circle):
    sys = SpecialQuadSliceSystem(circle, 0.1)
    z = np.array([0.0, 0.2, 0.85])  # t = 0, x2 = 0.2, x3 = 0.05: not in slice order
    assert sys.boundary_margins(z) <= 0.0


def test_special_quad_path_size(circle):
    sys = SpecialQuadPathSystem(circle)
    z = np.array([0.1, 0.05, 0.07, 0.1])
    assert sys.size(z) == pytest.approx(0.22)


# --- parallelogram and rectangle -----------------------------------------------


def test_parallelogram_midpoints_on_circle_rectangles(circle):
    for u in (0.1, 0.2, 0.35):
        p = from_vertices([0.0, u, 0.5, 0.5 + u])
        r = residual_at(ParallelogramSystem(circle, 1.7), p)
        assert np.allclose(r[:2], 0.0, atol=1e-13)


def test_parallelogram_square_ratio_one(circle):
    p = PolygonParam(0.0, [0.25] * 4)
    assert np.allclose(residual_at(ParallelogramSystem(circle, 1.0), p), 0.0, atol=1e-13)


def test_parallelogram_ratio_two_zero_at_arctan(circle):
    u = np.arctan(2.0) / np.pi  # tan(pi u) = 2
    p = from_vertices([0.0, u, 0.5, 0.5 + u])
    assert np.linalg.norm(residual_at(ParallelogramSystem(circle, 2.0), p)) < 1e-12


def test_parallelogram_requires_planar():
    with pytest.raises(DomainError):
        ParallelogramSystem(corpus("trefoil"), 2.0)


def test_rectangle_residual_examples(circle):
    for u in (0.1, 0.25, 0.4):
        p = from_vertices([0.0, u, 0.5, 0.5 + u])
        assert np.allclose(residual_at(RectangleSystem(circle), p), 0.0, atol=1e-13)
    p = from_vertices([0.0, 0.1, 0.4, 0.6])
    r = residual_at(RectangleSystem(circle), p)
    expected = [
        chord_circle(0.1) - chord_circle(0.2),
        chord_circle(0.3) - chord_circle(0.4),
        chord_circle(0.4) - chord_circle(0.5),
    ]
    assert np.allclose(r, expected, atol=1e-13)
    assert np.linalg.norm(r) > 1e-2


# --- triangles -------------------------------------------------------------------


def test_triangle_residual_circle_field():
    f = corpus("field-circle")
    assert np.allclose(TriangleSystem(f).residual(np.array([0.0, 1 / 3, 1 / 3])), 0.0, atol=1e-14)


def test_triangle_residual_sin_field():
    f = corpus("field-sin-mod")
    r = TriangleSystem(f).residual(np.array([0.0, 1 / 3, 1 / 3]))
    # all pairwise base distances equal sin(pi/3); only the modulation differs
    assert np.max(np.abs(r)) < 0.2


# --- skew rhombus and planarity ---------------------------------------------------


def _skew_rhombus_curve(h):
    # four equal sides sqrt(2 + h^2); vertices 2 and 4 lifted off the plane
    pts = np.array([[1, 0, 0], [0, 1, h], [-1, 0, 0], [0, -1, h]], dtype=float)
    return PolylineCurve(pts), PolygonParam(0.0, [0.25] * 4)


def test_rhombus3d_planar_curve_angle_is_pi():
    circle3 = corpus("tilted-circle", angle=0.0)
    p = from_vertices([0.0, 0.2, 0.5, 0.7])
    sys = Rhombus3dSystem(circle3)
    assert sys.planarity_angle(sys.from_param(p)) == pytest.approx(np.pi, abs=1e-9)


def test_rhombus3d_skew_quadrilateral():
    curve, p = _skew_rhombus_curve(1.0)
    sys = Rhombus3dSystem(curve)
    assert np.allclose(residual_at(sys, p), 0.0, atol=1e-12)
    ang = sys.planarity_angle(sys.from_param(p))
    assert ang == pytest.approx(1.5 * np.pi, abs=1e-9)
    assert abs(ang - np.pi) > 1.0


def test_rhombus3d_degenerate_angle_error():
    curve, _ = _skew_rhombus_curve(1.0)
    degenerate = PolygonParam(0.0, [0.0, 0.5, 0.0, 0.5])
    with pytest.raises(DegenerateConfigurationError):
        sys = Rhombus3dSystem(curve)
        sys.planarity_angle(sys.from_param(degenerate))


# --- octahedron --------------------------------------------------------------------


def _regular_octahedron():
    e = np.eye(3)
    return np.vstack([e, -e])


def test_octahedron_residual_regular_zero():
    sph = corpus("scaled-sphere", lx=1.0, ly=1.0, lz=1.0)
    sys = OctahedronSystem(sph)
    assert np.allclose(sys.residual(_regular_octahedron().reshape(18)), 0.0, atol=1e-14)


def test_octahedron_rotation_invariance(rng):
    sph = corpus("scaled-sphere", lx=1.0, ly=1.0, lz=1.0)
    M = rng.normal(size=(3, 3))
    Q, _ = np.linalg.qr(M)
    rotated = _regular_octahedron() @ Q.T
    assert np.allclose(OctahedronSystem(sph).residual(rotated.reshape(18)), 0.0, atol=1e-12)


def test_octahedron_group_structure():
    G = octahedron_group()
    # the relabelings preserving the opposite pairs (v, v + 3), in the
    # order of itertools.permutations: image k of OctahedronSystem.images
    assert G == [
        sigma
        for sigma in itertools.permutations(range(6))
        if all(sigma[(v + 3) % 6] == (sigma[v] + 3) % 6 for v in range(6))
    ]
    assert len(G) == 48
    for sigma in G[:8]:
        perm = octahedron_edge_permutation(sigma)
        assert sorted(perm) == list(range(12))


def test_octahedron_images_fill_one_array(rng):
    # the 48 relabelings of a traced-circle-sized chain are written into one
    # array, with the bytes of the per-permutation copies
    sys = OctahedronSystem(corpus("scaled-sphere", lz=0.5))
    Z = rng.normal(size=(920, 18))
    want = np.stack([relabel_octahedron(Z, sigma) for sigma in octahedron_group()])
    sys.images(Z)  # warm-up: no first-call allocation counts
    tracemalloc.start()
    try:
        got = sys.images(Z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert peak < 1.5 * got.nbytes


def test_octahedron_norm_invariance_under_group(rng):
    sph = corpus("scaled-sphere", lz=0.5)
    sys = OctahedronSystem(sph)
    for _ in range(5):
        q = rng.normal(size=(6, 3))
        q /= np.linalg.norm(q, axis=1, keepdims=True)
        z = q.reshape(18)
        if sys.boundary_margins(z) <= 0.0:
            continue
        base_norm = np.linalg.norm(sys.residual(z))
        for zp in sys.images(z)[::7]:
            assert np.linalg.norm(sys.residual(zp)) == pytest.approx(
                base_norm, abs=1e-12
            )


def test_octahedron_fat_diagonal_guard():
    sph = corpus("scaled-sphere", lz=0.5)
    q = _regular_octahedron()
    q[1] = q[0] + 1e-4  # two labels nearly coincide
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    assert OctahedronSystem(sph).boundary_margins(q.reshape(18)) <= 0.0


def test_octahedron_antiprism_closed_form():
    lz = 0.5
    sph = corpus("scaled-sphere", lz=lz)
    r = np.sqrt(2 * lz**2 / (2 * lz**2 + 1))
    d = r / np.sqrt(2)
    top = [(r * np.cos(a), r * np.sin(a), 2 * d) for a in 2 * np.pi * np.array([0, 1 / 3, 2 / 3])]
    bot = [
        (r * np.cos(a), r * np.sin(a), -2 * d)
        for a in 2 * np.pi * np.array([1 / 2, 1 / 2 + 1 / 3, 1 / 2 + 2 / 3])
    ]
    q = np.array(top + bot)
    assert np.allclose(np.linalg.norm(q, axis=1), 1.0, atol=1e-14)
    sys = OctahedronSystem(sph)
    assert np.linalg.norm(sys.residual(q.reshape(18))) < 1e-13
    L = sys.edge_lengths(q.reshape(18))
    assert np.allclose(L, L[0], atol=1e-13)


# --- Jacobians versus finite differences ----------------------------------------


def _interior_quad_chart(rng):
    g = rng.dirichlet([4, 4, 4, 4])
    return np.concatenate([[rng.uniform()], g[:3]])


@pytest.mark.parametrize(
    "factory",
    [
        lambda e: SquareSystem(e),
        lambda e: EdgeRatioSystem(e, 4),
        lambda e: EdgeRatioSystem(e, 5, [1.0, 1.2, 0.8, 1.1]),
        lambda e: RectangleSystem(e),
        lambda e: ParallelogramSystem(e, 2.0),
        lambda e: SpecialQuadPathSystem(e),
        lambda e: TriangleSystem(e),
    ],
    ids=["square", "rhombus", "ratio5", "rectangle", "parallelogram", "special-path", "triangle"],
)
def test_jacobians_match_finite_differences(factory, ellipse, rng):
    sys = factory(ellipse)
    n = sys.n
    worst = 0.0
    for _ in range(50):
        g = rng.dirichlet([4] * n)
        z = np.concatenate([[rng.uniform()], g[: n - 1]])
        J = sys.jacobian(z)
        Jn = central_difference(sys.residual, z, 1e-6)
        worst = max(worst, np.max(np.abs(J - Jn)) / max(np.max(np.abs(Jn)), 1e-9))
    assert worst < 1e-5


def test_jacobians_triangle_and_slice_and_octahedron(rng):
    f = corpus("field-random", seed=4)
    tri = TriangleSystem(f)
    worst = 0.0
    for _ in range(50):
        g = rng.dirichlet([4, 4, 4])
        z = np.concatenate([[rng.uniform()], g[:2]])
        rel = np.max(np.abs(tri.jacobian(z) - central_difference(tri.residual, z, 1e-6)))
        worst = max(worst, rel)
    assert worst < 1e-5
    sl = SpecialQuadSliceSystem(corpus("ellipse", a=2, b=1), 0.3)
    for _ in range(50):
        u = rng.dirichlet([3, 3, 3]) * 0.3
        z = np.array([rng.uniform(), u[0], u[1]])
        rel = np.max(np.abs(sl.jacobian(z) - central_difference(sl.residual, z, 1e-6)))
        assert rel < 1e-5
    oct_sys = OctahedronSystem(corpus("scaled-sphere", lz=0.5))
    for _ in range(10):
        q = rng.normal(size=(6, 3))
        q /= np.linalg.norm(q, axis=1, keepdims=True)
        z = q.reshape(18)
        rel = np.max(np.abs(oct_sys.jacobian(z) - central_difference(oct_sys.residual, z, 1e-6)))
        assert rel < 1e-5


def _polygon_charts(n):
    def sample(rng, rows=40):
        g = rng.dirichlet([4] * n, size=rows)
        return np.column_stack([rng.uniform(size=rows), g[:, : n - 1]])

    return sample


def _slice_charts(rng, rows=40):
    u = rng.dirichlet([3, 3, 3], size=rows) * 0.3
    return np.column_stack([rng.uniform(size=rows), u[:, :2]])


def _sphere_charts(rng, rows=40):
    q = rng.normal(size=(rows, 6, 3))
    return (q / np.linalg.norm(q, axis=-1, keepdims=True)).reshape(rows, 18)


@pytest.mark.parametrize(
    "factory, charts",
    [
        (lambda: SquareSystem(corpus("fourier-random", seed=3)), _polygon_charts(4)),
        (lambda: EdgeRatioSystem(corpus("ellipse"), 5, [1.0, 1.2, 0.8, 1.1]), _polygon_charts(5)),
        (lambda: ParallelogramSystem(corpus("ellipse"), 2.0), _polygon_charts(4)),
        (lambda: TriangleSystem(corpus("field-random", seed=4)), _polygon_charts(3)),
        (lambda: SpecialQuadSliceSystem(corpus("ellipse", a=2, b=1), 0.3), _slice_charts),
        (lambda: OctahedronSystem(corpus("scaled-sphere", lz=0.5)), _sphere_charts),
        (lambda: _PlanarRhombusSystem(Rhombus3dSystem(corpus("trefoil"))), _polygon_charts(4)),
        (lambda: PerturbedSystem(SquareSystem(corpus("ellipse")), delta=1e-3), _polygon_charts(4)),
    ],
    ids=[
        "square", "ratio5", "parallelogram", "triangle-field", "special-slice", "octahedron",
        "planar-rhombus", "perturbed-square",
    ],
)
def test_linearize_is_residual_and_jacobian_bit_for_bit(factory, charts):
    sys = factory()
    Z = charts(np.random.default_rng(5))
    F, J = sys.linearize(Z)
    assert np.array_equal(F, sys.residual(Z))
    assert np.array_equal(J, sys.jacobian(Z))
    assert F.shape[-1] == sys.codomain_dim
    assert Z.shape[-1] == sys.chart_dim


def test_every_system_writes_linearize_alone():
    # residual is read off linearize in ResidualSystem, never written twice
    def subclasses(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from subclasses(sub)

    systems = set(subclasses(ResidualSystem))
    assert {_PlanarRhombusSystem, PerturbedSystem, SquareSystem, OctahedronSystem} <= systems
    assert [cls.__qualname__ for cls in systems if "residual" in vars(cls)] == []


# --- the linearize kernels against the formulas they replaced ---------------------
#
# The kernels write 2- and 3-wide coordinate sums out in numpy's own order
# and skip wrapper calls; these references are the reductions and
# np.linalg.norm calls they replaced.  The tracer's samples, which the
# golden documents pin, depend on every bit.


def _ref_eval_and_deriv(curve, t):
    if not isinstance(curve, FourierCurve):
        return curve.eval(t), curve.deriv(t)
    ang = 2.0 * np.pi * np.asarray(t, dtype=float)[..., None] * np.arange(1, curve.degree + 1, dtype=float)
    c, s = np.cos(ang), np.sin(ang)
    w = 2.0 * np.pi * np.arange(1, curve.degree + 1, dtype=float)
    pos = curve.const + c @ curve.cos_coeffs.T + s @ curve.sin_coeffs.T
    vel = (c * w) @ curve.sin_coeffs.T - (s * w) @ curve.cos_coeffs.T
    return pos, vel


def _ref_vertex_params(z):
    x = z[..., :1]
    return np.concatenate([x, x + np.cumsum(z[..., 1:], axis=-1)], axis=-1)


def _ref_pair_dists_and_grad(curve, V, pairs):
    P, D = _ref_eval_and_deriv(curve, V)
    i, j = zip(*pairs)
    diff = P[..., i, :] - P[..., j, :]
    L = np.linalg.norm(diff, axis=-1)
    safe = np.maximum(L, 1e-300)
    gi = np.sum(diff * D[..., i, :], axis=-1) / safe
    gj = -np.sum(diff * D[..., j, :], axis=-1) / safe
    G = np.zeros(L.shape + (V.shape[-1],))
    rows = np.arange(len(pairs))
    G[..., rows, i] = gi
    G[..., rows, j] += gj
    return L, G


def _ref_polygon_linearize(sys, z):
    L, G = _ref_pair_dists_and_grad(sys.curve, _ref_vertex_params(z), sys.pairs)
    return L @ sys.mix.T, sys.mix @ (G @ np.tril(np.ones((sys.n, sys.n))))


def _ref_parallelogram_linearize(sys, z):
    V = _ref_vertex_params(z)
    P, D = _ref_eval_and_deriv(sys.curve, V)
    L, Glen = _ref_pair_dists_and_grad(sys.curve, V, QUAD_EDGES)
    mid = P[..., 0, :] + P[..., 2, :] - P[..., 1, :] - P[..., 3, :]
    ratio = L[..., 0] + L[..., 2] - sys.r * (L[..., 1] + L[..., 3])
    Gmid = np.array([1.0, -1.0, 1.0, -1.0]) * np.swapaxes(D, -1, -2)
    Gratio = Glen[..., 0, :] + Glen[..., 2, :] - sys.r * (Glen[..., 1, :] + Glen[..., 3, :])
    G = np.concatenate([Gmid, Gratio[..., None, :]], axis=-2)
    return np.concatenate([mid, ratio[..., None]], axis=-1), G @ np.tril(np.ones((4, 4)))


def _ref_octahedron_linearize(sys, z):
    from scipy.linalg import helmert

    H = helmert(12)
    q = z.reshape(z.shape[:-1] + (6, 3))
    i, j = zip(*OCT_EDGES)
    diff = q[..., i, :] * sys.sphere.scale - q[..., j, :] * sys.sphere.scale
    L = np.linalg.norm(diff, axis=-1)
    F = np.concatenate([L @ H.T, 0.5 * (np.sum(q**2, axis=-1) - 1.0)], axis=-1)
    u = diff / np.maximum(L, 1e-300)[..., None] * sys.sphere.scale
    Gl = np.zeros(z.shape[:-1] + (12, 6, 3))
    Gl[..., np.arange(12), i, :] = u
    Gl[..., np.arange(12), j, :] -= u
    Gu = np.zeros(z.shape[:-1] + (6, 6, 3))
    Gu[..., np.arange(6), np.arange(6), :] = q
    J = np.concatenate([H @ Gl.reshape(z.shape[:-1] + (12, 18)), Gu.reshape(z.shape[:-1] + (6, 18))], axis=-2)
    return F, J


def _ref_min_separation(z):
    q = z.reshape(z.shape[:-1] + (6, 3))
    qn = q / np.maximum(np.linalg.norm(q, axis=-1), 1e-300)[..., None]
    i, j = np.triu_indices(6, k=1)
    return np.min(np.arccos(np.clip(np.sum(qn[..., i, :] * qn[..., j, :], axis=-1), -1.0, 1.0)), axis=-1)


_KERNEL_CURVES = {
    "ellipse": lambda: corpus("ellipse"),
    "d10": lambda: corpus("fourier-random", degree=10, amp=0.6, seed=1),
    "cusp": lambda: corpus("cusp"),
}
_KERNEL_SYSTEMS = {
    "square": (SquareSystem, _ref_polygon_linearize),
    "ratio5": (lambda c: EdgeRatioSystem(c, 5, [1.0, 1.2, 0.8, 1.1]), _ref_polygon_linearize),
    "parallelogram": (lambda c: ParallelogramSystem(c, 2.0), _ref_parallelogram_linearize),
}


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def _assert_kernel_bits(sys, ref, Z):
    for z in (Z[0], Z):  # one point, then the 1,000-row batch
        F, J = sys.linearize(z)
        F_ref, J_ref = ref(sys, z)
        assert _same_bits(F, F_ref) and _same_bits(J, J_ref)


@pytest.mark.parametrize("curve", sorted(_KERNEL_CURVES))
@pytest.mark.parametrize("name", sorted(_KERNEL_SYSTEMS))
def test_linearize_kernels_match_the_reference_formulas_bit_for_bit(name, curve):
    factory, ref = _KERNEL_SYSTEMS[name]
    sys = factory(_KERNEL_CURVES[curve]())
    Z = _polygon_charts(sys.n)(np.random.default_rng(7), rows=1000)
    _assert_kernel_bits(sys, ref, Z)
    margins = sys.boundary_margins(Z)
    assert _same_bits(np.array([sys.boundary_margins(z) for z in Z[:50]]), margins[:50])
    assert np.array_equal(margins, np.min(sys.gaps_of(Z), axis=-1))


def test_3d_kernels_match_the_reference_formulas_bit_for_bit(trefoil):
    # the 3-wide sums: a reassociated x0 + (x1 + x2) changes these bits
    rng = np.random.default_rng(8)
    _assert_kernel_bits(Rhombus3dSystem(trefoil), _ref_polygon_linearize, _polygon_charts(4)(rng, rows=1000))
    sys = OctahedronSystem(corpus("scaled-sphere", lz=0.5))
    Z = _sphere_charts(rng, rows=1000)
    _assert_kernel_bits(sys, _ref_octahedron_linearize, Z)
    assert _same_bits(sys.min_separation(Z), _ref_min_separation(Z))
    assert _same_bits(sys.min_separation(Z[0]), _ref_min_separation(Z[0]))
    assert _same_bits(sys.residual(Z), _ref_octahedron_linearize(sys, Z)[0])


def test_octahedron_helmert_matrix_is_scipys():
    # residuals builds the octahedron's edge contrasts with numpy alone;
    # the reference kernel above takes them from scipy
    from scipy.linalg import helmert

    from pegfinder.residuals import _HELMERT11

    assert _HELMERT11.tobytes() == helmert(12).tobytes() and _HELMERT11.shape == (11, 12)
    assert not _HELMERT11.flags.writeable


def _ref_slice_vertex_params(sys, z):
    t, u1, u2 = z[..., 0], z[..., 1], z[..., 2]
    x1, x4 = t, t + sys.eps
    return np.stack([x1, x1 + u1, x1 + u1 + u2, x4], axis=-1)


def _ref_slice_linearize(sys, z):
    """The slice Jacobian through a chart matrix built on every call, as for
    a path (y1, y4) = (id, id + eps) with unit derivatives."""
    L, G = sys.field.pair_dists_and_grad(_ref_slice_vertex_params(sys, z), sys.pairs)
    one = np.ones_like(z[..., 0])
    chart = np.zeros(z.shape[:-1] + (4, 3))
    chart[..., :3, 0] = one[..., None]
    chart[..., 3, 0] = one
    chart[..., 1:3, 1] = 1.0
    chart[..., 2, 2] = 1.0
    return L @ sys.mix.T, sys.mix @ (G @ chart)


def _ref_slice_margins(sys, z):
    V = _ref_slice_vertex_params(sys, z)
    u1, u2 = z[..., 1], z[..., 2]
    span = wrap(V[..., 3] - V[..., 0])
    return np.min(np.stack([u1, u2, span - u1 - u2, 1.0 - span], axis=-1), axis=-1)


@pytest.mark.parametrize("source", ["ellipse", "field-random"])
def test_slice_kernel_matches_the_per_call_chart_bit_for_bit(source):
    src = corpus("ellipse", a=2, b=1) if source == "ellipse" else corpus("field-random", seed=4)
    sys = SpecialQuadSliceSystem(src, 0.3)
    Z = _slice_charts(np.random.default_rng(9), rows=500)
    _assert_kernel_bits(sys, _ref_slice_linearize, Z)
    margins = sys.boundary_margins(Z)
    assert _same_bits(margins, _ref_slice_margins(sys, Z))
    assert _same_bits(np.array([sys.boundary_margins(z) for z in Z[:50]]), margins[:50])


def test_polyline_system_uses_secant_jacobian():
    cusp = corpus("cusp")
    sys = SquareSystem(cusp)
    z = np.array([0.05, 0.22, 0.28, 0.26])
    J = sys.jacobian(z)
    assert np.all(np.isfinite(J))


def test_rhombus3d_jacobian(trefoil, rng):
    sys = Rhombus3dSystem(trefoil)
    for _ in range(20):
        z = _interior_quad_chart(rng)
        rel = np.max(np.abs(sys.jacobian(z) - central_difference(sys.residual, z, 1e-6)))
        assert rel < 1e-5


# --- chart methods against the PolygonParam reference -------------------------

_CHART_SYSTEMS = {
    "triangle": lambda: TriangleSystem(corpus("ellipse")),
    "square": lambda: SquareSystem(corpus("ellipse")),
    "pentagon": lambda: EdgeRatioSystem(corpus("ellipse"), 5),
    "parallelogram": lambda: ParallelogramSystem(corpus("ellipse"), 2.0),  # s = 2 < n = 4
}


def _polygon_param(data, n):
    base = data.draw(st.floats(0.0, 1.0, exclude_max=True))
    gaps = data.draw(st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n))
    return PolygonParam(base, np.array(gaps) / np.sum(gaps))


@pytest.mark.parametrize("name", sorted(_CHART_SYSTEMS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_chart_methods_match_polygon_reference(name, data):
    sys = _CHART_SYSTEMS[name]()
    n, s = sys.n, sys.symmetry_order
    p, q = _polygon_param(data, n), _polygon_param(data, n)
    z, w = sys.from_param(p), sys.from_param(q)
    for k in range(n):
        ref = cyclic_shift(p, k)
        shifted = sys.shift(z, k)
        assert abs(sys.chart_diff(shifted, sys.from_param(ref))[0]) < 1e-15
        assert np.max(np.abs(sys.gaps_of(shifted) - ref.gaps)) < 1e-15
    star = sys.star_base_z(sys.canonical(z[None]))[0]
    assert star < 1.0 / s + 1e-12 or star > 1.0 - 1e-12  # [0, 1/s) on the circle, up to rounding
    assert sys.orbit_dist(z, sys.canonical(z[None])[0]) < 1e-12  # a member of the orbit
    ref = min(param_dist(cyclic_shift(q, k), p) for k in range(0, n, n // s))
    assert abs(sys.orbit_dist(z, w) - ref) < 1e-12
    assert np.allclose(sys.orbit_dist(np.array([z, w]), w), [ref, 0.0], rtol=0.0, atol=1e-12)
