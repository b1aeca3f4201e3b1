import numpy as np
import pytest

from pegfinder import (
    NonIsolatedSolutionsError,
    TraceSettings,
    corpus,
    find_equilateral_triangle,
    find_octahedra,
    find_planar_rhombus,
    find_rectangle,
    find_square,
    find_two_metric_triangle,
    octahedron_group,
    vertices,
)
from pegfinder.residuals import OctahedronSystem
from pegfinder.tracing import chain_distance

ELLIPSE_SQUARE_PARAMS = np.sort(
    np.array(
        [
            np.arctan(2) / (2 * np.pi),
            0.5 - np.arctan(2) / (2 * np.pi),
            0.5 + np.arctan(2) / (2 * np.pi),
            1 - np.arctan(2) / (2 * np.pi),
        ]
    )
)


def slice_grid_oracle(field, x, y, z, resolution=1e-3):
    """Brute-force check that (y, z) minimizes the equilateral defect on the
    slice through x, independent of any solver machinery."""
    n = int(round(1.0 / resolution))
    u = (np.arange(n) + 0.5) / n
    Y, Z = np.meshgrid(u, u, indexing="ij")
    d1 = field.d(np.full_like(Y, x), Y)
    d2 = field.d(Y, Z)
    d3 = field.d(Z, np.full_like(Z, x))
    defect = np.abs(d1 - d2) + np.abs(d2 - d3)
    spread = np.minimum(np.abs(Y - x), 1 - np.abs(Y - x)) > 5e-3
    spread &= np.minimum(np.abs(Z - x), 1 - np.abs(Z - x)) > 5e-3
    spread &= np.minimum(np.abs(Z - Y), 1 - np.abs(Z - Y)) > 5e-3
    masked = np.where(spread, defect, np.inf)
    iy, iz = np.unravel_index(np.argmin(masked), masked.shape)
    best = np.array([u[iy], u[iz]])
    dist = np.linalg.norm((best - np.array([y, z]) + 0.5) % 1.0 - 0.5)
    return masked[iy, iz], dist


def test_find_square_ellipse_matches_algebra(ellipse):
    square, prov = find_square(ellipse)
    verts = np.sort(vertices(square))
    assert np.allclose(verts, ELLIPSE_SQUARE_PARAMS, atol=1e-6)
    assert prov["newton_orbit_count"] == 1
    assert prov["agrees"] and prov["newton_agreement"] <= 1e-6
    assert prov["residual"] < 1e-8
    assert not prov["family_detected"]


def test_find_square_circle_family_route(circle):
    square, prov = find_square(circle)
    assert np.allclose(square.gaps, 0.25, atol=1e-8)
    assert prov["family_detected"]
    assert prov["route"] in ("square_family_branch", "diagonal_swap")


def test_find_square_random_curves_agree():
    for seed in (1, 2, 3):
        curve = corpus("fourier-random", degree=4, amp=0.3, seed=seed)
        square, prov = find_square(curve)
        assert prov["agrees"], f"seed {seed}: {prov}"
        assert prov["residual"] < 1e-8


def test_find_rectangle_circle_ratio_two(circle):
    p, info = find_rectangle(circle, 2.0)
    assert p.gaps[0] == pytest.approx(np.arctan(2) / np.pi, abs=1e-8)
    assert info["residual"] < 1e-8


def test_find_rectangle_circle_ratio_one_is_square(circle):
    p, _ = find_rectangle(circle, 1.0)
    assert np.allclose(p.gaps, 0.25, atol=1e-8)


def test_find_rectangle_ellipse_with_branch_cross_check(ellipse):
    p, info = find_rectangle(ellipse, 2.0, cross_check=True)
    assert info["residual"] < 1e-8
    ev = info["aspect_event"]
    assert ev["found"]
    assert ev["event_residual_as_parallelogram"] < 1e-8


def test_find_equilateral_triangle_circle_field():
    verts, info = find_equilateral_triangle(corpus("field-circle"))
    v = np.sort(np.asarray(verts))
    gaps = np.diff(np.concatenate([v, [v[0] + 1]]))
    assert np.allclose(np.sort(gaps), 1 / 3, atol=1e-8)
    assert info["residual"] < 1e-8


def test_find_equilateral_triangle_ellipse_with_grid_oracle(ellipse):
    from pegfinder.fields import ChordalField

    verts, info = find_equilateral_triangle(ellipse)
    assert info["residual"] < 1e-8
    defect, dist = slice_grid_oracle(ChordalField(ellipse), *verts)
    assert dist < 2e-3  # grid minimum sits at the solver's answer
    assert defect < 5e-2


def test_find_equilateral_triangle_synthetic_seed11_with_grid_oracle():
    field = corpus("field-random", seed=11)
    verts, info = find_equilateral_triangle(field)
    assert info["residual"] < 1e-8
    spread = min(
        min(abs(verts[i] - verts[j]), 1 - abs(verts[i] - verts[j]))
        for i in range(3)
        for j in range(i + 1, 3)
    )
    assert spread > 1e-3
    defect, dist = slice_grid_oracle(field, *verts)
    assert dist < 2e-3
    assert defect < 5e-2


def test_two_metric_triangle_circle_sin_mod(circle):
    # on the rotating equilateral family of the circle, the isosceles events
    # of |sin(pi(x-y))| (1 + 0.1 cos(2 pi (x+y))) sit exactly on the 1/12 grid
    verts, info = find_two_metric_triangle(circle, corpus("field-sin-mod"))
    assert info["equilateral_residual"] < 1e-8
    assert info["isosceles_gap"] < 1e-8
    assert info["branch_isotropy"] == 3
    frac = (np.asarray(verts[0]) * 12.0) % 1.0
    assert min(frac, 1 - frac) < 1e-5


def test_two_metric_triangle_equal_fields(circle):
    verts, info = find_two_metric_triangle(circle, corpus("field-circle"))
    assert info["equilateral_residual"] < 1e-8
    assert info["isosceles_gap"] < 1e-8


def test_two_metric_triangle_ellipse_random_field(ellipse):
    verts, info = find_two_metric_triangle(ellipse, corpus("field-random", seed=3))
    assert info["equilateral_residual"] < 1e-8
    assert info["isosceles_gap"] < 1e-8


def test_planar_rhombus_trefoil(trefoil):
    p, info = find_planar_rhombus(trefoil)
    assert info["residual"] < 1e-8
    assert info["coplanarity"] < 1e-6
    assert abs(info["angle"] - np.pi) < 1e-6
    assert info["diameter"] > 1e-3
    # coplanarity of the four ambient points, checked directly
    pts = trefoil.eval(vertices(p))
    vol = np.dot(np.cross(pts[1] - pts[0], pts[2] - pts[0]), pts[3] - pts[0])
    assert abs(vol) < 1e-6 * max(np.linalg.norm(pts[1] - pts[0]), 1.0) ** 3


def test_planar_rhombus_planar_curve_immediate():
    flat = corpus("tilted-circle", angle=0.0)
    p, info = find_planar_rhombus(flat)
    assert info["coplanarity"] < 1e-9
    assert info.get("note") == "branch identically planar"


def test_planar_rhombus_tilted_circle():
    tilted = corpus("tilted-circle", angle=0.6)
    p, info = find_planar_rhombus(tilted)
    assert info["residual"] < 1e-8
    assert info["coplanarity"] < 1e-6


def test_octahedra_scaled_sphere_sixteen_circles():
    sph = corpus("scaled-sphere", lz=0.5)
    comps, info = find_octahedra(sph, TraceSettings())
    assert info["components"] == 16
    # the 16 circles are one orbit of the label group: one trace finds them
    assert info["traced_directly"] == 1
    assert info["max_residual"] < 1e-8
    sys = OctahedronSystem(sph)
    # twelve equal edges at every first sample
    for c in comps[:4]:
        L = sys.edge_lengths(c.points[0])
        assert np.max(L) - np.min(L) < 1e-8
    # applying any group element to a found branch lands on a found branch
    rng = np.random.default_rng(5)
    for sigma in [octahedron_group()[k] for k in rng.integers(0, 48, size=6)]:
        pts = sys.apply_label_permutation(comps[0].points, sigma)
        assert min(chain_distance(sys, c.points, pts[0]) for c in comps) < 2e-2
    # and every found branch is a label image of the first one
    images = [sys.apply_label_permutation(comps[0].points[0], s) for s in octahedron_group()]
    for c in comps:
        assert min(chain_distance(sys, c.points, q) for q in images) < 2e-2


def test_octahedra_round_sphere_rejected():
    with pytest.raises(NonIsolatedSolutionsError):
        find_octahedra(corpus("scaled-sphere", lx=1.0, ly=1.0, lz=1.0))


def test_planar_rhombus_answer_is_rhombus(trefoil):
    p, _ = find_planar_rhombus(trefoil)
    pts = trefoil.eval(vertices(p))
    sides = [np.linalg.norm(pts[(i + 1) % 4] - pts[i]) for i in range(4)]
    assert np.max(sides) - np.min(sides) < 1e-8
