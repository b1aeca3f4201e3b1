import itertools
import math
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest

from pegfinder import (
    NonIsolatedSolutionsError,
    TraceSettings,
    corpus,
    edge_ratio_branches,
    find_equilateral_triangle,
    find_octahedra,
    find_planar_rhombus,
    find_rectangle,
    find_square,
    find_two_metric_triangle,
    from_vertices,
    octahedron_group,
    vertices,
    winding_sum,
)
from pegfinder import searches, tracing
from pegfinder.errors import ConvergenceError, DomainError, SearchFailure
from pegfinder.fields import as_field
from pegfinder.residuals import (
    EdgeRatioSystem,
    OctahedronSystem,
    RectangleSystem,
    Rhombus3dSystem,
    SquareSystem,
    TriangleSystem,
)
from pegfinder.searches import (
    FAMILY_RANK_TOL,
    _PlanarRhombusSystem,
    _rhombus_answer,
    _triangle_answer,
    enumerate_branches,
    polygon_seed_grid,
    simplex_lattice,
    square_orbits,
)
from pegfinder.solvers import gauss_newton_batch, refine
from pegfinder.tracing import (
    MEMBERSHIP_TOL,
    Branch,
    Event,
    PerturbedSystem,
    branch_events,
    branch_orbit,
    chain_distance,
    image_branch,
    near_chain,
    trace_branch,
    winding_number,
)

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


def test_find_octahedra_runs_in_bounded_memory():
    # only the kept label images are built and each component owns its
    # points; the residual check runs in heap-sized blocks.  The stack of
    # all 48 images of the 920-sample chain alone is 6.1 MB
    sph = corpus("scaled-sphere", lz=0.5)
    find_octahedra(sph, TraceSettings(seed=0))  # warm-up: no first-call allocation counts
    tracemalloc.start()
    try:
        comps, info = find_octahedra(sph, TraceSettings(seed=0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert info["components"] == 16
    assert peak < 6e6
    assert all(c.points.base is None or c.points.base.nbytes <= c.points.nbytes for c in comps)


@pytest.fixture(scope="module")
def octahedron_points():
    sph = corpus("scaled-sphere", lz=0.5)
    comps, _ = find_octahedra(sph, TraceSettings(seed=0))
    return OctahedronSystem(sph), np.concatenate([c.points for c in comps])


@pytest.mark.parametrize("rows", [2, 47, 48, 49, 97, 920])
def test_blocked_max_residual_is_the_whole_chain_value(octahedron_points, rows):
    # 49 and 97 rows leave a remainder of one row over 48-row blocks, and
    # the largest residual sits in that last row: a one-row block computes
    # it with other bits (the matmul's vector path).  The blocks are split
    # evenly, so none has one row and the value is the whole chain's
    sys, points = octahedron_points
    order = np.argsort(np.linalg.norm(sys.residual(points), axis=-1))
    chain = points[np.append(order[: rows - 1], order[-1])]
    whole = float(np.max(np.linalg.norm(sys.residual(chain), axis=-1)))
    assert searches._RESIDUAL_BLOCK_ROWS == 48
    assert searches._max_residual(sys, chain) == whole


def test_octahedra_round_sphere_rejected():
    with pytest.raises(NonIsolatedSolutionsError):
        find_octahedra(corpus("scaled-sphere", lx=1.0, ly=1.0, lz=1.0))


def test_planar_rhombus_answer_is_rhombus(trefoil):
    p, _ = find_planar_rhombus(trefoil)
    pts = trefoil.eval(vertices(p))
    sides = [np.linalg.norm(pts[(i + 1) % 4] - pts[i]) for i in range(4)]
    assert np.max(sides) - np.min(sides) < 1e-8


def test_seed_grid_needs_enough_lattice_steps():
    assert polygon_seed_grid(4, 10, 4).shape == (10, 4)
    for n, nx, m in ((4, 10, 3), (5, 12, 4), (4, 0, 8), (3, -1, 8)):
        with pytest.raises(DomainError):
            polygon_seed_grid(n, nx, m)
    with pytest.raises(DomainError):
        simplex_lattice(4, 3)


def test_seed_grid_is_bounded_before_it_is_built(monkeypatch, capsys):
    from pegfinder.cli import main

    # the largest grid the tests build (count_squares at nx = 300) fits
    assert polygon_seed_grid(4, 300, 24).shape == (300 * 1771, 4)

    def no_lattice(n, m):
        raise AssertionError("the lattice was built")

    monkeypatch.setattr(searches, "simplex_lattice", no_lattice)
    with pytest.raises(DomainError, match="156,454,740 seeds"):
        polygon_seed_grid(12, 12, 28)  # 12 * C(27, 11), the full grid
    # find-ngon --n 10 and 12: the Z_n domain bound, 2 * C(23, 9) and
    # 2 * C(27, 11), is refused from counts alone
    with pytest.raises(DomainError, match="1,634,380 seeds"):
        polygon_seed_grid(10, 12, 24, 10)
    for n in ("10", "12"):
        assert main(["find-ngon", "--corpus", "ellipse", "--n", n]) == 2
        assert capsys.readouterr().err.count("\n") == 1


def _filtered_full_grid(n, nx, m, s):
    """Reference: the full (base x shape) grid, base-major, then the rows
    whose star base lies in [0, 1/s)."""
    shapes = simplex_lattice(n, m)[:, : n - 1]
    xs = (np.arange(nx) + 0.5) / nx
    seeds = np.empty((nx * len(shapes), n))
    seeds[:, 0] = np.repeat(xs, len(shapes))
    seeds[:, 1:] = np.tile(shapes, (nx, 1))
    return seeds[EdgeRatioSystem.star_base_z(seeds) < 1.0 / s]


@pytest.mark.parametrize(
    "n, nx, m, s",
    [(n, 12, max(8, 2 * n + 4), n) for n in range(3, 9)]
    + [(4, 150, 24, 4), (4, 150, 24, 2), (4, 24, 16, 1), (4, 10, 8, 1), (3, 64, 12, 1)],
)
def test_domain_seed_grid_is_the_filtered_full_grid(n, nx, m, s):
    # edge_ratio_branches' grids for n = 3..8, count_squares' grid, and
    # full grids (s = 1) of find_square and the triangle searches
    got = polygon_seed_grid(n, nx, m, s)
    want = _filtered_full_grid(n, nx, m, s)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert len(got) <= (nx // s + 1) * math.comb(m - 1, n - 1)


def test_domain_seed_grid_builds_no_full_grid():
    # count_squares' grid: the full (150 * 1771, 4) grid alone is 8.5 MB,
    # the 66,412 domain rows 2.1 MB
    polygon_seed_grid(4, 150, 24, 4)  # warm-up: no first-call allocation counts
    tracemalloc.start()
    try:
        seeds = polygon_seed_grid(4, 150, 24, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(seeds) == 66_412
    assert peak < 8e6


def test_edge_ratio_lemma_at_n9():
    # 9 = 3^2, a prime power: the lemma's winding sum is +-1, carried by a
    # closed full-isotropy branch; free Z_9 orbits of isotropy-1 loops
    # come with it
    branches = edge_ratio_branches(_D10_SEED1, 9)
    assert abs(winding_sum(branches)) == 1
    closed = [b.isotropy_order for b in branches if b.closed]
    assert 9 in closed and 1 in closed


def _eager_events(br, events, settings):
    """Reference: every sign change of every event function on the branch,
    bisected up front and ordered by index, then the tracer's own events."""
    found = [e for kind, fn in events.items() for e in branch_events(br, fn, kind, settings)]
    return sorted(found, key=lambda e: e.index) + br.events


def _enumerate_branches_scalar(system, seeds, settings):
    """Reference: one chain_distance call per zero and known branch.  After
    each trace, the shifts of the branch by multiples of n / symmetry order
    are added one by one unless their first sample is on a known branch."""
    zeros = gauss_newton_batch(system, seeds, tol=settings.corrector_tol * 0.5)
    zeros = zeros[np.lexsort(np.round(zeros, 8).T[::-1])]
    tol = MEMBERSHIP_TOL
    branches = []
    for z in zeros:
        if any(chain_distance(system, br.points, z) < tol for br in branches):
            continue
        try:
            br = trace_branch(system, z, settings)
        except ConvergenceError:
            continue
        branches.append(br)
        step = system.n // br.system.symmetry_order
        for k in range(step, system.n, step):
            pts = system.shift(br.points, k)
            if any(chain_distance(system, b.points, pts[0]) < tol for b in branches):
                continue
            image = Branch(
                br.system,
                pts,
                br.closed,
                br.termination,
                events=[Event(e.kind, pts[e.index], e.index, e.value) for e in br.events],
                isotropy_order=br.isotropy_order,
            )
            if br.winding is not None:
                image.winding = winding_number(image) * tracing._orientation(br.system, pts)
            branches.append(image)
    return branches


@pytest.mark.parametrize(
    "curve, n",
    [
        (corpus("ellipse", a=2, b=1), 4),
        (corpus("ellipse", a=2, b=1), 5),
        (corpus("fourier-random", degree=4, amp=0.3, seed=1), 5),
        (corpus("fourier-random", degree=10, amp=0.6, seed=1), 3),  # 2 free Z_3 orbits
    ],
    ids=["ellipse-4", "ellipse-5", "d4-seed1-5", "d10-seed1-3"],
)
def test_enumerate_branches_traces_what_the_scalar_loop_traced(curve, n):
    settings = TraceSettings()
    sys = EdgeRatioSystem(curve, n)
    seeds = polygon_seed_grid(n, 12, max(8, 2 * n + 4))
    events = {"diagonal_swap": sys.diagonal_gap} if n == 4 and sys.symmetry_order == 4 else {}
    got = list(enumerate_branches(sys, seeds, settings))
    want = _enumerate_branches_scalar(sys, seeds, settings)
    assert len(got) == len(want) > 0
    for g, w in zip(got, want):
        assert np.array_equal(g.points, w.points)
        assert g.winding == w.winding
        g_events, w_events = _eager_events(g, events, settings), _eager_events(w, events, settings)
        assert [e.kind for e in g_events] == [e.kind for e in w_events]
        assert all(np.array_equal(a.z, b.z) for a, b in zip(g_events, w_events))


def _full_grid_branches(system, seeds, settings):
    """Reference: every labeling seeded and traced, no images taken
    (``branch_orbit`` gives each branch its isotropy); each trace marks the
    later zeros it covers."""
    zeros = gauss_newton_batch(system, seeds, tol=settings.corrector_tol * 0.5)
    zeros = zeros[np.lexsort(np.round(zeros, 8).T[::-1])]
    tol = MEMBERSHIP_TOL
    covered = np.zeros(len(zeros), dtype=bool)
    branches = []
    for i, z in enumerate(zeros):
        if not covered[i]:
            (_, br), *_ = branch_orbit(trace_branch(system, z, settings))
            branches.append(br)
            covered |= near_chain(system, br.points, zeros, tol)
    return branches


_D10_SEED1 = corpus("fourier-random", degree=10, amp=0.6, seed=1)


@pytest.mark.parametrize("n, traces", [(3, 3), (4, 3), (5, 2)])
def test_edge_ratio_orbits_match_the_full_grid_search(monkeypatch, n, traces):
    # one full-isotropy branch plus free Z_n orbits of isotropy-1 branches:
    # 7, 9 and 6 branches, each traced on the full grid
    settings = TraceSettings()
    sys = EdgeRatioSystem(_D10_SEED1, n)
    want = _full_grid_branches(sys, polygon_seed_grid(n, 12, max(8, 2 * n + 4)), settings)
    counts = _count_work(monkeypatch)
    got = edge_ratio_branches(_D10_SEED1, n, settings=settings)
    assert counts["traces"] <= traces < len(want) == len(got)
    tol = MEMBERSHIP_TOL
    matched = []
    for g in got:
        (k,) = [k for k, w in enumerate(want) if chain_distance(sys, w.points, g.points[0]) < tol]
        w = want[k]
        assert chain_distance(sys, g.points, w.points[0]) < tol
        assert (g.closed, g.winding, g.isotropy_order) == (w.closed, w.winding, w.isotropy_order)
        matched.append(k)
    assert sorted(matched) == list(range(len(want)))


@pytest.mark.parametrize("n", [3, 4, 5])
def test_image_windings_match_direct_traces(n):
    # every relabeling of each traced branch, the full-isotropy branch
    # (winding +-1) included, against a trace through its first sample
    settings = TraceSettings()
    sys = EdgeRatioSystem(_D10_SEED1, n)
    seeds = polygon_seed_grid(n, 12, max(8, 2 * n + 4), sys.symmetry_order)
    zeros = gauss_newton_batch(sys, seeds, tol=settings.corrector_tol * 0.5)
    windings = set()
    for br, *_ in searches._iter_orbits(sys, zeros, settings):
        assert br.closed
        for pts in sys.images(br.points)[1:]:
            image = image_branch(br, pts)
            (_, direct), *_ = branch_orbit(trace_branch(sys, pts[0], settings))
            assert image.winding == direct.winding
            assert (image.closed, image.isotropy_order) == (direct.closed, direct.isotropy_order)
            windings.add(image.winding)
    assert windings == {0, 1 if n % 2 else -1}


def _orbit_shape(br):
    """(image indices, isotropy orders) of ``branch_orbit(br)``."""
    orbit = branch_orbit(br)
    return [k for k, _ in orbit], [b.isotropy_order for _, b in orbit]


@pytest.mark.parametrize("n, free_orbits", [(3, 2), (4, 2), (5, 1)])
def test_branch_orbit_on_free_and_full_isotropy_branches(n, free_orbits):
    # one full-isotropy loop, its own orbit, and free Z_n orbits of n
    # isotropy-1 loops each
    settings = TraceSettings()
    sys = EdgeRatioSystem(_D10_SEED1, n)
    seeds = polygon_seed_grid(n, 12, max(8, 2 * n + 4), sys.symmetry_order)
    zeros = gauss_newton_batch(sys, seeds, tol=settings.corrector_tol * 0.5)
    got = sorted(_orbit_shape(br) for br, *_ in searches._iter_orbits(sys, zeros, settings))
    assert got == [([0], [n])] + free_orbits * [(list(range(n)), n * [1])]


def test_branch_orbit_stabilizers(ellipse, trefoil):
    settings = TraceSettings()
    er = EdgeRatioSystem(ellipse, 4)
    assert _orbit_shape(trace_branch(er, np.array([0.05, 0.26, 0.24, 0.25]), settings)) == ([0], [4])
    # the trefoil's first equal-edge loop is fixed by the half turn alone
    rh = Rhombus3dSystem(trefoil)
    zeros = gauss_newton_batch(rh, polygon_seed_grid(4, 10, 8), tol=settings.corrector_tol * 0.5)
    first, *_ = next(searches._iter_orbits(rh, zeros, settings))
    assert _orbit_shape(first) == ([0, 1], [2, 2])
    # an open branch keeps every distinct image and has no isotropy
    rect = RectangleSystem(ellipse)
    z0 = rect.from_param(from_vertices(ELLIPSE_SQUARE_PARAMS))
    assert _orbit_shape(trace_branch(rect, z0, settings)) == ([0, 1, 2, 3], 4 * [None])
    # the 16 octahedron circles: symmetry_order 1, so no isotropy either
    comps, _ = find_octahedra(corpus("scaled-sphere", lz=0.5), settings)
    indices, isotropies = _orbit_shape(comps[0])
    assert indices[0] == 0 and len(set(indices)) == len(indices) == 16
    assert isotropies == 16 * [None]


_D10_SEED0 = corpus("fourier-random", degree=10, amp=0.6, seed=0)


@pytest.mark.parametrize(
    "curve, n, components",
    [(_D10_SEED0, 3, 16), (_D10_SEED1, 4, 9)],
    ids=["d10-seed0-3", "d10-seed1-4"],
)
def test_edge_ratio_components_are_whole_orbits(curve, n, components):
    # one full-isotropy loop plus free Z_n orbits (5 of 3 loops, and 2 of
    # 4): the list holds every image of every component, and each only once
    branches = edge_ratio_branches(curve, n)
    sys = branches[0].system

    def probes(pts):
        return pts[:: max(1, len(pts) // 8)]

    def on(br, Q):
        return np.all(near_chain(sys, br.points, Q, MEMBERSHIP_TOL))

    assert len(branches) == components
    for br in branches:
        for pts in sys.images(br.points):
            assert any(on(other, probes(pts)) for other in branches)
    for a, b in itertools.permutations(branches, 2):
        assert not on(b, probes(a.points))
    assert all(n % br.isotropy_order == 0 for br in branches if br.closed)


def test_enumerate_branches_traces_only_what_is_drawn(monkeypatch):
    settings = TraceSettings()
    sys = EdgeRatioSystem(_D10_SEED0, 3)
    counts = _count_work(monkeypatch)
    branches = enumerate_branches(sys, polygon_seed_grid(3, 12, 10, sys.symmetry_order), settings)
    next(branches)
    assert counts["traces"] == 1
    # the other 15 components: one trace per free orbit of 3
    assert len(list(branches)) == 15 and counts["traces"] == 6


# --- lazy, best-first finders ------------------------------------------------


def _eager_branches(system, events, settings):
    """Reference: trace every branch and bisect all its events, then sort
    the branches once."""
    branches = list(enumerate_branches(system, polygon_seed_grid(4, 10, 8), settings))
    for br in branches:
        br.events = _eager_events(br, events, settings)
    branches.sort(key=lambda b: (not b.closed, -(b.isotropy_order or 1)))
    return branches


def _find_planar_rhombus_eager(knot, settings, diameter_floor=1e-3):
    """Reference: the planar-rhombus search over fully traced, fully
    bisected branches."""
    sys = Rhombus3dSystem(knot)
    polish = _PlanarRhombusSystem(sys)
    for br in _eager_branches(sys, {"planarity": sys.coplanarity}, settings):
        if np.max(np.abs(sys.coplanarity(br.points))) < 1e-9:
            for z in br.points[len(br) // 2 :]:
                if sys.diameter(z) > diameter_floor:
                    return _rhombus_answer(sys, z, br, note="branch identically planar")
            continue
        for ev in [e for e in br.events if e.kind == "planarity"]:
            if sys.diameter(ev.z) < diameter_floor:
                continue
            try:
                z = refine(polish, ev.z, tol=1e-10)
                angle = sys.planarity_angle(z)
            except ConvergenceError:
                continue
            if abs(angle - np.pi) < 0.1 and sys.diameter(z) > diameter_floor:
                return _rhombus_answer(sys, z, br)
    raise AssertionError("the reference search found no planar rhombus")


def _find_square_eager(curve, settings, nx=24, m=16):
    """Reference: the diagonal-swap square over fully traced, fully bisected
    branches, with the same multistart cross-check, measured at the square
    as reported."""
    sq = SquareSystem(curve)
    er = EdgeRatioSystem(curve, 4)
    newton_Z, conditions, close_pairs = square_orbits(sq, polygon_seed_grid(4, nx, m))
    family = any(c < FAMILY_RANK_TOL for c in conditions) or bool(close_pairs)
    for br in _eager_branches(er, {"diagonal_swap": er.diagonal_gap}, settings):
        swaps = [e for e in br.events if e.kind == "diagonal_swap"]
        if swaps:
            z, route = swaps[0].z, "diagonal_swap"
        elif np.max(np.abs(er.diagonal_gap(br.points))) < 1e-9:
            z, route = br.points[len(br) // 2], "square_family_branch"
        else:
            continue
        z = sq.from_param(sq.to_param(refine(sq, z, tol=1e-11)))
        prov = {
            "route": route,
            "branch_closed": br.closed,
            "branch_isotropy": br.isotropy_order,
            "branch_winding": br.winding,
            "newton_orbit_count": len(newton_Z),
            "jacobian_condition_ratios": conditions,
            "family_detected": family,
        }
        if family:
            nudged = refine(sq, z + 1e-4, tol=1e-11)
            prov["newton_agreement"] = float(np.linalg.norm(sq.residual(nudged)))
            prov["agrees"] = True
        else:
            dists = sq.orbit_dist(newton_Z, z)
            prov["newton_agreement"] = float(min(dists))
            prov["agrees"] = bool(min(dists) <= 1e-6)
        prov["residual"] = float(np.linalg.norm(sq.residual(z)))
        return sq.to_param(sq.canonical(z[None])[0]), prov
    raise AssertionError("the reference search found no square")


def _assert_same_answer(got, want):
    (p, info), (q, want_info) = got, want
    assert p.base == q.base and np.array_equal(p.gaps, q.gaps)
    assert repr(info) == repr(want_info)


@pytest.mark.parametrize(
    "knot",
    [corpus("trefoil"), corpus("tilted-circle", angle=0.0), corpus("tilted-circle", angle=0.6)],
    ids=["trefoil", "tilted-0.0", "tilted-0.6"],
)
def test_planar_rhombus_matches_the_eager_search(knot):
    settings = TraceSettings()
    got = find_planar_rhombus(knot, settings)
    want = _find_planar_rhombus_eager(knot, settings)
    _assert_same_answer(got, want)


@pytest.mark.parametrize(
    "curve",
    [corpus("ellipse", a=2, b=1), corpus("circle"), corpus("cusp")],
    ids=["ellipse", "circle", "cusp"],
)
def test_find_square_matches_the_eager_search(curve):
    settings = TraceSettings()
    got = find_square(curve, settings)
    want = _find_square_eager(curve, settings)
    _assert_same_answer(got, want)


def _find_two_metric_triangle_eager(source1, source2, settings):
    """Reference: all isosceles hits of every traced branch bisected up
    front; a branch's hits are sorted by index, then stably by |value|."""
    sys = TriangleSystem(source1)
    d2 = as_field(source2)

    def iso_event(k):
        def ev(z):
            D = sys.pairwise(z, field=d2)
            return D[..., k] - D[..., (k + 1) % 3]

        return ev

    events = {f"isosceles_{k}": iso_event(k) for k in range(3)}
    branches = list(enumerate_branches(sys, polygon_seed_grid(3, 12, 8), settings))
    hits = [
        [e for e in _eager_events(br, events, settings) if e.kind != "boundary_approach"]
        for br in branches
    ]
    for br, found in sorted(
        zip(branches, hits), key=lambda bh: (not bh[0].closed, -(bh[0].isotropy_order or 1))
    ):
        if not found:
            if any(np.max(np.abs(fn(br.points))) < 1e-10 for fn in events.values()):
                z = br.points[len(br) // 2]
                return _triangle_answer(sys, d2, z, br, note="isosceles identically")
            continue
        found.sort(key=lambda e: abs(e.value))
        return _triangle_answer(sys, d2, found[0].z, br)
    raise AssertionError("the reference search found no triangle")


@pytest.mark.parametrize(
    "source1, source2",
    [
        (corpus("circle"), corpus("field-sin-mod")),
        (corpus("ellipse", a=2, b=1), corpus("field-sin-mod")),
        (corpus("field-random", seed=3), corpus("circle")),
    ],
    ids=["circle-sin-mod", "ellipse-sin-mod", "random3-circle"],
)
def test_two_metric_triangle_matches_the_eager_search(source1, source2):
    settings = TraceSettings()
    got = find_two_metric_triangle(source1, source2, settings)
    want = _find_two_metric_triangle_eager(source1, source2, settings)
    assert got[0] == want[0] and repr(got[1]) == repr(want[1])


def test_finders_bisect_on_the_system_the_branch_was_traced_on(monkeypatch, trefoil, ellipse):
    # after a stall fallback a branch lives on its PerturbedSystem, and the
    # eager search bisected its events there
    def perturbed_trace(system, z, settings):
        return trace_branch(PerturbedSystem(system, delta=1e-3), z, settings)

    settings = TraceSettings()
    sys = Rhombus3dSystem(trefoil)
    zeros = gauss_newton_batch(sys, polygon_seed_grid(4, 10, 8), tol=settings.corrector_tol * 0.5)
    first = next(searches._iter_orbits(sys, zeros, settings))
    assert [b.isotropy_order for b in first] == [2, 2]  # the branch and its one image
    monkeypatch.setattr(searches, "trace_branch", perturbed_trace)
    # the perturbation is not equivariant, so a perturbed branch has no images
    first = next(searches._iter_orbits(sys, zeros, settings))
    assert len(first) == 1 and isinstance(first[0].system, PerturbedSystem)
    _assert_same_answer(find_square(ellipse, settings), _find_square_eager(ellipse, settings))
    _assert_same_answer(
        find_planar_rhombus(trefoil, settings), _find_planar_rhombus_eager(trefoil, settings)
    )


def _count_work(monkeypatch):
    """Count branch traces of the finders and event bisections."""
    counts = {"traces": 0, "bisections": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(searches, "trace_branch", counted("traces", searches.trace_branch))
    monkeypatch.setattr(tracing, "_bisect_event", counted("bisections", tracing._bisect_event))
    return counts


def test_finders_trace_and_bisect_only_what_the_answer_needs(monkeypatch, trefoil, ellipse):
    counts = _count_work(monkeypatch)
    find_planar_rhombus(trefoil)
    # the eager search traced 7 branches and bisected 60 planarity events
    assert counts == {"traces": 2, "bisections": 1}
    counts.update(traces=0, bisections=0)
    find_square(ellipse)
    # the eager search bisected all 6 diagonal swaps of the branch
    assert counts["bisections"] == 1


def test_planar_rhombus_failure_reports_every_traced_branch(monkeypatch, trefoil):
    branches = list(
        enumerate_branches(Rhombus3dSystem(trefoil), polygon_seed_grid(4, 10, 8), TraceSettings())
    )
    counts = _count_work(monkeypatch)

    def no_polish(*args, **kwargs):
        raise ConvergenceError("polish disabled")

    monkeypatch.setattr(searches, "refine", no_polish)
    with pytest.raises(SearchFailure) as failure:
        find_planar_rhombus(trefoil)
    # every branch is examined, and the images among them are not traced
    assert failure.value.diagnostic["branches"] == len(branches) > counts["traces"] > 2


@dataclass
class _Stub:
    closed: bool
    isotropy_order: int | None


def test_best_first_is_the_stable_sort_drawing_lazily():
    rng = np.random.default_rng(7)
    top = 4
    for _ in range(50):
        stubs = [
            _Stub(bool(rng.integers(2)), [None, 1, 2, 4][rng.integers(4)])
            for _ in range(rng.integers(0, 12))
        ]
        drawn = []

        def source():
            for s in stubs:
                drawn.append(s)
                yield s

        got = []
        for s in searches._best_first(source(), top):
            if s.closed and s.isotropy_order == top:
                # yielded before the next source item is drawn
                assert drawn[-1] is s
            got.append(s)
        want = sorted(stubs, key=lambda b: (not b.closed, -(b.isotropy_order or 1)))
        assert [id(s) for s in got] == [id(s) for s in want]
