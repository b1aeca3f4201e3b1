import dataclasses

import numpy as np
import pytest

from pegfinder import (
    ConvergenceError,
    EdgeRatioSystem,
    OctahedronSystem,
    RectangleSystem,
    SpecialQuadSliceSystem,
    SpecialQuadPathSystem,
    SquareSystem,
    TraceSettings,
    branch_events,
    branch_orbit,
    corpus,
    count_special_quads,
    find_octahedra,
    refine,
    trace_branch,
)
from pegfinder.polygons import from_vertices
from pegfinder.solvers import gauss_newton_batch
from pegfinder.residuals import central_difference
from pegfinder.tracing import (
    _NEAR_BLOCK_VALUES,
    CLOSURE_TOL,
    MEMBERSHIP_TOL,
    Branch,
    PerturbedSystem,
    _correct,
    _tangent,
    near_chain,
)
from references import chain_distance


@pytest.fixture(scope="module")
def settings():
    return TraceSettings()


def test_trace_settings_validation():
    # the tracer's step and tolerance policy is fixed; the settings hold
    # only what a caller varies
    assert [f.name for f in dataclasses.fields(TraceSettings)] == ["corrector_tol", "seed"]
    with pytest.raises(ValueError):
        TraceSettings(corrector_tol=-1.0)
    with pytest.raises(ValueError, match="closure tolerance"):
        TraceSettings(corrector_tol=1e-3)
    with pytest.raises(ValueError, match="closure tolerance"):
        TraceSettings(corrector_tol=CLOSURE_TOL)
    TraceSettings(corrector_tol=0.5 * CLOSURE_TOL)
    for bad in (
        {"corrector_tol": float("nan")},
        {"corrector_tol": float("inf")},
        {"seed": -1},
        {"seed": 1.0},
        {"seed": True},
    ):
        with pytest.raises(ValueError):
            TraceSettings(**bad)


def test_refine_circle_square(circle):
    sq = SquareSystem(circle)
    z = refine(sq, np.array([0.0, 0.24, 0.26, 0.25]))
    assert np.linalg.norm(sq.residual(z)) <= 1e-10
    # converges onto the rotating square family: all gaps 1/4
    assert np.allclose(sq.gaps_of(z), 0.25, atol=1e-8)


def test_refine_ellipse_square(ellipse):
    sq = SquareSystem(ellipse)
    t1 = np.arctan(2) / (2 * np.pi)
    z = refine(sq, np.array([t1 + 0.01, 0.15, 0.34, 0.16]))
    assert np.linalg.norm(sq.residual(z)) < 1e-10
    expected = from_vertices([t1, 0.5 - t1, 0.5 + t1, 1 - t1])
    assert sq.orbit_dist(sq.from_param(expected), z) < 1e-8


def test_refine_diverges_cleanly(ellipse):
    sq = SquareSystem(ellipse)
    with pytest.raises(ConvergenceError):
        refine(sq, np.array([0.0, 0.01, 0.97, 0.01]))


def test_trace_circle_rhombus_family(circle, settings):
    sys = EdgeRatioSystem(circle, 4)
    br = trace_branch(sys, np.array([0.0, 0.251, 0.25, 0.252]), settings)
    assert br.closed
    assert abs(br.winding) == 1
    assert [(k, b.isotropy_order) for k, b in branch_orbit(br)] == [(0, 4)]
    # the circle family is entirely squares: no diagonal swap events
    assert not list(branch_events(br, sys.diagonal_gap, "diagonal_swap", settings))


def test_trace_ellipse_rhombus_events_hit_known_square(ellipse, settings):
    sys = EdgeRatioSystem(ellipse, 4)
    br = trace_branch(sys, np.array([0.05, 0.26, 0.24, 0.25]), settings)
    assert br.closed and [(k, b.isotropy_order) for k, b in branch_orbit(br)] == [(0, 4)]
    swaps = list(branch_events(br, sys.diagonal_gap, "diagonal_swap", settings))
    assert len(swaps) == 4  # the four labelings of the single square orbit
    t1 = np.arctan(2) / (2 * np.pi)
    expected = from_vertices([t1, 0.5 - t1, 0.5 + t1, 1 - t1])
    for ev in swaps:
        assert sys.orbit_dist(sys.from_param(expected), ev.z) < 1e-6


def test_open_rectangle_branch_has_no_winding(ellipse, settings):
    sys = RectangleSystem(ellipse)
    t1 = np.arctan(2) / (2 * np.pi)
    z0 = sys.from_param(from_vertices([t1, 0.5 - t1, 0.5 + t1, 1 - t1]))
    br = trace_branch(sys, z0, settings)
    assert not br.closed and br.winding is None
    # exactly one square on the open arc, boundary hits at both ends
    squares = branch_events(br, sys.fatness, "square_on_branch", settings)
    kinds = [e.kind for e in [*squares, *br.events]]
    assert kinds.count("square_on_branch") == 1
    assert kinds.count("boundary_approach") == 2


def test_trace_circle_rectangle_sweeps_all_aspects(circle, settings):
    # rectangles on a circle are (x; u, 1/2-u, u, 1/2-u); the branch through
    # the square sweeps u across (0, 1/2) and leaves at both degenerate ends
    sys = RectangleSystem(circle)
    br = trace_branch(sys, np.array([0.0, 0.25, 0.25, 0.25]), settings)
    assert not br.closed
    assert br.termination == "boundary/boundary"
    u = np.array([sys.gaps_of(z)[0] for z in br.points])
    assert u.min() < 5e-4 and u.max() > 0.5 - 5e-4
    gaps = np.array([sys.gaps_of(z) for z in br.points])
    assert np.allclose(gaps[:, 0], gaps[:, 2], atol=1e-7)
    assert np.allclose(gaps[:, 0] + gaps[:, 1], 0.5, atol=1e-7)


def test_spiral_special_quad_path_spans_sizes(settings):
    # the path of special quadrilaterals starts at a quadrilateral collapsed
    # to a point in the spiral middle and ends when the first and last
    # vertex meet again on the far side
    spiral = corpus("spiral")
    rep = count_special_quads(spiral, 0.1, verify_square=False, nt=96, m=10)
    assert rep.total >= 1
    o = rep.orbits[0]
    path = SpecialQuadPathSystem(spiral)
    z0 = np.array([o["t"], o["u1"], o["u2"], 0.1 - o["u1"] - o["u2"]])
    br = trace_branch(path, z0, settings)
    sizes = path.size(br.points)
    assert not br.closed
    assert br.termination == "boundary/boundary"
    assert sizes.min() < 1e-2
    assert sizes.max() > 0.99


def test_isotropy_full_on_invariant_branches(circle, ellipse, settings):
    for curve, n in [(circle, 3), (ellipse, 4), (circle, 5)]:
        sys = EdgeRatioSystem(curve, n)
        z0 = np.concatenate([[0.02], np.full(n - 1, 1.0 / n) + 1e-3 * np.arange(n - 1)])
        br = trace_branch(sys, z0, settings)
        assert br.closed
        assert [(k, b.isotropy_order) for k, b in branch_orbit(br)] == [(0, n)]


def _stacked_branch_orbit(branch):
    """Reference: branch_orbit's kept indices and isotropy, decided on the
    full stack of images, and that stack."""
    system = branch.system
    images = system.images(branch.points)
    keep = np.ones(len(images), dtype=bool)
    for k in range(len(images)):
        if keep[k]:
            chain = branch.points if k == 0 else images[k]
            later = k + 1 + np.flatnonzero(keep[k + 1 :])
            keep[later] = ~near_chain(system, chain, images[later, 0], MEMBERSHIP_TOL)
    kept = np.flatnonzero(keep).tolist()
    iso = len(images) // len(kept) if branch.closed and system.symmetry_order > 1 else branch.isotropy_order
    return kept, iso, images


@pytest.mark.parametrize("subject", ["octahedron", "edge-ratio n=5", "rectangle"])
def test_branch_orbit_builds_the_stacked_images_bytes(subject, ellipse, settings):
    # only the first point is relabeled by every symmetry and the kept
    # members' chains one at a time: the kept indices, isotropy orders and
    # member bytes are those of the full stack of images
    if subject == "octahedron":
        (br, *_), _ = find_octahedra(corpus("scaled-sphere", lz=0.5))
    elif subject == "rectangle":
        sys = RectangleSystem(ellipse)
        t1 = np.arctan(2) / (2 * np.pi)
        br = trace_branch(sys, sys.from_param(from_vertices([t1, 0.5 - t1, 0.5 + t1, 1 - t1])), settings)
    else:
        sys = EdgeRatioSystem(ellipse, 5)
        br = trace_branch(sys, np.concatenate([[0.02], np.full(4, 0.2) + 1e-3 * np.arange(4)]), settings)
    kept, iso, images = _stacked_branch_orbit(br)
    system = br.system
    assert system.images(br.points[0]).tobytes() == images[:, 0].tobytes()
    assert system.images(br.points, kept).tobytes() == images[kept].tobytes()
    orbit = branch_orbit(br)
    assert [k for k, _ in orbit] == kept
    assert [m.isotropy_order for _, m in orbit] == [iso] * len(kept)
    assert orbit[0][1] is br
    for k, member in orbit[1:]:
        assert member.points.shape == images[k].shape
        assert member.points.tobytes() == images[k].tobytes()
        assert member.points.base is None  # owns its points: no stack stays alive
    if subject == "octahedron":
        assert len(kept) == 16
    elif subject == "rectangle":
        assert len(kept) > 1 and iso is None


def test_bisected_event_location_is_on_zero_set(ellipse, settings):
    sys = EdgeRatioSystem(ellipse, 4)
    br = trace_branch(sys, np.array([0.05, 0.26, 0.24, 0.25]), settings)
    ev = next(branch_events(br, sys.diagonal_gap, "diagonal_swap", settings))
    assert np.linalg.norm(sys.residual(ev.z)) < 1e-9
    assert abs(float(sys.diagonal_gap(ev.z[None])[0])) < 1e-9


def test_branch_events_scan_a_closed_branch_circularly(ellipse, settings):
    sys = EdgeRatioSystem(ellipse, 4)
    loop = trace_branch(sys, np.array([0.05, 0.26, 0.24, 0.25]), settings)
    assert loop.closed and abs(loop.winding) == 1
    # restart the loop at an interior sample, which has traced neighbours on
    # both sides (the trace's own last step closes past its start)
    k = len(loop) // 3
    points = np.vstack([loop.points[k:-1], loop.points[:k], loop.points[k : k + 1]])
    closed = Branch(system=sys, points=points, closed=True, termination="closed")
    open_slice = Branch(system=sys, points=points[:-1], closed=False, termination="slice")
    sb0 = sys.star_base_z(points[0])

    def half_turn(z):
        # exactly zero at the start sample; the star base turns once
        return np.sin(2.0 * np.pi * (sys.star_base_z(z) - sb0))

    events = list(branch_events(closed, half_turn, "half_turn", settings))
    assert [e.kind for e in events] == ["half_turn", "half_turn"]
    assert events[0].index < events[1].index == len(points) - 2  # the wrap pair, last
    assert np.linalg.norm(sys.chart_diff(events[1].z, points[0])) < 1e-8  # at the start
    for ev in events:
        assert abs(ev.value) < 1e-9 and np.linalg.norm(sys.residual(ev.z)) < 1e-9
    # the open slice has the same samples but no wrap pair
    (only,) = branch_events(open_slice, half_turn, "half_turn", settings)
    assert only.index == events[0].index and np.array_equal(only.z, events[0].z)


def test_batch_solver_discards_degenerate_corners(ellipse):
    sq = SquareSystem(ellipse)
    seeds = np.array([[0.1, 1e-8, 1e-8, 1.0 - 3e-8], [0.4, 0.15, 0.34, 0.16]])
    zeros = gauss_newton_batch(sq, seeds, tol=1e-11)
    for z in zeros:
        assert sq.boundary_margins(z[None])[0] > 1e-3


def test_perturbed_system_scaling(ellipse):
    sq = SquareSystem(ellipse)
    pert = PerturbedSystem(sq, delta=1e-7, seed=3)
    z = np.array([0.1, 0.2, 0.3, 0.25])
    diff = np.linalg.norm(pert.residual(z) - sq.residual(z))
    assert 0 < diff < 1e-6
    # against a central difference of the perturbed residual itself
    for delta in (1e-7, 1e-3):
        p = PerturbedSystem(sq, delta=delta, seed=3)
        rel = np.max(np.abs(p.jacobian(z) - central_difference(p.residual, z, 1e-6)))
        assert rel < 1e-7
    # decays with the boundary margin
    z_edge = np.array([0.1, 1e-6, 0.5, 0.25])
    diff_edge = np.linalg.norm(pert.residual(z_edge) - sq.residual(z_edge))
    assert diff_edge < 1e-12


def test_perturbed_system_owns_its_derivatives(ellipse):
    # attribute delegation must not hand out the unperturbed base's jacobian
    sq = SquareSystem(ellipse)
    pert = PerturbedSystem(sq, delta=1e-3, seed=3)
    z = np.array([0.1, 0.2, 0.3, 0.25])
    F, J = pert.linearize(z)
    assert np.array_equal(F, pert.residual(z))
    assert np.array_equal(J, pert.jacobian(z))
    assert not np.array_equal(pert.jacobian(z), sq.jacobian(z))
    # and J is the derivative of the perturbed residual
    assert np.max(np.abs(central_difference(pert.residual, z, 1e-6) - pert.jacobian(z))) < 1e-7
    assert pert.boundary_margins(z) == sq.boundary_margins(z)


def test_perturbed_system_keeps_the_base_chart(ellipse):
    # the residual grows the perturbation over the base's own codomain
    sphere = corpus("scaled-sphere", lz=0.5)
    oct_sys = OctahedronSystem(sphere)
    pert = PerturbedSystem(oct_sys)
    q = np.random.default_rng(1).normal(size=(6, 3))
    z = (q / np.linalg.norm(q, axis=1, keepdims=True)).reshape(18)
    assert pert.residual(z).shape == (17,) == oct_sys.residual(z).shape
    assert (pert.chart_dim, pert.codomain_dim) == (18, 17)
    # chart differences wrap exactly the base's circle coordinates
    a, b = np.array([0.95, 0.2, 0.3, 0.25]), np.array([0.05, 0.25, 0.25, 0.25])
    for base in (SquareSystem(ellipse), SpecialQuadSliceSystem(ellipse, 0.3)):
        pert = PerturbedSystem(base, delta=1e-3)
        a3, b3 = a[: base.chart_dim], b[: base.chart_dim]
        assert np.array_equal(pert.chart_diff(a3, b3), base.chart_diff(a3, b3))
        assert pert.chart_diff(a3, b3)[0] == pytest.approx(-0.1, abs=1e-15)


def test_corrector_returns_jacobian_at_its_point(ellipse, settings):
    sys = EdgeRatioSystem(ellipse, 4)
    br = trace_branch(sys, np.array([0.05, 0.26, 0.24, 0.25]), settings)
    z = br.points[len(br) // 2]
    tau = _tangent(sys.jacobian(z))
    w, J = _correct(sys, z + 1e-3 * tau, tau, settings.corrector_tol)
    assert np.linalg.norm(sys.residual(w)) <= settings.corrector_tol
    assert np.array_equal(J, sys.jacobian(w))


def test_asymmetric_branches_isotropy_one_and_contractible_windings(settings):
    # a strong symmetric modulation splits the equilateral zero set into two
    # orbits of asymmetric contractible loops plus one invariant branch: the
    # asymmetric ones have trivial isotropy and winding 0, and the windings
    # still add up to +-1 across all components
    from pegfinder.fields import SyntheticField
    from pegfinder.residuals import TriangleSystem
    from pegfinder.searches import enumerate_branches, polygon_seed_grid

    c = [
        -0.14540130695616313,
        -0.055189293544821424,
        0.14601271155725942,
        0.1882756183517561,
        0.0815822141107617,
        -0.1335388554792382,
    ]
    field = SyntheticField(c0=1.0, ps=c[0:2], qs=c[2:4], rs=c[4:6])
    sys = TriangleSystem(field)
    branches = list(enumerate_branches(sys, polygon_seed_grid(3, 14, 10), settings))
    closed = [b for b in branches if b.closed]
    assert len(closed) == 7
    isos = sorted(b.isotropy_order for b in closed)
    assert isos == [1, 1, 1, 1, 1, 1, 3]
    trivial = [b for b in closed if b.isotropy_order == 1]
    assert all(b.winding == 0 for b in trivial)
    assert abs(sum(b.winding for b in closed)) == 1


def test_chain_distance_wraps_base(circle, settings):
    sys = EdgeRatioSystem(circle, 4)
    br = trace_branch(sys, np.array([0.0, 0.251, 0.25, 0.252]), settings)
    probe = np.array([0.999, 0.25, 0.25, 0.25])
    assert chain_distance(sys, br.points, probe) < 1e-3
    assert near_chain(sys, br.points, probe[None], 1e-3).all()


def _near_chain_matches_reference(sys, chain, Q, tol):
    expected = np.array([chain_distance(sys, chain, q) < tol for q in Q])
    got = near_chain(sys, chain, Q, tol)
    assert got.dtype == bool and np.array_equal(got, expected)
    return expected


def test_near_chain_is_the_scalar_chain_distance_test(ellipse, settings, rng):
    sys = EdgeRatioSystem(ellipse, 4)
    chain = trace_branch(sys, np.array([0.07, 0.24, 0.26, 0.25]), settings).points
    S = len(chain)
    # perturbed samples, half of them with the base shifted by +-1 (one
    # more than a block holds, so the mask spans several blocks)
    B = _NEAR_BLOCK_VALUES // chain.size + 7
    Q = chain[rng.integers(0, S, B)] + rng.normal(scale=0.02, size=(B, 4))
    Q[::2, 0] += rng.choice([-1.0, 1.0], size=len(Q[::2]))
    assert B * chain.size > _NEAR_BLOCK_VALUES
    near = _near_chain_matches_reference(sys, chain, Q, 0.02)
    assert 0 < near.sum() < B
    # just off segment midpoints: no sample is within tol, only the
    # projection onto the segment catches them
    rel = sys.chart_diff(chain[1:], chain[:-1])
    seg_len = np.linalg.norm(rel, axis=-1)
    long = np.flatnonzero(seg_len > np.median(seg_len))[:40]
    tol = 0.4 * seg_len[long].min()
    mids = chain[long] + 0.5 * rel[long] + 0.05 * tol * rng.normal(size=(len(long), 4))
    point_d = np.linalg.norm(sys.chart_diff(chain[None], mids[:, None]), axis=-1).min(axis=1)
    assert np.all(point_d >= tol)
    assert _near_chain_matches_reference(sys, chain, mids, tol).all()
    # a one-point chain has no segments
    _near_chain_matches_reference(sys, chain[:1], Q, 0.05)


def test_near_chain_decides_the_band_below_its_reach(ellipse, settings, rng):
    # a coarse chain, its longest segment 10 tol: a point whose nearest
    # sample lies in [tol, tol + longest / 2) can still be within tol of a
    # segment, so near_chain must project it
    sys = EdgeRatioSystem(ellipse, 4)
    chain = trace_branch(sys, np.array([0.07, 0.24, 0.26, 0.25]), settings).points[::8]
    seg = sys.chart_diff(chain[1:], chain[:-1])
    seg_len = np.linalg.norm(seg, axis=-1)
    tol = 0.1 * seg_len.max()
    reach = tol + 0.5 * seg_len.max()
    # anywhere along the segments longer than 2 tol, up to 2 tol across
    # them, with the base shifted by +-1 on half of them; kept in the band
    i = int(np.argmax(seg_len))
    k = np.concatenate([[i], rng.choice(np.flatnonzero(seg_len > 2 * tol), 800)])
    across = rng.normal(size=(len(k), 4))
    across -= np.sum(across * seg[k], axis=-1, keepdims=True) / seg_len[k, None] ** 2 * seg[k]
    across /= np.linalg.norm(across, axis=-1, keepdims=True)
    along, off = rng.uniform(0.0, 1.0, size=(2, len(k), 1))
    Q = chain[k] + along * seg[k] + 2 * tol * off * across
    Q[::2, 0] += rng.choice([-1.0, 1.0], size=len(Q[::2]))
    nearest = np.linalg.norm(sys.chart_diff(chain[None], Q[:, None]), axis=-1).min(axis=1)
    Q = Q[(nearest >= tol) & (nearest < reach)]
    near = _near_chain_matches_reference(sys, chain, Q, tol)
    assert len(Q) > 400 and 100 < near.sum() < len(Q) - 100
    # the band's top: just off the midpoint of the longest segment
    top = chain[i] + 0.5 * seg[i] + 1e-3 * tol * across[:1]
    assert 0.5 * seg_len[i] < np.linalg.norm(sys.chart_diff(chain, top[0]), axis=-1).min() < reach
    assert _near_chain_matches_reference(sys, chain, top, tol).all()


def test_near_chain_on_an_octahedron_component(monkeypatch):
    # octahedron charts have no circle coordinates; every query of
    # find_octahedra is decided by its nearest sample, so no row is
    # projected onto the segments
    from pegfinder import tracing

    rows = []
    projection = tracing._segment_dists
    monkeypatch.setattr(tracing, "_segment_dists", lambda rel: rows.append(len(rel)) or projection(rel))
    comps, _ = find_octahedra(corpus("scaled-sphere", lz=0.5))
    assert len(comps) == 16 and rows == []
    chain = comps[0].points
    Q = np.concatenate([chain[::40] + 1e-3, comps[1].points[::40]])
    near_chain(comps[0].system, chain, Q, 0.02)
    assert rows == []
    near = _near_chain_matches_reference(comps[0].system, chain, Q, 0.02)
    assert near.any() and not near.all()
