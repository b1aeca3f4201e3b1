import os
import tracemalloc

import numpy as np
import pytest

from pegfinder import (
    NonIsolatedSolutionsError,
    classify_rectangle_components,
    corpus,
    count_special_quads,
    count_squares,
    orientation_check,
    vertices,
)
from pegfinder import _threads, counting, solvers
from pegfinder.counting import CountReport
from pegfinder.errors import DomainError
from pegfinder.polygons import PolygonParam, from_vertices
from pegfinder.residuals import SquareSystem
from pegfinder.searches import dedup_orbits, polygon_seed_grid
from pegfinder.solvers import gauss_newton_batch, refine
from pegfinder.tracing import trace_branch


@pytest.fixture(scope="module")
def ellipse_squares(ellipse):
    return count_squares(ellipse)


def test_count_squares_ellipse_single_odd_orbit(ellipse, ellipse_squares):
    rep = ellipse_squares
    assert rep.orbit_count == 1
    assert rep.parity == 1
    assert rep.total == 4 * rep.orbit_count
    # seeds cover the Z_4 fundamental domain at the density of a >= 64^3 grid
    nx, m, seeds_run, symmetry_order = rep.resolution
    assert (nx, m) == (150, 24)
    assert symmetry_order == 4
    assert seeds_run * symmetry_order >= 64**3
    t1 = np.arctan(2) / (2 * np.pi)
    expected = from_vertices([t1, 0.5 - t1, 0.5 + t1, 1 - t1])
    found = PolygonParam(rep.orbits[0]["base"], rep.orbits[0]["gaps"])
    sq = SquareSystem(ellipse)
    assert sq.orbit_dist(sq.from_param(found), sq.from_param(expected)) < 1e-6
    assert rep.orbits[0]["ccw_square_labeling"] is True


def test_count_squares_circle_rejected(circle):
    with pytest.raises(NonIsolatedSolutionsError) as exc:
        count_squares(circle)
    assert "family" in str(exc.value) or exc.value.diagnostic


def test_count_squares_parity_resolution_invariance(ellipse):
    # doubling the seed population must not change the orbit count
    rep2 = count_squares(ellipse, nx=300, m=24)
    assert rep2.orbit_count == 1
    curve = corpus("fourier-random", degree=4, amp=0.3, seed=1)
    a = count_squares(curve)
    b = count_squares(curve, nx=300, m=24)
    assert a.orbit_count == b.orbit_count


def _special_oracle_residual(curve, t, u1, u2, eps):
    """Slice residual straight from chord evaluations (solver-independent)."""
    params = np.stack(
        [t, t + u1, t + u1 + u2, t + eps], axis=-1
    )
    P = curve.eval(params)
    def d(i, j):
        return np.linalg.norm(P[..., i, :] - P[..., j, :], axis=-1)
    return (
        np.stack([d(0, 1) - d(1, 2), d(1, 2) - d(2, 3), d(0, 2) - d(1, 3)], axis=-1),
        d(0, 1),
        d(3, 0),
    )


def test_count_special_circle_zero_with_grid_oracle(circle):
    eps = 0.1
    rep = count_special_quads(circle, eps)
    assert rep.total == 0
    assert rep.parity == 0
    assert rep.verdicts["parity"] == "even"
    assert rep.verdicts["square_exists"] is True
    assert rep.verdicts["consistent"] is True

    # oracle: scan the slice at 1e-3 shape resolution across a t-grid; every
    # near-zero cell sits at the symmetric shape, where a < b
    n = 100
    u = (np.arange(n) + 0.5) / n * eps
    U1, U2 = np.meshgrid(u, u, indexing="ij")
    interior = U1 + U2 < eps - 1e-9
    for t in np.linspace(0.0, 1.0, 25, endpoint=False):
        res, a, b = _special_oracle_residual(circle, np.full_like(U1, t), U1, U2, eps)
        norm = np.where(interior, np.linalg.norm(res, axis=-1), np.inf)
        i, j = np.unravel_index(np.argmin(norm), norm.shape)
        # the minimizing shape is the equal-arc configuration ...
        assert abs(U1[i, j] - eps / 3) < 2e-3 and abs(U2[i, j] - eps / 3) < 2e-3
        # ... and it is not special: a < b strictly
        assert a[i, j] < b[i, j] - 0.3


def test_count_special_ellipse_matches_independent_search(ellipse):
    eps = 0.1
    rep = count_special_quads(ellipse, eps)
    assert rep.verdicts["parity"] == "even"
    assert rep.verdicts["square_exists"] is True

    # oracle: derivative-free refinement (scipy Nelder-Mead) from the best
    # grid cells, then compare the classifier decision at each minimum
    from scipy.optimize import minimize

    nt, nu = 160, 36
    ts = (np.arange(nt) + 0.5) / nt
    us = (np.arange(nu) + 0.5) / nu * eps
    T, U1, U2 = np.meshgrid(ts, us, us, indexing="ij")
    mask = U1 + U2 < eps - 1e-9
    res, _, _ = _special_oracle_residual(ellipse, T, U1, U2, eps)
    norm = np.where(mask, np.linalg.norm(res, axis=-1), np.inf)
    flat = np.argsort(norm.ravel())[:60]
    specials = []
    for idx in flat:
        i, j, k = np.unravel_index(idx, norm.shape)
        x0 = np.array([T[i, j, k], U1[i, j, k], U2[i, j, k]])
        fun = lambda v: float(
            np.sum(_special_oracle_residual(ellipse, v[0], v[1], v[2], eps)[0] ** 2)
        )
        out = minimize(fun, x0, method="Nelder-Mead", options={"xatol": 1e-12, "fatol": 1e-24, "maxiter": 2000})
        if out.fun > 1e-18:
            continue
        _, a, b = _special_oracle_residual(ellipse, out.x[0], out.x[1], out.x[2], eps)
        if a >= b - 1e-9:
            specials.append(out.x)
    # deduplicate oracle hits
    dedup = []
    for s in specials:
        if all(np.max(np.abs((s - d + 0.5) % 1 - 0.5)) > 1e-4 for d in dedup):
            dedup.append(s)
    assert len(dedup) == rep.total


def test_count_special_on_cusped_polyline():
    # piecewise-linear curve with cusps: slice solving runs on secant
    # Jacobians; the report is still well-formed and classifier-consistent
    cusp = corpus("cusp")
    rep = count_special_quads(cusp, 0.2, verify_square=False, nt=48, m=8)
    assert rep.parity == rep.total % 2
    for o in rep.orbits:
        assert o["a"] >= o["b"] - 1e-9
        assert abs(o["size"] - 0.2) < 1e-9


def test_count_special_tie_flag(circle):
    # size 3/4 on the circle: the symmetric solution has a = b exactly
    rep = count_special_quads(circle, 0.75, verify_square=False)
    assert any("tie" in note for note in rep.notes)
    assert rep.verdicts["parity_reliable"] is False


def test_rectangle_components_ellipse(ellipse, ellipse_squares):
    rep = classify_rectangle_components(ellipse, square_report=ellipse_squares)
    assert rep.verdicts["total_matches_orbit_count"]
    assert rep.verdicts["total_squares_mod8"] == 4
    assert rep.verdicts["every_closed_component_even"]  # vacuous: branches open
    assert any("boundary" in n for n in rep.notes)
    assert all(o["square_events"] >= 1 for o in rep.orbits)


def test_rectangle_components_circle_rejected(circle):
    with pytest.raises(NonIsolatedSolutionsError):
        classify_rectangle_components(circle)


def test_rectangle_components_fourier_seed5():
    curve = corpus("fourier-random", degree=4, amp=0.3, seed=5)
    rep = classify_rectangle_components(curve)
    assert rep.verdicts["total_squares_mod8"] == 4
    assert rep.verdicts["every_closed_component_even"]


def test_three_square_orbits_and_rectangle_bookkeeping():
    # a curve with more than one square orbit, so the orbit dedup has to
    # keep distinct orbits apart as well as merge the labelings of each
    curve = corpus("fourier-random", degree=10, amp=0.6, seed=2)
    rep = count_squares(curve)
    assert rep.orbit_count == 3
    assert rep.parity == 1 and rep.verdicts["parity_odd"]
    sq = SquareSystem(curve)
    Z = np.array([sq.from_param(PolygonParam(o["base"], o["gaps"])) for o in rep.orbits])
    for i, z in enumerate(Z):
        assert np.all(sq.orbit_dist(Z[i + 1 :], z) > 1e-2)
    comps = classify_rectangle_components(curve, square_report=rep)
    assert comps.total == 12
    assert comps.verdicts["total_matches_orbit_count"]


@pytest.mark.parametrize(
    "name, params, orbits, components, closed, total",
    [
        ("cusp", {}, 3, 12, 0, 12),
        ("fourier-random", {"degree": 10, "amp": 0.6, "seed": 1}, 7, 12, 4, 28),
        # seed 4 holds a near-fold pair of square orbits 0.014 apart
        ("fourier-random", {"degree": 10, "amp": 0.6, "seed": 4}, 5, 8, 0, 20),
    ],
    ids=["cusp", "d10-seed1", "d10-seed4"],
)
def test_rectangle_bookkeeping_on_multi_orbit_curves(
    monkeypatch, name, params, orbits, components, closed, total
):
    curve = corpus(name, **params)
    rep = count_squares(curve)
    traces = []

    def counted_trace(*args):
        traces.append(args)
        return trace_branch(*args)

    monkeypatch.setattr(counting, "trace_branch", counted_trace)
    comps = classify_rectangle_components(curve, square_report=rep)
    assert rep.orbit_count == orbits
    assert (comps.orbit_count, sum(o["closed"] for o in comps.orbits), comps.total) == (
        components,
        closed,
        total,
    )
    assert all(v for v in comps.verdicts.values() if isinstance(v, bool))
    assert comps.verdicts["total_squares_mod8"] == 4
    # one trace per square orbit at most; the other labelings are images
    # (tracing every uncontained labeling took 12, 12 and 8)
    assert len(traces) <= orbits


@pytest.mark.parametrize(
    "name, params, orbits",
    [
        ("fourier-random", {"degree": 10, "amp": 0.6, "seed": 1}, 7),
        ("cusp", {}, 3),
        ("fourier-random", {"degree": 10, "amp": 0.6, "seed": 4}, 5),
    ],
)
def test_count_squares_fundamental_domain_matches_full_grid(name, params, orbits):
    # seeding only star base in [0, 1/4) finds the same orbits as seeding
    # every labeling of the same grid
    curve = corpus(name, **params)
    rep = count_squares(curve)
    sq = SquareSystem(curve)
    zeros = gauss_newton_batch(
        sq, polygon_seed_grid(4, 150, 24), tol=1e-11, prune_after=1, prune_level=0.6
    )
    full = dedup_orbits(sq, zeros)
    assert rep.orbit_count == len(full) == orbits
    for o in rep.orbits:
        z = sq.from_param(PolygonParam(o["base"], o["gaps"]))
        assert np.min(sq.orbit_dist(full, z)) < 1e-8


def test_count_squares_on_a_distance_field():
    rep = count_squares(corpus("field-random", seed=0))
    assert rep.orbit_count == 1 and rep.parity == 1 and rep.verdicts["parity_odd"]
    assert rep.orbits[0]["ccw_square_labeling"] is None  # no planar curve to orient


def test_rectangle_components_without_squares(ellipse):
    empty = CountReport(kind="square", total=0, orbit_count=0, parity=0)
    rep = classify_rectangle_components(ellipse, square_report=empty)
    assert rep.total == 0 and rep.orbit_count == 0 and rep.orbits == []
    assert rep.resolution == (0,)
    assert rep.verdicts["total_matches_orbit_count"]


def test_orientation_check(circle, ellipse, ellipse_squares):
    square = PolygonParam(ellipse_squares.orbits[0]["base"], ellipse_squares.orbits[0]["gaps"])
    assert orientation_check(ellipse, square) is True
    assert orientation_check(circle, PolygonParam(0.0, [0.25] * 4)) is True
    reversed_vertices = vertices(square)[::-1]
    assert orientation_check(ellipse, reversed_vertices) is False


def test_count_report_invariants(ellipse_squares):
    rep = ellipse_squares
    assert rep.parity == rep.orbit_count % 2
    assert rep.total == 4 * rep.orbit_count
    d = rep.to_dict()
    assert d["kind"] == "square" and d["orbit_count"] == rep.orbit_count


# --- Gauss-Newton in row blocks over threads -----------------------------------


def _square_count_zeros(curve):
    sq = SquareSystem(curve)
    seeds = polygon_seed_grid(4, 150, 24, sq.symmetry_order)
    return gauss_newton_batch(sq, seeds, tol=1e-11, prune_after=1, prune_level=0.6)


@pytest.fixture(scope="module")
def one_block_results():
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solvers, "_BLOCK_ROWS", 10**9)
        mp.setattr(solvers, "_SWEEP_ROWS", 10**9)
        zeros = _square_count_zeros(corpus("fourier-random", degree=10, amp=0.6, seed=4))
        report = count_squares(corpus("cusp")).to_dict()
    return zeros, report


@pytest.mark.parametrize("threads", [1, 3])
def test_gn_blocks_match_one_block(monkeypatch, one_block_results, threads):
    # rows iterate independently, so any block size and thread count give
    # the same zeros, bytes and order as one block
    zeros, report = one_block_results
    monkeypatch.setattr(solvers, "_BLOCK_ROWS", 997)  # 67 blocks, the last one short
    monkeypatch.setattr(_threads, "worker_count", lambda: threads)
    blocked = _square_count_zeros(corpus("fourier-random", degree=10, amp=0.6, seed=4))
    assert len(zeros) > 0 and np.array_equal(blocked, zeros)
    assert count_squares(corpus("cusp")).to_dict() == report


@pytest.mark.parametrize("threads", [1, 3])
def test_gn_sweep_chunks_match_one_block(monkeypatch, one_block_results, threads):
    # a sweep runs its block's live rows in chunks; chunks that divide
    # neither the blocks nor the live rows still give the one-block zeros,
    # bytes and order
    zeros, _ = one_block_results
    monkeypatch.setattr(solvers, "_SWEEP_ROWS", 97)
    monkeypatch.setattr(solvers, "_BLOCK_ROWS", 997)
    monkeypatch.setattr(_threads, "worker_count", lambda: threads)
    chunked = _square_count_zeros(corpus("fourier-random", degree=10, amp=0.6, seed=4))
    assert len(zeros) > 0 and chunked.shape == zeros.shape
    assert chunked.tobytes() == zeros.tobytes()


@pytest.mark.parametrize("name, params", [("fourier-random", {"degree": 10, "amp": 0.6, "seed": 1}), ("cusp", {})])
def test_gn_sweep_temporaries_stay_small(monkeypatch, name, params):
    # count_squares' batch on two threads: each holds one 2048-row chunk's
    # temporaries (about 2.5 MB), not an 8192-row block's (9 to 11 MB,
    # 16 to 21 MB traced over the batch)
    monkeypatch.setattr(_threads, "worker_count", lambda: 2)
    sq = SquareSystem(corpus(name, **params))
    seeds = polygon_seed_grid(4, 150, 24, sq.symmetry_order)
    tracemalloc.start()
    try:
        zeros = gauss_newton_batch(sq, seeds, tol=1e-11, prune_after=1, prune_level=0.6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(zeros) > 0
    assert peak < 10e6


class _FailsOnRow:
    """A square system whose linearize raises on any batch holding one row."""

    def __init__(self, base, row):
        self.base, self.row, self.chart_dim = base, row, base.chart_dim

    def linearize(self, z):
        if np.any(np.all(z == self.row, axis=-1)):
            raise RuntimeError("linearize failed")
        return self.base.linearize(z)

    def boundary_margins(self, z):
        return self.base.boundary_margins(z)


def test_gn_blocks_pass_a_worker_exception(monkeypatch, ellipse):
    seeds = polygon_seed_grid(4, 10, 8)
    monkeypatch.setattr(solvers, "_BLOCK_ROWS", 8)
    monkeypatch.setattr(_threads, "worker_count", lambda: 3)
    sq = SquareSystem(ellipse)
    assert len(seeds) > 3 * 8 and len(gauss_newton_batch(sq, seeds)) > 0
    with pytest.raises(RuntimeError, match="linearize failed"):
        gauss_newton_batch(_FailsOnRow(sq, seeds[3 * 8 + 1]), seeds)


def test_gn_seed_shapes(ellipse):
    sq = SquareSystem(ellipse)
    for bad in (np.array([0.0, 0.25, 0.25, 0.25]), np.zeros((2, 3)), np.zeros((2, 4, 1))):
        with pytest.raises(DomainError, match="shape"):
            gauss_newton_batch(sq, bad)
    assert gauss_newton_batch(sq, np.empty((0, 4))).shape == (0, 4)
    assert gauss_newton_batch(sq, [[0.05, 0.3, 0.2, 0.25]]).shape[1] == 4


def test_worker_count_is_usable_cpus_capped():
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    assert _threads.worker_count() == min(4, cpus or 1)


def test_parallel_map_threads_at_most_items(monkeypatch):
    started = []

    class Pool(_threads.ThreadPoolExecutor):
        def __init__(self, max_workers):
            started.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(_threads, "ThreadPoolExecutor", Pool)
    monkeypatch.setattr(_threads, "worker_count", lambda: 64)  # never started: two items get two threads
    assert _threads.parallel_map(lambda x: x * x, [3, 4]) == [9, 16]
    assert _threads.parallel_map(lambda x: -x, [5]) == [-5]  # inline
    assert _threads.parallel_map(lambda x: x, []) == []
    monkeypatch.setattr(_threads, "worker_count", lambda: 1)
    assert _threads.parallel_map(lambda x: x + 1, range(5)) == [1, 2, 3, 4, 5]  # inline
    assert started == [2]
