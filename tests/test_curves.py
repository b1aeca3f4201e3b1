import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pegfinder import (
    DistanceField,
    DomainError,
    EmbeddedSphere,
    FourierCurve,
    PolylineCurve,
    SyntheticField,
    corpus,
    curve_from_spec,
    self_intersects,
    signed_area,
)
from pegfinder.corpus import corpus_list
from pegfinder.curves import _encloses_area
from pegfinder.fields import as_field


def chord(curve, s, t):
    """Reference: Euclidean distance between curve points at parameters s
    and t, straight from ``curve.eval``."""
    d = curve.eval(np.asarray(s, dtype=float)) - curve.eval(np.asarray(t, dtype=float))
    return np.linalg.norm(d, axis=-1)


def test_circle_parametrization(circle):
    assert np.allclose(circle.eval(np.array(0.0)), [1.0, 0.0])
    assert np.allclose(circle.eval(np.array(0.25)), [0.0, 1.0])


def test_ellipse_parametrization(ellipse):
    assert np.allclose(ellipse.eval(np.array(0.5)), [-2.0, 0.0])


def test_chord_circle(circle):
    assert chord(circle, 0.0, 0.5) == pytest.approx(2.0, abs=1e-14)
    assert chord(circle, 0.0, 0.25) == pytest.approx(np.sqrt(2), abs=1e-14)


def test_chord_ellipse_major_axis(ellipse):
    assert chord(ellipse, 0.0, 0.5) == pytest.approx(4.0, abs=1e-14)


@pytest.mark.parametrize(
    "name,params",
    [
        ("circle", {}),
        ("ellipse", {"a": 2, "b": 1}),
        ("fourier-random", {"seed": 7}),
        ("trefoil", {}),
        ("spiral", {}),
        ("cusp", {}),
    ],
)
def test_periodicity(name, params):
    cu = corpus(name, **params)
    t = np.linspace(0.0, 1.0, 17)[:-1] + 0.013
    assert np.allclose(cu.eval(t), cu.eval(t + 1.0), atol=1e-9)


def test_chord_symmetry_exact(ellipse, rng):
    s, t = rng.uniform(size=20), rng.uniform(size=20)
    assert np.array_equal(chord(ellipse, s, t), chord(ellipse, t, s))


@pytest.mark.parametrize("name,params", [("ellipse", {"a": 2, "b": 1}), ("fourier-random", {"seed": 3}), ("trefoil", {})])
def test_fourier_derivative_matches_central_differences(name, params, rng):
    cu = corpus(name, **params)
    t = rng.uniform(size=100)
    h = 1e-6
    fd = (cu.eval(t + h) - cu.eval(t - h)) / (2 * h)
    an = cu.deriv(t)
    rel = np.max(np.abs(an - fd)) / np.max(np.abs(fd))
    assert rel < 1e-6


def test_fourier_kernel_keeps_two_block_arrays():
    # eval_and_deriv on 8192 rows (a Gauss-Newton block, four times the
    # rows a sweep chunk evaluates) holds two (B, n, K) trig arrays (the
    # sines overwrite the angles and the frequency scaling is in place),
    # leaves t as it was and gives the bits of eval and deriv
    cu = corpus("fourier-random", degree=10, amp=0.6, seed=1)
    t = np.random.default_rng(5).uniform(size=(8192, 4))
    t_before = t.copy()
    pos, vel = cu.eval_and_deriv(t)  # warm-up: no first-call allocation counts
    tracemalloc.start()
    try:
        pos, vel = cu.eval_and_deriv(t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * t.size * cu.degree * t.itemsize
    assert np.array_equal(t, t_before)
    assert np.array_equal(pos, cu.eval(t)) and np.array_equal(vel, cu.deriv(t))


def test_fourier_curve_writes_eval_and_deriv_alone():
    # eval and deriv are read off the one trig kernel in ClosedCurve
    assert {"eval", "deriv"}.isdisjoint(vars(FourierCurve)) and "eval_and_deriv" in vars(FourierCurve)


def test_polyline_constant_speed():
    square = PolylineCurve([[0, 0], [1, 0], [1, 1], [0, 1]])
    assert np.allclose(square.eval(np.array(0.25)), [1, 0])
    assert np.allclose(square.eval(np.array(0.5)), [1, 1])
    assert np.allclose(square.eval(np.array(0.125)), [0.5, 0])


def test_polyline_validation():
    with pytest.raises(DomainError):
        PolylineCurve([[0, 0], [1, 0]])
    with pytest.raises(DomainError):
        PolylineCurve([[0, 0], [0, 0], [1, 1]])
    with pytest.raises(DomainError, match="collinear"):
        PolylineCurve([[0, 0], [1, 0], [2, 0]])
    with pytest.raises(DomainError, match="no area"):
        PolylineCurve([[0, 0], [1, 0], [1, 1], [1, 0]])  # a doubled chain
    with pytest.raises(DomainError, match="no area"):
        PolylineCurve([[0, 0, 0], [1, 0, 0], [1, 1, 0], [1, 0, 0]])  # the same, in R^3


def _encloses_area_one_probe_at_a_time(v):
    """Reference: the enclosure test probing one point after another."""
    nxt = np.roll(v, -1, axis=0)
    seg = nxt - v
    if abs(np.sum(v[:, 0] * seg[:, 1] - seg[:, 0] * v[:, 1])) > 2e-12 * np.sum(np.ptp(v, axis=0) ** 2):
        return True
    side = 1e-6 * np.stack([-seg[:, 1], seg[:, 0]], axis=-1)
    mid = v + 0.5 * seg
    for probe in np.stack([mid + side, mid - side], axis=1).reshape(-1, 2):
        a, b = v - probe, nxt - probe
        turn = np.sum(np.arctan2(a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0], np.sum(a * b, axis=-1)))
        if abs(turn) > np.pi:
            return True
    return False


def test_encloses_area_blocks_decide_as_single_probes():
    t = np.linspace(0.0, 1.5 * np.pi, 700)
    arc = np.column_stack([np.cos(t), 0.7 * np.sin(t)])
    tau = 2 * np.pi * np.arange(64) / 64
    eight = np.column_stack([np.sin(2 * tau), np.sin(tau)])  # equal lobes: shoelace area 0
    spur = np.column_stack([np.linspace(0.0, -3.0, 400), np.zeros(400)])
    loop = np.column_stack([np.cos(tau[:-1]), np.sin(tau[:-1])])
    chains = {
        "retraced arc": (np.concatenate([arc, arc[-2:0:-1]]), False),
        "retraced segment": (np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [1.0, 0.0]]), False),
        "loop then its reverse": (np.concatenate([loop, loop[-2:0:-1]]), False),
        "doubled loop": (np.concatenate([loop, loop]), True),
        "figure eight": (eight, True),
        # lobes found only after a retraced spur: a later block decides
        "figure eight behind a spur": (np.concatenate([spur[::-1], eight[1:], spur[:-1]]), True),
        "square": (np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]), True),
        "cusp": (corpus("cusp").vertices, True),
    }
    for name, (v, encloses) in chains.items():
        assert _encloses_area_one_probe_at_a_time(v) is encloses, name
        assert _encloses_area(v) is encloses, name
    with pytest.raises(DomainError, match="no area"):
        PolylineCurve(chains["retraced arc"][0])


def test_chordal_field_matches_chord(circle, trefoil, rng):
    f = as_field(circle)
    assert f.d(0.0, 0.5) == pytest.approx(2.0, abs=1e-14)
    assert f.d(0.3, 0.3) == 0.0
    ft = as_field(trefoil)
    # evaluate both sides independently on the trefoil
    assert ft.d(0.0, 0.5) == pytest.approx(float(chord(trefoil, 0.0, 0.5)), abs=1e-14)
    x = rng.uniform(size=32)
    y = rng.uniform(size=32)
    assert np.array_equal(ft.d(x, y), ft.d(y, x))


class _GenericChordal(DistanceField):
    """Reference: the chordal distance written as the one kernel
    ``pair_dists_and_grad``, one pair at a time from ``np.linalg.norm`` and
    ``curve.deriv``; ``pair_dists`` is the base class part."""

    def __init__(self, curve):
        self.curve = curve

    def pair_dists_and_grad(self, V, pairs):
        L = np.empty(V.shape[:-1] + (len(pairs),))
        G = np.zeros(V.shape[:-1] + (len(pairs), V.shape[-1]))
        for e, (i, j) in enumerate(pairs):
            diff = self.curve.eval(V[..., i]) - self.curve.eval(V[..., j])
            L[..., e] = np.linalg.norm(diff, axis=-1)
            unit = diff / L[..., e, None]
            G[..., e, i] = np.sum(unit * self.curve.deriv(V[..., i]), axis=-1)
            G[..., e, j] = -np.sum(unit * self.curve.deriv(V[..., j]), axis=-1)
        return L, G


@pytest.mark.parametrize("name, params", [("fourier-random", {"seed": 3}), ("cusp", {})])
def test_chordal_pair_dists_match_generic_path(name, params):
    # the chordal kernel (each vertex evaluated once) against a pair-at-a-time
    # reference, at off-diagonal vertex tuples
    f = as_field(corpus(name, **params))
    ref = _GenericChordal(f.curve)
    pairs = [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (1, 3)]
    rng = np.random.default_rng(11)
    V = np.sort(rng.uniform(size=(64, 4)), axis=-1)
    V = V[np.min(np.diff(V, axis=-1), axis=-1) > 1e-3]
    assert np.allclose(f.pair_dists(V, pairs), ref.pair_dists(V, pairs), rtol=1e-14, atol=0)
    G = f.pair_dists_and_grad(V, pairs)[1]
    assert G.shape == V.shape[:1] + (len(pairs), 4)
    assert np.allclose(G, ref.pair_dists_and_grad(V, pairs)[1], rtol=1e-9, atol=1e-12)
    # the base class part d, one pair broadcast, on the reference
    assert np.allclose(f.d(V[:, 0], V[:, 2]), ref.d(V[:, 0], V[:, 2]), rtol=1e-14, atol=0)
    # the chordal pair_dists evaluates positions only; it must return the
    # bytes of the kernel's first part, for one point and for a batch
    for V in (rng.uniform(size=4), rng.uniform(size=(30, 4)), rng.uniform(size=(1000, 4))):
        got = f.pair_dists(V, pairs)
        want = f.pair_dists_and_grad(V, pairs)[0]
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_corpus_determinism():
    a = corpus("fourier-random", degree=4, amp=0.3, seed=7)
    b = corpus("fourier-random", degree=4, amp=0.3, seed=7)
    assert np.array_equal(a.cos_coeffs, b.cos_coeffs)
    assert np.array_equal(a.sin_coeffs, b.sin_coeffs)


def test_corpus_unknown_name():
    with pytest.raises(KeyError):
        corpus("moebius")


def test_corpus_scaled_sphere():
    sph = corpus("scaled-sphere", lz=0.5)
    assert isinstance(sph, EmbeddedSphere)
    assert np.allclose(sph.scale, [1.0, 1.0, 0.5])
    with pytest.raises(DomainError):
        EmbeddedSphere([1.0, 0.0, 1.0])


def test_corpus_list_names():
    names = [n for n, _ in corpus_list()]
    for expected in ("circle", "ellipse", "fourier-random", "spiral", "cusp", "trefoil", "scaled-sphere"):
        assert expected in names
    # every entry builds with its defaults, past the degenerate-curve checks
    for name in names:
        corpus(name)


def test_fourier_curve_rejects_degenerate():
    with pytest.raises(DomainError, match="finite"):
        FourierCurve([0.0, 0.0], [[np.nan], [0.0]], [[0.0], [1.0]])
    with pytest.raises(DomainError, match="finite"):
        FourierCurve([0.0, np.inf], [[1.0], [0.0]], [[0.0], [1.0]])
    # a point, a doubled segment (speed 0 at both ends) and a cusped
    # epicycle all have a vanishing velocity somewhere on the grid
    for a, b in ((0.0, 0.0), (1.0, 0.0), (0.0, 2.0)):
        with pytest.raises(DomainError, match="velocity"):
            corpus("ellipse", a=a, b=b)
    with pytest.raises(DomainError, match="velocity"):
        FourierCurve([0.0, 0.0], [[2.0, 1.0], [0.0, 0.0]], [[0.0, 0.0], [2.0, -1.0]])
    # thin but regular curves still build
    corpus("ellipse", a=1.0, b=1e-3)


def test_self_intersection_diagnostic(circle):
    assert not self_intersects(circle, warn=False)
    tau = 2 * np.pi * np.arange(64) / 64
    eight = PolylineCurve(np.column_stack([np.sin(2 * tau), np.sin(tau)]))
    assert self_intersects(eight, n=256, warn=False)


def test_signed_area_counterclockwise():
    for name in ("circle", "spiral", "cusp"):
        assert signed_area(corpus(name)) > 0


def test_synthetic_field_invariants(rng):
    f = corpus("field-sin-mod")
    u = (np.arange(200) + 0.5) / 200
    X, Y = np.meshgrid(u, u, indexing="ij")
    V = f.d(X, Y)
    assert np.array_equal(V, f.d(Y, X))
    off = ~np.eye(200, dtype=bool)
    assert np.min(V[off]) > 0
    x = rng.uniform(size=8)
    assert np.allclose(f.d(x, x), 0.0)
    # example field value: d(x, y) = |sin(pi(x-y))| (1 + 0.1 cos(2 pi (x+y)))
    assert f.d(0.2, 0.7) == pytest.approx(
        abs(np.sin(np.pi * 0.5)) * (1 + 0.1 * np.cos(2 * np.pi * 0.9)), abs=1e-14
    )


def test_synthetic_field_rejects_nonpositive():
    with pytest.raises(DomainError):
        SyntheticField(c0=0.1, ps=[0.5])


def test_synthetic_field_rejects_non_finite():
    for kwargs in ({"c0": np.nan}, {"c0": np.inf}, {"ps": [np.nan]}, {"qs": [0.0, -np.inf]}, {"rs": [np.nan]}):
        with pytest.raises(DomainError, match="finite"):
            SyntheticField(**kwargs)
    # one NaN value on the grid fails the definiteness check (nan <= 0 is
    # false, so only "every value > 0" catches it)

    class _NanField(DistanceField):
        def pair_dists_and_grad(self, V, pairs):
            L = np.ones(V.shape[:-1] + (len(pairs),))
            L.flat[123] = np.nan
            return L, np.zeros(L.shape + (V.shape[-1],))

    with pytest.raises(DomainError, match="positive definite"):
        _NanField().check_definite()


def test_curve_spec_roundtrip(rng):
    for name, params in [
        ("circle", {}),
        ("ellipse", {"a": 2, "b": 1}),
        ("fourier-random", {"degree": 4, "amp": 0.3, "seed": 7}),
        ("trefoil", {}),
    ]:
        cu = corpus(name, **params)
        spec = cu.spec()
        rebuilt = curve_from_spec(json.loads(json.dumps(spec)))
        t = rng.uniform(size=16)
        assert np.allclose(cu.eval(t), rebuilt.eval(t), atol=1e-12)


def test_curve_spec_schema():
    jsonschema = pytest.importorskip("jsonschema")
    import pathlib

    schema = json.loads(
        (pathlib.Path(__file__).resolve().parents[1] / "docs" / "curve_spec.schema.json").read_text()
    )
    for name, params in [("ellipse", {"a": 2, "b": 1}), ("cusp", {}), ("scaled-sphere", {})]:
        jsonschema.validate(corpus(name, **params).spec(), schema)
    fourier = {"kind": "fourier", "dim": 2, "const": [0, 0], "cos": [[1], [0]], "sin": [[0], [1]]}
    jsonschema.validate(fourier, schema)


@settings(max_examples=60, deadline=None)
@given(st.floats(-3, 3), st.floats(0.01, 0.99))
def test_wrap_periodic_eval(x, t):
    cu = corpus("ellipse", a=2, b=1)
    assert np.allclose(cu.eval(np.array(t + np.floor(x))), cu.eval(np.array(t)), atol=1e-9)
