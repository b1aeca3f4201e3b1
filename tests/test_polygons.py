"""The polygon value type, and the relabeling arithmetic of the P_n chart.

``PolygonParam``, ``vertices`` and ``from_vertices`` are tested on the value
type.  Relabeling, star bases, orbit representatives and orbit distances are
chart methods of the polygon systems, so their properties are tested on a
square, an equilateral pentagon and a triangle system.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pegfinder import (
    DomainError,
    EdgeRatioSystem,
    PolygonParam,
    SquareSystem,
    TriangleSystem,
    corpus,
    from_vertices,
    vertices,
)
from pegfinder.circle import circle_dist, wrap

_ELLIPSE = corpus("ellipse")
SYSTEMS = (SquareSystem(_ELLIPSE), EdgeRatioSystem(_ELLIPSE, 5), TriangleSystem(_ELLIPSE))


def gaps_strategy(n):
    return st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n).map(
        lambda v: np.array(v) / np.sum(v)
    )


def params(n):
    return st.tuples(st.floats(0.0, 1.0, exclude_max=True), gaps_strategy(n)).map(
        lambda t: PolygonParam(t[0], t[1])
    )


def chart_point(data, sys):
    """A chart point of sys in the open simplex, drawn through the value type."""
    return sys.from_param(data.draw(params(sys.n)))


def test_vertices_regular_square():
    p = PolygonParam(0.0, [0.25, 0.25, 0.25, 0.25])
    assert np.allclose(vertices(p), [0.0, 0.25, 0.5, 0.75])


def test_vertices_degenerate_vertex_of_simplex():
    p = PolygonParam(0.3, [0.0, 0.0, 1.0, 0.0])
    assert np.allclose(vertices(p), [0.3, 0.3, 0.3, 0.3])


def test_vertices_triangle():
    p = PolygonParam(0.1, [0.2, 0.3, 0.5])
    assert np.allclose(vertices(p), [0.1, 0.3, 0.6])


def test_from_vertices_square():
    p = from_vertices([0.0, 0.25, 0.5, 0.75])
    assert p.base == 0.0
    assert np.allclose(p.gaps, 0.25)


def test_from_vertices_all_equal_uses_last_gap():
    p = from_vertices([0.5, 0.5, 0.5])
    assert p.base == 0.5
    assert np.allclose(p.gaps, [0.0, 0.0, 1.0])


def test_from_vertices_wrapping_tuple():
    # arcs from the bracket formula: 0.9 -> 0.1 -> 0.5 -> 0.8, last gap closes to 1
    xs = [0.9, 0.1, 0.5, 0.8]
    arcs = [wrap(xs[i + 1] - xs[i]) for i in range(3)]
    assert np.allclose(arcs, [0.2, 0.4, 0.3])
    p = from_vertices(xs)
    assert np.allclose(p.gaps, [0.2, 0.4, 0.3, 0.1])
    assert np.allclose(vertices(p), xs)


def test_from_vertices_rejects_disordered():
    with pytest.raises(DomainError):
        from_vertices([0.0, 0.5, 0.25, 0.9])


@settings(max_examples=200, deadline=None)
@given(params(4))
def test_roundtrip_from_vertices(p):
    q = from_vertices(vertices(p))
    assert circle_dist(p.base, q.base) < 1e-9
    assert np.max(np.abs(p.gaps - q.gaps)) < 1e-9


def test_gap_renormalization_and_rejection():
    p = PolygonParam(0.0, np.array([0.25, 0.25, 0.25, 0.25]) * (1 + 5e-10))
    assert abs(p.gaps.sum() - 1.0) < 1e-15
    with pytest.raises(DomainError):
        PolygonParam(0.0, [0.3, 0.3, 0.3, 0.3])
    with pytest.raises(DomainError):
        PolygonParam(0.0, [-0.1, 0.4, 0.4, 0.3])


# --- relabeling on the chart ----------------------------------------------------


def test_boundary_distance():
    # the chart's boundary margin is the smallest gap, the last one included
    sq, _, tri = SYSTEMS
    assert sq.boundary_margins(sq.from_param(PolygonParam(0.0, [0.25] * 4))) == 0.25
    assert sq.boundary_margins(sq.from_param(PolygonParam(0.1, [0.0, 0.0, 1.0, 0.0]))) == 0.0
    assert tri.boundary_margins(tri.from_param(PolygonParam(0.0, [0.2, 0.3, 0.5]))) == pytest.approx(0.2)
    Z = np.array([[0.0, 0.25, 0.25, 0.25], [0.1, 0.0, 0.0, 1.0]])
    assert np.array_equal(sq.boundary_margins(Z), [0.25, 0.0])


def test_cyclic_shift_examples():
    sq, _, tri = SYSTEMS
    assert sq.shift(np.array([0.0, 0.25, 0.25, 0.25]))[0] == 0.25
    q = tri.shift(np.array([0.0, 0.5, 0.3]))
    assert q[0] == 0.5
    assert np.allclose(tri.gaps_of(q), [0.3, 0.2, 0.5])


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_shift_orbit_closes(data):
    for sys in SYSTEMS:
        z = chart_point(data, sys)
        w = z
        for _ in range(sys.n):
            w = sys.shift(w)
        assert np.max(np.abs(sys.chart_diff(w, z))) < 1e-12


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_shift_equivariance_on_vertices(data):
    for sys in SYSTEMS:
        z = chart_point(data, sys)
        rolled = np.roll(sys.vertex_params(z), -1)
        assert np.max(circle_dist(sys.vertex_params(sys.shift(z)), rolled)) < 1e-12


def test_star_base_regular_square():
    sq = SYSTEMS[0]
    assert sq.star_base_z(np.array([0.0, 0.25, 0.25, 0.25])) == pytest.approx(3.0 / 8.0, abs=1e-15)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_star_action_is_rigid_rotation(data):
    for sys in SYSTEMS:
        z = chart_point(data, sys)
        ds = sys.star_base_z(sys.shift(z)) - sys.star_base_z(z)
        assert circle_dist(ds, 1.0 / sys.n) < 1e-12


def test_canonical_picks_smallest_star_base():
    sq = SYSTEMS[0]
    z = sq.from_param(PolygonParam(0.6, [0.1, 0.2, 0.3, 0.4]))
    c = sq.canonical(z[None])[0]
    assert sq.star_base_z(c) == pytest.approx(np.min(sq.star_base_z(sq.images(z))))
    assert sq.orbit_dist(z, c) < 1e-12


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_canonical_lands_in_the_fundamental_domain_and_is_orbit_invariant(data):
    for sys in SYSTEMS:
        s = sys.symmetry_order
        z = chart_point(data, sys)
        # a star base on a window edge may round to either neighbouring labeling
        assume(circle_dist(s * sys.star_base_z(z), 0.0) > 1e-9)
        C = sys.canonical(sys.images(z))
        stars = sys.star_base_z(C)
        assert np.all((stars < 1.0 / s + 1e-12) | (stars > 1.0 - 1e-12))  # [0, 1/s) on the circle
        assert np.max(np.abs(sys.chart_diff(C, C[0]))) < 1e-12


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_orbit_dist_vanishes_on_images_and_is_symmetric_within_a_factor_n(data):
    # the max norm on (base, gaps) is not relabeling-invariant (a shift adds
    # a gap difference to the base difference), so swapping the arguments
    # can change the distance, but by at most a factor n
    for sys in SYSTEMS:
        z, w = chart_point(data, sys), chart_point(data, sys)
        assert np.all(sys.orbit_dist(sys.images(z), z) < 1e-12)
        assert all(sys.orbit_dist(z, image) < 1e-12 for image in sys.images(z))
        a, b = float(sys.orbit_dist(z, w)), float(sys.orbit_dist(w, z))
        assert a <= sys.n * b + 1e-12 and b <= sys.n * a + 1e-12
