"""High-level finders built on multistart Gauss-Newton plus branch tracing.

Each finder returns the geometric answer together with a provenance dict
recording which route produced it and how the independent cross-checks came
out; the CLI serializes that dict verbatim.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .circle import circle_dist, wrap
from .curves import ClosedCurve, EmbeddedSphere
from .errors import ConvergenceError, DomainError, NonIsolatedSolutionsError, SearchFailure
from .fields import as_field
from .residuals import (
    EdgeRatioSystem,
    OctahedronSystem,
    ParallelogramSystem,
    PolygonSystem,
    RectangleSystem,
    ResidualSystem,
    Rhombus3dSystem,
    SquareSystem,
    TriangleSystem,
    central_difference,
)
from .solvers import gauss_newton_batch, refine, smallest_singular_ratio
from .tracing import (
    MEMBERSHIP_TOL,
    TraceSettings,
    branch_events,
    branch_orbit,
    near_chain,
    trace_branch,
)

FAMILY_RANK_TOL = 1e-10  # sigma_min/sigma_max below this marks a solution family
MAX_SEED_GRID = 10**6  # seeds one polygon_seed_grid may build
_ORBIT_TOL = 1e-5  # dedup_orbits: zeros this close in orbit distance are one orbit
_DIAMETER_FLOOR = 1e-3  # find_planar_rhombus: a planar rhombus must be at least this wide
_OCTAHEDRON_SEEDS = 40  # find_octahedra: random octahedra seeded
# find_octahedra: chain rows per max_residual block; 48 octahedron rows keep
# each of linearize's arrays (J is 48 x 17 x 18 floats) under glibc's
# 128 KiB mmap threshold, so the blocks reuse heap memory
_RESIDUAL_BLOCK_ROWS = 48


# --- seed construction -------------------------------------------------------


def simplex_lattice(n, m):
    """Interior lattice points of the (n-1)-simplex at resolution 1/m."""
    if m < n:
        raise DomainError(f"the simplex lattice needs m >= n interior steps, got n = {n}, m = {m}")
    cuts = np.array(list(itertools.combinations(range(1, m), n - 1)), dtype=float)
    full = np.hstack([np.zeros((len(cuts), 1)), cuts, np.full((len(cuts), 1), m)])
    return np.diff(full, axis=1) / m


def polygon_seed_grid(n, nx, m, symmetry_order=1):
    """Chart seeds (B, n): base grid times interior gap lattice, base-major.

    Only the seeds whose star base lies in [0, 1/s), s = symmetry_order,
    are kept.  A cyclic relabeling shifts the star base rigidly by 1/n, so
    that window is a fundamental domain of the Z_s action: every orbit
    keeps a labeling there, seeded at the density of the full grid.  The
    window is taken on the (base x shape) outer sum of the star base
    (``PolygonSystem.star_base_z`` of each shape at base 0, plus the base),
    and only the kept rows are built: no full grid is.  At s = 1 every row
    is kept (the wrap of a sum in [0, 2) lies below 1).

    MAX_SEED_GRID bounds the rows built, and the bound is checked from
    counts alone, before the lattice is: each of the C(m - 1, n - 1) shapes
    keeps at most min(nx, nx // s + 1) of the nx equally spaced bases (a
    window of width 1/s, also when a base on its edge rounds inside).
    """
    if nx < 1:
        raise DomainError(f"the seed grid needs nx >= 1 base points, got nx = {nx}")
    bases = min(nx, nx // symmetry_order + 1)
    count = bases * math.comb(max(m - 1, 0), n - 1)
    if count > MAX_SEED_GRID:
        raise DomainError(
            f"the seed grid for n = {n}, nx = {nx}, m = {m} would hold up to {count:,} seeds "
            f"in its fundamental domain, more than {MAX_SEED_GRID:,}"
        )
    gaps = simplex_lattice(n, m)
    shapes = np.concatenate([np.zeros((len(gaps), 1)), gaps[:, :-1]], axis=1)  # at base 0
    xs = (np.arange(nx) + 0.5) / nx
    # a shape's star base at base 0 lies in [0, 1), so at base x it is the
    # wrap of x plus that, bit for bit as star_base_z of the seed itself
    star = PolygonSystem.star_base_z(shapes)
    i, j = np.nonzero(wrap(xs[:, None] + star) < 1.0 / symmetry_order)
    seeds = shapes[j]
    seeds[:, 0] = xs[i]
    return seeds


# --- orbit bookkeeping -------------------------------------------------------


def dedup_orbits(system, zeros, max_merge=512):
    """Cluster converged zeros into distinct orbits; returns canonical chart
    points (k, m), sorted.

    Zeros are mapped to ``system.canonical`` representatives, and two are
    one orbit when ``system.orbit_dist`` puts them within _ORBIT_TOL.  A coarse
    rounding pass shrinks the population first; the exact merge (one
    vectorized distance call per candidate) is skipped beyond max_merge
    survivors (that many apparent orbits means the zeros sample a continuous
    family, where pairwise merging is meaningless).
    """
    Zc = system.canonical(zeros)
    if len(Zc) == 0:
        return Zc
    rounded = np.round(Zc / (10 * _ORBIT_TOL)).astype(np.int64)
    _, first = np.unique(rounded, axis=0, return_index=True)
    reps = Zc[np.sort(first)]
    if len(reps) <= max_merge:
        keep = []
        for k, z in enumerate(reps):
            if np.all(system.orbit_dist(reps[keep], z) > _ORBIT_TOL):
                keep.append(k)
        reps = reps[keep]
    return reps[np.lexsort(np.round(reps, 9).T[::-1])]


def enumerate_branches(system, seeds, settings):
    """Every zero-set component through the converged seeds, traced once
    per symmetry orbit (see ``_iter_orbits``), as a generator: a caller
    that stops early traces no more."""
    zeros = gauss_newton_batch(system, seeds, tol=settings.corrector_tol * 0.5)
    for orbit in _iter_orbits(system, zeros, settings):
        yield from orbit


def _iter_orbits(system, zeros, settings):
    """Trace the components through the converged zeros, one per symmetry
    orbit, yielding each orbit's components as soon as they are known.

    The zeros are visited in sorted order.  An uncovered zero is traced, and
    its orbit is ``branch_orbit`` of that branch: its distinct images, made
    by ``image_branch``, not traced.  No image is tested against earlier
    orbits: components are disjoint or equal, and every earlier orbit was
    yielded whole, so if an image g(B) were a known component C, B =
    g^-1(C) was yielded already and covered the zero B was traced from.
    Every yielded component marks the later zeros it covers (within
    MEMBERSHIP_TOL) with one ``near_chain`` mask.  The work is bounded by
    the zeros: at most one trace per converged zero, each trace bounded by
    ``tracing.MAX_STEPS`` steps per direction.
    """
    if len(zeros) == 0:
        return
    zeros = zeros[np.lexsort(np.round(zeros, 8).T[::-1])]
    covered = np.zeros(len(zeros), dtype=bool)
    for i, z in enumerate(zeros):
        if covered[i]:
            continue
        try:
            br = trace_branch(system, z, settings)
        except ConvergenceError:
            continue
        orbit = [image for _, image in branch_orbit(br)]
        yield orbit
        for comp in orbit:
            later = i + 1 + np.flatnonzero(~covered[i + 1 :])
            covered[later] = near_chain(system, comp.points, zeros[later], MEMBERSHIP_TOL)


def _best_first(branches, top):
    """Yield branches in the stable order of (open, -isotropy), closed and
    most symmetric first, drawing from the iterable only as far as needed.

    A closed branch of isotropy ``top`` (the system's symmetry order, the
    largest possible) sorts first, so it is yielded as soon as it arrives;
    the rest wait until the source is used up.
    """

    def key(b):
        return (not b.closed, -(b.isotropy_order or 1))

    rest = []
    for br in branches:
        if key(br) == (False, -top):
            yield br
        else:
            rest.append(br)
    yield from sorted(rest, key=key)


# --- squares -----------------------------------------------------------------


def square_orbits(sq, seeds, **gn_kwargs):
    """Distinct square orbits from batched Newton on the given chart seeds.

    Returns (canonical chart points (k, 4), one per orbit; their Jacobian
    condition ratios; index pairs of orbits closer than 1e-2): a small ratio
    or a close pair is the symptom of a square family rather than isolated
    squares.
    """
    zeros = gauss_newton_batch(sq, seeds, tol=1e-11, **gn_kwargs)
    Z = dedup_orbits(sq, zeros)
    conditions = [smallest_singular_ratio(sq, z) for z in Z]
    close_pairs = [
        (i, i + 1 + int(j))
        for i in range(len(Z))
        for j in np.flatnonzero(sq.orbit_dist(Z[i + 1 :], Z[i]) < 1e-2)
    ]
    return Z, conditions, close_pairs


def find_square(curve: ClosedCurve, settings=None):
    """Locate a square through the invariant-rhombus diagonal swap, with an
    independent multistart-Newton cross-check.

    Rhombus branches are traced best-first (closed and most symmetric
    first), and only as many as it takes: the square is the first
    diagonal-swap event of the first branch that has one, and that event is
    the only one bisected.  The refined square is snapped once to the
    square it reports (``from_param(to_param(z))``), and every check is
    measured there.

    Returns (PolygonParam, provenance dict).
    """
    settings = settings or TraceSettings()
    sq = SquareSystem(curve)
    er = EdgeRatioSystem(curve, 4)

    newton_Z, conditions, close_pairs = square_orbits(sq, polygon_seed_grid(4, 24, 16))
    family = any(c < FAMILY_RANK_TOL for c in conditions) or bool(close_pairs)

    seeds = polygon_seed_grid(4, 10, 8)
    branches = enumerate_branches(er, seeds, settings)
    tried = 0
    for br in _best_first(branches, er.symmetry_order):
        tried += 1
        swap = next(branch_events(br, er.diagonal_gap, "diagonal_swap", settings), None)
        if swap is not None:
            z, route = swap.z, "diagonal_swap"
        elif np.max(np.abs(er.diagonal_gap(br.points))) < 1e-9:
            # every rhombus on this branch is already a square (circle case)
            z, route = br.points[len(br) // 2], "square_family_branch"
        else:
            continue
        break
    else:
        raise SearchFailure(
            "no usable invariant rhombus branch; this contradicts the prime-power "
            "family guarantee for n=4 and indicates numerical trouble",
            {"branches": tried, "newton_orbits": len(newton_Z)},
        )
    z = sq.from_param(sq.to_param(refine(sq, z, tol=1e-11)))

    provenance = {
        "route": route,
        "branch_closed": br.closed,
        "branch_isotropy": br.isotropy_order,
        "branch_winding": br.winding,
        "newton_orbit_count": len(newton_Z),
        "jacobian_condition_ratios": conditions,
        "family_detected": family,
    }
    if family:
        # continuum of squares: agreement is up to the family, so re-run the
        # corrector from a nudged copy and require it to fall back on the square
        nudged = refine(sq, z + 1e-4, tol=1e-11)
        provenance["newton_agreement"] = float(np.linalg.norm(sq.residual(nudged)))
        provenance["agrees"] = True
    else:
        if not len(newton_Z):
            raise SearchFailure("multistart Newton found no squares", provenance)
        agreement = float(np.min(sq.orbit_dist(newton_Z, z)))
        provenance["newton_agreement"] = agreement
        provenance["agrees"] = agreement <= 1e-6
    provenance["residual"] = float(np.linalg.norm(sq.residual(z)))
    return sq.to_param(sq.canonical(z[None])[0]), provenance


# --- rectangles ---------------------------------------------------------------


def find_rectangle(curve: ClosedCurve, r, settings=None, cross_check=False):
    """Inscribed parallelogram of aspect ratio r via multistart Newton on the
    parallelogram test map; optionally cross-checked against the aspect-ratio
    event on a rectangle branch through a square."""
    settings = settings or TraceSettings()
    par = ParallelogramSystem(curve, r)
    seeds = polygon_seed_grid(4, 16, 12)
    zeros = gauss_newton_batch(par, seeds, tol=1e-11)
    if len(zeros) == 0:
        raise SearchFailure(
            "no parallelogram of the requested ratio found along the multistart "
            "grid (the underlying conjecture is open)",
            {"ratio": r, "seeds": len(seeds)},
        )
    samples = dedup_orbits(par, zeros, max_merge=128)
    best = par.to_param(samples[0])
    info = {
        "ratio": float(r),
        # the zero set of the parallelogram map is one-dimensional (the
        # invariant family of the lemma), so this counts sampled points
        "zeros_sampled": len(samples),
        "residual": float(np.linalg.norm(par.residual(par.from_param(best)))),
    }
    if cross_check:
        info["aspect_event"] = _rectangle_branch_check(par, samples, settings)
    return best, info


def _rectangle_branch_check(par, samples, settings):
    """Locate a ratio-r rectangle as an aspect event on the rectangle branch
    through a square, and verify it is a zero of the parallelogram map par
    near one of its multistart samples (chart points)."""
    rect = RectangleSystem(par.curve)
    square, _ = find_square(par.curve, settings)
    br = trace_branch(rect, rect.from_param(square), settings)
    hits = list(branch_events(br, rect.aspect_event(par.r), "aspect_ratio_hit", settings))
    if not hits:
        return {"found": False, "branch_closed": br.closed}
    out = {"found": True, "hits": len(hits)}
    residual = []
    nearest = []
    for e in hits:
        z = refine(par, e.z, tol=1e-10)
        residual.append(float(np.linalg.norm(par.residual(z))))
        nearest.append(float(np.min(par.orbit_dist(samples, z))))
    out["event_residual_as_parallelogram"] = min(residual)
    out["nearest_multistart_sample"] = float(min(nearest))
    return out


# --- triangles ----------------------------------------------------------------


def find_equilateral_triangle(source):
    """Three distinct circle points equidistant under the field.

    Returns ((x, y, z), info).  Degenerate near-diagonal zeros are rejected.
    """
    sys = TriangleSystem(source)
    seeds = polygon_seed_grid(3, 16, 9)
    zeros = gauss_newton_batch(sys, seeds, tol=1e-11)
    good = []
    for z in zeros:
        verts = wrap(sys.vertex_params(z))
        spread = max(
            circle_dist(verts[i], verts[j]) for i, j in [(0, 1), (1, 2), (0, 2)]
        )
        if spread > 1e-3 and sys.boundary_margins(z[None])[0] > 1e-6:
            good.append(z)
    if not good:
        raise SearchFailure(
            "multistart grid exhausted without a nondegenerate equilateral "
            "triangle; this contradicts the existence theorem, so tolerances "
            "or the field are suspect",
            {"seeds": len(seeds), "zeros_found": len(zeros)},
        )
    # the equilateral zero set is one-dimensional, so the converged points
    # sample a family: pick the canonically smallest, skip pairwise merging
    Zc = sys.canonical(np.array(good))
    order = np.lexsort(np.round(Zc, 8).T[::-1])
    z_best = Zc[order[0]]
    verts = tuple(float(v) for v in wrap(sys.vertex_params(z_best)))
    info = {
        "residual": float(np.linalg.norm(sys.residual(z_best))),
        "zeros_found": len(good),
    }
    return verts, info


def find_two_metric_triangle(source1, source2, settings=None):
    """Equilateral under d1 and isosceles under d2, via isosceles-hit events
    on the invariant equilateral branch."""
    settings = settings or TraceSettings()
    sys = TriangleSystem(source1)
    d2 = as_field(source2)

    def iso_event(k):
        def ev(z):
            D = sys.pairwise(z, field=d2)
            return D[..., k] - D[..., (k + 1) % 3]

        return ev

    iso_events = [iso_event(k) for k in range(3)]
    seeds = polygon_seed_grid(3, 12, 8)
    source = enumerate_branches(sys, seeds, settings)
    branches = []
    for br in _best_first(source, sys.symmetry_order):
        branches.append(br)
        hits = [e for fn in iso_events for e in branch_events(br, fn, "isosceles_hit", settings)]
        if not hits:
            # d2-isosceles everywhere is also a valid (constant) hit
            if any(np.max(np.abs(fn(br.points))) < 1e-10 for fn in iso_events):
                z = br.points[len(br) // 2]
                return _triangle_answer(sys, d2, z, br, note="isosceles identically")
            continue
        # the smallest |value|; ties go to the lower index, then to the lower k
        best = min(hits, key=lambda e: (abs(e.value), e.index))
        return _triangle_answer(sys, d2, best.z, br)
    raise SearchFailure(
        "no isosceles event on any traced equilateral branch",
        {
            "branches": [
                {
                    "closed": b.closed,
                    "isotropy": b.isotropy_order,
                    "winding": b.winding,
                    "samples": len(b),
                }
                for b in branches
            ]
        },
    )


def _triangle_answer(sys, d2, z, branch, note=None):
    verts = tuple(float(v) for v in wrap(sys.vertex_params(z)))
    D2 = sys.pairwise(z, field=d2)
    iso_gap = float(min(abs(D2[..., k] - D2[..., (k + 1) % 3]) for k in range(3)))
    info = {
        "equilateral_residual": float(np.linalg.norm(sys.residual(z))),
        "isosceles_gap": iso_gap,
        "branch_isotropy": branch.isotropy_order,
        "branch_winding": branch.winding,
    }
    if note:
        info["note"] = note
    return verts, info


# --- planar rhombus on knots ---------------------------------------------------


class _PlanarRhombusSystem(ResidualSystem):
    """Square augmentation: equal edges plus coplanarity, for final polish."""

    kind = "rhombus3d_planar"
    chart_dim = 4
    codomain_dim = 4
    circle_coords = (0,)

    def __init__(self, base: Rhombus3dSystem):
        self.base = base

    def linearize(self, z):
        z = np.asarray(z, dtype=float)
        F, J = self.base.linearize(z)
        flat = np.asarray(self.base.coplanarity(z))[..., None]
        row = central_difference(self.base.coplanarity, z, 1e-7)[..., None, :]
        return np.concatenate([F, flat], axis=-1), np.concatenate([J, row], axis=-2)

    def boundary_margins(self, z):
        return self.base.boundary_margins(z)


def find_planar_rhombus(knot: ClosedCurve, settings=None):
    """Planar rhombus on a space curve via the planarity event on an
    equal-edge branch; returns (PolygonParam, info).

    Equal-edge branches are traced best-first (closed and most symmetric
    first), and only as many as it takes; along each, planarity events are
    bisected one at a time until one polishes to a nondegenerate rhombus.
    """
    settings = settings or TraceSettings()
    sys = Rhombus3dSystem(knot)
    seeds = polygon_seed_grid(4, 10, 8)
    branches = enumerate_branches(sys, seeds, settings)
    polish = _PlanarRhombusSystem(sys)
    tried = 0
    for br in _best_first(branches, sys.symmetry_order):
        tried += 1
        flat_vals = np.abs(sys.coplanarity(br.points))
        if np.max(flat_vals) < 1e-9:
            # planar curve (or tilted circle): the whole branch is coplanar
            for z in br.points[len(br) // 2 :]:
                if sys.diameter(z) > _DIAMETER_FLOOR:
                    return _rhombus_answer(sys, z, br, note="branch identically planar")
            continue
        for ev in branch_events(br, sys.coplanarity, "planarity", settings):
            if sys.diameter(ev.z) < _DIAMETER_FLOOR:
                continue  # the angle must be kept away from zero
            try:
                z = refine(polish, ev.z, tol=1e-10)
                angle = sys.planarity_angle(z)
            except ConvergenceError:
                continue
            if abs(angle - np.pi) < 0.1 and sys.diameter(z) > _DIAMETER_FLOOR:
                return _rhombus_answer(sys, z, br)
    raise SearchFailure(
        "no planarity event with nondegenerate diameter on any traced branch",
        {"branches": tried},
    )


def _rhombus_answer(sys, z, branch, note=None):
    p = sys.to_param(z)
    info = {
        "residual": float(np.linalg.norm(sys.residual(z))),
        "coplanarity": float(abs(sys.coplanarity(z))),
        "angle": float(sys.planarity_angle(z)),
        "diameter": float(sys.diameter(z)),
        "branch_isotropy": branch.isotropy_order,
        "branch_closed": branch.closed,
    }
    if note:
        info["note"] = note
    return p, info


# --- octahedra ------------------------------------------------------------------


def _octahedron_seed(rng):
    M = rng.normal(size=(3, 3))
    Q, R = np.linalg.qr(M)
    Q = Q * np.sign(np.diag(R))
    verts = np.vstack([Q.T, -Q.T])  # rows: +a1,+a2,+a3,-a1,-a2,-a3
    return verts


def find_octahedra(sphere: EmbeddedSphere, settings=None):
    """All regular-octahedron solution circles on a scaled sphere.

    The circles through _OCTAHEDRON_SEEDS random octahedra are traced once
    per orbit of the 48-element label symmetry group (``_iter_orbits``):
    ``branch_orbit`` gives each traced circle's distinct label images, and
    only closed circles count as components.  On the z-scaled sphere the 16
    circles form one orbit, so a single trace finds them all.  Each
    component owns its points (only the kept images are built), and
    ``info["max_residual"]`` is taken over each component in blocks of at
    most _RESIDUAL_BLOCK_ROWS rows, so the op's memory stays bounded by the
    components it returns.
    """
    settings = settings or TraceSettings()
    if sphere.is_round:
        raise NonIsolatedSolutionsError(
            "round sphere: the solution set is a 3-dimensional rotation orbit, "
            "not a disjoint union of circles",
            {"scale": sphere.scale.tolist()},
        )
    sys = OctahedronSystem(sphere)
    rng = np.random.default_rng(settings.seed)
    seeds = []
    for _ in range(_OCTAHEDRON_SEEDS):
        verts = _octahedron_seed(rng)
        q = verts / sphere.scale
        q /= np.linalg.norm(q, axis=1, keepdims=True)
        seeds.append(q.reshape(18))
    zeros = gauss_newton_batch(
        sys, np.array(seeds), tol=settings.corrector_tol * 0.5, max_iter=120, prune_level=5.0
    )
    components = []
    traced = 0
    for orbit in _iter_orbits(sys, zeros, settings):
        if orbit[0].closed:
            traced += 1
            components += orbit
    if not components:
        raise SearchFailure("no octahedron circle found from the seed population", {"seeds": _OCTAHEDRON_SEEDS})
    info = {
        "components": len(components),
        "traced_directly": traced,
        "max_residual": max(_max_residual(sys, c.points) for c in components),
    }
    return components, info


def _max_residual(system, points):
    """The largest residual norm over the chain points, taken in even blocks
    of at most _RESIDUAL_BLOCK_ROWS rows.  No block has one row unless the
    chain does: a one-row residual takes the matmul's vector path, whose
    bits differ from the batched rows'."""
    blocks = np.array_split(points, -(-len(points) // _RESIDUAL_BLOCK_ROWS))
    return float(np.max([np.max(np.linalg.norm(system.residual(b), axis=-1)) for b in blocks]))


# --- edge-regular families -------------------------------------------------------


def edge_ratio_branches(curve: ClosedCurve, n, rhos=None, settings=None):
    """Every component of the prescribed-edge-ratio system hit by the seed
    grid.  Only the fundamental domain of the system's Z_n symmetry is
    seeded: the other members of a branch's orbit are its images."""
    settings = settings or TraceSettings()
    sys = EdgeRatioSystem(curve, n, rhos)
    seeds = polygon_seed_grid(n, 12, max(8, 2 * n + 4), sys.symmetry_order)
    branches = list(enumerate_branches(sys, seeds, settings))
    if n == 4 and sys.symmetry_order == 4:
        # the diagonal swaps (squares) go ahead of the boundary approaches
        for br in branches:
            br.events[:0] = branch_events(br, sys.diagonal_gap, "diagonal_swap", settings)
    return branches


def winding_sum(branches):
    """Sum of winding numbers over closed branches (orientation as traced)."""
    return int(sum(b.winding or 0 for b in branches if b.closed))
