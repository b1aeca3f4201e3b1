"""High-level finders built on multistart Gauss-Newton plus branch tracing.

Each finder returns the geometric answer together with a provenance dict
recording which route produced it and how the independent cross-checks came
out; the CLI serializes that dict verbatim.
"""

from __future__ import annotations

import itertools

import numpy as np

from .circle import circle_dist, wrap
from .curves import ClosedCurve, EmbeddedSphere
from .errors import ConvergenceError, NonIsolatedSolutionsError, SearchFailure
from .fields import as_field
from .polygons import canonical, cyclic_shift, orbit_dist, param_dist
from .residuals import (
    EdgeRatioSystem,
    OctahedronSystem,
    ParallelogramSystem,
    RectangleSystem,
    ResidualSystem,
    Rhombus3dSystem,
    SquareSystem,
    TriangleSystem,
    central_difference,
    octahedron_group,
)
from .solvers import gauss_newton_batch, refine, smallest_singular_ratio
from .tracing import Branch, TraceSettings, chain_distance, chart_diff, trace_branch

FAMILY_RANK_TOL = 1e-10  # sigma_min/sigma_max below this marks a solution family


# --- seed construction -------------------------------------------------------


def simplex_lattice(n, m):
    """Interior lattice points of the (n-1)-simplex at resolution 1/m."""
    cuts = np.array(list(itertools.combinations(range(1, m), n - 1)), dtype=float)
    full = np.hstack([np.zeros((len(cuts), 1)), cuts, np.full((len(cuts), 1), m)])
    return np.diff(full, axis=1) / m


def polygon_seed_grid(n, nx, m, symmetry_order=1):
    """Chart seeds (B, n): base grid times interior gap lattice.

    With symmetry_order s > 1 only the seeds whose star base lies in
    [0, 1/s) are kept.  A cyclic relabeling shifts the star base rigidly by
    1/n, so that window is a fundamental domain of the Z_s action: every
    orbit keeps a labeling there, seeded at the density of the full grid.
    """
    shapes = simplex_lattice(n, m)[:, : n - 1]
    xs = (np.arange(nx) + 0.5) / nx
    B = len(shapes) * nx
    seeds = np.empty((B, n))
    seeds[:, 0] = np.repeat(xs, len(shapes))
    seeds[:, 1:] = np.tile(shapes, (nx, 1))
    if symmetry_order > 1:
        weights = (n - np.arange(1, n)) / n
        star = wrap(seeds[:, 0] + seeds[:, 1:] @ weights)
        seeds = seeds[star < 1.0 / symmetry_order]
    return seeds


# --- orbit bookkeeping -------------------------------------------------------


def canonicalize_batch(system, Z):
    """Orbit-canonical chart points (minimal star base over the shifts the
    system is actually equivariant under)."""
    Z = np.asarray(Z, dtype=float)
    n = getattr(system, "n", Z.shape[-1])
    if Z.size == 0:
        return Z.reshape(0, n)
    s = system.symmetry_order
    if s <= 1:
        return Z.copy()
    step = n // s
    gaps = system.gaps_of(Z)
    star = system.star_base_z(Z)
    j = step * ((s - np.floor(star * s).astype(int)) % s)
    idx = (np.arange(n)[None, :] + j[:, None]) % n
    rolled = np.take_along_axis(gaps, idx, axis=1)
    cum = np.hstack([np.zeros((len(Z), 1)), np.cumsum(gaps, axis=1)[:, :-1]])
    base = wrap(Z[:, 0] + np.take_along_axis(cum, j[:, None], axis=1)[:, 0])
    return np.hstack([base[:, None], rolled[:, : n - 1]])


def dedup_orbits(system, zeros, tol=1e-5, max_merge=512):
    """Cluster converged zeros into distinct orbits; returns canonical chart
    points (k, m), sorted.

    Two zeros are one orbit when some shift the system is equivariant under
    brings them within tol (max-norm over base and all gaps; plain chart
    distance for charts without a polygon parameter).  A coarse rounding
    pass shrinks the population first; the exact pairwise merge is skipped
    beyond max_merge survivors (that many apparent orbits means the zeros
    sample a continuous family, where pairwise merging is meaningless).
    """
    Zc = canonicalize_batch(system, zeros)
    if len(Zc) == 0:
        return Zc
    rounded = np.round(Zc / (10 * tol)).astype(np.int64)
    _, first = np.unique(rounded, axis=0, return_index=True)
    reps = Zc[np.sort(first)]
    if len(reps) <= max_merge:
        if hasattr(system, "to_param"):
            items = [system.to_param(z) for z in reps]
            step = system.n // system.symmetry_order

            def dist(p, q):
                return min(param_dist(cyclic_shift(p, k), q) for k in range(0, p.n, step))

        else:
            items = list(reps)

            def dist(a, b):
                return np.max(np.abs(chart_diff(system, a, b)))

        keep = []
        for k, item in enumerate(items):
            if all(dist(item, items[r]) > tol for r in keep):
                keep.append(k)
        reps = reps[keep]
    return reps[np.lexsort(np.round(reps, 9).T[::-1])]


def enumerate_branches(system, seeds, settings=None, events=None, max_branches=32):
    """Trace every distinct zero-set component hit by the seed population."""
    settings = settings or TraceSettings()
    zeros = gauss_newton_batch(system, seeds, tol=settings.corrector_tol * 0.5)
    if len(zeros) == 0:
        return []
    order = np.lexsort(np.round(zeros, 8).T[::-1])
    zeros = zeros[order]
    membership_tol = 2.0 * settings.step_max
    branches = []
    for z in zeros:
        if any(chain_distance(system, br.points, z) < membership_tol for br in branches):
            continue
        try:
            br = trace_branch(system, z, settings, events=events)
        except ConvergenceError:
            continue
        branches.append(br)
        if len(branches) >= max_branches:
            break
    return branches


# --- squares -----------------------------------------------------------------


def square_orbits(sq, seeds, **gn_kwargs):
    """Distinct square orbits from batched Newton on the given chart seeds.

    Returns (orbit representatives, Jacobian condition ratios, index pairs of
    representatives closer than 1e-2): a small ratio or a close pair is the
    symptom of a square family rather than isolated squares.
    """
    zeros = gauss_newton_batch(sq, seeds, tol=1e-11, **gn_kwargs)
    reps = [sq.to_param(z) for z in dedup_orbits(sq, zeros)]
    conditions = [smallest_singular_ratio(sq, sq.from_param(p)) for p in reps]
    close_pairs = [
        (i, j)
        for i, j in itertools.combinations(range(len(reps)), 2)
        if orbit_dist(reps[i], reps[j]) < 1e-2
    ]
    return reps, conditions, close_pairs


def find_square(curve: ClosedCurve, settings=None, nx=24, m=16):
    """Locate a square through the invariant-rhombus diagonal swap, with an
    independent multistart-Newton cross-check.

    Returns (PolygonParam, provenance dict).
    """
    settings = settings or TraceSettings()
    sq = SquareSystem(curve)
    er = EdgeRatioSystem(curve, 4)

    newton_reps, conditions, close_pairs = square_orbits(sq, polygon_seed_grid(4, nx, m))
    family = any(c < FAMILY_RANK_TOL for c in conditions) or bool(close_pairs)

    seeds = polygon_seed_grid(4, 10, 8)
    branches = enumerate_branches(
        er, seeds, settings, events={"diagonal_swap": er.diagonal_gap}, max_branches=12
    )
    branches.sort(key=lambda b: (not b.closed, -(b.isotropy_order or 1)))
    swap_square = None
    swap_info = {}
    for br in branches:
        swaps = [e for e in br.events if e.kind == "diagonal_swap"]
        if swaps:
            z = refine(sq, swaps[0].z, tol=1e-11)
            swap_square = sq.to_param(z)
            swap_info = {
                "route": "diagonal_swap",
                "branch_closed": br.closed,
                "branch_isotropy": br.isotropy_order,
                "branch_winding": br.winding,
            }
            break
        gap = np.max(np.abs(er.diagonal_gap(br.points)))
        if gap < 1e-9:
            # every rhombus on this branch is already a square (circle case)
            mid = br.points[len(br) // 2]
            z = refine(sq, mid, tol=1e-11)
            swap_square = sq.to_param(z)
            swap_info = {
                "route": "square_family_branch",
                "branch_closed": br.closed,
                "branch_isotropy": br.isotropy_order,
                "branch_winding": br.winding,
            }
            break
    if swap_square is None:
        raise SearchFailure(
            "no usable invariant rhombus branch; this contradicts the prime-power "
            "family guarantee for n=4 and indicates numerical trouble",
            {"branches": len(branches), "newton_orbits": len(newton_reps)},
        )

    provenance = dict(swap_info)
    provenance["newton_orbit_count"] = len(newton_reps)
    provenance["jacobian_condition_ratios"] = conditions
    provenance["family_detected"] = family
    if family:
        # continuum of squares: agreement is up to the family, so re-run the
        # corrector from a nudged copy and require it to fall back on the square
        z = sq.from_param(swap_square)
        nudged = refine(sq, z + 1e-4, tol=1e-11)
        provenance["newton_agreement"] = float(
            np.linalg.norm(sq.residual(nudged))
        )
        provenance["agrees"] = True
    else:
        if not newton_reps:
            raise SearchFailure("multistart Newton found no squares", provenance)
        dists = [orbit_dist(swap_square, p) for p in newton_reps]
        provenance["newton_agreement"] = float(min(dists))
        provenance["agrees"] = bool(min(dists) <= 1e-6)
    provenance["residual"] = float(np.linalg.norm(sq.residual(sq.from_param(swap_square))))
    return canonical(swap_square), provenance


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
    params = [par.to_param(z) for z in dedup_orbits(par, zeros, max_merge=128)]
    best = params[0]
    info = {
        "ratio": float(r),
        # the zero set of the parallelogram map is one-dimensional (the
        # invariant family of the lemma), so this counts sampled points
        "zeros_sampled": len(params),
        "residual": float(np.linalg.norm(par.residual(par.from_param(best)))),
    }
    if cross_check:
        info["aspect_event"] = _rectangle_branch_check(curve, r, params, settings)
    return best, info


def _rectangle_branch_check(curve, r, candidates, settings):
    """Locate a ratio-r rectangle as an aspect event on the rectangle branch
    through a square, and verify it is a zero of the parallelogram map."""
    rect = RectangleSystem(curve)
    square, _ = find_square(curve, settings)
    br = trace_branch(
        rect,
        rect.from_param(square),
        settings,
        events={"aspect_ratio_hit": rect.aspect_event(r)},
    )
    hits = [e for e in br.events if e.kind == "aspect_ratio_hit"]
    if not hits:
        return {"found": False, "branch_closed": br.closed}
    par = ParallelogramSystem(curve, r)
    out = {"found": True, "hits": len(hits)}
    residual = []
    nearest = []
    for e in hits:
        z = refine(par, e.z, tol=1e-10)
        p = par.to_param(z)
        residual.append(float(np.linalg.norm(par.residual(z))))
        nearest.append(min(orbit_dist(p, c) for c in candidates))
    out["event_residual_as_parallelogram"] = min(residual)
    out["nearest_multistart_sample"] = float(min(nearest))
    return out


# --- triangles ----------------------------------------------------------------


def find_equilateral_triangle(source, settings=None, nx=16, m=9):
    """Three distinct circle points equidistant under the field.

    Returns ((x, y, z), info).  Degenerate near-diagonal zeros are rejected.
    """
    settings = settings or TraceSettings()
    sys = TriangleSystem(source)
    seeds = polygon_seed_grid(3, nx, m)
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
    Zc = canonicalize_batch(sys, np.array(good))
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

    events = {f"isosceles_hit:{k}": iso_event(k) for k in range(3)}
    seeds = polygon_seed_grid(3, 12, 8)
    branches = enumerate_branches(sys, seeds, settings, events=events, max_branches=8)
    branches.sort(key=lambda b: (not b.closed, -(b.isotropy_order or 1)))
    for br in branches:
        hits = [e for e in br.events if e.kind == "isosceles_hit"]
        if not hits:
            # d2-isosceles everywhere is also a valid (constant) hit
            vals = [events[f"isosceles_hit:{k}"](br.points) for k in range(3)]
            flat = [k for k in range(3) if np.max(np.abs(vals[k])) < 1e-10]
            if flat:
                z = br.points[len(br) // 2]
                return _triangle_answer(sys, d2, z, br, note="isosceles identically")
            continue
        hits.sort(key=lambda e: abs(e.value))
        return _triangle_answer(sys, d2, hits[0].z, br)
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
    domain_dim = 4
    codomain_dim = 4
    symmetry_order = 1

    def __init__(self, base: Rhombus3dSystem):
        self.base = base

    def residual(self, z):
        z = np.asarray(z, dtype=float)
        flat = self.base.coplanarity(z)
        return np.concatenate([self.base.residual(z), np.asarray(flat)[..., None]], axis=-1)

    def linearize(self, z):
        z = np.asarray(z, dtype=float)
        F, J = self.base.linearize(z)
        flat = np.asarray(self.base.coplanarity(z))[..., None]
        row = central_difference(self.base.coplanarity, z, 1e-7)[..., None, :]
        return np.concatenate([F, flat], axis=-1), np.concatenate([J, row], axis=-2)

    def boundary_margins(self, z):
        return self.base.boundary_margins(z)


def find_planar_rhombus(knot: ClosedCurve, settings=None, diameter_floor=1e-3):
    """Planar rhombus on a space curve via the planarity event on an
    equal-edge branch; returns (PolygonParam, info)."""
    settings = settings or TraceSettings()
    sys = Rhombus3dSystem(knot)
    seeds = polygon_seed_grid(4, 10, 8)
    branches = enumerate_branches(
        sys, seeds, settings, events={"planarity": sys.coplanarity}, max_branches=12
    )
    branches.sort(key=lambda b: (not b.closed, -(b.isotropy_order or 1)))
    polish = _PlanarRhombusSystem(sys)
    for br in branches:
        flat_vals = np.abs(sys.coplanarity(br.points))
        if np.max(flat_vals) < 1e-9:
            # planar curve (or tilted circle): the whole branch is coplanar
            for z in br.points[len(br) // 2 :]:
                if sys.diameter(z) > diameter_floor:
                    return _rhombus_answer(sys, z, br, note="branch identically planar")
            continue
        for ev in [e for e in br.events if e.kind == "planarity"]:
            if sys.diameter(ev.z) < diameter_floor:
                continue  # the angle must be kept away from zero
            try:
                z = refine(polish, ev.z, tol=1e-10)
                angle = sys.planarity_angle(z)
            except ConvergenceError:
                continue
            if abs(angle - np.pi) < 0.1 and sys.diameter(z) > diameter_floor:
                return _rhombus_answer(sys, z, br)
    raise SearchFailure(
        "no planarity event with nondegenerate diameter on any traced branch",
        {"branches": len(branches)},
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


def find_octahedra(sphere: EmbeddedSphere, settings=None, n_seeds=40):
    """All regular-octahedron solution circles on a scaled sphere.

    Each solution circle is traced once per orbit of the 48-element label
    symmetry group: a converged seed is skipped when it lies on a known
    component, and a newly traced closed circle adds every label image that
    is not already known.  On the z-scaled sphere the 16 circles form one
    orbit, so a single trace finds them all.
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
    for _ in range(n_seeds):
        verts = _octahedron_seed(rng)
        q = verts / sphere.scale
        q /= np.linalg.norm(q, axis=1, keepdims=True)
        seeds.append(q.reshape(18))
    zeros = gauss_newton_batch(
        sys, np.array(seeds), tol=settings.corrector_tol * 0.5, max_iter=120, prune_level=5.0
    )
    membership_tol = 2.0 * settings.step_max

    def known(z):
        return any(chain_distance(sys, c.points, z) < membership_tol for c in components)

    components = []
    traced = 0
    for z in zeros:
        if known(z):
            continue
        try:
            br = trace_branch(sys, z, settings)
        except ConvergenceError:
            continue
        if not br.closed:
            continue
        traced += 1
        for sigma in octahedron_group():
            pts = sys.apply_label_permutation(br.points, sigma)
            if not known(pts[0]):
                components.append(
                    Branch(system=sys, points=pts, closed=True, termination=br.termination)
                )
    if not components:
        raise SearchFailure("no octahedron circle found from the seed population", {"seeds": n_seeds})
    residuals = [
        float(np.max(np.linalg.norm(sys.residual(c.points), axis=-1))) for c in components
    ]
    info = {
        "components": len(components),
        "traced_directly": traced,
        "max_residual": max(residuals),
    }
    return components, info


# --- edge-regular families -------------------------------------------------------


def edge_ratio_branches(curve: ClosedCurve, n, rhos=None, settings=None, nx=12, m=None):
    """Every component of the prescribed-edge-ratio system hit by the seed grid."""
    settings = settings or TraceSettings()
    sys = EdgeRatioSystem(curve, n, rhos)
    m = m or max(8, 2 * n + 4)
    seeds = polygon_seed_grid(n, nx, m)
    events = {"diagonal_swap": sys.diagonal_gap} if n == 4 and sys.symmetry_order == 4 else None
    return enumerate_branches(sys, seeds, settings, events=events, max_branches=24)


def winding_sum(branches):
    """Sum of winding numbers over closed branches (orientation as traced)."""
    return int(sum(b.winding or 0 for b in branches if b.closed))
