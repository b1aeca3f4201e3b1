"""Finite counts over deduplicated solution orbits: parity and mod-8 checks.

The counts are desk-scale evidence for the parity statements: squares come in
free cyclic orbits (the interior of the parameter space is a free Z_4-space),
so the orbit count's parity is the quantity of interest, and the rectangle
component bookkeeping decomposes those orbits along the branches through
them.  The same freeness makes the square count cheap: a fundamental domain
of the Z_4 action (star base in [0, 1/4)) holds a labeling of every orbit, so
seeding it alone, at the density of the full grid, finds every orbit once
instead of four times.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .curves import ClosedCurve, signed_area
from .errors import NonIsolatedSolutionsError
from .polygons import PolygonParam, param_dict, vertices
from .residuals import RectangleSystem, SpecialQuadSliceSystem, SquareSystem
from .searches import (
    FAMILY_RANK_TOL,
    dedup_orbits,
    find_square,
    polygon_seed_grid,
    square_orbits,
)
from .solvers import gauss_newton_batch, refine, smallest_singular_ratio
from .tracing import TraceSettings, branch_events, branch_orbit, trace_branch


@dataclass
class CountReport:
    kind: str
    total: int
    orbit_count: int
    parity: int
    orbits: list = field(default_factory=list)
    resolution: tuple = ()
    seed: int = 0
    notes: list = field(default_factory=list)
    verdicts: dict = field(default_factory=dict)

    def to_dict(self):
        return asdict(self)


def count_squares(curve: ClosedCurve, settings=None, nx=150, m=24):
    """Count square orbits by multistart Newton on the Z_4 fundamental domain.

    The seeds are the points of the nx-by-lattice(m) grid (>= 64^3 points at
    the defaults) whose star base lies in [0, 1/4): every square orbit has a
    labeling there, so the domain is covered at the density of the full
    grid with a quarter of its seeds.  ``resolution`` records
    (nx, m, seeds run, symmetry order).  Curves whose squares are not
    isolated (the round circle) are rejected with a family diagnostic
    rather than silently massaged.  Any ``DistanceField`` may stand in for
    the curve; ``ccw_square_labeling`` is then None, as it is on space
    curves.
    """
    settings = settings or TraceSettings()
    sq = SquareSystem(curve)
    seeds = polygon_seed_grid(4, nx, m, sq.symmetry_order)
    Z, conditions, close_pairs = square_orbits(sq, seeds, prune_after=1, prune_level=0.6)
    reps = [sq.to_param(z) for z in Z]
    flagged = [i for i, c in enumerate(conditions) if c < FAMILY_RANK_TOL]
    if flagged:
        raise NonIsolatedSolutionsError(
            "zero set is 1-dimensional, not isolated: the Jacobian is rank-"
            "deficient at converged squares (rotational family)",
            {
                "condition_ratios": [conditions[i] for i in flagged],
                "examples": [param_dict(reps[i]) for i in flagged[:3]],
            },
        )
    if close_pairs:
        raise NonIsolatedSolutionsError(
            "converged squares smear along a family instead of separating",
            {"close_pairs": close_pairs},
        )
    planar = sq.curve is not None and sq.curve.ambient_dim == 2
    orbits = [
        {
            **param_dict(p),
            "jacobian_condition_ratio": c,
            "ccw_square_labeling": orientation_check(sq.curve, p) if planar else None,
        }
        for p, c in zip(reps, conditions)
    ]
    return CountReport(
        kind="square",
        total=4 * len(reps),
        orbit_count=len(reps),
        parity=len(reps) % 2,
        orbits=orbits,
        resolution=(nx, m, len(seeds), sq.symmetry_order),
        seed=settings.seed,
        verdicts={"parity_odd": len(reps) % 2 == 1},
    )


def count_special_quads(source, eps, settings=None, nt=64, m=12, verify_square=True):
    """Count special quadrilaterals of a given size on the slice system.

    Only solutions passing the a >= b classifier are counted; a solution
    within 1e-9 of the tie makes the parity unreliable and is flagged.  When
    the parity is even and the source is a curve, the square-existence
    corollary is checked by actually finding the square.
    """
    settings = settings or TraceSettings()
    sys = SpecialQuadSliceSystem(source, eps)
    seeds = polygon_seed_grid(3, nt, m)
    seeds[:, 1:] *= eps  # both free arcs inside the size-eps window
    zeros = gauss_newton_batch(
        sys, seeds, tol=1e-11, margin_floor=min(1e-6, eps * 1e-4)
    )
    notes = []
    reps = dedup_orbits(sys, zeros)
    family = any(smallest_singular_ratio(sys, z) < FAMILY_RANK_TOL for z in reps[:64])
    if family:
        notes.append("slice zeros form a family (symmetric source); counting only the classifier-positive ones")
    flags = [sys.classify(z) for z in reps]
    specials = [(z, f) for z, f in zip(reps, flags) if f["is_special"]]
    unreliable = any(f["near_tie"] for f in flags)
    if unreliable:
        notes.append("a solution sits within 1e-9 of the a = b tie; parity unreliable")
    parity = len(specials) % 2
    verdicts = {"parity": "even" if parity == 0 else "odd", "parity_reliable": not unreliable}
    if verify_square and parity == 0:
        curve = sys.field.curve
        if curve is not None:
            square, prov = find_square(curve, settings)
            verdicts["square_exists"] = True
            verdicts["square"] = param_dict(square)
            verdicts["consistent"] = True
        else:
            notes.append("even parity implies a metric square exists; not searched for plain fields")
    return CountReport(
        kind="special_quad",
        total=len(specials),
        orbit_count=len(specials),
        parity=parity,
        orbits=[
            {"t": float(z[0]), "u1": float(z[1]), "u2": float(z[2]), **f}
            for z, f in specials
        ],
        resolution=(nt, m, len(seeds)),
        seed=settings.seed,
        notes=notes + [f"slice zeros found (deduplicated): {len(reps)}"],
        verdicts=verdicts,
    )


def classify_rectangle_components(curve: ClosedCurve, settings=None, square_report=None):
    """Trace the rectangle branch through every labeled square and check the
    per-component square parity bookkeeping.

    Each square orbit is traced once, from its first labeling
    (``sq.images``) on no known component (labeled squares are the
    bookkeeping unit, compared in the chart: max-norm of ``sq.chart_diff``
    below 1e-4).  The other labelings' components are the branch's distinct
    images from ``branch_orbit``, whose squares are the refined squares
    relabeled the same way (``rect.images``).
    Closed components are classified by isotropy order (1, 2, or 4); open
    components (branches that run into the chart boundary, which real curves
    produce) are excluded from the parity bookkeeping with a warning.
    """
    settings = settings or TraceSettings()
    report = square_report or count_squares(curve, settings)
    rect = RectangleSystem(curve)
    sq = SquareSystem(curve)
    components = []
    labeled = np.empty((0, 4))  # the squares on known components, as labeled

    def contained(z):
        # labeled squares are the bookkeeping unit: no orbit quotient
        return bool(np.any(np.max(np.abs(sq.chart_diff(z, labeled)), axis=-1) < 1e-4))

    for orbit in report.orbits:
        z0 = sq.from_param(PolygonParam(orbit["base"], orbit["gaps"]))
        z_lab = next((z for z in sq.images(z0) if not contained(z)), None)
        if z_lab is None:
            continue
        br = trace_branch(rect, z_lab, settings)
        events = branch_events(br, rect.fatness, "square_on_branch", settings)
        squares = np.array([refine(sq, ev.z, tol=1e-10) for ev in events]).reshape(-1, 4)
        relabeled = rect.images(squares)
        for k, image in branch_orbit(br):
            image_squares = relabeled[k]
            labeled = np.concatenate([labeled, image_squares])
            components.append(
                {
                    "branch": image,
                    "squares": [sq.to_param(z) for z in image_squares],
                    "closed": image.closed,
                    "isotropy": image.isotropy_order,
                    "square_events": len(squares),
                }
            )

    closed = [c for c in components if c["closed"]]
    open_comps = [c for c in components if not c["closed"]]
    notes = []
    if open_comps:
        notes.append(
            f"{len(open_comps)} component(s) escape to the boundary without closing; "
            "excluded from the per-component parity bookkeeping"
        )
    total_squares = sum(c["square_events"] for c in components)
    iso_square_sums = {1: 0, 2: 0, 4: 0}
    for c in closed:
        iso_square_sums[c["isotropy"]] += c["square_events"]
    verdicts = {
        "every_closed_component_even": all(c["square_events"] % 2 == 0 for c in closed),
        "r1_square_total_mod8": iso_square_sums[1] % 8,
        "r4_components_square_counts_mod8": [
            c["square_events"] % 8 for c in closed if c["isotropy"] == 4
        ],
        "total_squares_mod8": total_squares % 8,
        "total_matches_orbit_count": total_squares == 4 * report.orbit_count,
    }
    orbits_out = [
        {
            "closed": c["closed"],
            "isotropy": c["isotropy"],
            "square_events": c["square_events"],
            "squares": [param_dict(s) for s in c["squares"]],
            "termination": c["branch"].termination,
        }
        for c in components
    ]
    return CountReport(
        kind="rectangle_components",
        total=total_squares,
        orbit_count=len(components),
        parity=total_squares % 2,
        orbits=orbits_out,
        resolution=(4 * len(report.orbits),),
        seed=settings.seed,
        notes=notes,
        verdicts=verdicts,
    )


def orientation_check(curve: ClosedCurve, square) -> bool:
    """True iff the square's vertices, in curve order, wind counter-clockwise.

    Accepts a PolygonParam or a raw vertex-parameter sequence.  The curve is
    taken counter-clockwise; a clockwise parametrization is handled by
    flipping the sign convention rather than rejecting.
    """
    vp = vertices(square) if isinstance(square, PolygonParam) else np.asarray(square, dtype=float)
    pts = curve.eval(vp)[:, :2]
    x, y = pts[:, 0], pts[:, 1]
    quad_area = 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))
    if signed_area(curve) < 0:
        quad_area = -quad_area
    return quad_area > 0


__all__ = [
    "CountReport",
    "count_squares",
    "count_special_quads",
    "classify_rectangle_components",
    "orientation_check",
]
