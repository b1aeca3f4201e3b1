"""Pseudo-arclength tracing of one-dimensional zero sets.

Tangent continuation with an augmented-Newton corrector: predict along the
Jacobian null direction, correct in the hyperplane orthogonal to the
prediction step.  The corrector reads (F, J) from ``system.linearize`` and
hands the J at the accepted point to the next tangent; one bisection loop
serves closure, boundary and event location.  Events are located after the
trace, on the branch (``branch_events``), one sign change at a time.  Chart
differences and relabelings come from the system (``chart_diff``,
``images``), and one function, ``branch_orbit``, gives a traced branch's
distinct images and its isotropy.  Loops close when the trace re-crosses
the starting hyperplane next to the start point; open branches stop when
the chart boundary margin drops below the floor, which the geometry
legitimately produces (degenerating rectangles, spiral paths), so it is a
termination state and not an error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from numbers import Integral

import numpy as np

from .circle import signed_gap
from .errors import ConvergenceError
from .residuals import ResidualSystem, central_difference
from .solvers import refine

_RANK_TOL = 1e-8
_MIN_STEP = 1e-9
_NEAR_BLOCK_VALUES = 2**16  # (query x sample x coordinate) values per near_chain block
_WRAP_JUMP2 = 0.25  # a chain segment this long (squared) is a wrap, not a step
_REACH_SLACK = 1e-9  # absorbs the rounding of near_chain's reach bound
_DEFINITE = 1e-9  # |event value| below this has no sign


# The tracer's step and tolerance policy.  STEP_INIT <= STEP_MAX: a first
# step above the largest one is never shrunk to it and can jump between
# sheets of the zero set (on the ellipse, n = 4, it made edge_ratio_branches
# report two isotropy-1 loops with winding sum -2).
STEP_INIT = 1e-3  # first predictor step of each direction
STEP_MAX = 1e-2  # largest predictor step
CLOSURE_TOL = 1e-6  # a trace this close to its start has closed
BOUNDARY_FLOOR = 1e-4  # an open trace stops below this boundary margin
MAX_STEPS = 200000  # steps per direction
MEMBERSHIP_TOL = 2 * STEP_MAX  # a point this close to a traced chain is on its component


@dataclass
class TraceSettings:
    corrector_tol: float = 1e-10
    seed: int = 0

    def __post_init__(self):
        if not (np.isfinite(self.corrector_tol) and self.corrector_tol > 0):
            raise ValueError("corrector_tol must be finite and positive")
        if self.corrector_tol >= CLOSURE_TOL:
            raise ValueError(f"corrector_tol must be below the closure tolerance {CLOSURE_TOL:g}")
        if not _is_int(self.seed) or self.seed < 0:
            raise ValueError("seed must be a non-negative integer")


def _is_int(value):
    return isinstance(value, Integral) and not isinstance(value, bool)


@dataclass
class Event:
    kind: str
    z: np.ndarray
    index: int
    value: float = 0.0


@dataclass
class Branch:
    system: object
    points: np.ndarray
    closed: bool
    termination: str
    events: list = field(default_factory=list)
    winding: int | None = None
    isotropy_order: int | None = None  # set by branch_orbit

    def __len__(self):
        return self.points.shape[0]


def chart_distance(system, a, b):
    return _chart_length(system.chart_diff(a, b))


def _chart_length(d):
    """np.linalg.norm(d, axis=-1) of one chart difference d, by the same
    reduction, as a float."""
    return math.sqrt((d * d).sum())


def _norm(v):
    """np.linalg.norm(v) of a vector, by numpy's own formula sqrt(v . v)."""
    return math.sqrt(v.dot(v))


def _segment_dists(rel):
    """Distance from the origin to each segment of the chains rel (..., S, d)
    of chart differences; inf on the long jumps where a chain wrapped."""
    a, b = rel[..., :-1, :], rel[..., 1:, :]
    seg = b - a
    seg_len2 = np.sum(seg * seg, axis=-1)
    valid = seg_len2 < _WRAP_JUMP2
    t = -np.sum(a * seg, axis=-1) / np.maximum(seg_len2, 1e-300)
    t = np.clip(t, 0.0, 1.0)
    proj = a + t[..., None] * seg
    seg_d = np.linalg.norm(proj, axis=-1)
    return np.where(valid, seg_d, np.inf)


def chain_distance(system, chain, q):
    """Distance from point q to the sampled chain (with segment projection)."""
    rel = system.chart_diff(chain, q)
    point_d = np.linalg.norm(rel, axis=-1)
    if chain.shape[0] < 2:
        return float(np.min(point_d))
    return float(min(np.min(point_d), np.min(_segment_dists(rel))))


def near_chain(system, chain, Q, tol):
    """Mask of the points Q (B, d) with ``chain_distance(system, chain, q) <
    tol``, decided with the same arithmetic.

    A point within tol of a sample is near.  Every point of a segment lies
    within half the segment's length of one of its ends, so a point whose
    nearest sample is at least ``reach = tol + longest / 2 + _REACH_SLACK``
    away is within tol of no segment, and is not near; ``longest`` is the
    longest chain segment that ``_segment_dists`` does not skip as a wrap
    (the slack covers the rounding, there and in the reach).  Only the
    points in between are projected, by the same ``_segment_dists`` as
    ``chain_distance``, so every decision is the one the full projection
    makes.  The work runs in blocks of at most _NEAR_BLOCK_VALUES (query x
    sample x coordinate) values, or of one query where a query alone holds
    more.
    """
    Q = np.asarray(Q, dtype=float)
    near = np.zeros(len(Q), dtype=bool)
    seg = system.chart_diff(chain[1:], chain[:-1])
    seg_len2 = np.sum(seg * seg, axis=-1)
    longest2 = seg_len2[seg_len2 < _WRAP_JUMP2 + _REACH_SLACK].max(initial=0.0)
    reach = tol + 0.5 * math.sqrt(longest2) + _REACH_SLACK
    step = max(1, _NEAR_BLOCK_VALUES // chain.size)
    for start in range(0, len(Q), step):
        block = Q[start : start + step]
        rel = system.chart_diff(chain[None], block[:, None])
        # fmin skips NaN, so nearest < tol is any(sample distance < tol);
        # an all-NaN row is projected, as before
        nearest = np.fmin.reduce(np.linalg.norm(rel, axis=-1), axis=-1)
        hit = nearest < tol
        left = np.flatnonzero(~hit & ~(nearest >= reach))
        if left.size:
            hit[left] = np.any(_segment_dists(rel[left]) < tol, axis=-1)
        near[start : start + step] = hit
    return near


def _tangent(J, prev=None):
    """Unit null vector of the Jacobian J; returns (tangent, deficient flag)."""
    U, S, Vt = np.linalg.svd(J)
    rank = np.count_nonzero(S > _RANK_TOL * S[0]) if S[0] > 0 else 0
    null = Vt[rank:]
    deficient = null.shape[0] > 1
    if null.shape[0] == 0:
        raise ConvergenceError("Jacobian has no null direction; zero set is not a curve here")
    if not deficient:
        tau = null[0]
    elif prev is not None:
        coeff = null @ prev
        if _norm(coeff) < 1e-12:
            tau = null[0]
        else:
            tau = coeff @ null
    else:
        # degenerate family: prefer the null direction that moves the shape
        # coordinates, not the pure base rotation
        shape_part = null[:, 1:]
        w, vecs = np.linalg.eigh(shape_part @ shape_part.T)
        tau = vecs[:, -1] @ null
    tau = tau / _norm(tau)
    if prev is not None:
        if float(tau @ prev) < 0:
            tau = -tau
    else:
        lead = int(np.argmax(np.abs(tau)))
        if tau[lead] < 0:
            tau = -tau
    return tau, deficient


def _correct(system, pred, tau, tol, max_iter=25):
    """Newton in the hyperplane through pred orthogonal to tau; returns the
    corrected point and the Jacobian there.  Each step solves the system
    [J; tau] step = -[F; g] in one augmented matrix, reused."""
    w = np.array(pred, dtype=float)
    A = np.empty((system.codomain_dim + 1, w.shape[0]))
    b = np.empty(system.codomain_dim + 1)
    A[-1] = tau
    for _ in range(max_iter):
        F, J = system.linearize(w)
        if not np.isfinite(F).all():
            raise ConvergenceError("residual not finite during correction")
        g = float(tau @ (w - pred))
        if _norm(F) <= tol and abs(g) <= tol:
            return w, J
        A[:-1] = J
        np.negative(F, out=b[:-1])
        b[-1] = -g
        try:
            step = np.linalg.solve(A, b)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(A, b, rcond=None)[0]
        w = w + step
        if _norm(step) < 1e-15:
            break
    F, J = system.linearize(w)
    if _norm(F) <= tol:
        return w, J
    raise ConvergenceError("corrector did not converge")


def _trace_direction(system, z0, tau0, settings):
    """March one direction; returns (samples, termination)."""
    samples = [np.array(z0)]
    z, tau = np.array(z0), np.array(tau0)
    h = STEP_INIT
    clean = 0
    start_tau = np.array(tau0)
    prev_side = 0.0
    for _ in range(MAX_STEPS):
        while True:
            pred = z + h * tau
            try:
                w, J = _correct(system, pred, tau, settings.corrector_tol)
                if chart_distance(system, w, z) > 3.0 * h + 1e-12:
                    raise ConvergenceError("corrector jumped off the local sheet")
                break
            except ConvergenceError:
                h *= 0.5
                clean = 0
                if h < _MIN_STEP:
                    return samples, "stalled"
        if system.boundary_margins(w) < BOUNDARY_FLOOR:
            hit = _boundary_hit(system, z, w, settings)
            if hit is not None:
                samples.append(hit)
            return samples, "boundary"
        samples.append(w)
        # closure: crossing the starting hyperplane right next to the start,
        # verified by projecting the crossing onto the plane and demanding it
        # actually coincides with the start (nearby foreign sheets must not
        # close the loop spuriously)
        d0 = system.chart_diff(w, z0)
        side = float(start_tau @ d0)
        dist0 = _chart_length(d0)
        if len(samples) > 4 and dist0 < max(2.0 * h, CLOSURE_TOL):
            crossed = prev_side < 0.0 <= side
            if dist0 < CLOSURE_TOL:
                samples.append(np.array(z0))
                return samples, "closed"
            if crossed:
                hit = _plane_hit(system, samples[-2], w, z0, start_tau, settings)
                if hit is not None and chart_distance(system, hit, z0) < max(CLOSURE_TOL, 0.02 * h):
                    samples.append(np.array(z0))
                    return samples, "closed"
        prev_side = side if len(samples) > 3 else 0.0
        try:
            tau, _ = _tangent(J, prev=tau)
        except ConvergenceError:
            return samples, "stalled"
        z = w
        clean += 1
        if clean >= 5:
            h = min(h * 1.3, STEP_MAX)
            clean = 0
    return samples, "max_steps"


def _bisect(system, a, b, on_a_side, stop, max_iter, settings):
    """Halve the branch segment [a, b] until its ends are within stop; each
    midpoint, corrected onto the branch, replaces a if ``on_a_side(mid)``
    and b otherwise.  Returns (a, b, ok), ok False if the corrector failed."""
    a, b = np.array(a), np.array(b)
    for _ in range(max_iter):
        if chart_distance(system, a, b) <= stop:
            break
        chord = system.chart_diff(b, a)
        tau = chord / np.linalg.norm(chord)
        try:
            mid, _ = _correct(system, a + 0.5 * chord, tau, settings.corrector_tol)
        except ConvergenceError:
            return a, b, False
        if on_a_side(mid):
            a = mid
        else:
            b = mid
    return a, b, True


def _plane_hit(system, za, zb, z0, tau0, settings):
    """Bisect the branch segment [za, zb] onto the hyperplane through z0
    orthogonal to tau0; returns the on-branch crossing point or None."""

    def below(z):
        return float(tau0 @ system.chart_diff(z, z0)) < 0

    side = below(za)
    a, _, ok = _bisect(system, za, zb, lambda z: below(z) == side, 1e-12, 60, settings)
    return a if ok else None


def _boundary_hit(system, inside, outside, settings):
    """Bisect the branch between an interior and an exterior sample so the
    final recorded point sits at (roughly) the boundary floor."""

    def inside_floor(z):
        return not system.boundary_margins(z) < BOUNDARY_FLOOR

    a, _, _ = _bisect(system, inside, outside, inside_floor, 0.25 * BOUNDARY_FLOOR, 40, settings)
    return a if system.boundary_margins(a) >= 0.0 else None


def trace_branch(system, z0, settings=None):
    """Trace the connected zero-set component through z0.

    Open branches are extended in both directions so the whole component
    between boundary hits is returned; their ends are recorded as
    ``boundary_approach`` events.  Sign changes of other functions along the
    branch are a separate step: ``branch_events``.
    """
    settings = settings or TraceSettings()
    z0 = refine(system, np.asarray(z0, dtype=float), tol=settings.corrector_tol)
    tau0, deficient = _tangent(system.jacobian(z0))
    fwd, term = _trace_direction(system, z0, tau0, settings)
    if term == "stalled" and deficient and not isinstance(system, PerturbedSystem):
        # symmetric family stalled the tracer: retry with the boundary-decaying
        # transversality perturbation switched on
        perturbed = PerturbedSystem(system, seed=settings.seed)
        return trace_branch(perturbed, z0, settings)
    if term == "closed":
        points, termination, closed = np.array(fwd), "closed", True
    else:
        bwd, term_b = _trace_direction(system, z0, -tau0, settings)
        if term_b == "closed":
            points, termination, closed = np.array(bwd), "closed", True
        else:
            points = np.array(list(reversed(bwd[1:])) + fwd)
            termination, closed = f"{term_b}/{term}", False

    branch = Branch(system=system, points=points, closed=closed, termination=termination)
    if closed and hasattr(system, "star_base_z"):
        branch.winding = _oriented_winding(system, points)
    if termination.endswith("boundary"):
        branch.events.append(Event("boundary_approach", points[-1], len(points) - 1))
    if termination.startswith("boundary"):
        branch.events.append(Event("boundary_approach", points[0], 0))
    return branch


def branch_orbit(branch):
    """The distinct images of a traced branch under ``branch.system.images``,
    as (index into the images, Branch) pairs: the branch itself first, the
    others made by ``image_branch``.

    Components are disjoint or equal, so one point decides: an image is
    kept unless its first point lies within MEMBERSHIP_TOL of a member kept
    before it, one ``near_chain`` mask per kept member.  Only the first
    point is relabeled by every symmetry; a member's whole chain is built
    (``images(points, k)``, the bytes of ``images(points)[k]``) once it is
    kept, so each member owns its points.  The members are
    then one per coset of the branch's stabilizer, so on a closed branch of
    a system with symmetry_order > 1 every member's isotropy_order is
    len(images) // len(orbit) (set on the branch itself too); on other
    branches it stays None.
    """
    system = branch.system
    firsts = system.images(branch.points[0])
    keep = np.ones(len(firsts), dtype=bool)
    chains = {}
    for k in range(len(firsts)):
        if keep[k]:
            chains[k] = branch.points if k == 0 else system.images(branch.points, k)
            later = k + 1 + np.flatnonzero(keep[k + 1 :])
            keep[later] = ~near_chain(system, chains[k], firsts[later], MEMBERSHIP_TOL)
    if branch.closed and system.symmetry_order > 1:
        branch.isotropy_order = len(firsts) // len(chains)
    return [(0, branch)] + [(k, image_branch(branch, points)) for k, points in chains.items() if k]


def image_branch(branch, points):
    """The branch carried onto ``points``, one of its relabelings from
    ``branch.system.images``: closure, termination and isotropy carry over,
    the events move to the same samples of the image, and the winding is
    recomputed on the image samples."""
    image = Branch(
        system=branch.system,
        points=points,
        closed=branch.closed,
        termination=branch.termination,
        events=[Event(e.kind, points[e.index], e.index, e.value) for e in branch.events],
        isotropy_order=branch.isotropy_order,
    )
    if branch.winding is not None:
        image.winding = _oriented_winding(branch.system, points)
    return image


def _oriented_winding(system, points):
    return _winding(system, points) * _orientation(system, points)


def _winding(system, points):
    sb = system.star_base_z(points)
    return int(np.rint(np.sum(signed_gap(sb[:-1], sb[1:]))))


def _orientation(system, points):
    """+1 if the trace direction matches the preimage orientation of the zero
    set (residual gradients followed by the tangent positively oriented),
    -1 otherwise.  Makes winding numbers of different components comparable
    so their sum is the bordism invariant."""
    if points.shape[0] < 2:
        return 1
    J = system.jacobian(points[0])
    if J.shape[0] != points.shape[1] - 1:
        return 1
    chord = system.chart_diff(points[1], points[0])
    det = np.linalg.det(np.vstack([J, chord[None, :]]))
    return -1 if det < 0 else 1


def winding_number(branch: Branch) -> int:
    """Degree of the star-base coordinate around a closed branch."""
    if not branch.closed:
        raise ConvergenceError("winding number requires a closed branch")
    return _winding(branch.system, branch.points)


def branch_events(branch, fn, kind, settings):
    """Yield the sign changes of fn along the branch as ``Event(kind, ...)``
    in increasing sample index, each bisected on ``branch.system`` only when
    it is asked for.

    A sample counts only where |fn| exceeds _DEFINITE.  On a closed branch
    the scan is circular, so a crossing sitting exactly at the start sample
    is still counted exactly once; the wrap pair comes last.
    """
    points = branch.points
    vals = np.asarray(fn(points))
    sign = np.where(vals > _DEFINITE, 1, np.where(vals < -_DEFINITE, -1, 0))
    definite_idx = np.flatnonzero(sign)
    if definite_idx.size == 0:
        return
    if branch.closed:
        # last and first sample coincide; drop the duplicate, scan circularly
        order = list(definite_idx[definite_idx < points.shape[0] - 1])
        pairs = zip(order, order[1:] + order[:1])
    else:
        order = list(definite_idx)
        pairs = zip(order, order[1:])
    for ia, ib in pairs:
        if sign[ia] == sign[ib]:
            continue
        z_ev = _bisect_event(branch.system, points[ia], points[ib], fn, settings)
        yield Event(kind, z_ev, ia, float(fn(z_ev[None])[0]))


def _bisect_event(system, za, zb, fn, settings, tol=1e-10):
    """The on-branch sign change of fn between samples za and zb."""

    def negative(z):
        return float(fn(z[None])[0]) < 0

    side = negative(za)
    a, b, _ = _bisect(system, za, zb, lambda z: negative(z) == side, tol, 80, settings)
    return a + 0.5 * system.chart_diff(b, a)


class PerturbedSystem(ResidualSystem):
    """Residual plus a boundary-decaying deterministic pseudo-random field.

    Breaks rank deficiency along symmetric families so the tracer can
    proceed; the magnitude delta * boundary_margins(z) vanishes at the chart
    boundary, leaving the exact zeros of symmetric corpus curves untouched
    whenever the unperturbed trace succeeds (the wrapper is only engaged
    after a stall).  Every ``ResidualSystem`` method binds to the perturbed
    residual.  The chart declarations are copied from the base (class
    defaults on ``ResidualSystem`` would shadow forwarding), other chart
    attributes (``to_param``, ``star_base_z``, ...) are forwarded.  The
    perturbation is not equivariant: ``symmetry_order`` is 1.
    """

    def __init__(self, base, delta=1e-7, seed=0):
        self.base = base
        self.delta = delta
        self.kind = base.kind
        self.chart_dim = base.chart_dim
        self.codomain_dim = base.codomain_dim
        self.circle_coords = base.circle_coords
        self.symmetry_order = 1
        rng = np.random.default_rng(seed)
        self._freq = rng.integers(-2, 3, size=(self.codomain_dim, self.chart_dim)).astype(float)
        self._phase = rng.uniform(0.0, 1.0, size=self.codomain_dim)

    def __getattr__(self, name):
        return getattr(self.base, name)

    def _field(self, z):
        ang = 2.0 * np.pi * (z @ self._freq.T + self._phase)
        return np.sin(ang)

    def _bump(self, z):
        return self.delta * self.base.boundary_margins(z)[..., None] * self._field(z)

    def linearize(self, z):
        z = np.asarray(z, dtype=float)
        F, J = self.base.linearize(z)
        return F + self._bump(z), J + central_difference(self._bump, z, 1e-7)

    def boundary_margins(self, z):
        return self.base.boundary_margins(z)
