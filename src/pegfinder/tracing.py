"""Pseudo-arclength tracing of one-dimensional zero sets.

Tangent continuation with an augmented-Newton corrector: predict along the
Jacobian null direction, correct in the hyperplane orthogonal to the
prediction step.  The corrector reads (F, J) from ``system.linearize`` and
hands the J at the accepted point to the next tangent; one bisection loop
serves closure, boundary and event location.  Loops close when the trace
re-crosses the starting hyperplane next to the start point; open branches
stop when the chart boundary margin drops below the floor, which the
geometry legitimately produces (degenerating rectangles, spiral paths), so
it is a termination state and not an error.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .circle import wrap
from .errors import ConvergenceError
from .residuals import ResidualSystem, central_difference
from .solvers import refine

_RANK_TOL = 1e-8
_MIN_STEP = 1e-9


@dataclass
class TraceSettings:
    corrector_tol: float = 1e-10
    step_init: float = 1e-3
    step_max: float = 1e-2
    closure_tol: float = 1e-6
    boundary_floor: float = 1e-4
    max_steps: int = 200000
    seed: int = 0

    def __post_init__(self):
        for name in ("corrector_tol", "step_init", "step_max", "closure_tol", "boundary_floor"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive")
        if self.max_steps < 1:
            raise ValueError("max_steps must be at least 1")
        if self.corrector_tol >= self.closure_tol:
            raise ValueError("corrector_tol must be below closure_tol")


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
    isotropy_order: int | None = None

    def __len__(self):
        return self.points.shape[0]

    def params(self):
        return [self.system.to_param(z) for z in self.points]


def circle_mask(system):
    mask = np.zeros(chart_dim(system), dtype=bool)
    if hasattr(system, "to_param") or system.kind == "special_quad":
        mask[0] = True  # base point / path parameter lives on R/Z
    return mask


def chart_dim(system):
    return getattr(system, "chart_dim", system.domain_dim)


def chart_diff(system, a, b):
    """a - b with circle-valued coordinates wrapped to (-1/2, 1/2]."""
    d = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
    mask = circle_mask(system)
    if np.any(mask):
        w = wrap(d[..., mask])
        d = d.copy()
        d[..., mask] = np.where(w > 0.5, w - 1.0, w)
    return d


def chart_distance(system, a, b):
    return float(np.linalg.norm(chart_diff(system, a, b), axis=-1))


def chain_distance(system, chain, q):
    """Distance from point q to the sampled chain (with segment projection)."""
    rel = chart_diff(system, chain, q)
    point_d = np.linalg.norm(rel, axis=-1)
    if chain.shape[0] < 2:
        return float(np.min(point_d))
    a, b = rel[:-1], rel[1:]
    seg = b - a
    seg_len2 = np.sum(seg * seg, axis=-1)
    valid = seg_len2 < 0.25  # a long jump means the chain wrapped, skip it
    t = -np.sum(a * seg, axis=-1) / np.maximum(seg_len2, 1e-300)
    t = np.clip(t, 0.0, 1.0)
    proj = a + t[:, None] * seg
    seg_d = np.linalg.norm(proj, axis=-1)
    seg_d = np.where(valid, seg_d, np.inf)
    return float(min(np.min(point_d), np.min(seg_d)))


def _tangent(J, prev=None):
    """Unit null vector of the Jacobian J; returns (tangent, deficient flag)."""
    U, S, Vt = np.linalg.svd(J)
    rank = int(np.sum(S > _RANK_TOL * S[0])) if S[0] > 0 else 0
    null = Vt[rank:]
    deficient = null.shape[0] > 1
    if null.shape[0] == 0:
        raise ConvergenceError("Jacobian has no null direction; zero set is not a curve here")
    if not deficient:
        tau = null[0]
    elif prev is not None:
        coeff = null @ prev
        if np.linalg.norm(coeff) < 1e-12:
            tau = null[0]
        else:
            tau = coeff @ null
    else:
        # degenerate family: prefer the null direction that moves the shape
        # coordinates, not the pure base rotation
        shape_part = null[:, 1:]
        w, vecs = np.linalg.eigh(shape_part @ shape_part.T)
        tau = vecs[:, -1] @ null
    tau = tau / np.linalg.norm(tau)
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
    corrected point and the Jacobian there."""
    w = np.array(pred, dtype=float)
    for _ in range(max_iter):
        F, J = system.linearize(w)
        if not np.all(np.isfinite(F)):
            raise ConvergenceError("residual not finite during correction")
        g = float(tau @ (w - pred))
        if np.linalg.norm(F) <= tol and abs(g) <= tol:
            return w, J
        A = np.vstack([J, tau[None, :]])
        b = -np.concatenate([F, [g]])
        try:
            step = np.linalg.solve(A, b)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(A, b, rcond=None)[0]
        w = w + step
        if np.linalg.norm(step) < 1e-15:
            break
    F, J = system.linearize(w)
    if np.linalg.norm(F) <= tol:
        return w, J
    raise ConvergenceError("corrector did not converge")


def _trace_direction(system, z0, tau0, settings):
    """March one direction; returns (samples, termination)."""
    samples = [np.array(z0)]
    z, tau = np.array(z0), np.array(tau0)
    h = settings.step_init
    clean = 0
    start_tau = np.array(tau0)
    prev_side = 0.0
    for _ in range(settings.max_steps):
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
        if system.boundary_margins(w[None])[0] < settings.boundary_floor:
            hit = _boundary_hit(system, z, w, settings)
            if hit is not None:
                samples.append(hit)
            return samples, "boundary"
        samples.append(w)
        # closure: crossing the starting hyperplane right next to the start,
        # verified by projecting the crossing onto the plane and demanding it
        # actually coincides with the start (nearby foreign sheets must not
        # close the loop spuriously)
        side = float(start_tau @ chart_diff(system, w, z0))
        dist0 = chart_distance(system, w, z0)
        if len(samples) > 4 and dist0 < max(2.0 * h, settings.closure_tol):
            crossed = prev_side < 0.0 <= side
            if dist0 < settings.closure_tol:
                samples.append(np.array(z0))
                return samples, "closed"
            if crossed:
                hit = _plane_hit(system, samples[-2], w, z0, start_tau, settings)
                if hit is not None and chart_distance(system, hit, z0) < max(
                    settings.closure_tol, 0.02 * h
                ):
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
            h = min(h * 1.3, settings.step_max)
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
        chord = chart_diff(system, b, a)
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
        return float(tau0 @ chart_diff(system, z, z0)) < 0

    side = below(za)
    a, _, ok = _bisect(system, za, zb, lambda z: below(z) == side, 1e-12, 60, settings)
    return a if ok else None


def _boundary_hit(system, inside, outside, settings):
    """Bisect the branch between an interior and an exterior sample so the
    final recorded point sits at (roughly) the boundary floor."""
    floor = settings.boundary_floor

    def inside_floor(z):
        return not system.boundary_margins(z[None])[0] < floor

    a, _, _ = _bisect(system, inside, outside, inside_floor, 0.25 * floor, 40, settings)
    return a if system.boundary_margins(a[None])[0] >= 0.0 else None


def trace_branch(system, z0, settings=None, events=None):
    """Trace the connected zero-set component through z0.

    events maps kind -> scalar function of the chart point; sign changes are
    bisected to 1e-10 after the march.  Open branches are extended in both
    directions so the whole component between boundary hits is returned.
    """
    settings = settings or TraceSettings()
    z0 = refine(system, np.asarray(z0, dtype=float), tol=settings.corrector_tol)
    tau0, deficient = _tangent(system.jacobian(z0))
    fwd, term = _trace_direction(system, z0, tau0, settings)
    if term == "stalled" and deficient and not isinstance(system, PerturbedSystem):
        # symmetric family stalled the tracer: retry with the boundary-decaying
        # transversality perturbation switched on
        perturbed = PerturbedSystem(system, seed=settings.seed)
        return trace_branch(perturbed, z0, settings, events)
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
        branch.winding = _winding(system, points) * _orientation(system, points)
    if closed and system.symmetry_order > 1 and hasattr(system, "shift_z"):
        branch.isotropy_order = _isotropy(system, branch, settings)
    branch.events = _locate_events(system, points, events or {}, settings, closed=closed)
    if termination.endswith("boundary"):
        branch.events.append(Event("boundary_approach", points[-1], len(points) - 1))
    if termination.startswith("boundary"):
        branch.events.append(Event("boundary_approach", points[0], 0))
    return branch


def _winding(system, points):
    sb = system.star_base_z(points)
    inc = np.diff(sb)
    inc = np.where(inc > 0.5, inc - 1.0, inc)
    inc = np.where(inc <= -0.5, inc + 1.0, inc)
    return int(np.rint(np.sum(inc)))


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
    chord = chart_diff(system, points[1], points[0])
    det = np.linalg.det(np.vstack([J, chord[None, :]]))
    return -1 if det < 0 else 1


def winding_number(branch: Branch) -> int:
    """Degree of the star-base coordinate around a closed branch."""
    if not branch.closed:
        raise ConvergenceError("winding number requires a closed branch")
    return _winding(branch.system, branch.points)


def _isotropy(system, branch, settings):
    n = system.symmetry_order
    tol = max(10.0 * settings.closure_tol, 0.5 * settings.step_max)
    probes = branch.points[:: max(1, len(branch.points) // 8)][:8]
    best = 1
    for k in range(2, n + 1):
        if n % k:
            continue
        shifted = [system.shift_z(p, n // k) for p in probes]
        if all(chain_distance(system, branch.points, s) < tol for s in shifted):
            best = k
    return best


def isotropy(branch: Branch, system=None) -> int:
    """Largest k | n with shift^(n/k) mapping the branch onto itself."""
    system = system or branch.system
    if not branch.closed:
        raise ConvergenceError("isotropy requires a closed branch")
    return _isotropy(system, branch, TraceSettings())


def _locate_events(system, points, event_fns, settings, closed=False, definite=1e-9):
    """Bisect every sign change of each event function along the chain.

    For closed chains the scan is circular, so a crossing sitting exactly at
    the start sample (value below the definiteness threshold there) is still
    counted exactly once.
    """
    events = []
    S = points.shape[0]
    for name, fn in event_fns.items():
        kind = name.split(":")[0]
        vals = np.asarray(fn(points))
        sign = np.where(vals > definite, 1, np.where(vals < -definite, -1, 0))
        definite_idx = np.flatnonzero(sign)
        if definite_idx.size == 0:
            continue
        if closed:
            # last and first sample coincide; drop the duplicate, scan circularly
            order = list(definite_idx[definite_idx < S - 1])
            pairs = list(zip(order, order[1:] + order[:1]))
        else:
            order = list(definite_idx)
            pairs = list(zip(order, order[1:]))
        for ia, ib in pairs:
            if sign[ia] == sign[ib]:
                continue
            z_ev = _bisect_event(system, points[ia], points[ib], fn, settings)
            events.append(Event(kind, z_ev, ia, float(fn(z_ev[None])[0])))
    events.sort(key=lambda e: e.index)
    return events


def _bisect_event(system, za, zb, fn, settings, tol=1e-10):
    """The on-branch sign change of fn between samples za and zb."""

    def negative(z):
        return float(fn(z[None])[0]) < 0

    side = negative(za)
    a, b, _ = _bisect(system, za, zb, lambda z: negative(z) == side, tol, 80, settings)
    return a + 0.5 * chart_diff(system, b, a)


class PerturbedSystem(ResidualSystem):
    """Residual plus a boundary-decaying deterministic pseudo-random field.

    Breaks rank deficiency along symmetric families so the tracer can
    proceed; the magnitude delta * boundary_margin(z) vanishes at the chart
    boundary, leaving the exact zeros of symmetric corpus curves untouched
    whenever the unperturbed trace succeeds (the wrapper is only engaged
    after a stall).  Every ``ResidualSystem`` method binds to the perturbed
    residual; only chart attributes (``to_param``, ``star_base_z``, ...)
    are forwarded to the base.
    """

    def __init__(self, base, delta=1e-7, seed=0):
        self.base = base
        self.delta = delta
        rng = np.random.default_rng(seed)
        m = chart_dim(base)
        k = base.codomain_dim
        self._freq = rng.integers(-2, 3, size=(k, m)).astype(float)
        self._phase = rng.uniform(0.0, 1.0, size=k)
        self.kind = base.kind
        self.domain_dim = base.domain_dim
        self.codomain_dim = base.codomain_dim
        self.symmetry_order = 1  # the perturbation is not equivariant

    def __getattr__(self, name):
        return getattr(self.base, name)

    def _field(self, z):
        ang = 2.0 * np.pi * (z @ self._freq.T + self._phase)
        return np.sin(ang)

    def _bump(self, z):
        return self.delta * self.base.boundary_margins(z)[..., None] * self._field(z)

    def residual(self, z):
        z = np.asarray(z, dtype=float)
        return self.base.residual(z) + self._bump(z)

    def linearize(self, z):
        z = np.asarray(z, dtype=float)
        F, J = self.base.linearize(z)
        return F + self._bump(z), J + central_difference(self._bump, z, 1e-7)

    def boundary_margins(self, z):
        return self.base.boundary_margins(z)
