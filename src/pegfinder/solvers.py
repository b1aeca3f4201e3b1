"""Gauss-Newton correction: single-point refinement and batched multistart.

Both read the residual and its Jacobian from one ``system.linearize`` call
per iteration.  The single-point corrector uses least-squares steps
(np.linalg.lstsq), so it handles square, overdetermined, and
underdetermined systems alike; on a rank-deficient Jacobian the
minimum-norm step keeps it on the zero set's nearest sheet.  The batched
solver trades that robustness for throughput: regularized normal equations
solved for a whole block of seeds at once, with divergent rows pruned
between sweeps.  The seed population is cut into contiguous blocks of at
most ``_BLOCK_ROWS`` rows, which keep their arrays in cache and run on
``_threads.parallel_map`` threads (numpy releases the GIL).  Each sweep
runs a block's live rows in contiguous chunks of at most ``_SWEEP_ROWS``
rows, so its temporaries stay a few MB that the allocator reuses from
sweep to sweep.  Every row's iteration is independent of the others, so
the result is the same bytes in the same order for any block size, chunk
size and thread count.
"""

from __future__ import annotations

import functools

import numpy as np

from . import _threads
from .errors import BoundaryExitError, ConvergenceError, DomainError

_BLOCK_ROWS = 8192
_SWEEP_ROWS = 2048  # rows one sweep linearizes and steps at a time
_MAX_STEP = 0.25  # a batched step longer than this is scaled down to it
_REFINE_ITERS = 50  # Gauss-Newton sweeps of refine before it gives up


def refine(system, z0, tol=1e-10):
    """Drive the residual below tol from z0; returns the corrected point.

    Raises ConvergenceError after _REFINE_ITERS sweeps, BoundaryExitError if
    the iterate leaves the chart interior (negative boundary margin).
    """
    z = np.array(z0, dtype=float)
    best = None
    for _ in range(_REFINE_ITERS):
        F, J = system.linearize(z)
        r = float(np.linalg.norm(F))
        if not np.isfinite(r):
            raise ConvergenceError("residual is not finite")
        if r <= tol:
            return z
        step = np.linalg.lstsq(J, -F, rcond=None)[0]
        # backtrack: plain Gauss-Newton overshoots on strongly curved residuals
        for _ in range(8):
            trial = z + step
            rt = float(np.linalg.norm(system.residual(trial)))
            if np.isfinite(rt) and rt < r:
                break
            step = 0.5 * step
        else:
            raise ConvergenceError(f"corrector stalled at residual {r:.3e}")
        z = trial
        if np.min(system.boundary_margins(z)) < 0.0:
            raise BoundaryExitError("corrector left the chart interior")
        best = r
    raise ConvergenceError(f"no convergence in {_REFINE_ITERS} iterations (residual {best:.3e})")


def _gn_step(J, F, damping=1e-12):
    """Batched Gauss-Newton step via regularized normal equations.

    J: (B, k, m), F: (B, k).  Uses J^T J + lam I for k >= m and the
    minimum-norm form J^T (J J^T + lam I)^{-1} otherwise.
    """
    k, m = J.shape[-2:]
    Jt = np.swapaxes(J, -1, -2)
    if k >= m:
        A = Jt @ J
        lam = damping * (1.0 + np.trace(A, axis1=-2, axis2=-1) / m)
        A = A + lam[:, None, None] * np.eye(m)
        rhs = -(Jt @ F[..., None])
        return np.linalg.solve(A, rhs)[..., 0]
    A = J @ Jt
    lam = damping * (1.0 + np.trace(A, axis1=-2, axis2=-1) / k)
    A = A + lam[:, None, None] * np.eye(k)
    w = np.linalg.solve(A, -F[..., None])
    return (Jt @ w)[..., 0]


def _gn_sweep(system, Z, sweep, tol, prune_after, prune_level):
    """One sweep on rows Z: (the rows converged at it, the stepped rows kept)."""
    F, J = system.linearize(Z)
    rn = np.linalg.norm(F, axis=-1)
    ok = np.isfinite(rn)
    conv = ok & (rn <= tol)
    keep = ok & ~conv
    if sweep >= prune_after:
        keep &= rn < prune_level
    found = Z[conv]
    Z, F, J = Z[keep], F[keep], J[keep]
    if Z.shape[0] == 0:
        return found, Z
    step = _gn_step(J, F)
    ns = np.linalg.norm(step, axis=-1, keepdims=True)
    step = np.where(ns > _MAX_STEP, step * (_MAX_STEP / np.maximum(ns, 1e-300)), step)
    return found, Z + step


def _gn_sweeps(system, Z, tol, max_iter, prune_after, prune_level):
    """The sweep loop on one block of seeds: [(sweep, rows converged at it)].

    Each sweep runs the block's live rows in contiguous chunks of at most
    ``_SWEEP_ROWS``, so the sweep temporaries are a chunk's: small enough
    for the allocator to keep in the heap and reuse, where a whole block's
    would be mapped and unmapped again on every sweep.
    """
    done = []
    for sweep in range(max_iter):
        parts = [
            _gn_sweep(system, Z[i : i + _SWEEP_ROWS], sweep, tol, prune_after, prune_level)
            for i in range(0, len(Z), _SWEEP_ROWS)
        ]
        conv = [c for c, _ in parts if len(c)]
        if conv:
            done.append((sweep, np.concatenate(conv)))
        Z = np.concatenate([z for _, z in parts])
        if Z.shape[0] == 0:
            break
    return done


def gauss_newton_batch(
    system,
    seeds,
    tol=1e-11,
    max_iter=30,
    prune_after=3,
    prune_level=0.5,
    margin_floor=1e-3,
):
    """Run Gauss-Newton on every seed, a block of rows at a time; return the converged points.

    seeds is a (B, system.chart_dim) array.  Seeds that blow up, stop being
    finite, or stay above prune_level after prune_after sweeps are dropped.
    Returns an array (C, m) of points with residual norm <= tol whose
    boundary margin exceeds margin_floor, ordered by the sweep they
    converged at and then by seed; the floor discards the exact but
    degenerate zeros sitting on the chart boundary (coincident-vertex
    configurations), which are strong Newton attractors but carry no
    geometry.
    """
    Z = np.array(seeds, dtype=float)
    m = system.chart_dim
    if Z.ndim != 2 or Z.shape[1] != m:
        raise DomainError(f"seeds must be an array of shape (B, {m}), not {Z.shape}")
    sweeps = functools.partial(
        _gn_sweeps, system, tol=tol, max_iter=max_iter, prune_after=prune_after, prune_level=prune_level
    )
    blocks = [Z[i : i + _BLOCK_ROWS] for i in range(0, len(Z), _BLOCK_ROWS)]
    done = [part for found in _threads.parallel_map(sweeps, blocks) for part in found]
    if not done:
        return np.empty((0, m))
    done.sort(key=lambda part: part[0])  # stable: block order within a sweep
    out = np.vstack([rows for _, rows in done])
    margins = system.boundary_margins(out)
    return out[margins > margin_floor]


def smallest_singular_ratio(system, z):
    """sigma_min / sigma_max of the Jacobian; near zero means a solution family."""
    s = np.linalg.svd(system.jacobian(np.asarray(z, dtype=float)), compute_uv=False)
    return float(s[-1] / s[0]) if s[0] > 0 else 0.0
