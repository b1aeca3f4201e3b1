"""Scalar and per-item references that the tests compare the program's
batched paths against.  No program code calls them."""

import numpy as np

from pegfinder.tracing import _segment_dists


def chain_distance(system, chain, q):
    """Distance from point q to the sampled chain (with segment projection):
    the scalar form of ``tracing.near_chain``."""
    rel = system.chart_diff(chain, q)
    point_d = np.linalg.norm(rel, axis=-1)
    if chain.shape[0] < 2:
        return float(np.min(point_d))
    return float(min(np.min(point_d), np.min(_segment_dists(rel))))


def relabel_octahedron(z, sigma):
    """The octahedron chart points z (..., 18) with vertex v moved to label
    sigma[v], one permutation at a time (``OctahedronSystem.images`` makes
    all of them at once)."""
    q = np.asarray(z, dtype=float).reshape(np.shape(z)[:-1] + (6, 3))
    out = np.empty_like(q)
    out[..., list(sigma), :] = q
    return out.reshape(np.shape(z))
