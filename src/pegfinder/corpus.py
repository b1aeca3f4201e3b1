"""Named inventory of curves, spheres, and distance fields used throughout.

Every entry is deterministic given (name, params, seed).  The JSON spec of a
corpus object records the name and parameters, so corpus objects round-trip
through curve spec files; ``from_spec`` is the one loader of every spec.
``corpus_params`` names the parameters an entry takes, read from its
builder's signature; ``corpus`` refuses any other with a ``DomainError``.
"""

from __future__ import annotations

import functools
import inspect

import numpy as np

from .curves import EmbeddedSphere, FourierCurve, PolylineCurve
from .errors import DomainError, UnknownCorpusError
from .fields import ChordalField, SyntheticField

_REGISTRY = {}


def _entry(name, doc):
    def deco(fn):
        _REGISTRY[name] = (fn, doc)
        return fn

    return deco


def corpus_params(name):
    """The parameter names of corpus entry name, read from its builder."""
    try:
        builder, _ = _REGISTRY[name]
    except KeyError:
        raise UnknownCorpusError(name) from None
    return tuple(inspect.signature(builder).parameters)


def corpus(name, **params):
    """Build a corpus object by name; unknown names raise UnknownCorpusError,
    parameters the entry does not take a DomainError."""
    takes = corpus_params(name)
    unknown = [k for k in params if k not in takes]
    if unknown:
        raise DomainError(
            f"corpus entry {name!r} takes {', '.join(takes) or 'no parameters'}, not {', '.join(unknown)}"
        )
    obj = _REGISTRY[name][0](**params)
    # stamp the corpus name and parameters onto the spec for round-tripping
    base_spec = obj.spec()
    merged = {"kind": name, **params}
    if "dim" in base_spec:
        merged["dim"] = base_spec["dim"]
    obj.spec = lambda merged=merged: dict(merged)
    return obj


# the keys each built-in spec kind reads without a default
_REQUIRED_KEYS = {"fourier": ("const", "cos", "sin"), "polyline": ("vertices",), "chordal": ("curve",)}


def from_spec(spec: dict):
    """Rebuild a curve, distance field or sphere from its JSON spec (the
    inverse of ``.spec()``): a ``fourier``, ``polyline``, ``chordal`` or
    ``synthetic-field`` spec, or a corpus entry with its parameters."""
    kind = spec.get("kind")
    missing = [k for k in _REQUIRED_KEYS.get(kind, ()) if k not in spec]
    if missing:
        needs = ", ".join(_REQUIRED_KEYS[kind])
        raise DomainError(f"a {kind} spec needs {needs}; this one lacks {', '.join(missing)}")
    if kind == "fourier":
        return FourierCurve(spec["const"], spec["cos"], spec["sin"])
    if kind == "polyline":
        return PolylineCurve(spec["vertices"])
    if kind == "chordal":
        return ChordalField(from_spec(spec["curve"]))
    if kind == "synthetic-field":
        return SyntheticField(spec.get("c0", 1.0), spec.get("ps", ()), spec.get("qs", ()), spec.get("rs", ()))
    # "dim" is stamped on a corpus curve's spec, not one of its parameters
    return corpus(kind, **{k: v for k, v in spec.items() if k not in ("kind", "dim")})


def corpus_list():
    """(name, docstring) pairs for every inventory entry."""
    return sorted((name, doc) for name, (fn, doc) in _REGISTRY.items())


def _fourier_fit(samples, degree):
    """Exact trig-polynomial coefficients from uniform samples (per column)."""
    n = samples.shape[0]
    F = np.fft.rfft(samples, axis=0) / n
    const = F[0].real
    cos = 2.0 * F[1 : degree + 1].real
    sin = -2.0 * F[1 : degree + 1].imag
    return const, cos.T, sin.T


@_entry("circle", "unit circle (radius r, default 1)")
def _circle(r=1.0):
    return FourierCurve([0.0, 0.0], [[r], [0.0]], [[0.0], [r]])


@_entry("ellipse", "axis-aligned ellipse (a cos, b sin); defaults a=2, b=1")
def _ellipse(a=2.0, b=1.0):
    return FourierCurve([0.0, 0.0], [[a], [0.0]], [[0.0], [b]])


@_entry("fourier-random", "radially perturbed circle (degree, amp, seed); always simple")
def _fourier_random(degree=4, amp=0.3, seed=0):
    # 1 + rho stays positive for |amp| < 1, so the radial graph is simple
    if not (float(degree).is_integer() and degree >= 1):
        raise DomainError(f"fourier-random needs an integral degree >= 1, not {degree!r}")
    if not abs(amp) < 1.0:
        raise DomainError(f"fourier-random needs a finite amplitude with |amp| < 1, not {amp!r}")
    degree = int(degree)
    rng = np.random.default_rng(int(seed))
    coeffs = rng.normal(size=(2, degree)) / np.arange(1, degree + 1)
    n = 256
    t = np.arange(n) / n
    ang = 2 * np.pi * t[:, None] * np.arange(1, degree + 1)
    rho = np.cos(ang) @ coeffs[0] + np.sin(ang) @ coeffs[1]
    rho *= amp / np.max(np.abs(rho))
    pts = (1.0 + rho)[:, None] * np.column_stack([np.cos(2 * np.pi * t), np.sin(2 * np.pi * t)])
    const, cos, sin = _fourier_fit(pts, degree + 1)
    return FourierCurve(const, cos, sin)


@_entry("spiral", "smooth closed spiral band (turns, r0, width, gap) with rounded caps")
def _spiral(turns=2.5, r0=0.15, width=0.1, gap=0.18, degree=100):
    return _spiral_cached(float(turns), float(r0), float(width), float(gap), int(degree))


@functools.lru_cache(maxsize=8)
def _spiral_cached(turns, r0, width, gap, degree):
    pitch = (width + gap) / (2 * np.pi)  # radius gained per radian
    phi_max = 2 * np.pi * turns

    def polar(r, phi):
        return np.column_stack([r * np.cos(phi), r * np.sin(phi)])

    m = 600
    phi = np.linspace(0.0, phi_max, m)
    inner = polar(r0 + pitch * phi, phi)
    outer = polar(r0 + pitch * phi + width, phi)[::-1]

    def cap(phi0, bulge):
        center = polar(np.array([r0 + pitch * phi0 + width / 2]), np.array([phi0]))[0]
        radial = np.array([np.cos(phi0), np.sin(phi0)])
        tangent = bulge * np.array([-np.sin(phi0), np.cos(phi0)])
        ang = np.linspace(0.0, np.pi, 60)[1:-1]
        return center + (width / 2) * (
            -np.cos(ang)[:, None] * radial + np.sin(ang)[:, None] * tangent
        )

    # inner arm out, rounded cap beyond phi_max, outer arm back, cap before 0
    loop = np.vstack([inner, cap(phi_max, +1.0)[:, :], outer, cap(0.0, -1.0)[::-1]])

    # constant-speed resampling before the Fourier fit
    seg = np.linalg.norm(np.diff(np.vstack([loop, loop[:1]]), axis=0), axis=1)
    s = np.concatenate([[0.0], np.cumsum(seg)])
    total = s[-1]
    n = 4096
    target = np.arange(n) / n * total
    idx = np.clip(np.searchsorted(s, target, side="right") - 1, 0, len(seg) - 1)
    lam = (target - s[idx]) / seg[idx]
    closed = np.vstack([loop, loop[:1]])
    pts = closed[idx] + lam[:, None] * (closed[idx + 1] - closed[idx])

    # traverse counter-clockwise
    area = 0.5 * np.sum(pts[:, 0] * np.roll(pts[:, 1], -1) - np.roll(pts[:, 0], -1) * pts[:, 1])
    if area < 0:
        pts = pts[::-1]

    const, cos, sin = _fourier_fit(pts, degree)
    return FourierCurve(const, cos, sin)


@_entry("cusp", "piecewise-linear deltoid: simple closed polyline with 3 cusps")
def _cusp(scale=1.0, npts=240):
    tau = 2 * np.pi * np.arange(int(npts)) / int(npts)
    x = scale * (2 * np.cos(tau) + np.cos(2 * tau)) / 3.0
    y = scale * (2 * np.sin(tau) - np.sin(2 * tau)) / 3.0
    return PolylineCurve(np.column_stack([x, y]))


@_entry("trefoil", "standard Fourier trefoil knot in R^3")
def _trefoil(r=1.0):
    # x = r (sin t + 2 sin 2t), y = r (cos t - 2 cos 2t), z = r sin 3t
    cos = [[0.0, 0.0, 0.0], [r, -2.0 * r, 0.0], [0.0, 0.0, 0.0]]
    sin = [[r, 2.0 * r, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, r]]
    return FourierCurve([0.0, 0.0, 0.0], cos, sin)


@_entry("tilted-circle", "planar unit circle tilted into R^3")
def _tilted_circle(angle=0.5):
    c, s = np.cos(angle), np.sin(angle)
    # circle in the plane spanned by (1,0,0) and (0,c,s)
    cos = [[1.0], [0.0], [0.0]]
    sin = [[0.0], [c], [s]]
    return FourierCurve([0.0, 0.0, 0.0], cos, sin)


@_entry("scaled-sphere", "unit sphere scaled along the axes (lx, ly, lz)")
def _scaled_sphere(lx=1.0, ly=1.0, lz=0.5):
    return EmbeddedSphere([lx, ly, lz])


@_entry("field-circle", "chordal field of the unit circle: 2|sin(pi(x-y))|")
def _field_circle():
    return ChordalField(corpus("circle"))


@_entry("field-sin-mod", "|sin(pi(x-y))| (1 + 0.1 cos(2 pi (x+y)))")
def _field_sin_mod():
    return SyntheticField(c0=0.5, ps=[0.05])


@_entry("field-random", "random positive symmetric modulation of the circle chord (seed)")
def _field_random(seed=0, strength=0.3):
    rng = np.random.default_rng(int(seed))
    raw = rng.uniform(-1.0, 1.0, size=6)
    raw *= strength / np.sum(np.abs(raw))
    return SyntheticField(c0=1.0, ps=raw[0:2], qs=raw[2:4], rs=raw[4:6])
