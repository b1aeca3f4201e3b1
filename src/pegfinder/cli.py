"""Command-line surface.

Each subcommand is one entry of ``_COMMANDS``: its help text, the subjects
it takes, its own flags and its runner.  Subcommands: find-square,
find-rect, find-ngon, count-special, triangle, knot-rhombus, octahedra,
corpus-list.  Common flags: --curve FILE (any spec, see
``corpus.from_spec``) or --corpus NAME (plus the entry's parameters like
--a/--b/--degree, which ``corpus.corpus_params`` names), --seed (of the
corpus entries that take one and the octahedra population), --tol, --json
OUT, --svg OUT.  triangle takes --tol only with --field2 (a distance field
spec): the one-field search reads no tolerance.

Exit codes: 0 success, 1 numerical failure (diagnostics in the JSON
document when requested), 2 usage error (bad flags, unreadable or invalid
spec files, --curve together with --corpus, corpus parameters without
--corpus or not taken by the entry, bad settings, violated preconditions).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from collections import namedtuple
from pathlib import Path

import numpy as np

from .corpus import corpus as corpus_build
from .corpus import corpus_list, corpus_params, from_spec
from .counting import count_special_quads
from .curves import ClosedCurve, EmbeddedSphere
from .errors import DomainError, PegfinderError
from .fields import DistanceField
from .polygons import vertices
from .report import ResultDocument, branch_dict, dumps
from .searches import (
    edge_ratio_branches,
    find_equilateral_triangle,
    find_octahedra,
    find_planar_rhombus,
    find_rectangle,
    find_square,
    find_two_metric_triangle,
    winding_sum,
)
from .svg import render_octahedron_svg, render_svg
from .tracing import TraceSettings


# one subcommand: its help, the subject types it takes and how the usage
# error names them, run(args, subject, settings, doc) -> SVG text or None,
# its own flags as (flag, argparse keywords) and read(args), which converts
# their values before any search
_Command = namedtuple("_Command", "help subjects subject_name run flags read", defaults=((), None))


def _build_parser():
    ap = argparse.ArgumentParser(prog="pegfinder", description=__doc__)
    sub = ap.add_subparsers(dest="cmd", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        p.add_argument("--curve", help="curve, field or sphere spec file (JSON)")
        p.add_argument("--corpus", help="corpus entry name (see corpus-list)")
        p.add_argument("--seed", type=int, default=0, help="seeds seeded corpus entries and the octahedra population")
        p.add_argument("--tol", type=float, help=f"corrector tolerance (default {TraceSettings.corrector_tol:g})")
        p.add_argument("--json", dest="json_out", metavar="OUT.json")
        p.add_argument("--svg", dest="svg_out", metavar="OUT.svg")
        for flag, kwargs in command.flags:
            p.add_argument(flag, **kwargs)
    sub.add_parser("corpus-list", help="list the built-in curve/field inventory")
    return ap


def _corpus_params(ap, extras):
    """Parse trailing --key value pairs as corpus parameters."""
    flags, vals = extras[::2], extras[1::2]
    if len(flags) != len(vals) or not all(f.startswith("--") for f in flags):
        ap.error(f"unrecognized arguments: {' '.join(extras)}")
    params = {}
    for flag, val in zip(flags, vals):
        key = flag[2:].replace("-", "_")
        try:
            num = float(val)
            params[key] = int(num) if num.is_integer() and "." not in val and "e" not in val.lower() else num
        except ValueError:
            params[key] = val
    return params


def _read_spec(path):
    with open(path) as fh:
        spec = json.load(fh)
    if not isinstance(spec, dict) or not isinstance(spec.get("kind"), str):
        raise DomainError(f"{path}: a spec must be a JSON object with a string \"kind\"")
    return spec


def _load_subject(args, params):
    if args.curve and args.corpus:
        raise DomainError("--curve and --corpus both name a subject; give one of them")
    if params and not args.corpus:
        raise DomainError(f"corpus parameters ({', '.join('--' + k for k in params)}) need --corpus NAME")
    if args.curve:
        return from_spec(_read_spec(args.curve))
    if args.corpus:
        if args.seed and "seed" in corpus_params(args.corpus):
            params = {"seed": args.seed, **params}
        return corpus_build(args.corpus, **params)
    if args.cmd == "octahedra":
        return corpus_build("scaled-sphere", lz=args.lambda_z)
    raise DomainError("need --curve FILE or --corpus NAME")


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    ap = _build_parser()
    args, extras = ap.parse_known_args(argv)
    if args.cmd == "corpus-list":
        for name, doc in corpus_list():
            print(f"{name:16s} {doc}")
        return 0
    command = _COMMANDS[args.cmd]
    params = _corpus_params(ap, extras)
    t0 = time.time()
    try:
        if command.read:
            command.read(args)
        tol = TraceSettings.corrector_tol if args.tol is None else args.tol
        settings = TraceSettings(corrector_tol=tol, seed=args.seed)
        subject = _load_subject(args, params)
    except (OSError, ValueError, TypeError, KeyError, PegfinderError) as err:
        # unreadable input, bad settings or corpus parameters: usage errors
        print(f"pegfinder {args.cmd}: {err}", file=sys.stderr)
        return 2
    doc = ResultDocument(
        command=["pegfinder", args.cmd] + argv[1:], subject=subject.spec(), settings=dataclasses.asdict(settings)
    )
    svg_text, code = None, 0
    try:
        if not isinstance(subject, command.subjects):
            raise DomainError(f"{args.cmd} needs {command.subject_name}, not a {doc.subject['kind']}")
        svg_text = command.run(args, subject, settings, doc)
    except PegfinderError as err:
        doc.status = "error"
        doc.result = {"error": type(err).__name__, "message": str(err), "diagnostic": getattr(err, "diagnostic", {})}
        print(f"pegfinder {args.cmd}: {err}", file=sys.stderr)
        code = 2 if isinstance(err, DomainError) else 1
    doc.wall_time_ms = 1000.0 * (time.time() - t0)
    if args.json_out:
        Path(args.json_out).write_text(doc.to_json() + "\n")
    if args.svg_out and svg_text is not None:
        Path(args.svg_out).write_text(svg_text + "\n")
    if code == 0:
        print(dumps(doc.result))
    return code


def _find_square(args, curve, settings, doc):
    square, prov = find_square(curve, settings)
    doc.result = {"square": square, "vertex_params": vertices(square).tolist(), "provenance": prov}
    doc.verdicts = {k: prov[k] for k in ("agrees", "route", "family_detected")}
    doc.counts = {"orbit_count": prov["newton_orbit_count"]}
    return render_svg(curve, polygons=[vertices(square)], annotations=[(vertices(square), "square")])


def _find_rect(args, curve, settings, doc):
    rect, info = find_rectangle(curve, args.ratio, settings, cross_check=args.cross_check)
    doc.result = {"parallelogram": rect, "vertex_params": vertices(rect).tolist(), **info}
    return render_svg(curve, polygons=[vertices(rect)])


def _read_ngon(args):
    args.ratios = [float(x) for x in args.ratios.split(",")] if args.ratios else None


def _find_ngon(args, curve, settings, doc):
    branches = edge_ratio_branches(curve, args.n, args.ratios, settings)
    doc.branches = [branch_dict(b) for b in branches]
    doc.events = [ev for b in doc.branches for ev in b["events"]]
    doc.result = {
        "winding_sum": winding_sum(branches),
        "branch_count": len(branches),
        "isotropy_orders": [b.isotropy_order for b in branches if b.closed],
    }
    return render_svg(curve, polygons=[vertices(b.system.to_param(b.points[0])) for b in branches[:3]])


def _count_special(args, source, settings, doc):
    report = count_special_quads(source, args.size, settings=settings)
    doc.counts = report.to_dict()
    doc.result = {"count": report.total, "parity": report.verdicts.get("parity")}
    doc.verdicts = report.verdicts
    if not isinstance(source, ClosedCurve):
        return None
    polys = [
        np.array([o["t"], o["t"] + o["u1"], o["t"] + o["u1"] + o["u2"], o["t"] + o["size"]])
        for o in report.orbits[:8]
    ]
    notes = [(poly, f"size {report.orbits[k]['size']:.3f}") for k, poly in enumerate(polys)]
    return render_svg(source, polygons=polys, annotations=notes)


def _read_triangle(args):
    if args.tol is not None and not args.field2:
        raise DomainError("--tol needs --field2: the one-field triangle search reads no tolerance")
    args.field2 = from_spec(_read_spec(args.field2)) if args.field2 else None
    if args.field2 is not None and not isinstance(args.field2, DistanceField):
        raise DomainError(f"--field2 needs a distance field; kind {args.field2.spec()['kind']!r} is not one")


def _triangle(args, source, settings, doc):
    if args.field2 is not None:
        verts, info = find_two_metric_triangle(source, args.field2, settings)
    else:
        verts, info = find_equilateral_triangle(source)
    doc.result = {"vertex_params": list(verts), **info}
    drawing = source if isinstance(source, ClosedCurve) else source.curve
    return render_svg(drawing or corpus_build("circle"), polygons=[np.asarray(verts)])


def _knot_rhombus(args, curve, settings, doc):
    rhombus, info = find_planar_rhombus(curve, settings)
    doc.result = {"rhombus": rhombus, "vertex_params": vertices(rhombus).tolist(), **info}
    return render_svg(curve, polygons=[vertices(rhombus)], annotations=[(vertices(rhombus), "planar rhombus")])


def _octahedra(args, sphere, settings, doc):
    comps, info = find_octahedra(sphere, settings)
    doc.result = dict(info)
    doc.branches = [branch_dict(c) for c in comps[:4]]
    doc.counts = {"components": info["components"]}
    return render_octahedron_svg(sphere, comps[0].points[0].reshape(6, 3))


_CURVE = (ClosedCurve, "a curve")
_CURVE_OR_FIELD = ((ClosedCurve, DistanceField), "a curve or a distance field")
_COMMANDS = {
    "find-square": _Command("inscribed square via invariant rhombus family + Newton", *_CURVE, _find_square),
    "find-rect": _Command(
        "inscribed parallelogram/rectangle of prescribed aspect ratio", *_CURVE, _find_rect,
        (("--ratio", dict(type=float, required=True)), ("--cross-check", dict(action="store_true"))),
    ),
    "find-ngon": _Command(
        "edge-regular (or prescribed-ratio) n-gon branches and windings", *_CURVE, _find_ngon,
        (("--n", dict(type=int, required=True)), ("--ratios", dict(help="comma-separated edge ratios (default all 1)"))),
        _read_ngon,
    ),
    "count-special": _Command(
        "count special quadrilaterals of a given size", *_CURVE_OR_FIELD, _count_special,
        (("--size", dict(type=float, required=True)),),
    ),
    "triangle": _Command(
        "equilateral triangle of a distance field", *_CURVE_OR_FIELD, _triangle,
        (("--field2", dict(help="second distance field spec file (JSON)")),), _read_triangle,
    ),
    "knot-rhombus": _Command("planar rhombus on a space curve", *_CURVE, _knot_rhombus),
    "octahedra": _Command(
        "regular octahedron circles on a scaled sphere", EmbeddedSphere, "a scaled sphere", _octahedra,
        (("--lambda-z", dict(type=float, default=0.5, dest="lambda_z")),),
    ),
}


if __name__ == "__main__":
    sys.exit(main())
