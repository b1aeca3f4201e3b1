"""Command-line surface.

Subcommands: find-square, find-rect, find-ngon, count-special, triangle,
knot-rhombus, octahedra, corpus-list.  Common flags: --curve FILE (any
spec, see ``corpus.from_spec``) or --corpus NAME (plus corpus parameters
like --a/--b/--degree), --seed (of seeded corpus entries and the octahedra
population), --tol, --json OUT, --svg OUT.  triangle takes --tol only with
--field2 (a distance field spec): the one-field search reads no tolerance.

Exit codes: 0 success, 1 numerical failure (diagnostics in the JSON
document when requested), 2 usage error (bad flags, unreadable or invalid
spec files, bad settings, violated preconditions).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time

import numpy as np

from .corpus import corpus as corpus_build
from .corpus import corpus_list, from_spec
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


def _common(parser):
    parser.add_argument("--curve", help="curve, field or sphere spec file (JSON)")
    parser.add_argument("--corpus", help="corpus entry name (see corpus-list)")
    parser.add_argument("--seed", type=int, default=0, help="seeds seeded corpus entries and the octahedra population")
    default_tol = TraceSettings.corrector_tol
    parser.add_argument("--tol", type=float, help=f"corrector tolerance (default {default_tol:g})")
    parser.add_argument("--json", dest="json_out", metavar="OUT.json")
    parser.add_argument("--svg", dest="svg_out", metavar="OUT.svg")


def _build_parser():
    ap = argparse.ArgumentParser(prog="pegfinder", description=__doc__)
    sub = ap.add_subparsers(dest="cmd", required=True)
    for name, help_text in [
        ("find-square", "inscribed square via invariant rhombus family + Newton"),
        ("find-rect", "inscribed parallelogram/rectangle of prescribed aspect ratio"),
        ("find-ngon", "edge-regular (or prescribed-ratio) n-gon branches and windings"),
        ("count-special", "count special quadrilaterals of a given size"),
        ("triangle", "equilateral triangle of a distance field"),
        ("knot-rhombus", "planar rhombus on a space curve"),
        ("octahedra", "regular octahedron circles on a scaled sphere"),
        ("corpus-list", "list the built-in curve/field inventory"),
    ]:
        p = sub.add_parser(name, help=help_text)
        if name != "corpus-list":
            _common(p)
        if name == "find-rect":
            p.add_argument("--ratio", type=float, required=True)
            p.add_argument("--cross-check", action="store_true")
        if name == "find-ngon":
            p.add_argument("--n", type=int, required=True)
            p.add_argument("--ratios", help="comma-separated edge ratios (default all 1)")
        if name == "count-special":
            p.add_argument("--size", type=float, required=True)
        if name == "triangle":
            p.add_argument("--field2", help="second distance field spec file (JSON)")
        if name == "octahedra":
            p.add_argument("--lambda-z", type=float, default=0.5, dest="lambda_z")
    return ap


def _corpus_params(extras):
    """Parse trailing --key value pairs as corpus parameters."""
    params = {}
    i = 0
    while i < len(extras):
        tok = extras[i]
        if not tok.startswith("--") or i + 1 >= len(extras):
            raise SystemExit(2)
        key = tok[2:].replace("-", "_")
        val = extras[i + 1]
        try:
            num = float(val)
            params[key] = int(num) if num.is_integer() and "." not in val and "e" not in val.lower() else num
        except ValueError:
            params[key] = val
        i += 2
    return params


def _read_spec(path):
    with open(path) as fh:
        spec = json.load(fh)
    if not isinstance(spec, dict) or not isinstance(spec.get("kind"), str):
        raise DomainError(f"{path}: a spec must be a JSON object with a string \"kind\"")
    return spec


def _load_subject(args, params):
    if args.curve:
        return from_spec(_read_spec(args.curve))
    if args.corpus:
        if "seed" not in params and args.seed:
            try:
                return corpus_build(args.corpus, seed=args.seed, **params)
            except TypeError:
                pass
        return corpus_build(args.corpus, **params)
    if args.cmd == "octahedra":
        return corpus_build("scaled-sphere", lz=args.lambda_z)
    raise DomainError("need --curve FILE or --corpus NAME")


def _write_outputs(args, doc: ResultDocument, svg_text=None):
    if args.json_out:
        with open(args.json_out, "w") as fh:
            fh.write(doc.to_json())
            fh.write("\n")
    if args.svg_out and svg_text is not None:
        with open(args.svg_out, "w") as fh:
            fh.write(svg_text)
            fh.write("\n")


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    ap = _build_parser()
    args, extras = ap.parse_known_args(argv)
    if args.cmd == "corpus-list":
        for name, doc in corpus_list():
            print(f"{name:16s} {doc}")
        return 0
    try:
        params = _corpus_params(extras)
    except SystemExit:
        ap.error(f"unrecognized arguments: {' '.join(extras)}")
    t0 = time.time()
    try:
        if args.cmd == "triangle" and args.tol is not None and not args.field2:
            raise DomainError("--tol needs --field2: the one-field triangle search reads no tolerance")
        tol = TraceSettings.corrector_tol if args.tol is None else args.tol
        settings = TraceSettings(corrector_tol=tol, seed=args.seed)
        subject = _load_subject(args, params)
        field2 = from_spec(_read_spec(args.field2)) if getattr(args, "field2", None) else None
        if field2 is not None and not isinstance(field2, DistanceField):
            raise DomainError(f"--field2 needs a distance field; kind {field2.spec()['kind']!r} is not one")
        if getattr(args, "ratios", None):
            args.ratios = [float(x) for x in args.ratios.split(",")]
    except (OSError, ValueError, TypeError, KeyError, PegfinderError) as err:
        # unreadable input, bad settings or corpus parameters: usage errors
        print(f"pegfinder {args.cmd}: {err}", file=sys.stderr)
        return 2
    doc = ResultDocument(
        command=["pegfinder", args.cmd] + argv[1:], subject={}, settings=dataclasses.asdict(settings)
    )
    svg_text = None
    try:
        svg_text = _run(args, subject, field2, settings, doc)
    except PegfinderError as err:
        doc.status = "error"
        doc.result = {
            "error": type(err).__name__,
            "message": str(err),
            "diagnostic": getattr(err, "diagnostic", {}),
        }
        doc.wall_time_ms = 1000.0 * (time.time() - t0)
        _write_outputs(args, doc)
        print(f"pegfinder {args.cmd}: {err}", file=sys.stderr)
        return 2 if isinstance(err, DomainError) else 1
    doc.wall_time_ms = 1000.0 * (time.time() - t0)
    _write_outputs(args, doc, svg_text)
    print(dumps(doc.result))
    return 0


# the subject each command works on, and how to name it in the usage error
_SUBJECTS = {
    "find-square": (ClosedCurve, "a curve"),
    "find-rect": (ClosedCurve, "a curve"),
    "find-ngon": (ClosedCurve, "a curve"),
    "knot-rhombus": (ClosedCurve, "a curve"),
    "count-special": ((ClosedCurve, DistanceField), "a curve or a distance field"),
    "triangle": ((ClosedCurve, DistanceField), "a curve or a distance field"),
    "octahedra": (EmbeddedSphere, "a scaled sphere"),
}


def _run(args, subject, field2, settings, doc) -> str | None:
    cmd = args.cmd
    doc.subject = subject.spec()
    kinds, wanted = _SUBJECTS[cmd]
    if not isinstance(subject, kinds):
        raise DomainError(f"{cmd} needs {wanted}, not a {doc.subject['kind']}")
    if cmd == "octahedra":
        comps, info = find_octahedra(subject, settings)
        doc.result = dict(info)
        doc.branches = [branch_dict(c) for c in comps[:4]]
        doc.counts = {"components": info["components"]}
        q0 = comps[0].points[0]
        return render_octahedron_svg(subject, q0.reshape(6, 3))

    if cmd == "find-square":
        square, prov = find_square(subject, settings)
        doc.result = {"square": square, "vertex_params": vertices(square).tolist()}
        doc.verdicts = {k: prov[k] for k in ("agrees", "route", "family_detected")}
        doc.result["provenance"] = prov
        doc.counts = {"orbit_count": prov["newton_orbit_count"]}
        return render_svg(
            subject,
            polygons=[vertices(square)],
            annotations=[(vertices(square), "square")],
        )

    if cmd == "find-rect":
        rect, info = find_rectangle(subject, args.ratio, settings, cross_check=args.cross_check)
        doc.result = {"parallelogram": rect, "vertex_params": vertices(rect).tolist(), **info}
        return render_svg(subject, polygons=[vertices(rect)])

    if cmd == "find-ngon":
        branches = edge_ratio_branches(subject, args.n, args.ratios or None, settings)
        doc.branches = [branch_dict(b) for b in branches]
        doc.events = [ev for b in doc.branches for ev in b["events"]]
        doc.result = {
            "winding_sum": winding_sum(branches),
            "branch_count": len(branches),
            "isotropy_orders": [b.isotropy_order for b in branches if b.closed],
        }
        polys = [vertices(b.system.to_param(b.points[0])) for b in branches[:3]]
        return render_svg(subject, polygons=polys)

    if cmd == "count-special":
        report = count_special_quads(subject, args.size, settings=settings)
        doc.counts = report.to_dict()
        doc.result = {"count": report.total, "parity": report.verdicts.get("parity")}
        doc.verdicts = report.verdicts
        if isinstance(subject, ClosedCurve):
            polys = [
                np.array([o["t"], o["t"] + o["u1"], o["t"] + o["u1"] + o["u2"], o["t"] + o["size"]])
                for o in report.orbits[:8]
            ]
            notes = [(poly, f"size {report.orbits[k]['size']:.3f}") for k, poly in enumerate(polys)]
            return render_svg(subject, polygons=polys, annotations=notes)
        return None

    if cmd == "triangle":
        if field2 is not None:
            verts, info = find_two_metric_triangle(subject, field2, settings)
        else:
            verts, info = find_equilateral_triangle(subject)
        doc.result = {"vertex_params": list(verts), **info}
        drawing = subject if isinstance(subject, ClosedCurve) else getattr(subject, "curve", None)
        if drawing is None:
            drawing = corpus_build("circle")
        return render_svg(drawing, polygons=[np.asarray(verts)])

    if cmd == "knot-rhombus":
        rhombus, info = find_planar_rhombus(subject, settings)
        doc.result = {"rhombus": rhombus, "vertex_params": vertices(rhombus).tolist(), **info}
        return render_svg(
            subject,
            polygons=[vertices(rhombus)],
            annotations=[(vertices(rhombus), "planar rhombus")],
        )


if __name__ == "__main__":
    sys.exit(main())
