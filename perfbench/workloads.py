"""The benchmark's two workloads: subjects, operations and their checks.

`build(name, seed, root, workdir)` is the set-up: it builds every subject
of the workload (corpus objects, the result-document schema, golden
documents) and returns the operation list.  Each `Op` has a `run` (the
timed call into pegfinder) and a `check` that raises `CheckFailure` when
the output is wrong.  The expected values are arguments of the op
constructors, so the self-test can build the same ops with deliberately
wrong references.

The workload seed moves a window over pools of curve and field seeds that
all ran without a failed check when the benchmark was written.  The
seed-picked inputs get their invariants checked, the fixed inputs their
exact references.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

import numpy as np

import pegfinder as pf
from pegfinder import cli

C2_POOL = tuple(range(1, 41))  # fourier-random degree 4 / amp 0.3 seeds (the C2 family)
# count_squares on C2 pool curves took 3.4 s to 7.2 s, which made the pass
# time of square-count depend on the seed; it counts two fixed ones, 1 orbit each.
C2_COUNTED = (1, 2)
FIELD_POOL = tuple(range(50))  # field-random seeds of the triangle criterion
# fourier-random degree 10 / amp 0.6 seeds with 7, 3 and 5 square orbits, and
# the polyline cusp with 3: multi-orbit curves, the same at every seed.
MULTI_ORBIT = ((1, 7), (2, 3), (4, 5))
CUSP_ORBITS = 3
# argv of the golden-document tests, and the documents they must reproduce
GOLDEN = (
    (["find-square", "--corpus", "ellipse", "--a", "2", "--b", "1", "--json", "fs.json", "--svg", "fs.svg"],
     "find_square_ellipse.json", "find_square_ellipse.svg"),
    (["count-special", "--corpus", "circle", "--size", "0.1", "--json", "cs.json"],
     "count_special_circle.json", None),
    (["find-rect", "--corpus", "circle", "--ratio", "2", "--json", "rect.json"],
     "find_rect_circle.json", None),
)


class CheckFailure(Exception):
    """An operation's output failed its correctness check."""


def expect(ok, message):
    if not ok:
        raise CheckFailure(message)


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], None]


def attempt(op):
    """Time op.run, then check its output outside the timed region.

    Returns (seconds, error): error is None on success, else the exception
    the call raised or the check reported; either counts as a failed op.
    """
    start = perf_counter()
    try:
        result = op.run()
    except Exception as err:  # a failed call is recorded, the run goes on
        return perf_counter() - start, err
    seconds = perf_counter() - start
    try:
        op.check(result)
    except Exception as err:  # CheckFailure, or a check that could not read the output
        return seconds, err
    return seconds, None


def pick(pool, seed, k):
    """k consecutive pool entries, the window moved by the seed."""
    return [pool[(seed * k + i) % len(pool)] for i in range(k)]


# --- square-count ------------------------------------------------------------------


def square_count_op(label, curve, orbits):
    def check(report):
        expect(report.orbit_count % 2 == 1 and report.verdicts["parity_odd"],
               f"even square-orbit count {report.orbit_count}")
        expect(report.orbit_count == orbits, f"{report.orbit_count} square orbits, expected {orbits}")

    return Op(label, lambda: pf.count_squares(curve), check)


def square_count():
    ops = [
        square_count_op(f"count_squares fourier-random d4 seed={s}",
                        pf.corpus("fourier-random", degree=4, amp=0.3, seed=s), 1)
        for s in C2_COUNTED
    ]
    ops += [
        square_count_op(f"count_squares fourier-random d10 seed={s}",
                        pf.corpus("fourier-random", degree=10, amp=0.6, seed=s), n)
        for s, n in MULTI_ORBIT
    ]
    ops.append(square_count_op("count_squares cusp", pf.corpus("cusp"), CUSP_ORBITS))
    return ops


# --- branch-trace ------------------------------------------------------------------


def octahedra_op(sphere, settings, components=16):
    def check(out):
        _, info = out
        expect(info["components"] == components, f"{info['components']} octahedron components")
        expect(info["max_residual"] < 1e-8, f"octahedron residual {info['max_residual']:.1e}")

    return Op(f"find_octahedra lz={sphere.scale[2]:g} seed={settings.seed}", lambda: pf.find_octahedra(sphere, settings), check)


def rhombus_op(knot, settings):
    def check(out):
        _, info = out
        expect(info["residual"] < 1e-8, f"rhombus residual {info['residual']:.1e}")
        expect(info["coplanarity"] < 1e-6, f"rhombus coplanarity {info['coplanarity']:.1e}")

    return Op("find_planar_rhombus trefoil", lambda: pf.find_planar_rhombus(knot, settings), check)


def winding_op(label, curve, n, settings, winding=(1, -1)):
    def check(branches):
        total = pf.winding_sum(branches)
        expect(total in winding, f"winding sum {total}")
        expect(any(b.closed and b.isotropy_order == n for b in branches),
               f"no closed branch with isotropy {n}")

    return Op(f"edge_ratio_branches n={n} {label}", lambda: pf.edge_ratio_branches(curve, n, settings=settings), check)


def rectangle_op(curve, settings):
    def check(report):
        for verdict in ("every_closed_component_even", "total_matches_orbit_count"):
            expect(report.verdicts[verdict], f"rectangle bookkeeping: {verdict} is false")

    return Op("classify_rectangle_components ellipse",
              lambda: pf.classify_rectangle_components(curve, settings), check)


def branch_trace(seed, root, workdir):
    settings = pf.TraceSettings(seed=seed)
    ellipse = pf.corpus("ellipse", a=2, b=1)
    curves = [("ellipse", ellipse)] + [
        (f"fourier-random d4 seed={s}", pf.corpus("fourier-random", degree=4, amp=0.3, seed=s))
        for s in pick(C2_POOL, seed, 2)
    ]
    ops = [
        # one fixed seed population: how many of the 16 circles it traces
        # directly (13 to 16 over seeds 0-19) sets most of this op's time
        octahedra_op(pf.corpus("scaled-sphere", lz=0.5), pf.TraceSettings(seed=0)),
        rhombus_op(pf.corpus("trefoil"), settings),
    ]
    ops += [winding_op(label, c, n, settings) for n in (3, 4, 5) for label, c in curves]
    ops.append(rectangle_op(ellipse, settings))
    return ops + cli_calls(seed, root, workdir)


# --- CLI calls, at the end of branch-trace ------------------------------------------


def _strip_wall_time(text):
    return re.sub(r'"wall_time_ms":[0-9.e+-]+', '"wall_time_ms":0', text)


class Cli:
    """In-process `pegfinder` calls in one scratch directory, outputs checked
    against the result-document schema."""

    def __init__(self, workdir, schema):
        import jsonschema

        self.workdir = workdir
        self.validator = jsonschema.Draft202012Validator(schema)

    def run(self, argv):
        home = os.getcwd()
        os.chdir(self.workdir)
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                return cli.main(argv)
        finally:
            os.chdir(home)

    def read(self, name):
        with open(os.path.join(self.workdir, name)) as fh:
            return fh.read()

    def op(self, argv, check_doc, golden_json=None, golden_svg=None):
        out_json = argv[argv.index("--json") + 1]
        out_svg = argv[argv.index("--svg") + 1] if "--svg" in argv else None

        def check(code):
            try:
                expect(code == 0, f"exit code {code}")
                text = self.read(out_json)
                doc = json.loads(text)
                errors = [e.message for e in self.validator.iter_errors(doc)]
                expect(not errors, f"schema: {errors[:1]}")
                if golden_json is not None:
                    expect(_strip_wall_time(text) == _strip_wall_time(golden_json), f"{out_json} differs from golden")
                if out_svg is not None:
                    svg = self.read(out_svg)
                    expect(svg.startswith("<svg"), "no SVG written")
                    expect(golden_svg is None or svg == golden_svg, f"{out_svg} differs from golden")
                check_doc(doc)
            finally:  # the next call must write its own files, not pass on these
                for name in (out_json, out_svg):
                    if name is not None and os.path.exists(os.path.join(self.workdir, name)):
                        os.remove(os.path.join(self.workdir, name))

        return Op(" ".join(argv[: argv.index("--json")]), lambda: self.run(argv), check)


def _agrees(doc):
    expect(doc["verdicts"]["agrees"] is True, "find-square: swap and multistart squares disagree")


def _triangle(doc):
    r = doc["result"]
    verts = r["vertex_params"]
    spread = min(min(abs(a - b), 1 - abs(a - b)) for i, a in enumerate(verts) for b in verts[i + 1:])
    expect(r["residual"] < 1e-8 and spread > 1e-3, f"triangle residual {r['residual']:.1e} spread {spread:.1e}")


def _special(doc):
    if doc["subject"]["kind"] == "circle":
        expect(doc["result"]["count"] == 0, f"{doc['result']['count']} special quadrilaterals on the circle")
    v = doc["verdicts"]
    expect(v["parity"] == "odd" or v.get("square_exists") is True, "even parity without a square")


def _rect(doc):
    r = doc["result"]
    expect(r["residual"] < 1e-8, f"parallelogram residual {r['residual']:.1e}")
    if doc["subject"]["kind"] == "circle":
        u = r["parallelogram"]["gaps"][0]
        expect(abs(u - np.arctan(2) / np.pi) < 1e-8, f"circle ratio-2 rectangle gap {u}")


def cli_calls(seed, root, workdir):
    """In-process `pegfinder` calls: the golden commands, and a triangle on a
    seed-picked distance field, the one caller of `fields`."""
    with open(os.path.join(root, "docs", "result_document.schema.json")) as fh:
        runner = Cli(workdir, json.load(fh))

    def golden(name):
        if name is None:
            return None
        with open(os.path.join(root, "tests", "golden", name)) as fh:
            return fh.read()

    ops = [runner.op(list(argv), check, golden(j), golden(g))
           for (argv, j, g), check in zip(GOLDEN, (_agrees, _special, _rect))]
    field = pick(FIELD_POOL, seed, 1)[0]
    ops.append(runner.op(["triangle", "--corpus", "field-random", "--seed", str(field),
                          "--json", "tri.json", "--svg", "tri.svg"], _triangle))
    return ops


def build(name, seed, root, workdir):
    """Set-up: the workload's subjects and operation list for this seed."""
    if name == "square-count":
        return square_count()
    if name == "branch-trace":
        return branch_trace(seed, root, workdir)
    raise ValueError(f"unknown workload {name!r}")
