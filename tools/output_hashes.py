"""Print one hash per call, to compare two checkouts bit for bit.

    python3 tools/output_hashes.py > hashes.txt

Runs every operation of the `branch-trace` workload at seeds 0, 1 and 2
and every `count_squares` operation of `square-count` (see perfbench/),
then `find_square` on the six square-count curves, the raw
`gauss_newton_batch` zeros on `count_squares`' seed grid for
fourier-random d10 seed 1 and `cusp` (every converged row, in order, not
only the deduplicated orbits), `find_rectangle(ellipse, 2,
cross_check=True)`, `count_special_quads` on the spiral, the ellipse and
`field-sin-mod`, `edge_ratio_branches` on curves with free symmetry
orbits (fourier-random d10 seed 1 at n = 4 to 8, whose Z_n
fundamental-domain seed grids grow with n), `find_octahedra` at lz = 0.5
with settings seeds 1 and 2 and on a sphere scaled on two axes,
`find_two_metric_triangle` on the circle and `field-sin-mod` (these pin
the component-membership decisions of `tracing.near_chain`), and
`count_squares` on `field-random` seed 0 (a batched multistart on the
synthetic field's kernel), then one `pegfinder` call per command that the
benchmark's CLI calls leave out (`find-ngon --n 5 --corpus ellipse`,
`find-ngon --n 4 --ratios 1,1,1 --corpus fourier-random --seed 7`,
`knot-rhombus --corpus trefoil`, `octahedra --lambda-z 0.5`, `triangle
--corpus circle --field2` on the `field-sin-mod` spec, `count-special
--corpus field-sin-mod --size 0.25` and `find-rect --corpus ellipse
--ratio 2 --cross-check`, each writing out.json and out.svg), and prints
a SHA-256 prefix of each output followed by the call's label. An output
is hashed exactly: arrays by dtype, shape and bytes, floats by their hex
form, containers and dataclasses field by field (a branch's system by its
kind). The CLI
calls are hashed by their exit code and the files they write, with
``wall_time_ms`` zeroed. Run it on two checkouts and diff the outputs: a
change that claims bit-identical results prints the same lines.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import re
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (0, 1, 2)

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # as perfbench/run.py
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402
import workloads  # noqa: E402

import pegfinder as pf  # noqa: E402
from pegfinder import cli  # noqa: E402
from pegfinder.residuals import ResidualSystem  # noqa: E402
from pegfinder.searches import polygon_seed_grid  # noqa: E402


def feed(h, obj):
    """Feed an exact, type-tagged encoding of obj to the hash h."""
    if obj is None or isinstance(obj, (bool, int, str)):
        h.update(f"{type(obj).__name__}:{obj!r};".encode())
    elif isinstance(obj, float):
        h.update(f"float:{obj.hex()};".encode())
    elif isinstance(obj, np.ndarray):
        h.update(f"array:{obj.dtype.str}:{obj.shape};".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, np.generic):
        feed(h, obj.item())
    elif isinstance(obj, (list, tuple)):
        h.update(f"{type(obj).__name__}:{len(obj)};".encode())
        for item in obj:
            feed(h, item)
    elif isinstance(obj, dict):
        h.update(f"dict:{len(obj)};".encode())
        for key in sorted(obj, key=str):
            feed(h, key)
            feed(h, obj[key])
    elif isinstance(obj, ResidualSystem):
        h.update(f"system:{obj.kind};".encode())
    elif dataclasses.is_dataclass(obj):
        h.update(f"{type(obj).__name__};".encode())
        for f in dataclasses.fields(obj):
            feed(h, f.name)
            feed(h, getattr(obj, f.name))
    else:
        raise TypeError(f"no exact encoding for {type(obj).__name__}")


def square_count_zeros(curve):
    """count_squares' batched Gauss-Newton zeros, before orbit dedup."""
    sq = pf.SquareSystem(curve)
    seeds = polygon_seed_grid(4, 150, 24, sq.symmetry_order)
    return pf.gauss_newton_batch(sq, seeds, tol=1e-11, prune_after=1, prune_level=0.6)


def finder_calls():
    """(label, call): find_square on the square-count curves, the raw
    batched Gauss-Newton zeros of two of them on count_squares' grid, the
    rectangle finder with its branch cross-check on the ellipse, the
    special-quadrilateral count on the spiral, the ellipse and a field, the
    edge-ratio components of two curves with free orbits (one
    full-isotropy loop plus free Z_n orbits of loops, listed by images),
    the octahedron circles from two more seed populations and on a second
    sphere, the two-metric triangle, and the square count of a synthetic
    field."""
    curves = [
        (f"fourier-random d4 seed={s}", pf.corpus("fourier-random", degree=4, amp=0.3, seed=s))
        for s in workloads.C2_COUNTED
    ]
    curves += [
        (f"fourier-random d10 seed={s}", pf.corpus("fourier-random", degree=10, amp=0.6, seed=s))
        for s, _ in workloads.MULTI_ORBIT
    ]
    curves.append(("cusp", pf.corpus("cusp")))
    calls = [(f"find_square {label}", lambda c=c: pf.find_square(c)) for label, c in curves]
    for label, c in curves:
        if label in ("fourier-random d10 seed=1", "cusp"):
            calls.append((
                f"gauss_newton_batch square-count grid {label}",
                lambda c=c: square_count_zeros(c),
            ))
    ellipse = pf.corpus("ellipse", a=2, b=1)
    calls.append(("find_rectangle ellipse r=2 cross_check", lambda: pf.find_rectangle(ellipse, 2, cross_check=True)))
    spiral = pf.corpus("spiral")
    for eps in (0.1, 0.5):
        calls.append((
            f"count_special_quads spiral eps={eps}",
            lambda eps=eps: pf.count_special_quads(spiral, eps, nt=96, m=10, verify_square=False),
        ))
    field = pf.corpus("field-sin-mod")
    calls.append(("count_special_quads ellipse eps=0.3", lambda: pf.count_special_quads(ellipse, 0.3)))
    calls.append(("count_special_quads field-sin-mod eps=0.25", lambda: pf.count_special_quads(field, 0.25)))
    for seed, n in ((0, 3), (1, 4), (1, 5), (1, 6), (1, 7), (1, 8)):
        curve = pf.corpus("fourier-random", degree=10, amp=0.6, seed=seed)
        calls.append((
            f"edge_ratio_branches d10 seed={seed} n={n}",
            lambda c=curve, n=n: pf.edge_ratio_branches(c, n),
        ))
    sphere = pf.corpus("scaled-sphere", lz=0.5)
    for seed in (1, 2):
        calls.append((
            f"find_octahedra lz=0.5 seed={seed}",
            lambda seed=seed: pf.find_octahedra(sphere, pf.TraceSettings(seed=seed)),
        ))
    calls.append((
        "find_octahedra lx=1.2 lz=0.6",
        lambda: pf.find_octahedra(pf.corpus("scaled-sphere", lx=1.2, lz=0.6)),
    ))
    circle = pf.corpus("circle")
    calls.append(("find_two_metric_triangle circle field-sin-mod", lambda: pf.find_two_metric_triangle(circle, field)))
    field_random = pf.corpus("field-random", seed=0)
    calls.append(("count_squares field-random seed=0", lambda: pf.count_squares(field_random)))
    return calls


def cli_calls(workdir):
    """(label, call): `pegfinder` calls in workdir, each returning its exit
    code; the triangle call first writes the field2.json it reads."""
    field2 = json.dumps(pf.corpus("field-sin-mod").spec())
    commands = [
        "find-ngon --n 5 --corpus ellipse",
        "find-ngon --n 4 --ratios 1,1,1 --corpus fourier-random --seed 7",
        "knot-rhombus --corpus trefoil",
        "octahedra --lambda-z 0.5",
        "triangle --corpus circle --field2 field2.json",
        "count-special --corpus field-sin-mod --size 0.25",
        "find-rect --corpus ellipse --ratio 2 --cross-check",
    ]

    def run(argv):
        home = os.getcwd()
        os.chdir(workdir)
        try:
            if "--field2" in argv:
                Path("field2.json").write_text(field2)
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                return cli.main(argv + ["--json", "out.json", "--svg", "out.svg"])
        finally:
            os.chdir(home)

    return [(f"pegfinder {c}", lambda argv=c.split(): run(argv)) for c in commands]


def output_hash(run, workdir):
    h = hashlib.sha256()
    try:
        feed(h, run())
    except Exception as err:  # a raised error is an output too
        feed(h, f"{type(err).__name__}: {err}")
    for name in sorted(os.listdir(workdir)):  # files the CLI calls wrote
        path = os.path.join(workdir, name)
        with open(path, "rb") as fh:
            text = re.sub(rb'"wall_time_ms":[0-9.e+-]+', b'"wall_time_ms":0', fh.read())
        feed(h, name)
        h.update(text)
        os.remove(path)
    return h.hexdigest()[:16]


def main():
    workdir = tempfile.mkdtemp(prefix="output-hashes-")
    try:
        for seed in SEEDS:
            for op in workloads.build("branch-trace", seed, str(ROOT), workdir):
                print(f"{output_hash(op.run, workdir)}  branch-trace seed={seed} {op.label}", flush=True)
        for op in workloads.build("square-count", 0, str(ROOT), workdir):
            print(f"{output_hash(op.run, workdir)}  square-count {op.label}", flush=True)
        for label, run in finder_calls() + cli_calls(workdir):
            print(f"{output_hash(run, workdir)}  {label}", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    main()
