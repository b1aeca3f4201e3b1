"""pegfinder benchmark: one workload per process, closed loop, one client.

    python3 perfbench/run.py --workload square-count --seed 0 --seconds 60 --trace 0

Run from the root of a source checkout; the package is imported from its
`src/` directory and nowhere else.  The run builds the workload's subjects,
then runs its operation list round and round, each operation to completion
before the next, while the next operation is expected to end within
`--seconds`.  Every output is checked.  With `--trace 0` the last line of
standard output is the JSON result with the end-to-end metrics; with
`--trace 1` untraced and traced whole passes alternate and the result holds
the per-layer metrics.  A record of the run (environment, every metric,
failures) is written to `.bench_out/`.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 7
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())  # metric names and units
# One BLAS thread unless the caller chose otherwise: on two cores the BLAS
# pool and the pool of `parallel_map` would otherwise contend for them.
# Set before numpy is first imported; set-up probes inherit it.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")


def load_package():
    """Import pegfinder from this checkout's sources, never from elsewhere."""
    if not (SRC / "pegfinder" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no pegfinder sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import pegfinder

    if Path(pegfinder.__file__).resolve().parent != SRC / "pegfinder":
        raise SystemExit(f"perfbench: pegfinder imported from {pegfinder.__file__}, not {SRC}")


def setup_probe(args):
    """Fresh-process set-up time: import pegfinder and build every subject."""
    start = perf_counter()
    load_package()
    import workloads

    workloads.build(args.workload, args.seed, str(ROOT), str(OUT))
    return perf_counter() - start


def setup_seconds(args):
    """Median of SETUP_PROBES fresh-process set-ups."""
    argv = [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed), "--setup-probe"]
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise SystemExit(f"perfbench: set-up probe failed:\n{done.stderr}")
        times.append(float(done.stdout.split()[-1]))
    return statistics.median(times)


def environment(seed):
    import numpy
    import scipy

    from pegfinder import _threads

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": {
            k: os.environ.get(k, "unset") for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "pegfinder_threads_env": os.environ.get("PEGFINDER_THREADS", "unset"),
        "worker_count": _threads.worker_count(),
        "git_sha": git_sha(),
        "seed": seed,
    }


def git_sha():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except OSError:
        return "unknown (no git)"
    return done.stdout.strip() or "unknown"


def run_op(op, where, failures):
    """Run one op and check it; returns its latency in seconds."""
    from workloads import attempt

    seconds, err = attempt(op)  # the check's own pegfinder calls count in the op's spans
    if err is not None:
        failures.append(f"{where} {op.label}: {type(err).__name__}: {err}")
        print(f"FAILED {op.label}: {type(err).__name__}: {err}", file=sys.stderr)
    return seconds


def run_pass(ops, index, tracer, failures):
    """Run every op once; returns the op latencies in seconds."""
    latencies = []
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.set_op(f"pass{index}:{i}")
        latencies.append(run_op(op, f"pass {index} op {i}", failures))
    return latencies


def run_rounds(ops, seconds, failures):
    """Untraced measurement: run the op list round and round for `seconds`.

    The first round always completes.  After it, an op starts only while its
    previous latency, added to the time elapsed, stays within `seconds`; the
    run stops at the first op that does not fit.  Returns every op's
    latencies, in list order.
    """
    samples = [[] for _ in ops]
    start = perf_counter()
    for i in itertools.count():
        j = i % len(ops)
        if i >= len(ops) and perf_counter() - start + samples[j][-1] > seconds:
            return samples
        samples[j].append(run_op(ops[j], f"pass {i // len(ops)} op {j}", failures))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=("square-count", "branch-trace"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=60.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.setup_probe:
        print(f"{setup_probe(args):.9f}")
        return 0

    load_package()
    import workloads
    from tracer import Tracer

    setup_s = setup_seconds(args)
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    tracer = Tracer() if args.trace else None
    try:
        if tracer is not None:
            tracer.install()  # set-up spans give corpus.build_s
        ops = workloads.build(args.workload, args.seed, str(ROOT), workdir)
        if tracer is not None:
            tracer.uninstall()

        failures, untraced, traced = [], [], []  # untraced, traced: whole-pass times (--trace 1)
        if tracer is None:
            samples = run_rounds(ops, args.seconds, failures)
        else:
            samples = [[] for _ in ops]
            start = perf_counter()
            for k in itertools.count():
                on = k % 2 == 1
                if on:
                    tracer.install()
                lat = run_pass(ops, k, tracer if on else None, failures)
                if on:
                    tracer.uninstall()
                (traced if on else untraced).append(sum(lat))
                if not on:
                    for s, t in zip(samples, lat):
                        s.append(t)
                elapsed = perf_counter() - start
                if k >= 1 and elapsed + elapsed / (k + 1) > args.seconds:
                    break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(map(len, samples)) + len(ops) * len(traced)
    wall_s = sum(statistics.median(s) for s in samples)  # each op's median over the run
    if tracer is None:
        values = {
            "wall_s": wall_s,
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {m["name"]: (values[m["name"]], m["unit"]) for m in SPEC["end_to_end"]}
    else:
        values = tracer.layer_metrics(len(traced))  # a count never incremented is 0
        base = statistics.median(untraced)
        values["bench.trace_overhead_frac"] = (statistics.median(traced) - base) / base
        metrics = {m["name"]: (values.get(m["name"], 0.0), m["unit"]) for m in SPEC["per_layer"]}

    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "op_seconds": samples,  # untraced latencies of each op of the list
        "traced_pass_seconds": traced,
        "ops_per_pass": len(ops),
        "fail_frac": len(failures) / attempted,
        "failures": failures,
        "metrics": {key: {"value": v, "unit": u} for key, (v, u) in metrics.items()},
        "environment": environment(args.seed),
    }
    (OUT / f"{name}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        tracer.write(OUT / f"{name}.spans.tsv.gz")

    print(f"environment {json.dumps(record['environment'], sort_keys=True)}")
    print(f"{args.workload}: {attempted} calls of a {len(ops)}-op list, "
          f"fail_frac {record['fail_frac']:.4f} ({len(failures)}/{attempted})")
    for key, (value, unit) in metrics.items():
        print(f"  {key:34s} {value:16.6f} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
