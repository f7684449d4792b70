#!/usr/bin/env python3
"""Benchmark kqlab on one workload and print its metrics.

    python3 perfbench/run.py --workload curvature-atlas --seed 1 --seconds 25 --trace 0

Run from the root of a checkout: the package is imported from ``src/``.
One client issues checks back to back (a closed loop, as a user running a
script does); each check's answer is judged against the paper identity it
certifies.  After one warm-up pass the workload's pass is repeated until
``--seconds`` have gone by and the workload's tail percentile has at least
ten samples beyond it.

The gated times are CPU times normalised to a reference speed.  Fixed
reference work that does not touch kqlab runs before every check and after
the last one; each check's CPU time is divided by the host's speed factor,
the mean of the factors the reference runs on either side of it measure.  On
a shared host whose speed changes from one second to the next, this removes
the host's speed and keeps the program's cost.

With ``--trace 0`` the end-to-end metrics of BENCHMARK.json are printed;
with ``--trace 1`` untraced and traced passes alternate and the per-layer
metrics are printed.  Every metric is printed by name with its unit, and the
last line of standard output is one JSON object.  The exit code is 1 if any
check failed, 2 if the run could not start.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter, process_time

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# One BLAS thread, set before numpy loads: reductions keep a fixed order, so
# the oracle's answers repeat exactly, and BLAS threads do not compete with
# the single client for the CPUs.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "KQ_THREADS": "1"}
IMPORT = "import kqlab, kqlab.cli"
SETUP_REPS = 13
# CPU seconds of the interpreted and the numpy part of ``reference()``, run
# between checks on the machine of BASELINE.md at its faster speed level;
# normalised times read as CPU seconds at that speed.
REF_PY_S = 0.70e-3
REF_NP_S = 0.27e-3
# Weight of the interpreted part in the speed factor of set-up, which runs
# module code.
SETUP_MIX = 0.75
MEASURE_LIMIT_S = 120.0   # keeps a slow host inside the 180 s a run may take


def _python(*args: str, **kwargs) -> subprocess.CompletedProcess:
    """Run a fresh interpreter on ``src/`` with one BLAS thread."""
    env = dict(os.environ, **THREAD_ENV, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, *args], env=env, check=True,
                          stdout=subprocess.DEVNULL, **kwargs)


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def reference() -> tuple[float, float]:
    """Run the fixed reference work; return the CPU seconds of its two parts.

    Interpreted float arithmetic, as in kqlab's jets, and small numpy
    kernels, as in its oracle and quadrature rules: the two kinds of code
    the workloads spend their time in.  It does not depend on kqlab.
    """
    import numpy

    start = process_time()
    total = 0.0
    for i in range(3000):
        x = (i % 97) * 0.37 + 1.0
        total += math.log(x) * x / (x + 1.0)
    middle = process_time()
    a = numpy.sin(numpy.arange(4096.0)).reshape(64, 64)
    for _ in range(10):
        total += float(numpy.exp(-a).sum()) + float((a @ a).trace())
    if not math.isfinite(total):
        raise RuntimeError("reference work gave a non-finite total")
    return middle - start, process_time() - middle


def speed_factor(before, after, mix: float) -> float:
    """How many times slower than the reference speed the host ran, judged
    by the reference runs on either side of a timed piece of work.

    ``mix`` weighs the interpreted part against the numpy part.
    """
    py = 0.5 * (before[0] + after[0]) / REF_PY_S
    np_ = 0.5 * (before[1] + after[1]) / REF_NP_S
    return mix * py + (1.0 - mix) * np_


def measure_setup() -> tuple[float, float, float]:
    """Median normalised CPU, CPU and wall time of a fresh interpreter running
    ``import kqlab, kqlab.cli``.
    """
    _python("-c", IMPORT)            # writes the bytecode caches once
    norm, cpu, wall = [], [], []
    # One CPU for this process and the interpreters it starts, so that the
    # reference runs measure the speed of the CPU each interpreter ran on.
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        ref = reference()
        for _ in range(SETUP_REPS):
            start, start_cpu = perf_counter(), _children_cpu()
            _python("-c", IMPORT)
            wall.append(perf_counter() - start)
            cpu.append(_children_cpu() - start_cpu)
            ref, before = reference(), ref
            norm.append(cpu[-1] / speed_factor(before, ref, SETUP_MIX))
    finally:
        os.sched_setaffinity(0, cpus)
    return statistics.median(norm), statistics.median(cpu), statistics.median(wall)


def _self_times(code: str) -> dict:
    err = _python("-X", "importtime", "-c", code, stderr=subprocess.PIPE,
                  text=True).stderr
    out = {}
    for line in err.splitlines():
        fields = line.partition("import time:")[2].split("|")
        if len(fields) == 3 and fields[0].strip().isdigit():
            out[fields[2].strip()] = int(fields[0]) / 1e6
    return out


def import_split() -> tuple[float, float]:
    """Import self time of kqlab's dependencies and of kqlab itself, by ``-X importtime``.

    Modules a bare interpreter already imports at start-up are not counted.
    """
    startup = set(_self_times("pass"))
    deps, own = [], []
    for _ in range(SETUP_REPS):
        times = _self_times(IMPORT)
        own.append(sum(t for m, t in times.items() if m.split(".")[0] == "kqlab"))
        deps.append(sum(t for m, t in times.items()
                        if m.split(".")[0] != "kqlab" and m not in startup))
    return statistics.median(deps), statistics.median(own)


class Gate:
    """Tally of check outcomes over every pass of a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.max_error = 0.0
        self.reported = 0

    def record(self, check: dict, outcome) -> None:
        self.attempted += 1
        if outcome.error is not None:
            self.max_error = max(self.max_error, outcome.error)
        if not outcome.ok:
            self.failed += 1
            if self.reported < 5:
                self.reported += 1
                print(f"FAILED {check['kind']}: {outcome.detail}", file=sys.stderr)


def run_pass(checks, gate: Gate, samples: list, mix: float) -> tuple[float, float, float]:
    """Run every check once, each between two runs of the reference work.

    Appends each check's (wall, CPU, normalised CPU) seconds to ``samples``
    and returns the sums over the pass.  ``mix`` is the workload's weight of
    the interpreted part of the reference work.
    """
    from checks import run_check

    timed = []
    ref = reference()
    for check in checks:
        t0, c0 = perf_counter(), process_time()
        outcome = run_check(check, str(OUT))
        wall, cpu = perf_counter() - t0, process_time() - c0
        ref, before = reference(), ref
        timed.append((wall, cpu, cpu / speed_factor(before, ref, mix)))
        gate.record(check, outcome)
    samples.extend(timed)
    return tuple(sum(column) for column in zip(*timed))


def machine_facts() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas, "blas_threads": 1}


def measure(workload: str, checks, seconds: float, min_samples: int, gate: Gate,
            mix: float, tracer=None, points: int = 0):
    """Timed passes until ``seconds`` are up and ``min_samples`` checks are timed.

    With a tracer, untraced and traced passes alternate, at least two of each.
    Returns the (wall, CPU, normalised CPU) times of the untraced passes and
    of their checks, and the traced passes' times and metrics.
    """
    passes, samples, traced_passes, traced = [], [], [], []
    start = perf_counter()
    while True:
        if tracer is not None and len(passes) > len(traced_passes):
            tracer.reset()
            tracer.install()
            try:
                traced_passes.append(run_pass(checks, gate, [], mix))
            finally:
                tracer.uninstall()
            traced.append(tracer.metrics(points))
            if len(traced) == 1:
                tracer.write_spans(str(OUT / f"spans-{workload}.jsonl"))
        else:
            passes.append(run_pass(checks, gate, samples, mix))
        elapsed = perf_counter() - start
        if tracer is None:
            enough = elapsed >= seconds and len(samples) >= min_samples
        else:
            enough = elapsed >= seconds and min(len(passes), len(traced)) >= 2
        if enough or elapsed >= MEASURE_LIMIT_S:
            return passes, samples, traced_passes, traced


def emit(names_units, values: dict, gate: Gate, notes: dict) -> None:
    for key, note in notes.items():
        print(f"{key}: {note}")
    metrics = {}
    for name, unit in names_units:
        metrics[name] = {"value": values[name], "unit": unit}
        print(f"{name:36s} {values[name]!r:>24} {unit}")
    print(json.dumps({"correct": gate.failed == 0, "attempted": gate.attempted,
                      "failed": gate.failed, "metrics": metrics}))


def main(argv=None) -> int:
    from workloads import MIX, TAIL, WORKLOADS, build

    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "kqlab" / "__init__.py").is_file():
        print(f"kqlab sources not found under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    os.environ.update(THREAD_ENV)
    OUT.mkdir(exist_ok=True)

    if args.trace:
        deps_s, kqlab_s = import_split()
    else:
        setup_norm, setup_cpu, setup_wall = measure_setup()

    sys.path.insert(0, str(SRC))
    import kqlab
    if Path(kqlab.__file__).resolve().parent != (SRC / "kqlab").resolve():
        print(f"kqlab imported from {kqlab.__file__}, not {SRC}", file=sys.stderr)
        return 2

    checks = build(args.workload, args.seed)
    points = sum(c.get("points", 0) for c in checks)
    pct, min_samples = TAIL[args.workload]
    gate = Gate()
    mix = MIX[args.workload]
    run_pass(checks, gate, [], mix)  # warm-up: caches, lazy imports, first answers

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
    passes, samples, traced_passes, traced = measure(
        args.workload, checks, args.seconds, min_samples, gate, mix, tracer, points)
    wall = statistics.median(p[0] for p in passes)
    cpu = statistics.median(p[1] for p in passes)
    norm = statistics.median(p[2] for p in passes)

    notes = {"workload": f"{args.workload} seed {args.seed}: {len(checks)} checks "
                         f"per pass, closed loop, 1 client",
             "machine": json.dumps(machine_facts(), sort_keys=True),
             "max_error": f"{gate.max_error!r} 1 (worst relative deviation "
                          "from a closed target or identity)",
             "failed_share": f"{gate.failed / gate.attempted!r} 1 "
                             f"({gate.failed} of {gate.attempted} checks)"}
    if args.trace:
        values = {name: statistics.median(t[name] for t in traced)
                  for name in traced[0] if name.endswith("_s")}
        values.update({name: v for name, v in traced[0].items()
                       if not name.endswith("_s")})
        values.update({
            "setup.deps_import_s": deps_s, "setup.kqlab_import_s": kqlab_s,
            "trace.overhead_s": statistics.median(p[2] for p in traced_passes) - norm,
            "gate.max_error": gate.max_error,
            "gate.failed_share": gate.failed / gate.attempted})
        counts = [{k: v for k, v in t.items() if not k.endswith("_s")} for t in traced]
        if any(c != counts[0] for c in counts):
            print("warning: counts differ between traced passes", file=sys.stderr)
        notes["passes"] = (f"{len(passes)} untraced ({norm!r} s normalised CPU), "
                           f"{len(traced)} traced "
                           f"({statistics.median(p[2] for p in traced_passes)!r} s)")
        names_units = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    else:
        wall_ms, cpu_ms, norm_ms = ([1e3 * x for x in column] for column in zip(*samples))

        def tail(xs):
            return statistics.quantiles(xs, n=100, method="inclusive")[pct - 1]

        values = {"setup_s": setup_norm,
                  "pass_norm_s": norm,
                  "check_norm_ms_p50": statistics.median(norm_ms),
                  "check_norm_ms_tail": tail(norm_ms),
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        notes.update({
            "tail": f"p{pct} over {len(samples)} check samples from {len(passes)} passes",
            "host_speed": f"{norm / cpu:.3f} of the reference speed (median pass)",
            "wall_s": f"{wall!r} s (CPU time is {cpu / wall:.1%} of it)",
            "pass_cpu_s": f"{cpu!r} s",
            "check_cpu_ms_p50": f"{statistics.median(cpu_ms)!r} ms",
            "check_cpu_ms_tail": f"{tail(cpu_ms)!r} ms",
            "check_ms_p50": f"{statistics.median(wall_ms)!r} ms",
            "check_ms_tail": f"{tail(wall_ms)!r} ms",
            "setup_cpu_s": f"{setup_cpu!r} s",
            "setup_wall_s": f"{setup_wall!r} s"})
        names_units = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    emit(names_units, values, gate, notes)
    return 1 if gate.failed else 0


if __name__ == "__main__":
    sys.exit(main())
