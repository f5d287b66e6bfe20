"""Benchmark of the symtomo pipeline: one workload per call, one JSON line out.

Run from the root of a symtomo checkout:

    python3 perfbench/run.py --workload pi-git --seed 1 --seconds 30 --trace 0

The load is a closed loop: one client, one process, one operation at a time
(the sweep's own ``--jobs 2`` pool is the exception).  A run sets up the
workload five times (``setup_s`` is the median), then repeats the workload's
fixed list of operations in whole passes for at most ``--seconds`` seconds,
and at least once (``wall_norm_s`` is the median pass).  Both are
speed-scaled: every set-up and operation is timed between two runs of a fixed
calibration kernel and rescaled by how fast that kernel ran (see
``calibration.py``); the raw times are printed too.  Passes see identical
inputs, so the accuracy figures do not depend on how many passes fit.  Every
output is checked after its pass, outside the timed region; an operation that
raises or fails a check counts in ``failed`` instead of stopping the run.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics: self time per
layer from spans the benchmark records around each call into symtomo, the
counts recorded at the same calls, and the tracing overhead.  The spans are
written to ``.perfbench/trace-<workload>-seed<seed>.json``.

Human-readable lines go first; the last line of standard output is the JSON
result ``{"correct", "attempted", "failed", "metrics"}``.
"""

import os

# One BLAS thread, set before numpy loads: with the default two threads the
# sweep's two worker processes oversubscribe a two-core machine.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibration import calibration_seconds, scale
from spans import NullTracer, Tracer, self_times, span_cost

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"

SETUP_REPEATS = 5

# (name, unit) of every end-to-end metric, as BENCHMARK.json lists them
END_TO_END = (
    ("setup_s", "s"),
    ("wall_norm_s", "s"),
    ("fidelity.mean", "1"),
    ("fidelity.min", "1"),
    ("peak_rss_mb", "MB"),
)

_SOLVERS = ("git", "cvqt", "maxlik")
# (name, unit) of every per-layer metric, as BENCHMARK.json lists them
PER_LAYER = (
    *((f"estimation.{m}.{k}", u) for m in _SOLVERS for k, u in
      (("s", "s"), ("iterations", "count"), ("s_per_iter", "s"), ("converged_frac", "1"))),
    ("estimation.linv.s", "s"),
    ("estimation.objective.mean", "1"),
    ("symmetry.basis_permutation.s", "s"),
    ("symmetry.basis_collective.s", "s"),
    ("symmetry.basis.size", "count"),
    ("symmetry.basis.elements_mb", "MB"),
    ("measurement.sample.s", "s"),
    ("measurement.sample.histograms", "count"),
    ("measurement.extract_pooled.s", "s"),
    ("measurement.extract_full.s", "s"),
    ("measurement.extract.records", "count"),
    ("measurement.select.s", "s"),
    ("statesim.prepare.s", "s"),
    ("statesim.prepare.calls", "count"),
    ("metrics.fidelity.s", "s"),
    ("harness.sweep_jobs2.s", "s"),
    ("harness.sweep_jobs1.s", "s"),
    ("harness.parallel_eff", "1"),
    ("harness.cells", "count"),
    ("harness.export.s", "s"),
    ("cli.startup.s", "s"),
    *((f"cli.{cmd}.s", "s") for cmd in ("prepare", "sample", "estimate", "metrics", "sweep")),
    ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
    ("trace.span_cost_s", "s"),
)


def _fail_outside_checkout() -> None:
    if not (SRC / "symtomo" / "__init__.py").is_file():
        print(f"perfbench: no src/symtomo under {ROOT}; run from a symtomo checkout",
              file=sys.stderr)
        sys.exit(2)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1, help="workload seed (default 1; held-out seed 2)")
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="'tiny' shrinks every workload to a seconds-long smoke run")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be a non-negative integer")
    return args


def import_seconds() -> float:
    """Time to import symtomo in a fresh interpreter, as a CLI call pays it."""
    code = "import time; t = time.perf_counter(); import symtomo; print(time.perf_counter() - t)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, timeout=120)
    return float(proc.stdout)


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                                timeout=10).stdout.strip() or None
    except OSError:
        commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "symtomo").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


class Accuracy:
    """Accuracy figures of the first pass, and counts over every pass.

    Every pass sees the same inputs, so later passes repeat the first pass's
    estimates; they are checked, but not averaged in again, which would move
    ``fidelity.mean`` in its last bits with the number of passes.
    """

    def __init__(self):
        self.fidelities: list[float] = []
        self.objectives: list[float] = []
        self.attempted = 0
        self.failed = 0


def run_pass(workload, tr, op_base: int):
    """One pass over the operation list.

    Returns the raw and the speed-scaled seconds of each operation (see
    ``calibration``; the kernel is timed before the first operation and after
    each one) and the outputs.
    """
    ops = workload.operations()
    raw, scaled, outputs = [], [], []
    before = calibration_seconds()
    for i, op in enumerate(ops):
        tr.op = op_base + i
        t0 = time.perf_counter()
        try:
            with tr.span("op"):
                out = op(tr)
        except Exception as exc:  # noqa: BLE001 -- a failed operation is counted, not fatal
            out = exc
        seconds = time.perf_counter() - t0
        after = calibration_seconds()
        raw.append(seconds)
        scaled.append(scale(seconds, before, after))
        outputs.append(out)
        before = after
    return raw, scaled, outputs


def check_output(workload, out, acc: Accuracy, record: bool) -> None:
    import checks  # needs symtomo, which main() puts on the path

    if isinstance(out, Exception):
        raise out
    fids, objs = [], []
    for est in out.estimates:
        if est.fidelity is None:
            raise checks.CheckFailed(f"{est.label}: no fidelity")
        fids.append(float(est.fidelity))
        if est.rho is None:
            continue
        rho = checks.density(est.rho, est.label)
        if est.config is None:
            continue
        records = est.records() if callable(est.records) else est.records
        cfg = est.config
        value = checks.objective(rho, records, cfg.alpha, cfg.beta, cfg.gamma,
                                 cfg.frequency_floor)
        if est.reported is not None:
            checks.same_objective(value, est.reported, est.label)
        objs.append(value)
    workload.check(out)
    if record:
        acc.fidelities += fids
        acc.objectives += objs


def check_outputs(workload, outputs, acc: Accuracy, record: bool) -> None:
    for out in outputs:
        acc.attempted += 1
        try:
            check_output(workload, out, acc, record)
        except Exception as exc:  # noqa: BLE001 -- reported and counted in `failed`
            acc.failed += 1
            print(f"operation failed: {type(exc).__name__}: {exc}", file=sys.stderr)


def time_setups(workload, last_tracer) -> tuple[list[float], list[float]]:
    """Speed-scaled and raw seconds of SETUP_REPEATS set-ups; the last one is
    traced when tracing is on."""
    times, raw = [], []
    before = calibration_seconds()
    for i in range(SETUP_REPEATS):
        tr = last_tracer if i == SETUP_REPEATS - 1 else NullTracer()
        imported = import_seconds()
        t0 = time.perf_counter()
        with tr.span("setup"):
            workload.setup(tr)
        seconds = imported + time.perf_counter() - t0
        after = calibration_seconds()
        times.append(scale(seconds, before, after))
        raw.append(seconds)
        before = after
    return times, raw


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def layer_metrics(tracers, overhead_s: float, objective_mean: float) -> dict:
    """Per-layer self times and counts from the traced setup and pass."""
    seconds, calls, counts = {}, {}, {}
    for tr in tracers:
        for span, own in zip(tr.spans, self_times(tr.spans)):
            name = span.name
            if name == "harness.sweep":
                name = f"harness.sweep_jobs{span.counts['jobs']}"
            seconds[name] = seconds.get(name, 0.0) + own
            calls[name] = calls.get(name, 0) + 1
            counts.setdefault(name, []).append(span.counts)

    def total(name, key):
        return sum(c.get(key, 0) for c in counts.get(name, []))

    out = {}
    for mode in _SOLVERS:
        name = f"estimation.{mode}"
        s, iters, n = seconds.get(name, 0.0), total(name, "iterations"), calls.get(name, 0)
        out[f"{name}.s"] = s
        out[f"{name}.iterations"] = iters
        out[f"{name}.s_per_iter"] = s / iters if iters else 0.0
        out[f"{name}.converged_frac"] = total(name, "converged") / n if n else 0.0
    for name in ("estimation.linv", "symmetry.basis_permutation", "symmetry.basis_collective",
                 "measurement.sample", "measurement.extract_pooled",
                 "measurement.extract_full", "measurement.select", "statesim.prepare",
                 "metrics.fidelity", "harness.sweep_jobs2", "harness.sweep_jobs1",
                 "harness.export", "cli.startup"):
        out[f"{name}.s"] = seconds.get(name, 0.0)
    bases = ("symmetry.basis_permutation", "symmetry.basis_collective")
    out["symmetry.basis.size"] = sum(total(b, "size") for b in bases)
    out["symmetry.basis.elements_mb"] = sum(total(b, "elements_bytes") for b in bases) / 1e6
    out["measurement.sample.histograms"] = total("measurement.sample", "histograms")
    out["measurement.extract.records"] = (total("measurement.extract_pooled", "records")
                                          + total("measurement.extract_full", "records"))
    out["statesim.prepare.calls"] = calls.get("statesim.prepare", 0)
    jobs1, jobs2 = out["harness.sweep_jobs1.s"], out["harness.sweep_jobs2.s"]
    out["harness.parallel_eff"] = jobs1 / (2.0 * jobs2) if jobs1 and jobs2 else 0.0
    out["harness.cells"] = max((c["cells"] for c in counts.get("harness.sweep_jobs2", [])),
                               default=0)
    for cmd in ("prepare", "sample", "estimate", "metrics", "sweep"):
        out[f"cli.{cmd}.s"] = seconds.get(f"cli.{cmd}", 0.0)
    out["trace.overhead_s"] = overhead_s
    spans = sum(len(tr.spans) for tr in tracers)
    out["trace.spans"] = spans
    out["trace.span_cost_s"] = spans * span_cost()
    out["estimation.objective.mean"] = objective_mean
    return {name: out[name] for name, _ in PER_LAYER}


def measure(workload, seconds: float, trace: bool, acc: Accuracy) -> dict:
    """The timed passes.  Stops before a pass that would overrun ``seconds``.

    ``untraced`` and ``traced`` hold each pass's speed-scaled seconds (the sum
    over its operations), ``raw`` each untraced pass's raw seconds.
    """
    null = NullTracer()
    untraced, traced, raw, op_times, tracers = [], [], [], [], []
    op_base = 0
    start = time.perf_counter()
    while True:
        lap = time.perf_counter()
        times, scaled, outputs = run_pass(workload, null, op_base)
        op_base += len(outputs)
        untraced.append(sum(scaled))
        raw.append(sum(times))
        op_times += times
        check_outputs(workload, outputs, acc, record=len(untraced) == 1)
        del outputs  # so that two passes' outputs are never held at once
        if trace:
            tr = Tracer()
            _, scaled, outputs = run_pass(workload, tr, op_base)
            op_base += len(outputs)
            traced.append(sum(scaled))
            check_outputs(workload, outputs, acc, record=False)
            del outputs
            if not tracers:
                tracers.append(tr)
                if workload.has_traced_extra:
                    tr.op = op_base
                    op_base += 1
                    acc.attempted += 1
                    try:
                        with tr.span("op"):
                            workload.traced_extra(tr)
                    except Exception as exc:  # noqa: BLE001 -- counted in `failed`
                        acc.failed += 1
                        print(f"traced extra failed: {type(exc).__name__}: {exc}",
                              file=sys.stderr)
        now = time.perf_counter()
        if now + (now - lap) > start + seconds:
            break
    return {"untraced": untraced, "traced": traced, "raw": raw, "op_times": op_times,
            "tracers": tracers}


def main(argv=None) -> int:
    args = parse_args(argv)
    _fail_outside_checkout()
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)

    from workloads import WORKLOADS  # needs symtomo on the path

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    out_dir = ROOT / ".perfbench"
    workdir = out_dir / f"work-{args.workload}-{os.getpid()}"
    env = environment(args.seed)
    print("environment " + json.dumps(env, sort_keys=True))
    try:
        workload = WORKLOADS[args.workload](args.seed, args.size == "tiny", workdir)
        setup_tracer = Tracer() if args.trace else NullTracer()
        setups, raw_setups = time_setups(workload, setup_tracer)
        acc = Accuracy()
        run = measure(workload, args.seconds, bool(args.trace), acc)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {args.workload}: {len(run['untraced'])} untraced pass(es), "
          f"{len(run['traced'])} traced, {acc.attempted} operations, {acc.failed} failed")
    e2e = {
        "setup_s": statistics.median(setups),
        "wall_norm_s": statistics.median(run["untraced"]),
        "fidelity.mean": statistics.fmean(acc.fidelities) if acc.fidelities else 0.0,
        "fidelity.min": min(acc.fidelities, default=0.0),
        "peak_rss_mb": peak_rss_mb(),
    }
    objective_mean = statistics.fmean(acc.objectives) if acc.objectives else 0.0
    units = dict(END_TO_END)
    for name, value in e2e.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    print(f"  wall_norm_s samples = {len(run['untraced'])}: "
          + " ".join(f"{w:.3f}" for w in run["untraced"]) + " s")
    print(f"  raw, not speed-scaled: wall_s = {statistics.median(run['raw']):.6g} s, "
          f"setup_s = {statistics.median(raw_setups):.6g} s")
    print(f"  op_s.p50 = {statistics.median(run['op_times']):.6g} s "
          f"({len(run['op_times'])} operations)")
    print(f"  objective.mean = {objective_mean:.6g} 1")
    print(f"  failed_frac = {acc.failed / max(acc.attempted, 1):.6g} 1")
    if args.trace:
        overhead = statistics.median(run["traced"]) - statistics.median(run["untraced"])
        values = layer_metrics([setup_tracer, *run["tracers"]], overhead, objective_mean)
        units = dict(PER_LAYER)
        op_total = sum(s.end - s.start for s in run["tracers"][0].spans if s.name == "op")
        for name, value in values.items():
            share = ""
            if name.endswith(".s") and op_total > 0:
                share = f"  ({100.0 * value / op_total:.1f} % of traced operation time)"
            print(f"  {name} = {value:.6g} {units[name]}{share}")
        out_dir.mkdir(exist_ok=True)
        trace_file = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps({
            "environment": env,
            "workload": args.workload,
            "setup": setup_tracer.to_json(),
            "passes": [tr.to_json() for tr in run["tracers"]],
        }) + "\n")
        print(f"  spans written to {trace_file.relative_to(ROOT)}")
    else:
        values, units = e2e, dict(END_TO_END)
    result = {
        "correct": acc.failed == 0,
        "attempted": acc.attempted,
        "failed": acc.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
