"""Run one symtomo CLI call with spans around the library calls it makes.

    python perfbench/cli_traced.py SPANS_OUT ARGS...

does what ``python -m symtomo.cli ARGS...`` does, but first replaces the
library functions ``symtomo.cli`` imported with wrappers that record a span
per call, and then writes ``{"main_start": t, "spans": [...]}`` to SPANS_OUT.
``main_start`` is the ``perf_counter`` time at which ``main`` was entered, so
the parent can time process start-up and import as ``cli.startup``.  The
wrappers only see calls made from the CLI module: a sweep's cells are timed
as a whole inside ``harness.sweep``.
"""

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import symtomo.cli as cli  # noqa: E402
from spans import Tracer  # noqa: E402

TRACER = Tracer()


def _wrap(fn, name_of, counts_of=None):
    def traced(*args, **kwargs):
        with TRACER.span(name_of(args, kwargs)) as counts:
            result = fn(*args, **kwargs)
        if counts_of is not None:
            counts.update(counts_of(args, kwargs, result))
        return result

    return traced


def _fixed(name):
    return lambda args, kwargs: name


def _basis_counts(args, kwargs, basis):
    return {"size": basis.size, "elements_bytes": basis.size * basis.dim**2 * 16}


def _solver_counts(args, kwargs, result):
    return {"iterations": result.iterations, "converged": bool(result.converged)}


def _pooled(args, kwargs):
    pooled = kwargs.get("pi_mode", args[2] if len(args) > 2 else False)
    return "measurement.extract_pooled" if pooled else "measurement.extract_full"


def _sweep_counts(args, kwargs, records):
    config = args[0]
    cells = len(config.channels) * len(config.levels) * len(config.shots) * config.repetitions
    return {"jobs": kwargs.get("jobs", args[1] if len(args) > 1 else 1), "cells": cells}


_PATCHES = {
    "compute_commutant_basis": (lambda a, k: f"symmetry.basis_{a[0].kind}", _basis_counts),
    "run_circuit": (_fixed("statesim.prepare"), None),
    "run_werner_pair": (_fixed("statesim.prepare"), None),
    "werner_exact": (_fixed("statesim.prepare"), None),
    "sample_state": (_fixed("measurement.sample"), lambda a, k, r: {"histograms": len(r)}),
    "extract_frequencies": (_pooled, lambda a, k, r: {"records": len(r)}),
    "select_settings": (_fixed("measurement.select"), None),
    "solve_git": (_fixed("estimation.git"), _solver_counts),
    "solve_cvqt": (_fixed("estimation.cvqt"), _solver_counts),
    "solve_maxlik": (_fixed("estimation.maxlik"), _solver_counts),
    "metric_report": (_fixed("metrics.fidelity"), None),
    "run_sweep": (_fixed("harness.sweep"), _sweep_counts),
    "export": (_fixed("harness.export"), None),
}


def main() -> int:
    spans_out, argv = sys.argv[1], sys.argv[2:]
    for attr, (name_of, counts_of) in _PATCHES.items():
        setattr(cli, attr, _wrap(getattr(cli, attr), name_of, counts_of))
    main_start = time.perf_counter()
    with TRACER.span(f"cli.{argv[0]}"):
        code = cli.main(argv)
    Path(spans_out).write_text(
        json.dumps({"main_start": main_start, "spans": TRACER.to_json()}) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
