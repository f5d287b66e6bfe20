"""The benchmark's four workloads.

Each workload generates its inputs from the seed in ``setup`` and then offers
a fixed list of operations.  An operation calls symtomo's public functions,
each call wrapped in a span named after the layer it enters, and returns the
estimates it produced.  Everything an operation returns is checked afterwards,
outside the timed region (see ``run.py``).

Why these four (the layer each one loads is in README.md):

* ``pi-git``     -- the restricted git solve on pooled ``pi`` data, n = 3..5:
                    the baseline case, where the solve is ~99 % of the time.
* ``full-space`` -- all 27 settings at n = 3 through git, factored cvqt and
                    maxlik: the full-Pauli-space solvers and non-pooled
                    extraction.
* ``pi-large``   -- bases, pooled extraction and linear inversion at n = 6, 7
                    with no iterative solve: symmetry and measurement only.
* ``cli-sweep``  -- the CLI chain and a two-process sweep of six cells, as
                    separate ``python -m symtomo.cli`` processes: process
                    start-up, JSON IO, the process pool and export.
"""

from __future__ import annotations

import csv
import json
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from symtomo import estimation, measurement, metrics, statesim, symmetry
from symtomo.estimation import EstimatorConfig
from symtomo.operators import load_matrix, matrix_from_json
from symtomo.symmetry import SymmetrySpec, permutation_basis_size

import checks

HERE = Path(__file__).resolve().parent

SHOTS = 4096
NOISE = statesim.NoiseModel(channel="depolarizing", level=0.05, policy="post")
# test_05's configuration; the tiny size only caps iterations for the smoke test
GIT_CONFIG = EstimatorConfig(gamma=0.0, restarts=1)
TINY_CONFIG = EstimatorConfig(gamma=0.0, restarts=1, max_iterations=100)
COLLECTIVE_SIZES = {2: 2, 3: 5, 4: 14, 5: 42}  # sum over J of multiplicity squared
CLI_TIMEOUT_S = 170


@dataclass
class Estimate:
    """One estimate an operation produced, with what its checks need.

    ``records`` may be a callable, so that rebuilding records for a CLI
    estimate happens at check time.  ``config`` None means the estimate has no
    relative-error objective (maxlik); ``reported`` None means the estimator
    reported none to cross-check (a projected linear inversion).
    ``rho`` None marks a fidelity the program computed itself (sweep cells).
    """

    label: str
    rho: np.ndarray | None
    fidelity: float | None
    records: object = None
    config: EstimatorConfig | None = None
    reported: float | None = None


@dataclass
class Output:
    estimates: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)


def data_rng(seed: int, *coords: int) -> np.random.Generator:
    """A fresh generator per data set, so repeated passes see identical data."""
    return np.random.default_rng([seed, *coords])


def prepare_ghz(tr, n: int) -> np.ndarray:
    with tr.span("statesim.prepare"):
        return statesim.run_circuit(statesim.build_ghz_phase(n, 0.0), NOISE)


def build_basis(tr, kind: str, n: int):
    spec = SymmetrySpec.permutation(n) if kind == "permutation" else SymmetrySpec.collective(n)
    with tr.span(f"symmetry.basis_{kind}") as c:
        basis = symmetry.compute_commutant_basis(spec)
    c["size"] = basis.size
    c["elements_bytes"] = basis.size * basis.dim**2 * 16
    return basis


def sample(tr, rho, settings, seed_coords):
    with tr.span("measurement.sample") as c:
        hists = measurement.sample_state(rho, settings, SHOTS, data_rng(*seed_coords))
    c["histograms"] = len(hists)
    return hists


def extract(tr, hists, targets, pooled: bool):
    with tr.span("measurement.extract_pooled" if pooled else "measurement.extract_full") as c:
        records = measurement.extract_frequencies(hists, targets, pi_mode=pooled)
    c["records"] = len(records)
    return records


def solve(tr, mode: str, *args):
    fn = {"git": estimation.solve_git, "cvqt": estimation.solve_cvqt,
          "maxlik": estimation.solve_maxlik}[mode]
    with tr.span(f"estimation.{mode}") as c:
        result = fn(*args)
    c["iterations"] = result.iterations
    c["converged"] = bool(result.converged)
    return result


def fidelity(tr, rho_hat, truth) -> float:
    with tr.span("metrics.fidelity"):
        return metrics.fidelity(rho_hat, truth)


class Workload:
    name = ""
    has_traced_extra = False

    def __init__(self, seed: int, tiny: bool, workdir: Path):
        self.seed = seed
        self.tiny = tiny
        self.workdir = workdir

    def setup(self, tr) -> None:
        """Generate the inputs; run several times to time set-up."""

    def operations(self) -> list:
        """The fixed list of operations, each ``op(tracer) -> Output``."""
        raise NotImplementedError

    def check(self, output: Output) -> None:
        """Workload-specific output checks; raise ``checks.CheckFailed``."""

    def traced_extra(self, tr) -> None:
        """Work only the traced run does, once, after its first traced pass."""
        raise NotImplementedError


class PiGit(Workload):
    name = "pi-git"

    def setup(self, tr):
        ns = (2, 3) if self.tiny else (3, 4, 5)
        self.config = TINY_CONFIG if self.tiny else GIT_CONFIG
        self.inputs = {}
        for n in ns:
            rho = prepare_ghz(tr, n)
            basis = build_basis(tr, "permutation", n)
            self.inputs[n] = (rho, basis, measurement.pi_settings(n), measurement.pi_observables(n))

    def operations(self):
        # Two data sets per n: the iterations of a single solve, hence its
        # time, depend on its data by up to 30 %, and summing over data sets
        # narrows the spread between seeds.
        return [lambda tr, k=k, n=n: self._op(tr, k, n)
                for k in range(2) for n in self.inputs]

    def _op(self, tr, k, n):
        rho, basis, settings, targets = self.inputs[n]
        hists = sample(tr, rho, settings, (self.seed, n, k))
        records = extract(tr, hists, targets, pooled=True)
        result = solve(tr, "git", records, basis, self.config)
        fid = fidelity(tr, result.rho_hat, rho)
        return Output([Estimate(f"git n={n} k={k}", result.rho_hat, fid, records, self.config,
                                result.objective)])


class FullSpace(Workload):
    name = "full-space"

    def setup(self, tr):
        n = 2 if self.tiny else 3
        self.n = n
        self.config = TINY_CONFIG if self.tiny else GIT_CONFIG
        self.datasets = 1 if self.tiny else 8
        self.rho = prepare_ghz(tr, n)
        self.basis = build_basis(tr, "permutation", n)
        self.settings = measurement.full_settings(n)
        self.pooled_targets = measurement.pi_observables(n)
        self.full_targets = measurement.full_observables(n)

    def operations(self):
        return [lambda tr, k=k: self._op(tr, k) for k in range(self.datasets)]

    def _op(self, tr, k):
        n, rho, cfg = self.n, self.rho, self.config
        hists = sample(tr, rho, self.settings, (self.seed, n, k))
        pooled = extract(tr, hists, self.pooled_targets, pooled=True)
        git = solve(tr, "git", pooled, self.basis, cfg)
        full = extract(tr, hists, self.full_targets, pooled=False)
        cvqt = solve(tr, "cvqt", full, 2**n, cfg)
        maxlik = solve(tr, "maxlik", full, cfg)
        return Output([
            Estimate(f"git k={k}", git.rho_hat, fidelity(tr, git.rho_hat, rho), pooled, cfg,
                     git.objective),
            Estimate(f"cvqt k={k}", cvqt.rho_hat, fidelity(tr, cvqt.rho_hat, rho), full, cfg,
                     cvqt.objective),
            Estimate(f"maxlik k={k}", maxlik.rho_hat, fidelity(tr, maxlik.rho_hat, rho)),
        ])


class PiLarge(Workload):
    """Front end only: bases, pooled data and linear inversion at n = 6, 7.

    A pass builds every basis, takes GHZ n = 6 and 7 through pooled data and
    linear inversion, and selects settings; each of those steps is one
    operation, so that the machine-speed calibration runs between them.
    Linear inversion has no positivity constraint (its n = 6, 7 estimates have
    eigenvalues down to about -0.1 and -0.3), so the benchmark projects it onto
    the density matrices before taking fidelity and objective.
    """

    name = "pi-large"

    def setup(self, tr):
        self.perm_ns = (3, 4) if self.tiny else (6, 7)
        self.coll_ns = (2, 3) if self.tiny else (4, 5)
        self.select_n = 2 if self.tiny else 4
        self.states = {n: prepare_ghz(tr, n) for n in self.perm_ns}
        self.verified = {}
        self.bases = {}

    def operations(self):
        self.bases = {}  # filled by this pass's basis operations, used by the later ones
        keys = [("permutation", n) for n in self.perm_ns]
        keys += [("collective", n) for n in self.coll_ns]
        return ([lambda tr, key=key: self._basis(tr, *key) for key in keys]
                + [lambda tr, n=n: self._front_end(tr, n) for n in self.perm_ns]
                + [self._select])

    def _basis(self, tr, kind, n):
        basis = build_basis(tr, kind, n)
        self.bases[(kind, n)] = basis
        return Output(extra={"kind": "basis", "key": (kind, n), "basis": basis})

    def _front_end(self, tr, n):
        rho, basis = self.states[n], self.bases[("permutation", n)]
        hists = sample(tr, rho, measurement.pi_settings(n), (self.seed, n))
        records = extract(tr, hists, measurement.pi_observables(n), pooled=True)
        with tr.span("estimation.linv"):
            lin = estimation.linear_inversion(records, basis)
        est = checks.project_to_state(lin)
        return Output([Estimate(f"linv n={n}", est, fidelity(tr, est, rho), records,
                                EstimatorConfig(gamma=0.0))], {"kind": "front-end"})

    def _select(self, tr):
        basis = self.bases[("collective", self.select_n)]
        candidates = measurement.full_settings(self.select_n)
        k = min(len(candidates), 2 * basis.size)
        with tr.span("measurement.select"):
            selected = measurement.select_settings(basis, candidates, k)
        return Output(extra={"kind": "select", "basis": basis, "selected": selected, "k": k})

    def check(self, output):
        kind = output.extra["kind"]
        if kind == "basis":
            self._check_basis(*output.extra["key"], output.extra["basis"])
        elif kind == "select":
            selected, basis = output.extra["selected"], output.extra["basis"]
            if len(set(selected)) != output.extra["k"]:
                raise checks.CheckFailed("select_settings returned repeated or missing settings")
            if checks.response_rank(basis.elements, selected) != basis.size:
                raise checks.CheckFailed("selected settings do not reach full rank")

    def _check_basis(self, kind, n, basis):
        want = permutation_basis_size(n) if kind == "permutation" else COLLECTIVE_SIZES[n]
        if basis.size != want:
            raise checks.CheckFailed(f"{kind} basis at n={n} has {basis.size}, not {want}")
        if kind != "permutation":
            return
        seen = self.verified.get(n)
        if seen is not None and np.array_equal(seen, basis.elements):
            return  # identical to a basis already checked in this run
        rank = checks.response_rank(basis.elements, measurement.pi_settings(n))
        if rank != basis.size:
            raise checks.CheckFailed(f"pi settings reach rank {rank} of {basis.size} at n={n}")
        self._check_analytic(n)
        self.verified[n] = basis.elements

    def _check_analytic(self, n):
        """Pooled frequencies of exact Born data equal tr(E rho) to 1e-9."""
        rho = self.states[n]
        hists = measurement.sample_state(rho, measurement.pi_settings(n), None)
        records = measurement.extract_frequencies(hists, measurement.pi_observables(n),
                                                  pi_mode=True)
        for rec in records:
            exact = float(np.real(np.vdot(rec.projector, rho)))
            if abs(rec.frequency - exact) > 1e-9:
                raise checks.CheckFailed(
                    f"analytic pooled frequency of {rec.ops} is {rec.frequency!r}, "
                    f"tr(E rho) is {exact!r}"
                )


class CliSweep(Workload):
    """The CLI as a user runs it: one ``python -m symtomo.cli`` process per call."""

    name = "cli-sweep"
    has_traced_extra = True

    def setup(self, tr):
        n = 2 if self.tiny else 3
        self.n = n
        config = TINY_CONFIG if self.tiny else GIT_CONFIG
        sweep = {
            "family": "ghz",
            "n_qubits": n,
            "modes": ["git"],
            "channels": ["depolarizing"] if self.tiny
            else ["amplitude_damping", "bit_flip", "depolarizing"],
            "levels": [0.1],
            "shots": [128] if self.tiny else [128, 8192],
            "repetitions": 2 if self.tiny else 1,
            "base_seed": self.seed,
            "settings_plan": "pi",
            "estimator": {"gamma": config.gamma, "restarts": config.restarts,
                          "max_iterations": config.max_iterations},
        }
        self.cells = len(sweep["channels"]) * len(sweep["levels"]) * len(sweep["shots"]) \
            * sweep["repetitions"]
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.sweep_config = self.workdir / "sweep.json"
        self.sweep_config.write_text(json.dumps(sweep) + "\n")
        self.untraced_sweep_dir = None

    def operations(self):
        # One operation per CLI call, so that the machine-speed calibration
        # runs between them (see calibration.py).
        return [self._prepare, self._sample, self._estimate, self._metrics,
                lambda tr: self._sweep(tr, jobs=2)]

    def _cli(self, tr, *args):
        """Run one CLI call; with tracing on, through ``cli_traced.py``."""
        if tr.enabled:
            spans_file = self.workdir / "spans.json"
            cmd = [sys.executable, str(HERE / "cli_traced.py"), str(spans_file), *args]
        else:
            cmd = [sys.executable, "-m", "symtomo.cli", *args]
        spawn = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"symtomo {args[0]} exited {proc.returncode}: {proc.stderr[-400:]}")
        if tr.enabled:
            payload = json.loads(spans_file.read_text())
            tr.add("cli.startup", spawn, payload["main_start"])
            tr.merge(payload["spans"])

    def _chain_file(self, tr, name):
        d = self.workdir / ("chain-traced" if tr.enabled else "chain")
        d.mkdir(parents=True, exist_ok=True)
        return d / name

    def _prepare(self, tr):
        rho = self._chain_file(tr, "rho.json")
        self._cli(tr, "prepare", "--state", "ghz", "--qubits", str(self.n), "--noise", "dep",
                  "--level", str(NOISE.level), "--out", str(rho))
        return Output(extra={"kind": "prepare", "file": rho})

    def _sample(self, tr):
        hists = self._chain_file(tr, "hists.json")
        self._cli(tr, "sample", "--state", str(self._chain_file(tr, "rho.json")),
                  "--settings", "pi", "--shots", str(SHOTS), "--seed", str(self.seed),
                  "--out", str(hists))
        return Output(extra={"kind": "sample", "file": hists})

    def _estimate(self, tr):
        est = self._chain_file(tr, "estimate.json")
        self._cli(tr, "estimate", "--data", str(self._chain_file(tr, "hists.json")),
                  "--out", str(est))
        payload = json.loads(est.read_text())
        self._chain_file(tr, "estimate_rho.json").write_text(json.dumps(payload["rho_hat"]) + "\n")
        return Output(extra={"kind": "estimate"})

    def _metrics(self, tr):
        rho, hists, met = (self._chain_file(tr, f) for f in
                           ("rho.json", "hists.json", "metrics.json"))
        self._cli(tr, "metrics", "--a", str(self._chain_file(tr, "estimate_rho.json")),
                  "--b", str(rho), "--out", str(met))
        fid = json.loads(met.read_text())["fidelity"]
        payload = json.loads(self._chain_file(tr, "estimate.json").read_text())

        def records():
            return measurement.extract_frequencies(
                measurement.ingest_histograms(hists), measurement.pi_observables(self.n),
                pi_mode=True)

        estimate = Estimate("cli git", matrix_from_json(payload["rho_hat"]), fid, records,
                            EstimatorConfig(), payload["objective"])
        return Output([estimate], {"kind": "metrics"})

    def _sweep(self, tr, jobs):
        d = self.workdir / f"sweep-jobs{jobs}{'-traced' if tr.enabled else ''}"
        self._cli(tr, "sweep", "--config", str(self.sweep_config), "--out-dir", str(d),
                  "--jobs", str(jobs))
        with open(d / "records.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        fids = [Estimate(f"sweep cell {i}", None,
                         float(r["fidelity_vs_real"]) if r["fidelity_vs_real"] else None)
                for i, r in enumerate(rows)]
        if not tr.enabled and jobs == 2:
            self.untraced_sweep_dir = d
        return Output(fids, {"dir": d, "kind": "sweep"})

    def check(self, output):
        kind = output.extra["kind"]
        if kind == "prepare":
            checks.density(load_matrix(output.extra["file"]), "prepared state")
        elif kind == "sample":
            measurement.ingest_histograms(output.extra["file"])
        if kind != "sweep":
            return
        d = output.extra["dir"]
        json.loads((d / "manifest.json").read_text())
        with open(d / "summary.csv", newline="") as fh:
            summary = list(csv.DictReader(fh))
        if not summary or any(int(row["failures"]) != 0 for row in summary):
            raise checks.CheckFailed(f"sweep summary in {d.name} reports failures")
        if len(output.estimates) != self.cells:
            raise checks.CheckFailed(
                f"sweep wrote {len(output.estimates)} records, not {self.cells}")

    def traced_extra(self, tr):
        """A serial sweep, traced: its wall time against jobs=2, and its files."""
        out = self._sweep(tr, jobs=1)
        self.check(out)
        if self.untraced_sweep_dir is None:
            raise checks.CheckFailed("no untraced jobs=2 sweep to compare with")
        for name in ("records.csv", "summary.csv", "manifest.json"):
            a = (self.untraced_sweep_dir / name).read_bytes()
            b = (out.extra["dir"] / name).read_bytes()
            if a != b:
                raise checks.CheckFailed(
                    f"{name} differs between jobs=2 untraced and jobs=1 traced")


WORKLOADS = {w.name: w for w in (PiGit, FullSpace, PiLarge, CliSweep)}
