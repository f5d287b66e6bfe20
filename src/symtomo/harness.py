"""Reproducible simulation sweeps over noise levels, shot counts and estimators.

A sweep walks the grid (channel x level x shots x repetition), simulates the
chosen state family under that noise, samples measurement histograms with a
seed derived deterministically from the grid coordinates, runs the requested
estimators, and records fidelities.  Everything is driven by one frozen
config object so a run is fully determined by its content; rerunning a sweep
reproduces the output files byte for byte.

A config with ``observable_counts`` selects the second study type, the
observable-count study: it fixes each cell's data and grows the measured
observable set one record at a time (remaining family members enter the git
estimator as unmeasured-mass penalties), tracking how the reconstruction
approaches the full-data estimate and the true state.  Both studies run
through ``run_sweep`` on the same cells; ``observable_count_sweep`` fills in
the default counts.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import numbers
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import cached_property, lru_cache
from pathlib import Path

import numpy as np

from . import __version__ as _VERSION
from .estimation import EstimatorConfig, solve_cvqt, solve_git, solve_maxlik
from .measurement import (
    extract_frequencies,
    full_settings,
    pi_settings,
    record_plan,
    sample_state,
    select_settings,
    unmeasured_records,
)
from .metrics import fidelity
from .operators import _check_number
from .statesim import (
    NoiseModel,
    _check_family,
    apply_channel_to_all,
    build_ghz_phase,
    build_twisted,
    run_circuit,
    run_werner_pair,
    werner_exact,
)
from .symmetry import SymmetrySpec, compute_commutant_basis

_FAMILIES = ("ghz", "twisted", "werner", "werner_exact")
_PLANS = ("pi", "complete", "selected")
_MODES = ("git", "cvqt", "maxlik")
_DEFAULT_LEVELS = tuple(round(0.05 * i, 2) for i in range(11))
_DEFAULT_SHOTS = (128, 512, 2048, 8192)

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _splitmix64(z: int) -> int:
    z = (z + _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def mix_seed(base: int, *coords: int) -> int:
    """Derive a 64-bit seed from a base seed and integer grid coordinates.

    Implemented as chained splitmix64 scrambles, so nearby coordinates give
    unrelated streams and distinct coordinates essentially never collide.
    """
    state = _splitmix64(base & _MASK64)
    for c in coords:
        state = _splitmix64(state ^ ((int(c) * _GOLDEN + 1) & _MASK64))
    return state


@dataclass(frozen=True)
class SweepConfig:
    family: str = "ghz"
    n_qubits: int = 2
    theta: float = 0.0
    theta_a: float = 0.0
    theta_b: float = np.pi
    p: float = 1.0
    p2: float | None = None
    symmetry: str = "permutation"        # "permutation" | "collective"
    modes: tuple = ("git",)
    channels: tuple = ("depolarizing",)
    levels: tuple = _DEFAULT_LEVELS
    shots: tuple = _DEFAULT_SHOTS        # entries may be None for analytic data
    repetitions: int = 30
    base_seed: int = 0
    noise_policy: str = "post"
    settings_plan: str = "pi"
    selected_count: int | None = None
    observable_counts: tuple | None = None   # observable-count sweep only
    estimator: EstimatorConfig = EstimatorConfig()

    def __post_init__(self):
        for name in ("modes", "channels", "levels", "shots", "observable_counts"):
            value = getattr(self, name)
            if name == "observable_counts" and value is None:
                continue
            try:
                object.__setattr__(self, name, tuple(value))
            except TypeError:
                raise ValueError(f"{name} must be a list, got {value!r}") from None
            if not getattr(self, name):
                raise ValueError(f"{name} must be a nonempty list")
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown state family {self.family!r}")
        if self.symmetry not in ("permutation", "collective"):
            raise ValueError(f"unknown symmetry {self.symmetry!r}")
        if self.settings_plan not in _PLANS:
            raise ValueError(f"unknown settings plan {self.settings_plan!r}")
        if not self.modes or any(mode not in _MODES for mode in self.modes):
            raise ValueError(f"modes must be a nonempty subset of {_MODES}")
        if len(set(self.modes)) != len(self.modes):
            raise ValueError(f"modes must not repeat, got {list(self.modes)}")
        if not isinstance(self.estimator, EstimatorConfig):
            raise ValueError(f"estimator must be an EstimatorConfig, got {self.estimator!r}")
        _check_number("n_qubits", self.n_qubits, low=1)
        for name in ("theta", "theta_a", "theta_b", "p"):
            _check_number(name, getattr(self, name), numbers.Real)
        if self.p2 is not None:
            _check_number("p2", self.p2, numbers.Real)
        for level in self.levels:
            _check_number("levels entry", level, numbers.Real)
        for channel in self.channels:
            for level in self.levels:
                NoiseModel(channel, float(level), self.noise_policy)
        _check_family(self.family, self.n_qubits, self.p2)
        if self.family == "werner_exact":
            werner_exact(self.p, n_pairs=self.n_qubits // 2, p2=self.p2)
        _check_number("repetitions", self.repetitions, low=1)
        _check_number("base_seed", self.base_seed)
        for s in self.shots:
            if s is not None:
                _check_number("shots entry", s, low=1)
        if self.selected_count is not None:
            _check_number("selected_count", self.selected_count, low=1, high=3**self.n_qubits)
        for k in self.observable_counts or ():
            _check_number("observable_counts entry", k, low=1)
        # a repeated count would write its cell's row twice, and the summary would count it twice
        if self.observable_counts is not None and len(set(self.observable_counts)) != len(self.observable_counts):
            raise ValueError(f"observable_counts must not repeat, got {list(self.observable_counts)}")
        if self.observable_counts is not None and self.modes != ("git",):
            raise ValueError(f"an observable-count study runs git only; modes must be ['git'], "
                             f"got {list(self.modes)}")


@dataclass(frozen=True)
class SweepRecord:
    family: str
    n_qubits: int
    channel: str
    level: float
    shots: int | None
    repetition: int
    mode: str
    seed: int
    observable_count: int | None = None
    fidelity_vs_target: float | None = None
    fidelity_vs_real: float | None = None
    fidelity_git_vs_cvqt: float | None = None
    fidelity_vs_reference: float | None = None
    converged: bool | None = None
    iterations: int | None = None
    objective: float | None = None
    error: str | None = None


@dataclass(frozen=True)
class SweepSummary:
    channel: str
    level: float
    shots: int | None
    mode: str
    count: int
    failures: int
    mean_fidelity_vs_target: float | None
    std_fidelity_vs_target: float | None
    mean_fidelity_vs_real: float | None
    std_fidelity_vs_real: float | None
    mean_fidelity_git_vs_cvqt: float | None
    observable_count: int | None     # observable-count study only


# ---------------------------------------------------------------------------
# state preparation and measurement plans (cached per worker process)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=64)
def _prepared_states(config: SweepConfig, channel: str, level: float):
    """(rho_target, rho_real) for one noise grid point."""
    noise = NoiseModel(channel=channel, level=float(level), policy=config.noise_policy)
    if config.family in ("ghz", "twisted"):
        build = build_ghz_phase if config.family == "ghz" else build_twisted
        circuit = build(config.n_qubits, config.theta)
        return run_circuit(circuit), run_circuit(circuit, noise)
    if config.family == "werner":
        return (
            run_werner_pair(config.theta_a, config.theta_b),
            run_werner_pair(config.theta_a, config.theta_b, noise),
        )
    # closed-form werner state(s); noise is applied post-preparation per qubit
    rho = werner_exact(config.p, n_pairs=config.n_qubits // 2, p2=config.p2)
    return rho, apply_channel_to_all(rho, channel, level)


class _Plan:
    """Measurement settings and each mode's ``record_plan`` for a config."""

    def __init__(self, config: SweepConfig):
        n = config.n_qubits
        self.basis = compute_commutant_basis(SymmetrySpec(n, config.symmetry))
        if config.settings_plan == "pi":
            self.settings = pi_settings(n)
        elif config.settings_plan == "complete":
            self.settings = full_settings(n)
        else:
            self.settings = select_settings(self.basis, full_settings(n), config.selected_count)
        self.record_plans = {mode: record_plan(mode, config.symmetry, self.settings)
                             for mode in config.modes}

    @cached_property
    def ordered_observables(self) -> list[str]:
        """The git observables in the order an observable-count study measures them: settings first."""
        measured, _, pooled = self.record_plans["git"]
        settings = self.settings
        if pooled:  # every pooled setting, in greedy order
            n = self.basis.n_qubits
            settings = select_settings(self.basis, pi_settings(n), len(pi_settings(n)))
        return list(settings) + [o for o in measured if "I" in o]


@lru_cache(maxsize=32)
def _plan_for(config: SweepConfig) -> _Plan:
    return _Plan(config)


def _solve(config: SweepConfig, plan: _Plan, histograms, mode: str, measured, unmeasured):
    """``mode``'s estimate: frequencies of the ``measured`` observables, penalties on the ``unmeasured``."""
    records = extract_frequencies(histograms, measured, pi_mode=plan.record_plans[mode][2])
    records += unmeasured_records(unmeasured)
    if mode == "git":
        return solve_git(records, plan.basis, config.estimator)
    if mode == "cvqt":
        return solve_cvqt(records, 2**config.n_qubits, config.estimator)
    return solve_maxlik(records, config.estimator)


def _attempt(solve, *args):
    """``solve(*args)``, or the message of the error it raised."""
    try:
        return solve(*args)
    except Exception as exc:  # noqa: BLE001 -- sweep must survive solver failures
        return f"{type(exc).__name__}: {exc}"


def _safe_fidelity(a, b) -> float | None:
    if a is None or b is None:
        return None
    try:
        return fidelity(a, b)
    except ValueError:
        return None


def _row(common: dict, result, rho_target, rho_real, **extra) -> SweepRecord:
    """The row of one solve; ``result`` is its estimate or the message of its error."""
    if isinstance(result, str):
        return SweepRecord(**common, error=result)
    return SweepRecord(
        **common,
        fidelity_vs_target=_safe_fidelity(result.rho_hat, rho_target),
        fidelity_vs_real=_safe_fidelity(result.rho_hat, rho_real),
        converged=result.converged,
        iterations=result.iterations,
        objective=result.objective,
        **extra,
    )


def _run_cell(args) -> list[SweepRecord]:
    """One grid point and repetition: a row per mode, or per observable count in a count study."""
    config, ci, li, si, rep = args
    channel, level, shots = config.channels[ci], float(config.levels[li]), config.shots[si]
    plan = _plan_for(config)
    rho_target, rho_real = _prepared_states(config, channel, level)
    seed = mix_seed(config.base_seed, ci, li, si, rep)
    histograms = sample_state(rho_real, plan.settings, shots, seed)
    common = dict(
        family=config.family,
        n_qubits=config.n_qubits,
        channel=channel,
        level=level,
        shots=shots,
        repetition=rep,
        seed=seed,
    )
    if config.observable_counts is not None:
        ordered = plan.ordered_observables
        full = len(ordered)  # the reference: every observable measured
        results = {full: _attempt(_solve, config, plan, histograms, "git", ordered, [])}
        for k in config.observable_counts:
            if k not in results:
                results[k] = _attempt(_solve, config, plan, histograms, "git", ordered[:k], ordered[k:])
        reference = getattr(results[full], "rho_hat", None)
        return [
            _row(dict(common, mode="git", observable_count=int(k)), results[k], rho_target, rho_real,
                 fidelity_vs_reference=_safe_fidelity(getattr(results[k], "rho_hat", None), reference))
            for k in config.observable_counts
        ]
    results = {mode: _attempt(_solve, config, plan, histograms, mode, *plan.record_plans[mode][:2])
               for mode in config.modes}
    cross = _safe_fidelity(
        getattr(results.get("git"), "rho_hat", None), getattr(results.get("cvqt"), "rho_hat", None)
    )
    return [
        _row(dict(common, mode=mode), results[mode], rho_target, rho_real,
             fidelity_git_vs_cvqt=cross if mode == "cvqt" else None)
        for mode in config.modes
    ]


def run_sweep(config: SweepConfig, jobs: int = 1) -> list[SweepRecord]:
    """Execute the full grid; solver failures are recorded per row, never raised.

    Each cell (channel, level, shots, repetition) samples one data set and
    runs every mode on it.  A config with ``observable_counts`` runs the
    observable-count study instead: each cell solves git once per count,
    and once with every observable measured for the reference unless that
    count is one of them (see ``observable_count_sweep``); analytic
    (``shots=None``) entries take a single repetition.  Counts beyond the
    ordered family raise ``ValueError`` before any cell runs.

    With ``jobs > 1`` cells run in separate processes; the merged record
    list is identical to a serial run because every cell's randomness comes
    only from its own mixed seed.
    """
    counting = config.observable_counts is not None
    if counting:
        full = len(_plan_for(config).ordered_observables)
        if any(not 1 <= k <= full for k in config.observable_counts):
            raise ValueError(f"observable counts must lie in [1, {full}]")
    cells = [
        (config, ci, li, si, rep)
        for ci in range(len(config.channels))
        for li in range(len(config.levels))
        for si, shots in enumerate(config.shots)
        for rep in range(1 if counting and shots is None else config.repetitions)
    ]
    if jobs <= 1:
        nested = [_run_cell(cell) for cell in cells]
    else:
        # a forking pool starts all its workers at the first submit
        with ProcessPoolExecutor(max_workers=min(jobs, len(cells))) as pool:
            nested = list(pool.map(_run_cell, cells, chunksize=4))
    return [row for rows in nested for row in rows]


def observable_count_sweep(config: SweepConfig) -> list[SweepRecord]:
    """Grow the measured observable set record by record (git mode).

    Observables beyond the first k stay in the problem as unmeasured-mass
    penalties.  Each row also reports fidelity against the full-data
    estimate ("reference") so quorum onset is visible without knowing the
    true state.  Unset ``observable_counts`` mean every k from 1 to the size
    of the family.  This is ``run_sweep`` on that config, run serially.
    """
    if config.observable_counts is None:
        full = len(_plan_for(config).ordered_observables)
        config = dataclasses.replace(config, observable_counts=tuple(range(1, full + 1)))
    return run_sweep(config)


# ---------------------------------------------------------------------------
# summaries and export
# ---------------------------------------------------------------------------

def _mean_std(values):
    vals = [v for v in values if v is not None]
    if not vals:
        return None, None
    mean = float(np.mean(vals))
    std = float(np.std(vals, ddof=1)) if len(vals) > 1 else 0.0
    return mean, std


def summarize(records) -> list[SweepSummary]:
    """Per-(channel, level, shots, mode, observable count) means and sample standard deviations."""
    groups: dict[tuple, list[SweepRecord]] = {}
    for rec in records:
        key = (rec.channel, rec.level, rec.shots, rec.mode, rec.observable_count)
        groups.setdefault(key, []).append(rec)
    out = []
    # unset shots (analytic data) and counts (ordinary sweeps) sort first
    for key in sorted(groups, key=lambda k: tuple(-1 if v is None else v for v in k)):
        rows = groups[key]
        mt, st = _mean_std([r.fidelity_vs_target for r in rows])
        mr, sr = _mean_std([r.fidelity_vs_real for r in rows])
        mc, _ = _mean_std([r.fidelity_git_vs_cvqt for r in rows])
        out.append(
            SweepSummary(
                channel=key[0],
                level=key[1],
                shots=key[2],
                mode=key[3],
                count=len(rows),
                failures=sum(1 for r in rows if r.error is not None),
                mean_fidelity_vs_target=mt,
                std_fidelity_vs_target=st,
                mean_fidelity_vs_real=mr,
                std_fidelity_vs_real=sr,
                mean_fidelity_git_vs_cvqt=mc,
                observable_count=key[4],
            )
        )
    return out


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)  # shortest exact round-trip form, deterministic
    return str(value)


def _rows_to_csv(rows, fieldnames) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(fieldnames)
    for row in rows:
        writer.writerow([_format_cell(getattr(row, name)) for name in fieldnames])
    return buf.getvalue()


def records_to_csv(records) -> str:
    return _rows_to_csv(records, [f.name for f in dataclasses.fields(SweepRecord)])


def summary_to_csv(summaries) -> str:
    return _rows_to_csv(summaries, [f.name for f in dataclasses.fields(SweepSummary)])


def _dumps(payload) -> str:
    # a numpy scalar (a config's levels or shots entry) is written as the Python number it holds
    return json.dumps(payload, indent=1, sort_keys=True, default=lambda v: v.item()) + "\n"


def export(records, out_dir, fmt: str = "csv", config: SweepConfig | None = None) -> list[Path]:
    """Write records.(csv|json), summary.(csv|json), and manifest.json.

    Identical inputs produce byte-identical files; the manifest echoes the
    config so a run can be reproduced from its output directory alone.
    """
    if fmt not in ("csv", "json", "both"):
        raise ValueError(f"unknown export format {fmt!r}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    summaries = summarize(records)
    written = []
    if fmt in ("csv", "both"):
        for name, text in (
            ("records.csv", records_to_csv(records)),
            ("summary.csv", summary_to_csv(summaries)),
        ):
            path = out / name
            path.write_text(text)
            written.append(path)
    if fmt in ("json", "both"):
        for name, payload in (
            ("records.json", [dataclasses.asdict(r) for r in records]),
            ("summary.json", [dataclasses.asdict(s) for s in summaries]),
        ):
            path = out / name
            path.write_text(_dumps(payload))
            written.append(path)
    manifest = {
        "version": _VERSION,
        "n_records": len(records),
        "config": None if config is None else dataclasses.asdict(config),
    }
    path = out / "manifest.json"
    path.write_text(_dumps(manifest))
    written.append(path)
    return written


def sweep_config_from_dict(payload: dict) -> SweepConfig:
    """Build a SweepConfig from parsed JSON (the CLI's --config format)."""
    if not isinstance(payload, dict):
        raise ValueError("sweep config must be a JSON object")
    known = {f.name for f in dataclasses.fields(SweepConfig)}
    unknown = set(payload) - known
    if unknown:
        raise ValueError(f"unknown sweep config fields: {sorted(unknown)}")
    kwargs = dict(payload)
    if "estimator" in kwargs:
        est = kwargs["estimator"]
        if not isinstance(est, dict):
            raise ValueError(f"estimator must be a JSON object, got {est!r}")
        bad = set(est) - {f.name for f in dataclasses.fields(EstimatorConfig)}
        if bad:
            raise ValueError(f"unknown estimator config fields: {sorted(bad)}")
        kwargs["estimator"] = EstimatorConfig(**est)
    return SweepConfig(**kwargs)
