"""Reproducible simulation sweeps over noise levels, shot counts and estimators.

A sweep walks the grid (channel x level x shots x repetition), simulates the
chosen state family under that noise, samples measurement histograms with a
seed derived deterministically from the grid coordinates, runs the requested
estimators, and records fidelities.  Everything is driven by one frozen
config object so a run is fully determined by its content; rerunning a sweep
reproduces the output files byte for byte.

``observable_count_sweep`` is the second study type: it fixes the data and
grows the measured observable set one record at a time (remaining family
members enter the estimator as unmeasured-mass penalties), tracking how the
reconstruction approaches the full-data estimate and the true state.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import __version__ as _VERSION
from .estimation import EstimatorConfig, solve_cvqt, solve_git, solve_maxlik
from .measurement import (
    extract_frequencies,
    full_observables,
    full_settings,
    marginal_observables,
    pi_observables,
    pi_settings,
    sample_state,
    select_settings,
    unmeasured_records,
)
from .metrics import fidelity
from .statesim import (
    CHANNELS,
    NoiseModel,
    apply_channel,
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
        for name in ("modes", "channels", "levels", "shots"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        if self.observable_counts is not None:
            object.__setattr__(self, "observable_counts", tuple(self.observable_counts))
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown state family {self.family!r}")
        if self.symmetry not in ("permutation", "collective"):
            raise ValueError(f"unknown symmetry {self.symmetry!r}")
        if self.settings_plan not in _PLANS:
            raise ValueError(f"unknown settings plan {self.settings_plan!r}")
        bad_modes = set(self.modes) - set(_MODES)
        if bad_modes or not self.modes:
            raise ValueError(f"modes must be a nonempty subset of {_MODES}")
        bad_channels = set(self.channels) - set(CHANNELS)
        if bad_channels:
            raise ValueError(f"unknown channels {sorted(bad_channels)}")
        for channel in self.channels:
            for level in self.levels:
                NoiseModel(channel, float(level), self.noise_policy)
        if self.family == "werner" and self.n_qubits != 2:
            raise ValueError("the werner circuit family prepares a two-qubit state")
        one_pair = self.n_qubits == 2 and self.p2 is None
        if self.family == "werner_exact" and not (one_pair or self.n_qubits == 4):
            raise ValueError("werner_exact supports 2 qubits (one pair) or 4 (two pairs)")
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        for s in self.shots:
            if s is not None and int(s) <= 0:
                raise ValueError("shot counts must be positive or None (analytic)")


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


# ---------------------------------------------------------------------------
# state preparation and measurement plans (cached per worker process)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=64)
def _prepared_states(config: SweepConfig, channel: str, level: float):
    """(rho_target, rho_real) for one noise grid point."""
    noise = NoiseModel(channel=channel, level=float(level), policy=config.noise_policy)
    if config.family == "ghz":
        circuit = build_ghz_phase(config.n_qubits, config.theta)
        return run_circuit(circuit), run_circuit(circuit, noise)
    if config.family == "twisted":
        circuit = build_twisted(config.n_qubits, config.theta)
        return run_circuit(circuit), run_circuit(circuit, noise)
    if config.family == "werner":
        return (
            run_werner_pair(config.theta_a, config.theta_b),
            run_werner_pair(config.theta_a, config.theta_b, noise),
        )
    # closed-form werner state(s); noise is applied post-preparation per qubit
    rho = werner_exact(config.p, n_pairs=config.n_qubits // 2, p2=config.p2)
    rho_real = rho
    if channel != "none" and level > 0.0:
        for q in range(config.n_qubits):
            rho_real = apply_channel(rho_real, channel, level, q)
    return rho, rho_real


class _Plan:
    """Measurement settings and estimator record layouts for a config."""

    def __init__(self, config: SweepConfig):
        n = config.n_qubits
        spec = (
            SymmetrySpec.permutation(n)
            if config.symmetry == "permutation"
            else SymmetrySpec.collective(n)
        )
        self.basis = compute_commutant_basis(spec)
        if config.settings_plan == "pi":
            self.settings = pi_settings(n)
        elif config.settings_plan == "complete":
            self.settings = full_settings(n)
        else:
            k = config.selected_count or min(len(full_settings(n)), 2 * self.basis.size)
            self.settings = select_settings(self.basis, full_settings(n), k)
        if config.symmetry == "permutation":
            self.git_targets = pi_observables(n)
            self.pi_mode = True
        else:
            self.git_targets = list(self.settings) + marginal_observables(self.settings)
            self.pi_mode = False
        everything = full_observables(n)
        measured = set(self.settings) | set(marginal_observables(self.settings))
        self.full_measured = [o for o in everything if o in measured]
        self.full_unmeasured = [o for o in everything if o not in measured]
        # observable-count sweeps grow the measured set in this order:
        if config.symmetry == "permutation":
            greedy = select_settings(self.basis, pi_settings(n), len(pi_settings(n)))
            self.ordered_observables = greedy + [o for o in pi_observables(n) if "I" in o]
        else:
            self.ordered_observables = list(self.settings) + marginal_observables(self.settings)


@lru_cache(maxsize=32)
def _plan_for(config: SweepConfig) -> _Plan:
    return _Plan(config)


def _git_records(plan: _Plan, histograms, measured=None):
    targets = plan.git_targets if measured is None else measured
    return extract_frequencies(histograms, targets, pi_mode=plan.pi_mode)


def _cell_estimates(config: SweepConfig, plan: _Plan, histograms):
    """Run every requested estimator on one sampled data set."""
    results = {}
    errors = {}
    for mode in config.modes:
        try:
            if mode == "git":
                records = _git_records(plan, histograms)
                results[mode] = solve_git(records, plan.basis, config.estimator)
            elif mode == "cvqt":
                records = extract_frequencies(histograms, plan.full_measured)
                records += unmeasured_records(plan.full_unmeasured)
                results[mode] = solve_cvqt(records, 2**config.n_qubits, config.estimator)
            else:
                records = extract_frequencies(histograms, plan.full_measured)
                results[mode] = solve_maxlik(records, config.estimator)
        except Exception as exc:  # noqa: BLE001 -- sweep must survive solver failures
            errors[mode] = f"{type(exc).__name__}: {exc}"
    return results, errors


def _safe_fidelity(a, b) -> float | None:
    try:
        return fidelity(a, b)
    except ValueError:
        return None


def _run_cell(args) -> list[SweepRecord]:
    config, ci, li, si, rep = args
    channel = config.channels[ci]
    level = config.levels[li]
    shots = config.shots[si]
    plan = _plan_for(config)
    rho_target, rho_real = _prepared_states(config, channel, float(level))
    seed = mix_seed(config.base_seed, ci, li, si, rep)
    histograms = sample_state(rho_real, plan.settings, shots, seed)
    results, errors = _cell_estimates(config, plan, histograms)

    cross = None
    if "git" in results and "cvqt" in results:
        cross = _safe_fidelity(results["git"].rho_hat, results["cvqt"].rho_hat)

    rows = []
    for mode in config.modes:
        common = dict(
            family=config.family,
            n_qubits=config.n_qubits,
            channel=channel,
            level=float(level),
            shots=shots,
            repetition=rep,
            mode=mode,
            seed=seed,
        )
        if mode in errors:
            rows.append(SweepRecord(**common, error=errors[mode]))
            continue
        res = results[mode]
        rows.append(
            SweepRecord(
                **common,
                fidelity_vs_target=_safe_fidelity(res.rho_hat, rho_target),
                fidelity_vs_real=_safe_fidelity(res.rho_hat, rho_real),
                fidelity_git_vs_cvqt=cross if mode == "cvqt" else None,
                converged=res.converged,
                iterations=res.iterations,
                objective=res.objective,
            )
        )
    return rows


def run_sweep(config: SweepConfig, jobs: int = 1) -> list[SweepRecord]:
    """Execute the full grid; failures are recorded per cell, never raised.

    With ``jobs > 1`` grid cells run in separate processes; the merged record
    list is identical to a serial run because every cell's randomness comes
    only from its own mixed seed.
    """
    cells = [
        (config, ci, li, si, rep)
        for ci in range(len(config.channels))
        for li in range(len(config.levels))
        for si in range(len(config.shots))
        for rep in range(config.repetitions)
    ]
    if jobs <= 1:
        nested = [_run_cell(cell) for cell in cells]
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            nested = list(pool.map(_run_cell, cells, chunksize=4))
    return [row for rows in nested for row in rows]


def observable_count_sweep(config: SweepConfig) -> list[SweepRecord]:
    """Grow the measured observable set record by record (git mode).

    Observables beyond the first k stay in the problem as unmeasured-mass
    penalties.  Each cell also reports fidelity against the full-data
    estimate ("reference") so quorum onset is visible without knowing the
    true state.  ``shots=None`` entries use exact Born frequencies, for which
    a single repetition suffices.
    """
    plan = _plan_for(config)
    ordered = plan.ordered_observables
    counts = config.observable_counts or tuple(range(1, len(ordered) + 1))
    if any(not 1 <= k <= len(ordered) for k in counts):
        raise ValueError(f"observable counts must lie in [1, {len(ordered)}]")
    rows = []
    for ci, channel in enumerate(config.channels):
        for li, level in enumerate(config.levels):
            for si, shots in enumerate(config.shots):
                reps = 1 if shots is None else config.repetitions
                for rep in range(reps):
                    rho_target, rho_real = _prepared_states(config, channel, float(level))
                    seed = mix_seed(config.base_seed, ci, li, si, rep)
                    hists = sample_state(rho_real, plan.settings, shots, seed)
                    reference = solve_git(
                        _git_records(plan, hists, ordered), plan.basis, config.estimator
                    )
                    for k in counts:
                        common = dict(
                            family=config.family,
                            n_qubits=config.n_qubits,
                            channel=channel,
                            level=float(level),
                            shots=shots,
                            repetition=rep,
                            mode="git",
                            seed=seed,
                            observable_count=int(k),
                        )
                        try:
                            records = _git_records(plan, hists, ordered[:k])
                            records += unmeasured_records(ordered[k:])
                            res = solve_git(records, plan.basis, config.estimator)
                        except Exception as exc:  # noqa: BLE001
                            rows.append(
                                SweepRecord(**common, error=f"{type(exc).__name__}: {exc}")
                            )
                            continue
                        rows.append(
                            SweepRecord(
                                **common,
                                fidelity_vs_target=_safe_fidelity(res.rho_hat, rho_target),
                                fidelity_vs_real=_safe_fidelity(res.rho_hat, rho_real),
                                fidelity_vs_reference=_safe_fidelity(
                                    res.rho_hat, reference.rho_hat
                                ),
                                converged=res.converged,
                                iterations=res.iterations,
                                objective=res.objective,
                            )
                        )
    return rows


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
    """Per-(channel, level, shots, mode) means and sample standard deviations."""
    groups: dict[tuple, list[SweepRecord]] = {}
    for rec in records:
        groups.setdefault((rec.channel, rec.level, rec.shots, rec.mode), []).append(rec)
    out = []
    for key in sorted(groups, key=lambda k: (k[0], k[1], -1 if k[2] is None else k[2], k[3])):
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


def _jsonable(obj):
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {k: _jsonable(v) for k, v in dataclasses.asdict(obj).items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj


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
            ("records.json", [_jsonable(r) for r in records]),
            ("summary.json", [_jsonable(s) for s in summaries]),
        ):
            path = out / name
            path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
            written.append(path)
    manifest = {
        "version": _VERSION,
        "n_records": len(records),
        "config": None if config is None else _jsonable(config),
    }
    path = out / "manifest.json"
    path.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
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
    if "estimator" in kwargs and kwargs["estimator"] is not None:
        est = kwargs["estimator"]
        bad = set(est) - {f.name for f in dataclasses.fields(EstimatorConfig)}
        if bad:
            raise ValueError(f"unknown estimator config fields: {sorted(bad)}")
        kwargs["estimator"] = EstimatorConfig(**est)
    for name in ("modes", "channels", "levels", "shots", "observable_counts"):
        if name in kwargs and kwargs[name] is not None:
            kwargs[name] = tuple(kwargs[name])
    return SweepConfig(**kwargs)
