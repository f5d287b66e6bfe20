"""Command-line front end.

Subcommands mirror the library's main capabilities:

    symtomo basis    -- compute a symmetry operator basis, write it as JSON
    symtomo prepare  -- simulate a (possibly noisy) state, write the matrix
    symtomo sample   -- measure a stored state, write outcome histograms
    symtomo estimate -- reconstruct a state from histograms
    symtomo metrics  -- compare two stored states
    symtomo sweep    -- run a configured sweep study into an output directory
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .estimation import EstimatorConfig, solve_cvqt, solve_git, solve_maxlik
from .harness import export, run_sweep, sweep_config_from_dict
from .measurement import (
    check_setting,
    extract_frequencies,
    full_settings,
    ingest_histograms,
    pi_settings,
    record_plan,
    sample_state,
    save_histograms,
    select_settings,
    unmeasured_records,
)
from .metrics import metric_report
from .operators import (
    assert_density_matrix,
    load_matrix,
    matrix_from_json,
    matrix_to_json,
    num_qubits,
    save_matrix,
)
from .statesim import (
    NoiseModel,
    apply_channel_to_all,
    build_ghz_phase,
    build_twisted,
    run_circuit,
    run_werner_pair,
    werner_exact,
)
from .symmetry import SymmetrySpec, compute_commutant_basis

_CHANNEL_ALIASES = {
    "none": "none",
    "ad": "amplitude_damping",
    "amplitude-damping": "amplitude_damping",
    "bf": "bit_flip",
    "bit-flip": "bit_flip",
    "dep": "depolarizing",
    "depolarizing": "depolarizing",
    "dep-pauli": "depolarizing_pauli",
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="symtomo", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_basis = sub.add_parser("basis", help="compute a symmetry operator basis")
    p_basis.add_argument("--symmetry", required=True, choices=["permutation", "collective", "custom"])
    p_basis.add_argument("--qubits", type=int, required=True)
    p_basis.add_argument("--generators", help="JSON file with custom generator matrices")
    p_basis.add_argument(
        "--generator-kind", choices=["unitary", "lie"], default="unitary",
        help="how to interpret --generators (default: unitary)",
    )
    p_basis.add_argument("--out", required=True)

    p_prep = sub.add_parser("prepare", help="simulate a state preparation")
    p_prep.add_argument("--state", required=True, choices=["ghz", "twisted", "werner", "werner-exact"])
    p_prep.add_argument("--qubits", type=int, required=True)
    p_prep.add_argument("--theta", type=float, default=0.0)
    p_prep.add_argument("--theta-a", type=float, default=0.0)
    p_prep.add_argument("--theta-b", type=float, default=np.pi)
    p_prep.add_argument("--p", type=float, default=1.0)
    p_prep.add_argument("--p2", type=float, default=None)
    p_prep.add_argument("--noise", default="none", choices=sorted(_CHANNEL_ALIASES))
    p_prep.add_argument("--level", type=float, default=0.0)
    p_prep.add_argument("--policy", default="post", choices=["post", "pergate"])
    p_prep.add_argument("--out", required=True)

    p_sample = sub.add_parser("sample", help="measure a stored state")
    p_sample.add_argument("--state", required=True, help="density matrix JSON file")
    p_sample.add_argument(
        "--settings", default="pi",
        help="'pi', 'werner', or a JSON file holding a list of setting strings",
    )
    p_sample.add_argument("--count", type=int, default=None,
                          help="number of settings for --settings werner")
    p_sample.add_argument("--shots", type=int, required=True)
    p_sample.add_argument("--seed", type=int, default=0)
    p_sample.add_argument("--out", required=True)

    p_est = sub.add_parser("estimate", help="reconstruct a state from histograms")
    p_est.add_argument("--data", required=True, help="histogram JSON file")
    p_est.add_argument("--mode", default="git", choices=["git", "cvqt", "maxlik"])
    p_est.add_argument("--symmetry", default="permutation", choices=["permutation", "collective"])
    p_est.add_argument("--alpha", type=float, default=1.0)
    p_est.add_argument("--beta", type=float, default=1.0)
    p_est.add_argument("--gamma", type=float, default=1e-3)
    p_est.add_argument("--seed", type=int, default=0,
                       help="accepted and ignored: the solve is deterministic")
    p_est.add_argument("--out", required=True)

    p_met = sub.add_parser("metrics", help="compare two stored states")
    p_met.add_argument("--a", required=True)
    p_met.add_argument("--b", required=True)
    p_met.add_argument("--fidelity-convention", default="squared", choices=["squared", "sqrt"])
    p_met.add_argument("--out", default=None, help="write JSON here instead of stdout")

    p_sweep = sub.add_parser("sweep", help="run a sweep study")
    p_sweep.add_argument("--config", required=True, help="sweep config JSON file")
    p_sweep.add_argument("--out-dir", required=True)
    p_sweep.add_argument("--format", default="csv", choices=["csv", "json", "both"])
    p_sweep.add_argument("--jobs", type=int, default=1)
    return parser


def _cmd_basis(args) -> int:
    if args.symmetry == "custom":
        if not args.generators:
            raise SystemExit("--symmetry custom requires --generators FILE")
        make = SymmetrySpec.custom_unitaries if args.generator_kind == "unitary" else SymmetrySpec.custom_lie
        mats = []
        for i, item in enumerate(_load_json_list(args.generators, "generator matrices")):
            try:
                mats.append(matrix_from_json(item))
                make([mats[0], mats[-1]])  # entry i alone: its size against entry 0, and its kind
            except (TypeError, ValueError) as exc:
                raise SystemExit(f"{args.generators}: entry {i}: {exc}") from None
        spec = make(mats)
        if spec.n_qubits != args.qubits:
            raise SystemExit("generator dimension does not match --qubits")
    else:
        spec = SymmetrySpec(args.qubits, args.symmetry)
    basis = compute_commutant_basis(spec)
    payload = {
        "symmetry": basis.kind,
        "n_qubits": basis.n_qubits,
        "size": basis.size,
        "elements": [matrix_to_json(el) for el in basis.elements],
    }
    Path(args.out).write_text(json.dumps(payload) + "\n")
    print(f"wrote {basis.size} basis elements to {args.out}")
    return 0


def _cmd_prepare(args) -> int:
    channel = _CHANNEL_ALIASES[args.noise]
    try:
        noise = NoiseModel(channel=channel, level=args.level, policy=args.policy)
        if args.state == "ghz":
            rho = run_circuit(build_ghz_phase(args.qubits, args.theta), noise)
        elif args.state == "twisted":
            rho = run_circuit(build_twisted(args.qubits, args.theta), noise)
        elif args.state == "werner":
            if args.qubits != 2:
                raise SystemExit("the werner circuit prepares a 2-qubit state")
            rho = run_werner_pair(args.theta_a, args.theta_b, noise)
        else:
            if args.qubits != 4 and (args.qubits, args.p2) != (2, None):
                raise SystemExit("werner-exact needs --qubits 2, or 4 (--p2 sets the second pair)")
            rho = werner_exact(args.p, n_pairs=args.qubits // 2, p2=args.p2)
            if channel != "none" and args.level > 0.0:
                rho = apply_channel_to_all(rho, channel, args.level)
    except ValueError as exc:
        raise SystemExit(f"prepare: {exc}") from None
    save_matrix(args.out, rho)
    print(f"wrote {args.qubits}-qubit state to {args.out}")
    return 0


def _load_state(path) -> tuple[np.ndarray, int]:
    """A qubit density matrix and its qubit count; exits naming the file if it is not one."""
    try:
        rho = assert_density_matrix(load_matrix(path), name="state")
        return rho, num_qubits(rho.shape[0])
    except ValueError as exc:
        raise SystemExit(f"{path}: {exc}") from None


def _load_json_list(path, what: str) -> list:
    """A non-empty JSON list; exits naming the file if it is not one."""
    try:
        items = json.loads(Path(path).read_text())
    except ValueError as exc:
        raise SystemExit(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(items, list) or not items:
        raise SystemExit(f"{path}: expected a non-empty JSON list of {what}")
    return items


def _load_settings(path, n: int) -> list[str]:
    """A JSON list of n-letter X/Y/Z settings; exits naming the file and entry at fault."""
    settings = _load_json_list(path, f"{n}-letter X/Y/Z strings")
    for i, setting in enumerate(settings):
        if not isinstance(setting, str):
            raise SystemExit(f"{path}: entry {i} is {setting!r}, not a string")
        try:
            check_setting(setting, n)
        except ValueError as exc:
            raise SystemExit(f"{path}: entry {i}: {exc}") from None
    return settings


def _cmd_sample(args) -> int:
    rho, n = _load_state(args.state)
    if args.settings == "pi":
        settings = pi_settings(n)
    elif args.settings == "werner":
        basis = compute_commutant_basis(SymmetrySpec.collective(n))
        try:
            settings = select_settings(basis, full_settings(n), args.count)
        except ValueError as exc:
            raise SystemExit(f"--count: {exc}") from None
    else:
        settings = _load_settings(args.settings, n)
    hists = sample_state(rho, settings, args.shots, args.seed)
    save_histograms(args.out, hists, n_qubits=n)
    print(f"wrote {len(hists)} histograms ({args.shots} shots each) to {args.out}")
    return 0


def _cmd_estimate(args) -> int:
    try:
        hists = ingest_histograms(args.data)
    except ValueError as exc:
        raise SystemExit(f"{args.data}: {exc}") from None
    try:
        config = EstimatorConfig(alpha=args.alpha, beta=args.beta, gamma=args.gamma)
    except ValueError as exc:
        raise SystemExit(f"estimate: {exc}") from None
    n = hists[0].n_qubits
    measured, unmeasured, pooled = record_plan(args.mode, args.symmetry, (h.setting for h in hists))
    records = extract_frequencies(hists, measured, pi_mode=pooled) + unmeasured_records(unmeasured)
    if args.mode == "git":
        result = solve_git(records, compute_commutant_basis(SymmetrySpec(n, args.symmetry)), config)
    elif args.mode == "cvqt":
        result = solve_cvqt(records, 2**n, config)
    else:
        result = solve_maxlik(records, config)
    payload = {
        "mode": result.mode,
        "objective": result.objective,
        "converged": result.converged,
        "iterations": result.iterations,
        "feasibility_residual": result.feasibility_residual,
        "delta": [float(d) for d in result.delta],
        "rho_hat": matrix_to_json(result.rho_hat),
    }
    Path(args.out).write_text(json.dumps(payload) + "\n")
    print(
        f"{result.mode} estimate: objective {result.objective:.6g}, "
        f"converged={result.converged}, wrote {args.out}"
    )
    return 0


def _cmd_metrics(args) -> int:
    rho, _ = _load_state(args.a)
    sigma, _ = _load_state(args.b)
    report = metric_report(rho, sigma, fidelity_convention=args.fidelity_convention)
    text = json.dumps(report.to_dict(), indent=1, sort_keys=True)
    if args.out:
        Path(args.out).write_text(text + "\n")
    else:
        print(text)
    return 0


def _cmd_sweep(args) -> int:
    try:
        config = sweep_config_from_dict(json.loads(Path(args.config).read_text()))
        records = run_sweep(config, jobs=args.jobs)
    except ValueError as exc:
        raise SystemExit(f"{args.config}: {exc}") from None
    written = export(records, args.out_dir, fmt=args.format, config=config)
    print(f"wrote {len(records)} records; files: {', '.join(p.name for p in written)}")
    return 0


_COMMANDS = {
    "basis": _cmd_basis,
    "prepare": _cmd_prepare,
    "sample": _cmd_sample,
    "estimate": _cmd_estimate,
    "metrics": _cmd_metrics,
    "sweep": _cmd_sweep,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except OSError as exc:  # a missing or unreadable file; the message names it
        raise SystemExit(f"symtomo {args.command}: {exc}") from None


if __name__ == "__main__":
    sys.exit(main())
