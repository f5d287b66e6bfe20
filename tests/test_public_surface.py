"""The public surface that the package keeps: exported names, result and config fields, CLI options.

Each list here is written out in full, so dropping or renaming a public name
fails a test instead of passing unnoticed.  Adding one means adding it here.
"""

import argparse
import dataclasses

import pytest

import symtomo
from symtomo import cli
from symtomo.estimation import EstimationResult, EstimatorConfig
from symtomo.harness import SweepConfig, SweepRecord

EXPORTS = [
    "Circuit", "EstimationProblem", "EstimationResult", "EstimatorConfig", "Gate", "MetricReport", "NoiseModel",
    "ObservableRecord", "OutcomeHistogram", "SweepConfig", "SweepRecord", "SweepSummary", "SymmetricBasis",
    "SymmetricCoefficients", "SymmetrySpec", "apply_channel", "apply_channel_to_all", "born_probabilities",
    "build_ghz_phase", "build_twisted", "build_werner_pair", "compute_commutant_basis", "concurrence",
    "eig_hermitian", "estimation", "exact_histogram", "export", "extract_frequencies", "fidelity",
    "full_observables", "full_settings", "ghz_state", "group_generators", "harness", "hilbert_schmidt_inner",
    "ingest_histograms", "kraus_operators", "linear_inversion", "load_matrix", "marginal_observables",
    "matrix_from_json", "matrix_sqrt_psd", "matrix_to_json", "measurement", "metric_report", "metrics",
    "mix_seed", "observable_count_sweep", "observable_projector", "operators", "partial_trace",
    "pi_observables", "pi_settings", "project_onto_basis", "purity", "reconstruct", "run_circuit", "run_sweep",
    "run_werner_pair", "sample_histogram", "sample_state", "save_histograms", "save_matrix", "select_settings",
    "solve_cvqt", "solve_git", "solve_maxlik", "solve_vqt", "statesim", "summarize", "sweep_config_from_dict",
    "symmetrize", "symmetry", "tensor", "trace_distance", "twisted_state", "unmeasured_records", "werner_exact",
]

FIELDS = {
    EstimatorConfig: ["alpha", "beta", "gamma", "max_iterations", "objective_tolerance", "feasibility_tolerance",
                      "frequency_floor", "restarts", "seed"],
    SweepConfig: ["family", "n_qubits", "theta", "theta_a", "theta_b", "p", "p2", "symmetry", "modes",
                  "channels", "levels", "shots", "repetitions", "base_seed", "noise_policy", "settings_plan",
                  "selected_count", "observable_counts", "estimator"],
    EstimationResult: ["rho_hat", "objective", "delta", "feasibility_residual", "iterations", "converged", "mode"],
    SweepRecord: ["family", "n_qubits", "channel", "level", "shots", "repetition", "mode", "seed",
                  "observable_count", "fidelity_vs_target", "fidelity_vs_real", "fidelity_git_vs_cvqt",
                  "fidelity_vs_reference", "converged", "iterations", "objective", "error"],
}

OPTIONS = {
    "basis": ["--symmetry", "--qubits", "--generators", "--generator-kind", "--out"],
    "prepare": ["--state", "--qubits", "--theta", "--theta-a", "--theta-b", "--p", "--p2", "--noise", "--level",
                "--policy", "--out"],
    "sample": ["--state", "--settings", "--count", "--shots", "--seed", "--out"],
    "estimate": ["--data", "--mode", "--symmetry", "--alpha", "--beta", "--gamma", "--seed", "--out"],
    "metrics": ["--a", "--b", "--fidelity-convention", "--out"],
    "sweep": ["--config", "--out-dir", "--format", "--jobs"],
}


def test_the_package_exports_its_public_names():
    assert sorted(symtomo.__all__) == EXPORTS


@pytest.mark.parametrize("cls", list(FIELDS), ids=[cls.__name__ for cls in FIELDS])
def test_config_and_result_fields_are_kept(cls):
    assert [f.name for f in dataclasses.fields(cls)] == FIELDS[cls]


def test_every_cli_subcommand_keeps_its_options():
    parser = cli._build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert list(commands.choices) == list(OPTIONS)
    for name, sub in commands.choices.items():
        options = [opt for action in sub._actions for opt in action.option_strings if opt not in ("-h", "--help")]
        assert options == OPTIONS[name], name
