"""The benchmark's own test: a seconds-long smoke run of each workload.

Run from the root of the checkout:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import calibration  # noqa: E402
import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import NullTracer  # noqa: E402
from symtomo import estimation, measurement  # noqa: E402
from symtomo.symmetry import SymmetrySpec, compute_commutant_basis  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_every_listed_metric_is_emitted_with_its_unit(workload, trace):
    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    listed = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in listed}
    for m in listed:
        emitted = result["metrics"][m["name"]]
        assert emitted["unit"] == m["unit"]
        assert isinstance(emitted["value"], (int, float))


def test_code_and_benchmark_json_list_the_same_metrics():
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == list(run.PER_LAYER)
    assert sorted(w["name"] for w in BENCHMARK["workloads"]) == sorted(workloads.WORKLOADS)


def test_scaled_time_is_proportional_to_raw_time():
    nominal = calibration.CAL_NOMINAL_S
    assert calibration.scale(2.0, nominal, nominal) == pytest.approx(2.0)
    assert calibration.scale(2.0, 0.5 * nominal, 1.5 * nominal) == pytest.approx(2.0)
    assert calibration.scale(1.0, nominal, 3.0 * nominal) == pytest.approx(0.5)
    assert calibration.calibration_seconds() > 0.0


def _measure_pi_git():
    # pi-git writes no files, so its work directory is never created
    workload = workloads.PiGit(seed=3, tiny=True, workdir=ROOT / ".perfbench" / "unused")
    workload.setup(NullTracer())
    acc = run.Accuracy()
    run.measure(workload, 0.0, False, acc)
    return acc


def test_non_psd_estimate_lands_in_failed(monkeypatch):
    solve_git = estimation.solve_git

    def non_psd(records, basis, config):
        result = solve_git(records, basis, config)
        shift = np.zeros(basis.dim)
        shift[:2] = (0.6, -0.6)  # keeps trace 1, pushes one eigenvalue below zero
        return dataclasses.replace(result, rho_hat=result.rho_hat + np.diag(shift))

    monkeypatch.setattr(estimation, "solve_git", non_psd)
    acc = _measure_pi_git()
    assert acc.attempted == 4 and acc.failed == 4


def test_misreported_objective_lands_in_failed(monkeypatch):
    solve_git = estimation.solve_git

    def lower_objective(records, basis, config):
        result = solve_git(records, basis, config)
        return dataclasses.replace(result, objective=result.objective - 1e-3)

    monkeypatch.setattr(estimation, "solve_git", lower_objective)
    acc = _measure_pi_git()
    assert acc.attempted == 4 and acc.failed == 4


def test_unchanged_program_passes_its_checks():
    acc = _measure_pi_git()
    assert acc.attempted == 4 and acc.failed == 0
    assert len(acc.objectives) == 4  # two data sets, each solved at n = 2 and 3


@pytest.mark.parametrize("kind", ["permutation", "collective"])
def test_response_matrix_matches_the_library(kind):
    n = 3
    spec = SymmetrySpec.permutation(n) if kind == "permutation" else SymmetrySpec.collective(n)
    basis = compute_commutant_basis(spec)
    for setting in measurement.full_settings(n):
        np.testing.assert_allclose(
            checks.response_matrix(basis.elements, setting),
            measurement._setting_response(basis, setting),
            atol=1e-12,
        )
    settings = measurement.pi_settings(n)
    assert checks.response_rank(basis.elements, settings) == measurement.response_rank(
        basis, settings
    )
