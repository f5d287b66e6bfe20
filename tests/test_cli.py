"""End-to-end runs of the command-line interface against temporary files."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from symtomo import cli, harness
from symtomo.cli import main
from symtomo.measurement import OutcomeHistogram, save_histograms
from symtomo.operators import load_matrix, matrix_from_json, matrix_to_json, projector, save_matrix
from symtomo.statesim import NoiseModel, apply_channel, build_twisted, ghz_state, run_circuit, werner_exact
from symtomo.symmetry import SymmetrySpec, group_generators
from symtomo.metrics import fidelity


def run(*argv):
    return main([str(a) for a in argv])


# ---------------------------------------------------------------------------
# basis
# ---------------------------------------------------------------------------

def test_basis_permutation(tmp_path):
    out = tmp_path / "basis.json"
    assert run("basis", "--symmetry", "permutation", "--qubits", 2, "--out", out) == 0
    payload = json.loads(out.read_text())
    assert payload["size"] == 10
    assert payload["n_qubits"] == 2
    el = matrix_from_json(payload["elements"][0])
    assert el.shape == (4, 4)


def test_basis_collective(tmp_path):
    out = tmp_path / "basis.json"
    assert run("basis", "--symmetry", "collective", "--qubits", 3, "--out", out) == 0
    assert json.loads(out.read_text())["size"] == 5


def test_basis_custom_requires_generators(tmp_path):
    with pytest.raises(SystemExit):
        run("basis", "--symmetry", "custom", "--qubits", 1, "--out", tmp_path / "b.json")


@pytest.mark.parametrize(
    "content, fault",
    [
        ("[{", "not valid JSON"),
        ("[]", "expected a non-empty JSON list"),
        (json.dumps([matrix_to_json(np.eye(2)), matrix_to_json(np.diag([1.0, 2.0]))]),
         "entry 1: custom generator is not unitary"),
        (json.dumps([matrix_to_json(np.eye(2)), {"dim": 2}]), "entry 1: matrix JSON must be"),
        (json.dumps([matrix_to_json(np.eye(2)), matrix_to_json(np.eye(4))]),
         "entry 1: generator shape (4, 4) != (2, 2)"),
    ],
    ids=["malformed", "empty", "non-unitary", "not-a-matrix", "size-mismatch"],
)
def test_basis_custom_rejects_bad_generators(tmp_path, content, fault):
    gens = tmp_path / "gens.json"
    gens.write_text(content)
    out = tmp_path / "b.json"
    with pytest.raises(SystemExit) as exc:
        run("basis", "--symmetry", "custom", "--qubits", 1, "--generators", gens, "--out", out)
    assert exc.value.code != 0
    assert str(gens) in str(exc.value.code) and fault in str(exc.value.code)
    assert not out.exists()


@pytest.fixture()
def collective_generators(tmp_path):
    gens = tmp_path / "gens.json"
    gens.write_text(json.dumps([matrix_to_json(g) for g in group_generators(SymmetrySpec.collective(2))]))
    return gens


def test_basis_custom_lie_generators(tmp_path, collective_generators):
    out = tmp_path / "b.json"
    assert run("basis", "--symmetry", "custom", "--generator-kind", "lie", "--qubits", 2,
               "--generators", collective_generators, "--out", out) == 0
    payload = json.loads(out.read_text())
    assert (payload["symmetry"], payload["n_qubits"], payload["size"]) == ("custom_lie", 2, 2)


def test_basis_custom_rejects_a_qubit_count_the_generators_do_not_have(tmp_path, collective_generators):
    out = tmp_path / "b.json"
    with pytest.raises(SystemExit) as exc:
        run("basis", "--symmetry", "custom", "--generator-kind", "lie", "--qubits", 3,
            "--generators", collective_generators, "--out", out)
    assert exc.value.code == "generator dimension does not match --qubits"
    assert not out.exists()


# ---------------------------------------------------------------------------
# prepare
# ---------------------------------------------------------------------------

def test_prepare_ghz(tmp_path):
    out = tmp_path / "state.json"
    assert run("prepare", "--state", "ghz", "--qubits", 2, "--out", out) == 0
    rho = load_matrix(out)
    assert np.allclose(rho, projector(ghz_state(2)), atol=1e-12)


def test_prepare_noisy_ghz_is_physical(tmp_path):
    out = tmp_path / "state.json"
    assert run(
        "prepare", "--state", "ghz", "--qubits", 3, "--noise", "dep",
        "--level", 0.2, "--policy", "post", "--out", out,
    ) == 0
    rho = load_matrix(out)
    assert np.isclose(np.trace(rho).real, 1.0)
    assert np.linalg.eigvalsh(rho).min() > -1e-12
    assert fidelity(rho, projector(ghz_state(3))) < 1.0  # noise actually applied


def test_prepare_werner_exact(tmp_path):
    out = tmp_path / "w.json"
    assert run("prepare", "--state", "werner-exact", "--qubits", 2, "--p", 0.51, "--out", out) == 0
    assert np.allclose(load_matrix(out), werner_exact(0.51), atol=1e-12)


def test_prepare_werner_exact_two_pairs_without_p2(tmp_path):
    out = tmp_path / "w.json"
    assert run("prepare", "--state", "werner-exact", "--qubits", 4, "--p", 0.51, "--out", out) == 0
    assert np.allclose(load_matrix(out), werner_exact(0.51, n_pairs=2), atol=1e-12)


def test_prepare_noisy_werner_exact_acts_on_every_qubit(tmp_path):
    out = tmp_path / "w.json"
    assert run("prepare", "--state", "werner-exact", "--qubits", 2, "--p", 0.51,
               "--noise", "dep", "--level", 0.2, "--out", out) == 0
    want = werner_exact(0.51)
    for q in range(2):
        want = apply_channel(want, "depolarizing", 0.2, q)
    assert np.array_equal(load_matrix(out), want)


def test_prepare_werner_circuit_default_angles(tmp_path):
    out = tmp_path / "w.json"
    assert run("prepare", "--state", "werner", "--qubits", 2,
               "--theta-a", 0.33, "--theta-b", 2.50, "--out", out) == 0
    rho = load_matrix(out)
    assert np.isclose(np.trace(rho).real, 1.0)


def test_prepare_twisted_writes_the_simulated_state(tmp_path):
    out = tmp_path / "tw.json"
    assert run("prepare", "--state", "twisted", "--qubits", 3, "--theta", 0.4, "--noise", "ad",
               "--level", 0.1, "--policy", "pergate", "--out", out) == 0
    want = run_circuit(build_twisted(3, 0.4), NoiseModel("amplitude_damping", 0.1, "pergate"))
    assert np.array_equal(load_matrix(out), want)


def test_prepare_rejects_bad_werner_exact_qubits(tmp_path):
    out = tmp_path / "x.json"
    with pytest.raises(SystemExit) as exc:
        run("prepare", "--state", "werner-exact", "--qubits", 3, "--out", out)
    assert exc.value.code == ("symtomo prepare: the werner_exact family prepares one pair "
                              "(2 qubits, no p2) or two pairs (4 qubits, p2 sets the second)")
    assert not out.exists()


def test_prepare_rejects_bad_werner_qubits(tmp_path):
    with pytest.raises(SystemExit):
        run("prepare", "--state", "werner", "--qubits", 3, "--out", tmp_path / "x.json")


@pytest.mark.parametrize(
    "argv, fault",
    [
        (("--state", "werner-exact", "--qubits", 2, "--p", 2), "werner parameter 2.0 outside"),
        (("--state", "werner-exact", "--qubits", 4, "--p2", -1), "werner parameter -1.0 outside"),
        (("--state", "ghz", "--qubits", 2, "--noise", "dep", "--level", 1.5),
         "noise level 1.5 outside [0, 1.0]"),
        (("--state", "ghz", "--qubits", 0), "out of range for 0 qubits"),
        # a non-finite angle made an all-NaN state, written as bare NaN tokens that are not JSON
        (("--state", "ghz", "--qubits", 2, "--theta", "inf"), "theta must be finite, got inf"),
        (("--state", "werner", "--qubits", 2, "--theta-a", "nan"), "theta must be finite, got nan"),
    ],
    ids=["p", "p2", "level", "qubits", "infinite-theta", "nan-theta-a"],
)
def test_prepare_rejects_out_of_range_values(tmp_path, argv, fault):
    out = tmp_path / "x.json"
    with pytest.raises(SystemExit) as exc:
        run("prepare", *argv, "--out", out)
    assert exc.value.code != 0
    assert str(exc.value.code).startswith("symtomo prepare: ") and fault in str(exc.value.code)
    assert not out.exists()


@pytest.mark.parametrize("family", ["werner", "werner_exact"])
@pytest.mark.parametrize("qubits", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("p2", [None, 0.4])
def test_prepare_and_the_sweep_config_accept_the_same_families(tmp_path, family, qubits, p2):
    # one rule, statesim._check_family, decides both
    argv = ["prepare", "--state", family.replace("_", "-"), "--qubits", qubits, "--out", tmp_path / "x.json"]
    try:
        run(*argv, *(() if p2 is None else ("--p2", p2)))
        cli_accepts = True
    except SystemExit:
        cli_accepts = False
    try:
        harness.SweepConfig(family=family, n_qubits=qubits, p2=p2)
        config_accepts = True
    except ValueError:
        config_accepts = False
    assert cli_accepts == config_accepts
    assert cli_accepts == ((family, qubits) == ("werner", 2)
                           or family == "werner_exact" and (qubits == 4 or (qubits, p2) == (2, None)))


# ---------------------------------------------------------------------------
# sample
# ---------------------------------------------------------------------------

@pytest.fixture()
def ghz_file(tmp_path):
    out = tmp_path / "ghz.json"
    run("prepare", "--state", "ghz", "--qubits", 2, "--out", out)
    return out


def test_sample_pi_settings(tmp_path, ghz_file):
    out = tmp_path / "hists.json"
    assert run("sample", "--state", ghz_file, "--settings", "pi",
               "--shots", 200, "--seed", 3, "--out", out) == 0
    payload = json.loads(out.read_text())
    assert payload["n_qubits"] == 2
    assert len(payload["records"]) == 6
    assert all(rec["shots"] == 200 for rec in payload["records"])


def test_sample_deterministic(tmp_path, ghz_file):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run("sample", "--state", ghz_file, "--settings", "pi", "--shots", 500, "--seed", 9, "--out", a)
    run("sample", "--state", ghz_file, "--settings", "pi", "--shots", 500, "--seed", 9, "--out", b)
    assert a.read_bytes() == b.read_bytes()


def test_sample_settings_from_file(tmp_path, ghz_file):
    listing = tmp_path / "settings.json"
    listing.write_text('["XX", "ZZ"]')
    out = tmp_path / "hists.json"
    assert run("sample", "--state", ghz_file, "--settings", listing,
               "--shots", 100, "--out", out) == 0
    payload = json.loads(out.read_text())
    assert [r["setting"] for r in payload["records"]] == ["XX", "ZZ"]


def test_sample_rejects_a_state_that_is_not_a_density_matrix(tmp_path):
    state = tmp_path / "bad.json"
    save_matrix(state, np.diag([1.5, -0.5, 0.0, 0.0]))
    out = tmp_path / "hists.json"
    with pytest.raises(SystemExit) as exc:
        run("sample", "--state", state, "--settings", "pi", "--shots", 10, "--out", out)
    assert exc.value.code != 0
    assert str(state) in str(exc.value.code) and "negative eigenvalue" in str(exc.value.code)
    assert not out.exists()


@pytest.mark.parametrize(
    "content, fault",
    [
        ({"a": 1}, "JSON list"),
        (["XX", "XQ"], "entry 1: invalid measurement setting 'XQ'"),
        (["XX", "XYZ"], "entry 1: setting 'XYZ' does not address 2 qubits"),
        ([7], "entry 0 is 7"),
    ],
)
def test_sample_rejects_bad_settings_file(tmp_path, ghz_file, content, fault):
    listing = tmp_path / "settings.json"
    listing.write_text(json.dumps(content))
    out = tmp_path / "hists.json"
    with pytest.raises(SystemExit) as exc:
        run("sample", "--state", ghz_file, "--settings", listing, "--shots", 10, "--out", out)
    assert exc.value.code != 0
    assert str(listing) in str(exc.value.code) and fault in str(exc.value.code)
    assert not out.exists()


def test_sample_rejects_a_state_with_a_non_finite_entry(tmp_path):
    state = tmp_path / "nan.json"
    payload = matrix_to_json(np.eye(2) / 2)
    payload["entries"][1][1][0] = float("nan")
    state.write_text(json.dumps(payload))
    out = tmp_path / "hists.json"
    with pytest.raises(SystemExit) as exc:
        run("sample", "--state", state, "--settings", "pi", "--shots", 10, "--out", out)
    assert str(state) in str(exc.value.code) and "entry (1,1) is not finite" in str(exc.value.code)
    assert not out.exists()


def test_sample_werner_selection(tmp_path):
    state = tmp_path / "w.json"
    run("prepare", "--state", "werner-exact", "--qubits", 2, "--p", 0.76, "--out", state)
    out = tmp_path / "hists.json"
    assert run("sample", "--state", state, "--settings", "werner", "--count", 2,
               "--shots", 400, "--out", out) == 0
    assert len(json.loads(out.read_text())["records"]) == 2


def test_sample_werner_rejects_a_count_it_cannot_pick(tmp_path, ghz_file):
    out = tmp_path / "h.json"
    with pytest.raises(SystemExit) as exc:
        run("sample", "--state", ghz_file, "--settings", "werner", "--count", 0, "--shots", 10, "--out", out)
    assert exc.value.code == "--count: cannot pick 0 settings from 9 candidates"
    assert not out.exists()


def test_sample_refuses_a_count_without_werner_settings(tmp_path, ghz_file):
    out = tmp_path / "h.json"
    with pytest.raises(SystemExit) as exc:
        run("sample", "--state", ghz_file, "--settings", "pi", "--count", 3, "--shots", 10, "--out", out)
    assert exc.value.code == "--count applies only to --settings werner"
    assert not out.exists()


# ---------------------------------------------------------------------------
# estimate + metrics
# ---------------------------------------------------------------------------

def test_estimate_and_metrics_round_trip(tmp_path, ghz_file, capsys):
    hists = tmp_path / "hists.json"
    run("sample", "--state", ghz_file, "--settings", "pi", "--shots", 4096, "--out", hists)

    est = tmp_path / "est.json"
    assert run("estimate", "--data", hists, "--mode", "git", "--gamma", 0.0, "--out", est) == 0
    payload = json.loads(est.read_text())
    assert payload["mode"] == "git"
    rho_hat = matrix_from_json(payload["rho_hat"])
    assert fidelity(rho_hat, projector(ghz_state(2))) > 0.95

    # metrics to stdout
    capsys.readouterr()
    assert run("metrics", "--a", est_state_path(tmp_path, rho_hat), "--b", ghz_file) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["fidelity"] > 0.95
    assert report["concurrence"] is not None

    # metrics to a file
    out = tmp_path / "report.json"
    assert run("metrics", "--a", ghz_file, "--b", ghz_file, "--out", out) == 0
    assert json.loads(out.read_text())["fidelity"] == pytest.approx(1.0)


@pytest.mark.parametrize("side", ["--a", "--b"])
@pytest.mark.parametrize(
    "content, fault",
    [
        ("{not json", "Expecting property name"),
        ('{"dim": 2}', "matrix JSON must be an object with 'dim' and 'entries'"),
        (json.dumps(matrix_to_json(np.diag([1.5, -0.5, 0.0, 0.0]))), "negative eigenvalue"),
        (json.dumps({"dim": 2, "entries": [[[float("nan"), 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]}),
         "entry (0,0) is not finite"),
    ],
    ids=["malformed", "not-a-matrix", "not-a-density-matrix", "non-finite"],
)
def test_metrics_rejects_a_file_that_is_not_a_state(tmp_path, ghz_file, side, content, fault):
    bad = tmp_path / "bad.json"
    bad.write_text(content)
    files = {"--a": ghz_file, "--b": ghz_file, side: bad}
    with pytest.raises(SystemExit) as exc:
        run("metrics", "--a", files["--a"], "--b", files["--b"])
    assert exc.value.code != 0
    assert str(bad) in str(exc.value.code) and fault in str(exc.value.code)


@pytest.mark.parametrize(
    "content, fault",
    [
        ("{", "Expecting"),
        (json.dumps({"n_qubits": 2, "records": []}), "'records' must be a non-empty list"),
        (json.dumps({"n_qubits": 2, "records": {"setting": "XX"}}),
         "'records' must be a non-empty list"),
        (json.dumps({"n_qubits": 2, "records": [
            {"setting": "XX", "shots": 4, "counts": {"00": 4}},
            {"setting": "ZZ", "shots": 4, "counts": [4, 0, 0, 0]},
        ]}), "records[1]: 'counts' must be an object"),
        (json.dumps({"n_qubits": 1, "records": [
            {"setting": "Z", "shots": 2, "counts": {"0": 1.9, "1": 1.2}},
        ]}), "records[0] (setting 'Z'): count 1.9 for outcome '0' is not a whole number"),
        (json.dumps({"n_qubits": 1, "records": [
            {"setting": "Z", "shots": None, "counts": {"0": float("nan"), "1": 1.0}},
        ]}), "records[0] (setting 'Z'): count nan for outcome '0'"),
        (json.dumps({"n_qubits": True, "records": [{"setting": "Z", "shots": 2, "counts": {"0": 2}}]}),
         "n_qubits must be an integer, got True"),
    ],
    ids=["malformed", "empty-records", "records-object", "counts-list", "fractional-count",
         "nan-count", "boolean-qubits"],
)
def test_estimate_rejects_bad_histogram_file(tmp_path, content, fault):
    data = tmp_path / "hists.json"
    data.write_text(content)
    out = tmp_path / "est.json"
    with pytest.raises(SystemExit) as exc:
        run("estimate", "--data", data, "--out", out)
    assert exc.value.code != 0
    assert str(data) in str(exc.value.code) and fault in str(exc.value.code)
    assert not out.exists()


def test_estimate_rejects_a_nonpositive_alpha(tmp_path, ghz_file):
    hists = tmp_path / "hists.json"
    run("sample", "--state", ghz_file, "--settings", "pi", "--shots", 64, "--out", hists)
    out = tmp_path / "est.json"
    with pytest.raises(SystemExit) as exc:
        run("estimate", "--data", hists, "--alpha", 0.0, "--out", out)
    assert exc.value.code != 0 and "alpha > 0" in str(exc.value.code)
    assert not out.exists()


def est_state_path(tmp_path, rho):
    from symtomo.operators import save_matrix

    path = tmp_path / "rho_hat.json"
    save_matrix(path, rho)
    return path


def test_estimate_maxlik_mode(tmp_path, ghz_file):
    hists = tmp_path / "hists.json"
    # full settings via an explicit list so maxlik sees a complete record set
    listing = tmp_path / "settings.json"
    from symtomo.measurement import full_settings

    listing.write_text(json.dumps(full_settings(2)))
    run("sample", "--state", ghz_file, "--settings", listing, "--shots", 2048, "--out", hists)
    est = tmp_path / "ml.json"
    assert run("estimate", "--data", hists, "--mode", "maxlik", "--out", est) == 0
    payload = json.loads(est.read_text())
    assert payload["mode"] == "maxlik"
    assert payload["converged"] is True
    rho_hat = matrix_from_json(payload["rho_hat"])
    assert fidelity(rho_hat, projector(ghz_state(2))) > 0.95


def test_estimate_collective_symmetry(tmp_path):
    state = tmp_path / "w.json"
    run("prepare", "--state", "werner-exact", "--qubits", 2, "--p", 0.51, "--out", state)
    hists = tmp_path / "h.json"
    run("sample", "--state", state, "--settings", "werner", "--count", 3,
        "--shots", 4096, "--out", hists)
    est = tmp_path / "est.json"
    assert run("estimate", "--data", hists, "--mode", "git",
               "--symmetry", "collective", "--gamma", 0.0, "--out", est) == 0
    rho_hat = matrix_from_json(json.loads(est.read_text())["rho_hat"])
    assert fidelity(rho_hat, werner_exact(0.51)) > 0.95


def test_estimate_on_a_one_element_space(tmp_path):
    # the collective basis of one qubit is the identity alone: the estimate is I/2
    state, hists, est = tmp_path / "s.json", tmp_path / "h.json", tmp_path / "est.json"
    assert run("prepare", "--state", "ghz", "--qubits", 1, "--out", state) == 0
    assert run("sample", "--state", state, "--shots", 100, "--out", hists) == 0
    assert run("estimate", "--data", hists, "--symmetry", "collective", "--out", est) == 0
    payload = json.loads(est.read_text())
    assert payload["converged"] and payload["iterations"] == 0
    assert np.abs(matrix_from_json(payload["rho_hat"]) - np.eye(2) / 2).max() <= 1e-15


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def test_sweep_command(tmp_path):
    cfg = {
        "family": "ghz",
        "n_qubits": 2,
        "modes": ["git"],
        "channels": ["depolarizing"],
        "levels": [0.1],
        "shots": [128],
        "repetitions": 2,
        "base_seed": 11,
        "estimator": {"gamma": 0.0, "restarts": 1},
    }
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(cfg))
    out_dir = tmp_path / "run"
    assert run("sweep", "--config", cfg_path, "--out-dir", out_dir) == 0
    assert (out_dir / "records.csv").exists()
    assert (out_dir / "summary.csv").exists()
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["n_records"] == 2
    assert manifest["config"]["base_seed"] == 11


def test_sweep_command_observable_counts(tmp_path):
    cfg = {
        "family": "werner_exact",
        "n_qubits": 2,
        "p": 0.51,
        "symmetry": "collective",
        "modes": ["git"],
        "channels": ["none"],
        "levels": [0.0],
        "shots": [None],
        "repetitions": 1,
        "settings_plan": "selected",
        "selected_count": 4,
        "observable_counts": [1, 2],
        "estimator": {"gamma": 0.0, "restarts": 1},
    }
    cfg_path = tmp_path / "counts.json"
    cfg_path.write_text(json.dumps(cfg))
    out_dir = tmp_path / "run"
    assert run("sweep", "--config", cfg_path, "--out-dir", out_dir, "--format", "json") == 0
    rows = json.loads((out_dir / "records.json").read_text())
    assert [r["observable_count"] for r in rows] == [1, 2]


@pytest.mark.filterwarnings("ignore:measurement map is rank deficient")
def test_sweep_jobs_apply_to_count_studies(tmp_path, monkeypatch):
    cfg = {
        "family": "ghz",
        "n_qubits": 3,
        "channels": ["depolarizing"],
        "levels": [0.1],
        "shots": [None, 256],
        "repetitions": 2,
        "observable_counts": [2, 9],
        "estimator": {"gamma": 0.0},
    }
    cfg_path = tmp_path / "counts.json"
    cfg_path.write_text(json.dumps(cfg))
    seen, real = [], cli.run_sweep

    def run_sweep(config, jobs):
        seen.append(jobs)
        return real(config, jobs=jobs)

    monkeypatch.setattr(cli, "run_sweep", run_sweep)
    for n in (1, 2):
        assert run("sweep", "--config", cfg_path, "--out-dir", tmp_path / f"jobs{n}",
                   "--jobs", n) == 0
    assert seen == [1, 2]
    for name in ("records.csv", "summary.csv", "manifest.json"):
        assert (tmp_path / "jobs1" / name).read_bytes() == (tmp_path / "jobs2" / name).read_bytes()
    assert json.loads((tmp_path / "jobs1" / "manifest.json").read_text())["n_records"] == 6


@pytest.mark.parametrize("cfg", [
    {"family": "werner_exact", "n_qubits": 2, "p": 0.51, "symmetry": "collective", "modes": ["git", "cvqt"],
     "channels": ["depolarizing"], "levels": [0.1], "shots": [256], "repetitions": 2,
     "settings_plan": "selected", "selected_count": 4, "estimator": {"gamma": 0.0}},
    {"family": "ghz", "n_qubits": 3, "channels": ["depolarizing"], "levels": [0.1], "shots": [None, 256],
     "repetitions": 2, "observable_counts": [2, 9], "estimator": {"gamma": 0.0}},
], ids=["selected-collective", "count-study"])
def test_sweep_output_does_not_depend_on_the_hash_seed(tmp_path, cfg):
    # string hashes, and so the order of a set of strings, change with PYTHONHASHSEED
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(cfg))
    src = str(Path(__file__).resolve().parent.parent / "src")
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
                   PYTHONHASHSEED=seed)
        proc = subprocess.run([sys.executable, "-m", "symtomo.cli", "sweep", "--config", str(cfg_path),
                               "--out-dir", str(tmp_path / seed), "--format", "both"],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
    names = sorted(p.name for p in (tmp_path / "1").iterdir())
    assert {"records.csv", "records.json", "summary.csv", "summary.json", "manifest.json"} <= set(names)
    for name in names:
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes(), name


@pytest.mark.parametrize(
    "content, fault",
    [
        ("[1,", "Expecting"),
        (json.dumps(["ghz"]), "sweep config must be a JSON object"),
        (json.dumps({"family": "ghz", "n_qubits": 2, "colour": "red"}),
         "unknown sweep config fields: ['colour']"),
        (json.dumps({"family": "ghz", "n_qubits": 2, "estimator": {"tau": 1}}),
         "unknown estimator config fields: ['tau']"),
        (json.dumps({"family": "ghz", "n_qubits": 2, "repetitions": 0}),
         "repetitions must be >= 1"),
        (json.dumps({"family": "ghz", "n_qubits": 2, "levels": [1.5]}),
         "noise level 1.5 outside [0, 1.0]"),
        (json.dumps({"family": "ghz", "n_qubits": 2, "noise_policy": "bogus"}),
         "unknown noise policy 'bogus'"),
        (json.dumps({"family": "werner", "n_qubits": 3}),
         "the werner circuit family prepares a two-qubit state"),
        (json.dumps({"family": "ghz", "n_qubits": 0}), "n_qubits must be >= 1, got 0"),
        (json.dumps({"family": "werner_exact", "n_qubits": 2, "p": 2.0}),
         "werner parameter 2.0 outside [-1/3, 1]"),
        (json.dumps({"family": "ghz", "n_qubits": 2, "settings_plan": "selected",
                     "selected_count": 100}), "selected_count must be in [1, 9], got 100"),
        (json.dumps({"family": "ghz", "n_qubits": 2, "observable_counts": [0]}),
         "observable_counts entry must be >= 1, got 0"),
        (json.dumps({"family": "ghz", "n_qubits": 2, "levels": [None]}),
         "levels entry must be a number, got None"),
        (json.dumps({"family": "ghz", "n_qubits": 2, "repetitions": "3"}),
         "repetitions must be an integer, got '3'"),
        (json.dumps({"family": "ghz", "n_qubits": 2, "observable_counts": [99]}),
         "observable counts must lie in [1, 10]"),
        (json.dumps({"family": "ghz", "n_qubits": 2, "modes": ["cvqt"], "observable_counts": [3]}),
         "modes must be ['git'], got ['cvqt']"),
        (json.dumps({"family": "ghz", "n_qubits": 2, "estimator": {"max_iterations": "5"}}),
         "max_iterations must be an integer, got '5'"),
        (json.dumps({"family": "ghz", "n_qubits": 2, "estimator": {"max_iterations": -1}}),
         "max_iterations must be >= 0, got -1"),
        (json.dumps({"family": "ghz", "n_qubits": 2, "estimator": {"max_iterations": 2.5}}),
         "max_iterations must be an integer, got 2.5"),
        (json.dumps({"family": "ghz", "n_qubits": 2, "estimator": {"frequency_floor": "x"}}),
         "frequency_floor must be a number, got 'x'"),
        (json.dumps({"family": "ghz", "n_qubits": 2, "estimator": {"gamma": True}}),
         "gamma must be a number, got True"),
        (json.dumps({"family": "ghz", "n_qubits": 2, "levels": []}), "levels must be a nonempty list"),
    ],
    ids=["malformed", "not-an-object", "unknown-field", "unknown-estimator-field", "bad-value",
         "bad-level", "bad-policy", "bad-family-size", "no-qubits", "werner-p",
         "selected-count", "zero-count", "null-level", "string-repetitions", "count-too-large",
         "count-study-modes", "string-iterations", "negative-iterations", "fractional-iterations",
         "string-floor", "boolean-gamma", "empty-levels"],
)
def test_sweep_rejects_bad_config(tmp_path, content, fault):
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(content)
    out_dir = tmp_path / "run"
    with pytest.raises(SystemExit) as exc:
        run("sweep", "--config", cfg_path, "--out-dir", out_dir)
    assert exc.value.code != 0
    assert str(cfg_path) in str(exc.value.code) and fault in str(exc.value.code)
    assert not out_dir.exists()


@pytest.mark.filterwarnings("ignore:measurement map is rank deficient")
@pytest.mark.parametrize("symmetry", ["permutation", "collective"])
def test_estimate_reproduces_a_sweep_cell(tmp_path, monkeypatch, symmetry):
    # the CLI and the sweep give each estimator the same records, so the same objective
    sampled, sample_state = [], harness.sample_state

    def keep(*args):
        sampled.append(sample_state(*args))
        return sampled[-1]

    monkeypatch.setattr(harness, "sample_state", keep)
    config = harness.SweepConfig(n_qubits=2, symmetry=symmetry, modes=("git", "cvqt", "maxlik"),
                                 levels=(0.1,), shots=(512,), repetitions=1, base_seed=5)
    rows = harness.run_sweep(config)
    hists = tmp_path / "hists.json"
    save_histograms(hists, sampled[0], n_qubits=2)
    for row in rows:
        out = tmp_path / f"{row.mode}.json"
        assert run("estimate", "--data", hists, "--mode", row.mode, "--symmetry", symmetry,
                   "--out", out) == 0
        assert json.loads(out.read_text())["objective"] == row.objective


def test_cli_keeps_every_name_the_traced_benchmark_wraps():
    # perfbench/cli_traced.py replaces these attributes of symtomo.cli with timed wrappers
    source = (Path(__file__).resolve().parents[1] / "perfbench" / "cli_traced.py").read_text()
    patches = next(node.value for node in ast.walk(ast.parse(source))
                   if isinstance(node, ast.Assign)
                   and any(getattr(target, "id", None) == "_PATCHES" for target in node.targets))
    names = [key.value for key in patches.keys]
    assert names and [name for name in names if not hasattr(cli, name)] == []


# ---------------------------------------------------------------------------
# argument errors
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "argv",
    [
        ("estimate", "--data", "{missing}", "--out", "{out}"),
        ("sample", "--state", "{missing}", "--shots", 4, "--out", "{out}"),
        ("metrics", "--a", "{missing}", "--b", "{missing}"),
        ("sweep", "--config", "{missing}", "--out-dir", "{out}"),
    ],
    ids=lambda argv: argv[0],
)
def test_missing_input_file_exits_naming_it(tmp_path, argv):
    missing, out = tmp_path / "missing.json", tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        run(*(str(a).format(missing=missing, out=out) for a in argv))
    assert exc.value.code != 0 and str(missing) in str(exc.value.code)
    assert not out.exists()


def werner_data_for_six_settings(tmp_path):
    # the six settings pin the collective family, not the pooled permutation one
    state = tmp_path / "werner.json"
    run("prepare", "--state", "werner-exact", "--qubits", 2, "--p", 0.5, "--out", state)
    hists = tmp_path / "hists.json"
    run("sample", "--state", state, "--settings", "werner", "--count", 6, "--shots", 64, "--out", hists)
    return hists


def seven_qubit_data(tmp_path):
    hists = tmp_path / "hists.json"
    save_histograms(hists, [OutcomeHistogram("Z" * 7, {"0" * 7: 4}, 4)], n_qubits=7)
    return hists


def ghz3_file(tmp_path):
    state = tmp_path / "ghz3.json"
    run("prepare", "--state", "ghz", "--qubits", 3, "--out", state)
    return state


REJECTED_INPUT = {
    "uncovered-observables": (
        lambda tmp, ghz, out: ("estimate", "--data", werner_data_for_six_settings(tmp), "--out", out),
        "no measured setting can estimate observable"),
    "cvqt-seven-qubits": (
        lambda tmp, ghz, out: ("estimate", "--data", seven_qubit_data(tmp), "--mode", "cvqt", "--out", out),
        "practical up to 6 qubits"),
    "zero-shots": (
        lambda tmp, ghz, out: ("sample", "--state", ghz, "--shots", 0, "--out", out),
        "shots must be a positive integer"),
    "negative-seed": (
        lambda tmp, ghz, out: ("sample", "--state", ghz, "--shots", 4, "--seed", -1, "--out", out),
        "non-negative"),
    "no-qubits": (
        lambda tmp, ghz, out: ("basis", "--symmetry", "permutation", "--qubits", 0, "--out", out),
        "n_qubits must be >= 1"),
    "metrics-of-different-sizes": (
        lambda tmp, ghz, out: ("metrics", "--a", ghz, "--b", ghz3_file(tmp), "--out", out),
        "dimension mismatch (4, 4) vs (8, 8)"),
}


@pytest.mark.parametrize("case", list(REJECTED_INPUT))
def test_input_the_library_rejects_exits_with_its_message(tmp_path, ghz_file, case):
    argv, fault = REJECTED_INPUT[case]
    out = tmp_path / "out.json"
    argv = argv(tmp_path, ghz_file, out)
    with pytest.raises(SystemExit) as exc:
        run(*argv)
    assert str(exc.value.code).startswith(f"symtomo {argv[0]}: ")
    assert fault in str(exc.value.code)
    assert not out.exists()


def test_unknown_subcommand():
    with pytest.raises(SystemExit):
        run("transmogrify")


def test_missing_required_argument():
    with pytest.raises(SystemExit):
        run("basis", "--symmetry", "permutation")


def test_bad_choice_rejected(tmp_path):
    with pytest.raises(SystemExit):
        run("prepare", "--state", "bell", "--qubits", 2, "--out", tmp_path / "x.json")
