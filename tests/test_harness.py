"""Sweep-harness behaviour: seeding, the grid runner, summaries, export."""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symtomo import harness
from symtomo.estimation import EstimatorConfig
from symtomo.harness import (
    SweepConfig,
    SweepRecord,
    _prepared_states,
    export,
    mix_seed,
    observable_count_sweep,
    records_to_csv,
    run_sweep,
    summarize,
    summary_to_csv,
    sweep_config_from_dict,
)
from symtomo.statesim import apply_channel, werner_exact


FAST = EstimatorConfig(gamma=0.0, restarts=1, max_iterations=600)

SMALL = SweepConfig(
    family="ghz",
    n_qubits=2,
    modes=("git",),
    channels=("depolarizing",),
    levels=(0.1,),
    shots=(256,),
    repetitions=2,
    base_seed=7,
    estimator=FAST,
)


# ---------------------------------------------------------------------------
# seed mixing
# ---------------------------------------------------------------------------

def test_mix_seed_is_deterministic():
    assert mix_seed(3, 1, 2) == mix_seed(3, 1, 2)


def test_mix_seed_separates_coordinates():
    seen = {mix_seed(0, i, j) for i in range(8) for j in range(8)}
    assert len(seen) == 64
    assert mix_seed(0, 1, 2) != mix_seed(0, 2, 1)  # order matters
    assert mix_seed(0, 1) != mix_seed(1, 1)        # base matters


def test_mix_seed_range():
    for s in (mix_seed(0), mix_seed(2**40, 77), mix_seed(123, 4, 5, 6)):
        assert 0 <= s < 2**64


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------

def test_config_is_frozen_and_normalizes_tuples():
    cfg = SweepConfig(modes=["git"], channels=["none"], levels=[0.0], shots=[None])
    assert cfg.modes == ("git",)
    assert cfg.shots == (None,)
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.family = "werner"


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(family="bell"),
        dict(symmetry="dihedral"),
        dict(settings_plan="adaptive"),
        dict(modes=("git", "oracle")),
        dict(modes=()),
        dict(channels=("thermal",)),
        dict(repetitions=0),
        dict(shots=(0,)),
        dict(shots=(-5,)),
        dict(levels=(1.5,)),
        dict(channels=("depolarizing_pauli",), levels=(0.8,)),
        dict(noise_policy="bogus"),
        dict(family="werner", n_qubits=3),
        dict(family="werner_exact", n_qubits=3),
        dict(family="werner_exact", n_qubits=2, p2=0.5),
        dict(n_qubits=0),
        dict(n_qubits="2"),
        dict(family="werner_exact", n_qubits=2, p=2.0),
        dict(family="werner_exact", n_qubits=4, p=0.5, p2=-0.5),
        dict(settings_plan="selected", selected_count=0),
        dict(settings_plan="selected", selected_count=10),
        dict(observable_counts=(0,)),
        dict(observable_counts=(1.5,)),
        dict(levels=(None,)),
        dict(levels=None),
        dict(repetitions="3"),
        dict(shots=(128.0,)),
        dict(base_seed=1.5),
        dict(theta="pi"),
        dict(observable_counts=(2,), modes=("git", "cvqt")),
        dict(modes=("git", "git")),
        dict(estimator={"gamma": 0.0}),
        dict(theta=float("inf")),
        dict(theta_a=float("nan")),
        dict(theta_b=float("inf")),
        dict(p=float("inf")),
    ],
)
def test_config_rejects_bad_fields(kwargs):
    with pytest.raises(ValueError):
        SweepConfig(**kwargs)


def test_config_refuses_repeated_observable_counts():
    # a repeated count was solved once per cell but written twice, which doubled its summary count
    with pytest.raises(ValueError, match=r"^observable_counts must not repeat, got \[3, 1, 3\]$"):
        SweepConfig(observable_counts=(3, 1, 3))


@pytest.mark.parametrize("name", ["channels", "levels", "shots", "observable_counts"])
def test_config_rejects_an_empty_grid(name):
    # an empty grid would run no cell and write empty files
    with pytest.raises(ValueError, match=f"^{name} must be a nonempty list"):
        SweepConfig(**{name: []})


def test_werner_exact_noise_acts_on_every_qubit():
    cfg = SweepConfig(family="werner_exact", n_qubits=4, p=0.6, p2=0.3,
                      channels=("amplitude_damping",), levels=(0.2,))
    target, real = _prepared_states(cfg, "amplitude_damping", 0.2)
    want = werner_exact(0.6, n_pairs=2, p2=0.3)
    assert np.array_equal(target, want)
    for q in range(4):
        want = apply_channel(want, "amplitude_damping", 0.2, q)
    assert np.array_equal(real, want)


def test_config_from_dict():
    cfg = sweep_config_from_dict(
        {
            "family": "werner_exact",
            "n_qubits": 2,
            "symmetry": "collective",
            "p": 0.51,
            "modes": ["git"],
            "channels": ["none"],
            "levels": [0.0],
            "shots": [None],
            "repetitions": 1,
            "estimator": {"gamma": 0.0, "restarts": 1},
        }
    )
    assert cfg.family == "werner_exact"
    assert cfg.estimator.gamma == 0.0
    assert cfg.estimator.restarts == 1
    # untouched estimator fields keep their defaults
    assert cfg.estimator.alpha == 1.0


def test_config_from_dict_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown sweep config"):
        sweep_config_from_dict({"familly": "ghz"})
    with pytest.raises(ValueError, match="unknown estimator config"):
        sweep_config_from_dict({"estimator": {"omega": 1.0}})
    with pytest.raises(ValueError):
        sweep_config_from_dict(["not", "a", "dict"])


# ---------------------------------------------------------------------------
# grid runner
# ---------------------------------------------------------------------------

@pytest.mark.filterwarnings("ignore:measurement map is rank deficient")
def test_run_sweep_record_grid():
    # cvqt on the pooled settings plan has an under-complete full-space map,
    # so its least-squares seed legitimately warns
    cfg = dataclasses.replace(SMALL, modes=("git", "cvqt"), shots=(128, 256), repetitions=2)
    records = run_sweep(cfg)
    assert len(records) == 1 * 1 * 2 * 2 * 2  # channels x levels x shots x reps x modes
    for rec in records:
        assert rec.error is None
        assert 0.0 <= rec.fidelity_vs_real <= 1.0 + 1e-9
        assert rec.converged in (True, False)
    # the cross-estimator fidelity lives on the cvqt rows only
    assert all(r.fidelity_git_vs_cvqt is None for r in records if r.mode == "git")
    assert all(r.fidelity_git_vs_cvqt is not None for r in records if r.mode == "cvqt")


def test_run_sweep_serial_parallel_and_rerun_identical():
    a = run_sweep(SMALL)
    b = run_sweep(SMALL)
    c = run_sweep(SMALL, jobs=2)
    assert records_to_csv(a) == records_to_csv(b) == records_to_csv(c)


def test_run_sweep_asks_for_no_more_workers_than_cells(monkeypatch):
    # a forking pool starts every worker it may use at its first submit
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, cells, chunksize=1):
            return map(fn, cells)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", SerialPool)
    assert records_to_csv(run_sweep(SMALL, jobs=8)) == records_to_csv(run_sweep(SMALL))
    assert sizes == [2]


def test_run_sweep_survives_solver_failure(monkeypatch):
    def boom(*args, **kwargs):
        raise RuntimeError("synthetic failure")

    monkeypatch.setattr("symtomo.harness.solve_git", boom)
    records = run_sweep(SMALL)
    assert len(records) == 2
    assert all(r.error == "RuntimeError: synthetic failure" for r in records)
    assert all(r.fidelity_vs_real is None for r in records)
    summary = summarize(records)[0]
    assert summary.failures == 2
    assert summary.mean_fidelity_vs_target is None


def test_a_one_qubit_collective_cell_solves():
    records = run_sweep(dataclasses.replace(SMALL, n_qubits=1, symmetry="collective", repetitions=1))
    assert [(r.error, r.converged, r.iterations) for r in records] == [(None, True, 0)]


def test_analytic_shots_entry():
    cfg = dataclasses.replace(SMALL, shots=(None,), repetitions=1, levels=(0.0,), channels=("none",))
    records = run_sweep(cfg)
    assert len(records) == 1
    assert records[0].shots is None
    assert records[0].fidelity_vs_target > 1.0 - 1e-6


# ---------------------------------------------------------------------------
# summaries
# ---------------------------------------------------------------------------

def _fake_record(**kw):
    base = dict(
        family="ghz",
        n_qubits=2,
        channel="none",
        level=0.0,
        shots=100,
        repetition=0,
        mode="git",
        seed=0,
    )
    base.update(kw)
    return SweepRecord(**base)


def test_summarize_matches_numpy():
    fids = [0.91, 0.93, 0.97]
    records = [
        _fake_record(repetition=i, fidelity_vs_target=f, fidelity_vs_real=f + 0.01)
        for i, f in enumerate(fids)
    ]
    (summary,) = summarize(records)
    assert summary.count == 3
    assert summary.failures == 0
    assert np.isclose(summary.mean_fidelity_vs_target, np.mean(fids))
    assert np.isclose(summary.std_fidelity_vs_target, np.std(fids, ddof=1))
    assert np.isclose(summary.mean_fidelity_vs_real, np.mean(fids) + 0.01)


def test_summarize_groups_and_sorts():
    records = [
        _fake_record(shots=s, repetition=r, fidelity_vs_target=0.9)
        for s in (1024, 128)
        for r in range(2)
    ]
    summaries = summarize(records)
    assert [s.shots for s in summaries] == [128, 1024]
    assert all(s.count == 2 for s in summaries)


def test_summarize_single_value_std_is_zero():
    (summary,) = summarize([_fake_record(fidelity_vs_target=0.9)])
    assert summary.std_fidelity_vs_target == 0.0


# ---------------------------------------------------------------------------
# observable-count sweep
# ---------------------------------------------------------------------------

def test_observable_count_sweep_structure():
    cfg = SweepConfig(
        family="werner_exact",
        n_qubits=2,
        p=0.51,
        symmetry="collective",
        modes=("git",),
        channels=("none",),
        levels=(0.0,),
        shots=(None,),
        repetitions=1,
        settings_plan="selected",
        selected_count=6,
        observable_counts=(1, 2, 3),
        estimator=FAST,
    )
    rows = observable_count_sweep(cfg)
    assert [r.observable_count for r in rows] == [1, 2, 3]
    for r in rows:
        assert r.mode == "git"
        assert r.error is None
        assert r.fidelity_vs_reference is not None
    # with every observable measured the estimate IS the reference
    assert rows[-1].fidelity_vs_reference < 1.0 + 1e-9


def test_observable_count_sweep_rejects_bad_counts():
    cfg = dataclasses.replace(SMALL, observable_counts=(11,))  # n = 2 has 10 pooled observables
    with pytest.raises(ValueError):
        observable_count_sweep(cfg)


COUNTS = dataclasses.replace(
    SMALL,
    n_qubits=3,
    levels=(0.05, 0.2),
    shots=(None, 256),
    observable_counts=(1, 4, 8, 12),
)


@pytest.mark.filterwarnings("ignore:measurement map is rank deficient")
def test_count_study_runs_as_sweep_cells():
    serial = observable_count_sweep(COUNTS)
    # analytic entries take one repetition: 2 levels x (1 + 2 repetitions) x 4 counts
    assert len(serial) == 2 * 3 * 4
    assert records_to_csv(run_sweep(COUNTS, jobs=2)) == records_to_csv(serial)


@pytest.mark.filterwarnings("ignore:measurement map is rank deficient")
def test_count_study_reruns_from_its_manifest(tmp_path):
    export(observable_count_sweep(COUNTS), tmp_path, config=COUNTS)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    again = run_sweep(sweep_config_from_dict(manifest["config"]))
    assert records_to_csv(again) == (tmp_path / "records.csv").read_text()


@pytest.mark.filterwarnings("ignore:measurement map is rank deficient")
def test_count_study_summary_has_a_row_per_count():
    summaries = summarize(run_sweep(dataclasses.replace(SMALL, observable_counts=(1, 4, 10))))
    assert [(s.observable_count, s.count) for s in summaries] == [(1, 2), (4, 2), (10, 2)]
    assert summary_to_csv(summaries).splitlines()[0].endswith(",observable_count")


@pytest.mark.filterwarnings("ignore:measurement map is rank deficient")
def test_count_cell_solves_each_count_once(monkeypatch):
    # the full count is the reference: it is solved once and shared
    measured_per_solve, real = [], harness.solve_git

    def counted(records, basis, config):
        measured_per_solve.append(sum(r.frequency is not None for r in records))
        return real(records, basis, config)

    monkeypatch.setattr(harness, "solve_git", counted)
    rows = run_sweep(dataclasses.replace(SMALL, repetitions=1, observable_counts=tuple(range(1, 11))))
    assert len(rows) == 10
    assert sorted(measured_per_solve) == list(range(1, 11))


@pytest.mark.filterwarnings("ignore:measurement map is rank deficient")
def test_count_study_records_a_failed_reference(monkeypatch):
    real = harness.solve_git

    def fails_with_every_observable_measured(records, basis, config):
        if all(r.frequency is not None for r in records):
            raise RuntimeError("synthetic failure")
        return real(records, basis, config)

    monkeypatch.setattr(harness, "solve_git", fails_with_every_observable_measured)
    rows = run_sweep(dataclasses.replace(SMALL, observable_counts=(4, 10)))
    assert [r.error for r in rows] == [None, "RuntimeError: synthetic failure"] * 2
    assert [r.fidelity_vs_real is None for r in rows] == [False, True] * 2
    assert all(r.fidelity_vs_reference is None for r in rows)


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

def test_export_csv_and_manifest(tmp_path):
    records = run_sweep(SMALL)
    paths = export(records, tmp_path / "run", config=SMALL)
    names = {p.name for p in paths}
    assert names == {"records.csv", "summary.csv", "manifest.json"}
    manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
    assert manifest["n_records"] == len(records)
    assert manifest["config"]["family"] == "ghz"
    assert manifest["config"]["estimator"]["gamma"] == 0.0
    header = (tmp_path / "run" / "records.csv").read_text().splitlines()[0]
    assert header.split(",") == [f.name for f in dataclasses.fields(SweepRecord)]


def test_export_json_and_both(tmp_path):
    records = run_sweep(SMALL)
    paths = export(records, tmp_path / "j", fmt="json")
    assert {p.name for p in paths} == {"records.json", "summary.json", "manifest.json"}
    loaded = json.loads((tmp_path / "j" / "records.json").read_text())
    assert len(loaded) == len(records)
    assert loaded[0]["mode"] == "git"

    paths = export(records, tmp_path / "b", fmt="both")
    assert len(paths) == 5
    with pytest.raises(ValueError):
        export(records, tmp_path / "x", fmt="yaml")


def test_export_is_reproducible(tmp_path):
    records = run_sweep(SMALL)
    export(records, tmp_path / "one", config=SMALL)
    export(records, tmp_path / "two", config=SMALL)
    for name in ("records.csv", "summary.csv", "manifest.json"):
        assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "two" / name).read_bytes()


def test_csv_floats_round_trip():
    rec = _fake_record(fidelity_vs_target=0.1 + 0.2, objective=1.2345678901234567e-8)
    body = records_to_csv([rec]).splitlines()[1].split(",")
    fields = [f.name for f in dataclasses.fields(SweepRecord)]
    assert float(body[fields.index("fidelity_vs_target")]) == 0.1 + 0.2
    assert float(body[fields.index("objective")]) == 1.2345678901234567e-8
    # empty cell for None, lowercase booleans
    assert body[fields.index("error")] == ""


def test_summary_csv_shape():
    records = [_fake_record(repetition=i, fidelity_vs_target=0.9) for i in range(3)]
    text = summary_to_csv(summarize(records))
    lines = text.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("channel,level,shots,mode,count,failures")


def subsets(values):
    return st.lists(st.sampled_from(values), min_size=1, max_size=2, unique=True).map(tuple)


@pytest.mark.filterwarnings("ignore:measurement map is rank deficient")
@settings(max_examples=3, deadline=None)
@given(
    family=st.sampled_from(["ghz", "twisted"]),
    symmetry=st.sampled_from(["permutation", "collective"]),
    settings_plan=st.sampled_from(["pi", "complete"]),
    modes=subsets(["git", "cvqt", "maxlik"]),
    levels=subsets([0.0, 0.05, 0.2]),
    shots=subsets([None, 64, 256]),
    repetitions=st.integers(1, 2),
    base_seed=st.integers(0, 2**31 - 1),
)
def test_parallel_sweep_matches_serial(**fields):
    cfg = SweepConfig(n_qubits=2, channels=("depolarizing",), estimator=FAST, **fields)
    assert records_to_csv(run_sweep(cfg, jobs=2)) == records_to_csv(run_sweep(cfg, jobs=1))
