import numpy as np
import pytest

from symtomo.operators import pauli_string, projector
from symtomo.statesim import ghz_state, werner_exact
from symtomo.symmetry import SymmetricBasis, SymmetrySpec, compute_commutant_basis
from symtomo.measurement import (
    ObservableRecord,
    OutcomeHistogram,
    bit_labels,
    born_probabilities,
    check_observable,
    check_setting,
    exact_histogram,
    extract_frequencies,
    full_observables,
    full_settings,
    ingest_histograms,
    marginal_observables,
    observable_projector,
    pi_observables,
    pi_settings,
    response_rank,
    sample_histogram,
    sample_state,
    save_histograms,
    select_settings,
    setting_rotation,
    unmeasured_records,
)


def random_density(rng, d):
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


# ---------------------------------------------------------------------------
# settings / observables enumeration
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n,count", [(2, 6), (3, 10), (4, 15), (5, 21), (6, 28), (7, 36)])
def test_pi_settings_count(n, count):
    settings = pi_settings(n)
    assert len(settings) == count
    assert len(set(settings)) == count
    assert (n + 1) * (n + 2) // 2 == count
    for s in settings:
        check_setting(s, n)


def test_full_settings_count():
    assert len(full_settings(2)) == 9
    assert len(full_settings(3)) == 27
    assert full_settings(1) == ["X", "Y", "Z"]


def test_pi_observables_match_symmetric_parameter_count():
    # one pooled observable per coefficient of the permutation-symmetric model
    assert len(pi_observables(2)) == 10
    assert len(pi_observables(3)) == 20
    for ops in pi_observables(3):
        check_observable(ops, 3)
    # canonical spelling: non-identity letters sorted, identities trailing
    assert "XXI" in pi_observables(3)
    assert "XIX" not in pi_observables(3)


def test_full_observables_count():
    # 4^n strings including the all-identity normalization record
    assert len(full_observables(2)) == 16
    assert len(full_observables(3)) == 64
    assert "II" in full_observables(2)


def test_marginal_observables_are_resolvable():
    margs = marginal_observables(["XZ"])
    assert set(margs) == {"XI", "IZ", "II"}


def test_observable_ordering_prefers_fewer_identities():
    obs = pi_observables(2)
    identity_counts = [o.count("I") for o in obs]
    assert identity_counts == sorted(identity_counts)


# ---------------------------------------------------------------------------
# projectors, rotations, probabilities
# ---------------------------------------------------------------------------

def test_projectors_are_projectors():
    for ops in ("XX", "ZI", "IY", "XYZ", "IZI"):
        e = observable_projector(ops)
        assert np.allclose(e @ e, e, atol=1e-9)
        assert np.allclose(e, e.conj().T, atol=1e-9)


def test_observable_projector_values():
    # X observable on one qubit: projector onto |+>
    e = observable_projector("X")
    assert np.allclose(e, np.full((2, 2), 0.5))
    # identity slot contributes a full identity factor
    e = observable_projector("IZ")
    assert np.allclose(e, np.kron(np.eye(2), np.diag([1.0, 0.0])))


def test_setting_rotation_diagonalizes():
    rng = np.random.default_rng(71)
    for setting in ("X", "Y", "XZ", "YX"):
        u = setting_rotation(setting)
        assert np.allclose(u @ u.conj().T, np.eye(u.shape[0]), atol=1e-12)
        rho = random_density(rng, u.shape[0])
        probs = born_probabilities(rho, setting)
        diag = np.real(np.diag(u @ rho @ u.conj().T))
        assert np.allclose(probs, np.clip(diag, 0, None) / np.clip(diag, 0, None).sum(), atol=1e-12)


def test_born_probabilities_normalized():
    rng = np.random.default_rng(73)
    for _ in range(10):
        rho = random_density(rng, 8)
        for setting in ("XYZ", "ZZZ", "YXY"):
            probs = born_probabilities(rho, setting)
            assert probs.shape == (8,)
            assert np.all(probs >= 0)
            assert np.isclose(probs.sum(), 1.0)


def test_analytic_frequencies_equal_traces():
    """Infinite statistics: extracted f must match tr(E rho) for every target."""
    rng = np.random.default_rng(79)
    rho = random_density(rng, 4)
    hists = sample_state(rho, full_settings(2), None)
    targets = full_observables(2)
    recs = extract_frequencies(hists, targets)
    assert len(recs) == len(targets)
    for rec in recs:
        want = np.trace(observable_projector(rec.ops) @ rho).real
        assert rec.measured
        assert abs(rec.frequency - want) < 1e-9


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def test_point_distribution_sampling():
    probs = np.array([1.0, 0.0, 0.0, 0.0])
    hist = sample_histogram(probs, 100, 0, "ZZ")
    assert hist.counts == {"00": 100}
    assert hist.shots == 100


def test_sampling_determinism():
    probs = np.array([0.25, 0.25, 0.25, 0.25])
    a = sample_histogram(probs, 1000, 42, "XY")
    b = sample_histogram(probs, 1000, 42, "XY")
    assert a.counts == b.counts
    c = sample_histogram(probs, 1000, 43, "XY")
    assert a.counts != c.counts


def test_uniform_concentration():
    # seed-averaged binomial concentration at 1e5 shots
    probs = np.array([0.5, 0.5])
    freqs = []
    for seed in range(10):
        hist = sample_histogram(probs, 100_000, seed, "Z")
        freqs.append(hist.counts.get("0", 0) / hist.shots)
    assert abs(np.mean(freqs) - 0.5) < 0.01


def test_exact_histogram_is_analytic():
    rho = projector(ghz_state(2))
    hist = exact_histogram(rho, "ZZ")
    assert hist.shots is None
    assert np.isclose(sum(hist.counts.values()), 1.0)
    assert np.isclose(hist.counts["00"], 0.5)
    assert np.isclose(hist.counts["11"], 0.5)


def test_histogram_validation():
    with pytest.raises(ValueError):
        OutcomeHistogram("ZZ", {"0": 5}, 5)  # outcome length mismatch
    with pytest.raises(ValueError):
        OutcomeHistogram("Z", {"0": -1}, 1)
    with pytest.raises(ValueError):
        OutcomeHistogram("Z", {"0": 0.7}, None)  # analytic must sum to 1
    with pytest.raises(ValueError):
        OutcomeHistogram("Z", {"0": 3, "1": 4}, 10)  # counts exceed shots? no: short
    # well-formed ones construct fine
    OutcomeHistogram("Z", {"0": 0.7, "1": 0.3}, None)
    OutcomeHistogram("Z", {"0": 3, "1": 7}, 10)


def test_bit_labels_are_big_endian():
    assert bit_labels(2) == ["00", "01", "10", "11"]


# ---------------------------------------------------------------------------
# frequency extraction
# ---------------------------------------------------------------------------

def test_extract_marginals_from_partial_histogram():
    hist = OutcomeHistogram("XZ", {"00": 50, "01": 50}, 100)
    recs = extract_frequencies([hist], ["XI", "IZ"])
    by_ops = {r.ops: r for r in recs}
    assert by_ops["XI"].frequency == 1.0  # bit 0 is 0 in both outcomes
    assert by_ops["IZ"].frequency == 0.5


def test_extract_requires_consistent_setting():
    hist = OutcomeHistogram("XZ", {"00": 100}, 100)
    with pytest.raises(ValueError):
        extract_frequencies([hist], ["YI"])


def test_pi_mode_pools_equivalent_targets():
    # two-qubit permutation-invariant mode: 6 histograms -> 10 pooled records
    rho = projector(ghz_state(2))
    hists = sample_state(rho, pi_settings(2), None)
    recs = extract_frequencies(hists, pi_observables(2), pi_mode=True)
    assert len(recs) == 10
    assert all(r.measured for r in recs)
    # pooled estimate for XI averages XI and IX across every consistent setting
    rec = next(r for r in recs if r.ops == "XI")
    assert abs(rec.frequency - 0.5) < 1e-9  # GHZ single-qubit marginal is I/2


def test_pi_mode_pooling_matches_manual_average():
    rng = np.random.default_rng(83)
    rho = random_density(rng, 4)
    hists = sample_state(rho, pi_settings(2), 2048, seed=9)
    recs = extract_frequencies(hists, ["XI"], pi_mode=True)
    by_hand = []
    for hist in hists:
        for variant in ("XI", "IX"):
            slot = variant.index("X")
            if hist.setting[slot] != "X":
                continue
            good = sum(c for outcome, c in hist.counts.items() if outcome[slot] == "0")
            by_hand.append(good / hist.shots)
    assert np.isclose(recs[0].frequency, np.mean(by_hand))


def test_unmeasured_records_have_projectors_only():
    recs = unmeasured_records(["XX", "YI"])
    assert all(not r.measured for r in recs)
    assert all(r.frequency is None for r in recs)
    assert recs[0].projector.shape == (4, 4)


# ---------------------------------------------------------------------------
# setting selection
# ---------------------------------------------------------------------------

def test_select_settings_reaches_full_rank_for_permutation_pair():
    basis = compute_commutant_basis(SymmetrySpec.permutation(2))
    chosen = select_settings(basis, pi_settings(2), 6)
    assert len(chosen) == 6
    assert response_rank(basis, chosen) == basis.size  # 10


def test_select_settings_single_werner_setting():
    basis = compute_commutant_basis(SymmetrySpec.collective(2))
    chosen = select_settings(basis, pi_settings(2), 1)
    assert len(chosen) == 1
    assert response_rank(basis, chosen) >= basis.size  # 2 parameters from one setting


def test_select_settings_deterministic_and_prefix_stable():
    basis = compute_commutant_basis(SymmetrySpec.permutation(2))
    a = select_settings(basis, pi_settings(2), 4)
    b = select_settings(basis, pi_settings(2), 4)
    assert a == b
    longer = select_settings(basis, pi_settings(2), 6)
    assert longer[:4] == a


@pytest.mark.parametrize("spec", [SymmetrySpec.collective(3), SymmetrySpec.permutation(3)])
def test_select_settings_ignores_the_choice_of_orthonormal_basis(spec):
    # the selection may depend only on the span: an orthogonal rotation of
    # the elements leaves every singular value, so every tie, unchanged
    basis = compute_commutant_basis(spec)
    q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((basis.size, basis.size)))
    rotated = SymmetricBasis(basis.n_qubits, basis.kind, np.einsum("ij,jab->iab", q, basis.elements))
    settings = pi_settings(spec.n_qubits)
    k = len(settings)
    assert select_settings(rotated, settings, k) == select_settings(basis, settings, k)


def test_select_settings_rejects_oversized_request():
    basis = compute_commutant_basis(SymmetrySpec.collective(2))
    with pytest.raises(ValueError):
        select_settings(basis, ["XX", "YY"], 10)


def test_werner_four_qubit_selection_rank():
    basis = compute_commutant_basis(SymmetrySpec.collective(4))
    chosen = select_settings(basis, pi_settings(4), 15)
    assert len(chosen) == 15
    assert response_rank(basis, chosen) >= basis.size - 1  # 14-parameter family


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def test_histogram_round_trip(tmp_path):
    rho = werner_exact(0.51)
    hists = sample_state(rho, pi_settings(2), 500, seed=5)
    path = tmp_path / "hists.json"
    save_histograms(path, hists)
    again = ingest_histograms(path)
    assert len(again) == len(hists)
    for h1, h2 in zip(hists, again):
        assert h1.setting == h2.setting
        assert h1.shots == h2.shots
        assert h1.counts == h2.counts


def test_save_rejects_analytic_histograms(tmp_path):
    rho = werner_exact(0.4)
    hists = sample_state(rho, ["ZZ"], None)
    with pytest.raises(ValueError):
        save_histograms(tmp_path / "x.json", hists)


def test_ingest_reports_bad_records(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"n_qubits": 2, "records": [{"setting": "Q!", "shots": 5, "counts": {}}]}')
    with pytest.raises(ValueError):
        ingest_histograms(path)
