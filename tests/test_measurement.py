import dataclasses
import itertools
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symtomo.operators import pauli_string, projector
from symtomo.statesim import ghz_state, twisted_state, werner_exact
from symtomo.symmetry import SymmetricBasis, SymmetrySpec, compute_commutant_basis
from symtomo.measurement import (
    ObservableRecord,
    OutcomeHistogram,
    bit_labels,
    born_probabilities,
    check_observable,
    check_setting,
    covered_observables,
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
from symtomo import measurement
from symtomo.measurement import COND_TIE_RTOL, RANK_TOL, _observable_projectors, _setting_response


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


def kron_chain(factors):
    out = np.eye(1)
    for f in factors:
        out = np.kron(out, f)
    return out


def test_batched_projectors_equal_the_kron_chain():
    plus = {"I": np.eye(2), "X": np.full((2, 2), 0.5),
            "Y": np.array([[0.5, -0.5j], [0.5j, 0.5]]), "Z": np.diag([1.0, 0.0])}
    rng = np.random.default_rng(5)
    groups = [full_observables(n) for n in range(1, 5)]
    groups.append(["".join(rng.choice(list("IXYZ"), 7)) for _ in range(50)])
    for strings in groups:
        stack = _observable_projectors(strings)
        assert stack.shape == (len(strings),) + observable_projector(strings[0]).shape
        for ops, proj in zip(strings, stack):
            assert np.array_equal(proj, observable_projector(ops))
            assert np.array_equal(proj, kron_chain([plus[c] for c in ops]))


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 6), data=st.data())
def test_born_probabilities_are_the_traces_of_the_product_projectors(n, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    rho = random_density(rng, 2**n)
    setting = data.draw(st.text("XYZ", min_size=n, max_size=n), label="setting")
    u = setting_rotation(setting)  # row b is the bra of the eigenstate labeled by b
    want = np.array([np.trace(np.outer(row.conj(), row) @ rho).real for row in u])
    probs = born_probabilities(rho, setting)
    assert np.abs(probs - want).max() <= 1e-14
    assert probs.min() >= 0.0 and abs(probs.sum() - 1.0) <= 1e-14


def rotated_probabilities(rho, setting):
    """The oracle the Pauli transform replaced: diag(u rho u^dag) with u the setting's rotation."""
    u = setting_rotation(setting)
    return np.real(np.diag(u @ rho @ u.conj().T))


def oracle_cases():
    rng = np.random.default_rng(97)
    for n in range(1, 9):
        settings_ = pi_settings(n) if n <= 5 else ["Y" * n, ("XY" * n)[:n], "".join(rng.choice(list("XYZ"), n))]
        for theta in (0.0, 0.3):
            yield f"ghz-{n}-{theta}", projector(ghz_state(n, theta)), settings_
            yield f"twisted-{n}-{theta}", projector(twisted_state(n, theta)), settings_
    for n in (2, 4, 6):
        yield f"mixed-{n}", random_density(rng, 2**n), ["".join(rng.choice(list("XYZ"), n)) for _ in range(6)]


@pytest.mark.parametrize("rho, settings_", [case[1:] for case in oracle_cases()],
                         ids=[case[0] for case in oracle_cases()])
def test_pauli_transform_probabilities_equal_the_rotated_diagonal(rho, settings_):
    assert any("Y" in s for s in settings_)
    table = measurement._born_table(rho, settings_)
    for setting, row in zip(settings_, table):
        want = rotated_probabilities(rho, setting)
        assert np.abs(row - want).max() <= 1e-14
        assert np.array_equal(born_probabilities(rho, setting), row)


def test_analytic_sampling_is_the_exact_histogram_of_each_setting():
    rng = np.random.default_rng(101)
    for rho in (random_density(rng, 16), projector(twisted_state(4, 0.3))):
        for settings_ in (pi_settings(4), ["YZXY", "ZZZZ", "YZXY"]):
            got = sample_state(rho, settings_, None)
            want = [exact_histogram(rho, s) for s in settings_]
            assert [(h.setting, h.shots, h.counts) for h in got] == [(h.setting, h.shots, h.counts) for h in want]


def test_sampling_forms_no_rotation_product(monkeypatch):
    def refuse(setting):
        raise AssertionError(f"built the rotation of {setting!r}")

    rho = random_density(np.random.default_rng(103), 16)
    want = sample_state(rho, pi_settings(4), 512, seed=3)
    monkeypatch.setattr(measurement, "setting_rotation", refuse)
    got = sample_state(rho, pi_settings(4), 512, seed=3)
    assert [h.counts for h in got] == [h.counts for h in want]
    assert len(sample_state(rho, pi_settings(4), None)) == 15
    assert born_probabilities(rho, "XYZY").shape == (16,)


def test_born_probabilities_refuse_a_non_state_naming_the_setting():
    rho = np.kron(np.diag([1.5, -0.5]), np.eye(2) / 2)  # trace 1, eigenvalue -0.25
    assert np.allclose(born_probabilities(rho, "XZ"), 0.25)  # this setting cannot see the fault
    with pytest.raises(ValueError, match=re.escape("setting ZX: outcome probabilities of a non-state "
                                                   "(lowest -2.500e-01, total 1)")):
        born_probabilities(rho, "ZX")
    for shots in (100, None):
        with pytest.raises(ValueError, match=re.escape("setting ZY: ")):
            sample_state(rho, ["XZ", "YY", "ZY", "ZZ"], shots, seed=1)


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

def test_sample_state_is_reproducible_from_its_seed():
    rho = random_density(np.random.default_rng(3), 16)
    runs = [sample_state(rho, pi_settings(4), 4096, seed=11) for _ in range(2)]
    assert [(h.setting, h.counts) for h in runs[0]] == [(h.setting, h.counts) for h in runs[1]]


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


@pytest.mark.parametrize("probs, setting, fault", [
    # was a two-outcome histogram labelled as a two-qubit setting
    ([0.5, 0.5], "XY", "setting 'XY' has 4 outcomes, but 2 probabilities were given"),
    # was a bare IndexError
    ([1 / 8] * 8, "XY", "setting 'XY' has 4 outcomes, but 8 probabilities were given"),
    ([0.5, 0.5], "Q", "invalid measurement setting 'Q'"),
], ids=["short", "long", "bad-setting"])
def test_sampling_refuses_probabilities_that_do_not_fit_the_setting_before_drawing(probs, setting, fault):
    rng = np.random.default_rng(5)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match=f"^{re.escape(fault)}$"):
        sample_histogram(probs, 100, rng, setting)
    assert rng.bit_generator.state == state


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


@pytest.mark.parametrize("outcome", ["0a1", "0 1", "012", "1-0", "01\n"])
def test_histogram_refuses_a_bad_character_in_an_outcome(outcome):
    with pytest.raises(ValueError, match=re.escape(f"invalid outcome {outcome!r} for setting 'ZZZ'")):
        OutcomeHistogram("ZZZ", {"000": 4, outcome: 1}, 5)


@pytest.mark.parametrize("shots, counts", [
    (None, {"0": float("nan"), "1": 1.0}),
    (None, {"0": float("nan")}),
    (None, {"0": float("inf")}),
    (4, {"0": float("nan"), "1": 4}),
], ids=["exact-nan", "exact-nan-alone", "exact-inf", "sampled-nan"])
def test_histogram_refuses_a_non_finite_count(shots, counts):
    with pytest.raises(ValueError):
        OutcomeHistogram("Z", counts, shots)


@pytest.mark.parametrize("shots, counts, fault", [
    (5, {"00": 2, "01": True, "10": 2}, "count True for outcome '01' is not a whole number"),
    (None, {"00": 0.5, "01": float("nan"), "10": 0.5}, "count nan for outcome '01' is not a non-negative number"),
    (5, {"00": 3, "01": -1, "10": 3}, "count -1 for outcome '01' is not a non-negative number"),
    (5, {"00": 2, "01": 2.5, "10": 0.5}, "count 2.5 for outcome '01' is not a whole number"),
    (5, {"00": 2, "01": 2}, "counts sum 4.0 does not match shots 5"),
    (None, {"00": 0.5, "01": 0.25}, "exact histogram probabilities sum to 0.75, not 1"),
    (5, {"00": 1, "01": -1, "1x": 1, "11": 2.5}, "count -1 for outcome '01' is not a non-negative number"),
    (5, {"00": 1, "0x": 1, "01": -1}, "invalid outcome '0x' for setting 'ZZ'"),
    (5, {"00": 1, "011": 1, "0": 3}, "invalid outcome '011' for setting 'ZZ'"),
], ids=["bool", "nan", "negative", "fraction-with-shots", "sampled-sum", "exact-sum",
        "first-of-two-counts", "outcome-before-count", "lengths-that-add-up"])
def test_histogram_names_the_first_outcome_at_fault(shots, counts, fault):
    with pytest.raises(ValueError, match=f"^{re.escape(fault)}$"):
        OutcomeHistogram("ZZ", counts, shots)


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


def reference_frequencies(histograms, targets, pi_mode=False):
    """The per-variant loop that counting replaced, kept as the reference.

    Every distinct permutation of a target (in ``pi_mode``) is checked
    against every histogram and marginalized over its outcome dict; a target
    no histogram can estimate maps to None.
    """
    out = []
    for ops in targets:
        variants = sorted({"".join(p) for p in itertools.permutations(ops)}) if pi_mode else [ops]
        estimates = []
        for hist in histograms:
            for variant in variants:
                slots = [i for i, c in enumerate(variant) if c != "I"]
                if any(hist.setting[i] != variant[i] for i in slots):
                    continue
                total = sum(
                    count for outcome, count in hist.counts.items()
                    if all(outcome[i] == "0" for i in slots)
                )
                estimates.append(float(total) / (1.0 if hist.shots is None else float(hist.shots)))
        out.append(float(np.mean(estimates)) if estimates else None)
    return out


@settings(max_examples=60)
@given(
    n=st.integers(1, 5),
    pi_mode=st.booleans(),
    shots=st.sampled_from([None, 1, 7, 1000, 2, 64, 4096]),
    data=st.data(),
)
def test_counting_matches_the_per_variant_loop(n, pi_mode, shots, data):
    # few shots leave outcomes missing; the all-identity target is always asked
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    pool = pi_settings(n) if pi_mode else full_settings(n)
    measured = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=6, unique=True))
    hists = sample_state(random_density(rng, 2**n), measured, shots, seed=rng)
    targets = ["I" * n] + data.draw(st.lists(st.sampled_from(full_observables(n)), max_size=10))
    want = reference_frequencies(hists, targets, pi_mode)
    for ops in (t for t, f in zip(targets, want) if f is None):
        with pytest.raises(ValueError, match="no measured setting can estimate"):
            extract_frequencies(hists, [ops], pi_mode=pi_mode)
    targets, want = zip(*((t, f) for t, f in zip(targets, want) if f is not None))
    got = [r.frequency for r in extract_frequencies(hists, targets, pi_mode=pi_mode)]
    if shots is not None and shots & (shots - 1) == 0:
        assert got == list(want)  # every estimate and partial sum is exact in binary
    else:
        assert np.abs(np.subtract(got, want)).max() <= 1e-15


def filed_per_mask(histograms, targets, pi_mode):
    """Extraction as it filed each mask by string: a subset-sum table per histogram, ``_pooled_key`` per mask.

    A target no histogram can estimate maps to None.
    """
    filed = {}
    for hist in histograms:
        table = np.zeros((2,) * hist.n_qubits)
        for outcome, count in hist.counts.items():
            table.flat[int(outcome, 2)] = count
        for axis in range(table.ndim):
            table = table.cumsum(axis)
        masked = itertools.product(*(("I", c) for c in hist.setting))
        for letters, est in zip(masked, (table.ravel()[::-1] / (hist.shots or 1.0)).tolist()):
            filed.setdefault(measurement._pooled_key(letters) if pi_mode else "".join(letters), []).append(est)
    keys = [measurement._pooled_key(ops) if pi_mode else ops for ops in targets]
    return [float(np.mean(filed[key])) if key in filed else None for key in keys]


@st.composite
def random_histograms(draw):
    """1-8 histograms on random settings of n <= 5 qubits, sampled counts or exact probabilities."""
    n = draw(st.integers(1, 5))
    exact = draw(st.booleans())
    hists = []
    for _ in range(draw(st.integers(1, 8))):
        setting = draw(st.text("XYZ", min_size=n, max_size=n))
        outcomes = draw(st.lists(st.integers(0, 2**n - 1), min_size=1, max_size=2**n, unique=True))
        weights = draw(st.lists(st.integers(1, 5000), min_size=len(outcomes), max_size=len(outcomes)))
        labels = [format(b, f"0{n}b") for b in outcomes]
        if exact:
            total = float(sum(weights))
            hists.append(OutcomeHistogram(setting, {lab: w / total for lab, w in zip(labels, weights)}, None))
        else:
            hists.append(OutcomeHistogram(setting, dict(zip(labels, weights)), sum(weights)))
    return hists


@settings(max_examples=80, deadline=None)
@given(hists=random_histograms(), pi_mode=st.booleans(), data=st.data())
def test_keyed_filing_equals_filing_each_mask_by_string(hists, pi_mode, data):
    n = hists[0].n_qubits
    targets = full_observables(n) if n <= 3 else data.draw(st.lists(st.sampled_from(full_observables(n)),
                                                                     min_size=1, max_size=40))
    want = filed_per_mask(hists, targets, pi_mode)
    for ops in (t for t, f in zip(targets, want) if f is None):
        with pytest.raises(ValueError, match=f"no measured setting can estimate observable {ops!r}"):
            extract_frequencies(hists, [ops], pi_mode=pi_mode)
    known = [(t, f) for t, f in zip(targets, want) if f is not None]
    got = extract_frequencies(hists, [t for t, _ in known], pi_mode=pi_mode)
    assert [(r.ops, r.frequency) for r in got] == known  # bit for bit


def test_pooled_targets_in_any_spelling_share_one_estimate():
    rng = np.random.default_rng(89)
    hists = sample_state(random_density(rng, 8), pi_settings(3), 1000, seed=rng)
    spellings = ["XYI", "IXY", "YIX"]
    got = [r.frequency for r in extract_frequencies(hists, spellings, pi_mode=True)]
    assert got == reference_frequencies(hists, spellings, pi_mode=True)
    assert len(set(got)) == 1


def twirl(rho, n):
    """Average of P rho P^dag over every qubit permutation P."""
    perms = list(itertools.permutations(range(n)))
    tensor_rho = rho.reshape((2,) * (2 * n))
    total = sum(tensor_rho.transpose(p + tuple(n + q for q in p)) for p in perms)
    return total.reshape(rho.shape) / len(perms)


@settings(max_examples=20)
@given(n=st.integers(2, 5), seed=st.integers(0, 2**32 - 1))
def test_pooled_analytic_frequencies_equal_traces_on_invariant_states(n, seed):
    rho = twirl(random_density(np.random.default_rng(seed), 2**n), n)
    hists = sample_state(rho, pi_settings(n), None)
    for rec in extract_frequencies(hists, pi_observables(n), pi_mode=True):
        assert abs(rec.frequency - np.trace(rec.projector @ rho).real) <= 1e-12


@pytest.mark.parametrize("first_three", [False, True], ids=["two-first", "three-first"])
def test_extract_rejects_histograms_of_differing_qubit_counts(first_three):
    two = OutcomeHistogram("ZZ", {"00": 7, "11": 3}, 10)
    three = OutcomeHistogram("ZZZ", {"000": 7, "111": 3}, 10)
    if first_three:
        hists, target, culprit = [three, two], "ZZI", "ZZ"
    else:
        hists, target, culprit = [two, three], "ZI", "ZZZ"
    with pytest.raises(ValueError, match=f"setting '{culprit}' does not address"):
        extract_frequencies(hists, [target], pi_mode=True)


@settings(max_examples=40)
@given(n=st.integers(1, 4), data=st.data())
def test_covered_observables_are_the_estimable_ones(n, data):
    measured = data.draw(st.lists(st.sampled_from(full_settings(n)), min_size=1, max_size=6))
    covered, uncovered = covered_observables(measured)
    assert sorted(covered + uncovered) == sorted(full_observables(n))
    assert covered == [o for o in full_observables(n) if o in covered]
    assert uncovered == [o for o in full_observables(n) if o in uncovered]
    hists = sample_state(np.eye(2**n) / 2**n, measured, 16, seed=0)
    assert [r.ops for r in extract_frequencies(hists, covered)] == covered
    for ops in uncovered:
        with pytest.raises(ValueError, match="no measured setting can estimate"):
            extract_frequencies(hists, [ops])


def test_unmeasured_records_have_projectors_only():
    recs = unmeasured_records(["XX", "YI"])
    assert all(not r.measured for r in recs)
    assert all(r.frequency is None for r in recs)
    assert recs[0].projector.shape == (4, 4)


def test_a_record_is_its_string_and_its_frequency():
    assert [f.name for f in dataclasses.fields(ObservableRecord)] == ["ops", "frequency"]
    rec = ObservableRecord("XI", 0.25)
    assert rec == ObservableRecord("XI", 0.25) != ObservableRecord("XI", 0.5)
    assert rec.measured and not ObservableRecord("XI").measured
    assert np.array_equal(rec.projector, observable_projector("XI"))
    for name in ("measured", "projector", "frequency"):
        with pytest.raises(AttributeError):
            setattr(rec, name, None)


@pytest.mark.parametrize("ops", ["", "XQ", "xz"])
def test_record_rejects_a_bad_string(ops):
    with pytest.raises(ValueError, match=re.escape(repr(ops))):
        ObservableRecord(ops, 0.5)


@pytest.mark.parametrize("frequency", [float("nan"), float("inf"), 1.5, -0.1, True, "0.5"],
                         ids=["nan", "inf", "above-one", "negative", "bool", "str"])
def test_record_refuses_a_frequency_that_is_not_in_the_unit_interval(frequency):
    with pytest.raises(ValueError, match="frequency of 'XI'"):
        ObservableRecord("XI", frequency)


def test_record_takes_a_frequency_within_rounding_of_the_unit_interval():
    for frequency in (None, 0, 1, np.float64(0.5), -5e-10, 1 + 5e-10):
        assert ObservableRecord("XI", frequency).frequency is frequency


def test_records_are_built_without_operators(monkeypatch):
    def refuse(ops):
        raise AssertionError(f"built the operator of {ops!r}")

    monkeypatch.setattr(measurement, "observable_projector", refuse)
    hists = sample_state(projector(ghz_state(3)), pi_settings(3), 64, seed=1)
    recs = extract_frequencies(hists, pi_observables(3), pi_mode=True)
    recs += extract_frequencies(hists, ["XXX", "ZZI"])
    assert len(recs) == 22 and all(r.measured for r in recs)
    assert unmeasured_records(["XY", "II"]) == [ObservableRecord("XY"), ObservableRecord("II")]


# ---------------------------------------------------------------------------
# setting selection
# ---------------------------------------------------------------------------

def rotated_diagonal(basis, setting):
    """The outcome rows diag(u S_i u^dag), from the dense elements rotated by the setting's u."""
    u = setting_rotation(setting)
    return np.real(np.einsum("nii->in", u @ basis.elements @ u.conj().T))


def select_by_full_svds(basis, candidates, k):
    """The greedy rule with one SVD of all stacked rows per candidate per round, on dense responses."""
    candidates = sorted(set(candidates))
    responses = {s: rotated_diagonal(basis, s) for s in candidates}
    chosen, rows = [], np.zeros((0, basis.size))
    for _ in range(k):
        scores = {}
        for s in candidates:
            if s not in chosen:
                sv = np.linalg.svd(np.vstack([rows, responses[s]]), compute_uv=False)
                rank = int((sv > RANK_TOL).sum())
                scores[s] = (rank, float(sv[0] / sv[rank - 1]) if rank else np.inf)
        top = max(rank for rank, _ in scores.values())
        least = min(cond for rank, cond in scores.values() if rank == top)
        best = next(s for s, (rank, cond) in scores.items()
                    if rank == top and cond <= least * (1.0 + COND_TIE_RTOL))
        chosen.append(best)
        rows = np.vstack([rows, responses[best]])
    return chosen


def select_by_batched_svds(basis, candidates, k=None):
    """The greedy rule scoring every remaining candidate each round, in one batched SVD of the stacked [R; A_s]."""
    candidates = sorted(set(candidates))
    k = min(len(candidates), 2 * basis.size) if k is None else k
    responses = measurement._outcome_rows(measurement._search_space(basis, basis.dim), candidates)
    remaining, chosen, reduced = list(range(len(candidates))), [], np.zeros((0, basis.size))
    for _ in range(k):
        stacked = np.concatenate(
            [np.broadcast_to(reduced, (len(remaining),) + reduced.shape), responses[remaining]], axis=1
        )
        sv = np.linalg.svd(stacked, compute_uv=False)
        rank = (sv > RANK_TOL).sum(axis=1)
        top = rank == rank.max()
        cond = np.full(len(remaining), np.inf)
        if rank.max():
            cond[top] = sv[top, 0] / sv[top, rank.max() - 1]
        least = cond[top].min()
        best = remaining.pop(int(np.flatnonzero(top & (cond <= least * (1.0 + COND_TIE_RTOL)))[0]))
        chosen.append(candidates[best])
        reduced = np.linalg.qr(np.vstack([reduced, responses[best]]), mode="r")
    return chosen


@pytest.mark.parametrize("kind", ["collective", "permutation"])
@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("family", [full_settings, pi_settings])
def test_select_settings_picks_as_one_svd_per_candidate_does(kind, n, family):
    basis = compute_commutant_basis(SymmetrySpec(n, kind))
    candidates = family(n)
    k = min(len(candidates), 2 * basis.size)
    assert select_settings(basis, candidates, k) == select_by_full_svds(basis, candidates, k)


def test_select_settings_reaches_full_rank_for_permutation_pair():
    basis = compute_commutant_basis(SymmetrySpec.permutation(2))
    chosen = select_settings(basis, pi_settings(2), 6)
    assert len(chosen) == 6
    assert response_rank(basis, chosen) == basis.size  # 10
    assert select_settings(basis, pi_settings(2)) == chosen  # k defaults to min(6, 2 * 10)


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


def orthogonal_mix(basis):
    """A basis built from its elements alone: those of ``basis`` under a seeded random orthogonal mix."""
    q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((basis.size, basis.size)))
    return SymmetricBasis(basis.n_qubits, basis.kind, np.einsum("ij,jab->iab", q, basis.elements))


@pytest.mark.parametrize("spec", [SymmetrySpec.collective(3), SymmetrySpec.permutation(3)])
def test_select_settings_ignores_the_choice_of_orthonormal_basis(spec):
    # the selection may depend only on the span: an orthogonal rotation of
    # the elements leaves every singular value, so every tie, unchanged
    basis = compute_commutant_basis(spec)
    rotated = orthogonal_mix(basis)
    settings = pi_settings(spec.n_qubits)
    k = len(settings)
    assert select_settings(rotated, settings, k) == select_settings(basis, settings, k)


SWAP_01 = np.kron(np.eye(4)[[0, 2, 1, 3]], np.eye(2))  # swaps qubits 0 and 1 of three


SELECTION_CASES = {
    "collective-5": lambda: compute_commutant_basis(SymmetrySpec.collective(5)),
    "permutation-5": lambda: compute_commutant_basis(SymmetrySpec.permutation(5)),
    "swap-3": lambda: compute_commutant_basis(SymmetrySpec.custom_unitaries([SWAP_01])),
    "mixed-collective-3": lambda: orthogonal_mix(compute_commutant_basis(SymmetrySpec.collective(3))),
    "mixed-permutation-3": lambda: orthogonal_mix(compute_commutant_basis(SymmetrySpec.permutation(3))),
}


@pytest.mark.parametrize("case", SELECTION_CASES)
def test_select_settings_picks_as_scoring_every_candidate_does(case):
    basis = SELECTION_CASES[case]()
    candidates = full_settings(basis.n_qubits)
    assert select_settings(basis, candidates) == select_by_batched_svds(basis, candidates)


def test_selection_scores_one_candidate_per_class_of_equal_grams(monkeypatch):
    # the 81 settings of four qubits fall into 14 classes under the collective
    # symmetry, the 6 relabellings of X, Y and Z; scoring every candidate takes 81
    basis = compute_commutant_basis(SymmetrySpec.collective(4))
    batches, svd = [], np.linalg.svd
    def recording(a, *args, **kwargs):
        batches.append(len(a) if np.ndim(a) == 3 else 1)
        return svd(a, *args, **kwargs)
    monkeypatch.setattr(measurement.np.linalg, "svd", recording)
    chosen = select_settings(basis, full_settings(4))
    monkeypatch.undo()
    assert len(batches) == len(chosen) == 28  # one batched SVD per round
    assert max(batches) <= 14
    assert chosen == select_by_batched_svds(basis, full_settings(4))


def relabelling_orbit(setting):
    return min(setting.translate(str.maketrans("XYZ", "".join(p))) for p in itertools.permutations("XYZ"))


@pytest.mark.parametrize("kind, orbit", [("collective", relabelling_orbit), ("permutation", sorted)])
@pytest.mark.parametrize("n", [3, 4])
def test_gram_classes_are_the_orbits_of_the_symmetry(kind, orbit, n):
    basis = compute_commutant_basis(SymmetrySpec(n, kind))
    settings_ = full_settings(n)
    classes = measurement._gram_classes(measurement._outcome_rows(measurement._search_space(basis, basis.dim),
                                                                  settings_))
    assert [settings_[c] for c in classes] == [next(t for t in settings_ if orbit(t) == orbit(s))
                                               for s in settings_]


def test_gram_classes_never_join_grams_beyond_roundoff():
    rng = np.random.default_rng(3)
    rows = rng.standard_normal((3, 8, 4))
    rows[1] = np.linalg.qr(rng.standard_normal((8, 8)))[0] @ rows[0]  # the same Gram up to roundoff
    rows[2] = rows[0] * (1.0 + 1e-10)  # rounds to the same key, but differs beyond roundoff
    assert measurement._gram_classes(rows).tolist() == [0, 0, 2]


@settings(max_examples=40)
@given(kind=st.sampled_from(["collective", "permutation"]), n=st.integers(1, 3), data=st.data())
def test_selection_is_a_function_of_the_candidate_set_and_prefix_stable(kind, n, data):
    basis = compute_commutant_basis(SymmetrySpec(n, kind))
    pool = data.draw(st.lists(st.sampled_from(full_settings(n)), min_size=1, unique=True), label="pool")
    k = data.draw(st.integers(1, len(pool)), label="k")
    chosen = select_settings(basis, pool, k)
    assert len(set(chosen)) == k and set(chosen) <= set(pool)
    repeated = data.draw(st.permutations(pool + data.draw(st.lists(st.sampled_from(pool)), label="repeats")))
    assert select_settings(basis, repeated, k) == chosen
    j = data.draw(st.integers(1, k), label="j")
    assert select_settings(basis, pool, j) == chosen[:j]


@pytest.mark.parametrize("k, fault", [
    (2.5, "k must be an integer, got 2.5"),
    ("3", "k must be an integer, got '3'"),
    (True, "k must be an integer, got True"),
    (0, "cannot pick 0 settings from 4 candidates"),
    (5, "cannot pick 5 settings from 4 candidates"),
], ids=["fraction", "string", "bool", "zero", "too-many"])
def test_select_settings_refuses_a_k_that_is_no_count_of_candidates(monkeypatch, k, fault):
    basis = compute_commutant_basis(SymmetrySpec.collective(2))
    def refuse(*args):
        raise AssertionError("rows were built before k was checked")
    monkeypatch.setattr(measurement, "_outcome_rows", refuse)
    with pytest.raises(ValueError, match=f"^{re.escape(fault)}$"):
        select_settings(basis, ["XX", "YY", "ZZ", "XY"], k)


def test_select_settings_takes_a_numpy_integer_k():
    basis = compute_commutant_basis(SymmetrySpec.collective(2))
    assert select_settings(basis, pi_settings(2), np.int64(3)) == select_settings(basis, pi_settings(2), 3)


def test_a_basis_with_blocks_is_its_own_search_space_and_forms_no_identity_coordinates(monkeypatch):
    # the identity-span check reads the d^2 unit coordinates of I: only a basis given by its elements needs it
    basis = compute_commutant_basis(SymmetrySpec.permutation(3))
    def refuse(*args):
        raise AssertionError("unit coordinates were formed")
    monkeypatch.setattr(measurement, "_unit_coordinates", refuse)
    assert measurement._search_space(basis, 8) is basis
    full = measurement._search_space(None, 8)  # the matrix units of one 8 x 8 identity block
    assert full._coords is None and full.size == 64 and len(full.blocks) == 1


@pytest.mark.parametrize("kind", ["permutation", "collective", "custom", "hand-built"])
def test_setting_response_is_the_diagonal_of_the_rotated_elements(kind):
    if kind == "custom":
        bases = [compute_commutant_basis(SymmetrySpec.custom_unitaries([SWAP_01]))]
    elif kind == "hand-built":
        bases = [orthogonal_mix(compute_commutant_basis(SymmetrySpec.permutation(3)))]
    else:
        bases = [compute_commutant_basis(SymmetrySpec(n, kind))
                 for n in (range(1, 6) if kind == "permutation" else range(2, 6))]
    for basis in bases:
        for setting in full_settings(basis.n_qubits):
            assert np.abs(_setting_response(basis, setting) - rotated_diagonal(basis, setting)).max() <= 1e-14


@pytest.mark.parametrize("kind", ["permutation", "collective"])
def test_selection_builds_no_dense_element(kind):
    basis = compute_commutant_basis(SymmetrySpec(4, kind))
    chosen = select_settings(basis, full_settings(4))
    assert response_rank(basis, chosen) == basis.size
    assert "elements" not in vars(basis)


def test_selection_refuses_a_basis_that_is_not_orthonormal():
    scaled = 2.0 * compute_commutant_basis(SymmetrySpec.permutation(2)).elements
    for score in (select_settings, response_rank):
        with pytest.raises(ValueError, match="basis elements are not orthonormal"):
            score(SymmetricBasis(2, "permutation", scaled), pi_settings(2))


def test_pooled_settings_pin_the_six_qubit_permutation_family():
    basis = compute_commutant_basis(SymmetrySpec.permutation(6))
    assert response_rank(basis, pi_settings(6)) == basis.size == 84


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


@settings(max_examples=30)
@given(n=st.integers(1, 4), data=st.data())
def test_histogram_json_round_trip_preserves_records(tmp_path_factory, n, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    measured = data.draw(st.lists(st.sampled_from(full_settings(n)), min_size=1, max_size=5))
    hists = [
        sample_histogram(rng.dirichlet(np.ones(2**n)), data.draw(st.integers(1, 10**6)), rng, s)
        for s in measured
    ]
    path = tmp_path_factory.mktemp("round-trip") / "hists.json"
    save_histograms(path, hists)
    again = ingest_histograms(path)
    assert [(h.setting, h.shots, h.counts) for h in again] == [
        (h.setting, h.shots, h.counts) for h in hists
    ]


@pytest.mark.parametrize(
    "counts, shots, fault",
    [
        ({"0": 1.9, "1": 1.2}, 2, "count 1.9 for outcome '0' is not a whole number"),
        ({"0": True, "1": 1}, 2, "count True for outcome '0' is not a whole number"),
        ({"0": 2, "1": 1}, 2.5, "shots must be a positive integer, got 2.5"),
        ({"0": 1}, True, "shots must be a positive integer, got True"),
    ],
    ids=["fractional-count", "boolean-count", "fractional-shots", "boolean-shots"],
)
def test_ingest_rejects_counts_that_are_not_whole(tmp_path, counts, shots, fault):
    path = tmp_path / "hists.json"
    path.write_text(json.dumps({"n_qubits": 1, "records": [
        {"setting": "Z", "shots": 2, "counts": {"0": 2.0}},  # a whole float count loads
        {"setting": "X", "shots": shots, "counts": counts},
    ]}))
    with pytest.raises(ValueError, match=re.escape(f"records[1] (setting 'X'): {fault}")):
        ingest_histograms(path)


def test_ingest_reports_bad_records(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"n_qubits": 2, "records": [{"setting": "Q!", "shots": 5, "counts": {}}]}')
    with pytest.raises(ValueError):
        ingest_histograms(path)


@pytest.mark.parametrize("shots", [10.5, True], ids=["fractional", "bool"])
def test_sampling_refuses_shots_that_are_not_a_positive_integer(shots):
    with pytest.raises(ValueError, match=f"shots must be a positive integer, got {shots!r}"):
        sample_state(np.eye(2) / 2, ["Z"], shots)


@pytest.mark.parametrize(
    "rho, fault",
    [
        (np.diag([1.3, -0.3, 0.0, 0.0]), "lowest -3.000e-01"),  # not to be clipped to |00>
        (np.eye(4) / 2, "total 2"),  # trace 2, not to be renormalized
    ],
    ids=["negative", "trace-2"],
)
def test_sampling_refuses_a_matrix_that_is_not_a_state(rho, fault):
    for shots in (1000, None):
        with pytest.raises(ValueError, match=re.escape(f"setting ZZ: ") + ".*" + re.escape(fault)):
            sample_state(rho, ["ZZ"], shots, seed=1)


def test_sampling_accepts_roundoff_within_the_density_matrix_tolerances():
    rho = np.diag([1.0 + 5e-10, -5e-10, 0.0, 0.0])
    assert sample_state(rho, ["ZZ"], 100, seed=1)[0].counts == {"00": 100}
    for probs in (born_probabilities(rho, "ZZ"), measurement._born_table(rho, ["ZZ", "XZ"])[0]):
        assert probs[1] == 0.0 and probs.sum() == 1.0  # clipped, then renormalized
    assert exact_histogram(rho, "ZZ").counts == {"00": 1.0}


@pytest.mark.parametrize(
    "plan",
    [covered_observables, lambda s: measurement.record_plan("git", "permutation", s),
     lambda s: measurement.record_plan("cvqt", "permutation", s),
     lambda s: sample_state(np.eye(4) / 4, s, 100), lambda s: sample_state(np.eye(4) / 4, s, None)],
    ids=["covered", "git-plan", "cvqt-plan", "sampled", "exact"],
)
def test_empty_settings_are_refused(plan):
    with pytest.raises(ValueError, match="no measurement settings were given"):
        plan([])


@pytest.mark.parametrize("family", [pi_settings, full_settings, pi_observables, full_observables])
def test_families_refuse_a_qubit_count_that_is_not_an_integer(family):
    with pytest.raises(ValueError, match="n_qubits must be an integer, got 2.0"):
        family(2.0)
