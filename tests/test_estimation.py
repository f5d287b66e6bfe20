"""Estimator behaviour on analytic and sampled data.

The analytic cases have closed-form truths (the prepared state itself, or the
trace-constrained least-squares fit), so solver output can be checked to tight
tolerances.  Sampled cases pin fidelity floors measured from the seeds used.
"""

import itertools
import tracemalloc
import warnings
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from symtomo import estimation
from symtomo.operators import PAULI_X, PAULI_Z, assert_density_matrix, pauli_string, projector
from symtomo.statesim import apply_channel, ghz_state, werner_exact
from symtomo.symmetry import (
    SymmetricBasis,
    SymmetrySpec,
    _block_matrix_units,
    _one_block,
    compute_commutant_basis,
    symmetrize,
)
from symtomo.measurement import (
    ObservableRecord,
    _observable_projectors,
    _search_space,
    _unit_rows,
    extract_frequencies,
    full_observables,
    full_settings,
    pi_observables,
    pi_settings,
    record_plan,
    sample_state,
    unmeasured_records,
)
from symtomo.estimation import (
    EstimationProblem,
    EstimatorConfig,
    _BlockMaps,
    _Likelihood,
    _RelativeError,
    _centring_derivatives,
    _estimate,
    _newton_direction,
    _path_derivative,
    _record_rows,
    _trace_frame,
    _trace_one_lstsq,
    linear_inversion,
    solve_cvqt,
    solve_git,
    solve_maxlik,
    solve_vqt,
)
from symtomo.metrics import fidelity


ANALYTIC = EstimatorConfig(gamma=0.0)


def depolarize_all(rho, level):
    n = int(np.log2(rho.shape[0]))
    for q in range(n):
        rho = apply_channel(rho, "depolarizing", level, q)
    return rho


def analytic_records(rho, n, pi_mode=False):
    if pi_mode:
        hists = sample_state(rho, pi_settings(n), None)
        return extract_frequencies(hists, pi_observables(n), pi_mode=True)
    hists = sample_state(rho, full_settings(n), None)
    return extract_frequencies(hists, full_observables(n))


# ---------------------------------------------------------------------------
# linear inversion
# ---------------------------------------------------------------------------

def test_linear_inversion_recovers_pure_state():
    rho = projector(np.array([1.0, 0.0], dtype=complex))  # |0><0|
    recs = analytic_records(rho, 1)
    est = linear_inversion(recs)
    assert np.allclose(est, rho, atol=1e-10)


def test_linear_inversion_matches_symmetric_route():
    rho = projector(ghz_state(2, theta=0.9))
    basis = compute_commutant_basis(SymmetrySpec.permutation(2))
    full = linear_inversion(analytic_records(rho, 2))
    sym = linear_inversion(analytic_records(rho, 2, pi_mode=True), basis=basis)
    # GHZ is permutation symmetric, so both routes land on the same state
    assert np.allclose(full, sym, atol=1e-9)
    assert np.allclose(full, rho, atol=1e-9)


# ZZ-only data pin 3 of the 10 permutation-basis unknowns (the 2-element
# collective basis is fully pinned by them, so it cannot show the warning)
RANK_DEFICIENT_FITS = {
    "linear_inversion": lambda recs: linear_inversion(recs),
    "solve_vqt": lambda recs: solve_vqt(EstimationProblem(tuple(recs), None, 4), ANALYTIC).rho_hat,
    "solve_cvqt": lambda recs: solve_cvqt(recs, 4, ANALYTIC).rho_hat,
    "solve_git": lambda recs: solve_git(recs, cached_basis(2, "permutation"), ANALYTIC).rho_hat,
    "solve_maxlik": lambda recs: solve_maxlik(recs).rho_hat,
}


def zz_only_records():
    hists = sample_state(werner_exact(0.51), ["ZZ"], None)
    return extract_frequencies(hists, ["ZZ", "ZI", "IZ", "II"])


@pytest.mark.parametrize("fit", sorted(RANK_DEFICIENT_FITS))
def test_linear_inversion_warns_when_rank_deficient(fit):
    with pytest.warns(UserWarning, match="rank deficient"):
        est = RANK_DEFICIENT_FITS[fit](zz_only_records())
    assert np.isclose(np.trace(est).real, 1.0)


@pytest.mark.parametrize("fit", sorted(RANK_DEFICIENT_FITS))
def test_rank_warning_points_at_the_caller(fit):
    # a filter on the caller's module must catch it, so it may not land in the library
    recs = zz_only_records()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        RANK_DEFICIENT_FITS[fit](recs)
    rank = [w for w in caught if "rank deficient" in str(w.message)]
    assert rank
    assert all(w.filename == __file__ for w in rank)


def test_full_rank_pooled_data_do_not_warn():
    basis = cached_basis(2, "permutation")
    recs = analytic_records(projector(ghz_state(2, theta=0.4)), 2, pi_mode=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        linear_inversion(recs, basis=basis)
        solve_git(recs, basis, ANALYTIC)


@pytest.mark.parametrize("spec", [SymmetrySpec.collective(1), SymmetrySpec.custom_unitaries([PAULI_X, PAULI_Z])],
                         ids=["collective", "custom"])
def test_a_one_element_space_solves_to_the_maximally_mixed_state(spec):
    # the identity alone spans the space, so I/2 is its only unit-trace state
    basis = compute_commutant_basis(spec)
    assert basis.size == 1
    recs = extract_frequencies(sample_state(projector(ghz_state(1)), full_settings(1), 100, seed=1), ["X", "Y", "Z"])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = solve_git(recs, basis)
        estimate = linear_inversion(recs, basis)
    assert result.converged and result.iterations == 0
    assert np.abs(result.rho_hat - np.eye(2) / 2).max() <= 1e-15
    assert np.abs(estimate - np.eye(2) / 2).max() <= 1e-15


# ---------------------------------------------------------------------------
# symmetric variational estimator (exact data)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("theta", [0.0, 1.234])
def test_git_analytic_ghz(theta):
    rho = projector(ghz_state(2, theta=theta))
    basis = compute_commutant_basis(SymmetrySpec.permutation(2))
    recs = analytic_records(rho, 2, pi_mode=True)
    result = solve_git(recs, basis, ANALYTIC)
    truth = linear_inversion(recs, basis=basis)
    assert fidelity(result.rho_hat, truth) >= 1.0 - 1e-6
    assert result.mode == "git"
    assert result.feasibility_residual < 1e-8


def test_git_analytic_werner():
    rho = werner_exact(0.51)
    basis = compute_commutant_basis(SymmetrySpec.collective(2))
    recs = analytic_records(rho, 2, pi_mode=True)
    result = solve_git(recs, basis, ANALYTIC)
    assert fidelity(result.rho_hat, rho) >= 0.999


def test_git_maximally_mixed():
    rho = np.eye(4) / 4.0
    basis = compute_commutant_basis(SymmetrySpec.permutation(2))
    recs = analytic_records(rho, 2, pi_mode=True)
    result = solve_git(recs, basis, ANALYTIC)
    assert np.allclose(result.rho_hat, rho, atol=1e-4)


def test_gamma_barrier_keeps_full_rank():
    rho = projector(ghz_state(2))
    basis = compute_commutant_basis(SymmetrySpec.permutation(2))
    recs = analytic_records(rho, 2, pi_mode=True)
    result = solve_git(recs, basis, EstimatorConfig(gamma=1e-3))
    evals = np.linalg.eigvalsh(result.rho_hat)
    assert evals.min() > 0.0
    # ... while still sitting close to the target
    assert fidelity(result.rho_hat, rho) > 0.99


@pytest.mark.parametrize("mode", ["git", "cvqt"])
def test_seed_and_restarts_leave_the_solve_unchanged(mode):
    # the program is convex: every solve is one barrier Newton solve from I/d,
    # so the accepted-but-ignored seed and restarts fields change nothing
    rho = depolarize_all(projector(ghz_state(2, theta=0.4)), 0.1)
    if mode == "git":
        basis = cached_basis(2, "permutation")
        hists = sample_state(rho, pi_settings(2), 512, seed=5)
        recs = extract_frequencies(hists, pi_observables(2), pi_mode=True)
        solve = lambda cfg: solve_git(recs, basis, cfg)  # noqa: E731
    else:
        hists = sample_state(rho, full_settings(2), 512, seed=5)
        recs = extract_frequencies(hists, full_observables(2))
        solve = lambda cfg: solve_cvqt(recs, 4, cfg)  # noqa: E731
    first, *others = [solve(EstimatorConfig(seed=seed, restarts=restarts))
                      for seed in (0, 99) for restarts in (0, 3)]
    for other in others:
        assert np.array_equal(other.rho_hat, first.rho_hat)
        assert other.objective == first.objective
        assert other.iterations == first.iterations


@pytest.mark.parametrize(
    "rho, spec, pi_mode",
    [
        (depolarize_all(projector(ghz_state(5)), 0.05), SymmetrySpec.permutation(5), True),
        (depolarize_all(projector(ghz_state(3)), 0.05), SymmetrySpec.collective(3), False),
        (depolarize_all(projector(ghz_state(4, theta=0.7)), 0.05), SymmetrySpec.collective(4), False),
    ],
    ids=["permutation-5", "collective-3", "collective-4"],
)
def test_git_exact_data_recovery_beyond_acceptance_grid(rho, spec, pi_mode):
    basis = compute_commutant_basis(spec)
    rho = symmetrize(rho, basis)  # the twirl onto the algebra; a no-op for permutations
    recs = analytic_records(rho, spec.n_qubits, pi_mode=pi_mode)
    result = solve_git(recs, basis, ANALYTIC)
    assert fidelity(result.rho_hat, rho) >= 1.0 - 1e-6


# ---------------------------------------------------------------------------
# block-compressed log det against the dense one
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def cached_basis(n, kind):
    return compute_commutant_basis(SymmetrySpec(n, kind))


def full_space(n):
    """The elements cvqt and maxlik solve over on n qubits."""
    return _block_matrix_units(_one_block(2**n))


def test_full_space_build_peaks_near_its_result():
    tracemalloc.start()
    try:
        elements = _block_matrix_units(_one_block(32))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * elements.nbytes


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_permuted_strings_share_a_permutation_design_row(data):
    # why a pooled record may stand for its canonical string
    n = data.draw(st.integers(1, 4))
    ops = data.draw(st.text("IXYZ", min_size=n, max_size=n))
    space = _search_space(cached_basis(n, "permutation"), 2**n)
    rows, _, _ = _record_rows([ObservableRecord("".join(p), 0.5)
                               for p in itertools.permutations(ops)], space)
    assert np.allclose(rows, rows[0], rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("n, kind", [(n, "permutation") for n in range(2, 7)] + [(2, None), (3, None)])
def test_design_matrix_is_the_real_part_of_the_complex_product(n, kind):
    basis = None if kind is None else cached_basis(n, kind)
    elements = full_space(n) if kind is None else basis.elements
    strings = pi_observables(n) if kind else full_observables(n)
    proj = _observable_projectors(strings)
    want = np.real(np.conj(proj.reshape(len(proj), -1)) @ elements.reshape(len(elements), -1).T)
    assert np.abs(_search_space(basis, 2**n).rows(strings) - want).max() <= 1e-13


ROW_QUBITS = {"permutation": (1, 5), "collective": (2, 5), "full": (1, 3)}


def space_blocks(kind, n):
    return _one_block(2**n) if kind == "full" else cached_basis(n, kind).blocks


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_block_rows_equal_the_dense_rows(data):
    # rows from the blocks, grouped by identity slots, against the dense
    # projectors times the dense elements
    kind = data.draw(st.sampled_from(sorted(ROW_QUBITS)))
    n = data.draw(st.integers(*ROW_QUBITS[kind]))
    strings = data.draw(st.lists(st.text("IXYZ", min_size=n, max_size=n), min_size=1, max_size=12))
    blocks = space_blocks(kind, n)
    elements = _block_matrix_units(blocks)
    proj = _observable_projectors(strings)
    want = np.real(np.conj(proj.reshape(len(proj), -1)) @ elements.reshape(len(elements), -1).T)
    assert np.abs(_unit_rows(strings, blocks) - want).max() <= 1e-12


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(["permutation", "collective", "full", "custom"]), n=st.integers(2, 4),
       seed=st.integers(0, 2**32 - 1))
def test_the_state_assembled_from_the_blocks_is_the_dense_sum(kind, n, seed):
    if kind == "full":
        basis, elements = None, full_space(n)
    elif kind == "custom":  # given by its elements: the full space's units composed with its coordinates
        basis = compute_commutant_basis(SymmetrySpec.custom_unitaries([np.eye(4)[[0, 2, 1, 3]]]))
        n, elements = 2, basis.elements
    else:
        basis = cached_basis(n, kind)
        elements = basis.elements
    c = np.random.default_rng(seed).standard_normal(len(elements))
    want = np.einsum("i,iab->ab", c, elements)
    got = _search_space(basis, 2**n).state(c)
    assert np.abs(got - 0.5 * (want + want.conj().T)).max() <= 1e-12


def test_linear_inversion_at_eight_qubits_forms_no_dense_stack():
    # the 165 dense elements and the 165 record projectors would take 173 MB each
    n = 8
    basis = compute_commutant_basis(SymmetrySpec.permutation(n))
    rho = projector(ghz_state(n))
    recs = analytic_records(rho, n, pi_mode=True)
    tracemalloc.start()
    try:
        est = linear_inversion(recs, basis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 256e6
    assert "elements" not in vars(basis)  # the solve did not form the lazy dense elements
    assert np.abs(est - rho).max() <= 1e-9


def block_maps(basis):
    # base 0 and tangent I: the maps act on the coefficients c themselves
    r = basis.size
    return _BlockMaps.of(_search_space(basis, basis.dim), np.zeros(r), np.eye(r))


def dense_state(c, elements):
    return np.einsum("i,iab->ab", c, elements)


def assert_logdet_derivatives_match_dense(basis, c):
    """Block log det, gradient and Hessian at exp(sum_i c_i S_i) against dense ones."""
    maps = block_maps(basis)
    elements = basis.elements
    # multiplicity-weighted spectral sums are the full-space ones
    vals, _, mult = maps.spectrum(c)
    w, v = np.linalg.eigh(dense_state(c, elements))
    assert np.isclose(mult @ vals, w.sum(), atol=1e-10)
    assert np.isclose(mult @ vals**2, (w**2).sum(), atol=1e-10)
    # a full-rank state of the algebra: exp of the member, normalized (I/d at c = 0)
    rho = (v * np.exp(w)) @ v.conj().T
    rho /= np.trace(rho).real
    coeff = np.real(np.einsum("iab,ab->i", elements.conj(), rho))
    vals, vecs, mult = maps.spectrum(coeff)
    inv_s = np.linalg.inv(rho) @ elements  # rho^-1 S_i
    gradient = np.real(np.einsum("iaa->i", inv_s))
    hessian = np.real(np.einsum("iab,jba->ij", inv_s, inv_s))
    assert np.isclose(mult @ np.log(vals), np.linalg.slogdet(rho)[1], atol=1e-9)
    assert np.abs(maps.coefficients(1.0 / vals, vecs, maps.column_mult) - gradient).max() <= 1e-9 * max(
        1.0, np.abs(gradient).max())
    assert np.abs(maps.logdet_hessian(vals, vecs, maps.column_mult) - hessian).max() <= 1e-9 * max(
        1.0, np.abs(hessian).max())


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(2, 5),
    kind=st.sampled_from(["permutation", "collective"]),
    seed=st.integers(0, 2**32 - 1),
    scale=st.sampled_from([0.0, 0.3, 1.0]),
)
def test_block_logdet_derivatives_match_dense(n, kind, seed, scale):
    basis = cached_basis(n, kind)
    c = scale * np.random.default_rng(seed).standard_normal(basis.size)
    assert_logdet_derivatives_match_dense(basis, c)


def test_block_logdet_custom_kind_matches_dense():
    basis = compute_commutant_basis(SymmetrySpec.custom_unitaries([np.eye(4)[[0, 2, 1, 3]]]))
    for c in (np.zeros(basis.size), np.random.default_rng(3).standard_normal(basis.size)):
        assert_logdet_derivatives_match_dense(basis, c)


@lru_cache(maxsize=None)
def coefficient_maps(kind, n):
    """Block maps acting on the coefficients themselves, and the dense elements they stand for."""
    basis = None if kind == "full" else cached_basis(n, kind)
    elements = full_space(n) if basis is None else basis.elements
    r = len(elements)
    return _BlockMaps.of(_search_space(basis, 2**n), np.zeros(r), np.eye(r)), elements


def positive_member(elements, rng):
    """exp of a random member of the algebra, its spectrum scaled into [-1, 1]: condition <= e^2."""
    w, v = np.linalg.eigh(dense_state(rng.standard_normal(len(elements)), elements))
    return (v * np.exp(w / np.abs(w).max())) @ v.conj().T


def coefficients_of(rho, elements):
    return np.real(np.einsum("iab,ab->i", elements.conj(), rho))


def interior_point(elements, rng):
    """The coefficients of a random full-rank unit-trace state of the algebra."""
    rho = positive_member(elements, rng)
    return coefficients_of(rho / np.trace(rho).real, elements)


def central_differences(f, c, h):
    """Gradient and Hessian of f at c by central differences with step h."""
    e = h * np.eye(c.size)
    grad = np.array([f(c + ei) - f(c - ei) for ei in e]) / (2.0 * h)
    hess = np.empty((c.size, c.size))
    for i, j in itertools.combinations_with_replacement(range(c.size), 2):
        hess[i, j] = hess[j, i] = (f(c + e[i] + e[j]) - f(c + e[i] - e[j])
                                   - f(c - e[i] + e[j]) + f(c - e[i] - e[j])) / (4.0 * h * h)
    return grad, hess


@settings(max_examples=24, deadline=None)
@given(
    n=st.integers(2, 4),
    kind=st.sampled_from(["permutation", "collective"]),
    gamma=st.sampled_from([0.0, 1e-3]),
    mu=st.sampled_from([1.0, 1e-6]),
    seed=st.integers(0, 2**32 - 1),
)
def test_barrier_weighted_logdet_derivatives_match_finite_differences(n, kind, gamma, mu, seed):
    # the barrier's weight gamma * mult + mu: one log det per block beside gamma log det rho
    maps, elements = coefficient_maps(kind, n)
    c = interior_point(elements, np.random.default_rng(seed))
    weight = gamma * maps.column_mult + mu

    def weighted_logdet(x):  # sum_k w_k log lambda_k, w_k = sum_j weight_j |U_jk|^2
        vals, vecs, _ = maps.spectrum(x)
        return (weight @ (vecs * vecs.conj()).real) @ np.log(vals)

    vals, vecs, _ = maps.spectrum(c)
    # Richardson's combination of steps h and 2h cancels the h^2 error of both
    h = 1e-3 * vals[0]
    (g1, h1), (g2, h2) = (central_differences(weighted_logdet, c, step) for step in (h, 2 * h))
    gradient, hessian = (4.0 * g1 - g2) / 3.0, (4.0 * h1 - h2) / 3.0
    got = maps.coefficients(1.0 / vals, vecs, weight)
    assert np.abs(got - gradient).max() <= 1e-6 * np.abs(gradient).max()
    # logdet_hessian is the Hessian of minus the sum, the barrier's sign
    got = maps.logdet_hessian(vals, vecs, weight)
    assert np.abs(got + hessian).max() <= 1e-6 * np.abs(hessian).max()


def centring_setup(kind, n, likelihood, gamma):
    """A data term on sampled noisy GHZ records, its block maps and trace frame, as ``_estimate`` builds them."""
    basis = None if kind == "full" else cached_basis(n, kind)
    records = noisy_ghz_records(n, 0.05, 1, False) if kind == "full" else git_records(n, kind)
    space = _search_space(basis, 2**n)
    design, freq, unmeasured_row = _record_rows(records, space)
    traces = space.traces()
    base, tangent = _trace_frame(traces)
    if likelihood:
        term = _Likelihood.of(design, freq, traces)
    else:
        slope = 1.0 / np.maximum(np.abs(freq), EstimatorConfig().frequency_floor)
        term = _RelativeError(np.vstack([design, unmeasured_row]), freq, slope, 1.0, gamma)
    return term, _BlockMaps.of(space, base, tangent), base, tangent


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(2, 4),
    kind=st.sampled_from(["permutation", "collective", "full"]),
    likelihood=st.booleans(),
    gamma=st.sampled_from([0.0, 1e-3]),
    mu=st.sampled_from([1.0, 1e-3, 1e-6]),
    seed=st.integers(0, 2**32 - 1),
)
def test_the_predictor_derivative_is_the_mu_derivative_of_the_centring_gradient(n, kind, likelihood, gamma, mu,
                                                                               seed):
    # the predictor between barrier stages follows dz/dmu = -H^-1 d/dmu grad
    term, maps, base, tangent = centring_setup(kind, n, likelihood, gamma)
    design = term.design @ tangent
    # c - base keeps the trace, so it is P z for the orthonormal P
    z = tangent.T @ (interior_point(coefficient_maps(kind, n)[1], np.random.default_rng(seed)) - base)
    pred, spectrum = term.design @ base + design @ z, maps.spectrum(z)

    def gradient(m):
        return _centring_derivatives(term, maps, design, pred, spectrum, m)[0]

    # Richardson's combination of steps h and 2h cancels the h^2 error of both
    h = 1e-3 * mu
    d1, d2 = ((gradient(mu + step) - gradient(mu - step)) / (2.0 * step) for step in (h, 2 * h))
    want = (4.0 * d1 - d2) / 3.0
    got = _path_derivative(term, maps, design, pred, spectrum, mu)
    assert np.abs(got - want).max() <= 1e-6 * np.abs(want).max()


# ---------------------------------------------------------------------------
# the trace-one frame and the Newton step in it
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "elements",
    [pytest.param(lambda n=n: cached_basis(n, "permutation").elements, id=f"permutation-{n}")
     for n in (2, 3, 4, 5)]
    + [pytest.param(lambda n=n: cached_basis(n, "collective").elements, id=f"collective-{n}")
       for n in (2, 3, 4)]
    # the full space, which the Pauli strings span
    + [pytest.param(lambda n=n: full_space(n), id=f"pauli-{n}") for n in (1, 2, 3)]
    + [pytest.param(lambda: compute_commutant_basis(
        SymmetrySpec.custom_unitaries([np.eye(4)[[0, 2, 1, 3]]])).elements, id="custom")],
)
def test_trace_frame_spans_the_unit_trace_states(elements):
    elements = elements()
    traces = np.real(np.trace(elements, axis1=1, axis2=2))
    base, tangent = _trace_frame(traces)
    r, d = len(elements), elements.shape[1]
    assert tangent.shape == (r, r - 1)
    assert np.abs(tangent.T @ tangent - np.eye(r - 1)).max() <= 1e-14
    assert np.abs(traces @ tangent).max() <= 1e-14
    assert np.abs(np.einsum("i,iab->ab", base, elements) - np.eye(d) / d).max() <= 1e-12


@settings(max_examples=30)
@given(r=st.integers(2, 30), seed=st.integers(0, 2**32 - 1))
def test_newton_direction_solves_the_newton_system(r, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((r, r))
    hess = a @ a.T / r + 0.1 * np.eye(r)
    grad = rng.standard_normal(r)
    step = _newton_direction(hess, grad)
    want = np.linalg.solve(hess, -grad)
    assert np.linalg.norm(step - want) <= 1e-9 * np.linalg.norm(want)


@settings(max_examples=30)
@given(r=st.integers(10, 30), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_newton_direction_on_a_singular_hessian_descends(r, seed, data):
    # rank at most r/2: Cholesky fails and the eigh branch runs
    rank = data.draw(st.integers(1, r // 2))
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((r, rank))
    grad = rng.standard_normal(r)
    step = _newton_direction(a @ a.T, grad)
    assert np.all(np.isfinite(step))
    assert grad @ step < 0.0


# ---------------------------------------------------------------------------
# the solve against an independent optimality certificate
# ---------------------------------------------------------------------------

def dense_simplex(vals):
    """Euclidean projection onto the probability simplex, by sorting."""
    srt = np.sort(vals)[::-1]
    cumsum = np.cumsum(srt) - 1.0
    ks = np.arange(1, vals.size + 1)
    k = ks[srt - cumsum / ks > 0][-1]
    return np.clip(vals - cumsum[k - 1] / k, 0.0, None)


def chambolle_pock_bound(records, elements, target, max_iterations=200_000):
    """Best weak-duality lower bound on min sum_m a_m |D c - f|_m over states.

    Chambolle-Pock on min_c F(D c) + G(c), G the indicator of the density
    matrices spanned by ``elements``.  Every dual iterate y has |y| <= a,
    so -y.f + lambda_min(sum_i (D^T y)_i S_i) bounds the optimum from below.
    Stops once the bound is within reach of ``target``.
    """
    freq = np.array([r.frequency for r in records])
    weight = 1.0 / np.maximum(np.abs(freq), EstimatorConfig().frequency_floor)
    proj = np.stack([r.projector for r in records])
    design = np.real(np.einsum("mab,iab->mi", proj.conj(), elements))
    step = 0.99 / np.linalg.norm(design, 2)
    c = np.real(np.einsum("iaa->i", elements)) / elements.shape[1]
    c_bar, y = c.copy(), np.zeros(freq.size)
    best = -np.inf
    for _ in range(max_iterations):
        y = np.clip(y + step * (design @ c_bar - freq), -weight, weight)
        dual = design.T @ y
        best = max(best, -y @ freq + np.linalg.eigvalsh(dense_state(dual, elements))[0])
        if best >= target:
            break
        vals, vecs = np.linalg.eigh(dense_state(c - step * dual, elements))
        rho = (vecs * dense_simplex(vals)) @ vecs.conj().T
        c_next = np.real(np.einsum("iab,ab->i", elements.conj(), rho))
        c_bar, c = 2.0 * c_next - c, c_next
    return best


@pytest.mark.parametrize("mode", ["git", "cvqt"])
def test_objective_meets_an_independent_dual_bound(mode):
    rho = depolarize_all(projector(ghz_state(2)), 0.02)
    if mode == "git":
        hists = sample_state(rho, pi_settings(2), 256, seed=0)
        recs = extract_frequencies(hists, pi_observables(2), pi_mode=True)
        elements = cached_basis(2, "permutation").elements
        result = solve_git(recs, cached_basis(2, "permutation"), ANALYTIC)
    else:
        hists = sample_state(rho, full_settings(2), 256, seed=0)
        recs = extract_frequencies(hists, full_observables(2))
        elements = full_space(2)
        result = solve_cvqt(recs, 4, ANALYTIC)
    # a zero frequency weighs 1/eps and would stall the reference
    assert all(r.frequency > 0.0 for r in recs)
    tol = 1e-7 * max(1.0, result.objective)
    bound = chambolle_pock_bound(recs, elements, result.objective - tol)
    assert result.converged
    assert bound <= result.objective + 1e-12
    assert result.objective - bound <= tol


def test_converged_is_honest():
    rho = depolarize_all(projector(ghz_state(3)), 0.05)
    hists = sample_state(rho, pi_settings(3), 4096, seed=7)
    recs = extract_frequencies(hists, pi_observables(3), pi_mode=True)
    result = solve_git(recs, cached_basis(3, "permutation"), EstimatorConfig(max_iterations=5))
    assert not result.converged
    assert result.iterations == 5
    assert np.isclose(np.trace(result.rho_hat).real, 1.0, atol=1e-12)
    assert np.linalg.eigvalsh(result.rho_hat).min() > 0.0


@settings(max_examples=40, deadline=None)
@given(
    mode=st.sampled_from(["git", "cvqt", "maxlik"]),
    seed=st.integers(0, 4),
    cap=st.integers(0, 40),
)
def test_the_iteration_cap_holds_with_the_predictor_steps(mode, seed, cap):
    # a predictor step between stages counts as a Newton step
    full = solve_noisy_ghz(mode, 3, 0.05, seed, ANALYTIC)
    capped = solve_noisy_ghz(mode, 3, 0.05, seed, EstimatorConfig(gamma=0.0, max_iterations=cap))
    assert full.converged and capped.iterations <= cap
    if cap < full.iterations:  # the capped solve retraces the full one until its cap stops it
        assert (capped.iterations, capped.converged) == (cap, False)
    else:
        assert (capped.iterations, capped.converged, capped.objective) == (
            full.iterations, True, full.objective)


@pytest.mark.parametrize("kind", ["permutation", "collective", "full"])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_feasibility_residual_is_read_from_the_block_spectrum(n, kind, monkeypatch):
    # the solve's last block spectrum is rho's, and its traces give tr(rho)
    returned = []
    solve = estimation._barrier_newton

    def kept(*args):
        returned.append(solve(*args))
        return returned[-1]

    monkeypatch.setattr(estimation, "_barrier_newton", kept)
    if kind == "full":
        result = solve_cvqt(noisy_ghz_records(n, 0.05, 1, False), 2**n, EstimatorConfig())
    else:
        result = solve_git(git_records(n, kind), cached_basis(n, kind), EstimatorConfig())
    dense = np.linalg.eigvalsh(result.rho_hat)
    assert abs(returned[0][-1] - dense[0]) <= 1e-12
    want = max(abs(np.trace(result.rho_hat).real - 1.0), -dense[0], 0.0)
    assert abs(result.feasibility_residual - want) <= 1e-12


@pytest.mark.parametrize("gamma", [0.0, 1e-3])
@pytest.mark.parametrize("n", [3, 4, 5])
def test_default_solve_converges_on_pooled_data(n, gamma):
    rho = depolarize_all(projector(ghz_state(n)), 0.05)
    hists = sample_state(rho, pi_settings(n), 4096, seed=n)
    recs = extract_frequencies(hists, pi_observables(n), pi_mode=True)
    result = solve_git(recs, cached_basis(n, "permutation"), EstimatorConfig(gamma=gamma))
    assert result.converged
    assert result.iterations < EstimatorConfig().max_iterations


@pytest.mark.parametrize("gamma", [0.0, 1e-3])
@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_pooled_git_newton_steps_stay_flat_in_n(n, gamma):
    # one log det per block: the barrier's parameter is s, the sum of the
    # block sizes (25 at n = 8), not d = 256, so the steps need not grow with d
    result = solve_git(git_records(n, "permutation"), cached_basis(n, "permutation"),
                       EstimatorConfig(gamma=gamma))
    assert result.converged
    assert result.iterations <= 100


@lru_cache(maxsize=None)
def git_records(n, kind):
    """Sampled noisy GHZ records of the git plan for a built-in algebra: pooled for permutations."""
    settings_ = pi_settings(n) if kind == "permutation" else full_settings(n)
    measured, _, pooled = record_plan("git", kind, settings_)
    hists = sample_state(depolarize_all(projector(ghz_state(n)), 0.05), settings_, 4096, seed=1)
    return tuple(extract_frequencies(hists, measured, pi_mode=pooled))


@lru_cache(maxsize=None)
def built_git_objective(n, kind, gamma):
    result = solve_git(git_records(n, kind), cached_basis(n, kind), EstimatorConfig(gamma=gamma))
    assert result.converged
    return result.objective


@settings(max_examples=20, deadline=None)
@given(
    n=st.sampled_from([2, 3]),
    algebra=st.sampled_from(["permutation", "collective"]),
    label=st.sampled_from(["permutation", "collective"]),
    gamma=st.sampled_from([0.0, 1e-3]),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=3, algebra="permutation", label="collective", gamma=0.0, seed=0)
@example(n=3, algebra="collective", label="permutation", gamma=0.0, seed=0)
def test_a_hand_built_basis_solves_whatever_its_label(n, algebra, label, gamma, seed):
    # a basis given by its elements alone takes the dense route: its kind
    # label names no block structure the solver could trust
    built = cached_basis(n, algebra)
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((built.size, built.size)))
    basis = SymmetricBasis(n, label, np.einsum("ij,jab->iab", q, built.elements))
    result = solve_git(git_records(n, algebra), basis, EstimatorConfig(gamma=gamma))
    assert_density_matrix(result.rho_hat)
    want = built_git_objective(n, algebra, gamma)
    assert abs(result.objective - want) <= 1e-8 * max(1.0, abs(want))


def relative_error_objective(records, rho, floor=1e-6):
    """The alpha = beta = 1, gamma = 0 objective of rho, from the dense record projectors."""
    total = 0.0
    for rec in records:
        p = float(np.real(np.vdot(rec.projector, rho)))
        total += abs(p - rec.frequency) / max(abs(rec.frequency), floor) if rec.measured else p
    return total


def test_pure_state_solve_is_centred_before_it_converges():
    # test_04's level-0 data at n = 2, rep 9: a least-squares step that
    # truncated the ill-conditioned directions once certified 0.05381 here
    hists = sample_state(projector(ghz_state(2)), full_settings(2), 4096, seed=1009)
    recs = extract_frequencies(hists, pi_observables(2), pi_mode=True)
    result = solve_git(recs, cached_basis(2, "permutation"), ANALYTIC)
    assert_density_matrix(result.rho_hat)
    assert relative_error_objective(recs, result.rho_hat) <= 0.05340


def test_line_search_stops_when_the_value_stops_falling():
    # test_05's level-0 cvqt solve at n = 3, rep 7: once the steps fall below
    # roundoff, a trial of equal value must not count as a decrease
    hists = sample_state(projector(ghz_state(3)), full_settings(3), 4096, seed=2007)
    result = solve_cvqt(extract_frequencies(hists, full_observables(3)), 8, ANALYTIC)
    assert result.iterations <= 200
    assert_density_matrix(result.rho_hat)


@pytest.mark.parametrize("seed, attained", [
    (2007, 0.8098413514),  # the data above: an absolute centring test alone certified 0.8098424254
    (2000, 0.7539531823),  # test_05's rep 0: an absolute test on the last stage alone certified 0.7539556357
    (1003, 0.8687625640),  # test_04's rep 3: ... and 0.8687638062
])
def test_the_last_stage_is_centred_relative_to_mu_before_it_converges(seed, attained):
    # level-0 cvqt solves at n = 3 that some solve has taken to ``attained``:
    # the last stage's gap bound holds only at a Newton decrement well below
    # mu, so a certificate short of that point is false
    hists = sample_state(projector(ghz_state(3)), full_settings(3), 4096, seed=seed)
    result = solve_cvqt(extract_frequencies(hists, full_observables(3)), 8, ANALYTIC)
    assert not result.converged or result.objective <= attained * (1 + 1e-8)


@lru_cache(maxsize=None)
def noisy_ghz_records(n, level, seed, pooled):
    """Noisy GHZ records from all 3^n settings, 4096 shots: pooled ``pi`` records, or full records."""
    hists = sample_state(depolarize_all(projector(ghz_state(n)), level), full_settings(n), 4096, seed=seed)
    if pooled:
        return tuple(extract_frequencies(hists, pi_observables(n), pi_mode=True))
    return tuple(extract_frequencies(hists, full_observables(n)))


def solve_noisy_ghz(mode, n, level, seed, config):
    if mode == "git":
        return solve_git(noisy_ghz_records(n, level, seed, True), cached_basis(n, "permutation"), config)
    recs = noisy_ghz_records(n, level, seed, False)
    return solve_cvqt(recs, 2**n, config) if mode == "cvqt" else solve_maxlik(recs, config)


@settings(max_examples=20, deadline=None)
@given(
    n=st.sampled_from([2, 3]),
    mode=st.sampled_from(["git", "cvqt", "maxlik"]),
    gamma=st.sampled_from([0.0, 1e-3]),
    level=st.floats(0.05, 0.3),
    seed=st.integers(0, 2**32 - 1),
)
def test_the_optimum_does_not_depend_on_how_tightly_stages_are_centred(n, mode, gamma, level, seed):
    config = EstimatorConfig(gamma=gamma)
    loose = solve_noisy_ghz(mode, n, level, seed, config)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(estimation, "_CENTRED_PER_MU", 1e-3)
        tight = solve_noisy_ghz(mode, n, level, seed, config)
    assert loose.converged and tight.converged
    assert abs(loose.objective - tight.objective) <= 1e-8 * max(1.0, abs(tight.objective))


@pytest.mark.parametrize("seed", range(5))
def test_full_space_solves_take_few_newton_steps(seed):
    # each stage is centred only as far as the next one needs: an absolute
    # test that polished every stage to 1e-9 took 115-131 steps on these data
    steps = sum(solve_noisy_ghz(mode, 3, 0.05, seed, ANALYTIC).iterations
                for mode in ("git", "cvqt", "maxlik"))
    assert steps <= 110


@pytest.mark.parametrize("seed", range(5))
def test_a_predictor_step_between_stages_saves_newton_steps(seed):
    # the same data: starting each stage at the last one's centre took 82-101 steps
    steps = sum(solve_noisy_ghz(mode, 3, 0.05, seed, ANALYTIC).iterations
                for mode in ("git", "cvqt", "maxlik"))
    assert steps <= 92


# ---------------------------------------------------------------------------
# full-space variational estimator
# ---------------------------------------------------------------------------

def pauli_elements(n):
    """The full space as the Pauli strings scaled by 1/sqrt(d), an orthonormal basis built independently."""
    strings = ["".join(p) for p in itertools.product("IXYZ", repeat=n)]
    return np.array([pauli_string(s) for s in strings]) / np.sqrt(2.0**n)


def noisy_complete_records(n):
    rho = depolarize_all(projector(ghz_state(n, theta=0.3)), 0.05)
    return extract_frequencies(sample_state(rho, full_settings(n), 4096, seed=n), full_observables(n))


FULL_SPACE_SOLVES = {
    "cvqt-0": ("cvqt", ANALYTIC),
    "cvqt-1e-3": ("cvqt", EstimatorConfig(gamma=1e-3)),
    "maxlik": ("maxlik", EstimatorConfig()),
}


@pytest.mark.parametrize("solve", sorted(FULL_SPACE_SOLVES))
@pytest.mark.parametrize("n", [2, 3])
def test_full_space_solves_match_a_pauli_basis_oracle(n, solve):
    # Newton's method does not depend on the basis it runs in, so the matrix
    # units and the scaled Pauli strings take the same steps to the same state
    recs, d = noisy_complete_records(n), 2**n
    mode, config = FULL_SPACE_SOLVES[solve]
    got = solve_cvqt(recs, d, config) if mode == "cvqt" else solve_maxlik(recs, config)
    pauli = SymmetricBasis(n, "custom_unitaries", pauli_elements(n))
    want = _estimate(tuple(recs), _search_space(pauli, d), config, mode)
    assert (got.iterations, got.converged) == (want.iterations, want.converged)
    assert abs(got.objective - want.objective) <= 1e-9 * max(1.0, abs(want.objective))
    assert np.abs(got.rho_hat - want.rho_hat).max() <= 1e-8


@pytest.mark.parametrize("n", [2, 3])
def test_full_space_linear_inversion_matches_a_pauli_basis_oracle(n):
    recs, elements = noisy_complete_records(n), pauli_elements(n)
    proj = _observable_projectors([r.ops for r in recs])
    design = np.real(np.conj(proj.reshape(len(proj), -1)) @ elements.reshape(len(elements), -1).T)
    freq = np.array([r.frequency for r in recs])
    traces = np.real(np.trace(elements, axis1=1, axis2=2))
    want = dense_state(_trace_one_lstsq(design, freq, traces), elements)
    assert np.abs(linear_inversion(recs) - 0.5 * (want + want.conj().T)).max() <= 1e-12


@pytest.mark.parametrize("fit", [lambda recs: solve_cvqt(recs, 2**7), solve_maxlik, linear_inversion],
                         ids=["cvqt", "maxlik", "linv"])
def test_full_space_stops_at_six_qubits(fit):
    recs = [ObservableRecord("ZZZZZZZ", 0.5), ObservableRecord("XXXXXXX", 0.5)]
    with pytest.raises(ValueError, match="practical up to 6 qubits"):
        fit(recs)


def test_cvqt_analytic_ghz():
    rho = projector(ghz_state(2))
    recs = analytic_records(rho, 2)
    result = solve_cvqt(recs, 4, ANALYTIC)
    assert result.mode == "cvqt"
    assert fidelity(result.rho_hat, rho) >= 1.0 - 1e-5


def test_cvqt_unmeasured_penalty_mechanics():
    # measure only ZZ-type records and penalize mass on an unmeasured plus-type
    rho = projector(np.array([1, 0, 0, 0], dtype=complex))
    hists = sample_state(rho, ["ZZ"], None)
    recs = list(extract_frequencies(hists, ["ZZ", "ZI", "IZ", "II"]))
    penalized = recs + unmeasured_records(["XX"])
    e_xx = unmeasured_records(["XX"])[0].projector

    with pytest.warns(UserWarning, match="rank deficient"):
        off = solve_cvqt(penalized, 4, EstimatorConfig(gamma=0.0, beta=0.0))
    # beta = 0 ignores the unmeasured record entirely; the diagonal data plus
    # positivity pin the state exactly
    assert fidelity(off.rho_hat, rho) > 1.0 - 1e-5

    with pytest.warns(UserWarning, match="rank deficient"):
        on = solve_cvqt(penalized, 4, EstimatorConfig(gamma=0.0, beta=1.0))
    mass_truth = float(np.trace(e_xx @ rho).real)  # 0.25
    mass_found = float(np.trace(e_xx @ on.rho_hat).real)
    # the optimizer trades soft data fit for penalty: it must do at least as
    # well as the true state under the combined objective, by shedding mass
    assert on.objective <= mass_truth + 1e-6
    assert mass_found < mass_truth


@pytest.mark.parametrize("field", [
    {"alpha": 0.0}, {"gamma": -1e-3}, {"objective_tolerance": 0.0},
    # a wrong type or sign must not lift the iteration cap or fail only at solve time
    {"max_iterations": "5"}, {"max_iterations": -1}, {"max_iterations": 2.5},
    {"frequency_floor": "x"}, {"frequency_floor": 0.0}, {"gamma": True}, {"alpha": float("nan")},
    {"beta": "1"}, {"feasibility_tolerance": None}, {"restarts": 1.5}, {"seed": "0"},
    # each was accepted, and then gave a false converged=True or a LinAlgError in the solve
    {"objective_tolerance": float("inf")}, {"frequency_floor": float("inf")}, {"alpha": float("inf")},
    {"beta": -1.0},
])
def test_config_rejects_what_the_barrier_solve_cannot_take(field):
    with pytest.raises(ValueError, match=next(iter(field))):
        EstimatorConfig(**field)


def test_solve_vqt_rejects_empty_measured():
    with pytest.raises((ValueError, IndexError)):
        solve_vqt(EstimationProblem(records=(), basis=None, dim=2), ANALYTIC)


def test_solve_vqt_rejects_a_basis_of_another_dimension():
    recs = analytic_records(projector(ghz_state(3)), 3, pi_mode=True)
    basis = compute_commutant_basis(SymmetrySpec.permutation(3))
    with pytest.raises(ValueError, match="basis dimension 8 does not match dim 4"):
        solve_vqt(EstimationProblem(records=tuple(recs), basis=basis, dim=4), ANALYTIC)


ZZ, XX = pauli_string("ZZ"), pauli_string("XX")


@pytest.mark.parametrize("elements, fault", [
    ([ZZ / 2, (np.eye(4) + XX) / np.sqrt(8)], "do not span the identity"),
    ([ZZ / 2, 1j * ZZ / 2], "not Hermitian"),
    ([ZZ / 2, (ZZ + np.eye(4)) / np.sqrt(8)], "not orthonormal"),
], ids=["no-identity", "not-hermitian", "not-orthonormal"])
def test_a_basis_given_by_its_elements_is_checked_before_a_solve(elements, fault):
    recs = analytic_records(projector(ghz_state(2)), 2, pi_mode=True)
    # Hermitian and orthonormal are checked where the basis is made, the identity where it is solved over
    with pytest.raises(ValueError, match=fault):
        solve_git(recs, SymmetricBasis(2, "permutation", np.array(elements, dtype=complex)), ANALYTIC)


SOLVERS = {
    "git": lambda recs: solve_git(recs, compute_commutant_basis(SymmetrySpec.permutation(2)), ANALYTIC),
    "cvqt": lambda recs: solve_cvqt(recs, 4, ANALYTIC),
    "maxlik": lambda recs: solve_maxlik(recs, ANALYTIC),
    "linv": linear_inversion,
}


@pytest.mark.parametrize("mode", sorted(SOLVERS))
def test_estimators_name_a_record_of_the_wrong_size(mode):
    recs = analytic_records(np.eye(4) / 4, 2)
    with pytest.raises(ValueError, match="observable 'XYZ' does not address 2 qubits"):
        SOLVERS[mode](recs + [ObservableRecord("XYZ", 0.5)])
    if mode in ("git", "cvqt"):  # the estimators that read unmeasured records
        with pytest.raises(ValueError, match="observable 'Z' does not address 2 qubits"):
            SOLVERS[mode](recs + [ObservableRecord("Z")])


def test_zero_frequency_records_are_stable():
    # exact-zero frequencies exercise the eps floor in the relative weights
    rho = projector(np.array([0, 0, 0, 1], dtype=complex))  # |11><11|
    recs = analytic_records(rho, 2)
    assert any(abs(r.frequency) < 1e-15 for r in recs if r.measured)
    result = solve_cvqt(recs, 4, ANALYTIC)
    assert np.isfinite(result.objective)
    assert fidelity(result.rho_hat, rho) > 1.0 - 1e-5


# ---------------------------------------------------------------------------
# maximum likelihood
# ---------------------------------------------------------------------------

def test_maxlik_exact_pure_state():
    rho = projector(np.array([1, 0, 0, 0], dtype=complex))
    recs = analytic_records(rho, 2)
    result = solve_maxlik(recs)
    assert result.mode == "maxlik"
    assert fidelity(result.rho_hat, rho) > 1.0 - 1e-6


def test_maxlik_noisy_sampled_state():
    rho = depolarize_all(projector(ghz_state(2)), 0.1)
    hists = sample_state(rho, full_settings(2), 8192, seed=31)
    recs = extract_frequencies(hists, full_observables(2))
    result = solve_maxlik(recs)
    assert fidelity(result.rho_hat, rho) > 0.98
    evals = np.linalg.eigvalsh(result.rho_hat)
    assert evals.min() > -1e-12


def test_maxlik_warns_under_complete():
    rho = werner_exact(0.51)
    hists = sample_state(rho, ["ZZ"], None)
    recs = extract_frequencies(hists, ["ZZ", "II"])
    with pytest.warns(UserWarning, match="non-unique"):
        solve_maxlik(recs)


def likelihood_gap_bound(records, rho):
    """m (lambda_max(R) - 1): how far any state's log-likelihood can lie above rho's.

    R = (1/m) sum_m [f/p E + (1 - f)/(1 - p) (I - E)] over the m non-identity
    records, p = tr(E rho), is the gradient of the normalized log-likelihood
    and has tr(R rho) = 1, so concavity bounds the gap of
    sum_m [f log p + (1 - f) log(1 - p)] by m (lambda_max(R) - 1)
    (Glancy, Knill & Girard, NJP 14, 095017 (2012)).
    """
    informative = [r for r in records if r.measured and r.ops.strip("I")]
    eye = np.eye(rho.shape[0])
    r_op = 0.0
    for rec in informative:
        p = float(np.real(np.vdot(rec.projector, rho)))
        f = rec.frequency
        r_op = r_op + f / p * rec.projector + (1.0 - f) / (1.0 - p) * (eye - rec.projector)
    m = len(informative)
    return m * (np.linalg.eigvalsh(r_op / m)[-1] - 1.0)


@pytest.mark.parametrize("n", [2, 3])
def test_maxlik_meets_the_likelihood_gap_bound(n):
    rho = depolarize_all(projector(ghz_state(n)), 0.05)
    hists = sample_state(rho, full_settings(n), 4096, seed=n)
    recs = extract_frequencies(hists, full_observables(n))
    result = solve_maxlik(recs)
    gap = likelihood_gap_bound(recs, result.rho_hat)
    assert result.converged
    assert -1e-9 <= gap <= 1e-6 * max(1.0, abs(result.objective))


ESTIMATORS = {
    "git": lambda hists, cfg: solve_git(
        extract_frequencies(hists, pi_observables(2), pi_mode=True),
        cached_basis(2, "permutation"), cfg),
    "cvqt": lambda hists, cfg: solve_cvqt(extract_frequencies(hists, full_observables(2)), 4, cfg),
    "maxlik": lambda hists, cfg: solve_maxlik(extract_frequencies(hists, full_observables(2)), cfg),
}


@settings(max_examples=15)
@given(
    seed=st.integers(0, 2**32 - 1),
    level=st.floats(0.0, 0.5),
    shots=st.sampled_from([16, 256, 4096]),
    gamma=st.sampled_from([0.0, 1e-3]),
)
def test_every_estimator_returns_a_density_matrix(seed, level, shots, gamma):
    rng = np.random.default_rng(seed)
    psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    rho = depolarize_all(projector(psi / np.linalg.norm(psi)), level)
    hists = sample_state(rho, full_settings(2), shots, seed=seed)
    for mode, fit in ESTIMATORS.items():
        est = fit(hists, EstimatorConfig(gamma=gamma)).rho_hat
        assert np.array_equal(est, est.conj().T), mode
        assert abs(np.trace(est).real - 1.0) <= 1e-10, mode
        assert np.linalg.eigvalsh(est)[0] >= 0.0, mode
        fidelity(est, rho)


# ---------------------------------------------------------------------------
# sampled-data fidelity floor (single representative instance)
# ---------------------------------------------------------------------------

def test_git_sampled_ghz3_depolarized():
    rho_ideal = projector(ghz_state(3))
    rho = depolarize_all(rho_ideal, 0.05)
    hists = sample_state(rho, full_settings(3), 10_000, seed=4000)
    recs = extract_frequencies(hists, pi_observables(3), pi_mode=True)
    basis = compute_commutant_basis(SymmetrySpec.permutation(3))
    result = solve_git(recs, basis, ANALYTIC)
    assert fidelity(result.rho_hat, rho) >= 0.98
    assert result.converged


def test_git_and_cvqt_agree_on_shared_data():
    rho = depolarize_all(projector(ghz_state(2)), 0.1)
    hists = sample_state(rho, full_settings(2), 4096, seed=2000)
    git_recs = extract_frequencies(hists, pi_observables(2), pi_mode=True)
    full_recs = extract_frequencies(hists, full_observables(2))
    basis = compute_commutant_basis(SymmetrySpec.permutation(2))
    a = solve_git(git_recs, basis, ANALYTIC)
    b = solve_cvqt(full_recs, 4, ANALYTIC)
    assert fidelity(a.rho_hat, b.rho_hat) >= 0.96


def test_result_delta_matches_definition():
    rho = werner_exact(0.76)
    recs = analytic_records(rho, 2, pi_mode=True)
    basis = compute_commutant_basis(SymmetrySpec.collective(2))
    cfg = EstimatorConfig(gamma=0.0, frequency_floor=1e-6)
    result = solve_git(recs, basis, cfg)
    freq = np.array([r.frequency for r in recs if r.measured])
    proj = np.stack([r.projector for r in recs if r.measured])
    pred = np.real(np.einsum("mab,ab->m", proj.conj(), result.rho_hat))
    want = np.abs(pred - freq) / np.maximum(np.abs(freq), cfg.frequency_floor)
    assert np.allclose(result.delta, want, atol=1e-10)


@pytest.mark.filterwarnings("ignore:measurement map is rank deficient")
def test_manual_records_accepted():
    # records do not have to come from histograms; hand-built ones work too
    result = solve_cvqt([ObservableRecord("Z", 1.0), ObservableRecord("I", 1.0)], 2, ANALYTIC)
    assert fidelity(result.rho_hat, projector(np.array([1.0, 0.0], dtype=complex))) > 0.999
