import numpy as np
import pytest

from symtomo.operators import projector
from symtomo.statesim import ghz_state, werner_exact
from symtomo.metrics import concurrence, fidelity, metric_report, purity, trace_distance


def random_density(rng, d):
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def test_fidelity_pure_states_overlap():
    psi = projector(ghz_state(2))
    phi = projector(np.array([1, 0, 0, 0], dtype=complex))
    # |<00|GHZ>|^2 = 1/2
    assert np.isclose(fidelity(psi, phi), 0.5)
    assert np.isclose(fidelity(psi, phi, convention="sqrt"), np.sqrt(0.5))


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_fidelity_with_a_pure_state_is_its_expectation(n):
    # roundoff eigenvalues of sqrt(rho) sigma sqrt(rho) must not add their square roots
    rng = np.random.default_rng(n)
    for _ in range(5):
        psi, phi = rng.standard_normal((2, 2**n)) + 1j * rng.standard_normal((2, 2**n))
        psi, phi = psi / np.linalg.norm(psi), phi / np.linalg.norm(phi)
        assert abs(fidelity(projector(psi), projector(phi)) - abs(np.vdot(psi, phi)) ** 2) <= 1e-12
        assert abs(fidelity(projector(psi), projector(psi)) - 1.0) <= 1e-12
        mixed = random_density(rng, 2**n)
        assert abs(fidelity(mixed, projector(psi)) - np.vdot(psi, mixed @ psi).real) <= 1e-12


@pytest.mark.parametrize("n", [3, 4, 5])
def test_fidelity_keeps_the_small_products_of_commuting_states(n):
    # rho = U diag(p) U^dag and sigma = U diag(q) U^dag have F = (sum_i sqrt(p_i q_i))^2; with
    # p_i = 1e-12 against q_i = 1e-4, the products of 1e-16 add 1e-8 each to that sum
    rng = np.random.default_rng(n)
    d = 2**n
    u, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    p, q = rng.random(d), rng.random(d)
    p[:2], q[:2] = 1e-12, 1e-4
    p, q = p / p.sum(), q / q.sum()
    rho, sigma = (u * p) @ u.conj().T, (u * q) @ u.conj().T
    assert abs(fidelity(rho, sigma) - np.sqrt(p * q).sum() ** 2) <= 1e-12


def test_fidelity_conventions_relate_by_square():
    rng = np.random.default_rng(5)
    for _ in range(5):
        rho, sigma = random_density(rng, 4), random_density(rng, 4)
        sq = fidelity(rho, sigma)
        rt = fidelity(rho, sigma, convention="sqrt")
        assert np.isclose(sq, rt * rt)
        assert 0.0 <= sq <= 1.0 + 1e-12


def test_fidelity_properties():
    rng = np.random.default_rng(11)
    rho, sigma = random_density(rng, 8), random_density(rng, 8)
    assert np.isclose(fidelity(rho, rho), 1.0)
    assert np.isclose(fidelity(rho, sigma), fidelity(sigma, rho), atol=1e-9)
    with pytest.raises(ValueError):
        fidelity(rho, sigma, convention="bogus")
    with pytest.raises(ValueError):
        fidelity(rho, random_density(rng, 4))


def test_fidelity_rejects_nonstates():
    with pytest.raises(ValueError):
        fidelity(np.eye(2), np.eye(2) / 2)  # trace 2
    bad = np.diag([1.5, -0.5]).astype(complex)
    with pytest.raises(ValueError):
        fidelity(bad, np.eye(2) / 2)


def test_fuchs_van_de_graaf_bounds():
    rng = np.random.default_rng(17)
    for _ in range(20):
        rho, sigma = random_density(rng, 4), random_density(rng, 4)
        f = fidelity(rho, sigma)
        t = trace_distance(rho, sigma)
        assert 1.0 - np.sqrt(f) <= t + 1e-9
        assert t <= np.sqrt(1.0 - f) + 1e-9


def test_trace_distance_extremes():
    zero = projector(np.array([1.0, 0.0], dtype=complex))
    one = projector(np.array([0.0, 1.0], dtype=complex))
    assert np.isclose(trace_distance(zero, one), 1.0)
    assert np.isclose(trace_distance(zero, zero), 0.0)


def test_purity_range():
    assert np.isclose(purity(projector(ghz_state(3))), 1.0)
    assert np.isclose(purity(np.eye(4) / 4.0), 0.25)


@pytest.mark.parametrize("p", [0.0, 1.0 / 3.0, 0.51, 0.76, 1.0])
def test_concurrence_werner_closed_form(p):
    want = max(0.0, (3.0 * p - 1.0) / 2.0)
    assert abs(concurrence(werner_exact(p)) - want) < 1e-6


@pytest.mark.parametrize("theta", [0.0, 0.3, 1.0, 2.2])
def test_concurrence_ghz_pair_is_maximal(theta):
    rho = projector(ghz_state(2, theta=theta))
    assert abs(concurrence(rho) - 1.0) < 1e-6


def test_concurrence_product_state_zero():
    rho = projector(np.array([1, 0, 0, 0], dtype=complex))
    assert abs(concurrence(rho)) < 1e-9


def test_concurrence_rejects_wrong_dimension():
    with pytest.raises(ValueError):
        concurrence(np.eye(8) / 8.0)


def test_metric_report_bundle():
    rho = werner_exact(0.76)
    sigma = werner_exact(0.51)
    rep = metric_report(rho, sigma)
    assert np.isclose(rep.fidelity, fidelity(rho, sigma))
    assert np.isclose(rep.purity, purity(rho))
    assert np.isclose(rep.trace_distance, trace_distance(rho, sigma))
    assert np.isclose(rep.concurrence, concurrence(rho))
    d = rep.to_dict()
    assert set(d) == {"fidelity", "purity", "trace_distance", "concurrence"}


def test_metric_report_concurrence_only_for_two_qubits():
    rho = projector(ghz_state(3))
    rep = metric_report(rho, rho)
    assert rep.concurrence is None
    assert np.isclose(rep.fidelity, 1.0)
