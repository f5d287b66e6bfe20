import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from symtomo.operators import (
    HADAMARD,
    PAULI_I,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    as_matrix,
    assert_density_matrix,
    assert_hermitian,
    assert_pure_state,
    assert_unitary,
    basis_ket,
    eig_hermitian,
    embed_one_qubit,
    hilbert_schmidt_inner,
    hilbert_schmidt_norm,
    load_matrix,
    matrix_from_json,
    matrix_sqrt_psd,
    matrix_to_json,
    num_qubits,
    partial_trace,
    pauli_string,
    projector,
    save_matrix,
    tensor,
)


def random_density(rng, d):
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def test_pauli_algebra():
    assert np.allclose(PAULI_X @ PAULI_X, PAULI_I)
    assert np.allclose(PAULI_Y @ PAULI_Y, PAULI_I)
    assert np.allclose(PAULI_Z @ PAULI_Z, PAULI_I)
    assert np.allclose(PAULI_X @ PAULI_Y, 1j * PAULI_Z)
    assert np.allclose(HADAMARD @ HADAMARD, PAULI_I)
    assert np.allclose(HADAMARD @ PAULI_Z @ HADAMARD, PAULI_X)


def test_as_matrix_rejects_non_square():
    with pytest.raises(ValueError):
        as_matrix(np.zeros(4))
    with pytest.raises(ValueError):
        as_matrix(np.zeros((2, 3)))


def test_num_qubits():
    assert num_qubits(2) == 1
    assert num_qubits(16) == 4
    with pytest.raises(ValueError):
        num_qubits(6)


def test_basis_ket_and_projector():
    ket = basis_ket("0010")
    assert ket.shape == (16,)
    assert ket[2] == 1.0 and np.count_nonzero(ket) == 1
    p = projector(ket)
    assert np.allclose(p @ p, p)
    assert np.isclose(np.trace(p), 1.0)
    with pytest.raises(ValueError):
        basis_ket("012")


def test_tensor_matches_kron():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    c = rng.standard_normal((2, 2))
    assert np.allclose(tensor(a, b), np.kron(a, b))
    assert np.allclose(tensor(a, b, c), np.kron(np.kron(a, b), c))


def test_embed_one_qubit_positions():
    # X on qubit 0 of 3 (qubit 0 is the most significant / leftmost factor)
    full = embed_one_qubit(PAULI_X, 0, 3)
    assert np.allclose(full, np.kron(PAULI_X, np.eye(4)))
    full = embed_one_qubit(PAULI_X, 2, 3)
    assert np.allclose(full, np.kron(np.eye(4), PAULI_X))


def test_pauli_string_is_ordered_tensor():
    op = pauli_string("XZ")
    assert np.allclose(op, np.kron(PAULI_X, PAULI_Z))
    op = pauli_string("IYI")
    assert np.allclose(op, np.kron(np.kron(PAULI_I, PAULI_Y), PAULI_I))


def test_partial_trace_oracle_manual_sum():
    """Cross-check partial_trace against an explicit index-sum on a random state."""
    rng = np.random.default_rng(11)
    rho = random_density(rng, 8)
    # trace out qubit 1 of 3 by brute-force index bookkeeping
    want = np.zeros((4, 4), dtype=complex)
    for i in range(8):
        for j in range(8):
            ib = format(i, "03b")
            jb = format(j, "03b")
            if ib[1] != jb[1]:
                continue
            r = int(ib[0] + ib[2], 2)
            c = int(jb[0] + jb[2], 2)
            want[r, c] += rho[i, j]
    got = partial_trace(rho, keep=(0, 2))
    assert np.allclose(got, want, atol=1e-12)


def test_partial_trace_of_product_state():
    rng = np.random.default_rng(12)
    a = random_density(rng, 2)
    b = random_density(rng, 2)
    rho = np.kron(a, b)
    assert np.allclose(partial_trace(rho, keep=(0,)), a, atol=1e-12)
    assert np.allclose(partial_trace(rho, keep=(1,)), b, atol=1e-12)
    # keeping nothing leaves the full trace as a 1x1 matrix
    total = partial_trace(rho, keep=())
    assert total.shape == (1, 1)
    assert np.isclose(total[0, 0], 1.0)


def test_partial_trace_preserves_trace_and_hermiticity():
    rng = np.random.default_rng(13)
    for _ in range(20):
        rho = random_density(rng, 16)
        red = partial_trace(rho, keep=(1, 3))
        assert np.isclose(np.trace(red).real, 1.0)
        assert np.allclose(red, red.conj().T)


def test_hilbert_schmidt_inner_properties():
    rng = np.random.default_rng(17)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    ha = a + a.conj().T
    hb = b + b.conj().T
    # <A, B> = tr(A^dag B); real for Hermitian pairs
    assert np.isclose(hilbert_schmidt_inner(ha, hb), np.trace(ha.conj().T @ hb).real)
    assert np.isclose(hilbert_schmidt_norm(ha), np.sqrt(np.trace(ha @ ha).real))


def test_eig_hermitian_descending():
    rng = np.random.default_rng(19)
    rho = random_density(rng, 8)
    vals, vecs = eig_hermitian(rho)
    assert np.all(np.diff(vals) <= 1e-12)
    recon = (vecs * vals) @ vecs.conj().T
    assert np.allclose(recon, rho, atol=1e-10)


def test_matrix_sqrt_psd():
    rng = np.random.default_rng(23)
    rho = random_density(rng, 4)
    root = matrix_sqrt_psd(rho)
    assert np.allclose(root @ root, rho, atol=1e-10)


def test_validators_accept_and_reject():
    assert_hermitian(PAULI_Z)
    with pytest.raises(ValueError):
        assert_hermitian(np.array([[0, 1], [0, 0]], dtype=complex))
    assert_unitary(HADAMARD)
    with pytest.raises(ValueError):
        assert_unitary(2.0 * HADAMARD)
    assert_density_matrix(np.eye(2) / 2)
    with pytest.raises(ValueError):
        assert_density_matrix(np.eye(2))  # trace 2
    with pytest.raises(ValueError):
        assert_density_matrix(np.diag([1.5, -0.5]).astype(complex))  # negative eigenvalue
    assert_pure_state(basis_ket("0"))
    with pytest.raises(ValueError):
        assert_pure_state(np.array([1.0, 1.0]))


def test_matrix_json_round_trip(tmp_path):
    rng = np.random.default_rng(29)
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    again = matrix_from_json(matrix_to_json(m))
    assert np.array_equal(again, m)

    path = tmp_path / "mat.json"
    save_matrix(path, m)
    assert np.array_equal(load_matrix(path), m)


@given(hnp.arrays(complex, hnp.array_shapes(min_dims=2, max_dims=2, max_side=6).map(lambda s: (s[0], s[0])),
                  elements=st.complex_numbers(allow_nan=False, allow_infinity=False)))
def test_matrix_json_round_trip_is_exact(m):
    again = matrix_from_json(json.loads(json.dumps(matrix_to_json(m))))
    assert again.tobytes() == m.tobytes()  # bit for bit, signed zeros included
