"""Commutant-basis checks.

The two independent oracles here are (a) the closed-form count
(n+1)(n+2)(n+3)/6 for the algebra commuting with all qubit permutations and
(b) a sum-of-squared-multiplicities count for the algebra commuting with
collective rotations, computed by fusing spin-1/2 ladders.  Both are
evaluated without touching the implementation under test.  The spans of the
built-in bases are also checked against the generic SVD route, which builds
the same algebras from their generators as custom kinds.
"""

import tracemalloc
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symtomo.operators import hilbert_schmidt_inner, pauli_string
from symtomo.symmetry import (
    SymmetricBasis,
    SymmetricCoefficients,
    SymmetrySpec,
    _block_matrix_units,
    _collective,
    _schur_transform,
    compute_commutant_basis,
    group_generators,
    permutation_basis_size,
    project_onto_basis,
    reconstruct,
    symmetrize,
)


def collective_commutant_dim(n):
    """sum of m_j^2 with m_j the multiplicity of total spin j among n spin-1/2s."""
    mult = {0.5: 1}
    for _ in range(n - 1):
        new = {}
        for j, m in mult.items():
            for jj in ({j + 0.5} if j == 0 else {j - 0.5, j + 0.5}):
                new[jj] = new.get(jj, 0) + m
        mult = new
    return sum(m * m for m in mult.values())


def random_member(basis, seed):
    rng = np.random.default_rng(seed)
    return reconstruct(
        type(project_onto_basis(np.eye(basis.dim) / basis.dim, basis))(
            basis, rng.standard_normal(basis.size)
        )
    )


@pytest.mark.parametrize("n,expected", [(2, 10), (3, 20), (4, 35), (5, 56), (6, 84), (7, 120)])
def test_permutation_sizes_match_closed_form(n, expected):
    assert permutation_basis_size(n) == expected
    basis = compute_commutant_basis(SymmetrySpec.permutation(n))
    assert basis.size == expected
    assert basis.dim == 2**n


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_collective_sizes_match_spin_fusion_oracle(n):
    want = collective_commutant_dim(n)
    assert want == {2: 2, 3: 5, 4: 14, 5: 42, 6: 132}[n]
    basis = compute_commutant_basis(SymmetrySpec.collective(n))
    assert basis.size == want


def test_elements_are_hermitian_and_orthonormal():
    for spec in (
        SymmetrySpec.permutation(3),
        SymmetrySpec.collective(3),
        SymmetrySpec.permutation(7),
        SymmetrySpec.collective(5),
    ):
        elements = compute_commutant_basis(spec).elements
        assert np.abs(elements - elements.conj().transpose(0, 2, 1)).max() < 1e-12
        flat = elements.reshape(len(elements), -1)
        gram = flat.conj() @ flat.T
        assert np.abs(gram - np.eye(len(elements))).max() < 1e-12


def test_elements_commute_with_generators():
    for spec in (
        SymmetrySpec.permutation(2),
        SymmetrySpec.permutation(3),
        SymmetrySpec.collective(2),
        SymmetrySpec.collective(3),
        SymmetrySpec.collective(5),
    ):
        basis = compute_commutant_basis(spec)
        for g in group_generators(spec):
            if spec.uses_unitary_generators:
                for s in basis.elements:
                    assert np.allclose(g @ s @ g.conj().T, s, atol=1e-9)
            else:
                for s in basis.elements:
                    assert np.allclose(g @ s - s @ g, 0, atol=1e-9)


@pytest.mark.parametrize("n", range(1, 9))
def test_lowering_operator_equals_the_bit_built_one(n):
    # sigma_- on qubit q (the bit of weight 2^(n-1-q)) sends every state with that bit clear to the state with it set
    d = 2**n
    idx = np.arange(d)
    want = np.zeros((d, d))
    for q in range(n):
        bit = 1 << (n - 1 - q)
        src = idx[(idx & bit) == 0]
        want[src | bit, src] = 1.0
    sigma_minus = np.array([[0.0, 0.0], [1.0, 0.0]])  # |0> (spin up) -> |1>
    got = _collective(sigma_minus, n)
    assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize("n", range(1, 9))
def test_schur_columns_are_the_total_spin_states(n):
    # |J, M, alpha> is an eigenvector of J_z (eigenvalue M) and of J^2 (J(J+1)), the columns are
    # orthonormal, and J_- = J_x - i J_y maps (M, alpha) to sqrt(J(J+1) - M(M-1)) (M-1, alpha)
    jx, jy, jz = group_generators(SymmetrySpec.collective(n))
    total = jx @ jx + jy @ jy + jz @ jz
    lowering = jx - 1j * jy
    arrays = _schur_transform(n)
    assert [cols.shape[1] for cols in arrays] == list(range(n + 1, 0, -2))
    for cols in arrays:
        size = cols.shape[1]
        j = (size - 1) / 2
        for k in range(size):
            m = j - k
            col = cols[:, k, :]
            below = cols[:, k + 1, :] if k + 1 < size else np.zeros_like(col)
            assert np.abs(jz @ col - m * col).max() <= 1e-12
            assert np.abs(total @ col - j * (j + 1) * col).max() <= 1e-11
            assert np.abs(lowering @ col - np.sqrt(j * (j + 1) - m * (m - 1)) * below).max() <= 1e-11
    flat = np.concatenate([cols.reshape(2**n, -1) for cols in arrays], axis=1)
    assert flat.shape == (2**n, 2**n)
    assert np.abs(flat.T @ flat - np.eye(2**n)).max() <= 1e-12


@pytest.mark.parametrize("kind", ["permutation", "collective"])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_schur_route_agrees_with_null_space_route(n, kind):
    # feed the built-in generators through the generic SVD route as a custom
    # kind and compare the spanned subspaces via their orthogonal projectors
    spec = SymmetrySpec(n, kind)
    fast = compute_commutant_basis(spec)
    gens = group_generators(spec)
    custom = SymmetrySpec.custom_unitaries if kind == "permutation" else SymmetrySpec.custom_lie
    slow = compute_commutant_basis(custom(gens))
    assert fast.size == slow.size
    b1 = fast.elements.reshape(fast.size, -1)
    b2 = slow.elements.reshape(slow.size, -1)
    p1 = b1.conj().T @ b1
    p2 = b2.conj().T @ b2
    assert np.allclose(p1, p2, atol=1e-8)


def test_collective_two_qubit_span_is_identity_and_swap():
    basis = compute_commutant_basis(SymmetrySpec.collective(2))
    swap = np.eye(4)[[0, 2, 1, 3]].astype(complex)
    for target in (np.eye(4, dtype=complex), swap):
        back = reconstruct(project_onto_basis(target / np.linalg.norm(target), basis))
        assert np.allclose(back, target / np.linalg.norm(target), atol=1e-9)


def test_custom_lie_diagonal_algebra():
    # a single J_z generator on one qubit leaves exactly the diagonal matrices
    spec = SymmetrySpec.custom_lie([np.diag([0.5, -0.5]).astype(complex)])
    basis = compute_commutant_basis(spec)
    assert basis.size == 2
    for s in basis.elements:
        assert np.allclose(s, np.diag(np.diag(s)), atol=1e-10)


def test_custom_unitary_parity_symmetry():
    # commutant of {Z (x) Z} = operators block-diagonal in parity: 8 of 16 dims
    spec = SymmetrySpec.custom_unitaries([pauli_string("ZZ")])
    basis = compute_commutant_basis(spec)
    assert basis.size == 8
    zz = pauli_string("ZZ")
    for s in basis.elements:
        assert np.allclose(zz @ s @ zz, s, atol=1e-10)


def test_project_reconstruct_round_trip():
    rng = np.random.default_rng(31)
    basis = compute_commutant_basis(SymmetrySpec.permutation(3))
    a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    rho = (a @ a.conj().T) / np.trace(a @ a.conj().T)
    sym = symmetrize(rho, basis)
    coeffs = project_onto_basis(sym, basis)
    assert np.allclose(reconstruct(coeffs), sym, atol=1e-10)
    # projection is idempotent and never increases the HS norm
    assert np.allclose(symmetrize(sym, basis), sym, atol=1e-10)
    assert hilbert_schmidt_inner(sym, sym) <= hilbert_schmidt_inner(rho, rho) + 1e-12


def test_symmetrize_fixes_symmetric_states():
    basis = compute_commutant_basis(SymmetrySpec.permutation(2))
    ghz = np.zeros((4, 4), dtype=complex)
    ghz[0, 0] = ghz[0, 3] = ghz[3, 0] = ghz[3, 3] = 0.5
    assert np.allclose(symmetrize(ghz, basis), ghz, atol=1e-10)


# built-in kinds at n <= 4, and a custom kind: total Z on two qubits
SYMMETRIES = [SymmetrySpec(n, kind) for kind in ("permutation", "collective") for n in (1, 2, 3, 4)]
SYMMETRIES.append(SymmetrySpec.custom_lie([pauli_string("ZI") + pauli_string("IZ")]))


@lru_cache(maxsize=None)
def symmetry_basis(index):
    return compute_commutant_basis(SYMMETRIES[index])


@settings(max_examples=40, deadline=None)
@given(index=st.integers(0, len(SYMMETRIES) - 1), seed=st.integers(0, 2**32 - 1))
def test_symmetrize_is_an_invariant_projection(index, seed):
    basis = symmetry_basis(index)
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((basis.dim,) * 2) + 1j * rng.standard_normal((basis.dim,) * 2)
    sym = symmetrize(a + a.conj().T, basis)
    assert np.allclose(symmetrize(sym, basis), sym, atol=1e-10)
    for gen in group_generators(SYMMETRIES[index]):
        assert np.allclose(gen @ sym, sym @ gen, atol=1e-10)


def bit_swap(n, k):
    """Index map of basis states under swapping qubits k and k+1 (qubit 0 the most significant bit)."""
    idx = np.arange(2**n)
    hi, lo = 1 << (n - 1 - k), 1 << (n - 2 - k)
    bit_a, bit_b = (idx & hi) > 0, (idx & lo) > 0
    return (idx & ~(hi | lo)) | np.where(bit_b, hi, 0) | np.where(bit_a, lo, 0)


def test_transposition_permutation_swaps_bits():
    # |011> (qubit0=0, qubit1=1, qubit2=1) maps to |101> under the swap of qubits 0 and 1
    assert bit_swap(3, 0)[int("011", 2)] == int("101", 2)
    for n in range(2, 6):
        d = 2**n
        gens = group_generators(SymmetrySpec.permutation(n))
        assert len(gens) == n - 1
        for k, gen in enumerate(gens):
            want = np.zeros((d, d), dtype=complex)
            want[bit_swap(n, k), np.arange(d)] = 1.0
            assert gen.dtype == want.dtype and np.array_equal(gen, want)


def test_deterministic_output():
    for spec in (SymmetrySpec.permutation(3), SymmetrySpec.collective(3)):
        a = compute_commutant_basis(spec)
        b = compute_commutant_basis(spec)
        assert np.array_equal(a.elements, b.elements)


def test_coefficients_are_real_for_hermitian_input():
    rng = np.random.default_rng(37)
    basis = compute_commutant_basis(SymmetrySpec.collective(3))
    for seed in range(5):
        h = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        h = h + h.conj().T
        coeffs = project_onto_basis(h, basis)
        assert np.all(np.isreal(coeffs.alpha))


# ---------------------------------------------------------------------------
# total-spin block compression
# ---------------------------------------------------------------------------

def copy_zero(blocks):
    """The isometry onto copy 0 of every block, the block sizes and the copy counts."""
    return (np.hstack([cols[:, :, 0] for cols in blocks]),
            tuple(cols.shape[1] for cols in blocks), tuple(cols.shape[2] for cols in blocks))


@pytest.mark.parametrize("kind", ["permutation", "collective"])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_spin_blocks_sizes_and_isometry(n, kind):
    isometry, sizes, mults = copy_zero(compute_commutant_basis(SymmetrySpec(n, kind)).blocks)
    assert isometry.shape == (2**n, sum(sizes))
    assert np.allclose(isometry.conj().T @ isometry, np.eye(sum(sizes)), atol=1e-12)
    assert sum(b * m for b, m in zip(sizes, mults)) == 2**n
    algebra_dim = sum(b * b for b in sizes)
    if kind == "permutation":
        assert algebra_dim == permutation_basis_size(n)
    else:
        assert algebra_dim == {2: 2, 3: 5, 4: 14, 5: 42}[n] == collective_commutant_dim(n)


@pytest.mark.parametrize(
    "spec", [SymmetrySpec.permutation(3), SymmetrySpec.permutation(4), SymmetrySpec.collective(4)]
)
def test_spin_blocks_reproduce_the_spectrum_of_algebra_members(spec):
    # every eigenvalue of a member is an eigenvalue of one compressed block,
    # repeated as often as that block's copy count
    basis = compute_commutant_basis(spec)
    member = random_member(basis, seed=5)
    isometry, sizes, mults = copy_zero(basis.blocks)
    want = []
    start = 0
    for size, mult in zip(sizes, mults):
        cols = isometry[:, start:start + size]
        want += list(np.linalg.eigvalsh(cols.conj().T @ member @ cols)) * mult
        start += size
    assert np.allclose(np.sort(want), np.linalg.eigvalsh(member), atol=1e-10)


def test_custom_and_hand_built_bases_carry_no_blocks():
    swap = group_generators(SymmetrySpec.permutation(2))[0]
    assert compute_commutant_basis(SymmetrySpec.custom_unitaries([swap])).blocks is None
    built = compute_commutant_basis(SymmetrySpec.permutation(2))
    # the label does not make a basis block-structured: only its builder does
    assert SymmetricBasis(2, "permutation", built.elements).blocks is None


PERMUTATION_2 = compute_commutant_basis(SymmetrySpec.permutation(2)).elements
ZZ = pauli_string("ZZ")


@pytest.mark.parametrize("n, elements, fault", [
    # symmetrize onto it returned exactly 4x the projection
    (2, 2.0 * PERMUTATION_2, r"basis elements are not orthonormal \(deviation 3\.0e\+00 > 1e-9\)"),
    # unit norms, but symmetrize was not idempotent
    (2, [ZZ / 2, (ZZ + np.eye(4)) / np.sqrt(8)], r"basis elements are not orthonormal \(deviation 7\.1e-01 > 1e-9\)"),
    (2, [ZZ / 2, 1j * ZZ / 2], r"basis elements are not Hermitian \(deviation 1\.0e\+00 > 1e-9\)"),
    # symmetrize returned NaN
    (2, np.where(np.eye(4) > 0, np.nan, PERMUTATION_2), "a basis element has a non-finite entry"),
    (2, [np.full((4, 4), np.inf)], "a basis element has a non-finite entry"),
    # reconstruct gave a 4 x 4 matrix for a basis of dim 8, and a solve an IndexError
    (3, PERMUTATION_2, r"basis elements of shape \(10, 4, 4\) are not \(r, 8, 8\) with r >= 1"),
    (2, np.zeros((0, 4, 4)), r"basis elements of shape \(0, 4, 4\) are not \(r, 4, 4\)"),
    (2, ZZ / 2, r"basis elements of shape \(4, 4\) are not \(r, 4, 4\)"),
], ids=["scaled", "not-orthogonal", "not-hermitian", "nan", "inf", "mislabelled", "empty", "one-matrix"])
def test_a_basis_given_by_its_elements_is_refused_where_it_is_made(n, elements, fault):
    with pytest.raises(ValueError, match=fault):
        SymmetricBasis(n, "permutation", elements)


def test_a_basis_given_by_its_elements_keeps_a_read_only_copy():
    built = compute_commutant_basis(SymmetrySpec.permutation(2))
    elements = np.array(built.elements)
    basis = SymmetricBasis(2, "permutation", list(elements))  # a list of arrays, as for SymmetrySpec
    elements[0] = 0.0  # the caller's array is not the basis's
    rho = np.diag([0.5, 0.25, 0.25, 0.0]).astype(complex)
    assert np.allclose(symmetrize(rho, basis), symmetrize(rho, built), atol=1e-12)
    with pytest.raises(ValueError):
        basis.elements[0, 0, 0] = 1.0


def test_spin_blocks_are_read_only():
    for kind in ("permutation", "collective"):
        for cols in compute_commutant_basis(SymmetrySpec(3, kind)).blocks:
            with pytest.raises(ValueError):
                cols[0, 0, 0] = 2.0


@pytest.mark.parametrize("kind, n", [("permutation", n) for n in range(1, 8)]
                         + [("collective", n) for n in range(1, 7)])
def test_basis_elements_are_the_matrix_units_of_its_blocks(kind, n):
    basis = compute_commutant_basis(SymmetrySpec(n, kind))
    assert np.array_equal(_block_matrix_units(basis.blocks), basis.elements)


def test_spec_refuses_a_qubit_count_that_is_not_an_integer():
    with pytest.raises(ValueError, match="n_qubits must be an integer, got 2.0"):
        SymmetrySpec(2.0, "permutation")


@pytest.mark.parametrize("kind, size", [("permutation", 56), ("collective", 42)])
def test_a_built_basis_forms_its_elements_on_first_read(kind, size):
    basis = compute_commutant_basis(SymmetrySpec(5, kind))
    assert basis.size == size
    assert "elements" not in vars(basis)  # the size is read off the blocks
    elements = basis.elements
    assert basis.elements is elements
    assert np.array_equal(elements, _block_matrix_units(basis.blocks))


def test_a_ten_qubit_basis_builds_without_its_dense_elements():
    # the 286 dense elements would take 4.8 GB
    _schur_transform.cache_clear()
    tracemalloc.start()
    try:
        size = compute_commutant_basis(SymmetrySpec.permutation(10)).size
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert size == 286
    assert peak < 64e6


def test_an_eleven_qubit_basis_builds_in_its_weight_spaces():
    # the returned Schur columns take 32 MiB, and so would each 2048 x 2048 operator
    _schur_transform.cache_clear()
    tracemalloc.start()
    try:
        size = compute_commutant_basis(SymmetrySpec.permutation(11)).size
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert size == 364
    assert peak < 64e6


@pytest.mark.parametrize("kind", ["permutation", "collective"])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_block_projection_and_assembly_match_the_dense_elements(kind, n):
    basis = compute_commutant_basis(SymmetrySpec(n, kind))
    elements = basis.elements
    rng = np.random.default_rng(n)
    op = rng.standard_normal((2**n, 2**n)) + 1j * rng.standard_normal((2**n, 2**n))
    for target in (op, op + op.conj().T):
        dense = np.einsum("iab,ab->i", elements.conj(), target).real
        assert np.abs(project_onto_basis(target, basis).alpha - dense).max() <= 1e-12
        assert np.abs(symmetrize(target, basis) - np.einsum("i,iab->ab", dense, elements)).max() <= 1e-12
    alpha = rng.standard_normal(basis.size)
    want = np.einsum("i,iab->ab", alpha, elements)
    assert np.abs(reconstruct(SymmetricCoefficients(basis, alpha)) - want).max() <= 1e-12
