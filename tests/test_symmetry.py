"""Commutant-basis checks.

The two independent oracles here are (a) the closed-form count
(n+1)(n+2)(n+3)/6 for the algebra commuting with all qubit permutations and
(b) a sum-of-squared-multiplicities count for the algebra commuting with
collective rotations, computed by fusing spin-1/2 ladders.  Both are
evaluated without touching the implementation under test.  The spans of the
built-in bases are also checked against the generic SVD route, which builds
the same algebras from their generators as custom kinds.
"""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symtomo.operators import hilbert_schmidt_inner, pauli_string
from symtomo.symmetry import (
    SymmetrySpec,
    compute_commutant_basis,
    group_generators,
    permutation_basis_size,
    project_onto_basis,
    reconstruct,
    spin_blocks,
    symmetrize,
    transposition_permutation,
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


def test_transposition_permutation_swaps_bits():
    perm = transposition_permutation(3, 0)  # swap qubits 0 and 1 of three
    # |011> (qubit0=0, qubit1=1, qubit2=1) maps to |101>
    assert perm[int("011", 2)] == int("101", 2)
    assert perm[int("000", 2)] == int("000", 2)
    assert perm[int("111", 2)] == int("111", 2)
    with pytest.raises(ValueError):
        transposition_permutation(3, 2)


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

@pytest.mark.parametrize("kind", ["permutation", "collective"])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_spin_blocks_sizes_and_isometry(n, kind):
    isometry, sizes, mults = spin_blocks(n, kind)
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
    # repeated as often as that block's multiplicity
    basis = compute_commutant_basis(spec)
    member = random_member(basis, seed=5)
    isometry, sizes, mults = spin_blocks(spec.n_qubits, spec.kind)
    want = []
    start = 0
    for size, mult in zip(sizes, mults):
        cols = isometry[:, start:start + size]
        want += list(np.linalg.eigvalsh(cols.conj().T @ member @ cols)) * mult
        start += size
    assert np.allclose(np.sort(want), np.linalg.eigvalsh(member), atol=1e-10)


def test_spin_blocks_custom_kind_is_one_identity_block():
    isometry, sizes, mults = spin_blocks(2, "custom_unitaries")
    assert np.array_equal(isometry, np.eye(4))
    assert (sizes, mults) == ((4,), (1,))


def test_spin_blocks_are_cached_and_read_only():
    blocks = spin_blocks(3, "permutation")
    assert spin_blocks(3, "permutation") is blocks
    with pytest.raises(ValueError):
        blocks.isometry[0, 0] = 2.0
