"""Orthonormal operator bases for symmetry-restricted state estimation.

Given a symmetry group of an n-qubit register -- qubit permutations,
simultaneous single-qubit rotations, or user-supplied generators -- the
operators commuting with every group element form an algebra.  Restricting
state reconstruction to the Hermitian part of that algebra shrinks the number
of unknowns from 4^n to the algebra's (often tiny) dimension.  This module
computes an orthonormal Hermitian basis of the algebra.

Two construction routes are used:

* Schur route, for the two built-in kinds: both algebras are block diagonal
  in the total-spin basis |J, M, alpha> of the register.  The permutation
  algebra is the direct sum of M_{2J+1} (x) 1_{m_J}, the collective algebra
  that of 1_{2J+1} (x) M_{m_J}, where m_J counts the spin-J irreps.  One
  cached change of basis, built by lowering highest-weight vectors with J_-,
  yields the matrix units of every block and so an orthonormal basis of
  either algebra, with no cost that grows as d^4.
* SVD route, for custom kinds: stack the vectorized commutation constraints
  for every generator and extract the joint null space by singular value
  decomposition; the Hermitian parts of the null vectors are orthonormalized
  under the Hilbert-Schmidt inner product by a second, real SVD.  The test
  suite uses it as the reference for the Schur route.

``spin_blocks`` gives the solver the compressed view of the same transform:
one copy of every block, plus the number of copies, represents any member of
the algebra exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .operators import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    as_matrix,
    assert_hermitian,
    assert_unitary,
    embed_one_qubit,
    num_qubits,
)

SINGULAR_VALUE_TOL = 1e-9  # singular values below this are null

KIND_PERMUTATION = "permutation"
KIND_COLLECTIVE = "collective"
KIND_CUSTOM_UNITARIES = "custom_unitaries"
KIND_CUSTOM_LIE = "custom_lie"
_KINDS = (KIND_PERMUTATION, KIND_COLLECTIVE, KIND_CUSTOM_UNITARIES, KIND_CUSTOM_LIE)


@dataclass(frozen=True)
class SymmetrySpec:
    """A symmetry group given by its generators.

    ``kind`` selects how generators are produced/interpreted:

    * ``"permutation"``: adjacent qubit transpositions (unitary generators).
    * ``"collective"``: total-spin components J_x, J_y, J_z, generating
      simultaneous single-qubit rotations (Lie-algebra generators).
    * ``"custom_unitaries"`` / ``"custom_lie"``: explicit matrices supplied
      by the caller.
    """

    n_qubits: int
    kind: str
    operators: tuple = field(default=())

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown symmetry kind {self.kind!r}")
        if self.n_qubits < 1:
            raise ValueError("n_qubits must be >= 1")
        if self.kind in (KIND_CUSTOM_UNITARIES, KIND_CUSTOM_LIE):
            if not self.operators:
                raise ValueError(f"{self.kind} spec needs at least one operator")
            d = 2**self.n_qubits
            ops = []
            for op in self.operators:
                op = as_matrix(op)
                if op.shape != (d, d):
                    raise ValueError(f"generator shape {op.shape} != ({d}, {d})")
                if self.kind == KIND_CUSTOM_UNITARIES:
                    assert_unitary(op, name="custom generator")
                else:
                    assert_hermitian(op, atol=1e-9, name="custom generator")
                ops.append(op)
            object.__setattr__(self, "operators", tuple(ops))
        elif self.operators:
            raise ValueError(f"{self.kind} spec does not take explicit operators")

    @classmethod
    def permutation(cls, n_qubits: int) -> "SymmetrySpec":
        return cls(n_qubits, KIND_PERMUTATION)

    @classmethod
    def collective(cls, n_qubits: int) -> "SymmetrySpec":
        return cls(n_qubits, KIND_COLLECTIVE)

    @classmethod
    def custom_unitaries(cls, ops) -> "SymmetrySpec":
        ops = [as_matrix(o) for o in ops]
        return cls(num_qubits(ops[0].shape[0]), KIND_CUSTOM_UNITARIES, tuple(ops))

    @classmethod
    def custom_lie(cls, ops) -> "SymmetrySpec":
        ops = [as_matrix(o) for o in ops]
        return cls(num_qubits(ops[0].shape[0]), KIND_CUSTOM_LIE, tuple(ops))

    @property
    def uses_unitary_generators(self) -> bool:
        return self.kind in (KIND_PERMUTATION, KIND_CUSTOM_UNITARIES)


@dataclass(frozen=True)
class SymmetricBasis:
    """Orthonormal Hermitian operators spanning a symmetry algebra.

    ``elements`` has shape (r, d, d); every element commutes with all group
    generators and ``<S_i, S_j> = delta_ij`` under the Hilbert-Schmidt inner
    product.
    """

    n_qubits: int
    kind: str
    elements: np.ndarray

    @property
    def size(self) -> int:
        return self.elements.shape[0]

    @property
    def dim(self) -> int:
        return 2**self.n_qubits


@dataclass(frozen=True)
class SymmetricCoefficients:
    """Real expansion coefficients of an operator over a ``SymmetricBasis``."""

    basis: SymmetricBasis
    alpha: np.ndarray


def transposition_permutation(n: int, k: int) -> np.ndarray:
    """Index map of basis states under swapping qubits k and k+1 (length 2^n)."""
    if not 0 <= k < n - 1:
        raise ValueError(f"transposition index {k} out of range for {n} qubits")
    d = 2**n
    idx = np.arange(d)
    # qubit 0 is the most significant bit
    bit_a = (idx >> (n - 1 - k)) & 1
    bit_b = (idx >> (n - 2 - k)) & 1
    swapped = idx & ~((1 << (n - 1 - k)) | (1 << (n - 2 - k)))
    swapped |= bit_b << (n - 1 - k)
    swapped |= bit_a << (n - 2 - k)
    return swapped


def group_generators(spec: SymmetrySpec) -> list[np.ndarray]:
    """Concrete generator matrices for a symmetry spec.

    Permutation: one matrix per adjacent transposition (n-1 of them; none for
    a single qubit, whose permutation group is trivial).  Collective: the
    three total-spin components sum_i sigma_k^(i) / 2.  Custom kinds return
    the caller's operators unchanged.
    """
    n = spec.n_qubits
    if spec.kind == KIND_PERMUTATION:
        d = 2**n
        gens = []
        for k in range(n - 1):
            perm = transposition_permutation(n, k)
            mat = np.zeros((d, d), dtype=complex)
            mat[perm, np.arange(d)] = 1.0
            gens.append(mat)
        return gens
    if spec.kind == KIND_COLLECTIVE:
        gens = []
        for sigma in (PAULI_X, PAULI_Y, PAULI_Z):
            total = sum(embed_one_qubit(sigma / 2.0, q, n) for q in range(n))
            gens.append(total)
        return gens
    return [np.array(op) for op in spec.operators]


def _null_space_basis(spec: SymmetrySpec) -> np.ndarray:
    """Generic route: SVD null space of the stacked commutation constraints."""
    d = 2**spec.n_qubits
    eye_d = np.eye(d)
    eye_dd = np.eye(d * d)
    blocks = []
    for gen in group_generators(spec):
        if spec.uses_unitary_generators:
            # U S U^dag = S  <=>  (U (x) conj(U) - 1) vec(S) = 0  (row-major vec)
            blocks.append(np.kron(gen, gen.conj()) - eye_dd)
        else:
            # G S - S G = 0  <=>  (G (x) 1 - 1 (x) G^T) vec(S) = 0
            blocks.append(np.kron(gen, eye_d) - np.kron(eye_d, gen.T))
    stacked = np.vstack(blocks)
    _, svals, vh = np.linalg.svd(stacked, full_matrices=False)
    null = vh[svals < SINGULAR_VALUE_TOL].reshape(-1, d, d)
    if not len(null):
        raise RuntimeError("commutant basis came out empty; constraints are inconsistent")
    # The null space is closed under dagger, so the Hermitian parts of its rows
    # span its Hermitian operators.  Real combinations of Hermitian matrices are
    # Hermitian, and the real inner product of their real views is the HS one:
    # one real SVD of those views orthonormalizes them.
    adjoint = null.conj().transpose(0, 2, 1)
    parts = np.concatenate([null + adjoint, 1j * (null - adjoint)]) / 2.0
    _, svals, vh = np.linalg.svd(parts.reshape(len(parts), -1).view(float), full_matrices=False)
    return vh[svals > SINGULAR_VALUE_TOL * svals[0]].view(complex).reshape(-1, d, d)


def compute_commutant_basis(spec: SymmetrySpec) -> SymmetricBasis:
    """Orthonormal Hermitian basis of all operators invariant under the group.

    The span contains the identity (it commutes with everything), though no
    single element is the identity.  The output is deterministic for a given
    spec and satisfies ``[S_i, g] = 0`` for every generator ``g`` to high
    accuracy.  The built-in kinds are read off the total-spin transform; custom
    kinds go through the SVD null space of their commutation constraints.
    """
    if spec.kind in (KIND_PERMUTATION, KIND_COLLECTIVE):
        elements = _block_matrix_units(_schur_blocks(spec.n_qubits, spec.kind))
    else:
        elements = _null_space_basis(spec)
    return SymmetricBasis(spec.n_qubits, spec.kind, elements)


class SpinBlocks(NamedTuple):
    """Block compression of a symmetry algebra.

    ``isometry`` (d x s, orthonormal columns) holds one copy of each diagonal
    block, consecutive blocks of ``sizes`` columns; block b occurs
    ``multiplicities[b]`` times in the full space, so a member X of the
    algebra satisfies tr f(X) = sum_b multiplicities[b] tr f(V_b^dag X V_b).
    """

    isometry: np.ndarray
    sizes: tuple
    multiplicities: tuple


def _lowering_operator(n: int) -> np.ndarray:
    """Collective J_- = sum_q sigma_-^(q) as a dense real d x d matrix.

    sigma_- maps |0> (spin up, qubit 0 most significant) to |1>.
    """
    d = 2**n
    idx = np.arange(d)
    out = np.zeros((d, d))
    for q in range(n):
        bit = 1 << (n - 1 - q)
        src = idx[(idx & bit) == 0]
        out[src | bit, src] = 1.0
    return out


def _highest_weights(n: int, lowering: np.ndarray, j2: int) -> np.ndarray:
    """Orthonormal basis (d x m_J) of the spin-J highest-weight space, J = j2 / 2.

    It is the kernel of J_+ = J_-^T on the computational states carrying
    (n - j2) / 2 ones, found by an SVD of that column slice of J_+.
    """
    d = 2**n
    ones = (n - j2) // 2
    idx = np.arange(d)
    cols = idx[np.array([bin(i).count("1") for i in idx]) == ones]
    raising = lowering.T[:, cols]
    _, svals, vh = np.linalg.svd(raising)
    rank = int((svals > SINGULAR_VALUE_TOL).sum())
    kernel = vh[rank:].T
    out = np.zeros((d, kernel.shape[1]))
    out[cols] = kernel
    return out


@lru_cache(maxsize=16)
def _schur_transform(n_qubits: int) -> tuple:
    """The total-spin basis |J, M, alpha>, one (d, 2J+1, m_J) array per J.

    J runs from n/2 down.  Axis 1 is M from J down, axis 2 the copy alpha:
    copy alpha is lowered by J_- from the alpha-th orthonormal highest-weight
    vector, so the copies are aligned and the map |M> (x) |alpha> -> column
    is an isometry carrying M_{2J+1} (x) 1 onto the permutation algebra and
    1 (x) M_{m_J} onto the collective one.  Cached per n; read-only.
    """
    lowering = _lowering_operator(n_qubits)
    out = []
    for j2 in range(n_qubits, -1, -2):
        levels = [_highest_weights(n_qubits, lowering, j2)]
        for _ in range(j2):
            vecs = lowering @ levels[-1]
            levels.append(vecs / np.linalg.norm(vecs, axis=0))
        cols = np.stack(levels, axis=1)
        cols.setflags(write=False)
        out.append(cols)
    return tuple(out)


def _schur_blocks(n_qubits: int, kind: str) -> list[np.ndarray]:
    """(d, block, copies) arrays of a built-in algebra's total-spin blocks.

    Permutation kind: blocks of 2J+1, m_J copies each.  Collective kind: the
    same arrays with the last two axes swapped, blocks of m_J in 2J+1 copies.
    """
    arrays = _schur_transform(n_qubits)
    if kind == KIND_COLLECTIVE:
        return [cols.swapaxes(1, 2) for cols in arrays]
    return list(arrays)


def _block_matrix_units(blocks) -> np.ndarray:
    """Hermitian matrix units of every block, summed over its copies.

    With E_ij = sum_c |i, c><j, c| / sqrt(copies), the elements E_ii,
    (E_ij + E_ji)/sqrt(2) and i(E_ij - E_ji)/sqrt(2) for i < j are
    orthonormal by construction and span the block algebra.
    """
    out = []
    for cols in blocks:
        size, copies = cols.shape[1:]
        rows = cols.transpose(1, 0, 2)  # (block, d, copies)
        units = (rows[:, None] @ rows[None].transpose(0, 1, 3, 2)) / np.sqrt(copies)
        for i in range(size):
            out.append(units[i, i])
            for j in range(i + 1, size):
                out.append((units[i, j] + units[j, i]) / np.sqrt(2.0))
                out.append(1j * (units[i, j] - units[j, i]) / np.sqrt(2.0))
    return np.array(out, dtype=complex)


@lru_cache(maxsize=16)
def spin_blocks(n_qubits: int, kind: str) -> SpinBlocks:
    """Isometry onto one copy of each total-spin block of a symmetry algebra.

    The built-in kinds take copy 0 of every block of ``_schur_blocks``:
    permutation blocks are one irrep lowered by J_- from a highest-weight
    vector, collective blocks the highest-weight space.  Custom kinds get the
    identity as a single block, so the compressed view equals the dense one.
    Cached per (n_qubits, kind); the returned arrays are read-only.
    """
    if kind not in _KINDS:
        raise ValueError(f"unknown symmetry kind {kind!r}")
    if kind in (KIND_PERMUTATION, KIND_COLLECTIVE):
        blocks = _schur_blocks(n_qubits, kind)
    else:
        blocks = [np.eye(2**n_qubits)[:, :, None]]
    isometry = np.hstack([cols[:, :, 0] for cols in blocks])
    isometry.setflags(write=False)
    return SpinBlocks(
        isometry,
        tuple(cols.shape[1] for cols in blocks),
        tuple(cols.shape[2] for cols in blocks),
    )


def project_onto_basis(rho, basis: SymmetricBasis) -> SymmetricCoefficients:
    """Expansion coefficients alpha_i = <S_i, rho> (real for Hermitian rho)."""
    rho = as_matrix(rho)
    d = basis.dim
    if rho.shape != (d, d):
        raise ValueError(f"operator shape {rho.shape} does not match basis dim {d}")
    alpha = np.einsum("iab,ab->i", basis.elements.conj(), rho).real
    return SymmetricCoefficients(basis, alpha)


def reconstruct(coeffs: SymmetricCoefficients) -> np.ndarray:
    """Assemble sum_i alpha_i S_i (Hermitian since alpha is real)."""
    alpha = np.asarray(coeffs.alpha, dtype=float)
    if alpha.shape != (coeffs.basis.size,):
        raise ValueError(
            f"coefficient length {alpha.shape} does not match basis size {coeffs.basis.size}"
        )
    return np.einsum("i,iab->ab", alpha, coeffs.basis.elements)


def symmetrize(rho, basis: SymmetricBasis) -> np.ndarray:
    """Orthogonal projection of an operator onto the span of the basis."""
    return reconstruct(project_onto_basis(rho, basis))


def permutation_basis_size(n: int) -> int:
    """Closed-form dimension of the permutation symmetry algebra on n qubits."""
    return (n + 1) * (n + 2) * (n + 3) // 6
