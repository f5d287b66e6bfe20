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
  cached change of basis yields the matrix units of every block and so an
  orthonormal basis of either algebra.  It is built in the weight spaces of
  the computational states with w ones (M = n/2 - w), where J_- from weight
  w to w + 1 is a 0/1 matrix of C(n, w + 1) x C(n, w): an SVD of one such
  map gives the highest weights of each J, and products with the next maps
  lower them, so no d x d operator is formed.
* SVD route, for custom kinds: stack the vectorized commutation constraints
  for every generator and extract the joint null space by singular value
  decomposition; the Hermitian parts of the null vectors are orthonormalized
  under the Hilbert-Schmidt inner product by a second, real SVD.  The test
  suite uses it as the reference for the Schur route.

A basis built by the Schur route keeps the blocks its elements were made
from (``SymmetricBasis.blocks``) and builds its dense elements only when they
are read: one copy of every block, plus the number of copies, represents any
member of the algebra exactly.  Operators meet the algebra through the real
coordinates of its matrix units (``_unit_coordinates``): the coefficients of
an operator (``project_onto_basis``), the operator of coefficients
(``reconstruct``), and the estimators' design rows, traces and states are
read off s x s blocks, s the sum of the block sizes, with no d x d element.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import combinations

import numpy as np

from .operators import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    _assert_finite,
    _check_number,
    _on_qubits,
    as_matrix,
    assert_hermitian,
    assert_unitary,
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
        _check_number("n_qubits", self.n_qubits, low=1)
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


@dataclass(frozen=True, init=False, eq=False)
class SymmetricBasis:
    """Orthonormal Hermitian operators spanning a symmetry algebra.

    ``elements`` has shape (r, d, d); every element commutes with all group
    generators and ``<S_i, S_j> = delta_ij`` under the Hilbert-Schmidt inner
    product.  ``SymmetricBasis(n_qubits, kind, elements)`` makes a basis from
    its elements alone.  It refuses, naming the fault, elements that are not
    an (r, 2^n, 2^n) array with r >= 1, that are not finite, or that are not
    Hermitian and orthonormal to 1e-9.  It keeps a read-only copy of them and
    of their unit coordinates on the full space's matrix units
    (``_unit_coordinates``), through which the estimators and setting
    selection read the basis.

    ``blocks`` is set only by ``compute_commutant_basis`` for the built-in
    kinds: the read-only (d, block, copies) arrays of the algebra's total-spin
    blocks, whose matrix units are exactly the elements
    (``_block_matrix_units(blocks)``).  Such a basis builds its dense
    elements on first read, and ``size`` is the sum of the squared block
    sizes.  ``blocks`` is None for custom kinds and for a basis built from
    its elements alone, whatever its ``kind`` label says.
    """

    n_qubits: int
    kind: str
    blocks: tuple | None = field(default=None, repr=False)

    def __init__(self, n_qubits: int, kind: str, elements: np.ndarray):
        _check_number("n_qubits", n_qubits, low=1)
        d = 2**n_qubits
        elements = np.array(elements, dtype=complex)
        if elements.ndim != 3 or elements.shape[1:] != (d, d) or not len(elements):
            raise ValueError(f"basis elements of shape {elements.shape} are not (r, {d}, {d}) with r >= 1")
        _assert_finite(elements, "a basis element")
        coords = _unit_coordinates(elements, (d,))
        for fault, deviation in (
            ("are not Hermitian", np.abs(elements - elements.conj().transpose(0, 2, 1)).max()),
            ("are not orthonormal", np.abs(coords @ coords.T - np.eye(len(elements))).max()),
        ):
            if not deviation <= 1e-9:
                raise ValueError(f"basis elements {fault} (deviation {deviation:.1e} > 1e-9)")
        elements.setflags(write=False)
        coords.setflags(write=False)
        object.__setattr__(self, "n_qubits", n_qubits)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "blocks", None)
        self.__dict__["elements"] = elements
        self.__dict__["_coords"] = coords  # (r, d^2)

    @classmethod
    def _of_blocks(cls, n_qubits: int, kind: str, blocks: tuple) -> "SymmetricBasis":
        basis = cls.__new__(cls)
        object.__setattr__(basis, "n_qubits", n_qubits)
        object.__setattr__(basis, "kind", kind)
        object.__setattr__(basis, "blocks", blocks)
        return basis

    @cached_property
    def elements(self) -> np.ndarray:
        return _block_matrix_units(self.blocks)

    @property
    def size(self) -> int:
        if self.blocks is not None:
            return sum(cols.shape[1] ** 2 for cols in self.blocks)
        return self.elements.shape[0]

    @property
    def dim(self) -> int:
        return 2**self.n_qubits


@dataclass(frozen=True)
class SymmetricCoefficients:
    """Real expansion coefficients of an operator over a ``SymmetricBasis``."""

    basis: SymmetricBasis
    alpha: np.ndarray


_SWAP = np.eye(4)[[0, 2, 1, 3]]


def _collective(op: np.ndarray, n: int) -> np.ndarray:
    """The collective sum sum_q op^(q) of a one-qubit operator, a dense d x d matrix of op's dtype."""
    eye = np.eye(2**n, dtype=op.dtype)
    return sum(_on_qubits(eye, op, (q,)) for q in range(n))


def group_generators(spec: SymmetrySpec) -> list[np.ndarray]:
    """Concrete generator matrices for a symmetry spec.

    Permutation: adjacent transposition k is the two-qubit SWAP on qubits
    (k, k + 1) (n-1 of them; none for a single qubit, whose permutation group
    is trivial).  Collective: the three total-spin components
    sum_q sigma_k^(q) / 2.  Both are built by ``operators._on_qubits`` as
    complex d x d matrices.  Custom kinds return the caller's operators
    unchanged.
    """
    n = spec.n_qubits
    if spec.kind == KIND_PERMUTATION:
        eye = np.eye(2**n, dtype=complex)
        return [_on_qubits(eye, _SWAP, (k, k + 1)) for k in range(n - 1)]
    if spec.kind == KIND_COLLECTIVE:
        return [_collective(sigma / 2.0, n) for sigma in (PAULI_X, PAULI_Y, PAULI_Z)]
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
    if spec.kind not in (KIND_PERMUTATION, KIND_COLLECTIVE):
        return SymmetricBasis(spec.n_qubits, spec.kind, _null_space_basis(spec))
    return SymmetricBasis._of_blocks(spec.n_qubits, spec.kind, _schur_blocks(spec.n_qubits, spec.kind))


@lru_cache(maxsize=16)
def _schur_transform(n_qubits: int) -> tuple:
    """The total-spin basis |J, M, alpha>, one (d, 2J+1, m_J) array per J.

    J runs from n/2 down.  Axis 1 is M from J down, axis 2 the copy alpha.
    The computational states of w ones, M = n/2 - w, span a weight space,
    and J_- maps weight w into weight w + 1 as a 0/1 matrix: 1 where the
    column's ones are a subset of the row's.  The spin-J highest weights are
    the kernel of its transpose J_+ on weight (n - 2J)/2, found by one SVD of
    that C(n, w - 1) x C(n, w) block; copy alpha is lowered from the
    alpha-th of them by one product with each next map, so the copies are
    aligned and the map |M> (x) |alpha> -> column is an isometry carrying
    M_{2J+1} (x) 1 onto the permutation algebra and 1 (x) M_{m_J} onto the
    collective one.  Beside the returned columns, the largest arrays are the
    maps, of C(n, w + 1) x C(n, w).  Cached per n; read-only.
    """
    n, d = n_qubits, 2**n_qubits
    # the computational states of each weight w, and J_- from weight w into w + 1
    states = [np.array([sum(1 << q for q in ones) for ones in combinations(range(n), w)])
              for w in range(n + 1)]
    lowering = [((low & ~high[:, None]) == 0).astype(float) for low, high in zip(states, states[1:])]
    out = []
    for j2 in range(n, -1, -2):
        w = (n - j2) // 2
        # J_+ on weight w; weight 0 has no weight above it
        _, svals, vh = np.linalg.svd(lowering[w - 1].T if w else np.zeros((0, 1)))
        vecs = vh[int((svals > SINGULAR_VALUE_TOL).sum()):].T
        cols = np.zeros((d, j2 + 1, vecs.shape[1]))
        cols[states[w], 0] = vecs
        for m in range(1, j2 + 1):
            vecs = lowering[w + m - 1] @ vecs
            vecs /= np.linalg.norm(vecs, axis=0)
            cols[states[w + m], m] = vecs
        cols.setflags(write=False)
        out.append(cols)
    return tuple(out)


def _schur_blocks(n_qubits: int, kind: str) -> tuple:
    """Read-only (d, block, copies) arrays of a built-in algebra's total-spin blocks.

    Permutation kind: blocks of 2J+1, m_J copies each.  Collective kind: the
    same arrays with the last two axes swapped, blocks of m_J in 2J+1 copies.
    """
    arrays = _schur_transform(n_qubits)
    if kind == KIND_COLLECTIVE:
        return tuple(cols.swapaxes(1, 2) for cols in arrays)
    return arrays


def _block_matrix_units(blocks) -> np.ndarray:
    """Hermitian matrix units of every block, summed over its copies.

    With E_ij = sum_c |i, c><j, c| / sqrt(copies), the elements E_ii,
    (E_ij + E_ji)/sqrt(2) and i(E_ij - E_ji)/sqrt(2) for i < j are
    orthonormal by construction and span the block algebra.  They are written
    into one preallocated array, one row i of pairs i <= j at a time; E_ji is
    read as the transpose of E_ij, which holds because the block columns are
    real (the Schur transform and the identity).
    """
    d = blocks[0].shape[0]
    out = np.empty((sum(cols.shape[1] ** 2 for cols in blocks), d, d), dtype=complex)
    k = 0
    for cols in blocks:
        size, copies = cols.shape[1:]
        rows = cols.transpose(1, 0, 2)  # (block, d, copies)
        for i in range(size):
            units = (rows[i] @ rows[i:].transpose(0, 2, 1)) / np.sqrt(copies)  # E_ij for j >= i
            upper, flipped = units[1:], units[1:].transpose(0, 2, 1)
            out[k] = units[0]
            out[k + 1:k + 2 * len(upper):2] = (upper + flipped) / np.sqrt(2.0)
            out[k + 2:k + 1 + 2 * len(upper):2] = 1j * (upper - flipped) / np.sqrt(2.0)
            k += 1 + 2 * len(upper)
    return out


def _one_block(d: int) -> list[np.ndarray]:
    """The full operator space M_d as a block algebra: the identity, one block of d with one copy.

    It is the commutant of the trivial group; its matrix units
    (``_block_matrix_units``) are an orthonormal basis of all d x d operators.
    """
    return [np.eye(d)[:, :, None]]


# ---------------------------------------------------------------------------
# unit coordinates: a block algebra without its dense elements
# ---------------------------------------------------------------------------
#
# A block-diagonal s x s Hermitian matrix, s the sum of the block sizes, has
# one real coordinate per matrix unit h_k of ``_block_matrix_units``, in its
# order: tr(X h_k) is X_ii, sqrt(2) Re X_ij or sqrt(2) Im X_ij (i < j).  For
# a member sum_k u_k S_k of the algebra, the block of copy 0 is
# X_b = sum_{k in b} u_k h_k / sqrt(copies_b); for any operator A,
# tr(A S_k) = tr(W_b h_k) with W_b = sum_c V_c^dag A V_c / sqrt(copies_b),
# V_c the block's columns of copy c.  So coordinates, traces and states of
# the algebra are gathers and scatters of s x s matrices, and no d x d
# element is formed.

def _block_sizes(blocks) -> tuple:
    return tuple(cols.shape[1] for cols in blocks)


def _column_mult(blocks) -> np.ndarray:
    """The copy count of the block of each of the s columns of copy 0."""
    return np.repeat([float(cols.shape[2]) for cols in blocks], _block_sizes(blocks))


@lru_cache(maxsize=64)
def _unit_positions(sizes: tuple) -> tuple:
    """Where the matrix units of blocks of ``sizes`` sit in the real view of a block-diagonal s x s matrix.

    Unit k has ``entry[k]`` (1 on the diagonal, 1/sqrt(2) off it) at float
    ``upper[k]``, the real or imaginary part of an entry on or above the
    diagonal, and ``sign[k]`` times it at ``lower[k]``, the same part of the
    transposed entry (-1 for an imaginary part).  A Hermitian X holds the
    same pattern, so tr(X h_k) is X's float at ``upper[k]`` times
    ``weight[k]``: ``entry`` on the diagonal, twice it off the diagonal.
    Read-only, cached per block sizes.
    """
    s = sum(sizes)
    upper, lower, sign = [], [], []
    offset = 0
    for size in sizes:
        for i in range(offset, offset + size):
            upper.append(2 * (i * s + i))
            lower.append(2 * (i * s + i))
            sign.append(1.0)
            for j in range(i + 1, offset + size):
                upper += [2 * (i * s + j), 2 * (i * s + j) + 1]
                lower += [2 * (j * s + i), 2 * (j * s + i) + 1]
                sign += [1.0, -1.0]
        offset += size
    upper, lower, sign = np.array(upper), np.array(lower), np.array(sign)
    entry = np.where(upper == lower, 1.0, 1.0 / np.sqrt(2.0))
    weight = np.where(upper == lower, 1.0, 2.0 * entry)
    for a in (upper, lower, sign, entry, weight):
        a.setflags(write=False)
    return upper, lower, sign, entry, weight


def _unit_coordinates(x: np.ndarray, sizes: tuple) -> np.ndarray:
    """The (..., r) real coordinates tr(X h_k) of a stack of Hermitian block-diagonal s x s matrices."""
    upper, _, _, _, weight = _unit_positions(sizes)
    flat = np.ascontiguousarray(x, dtype=complex).view(float).reshape(x.shape[:-2] + (-1,))
    return flat.take(upper, axis=-1) * weight


def _from_unit_coordinates(u: np.ndarray, sizes: tuple) -> np.ndarray:
    """The (..., s, s) Hermitian block-diagonal matrices sum_k u_k h_k of (..., r) real coordinates."""
    upper, lower, sign, entry, _ = _unit_positions(sizes)
    s = sum(sizes)
    out = np.zeros(u.shape[:-1] + (2 * s * s,))
    out[..., lower] = u * (sign * entry)
    out[..., upper] = u * entry
    return out.view(complex).reshape(u.shape[:-1] + (s, s))


def _block_coordinates(op: np.ndarray, blocks) -> np.ndarray:
    """Coordinates Re tr(op S_k) of a d x d operator on the matrix units S_k of ``blocks``.

    W_b = sum_c V_c^dag op V_c / sqrt(copies_b) is one product with all of
    the block's columns and one batched product over its copies.
    """
    s = sum(_block_sizes(blocks))
    w = np.zeros((s, s), dtype=complex)
    offset = 0
    for cols in blocks:
        d, size, copies = cols.shape
        half = (op @ cols.reshape(d, -1)).reshape(d, size, copies)
        block = (cols.conj().transpose(2, 1, 0) @ half.transpose(2, 0, 1)).sum(axis=0)
        w[offset:offset + size, offset:offset + size] = block / np.sqrt(copies)
        offset += size
    return _unit_coordinates(0.5 * (w + w.conj().T), _block_sizes(blocks))


def _copy_blocks(u: np.ndarray, blocks) -> np.ndarray:
    """The (..., s, s) block-diagonal V^dag (sum_k u_k S_k) V, V the columns of copy 0 of ``blocks``."""
    return _from_unit_coordinates(u, _block_sizes(blocks)) / np.sqrt(_column_mult(blocks))[:, None]


def _block_operator(u: np.ndarray, blocks) -> np.ndarray:
    """The d x d operator sum_k u_k S_k of real coordinates u on the matrix units of ``blocks``.

    Each block is V_b (X_b (x) 1_copies) V_b^dag, X_b its block of copy 0:
    one product with X_b and one with all of the block's columns.
    """
    x = _copy_blocks(u, blocks)
    d = blocks[0].shape[0]
    out = np.zeros((d, d), dtype=complex)
    offset = 0
    for cols in blocks:
        size = cols.shape[1]
        by_copy = cols.transpose(0, 2, 1)  # (d, copies, block)
        half = by_copy @ x[offset:offset + size, offset:offset + size]
        out += half.reshape(d, -1) @ by_copy.reshape(d, -1).conj().T
        offset += size
    return out


def project_onto_basis(rho, basis: SymmetricBasis) -> SymmetricCoefficients:
    """Expansion coefficients alpha_i = Re <S_i, rho> (real for Hermitian rho).

    A basis with blocks reads them off its blocks, with no dense element.
    """
    rho = as_matrix(rho)
    d = basis.dim
    if rho.shape != (d, d):
        raise ValueError(f"operator shape {rho.shape} does not match basis dim {d}")
    if basis.blocks is not None:
        return SymmetricCoefficients(basis, _block_coordinates(rho, basis.blocks))
    alpha = np.einsum("iab,ab->i", basis.elements.conj(), rho).real
    return SymmetricCoefficients(basis, alpha)


def reconstruct(coeffs: SymmetricCoefficients) -> np.ndarray:
    """Assemble sum_i alpha_i S_i (Hermitian since alpha is real), from the blocks when the basis has them."""
    alpha = np.asarray(coeffs.alpha, dtype=float)
    if alpha.shape != (coeffs.basis.size,):
        raise ValueError(
            f"coefficient length {alpha.shape} does not match basis size {coeffs.basis.size}"
        )
    if coeffs.basis.blocks is not None:
        return _block_operator(alpha, coeffs.basis.blocks)
    return np.einsum("i,iab->ab", alpha, coeffs.basis.elements)


def symmetrize(rho, basis: SymmetricBasis) -> np.ndarray:
    """Orthogonal projection of an operator onto the span of the basis."""
    return reconstruct(project_onto_basis(rho, basis))


def permutation_basis_size(n: int) -> int:
    """Closed-form dimension of the permutation symmetry algebra on n qubits."""
    return (n + 1) * (n + 2) * (n + 3) // 6
