"""Dense complex-matrix primitives shared by the rest of the toolkit.

Operators are plain ``numpy`` arrays of dtype ``complex128``.  This module
collects the low-level pieces everything else is built from: Pauli matrices,
tensor products, Hermitian eigendecompositions, principal square roots of
positive semidefinite operators, partial traces over qubit subsets, the
Hilbert-Schmidt inner product, and the JSON format used to persist operators
on disk.

Conventions
-----------
* Qubit 0 is the leftmost tensor factor; computational basis states are
  indexed by big-endian bitstrings, so ``|10>`` on two qubits is index 2.
* Validation helpers raise ``ValueError`` with a descriptive message; the
  numeric tolerances they enforce are module constants so tests and callers
  can refer to a single source of truth.
"""

from __future__ import annotations

import json
import math
import numbers
from pathlib import Path

import numpy as np

# Tolerances for the physical invariants enforced throughout the package.
HERMITICITY_ATOL = 1e-10   # max-entry deviation of M from its adjoint
TRACE_ATOL = 1e-9          # |tr(rho) - 1| for density matrices
EIG_FLOOR = -1e-9          # eigenvalues in [EIG_FLOOR, 0) count as exact zeros
NORM_ATOL = 1e-10          # |  ||psi|| - 1 | for pure state vectors
UNITARITY_ATOL = 1e-9

PAULI_I = np.eye(2, dtype=complex)
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULIS = {"I": PAULI_I, "X": PAULI_X, "Y": PAULI_Y, "Z": PAULI_Z}

HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)


def as_matrix(m) -> np.ndarray:
    """Coerce input to a square complex128 array (no copy when possible)."""
    out = np.asarray(m, dtype=complex)
    if out.ndim != 2 or out.shape[0] != out.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {out.shape}")
    return out


def num_qubits(dim: int) -> int:
    """Number of qubits for Hilbert-space dimension ``dim`` (a power of two)."""
    n = int(dim).bit_length() - 1
    if dim <= 0 or 2**n != dim:
        raise ValueError(f"dimension {dim} is not a positive power of two")
    return n


def _check_number(name: str, value, kind=numbers.Integral, low=None, high=None) -> None:
    """Reject a value that is not a (finite) ``kind`` number in [low, high], naming its field."""
    if isinstance(value, bool) or not isinstance(value, kind):
        what = "an integer" if kind is numbers.Integral else "a number"
        raise ValueError(f"{name} must be {what}, got {value!r}")
    if kind is not numbers.Integral and not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    if (low is not None and not value >= low) or (high is not None and not value <= high):
        bound = f">= {low}" if high is None else f"in [{low}, {high}]"
        raise ValueError(f"{name} must be {bound}, got {value}")


def _assert_finite(m: np.ndarray, name: str) -> None:
    # checked before any deviation is computed: every comparison with NaN is false
    if not np.isfinite(m).all():
        raise ValueError(f"{name} has a non-finite entry")


def assert_hermitian(m, atol: float = HERMITICITY_ATOL, name: str = "operator") -> np.ndarray:
    m = as_matrix(m)
    _assert_finite(m, name)
    dev = np.max(np.abs(m - m.conj().T)) if m.size else 0.0
    if dev > atol:
        raise ValueError(f"{name} is not Hermitian (max deviation {dev:.3e} > {atol:.1e})")
    return m


def assert_unitary(u, atol: float = UNITARITY_ATOL, name: str = "operator") -> np.ndarray:
    u = as_matrix(u)
    _assert_finite(u, name)
    dev = np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0])))
    if dev > atol:
        raise ValueError(f"{name} is not unitary (max deviation {dev:.3e} > {atol:.1e})")
    return u


def assert_density_matrix(rho, name: str = "state") -> np.ndarray:
    """Validate Hermiticity, unit trace and positivity (small negative
    eigenvalues down to ``EIG_FLOOR`` are tolerated as numerical zeros)."""
    return _state_spectrum(rho, name, vectors=False)[0]


def _state_spectrum(rho, name: str, vectors: bool):
    """``(rho, ascending eigenvalues, eigenvectors)`` of a state checked as ``assert_density_matrix`` does.

    One decomposition serves the positivity check and the caller: ``eigh``
    with ``vectors``, else ``eigvalsh`` and None for the eigenvectors.
    """
    rho = assert_hermitian(rho, name=name)
    tr = np.trace(rho).real
    if abs(tr - 1.0) > TRACE_ATOL:
        raise ValueError(f"{name} has trace {tr!r}, expected 1 within {TRACE_ATOL:.1e}")
    vals, vecs = np.linalg.eigh(rho) if vectors else (np.linalg.eigvalsh(rho), None)
    if vals[0] < EIG_FLOOR:
        raise ValueError(f"{name} has negative eigenvalue {vals[0]:.3e} below {EIG_FLOOR:.1e}")
    return rho, vals, vecs


def assert_pure_state(vec, name: str = "state vector") -> np.ndarray:
    out = np.asarray(vec, dtype=complex).reshape(-1)
    nrm = np.linalg.norm(out)
    if abs(nrm - 1.0) > NORM_ATOL:
        raise ValueError(f"{name} has norm {nrm!r}, expected 1 within {NORM_ATOL:.1e}")
    return out


def basis_ket(bits: str) -> np.ndarray:
    """Computational basis vector for a big-endian bitstring like ``"010"``."""
    if not bits or any(b not in "01" for b in bits):
        raise ValueError(f"invalid bitstring {bits!r}")
    vec = np.zeros(2 ** len(bits), dtype=complex)
    vec[int(bits, 2)] = 1.0
    return vec


def projector(vec) -> np.ndarray:
    """Rank-one projector |v><v| for a normalized vector."""
    v = assert_pure_state(vec)
    return np.outer(v, v.conj())


def tensor(*factors) -> np.ndarray:
    """Kronecker product of one or more matrices, left factor = qubit 0."""
    if not factors:
        raise ValueError("tensor() needs at least one factor")
    out = as_matrix(factors[0])
    for f in factors[1:]:
        out = np.kron(out, as_matrix(f))
    return out


def _tensor_stack(factors: dict, strings) -> np.ndarray:
    """Stack of tensor products, entry k the ``tensor`` of ``factors[c]`` over the letters c of ``strings[k]``.

    ``factors`` maps each letter to a 2 x 2 matrix; ``strings`` holds one or
    more checked strings of one length n >= 1.  The letters index a
    (letters, 2, 2) table, and one broadcast outer product per qubit extends
    all the products at once.  Each entry is the same product of the same
    numbers as ``np.kron`` forms, so the result equals ``tensor`` bit for bit.
    """
    position = {c: i for i, c in enumerate(factors)}
    table = np.array(list(factors.values()), dtype=complex)
    letters = np.array([[position[c] for c in s] for s in strings], dtype=np.intp)
    out = table[letters[:, 0]]
    for q in range(1, letters.shape[1]):
        d = out.shape[-1]
        out = (out[:, :, None, :, None] * table[letters[:, q]][:, None, :, None, :]).reshape(-1, 2 * d, 2 * d)
    return out


def _on_qubits(m, op, qubits) -> np.ndarray:
    """``op`` applied to ``qubits`` of the row index of ``m``, the identity on the other qubits.

    ``op`` is 2^k x 2^k with its tensor factors in the order of ``qubits``;
    ``m`` has 2^n rows.  One ``tensordot`` contracts the column axes of ``op``
    with those qubits' axes of the (2,)*n + (columns,) view of ``m``, and one
    ``moveaxis`` puts the new axes back in their place, so no 2^n x 2^n
    operator is formed.
    """
    n = num_qubits(m.shape[0])
    for q in qubits:
        if not 0 <= q < n:
            raise ValueError(f"qubit {q} out of range for {n} qubits")
    k = len(qubits)
    out = np.tensordot(op.reshape((2,) * (2 * k)), m.reshape((2,) * n + (-1,)), (range(k, 2 * k), qubits))
    return np.moveaxis(out, range(k), qubits).reshape(m.shape)


def embed_one_qubit(op, qubit: int, n: int) -> np.ndarray:
    """Embed a single-qubit operator at position ``qubit`` of an n-qubit register."""
    op = as_matrix(op)
    if op.shape != (2, 2):
        raise ValueError(f"expected a 2x2 operator, got {op.shape}")
    return _on_qubits(np.eye(2**n, dtype=complex), op, (qubit,))


def pauli_string(ops: str) -> np.ndarray:
    """Tensor product of Pauli matrices named by a string over ``IXYZ``."""
    if not ops or any(c not in PAULIS for c in ops):
        raise ValueError(f"invalid Pauli string {ops!r}")
    return _tensor_stack(PAULIS, [ops])[0]


def eig_hermitian(h) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending) and matching orthonormal eigenvector columns.

    Rejects non-Hermitian input rather than silently symmetrizing it.
    """
    h = assert_hermitian(h)
    vals, vecs = np.linalg.eigh(h)
    return vals[::-1].copy(), vecs[:, ::-1].copy()


def matrix_sqrt_psd(h) -> np.ndarray:
    """Principal square root of a positive semidefinite Hermitian matrix.

    Eigenvalues in ``[EIG_FLOOR, 0)`` are clamped to zero; anything more
    negative is rejected.
    """
    vals, vecs = eig_hermitian(h)
    if vals[-1] < EIG_FLOOR:
        raise ValueError(f"matrix has negative eigenvalue {vals[-1]:.3e}; not PSD")
    vals = np.clip(vals, 0.0, None)
    root = (vecs * np.sqrt(vals)) @ vecs.conj().T
    return 0.5 * (root + root.conj().T)


def partial_trace(rho, keep) -> np.ndarray:
    """Trace out every qubit not listed in ``keep``.

    Parameters
    ----------
    rho : array
        Density operator (or any square operator) on ``n`` qubits.
    keep : sequence of int
        Qubits to retain; the result's tensor factors follow this order.
        An empty sequence yields the 1x1 matrix ``[[tr(rho)]]``.
    """
    rho = as_matrix(rho)
    n = num_qubits(rho.shape[0])
    keep = [int(q) for q in keep]
    if len(set(keep)) != len(keep):
        raise ValueError(f"duplicate qubit indices in keep={keep}")
    if any(q < 0 or q >= n for q in keep):
        raise ValueError(f"keep={keep} out of range for {n} qubits")
    if not keep:
        return np.array([[np.trace(rho)]], dtype=complex)
    work = rho.reshape([2] * (2 * n))
    idx = list(range(2 * n))
    for q in range(n):
        if q not in keep:
            idx[n + q] = idx[q]          # contract row with column axis
    out_idx = [idx[q] for q in keep] + [idx[n + q] for q in keep]
    reduced = np.einsum(work, idx, out_idx)
    d = 2 ** len(keep)
    return np.ascontiguousarray(reduced.reshape(d, d))


def hilbert_schmidt_inner(a, b) -> float:
    """<A, B> = tr(A^dag B), reported as a real number.

    Intended for Hermitian operands, where the inner product is exactly real;
    the (negligible) imaginary part of the complex result is discarded.
    """
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch {a.shape} vs {b.shape}")
    return float(np.vdot(a, b).real)


def hilbert_schmidt_norm(a) -> float:
    return float(np.linalg.norm(as_matrix(a)))


# ---------------------------------------------------------------------------
# JSON persistence: nested arrays of [re, im] pairs, row-major, plus "dim".
# ---------------------------------------------------------------------------

def matrix_to_json(m) -> dict:
    m = as_matrix(m)
    entries = [[[float(v.real), float(v.imag)] for v in row] for row in m]
    return {"dim": int(m.shape[0]), "entries": entries}


def matrix_from_json(payload: dict) -> np.ndarray:
    if not isinstance(payload, dict) or "dim" not in payload or "entries" not in payload:
        raise ValueError("matrix JSON must be an object with 'dim' and 'entries'")
    dim = int(payload["dim"])
    entries = payload["entries"]
    if len(entries) != dim or any(len(row) != dim for row in entries):
        raise ValueError(f"matrix entries do not form a {dim}x{dim} array")
    out = np.empty((dim, dim), dtype=complex)
    for i, row in enumerate(entries):
        for j, pair in enumerate(row):
            if not isinstance(pair, (list, tuple)) or len(pair) != 2:
                raise ValueError(f"entry ({i},{j}) is not an [re, im] pair")
            out[i, j] = complex(float(pair[0]), float(pair[1]))
            if not np.isfinite(out[i, j]):
                raise ValueError(f"entry ({i},{j}) is not finite: {pair!r}")
    return out


def save_matrix(path, m) -> None:
    Path(path).write_text(json.dumps(matrix_to_json(m)) + "\n")


def load_matrix(path) -> np.ndarray:
    return matrix_from_json(json.loads(Path(path).read_text()))
