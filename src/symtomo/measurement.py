"""Pauli-basis measurement simulation and frequency extraction.

A *setting* is a string over ``XYZ`` naming the single-qubit basis measured
on each qubit (qubit 0 = leftmost character).  Outcomes are big-endian
bitstrings; bit ``0`` records the +1 eigenvalue.  An *observable* is a string
over ``IXYZ``; its operator is the tensor product of +1 eigenprojectors on
the non-identity slots, so its expectation under a state is the probability
of reading all-+1 outcomes on those slots.

Frequencies can come from multinomial sampling at finite shot count or from
exact Born probabilities ("analytic mode", histograms with ``shots=None``
whose counts hold probabilities).  For permutation-invariant states,
estimates may be pooled over all permutations of an observable and every
compatible measured setting.

This module also owns how a product projector meets an operator basis
(``_Space``): the rows tr(E S_i) of observable projectors E on the basis
elements S_i, read off the Schur blocks of a built-in basis with no d x d
element.  The estimators take their records' design rows from it, and
setting selection its outcome rows: outcome b of a setting is a signed sum
of the rows of the setting's marginal strings.
"""

from __future__ import annotations

import itertools
import json
import numbers
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .operators import (EIG_FLOOR, HADAMARD, PAULI_I, TRACE_ATOL, _check_number, _tensor_stack,
                        as_matrix, num_qubits)
from .symmetry import (SymmetricBasis, _block_operator, _block_sizes, _column_mult, _one_block,
                       _unit_coordinates)

RANK_TOL = 1e-9  # singular values below this do not count toward map rank
COND_TIE_RTOL = 1e-9  # condition numbers this close (relative) are tied

_AXES = "XYZ"
_OBS_LETTERS = "IXYZ"

# Unitaries mapping each axis' eigenbasis onto the computational basis
# (rows are the bra vectors of the +1 and -1 eigenstates, in that order).
_BASIS_ROTATIONS = {
    "X": HADAMARD,
    "Y": np.array([[1.0, -1.0j], [1.0, 1.0j]], dtype=complex) / np.sqrt(2.0),
    "Z": PAULI_I,
}

# +1 eigenprojectors of the three Pauli axes; identity for an "I" slot.
_PLUS_PROJECTORS = {
    "I": PAULI_I,
    "X": np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex),
    "Y": np.array([[0.5, -0.5j], [0.5j, 0.5]], dtype=complex),
    "Z": np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex),
}

# +1 eigenvectors of the three Pauli axes: each projector above is v v^dag.
_PLUS_STATES = {
    "X": np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0),
    "Y": np.array([1.0, 1.0j], dtype=complex) / np.sqrt(2.0),
    "Z": np.array([1.0, 0.0], dtype=complex),
}


def check_setting(setting: str, n_qubits: int | None = None) -> str:
    if not setting or any(c not in _AXES for c in setting):
        raise ValueError(f"invalid measurement setting {setting!r}")
    if n_qubits is not None and len(setting) != n_qubits:
        raise ValueError(f"setting {setting!r} does not address {n_qubits} qubits")
    return setting


def check_observable(ops: str, n_qubits: int | None = None) -> str:
    if not ops or any(c not in _OBS_LETTERS for c in ops):
        raise ValueError(f"invalid observable string {ops!r}")
    if n_qubits is not None and len(ops) != n_qubits:
        raise ValueError(f"observable {ops!r} does not address {n_qubits} qubits")
    return ops


def _check_shots(shots) -> None:
    if isinstance(shots, bool) or not isinstance(shots, numbers.Integral) or shots <= 0:
        raise ValueError(f"shots must be a positive integer, got {shots!r}")


@dataclass(frozen=True, eq=False)
class OutcomeHistogram:
    """Counts per outcome bitstring for one measurement setting.

    ``shots`` is the total number of samples; ``shots=None`` marks an exact
    (analytic) record whose counts are Born probabilities summing to one.
    """

    setting: str
    counts: dict
    shots: int | None

    def __post_init__(self):
        check_setting(self.setting)
        n = len(self.setting)
        total = 0.0
        for outcome, count in self.counts.items():
            if len(outcome) != n or any(b not in "01" for b in outcome):
                raise ValueError(f"invalid outcome {outcome!r} for setting {self.setting!r}")
            if not count >= 0:  # NaN-safe
                raise ValueError(f"count {count!r} for outcome {outcome!r} is not a non-negative number")
            if isinstance(count, bool) or (self.shots is not None and count % 1):
                raise ValueError(f"count {count!r} for outcome {outcome!r} is not a whole number")
            total += count
        if self.shots is None:
            if not abs(total - 1.0) <= 1e-9:
                raise ValueError(f"exact histogram probabilities sum to {total!r}, not 1")
        else:
            _check_shots(self.shots)
            if total != self.shots:
                raise ValueError(f"counts sum {total!r} does not match shots {self.shots}")

    @property
    def n_qubits(self) -> int:
        return len(self.setting)


@dataclass(frozen=True)
class ObservableRecord:
    """One observable string, with its estimated frequency if it was measured.

    ``frequency=None`` marks an observable that carries no data; otherwise
    it is a finite real in [0, 1], up to the 1e-9 that an analytic
    histogram's probabilities may miss their sum by.  The string determines
    the operator: ``projector`` builds the dense d x d
    ``observable_projector(ops)`` on each read, so a record stores no matrix.
    """

    ops: str
    frequency: float | None = None

    def __post_init__(self):
        check_observable(self.ops)
        if self.frequency is not None:
            _check_number(f"frequency of {self.ops!r}", self.frequency, numbers.Real, low=-1e-9, high=1 + 1e-9)

    @property
    def measured(self) -> bool:
        return self.frequency is not None

    @property
    def projector(self) -> np.ndarray:
        return observable_projector(self.ops)


def pi_settings(n_qubits: int) -> list[str]:
    """Canonical settings for permutation-invariant states.

    One representative per multiset of axes: the letters sorted with
    X < Y < Z.  There are (n+1)(n+2)/2 of them.
    """
    _check_number("n_qubits", n_qubits, low=1)
    return [
        "".join(combo)
        for combo in itertools.combinations_with_replacement(_AXES, n_qubits)
    ]


def full_settings(n_qubits: int) -> list[str]:
    """All 3^n product settings, lexicographic."""
    _check_number("n_qubits", n_qubits, low=1)
    return ["".join(p) for p in itertools.product(_AXES, repeat=n_qubits)]


def _by_identity_count(strings) -> list[str]:
    return sorted(strings, key=lambda s: (s.count("I"), s))


def _pooled_key(ops) -> str:
    """Canonical multiset spelling: non-identity letters sorted, then the ``I``s."""
    non_i = sorted(c for c in ops if c != "I")
    return "".join(non_i) + "I" * (len(ops) - len(non_i))


def pi_observables(n_qubits: int) -> list[str]:
    """Canonical observable family for permutation-invariant estimation.

    One representative per multiset over I, X, Y, Z -- non-identity letters
    sorted first, identities trailing -- ordered by identity count and then
    lexicographically.  The family has (n+1)(n+2)(n+3)/6 members, matching
    the dimension of the permutation symmetry algebra.
    """
    _check_number("n_qubits", n_qubits, low=1)
    return _by_identity_count(
        _pooled_key(combo)
        for combo in itertools.combinations_with_replacement("XYZI", n_qubits)
    )


def full_observables(n_qubits: int) -> list[str]:
    """All 4^n observable strings, ordered by identity count then lexicographically."""
    _check_number("n_qubits", n_qubits, low=1)
    return _by_identity_count(
        "".join(p) for p in itertools.product(_OBS_LETTERS, repeat=n_qubits)
    )


def marginal_observables(settings) -> list[str]:
    """Observables with at least one identity slot obtainable from the settings.

    Every returned string agrees with at least one setting on its non-identity
    slots, so its frequency can be computed from that setting's histogram by
    marginalization.
    """
    return _by_identity_count({
        "".join(letters)
        for setting in settings
        for letters in itertools.product(*(("I", c) for c in check_setting(setting)))
        if "I" in letters
    })


def _nonempty(settings) -> list[str]:
    """The settings as a list; refuses none at all, which name no qubit count."""
    settings = list(settings)
    if not settings:
        raise ValueError("no measurement settings were given")
    return settings


def covered_observables(settings) -> tuple[list[str], list[str]]:
    """Split ``full_observables(n)``, in order, by whether the settings determine each frequency.

    An observable is covered when it is one of the settings or one of their
    marginals: exactly the strings ``extract_frequencies`` can estimate from
    these settings' histograms without pooling.
    """
    settings = _nonempty(settings)
    determined = set(settings) | set(marginal_observables(settings))
    everything = full_observables(len(settings[0]))
    return [o for o in everything if o in determined], [o for o in everything if o not in determined]


def record_plan(mode: str, symmetry: str, settings) -> tuple[list[str], list[str], bool]:
    """The observables an estimator gets records for: ``(measured, unmeasured, pooled)``.

    git on the permutation kind measures the pooled family
    ``pi_observables(n)`` (``pooled`` is then true: pass it to
    ``extract_frequencies`` as ``pi_mode``).  Every other estimator measures
    the covered observables, and cvqt also gets the uncovered rest as
    frequency-free records (``unmeasured_records``).
    """
    settings = _nonempty(settings)
    if mode == "git" and symmetry == "permutation":
        return pi_observables(len(settings[0])), [], True
    covered, uncovered = covered_observables(settings)
    return covered, uncovered if mode == "cvqt" else [], False


def setting_rotation(setting: str) -> np.ndarray:
    """Unitary rotating the setting's product eigenbasis onto the computational basis."""
    check_setting(setting)
    return _tensor_stack(_BASIS_ROTATIONS, [setting])[0]


def observable_projector(ops: str) -> np.ndarray:
    """Tensor of +1 eigenprojectors (identity on ``I`` slots)."""
    return _observable_projectors([check_observable(ops)])[0]


def _observable_projectors(strings) -> np.ndarray:
    """(m, d, d) stack of the ``observable_projector`` of each of m checked, equal-length strings."""
    return _tensor_stack(_PLUS_PROJECTORS, strings)


def born_probabilities(rho, setting: str) -> np.ndarray:
    """Outcome distribution of measuring ``rho`` in the given product basis.

    Entry ``b`` is tr(P_b rho) for the rank-one product projector labeled by
    bitstring ``b``.  A distribution no state gives -- an entry below
    ``EIG_FLOOR`` or a total off 1 by more than ``TRACE_ATOL``, the
    tolerances of ``assert_density_matrix`` -- raises ``ValueError`` naming
    the setting; tiny negative values from roundoff are clipped and the
    vector is renormalized.  With u the setting's rotation, entry b is
    (u rho u^dag)_bb = sum_k (u rho)_bk conj(u_bk): one matrix product and a
    row sum.
    """
    rho = as_matrix(rho)
    check_setting(setting, num_qubits(rho.shape[0]))
    u = setting_rotation(setting)
    probs = np.real(((u @ rho) * u.conj()).sum(-1))
    if not (probs.min() >= EIG_FLOOR and abs(probs.sum() - 1.0) <= TRACE_ATOL):
        raise ValueError(f"setting {setting}: outcome probabilities of a non-state "
                         f"(lowest {probs.min():.3e}, total {probs.sum():.12g})")
    probs = np.clip(probs, 0.0, None)
    return probs / probs.sum()


def bit_labels(n_qubits: int) -> list[str]:
    return [format(i, f"0{n_qubits}b") for i in range(2**n_qubits)]


def sample_histogram(probs, shots: int, seed, setting: str) -> OutcomeHistogram:
    """Multinomial sample of an outcome distribution.

    ``seed`` may be an integer or a ``numpy.random.Generator`` (passed by
    value in the sense that an integer always reproduces the same draw).
    """
    _check_shots(shots)
    probs = np.asarray(probs, dtype=float)
    if probs.ndim != 1 or abs(probs.sum() - 1.0) > 1e-9 or probs.min() < -1e-12:
        raise ValueError("probs must be a nonnegative vector summing to 1")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    draws = rng.multinomial(shots, np.clip(probs, 0.0, None) / probs.sum())
    labels = bit_labels(len(setting))
    counts = {lab: int(c) for lab, c in zip(labels, draws) if c > 0}
    return OutcomeHistogram(setting=setting, counts=counts, shots=int(shots))


def exact_histogram(rho, setting: str) -> OutcomeHistogram:
    """Analytic-mode histogram: counts hold exact Born probabilities."""
    probs = born_probabilities(rho, setting)
    labels = bit_labels(len(setting))
    counts = {lab: float(p) for lab, p in zip(labels, probs) if p > 0.0}
    return OutcomeHistogram(setting=setting, counts=counts, shots=None)


def sample_state(rho, settings, shots: int | None, seed=0) -> list[OutcomeHistogram]:
    """Measure a state in several settings; ``shots=None`` gives analytic records."""
    if shots is None:
        return [exact_histogram(rho, s) for s in settings]
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    return [
        sample_histogram(born_probabilities(rho, s), shots, rng, s) for s in settings
    ]


def _zero_frequencies(hist: OutcomeHistogram) -> np.ndarray:
    """Entry M: share of outcomes reading 0 on every slot of mask M (bit n-1-i: qubit i)."""
    table = np.zeros((2,) * hist.n_qubits)
    for outcome, count in hist.counts.items():
        table.flat[int(outcome, 2)] = count
    for axis in range(table.ndim):  # index B: counts of outcomes reading 0 wherever B is 0
        table = table.cumsum(axis)
    return table.ravel()[::-1] / (hist.shots or 1.0)  # entry M sits at B = complement of M


def extract_frequencies(histograms, targets, pi_mode: bool = False) -> list[ObservableRecord]:
    """Estimate each target observable's frequency from measured histograms.

    For every target, each histogram contributes one estimate per compatible
    observable string (the target itself, or -- in ``pi_mode`` -- any
    permutation of it); the recorded frequency is the unweighted mean of all
    contributions.  A target no histogram can estimate raises ``ValueError``.

    Counted, not enumerated: one O(n 2^n) subset-sum pass per histogram gives
    the estimate of every mask of non-identity slots, filed under its one
    compatible string (the setting's letters on it; canonical in ``pi_mode``).
    Each record holds the target string and its frequency; no operator is
    built here, so extraction costs no d x d matrices.
    """
    histograms = list(histograms)
    if not histograms:
        raise ValueError("no histograms supplied")
    n = histograms[0].n_qubits
    filed: dict[str, list[float]] = {}
    for hist in histograms:
        check_setting(hist.setting, n)
        # ascending M, so each key's estimates come in lexicographic string order
        masked = itertools.product(*(("I", c) for c in hist.setting))
        for letters, est in zip(masked, _zero_frequencies(hist).tolist()):
            key = _pooled_key(letters) if pi_mode else "".join(letters)
            filed.setdefault(key, []).append(est)
    records = []
    for ops in targets:
        check_observable(ops, n)
        estimates = filed.get(_pooled_key(ops) if pi_mode else ops)
        if not estimates:
            raise ValueError(f"no measured setting can estimate observable {ops!r}")
        records.append(ObservableRecord(ops, float(np.mean(estimates))))
    return records


def unmeasured_records(targets) -> list[ObservableRecord]:
    """Frequency-free records for observables that carry no data."""
    return [ObservableRecord(ops) for ops in targets]


# ---------------------------------------------------------------------------
# Design rows: how a product projector meets a basis
# ---------------------------------------------------------------------------

class _Space(NamedTuple):
    """The space a basis spans: a block algebra, and the basis in its unit coordinates.

    ``blocks`` are the algebra's (d, block, copies) arrays: a built-in
    basis's own (``SymmetricBasis.blocks``), or the full space's one identity
    block.  ``coords`` is None when the basis is the blocks' matrix units
    themselves; a basis given by its elements alone is the full space's
    units composed with ``coords``, the (d^2, r) unit coordinates of its
    elements.  Rows and traces are pulled back through ``coords``, and
    coefficients pushed forward, so no d x d element is formed.
    """

    blocks: tuple
    coords: np.ndarray | None

    def rows(self, strings) -> np.ndarray:
        """The (m, r) rows tr(E S_i) of the observable projectors E of checked ``strings``."""
        rows = _unit_rows(strings, self.blocks)
        return rows if self.coords is None else rows @ self.coords

    def traces(self) -> np.ndarray:
        """tr(S_i): sqrt(copies) on the diagonal units of each block, 0 on the others."""
        root = np.diag(np.sqrt(_column_mult(self.blocks)))
        traces = _unit_coordinates(root, _block_sizes(self.blocks))
        return traces if self.coords is None else traces @ self.coords

    def units(self, c: np.ndarray) -> np.ndarray:
        """The unit coordinates of (..., r) basis coefficients."""
        return c if self.coords is None else c @ self.coords.T

    def state(self, c: np.ndarray) -> np.ndarray:
        """The Hermitian d x d matrix sum_i c_i S_i, assembled block by block."""
        rho = _block_operator(self.units(c), self.blocks)
        return 0.5 * (rho + rho.conj().T)


def _search_space(basis: SymmetricBasis | None, dim: int) -> _Space:
    """The space a basis spans, or the full space.

    A symmetric basis comes with the blocks it was built from.  One given by
    its elements alone must be Hermitian, orthonormal and span the identity,
    to 1e-9, and becomes the full space composed with its elements' unit
    coordinates.  ``basis=None`` is the full space, the commutant of the
    trivial group: the matrix units of one d x d identity block, 4^n
    coefficients, which limits it to six qubits.
    """
    if basis is not None:
        if basis.dim != dim:
            raise ValueError(f"basis dimension {basis.dim} does not match dim {dim}")
        if basis.blocks is not None:
            return _Space(basis.blocks, None)
        elements = basis.elements
        coords = _unit_coordinates(elements, (dim,)).T
        identity = _unit_coordinates(np.eye(dim), (dim,))
        for fault, deviation in (
            ("are not Hermitian", np.abs(elements - elements.conj().transpose(0, 2, 1)).max()),
            ("are not orthonormal", np.abs(coords.T @ coords - np.eye(len(elements))).max()),
            ("do not span the identity", np.linalg.norm(coords @ (identity @ coords) - identity)),
        ):
            if not deviation <= 1e-9:
                raise ValueError(f"basis elements {fault} (deviation {deviation:.1e} > 1e-9)")
        return _Space(_one_block(dim), coords)
    if num_qubits(dim) > 6:
        raise ValueError("full-space estimation solves for 4^n coefficients; practical up to 6 qubits")
    return _Space(_one_block(dim), None)


# +1 eigenvectors by letter index in "IXYZ"; row 0, for I, is never read
_PLUS_TABLE = np.array([np.zeros(2), _PLUS_STATES["X"], _PLUS_STATES["Y"], _PLUS_STATES["Z"]])


def _unit_rows(strings, blocks) -> np.ndarray:
    """Rows tr(E S_k) = tr(W_b h_k) of the observable projectors E of checked ``strings`` on the units of ``blocks``.

    E = A A^dag, with A the +1 eigenvectors on the slots of the string that
    are not ``I`` and the identity on its ``I`` slots, so
    W_b = sum_c Y_c^dag Y_c / sqrt(copies_b) with Y_c = A^dag V_c.  Strings
    are grouped by their ``I`` slots: for each group, those qubits' axes of
    the block columns (real, the Schur transform) go to the back, one real
    product with the eigenvector tensors gives every string's Y, and W_b is
    one batched Gram matrix per block.  The full space, one identity block,
    has W = E: its rows are E's own entries, gathered from the projectors.
    """
    d = blocks[0].shape[0]
    sizes = _block_sizes(blocks)
    if sizes == (d,) and np.array_equal(blocks[0][:, :, 0], np.eye(d)):  # one copy of one identity block
        return _unit_coordinates(_observable_projectors(strings), sizes)
    n = num_qubits(d)
    letters = np.array([[_OBS_LETTERS.index(c) for c in ops] for ops in strings], dtype=np.intp)
    traced = letters == 0
    group_of = traced @ (1 << np.arange(n))
    columns = np.hstack([cols.reshape(d, -1) for cols in blocks]).reshape((2,) * n + (d,))
    w = np.zeros((len(strings), sum(sizes), sum(sizes)), dtype=complex)
    for group in sorted(set(group_of.tolist())):
        rows = np.flatnonzero(group_of == group)
        kept, free = np.flatnonzero(~traced[rows[0]]), np.flatnonzero(traced[rows[0]])
        psi = np.ones((len(rows), 1), dtype=complex)
        for q in kept:
            psi = (psi[:, :, None] * _PLUS_TABLE[letters[rows, q]][:, None, :]).reshape(len(rows), -1)
        v = columns.transpose(*kept, *free, n).reshape(psi.shape[1], -1)
        y = np.vstack([psi.real, -psi.imag]) @ v  # conj(psi) @ v, in real and imaginary parts
        y = (y[:len(rows)] + 1j * y[len(rows):]).reshape(len(rows), 2 ** len(free), d)
        offset = column = 0
        for cols in blocks:
            _, size, copies = cols.shape
            part = y[:, :, column:column + size * copies].reshape(len(rows), -1, size, copies)
            z = part.transpose(0, 2, 1, 3).reshape(len(rows), size, -1)
            gram = z.conj() @ z.transpose(0, 2, 1)
            w[rows, offset:offset + size, offset:offset + size] = gram / np.sqrt(copies)
            offset += size
            column += size * copies
    return _unit_coordinates(w, sizes)


def _outcome_rows(space: _Space, settings) -> np.ndarray:
    """(C, 2^n, r) rows tr(P_b S_i) of the outcome projectors P_b of each of C checked settings.

    P_b is the product over qubits of P+ where b_q = 0 and I - P+ where
    b_q = 1, so its row is a signed sum of the rows of the setting's 2^n
    marginal strings, each slot the setting's letter or ``I``.  On a
    (2,) * n grid of those rows, the letter at index 0 and ``I`` at 1, one
    difference y[1] <- y[1] - y[0] per axis leaves outcome b's row at index
    b: the inverse of the subset sum in ``_zero_frequencies``.  Each distinct
    marginal string's row is computed once, for all settings.
    """
    n = len(settings[0])
    index: dict[str, int] = {}
    where = [index.setdefault("".join(letters), len(index))
             for setting in settings for letters in itertools.product(*((c, "I") for c in setting))]
    y = space.rows(list(index))[where].reshape((len(settings),) + (2,) * n + (-1,))
    for axis in range(1, n + 1):
        y[(slice(None),) * axis + (1,)] -= y[(slice(None),) * axis + (0,)]
    return y.reshape(len(settings), 2**n, -1)


def _setting_response(basis: SymmetricBasis, setting: str) -> np.ndarray:
    """Linear map rows from basis coefficients to this setting's outcome probabilities."""
    return _outcome_rows(_search_space(basis, basis.dim), [check_setting(setting, basis.n_qubits)])[0]


# ---------------------------------------------------------------------------
# Setting selection
# ---------------------------------------------------------------------------

def select_settings(basis: SymmetricBasis, candidates, k: int | None = None) -> list[str]:
    """Greedy measurement-design: pick ``k`` settings for a symmetric family.

    ``k`` defaults to twice the basis size, capped at the number of distinct
    candidates.

    At each step the candidate maximizing the rank of the stacked
    coefficients-to-probabilities map is chosen; ties fall to the candidate
    minimizing the map's condition number, then to lexicographic order.
    Condition numbers within a relative ``COND_TIE_RTOL`` count as tied, so
    roundoff cannot break a tie and the choice depends only on the span of
    the basis, not on which orthonormal elements represent it.

    Each candidate's rows come from the rows of its marginal strings, the
    rows the estimators use for their records (``_outcome_rows``).  The
    chosen rows are kept as the R factor of their QR decomposition (at most
    r x r), which has their singular values, and each round scores every
    remaining candidate by one batched SVD of the stacked [R; A_s].
    """
    candidates = sorted({check_setting(s, basis.n_qubits) for s in candidates})
    if k is None:
        k = min(len(candidates), 2 * basis.size)
    if not 0 < k <= len(candidates):
        raise ValueError(f"cannot pick {k} settings from {len(candidates)} candidates")
    responses = _outcome_rows(_search_space(basis, basis.dim), candidates)  # (C, 2^n, r)
    remaining = list(range(len(candidates)))
    chosen: list[str] = []
    reduced = np.zeros((0, basis.size))
    for _ in range(k):
        stacked = np.concatenate(
            [np.broadcast_to(reduced, (len(remaining),) + reduced.shape), responses[remaining]], axis=1
        )
        sv = np.linalg.svd(stacked, compute_uv=False)  # (remaining, min(rows, r)), descending
        rank = (sv > RANK_TOL).sum(axis=1)
        top = rank == rank.max()
        cond = np.full(len(remaining), np.inf)
        if rank.max():
            cond[top] = sv[top, 0] / sv[top, rank.max() - 1]
        least = cond[top].min()
        # remaining is in sorted order, so the first tied candidate is the lexicographic pick
        best = remaining.pop(int(np.flatnonzero(top & (cond <= least * (1.0 + COND_TIE_RTOL)))[0]))
        chosen.append(candidates[best])
        reduced = np.linalg.qr(np.vstack([reduced, responses[best]]), mode="r")
    return chosen


def response_rank(basis: SymmetricBasis, settings) -> int:
    """Rank of the stacked coefficients-to-probabilities map for given settings."""
    settings = [check_setting(s, basis.n_qubits) for s in _nonempty(settings)]
    rows = _outcome_rows(_search_space(basis, basis.dim), settings).reshape(-1, basis.size)
    sv = np.linalg.svd(rows, compute_uv=False)
    return int((sv > RANK_TOL).sum())


# ---------------------------------------------------------------------------
# Histogram persistence
# ---------------------------------------------------------------------------

def save_histograms(path, histograms, n_qubits: int | None = None) -> None:
    histograms = list(histograms)
    if not histograms:
        raise ValueError("no histograms to save")
    n = n_qubits if n_qubits is not None else histograms[0].n_qubits
    records = []
    for h in histograms:
        if h.n_qubits != n:
            raise ValueError("histograms address differing qubit counts")
        if h.shots is None:
            raise ValueError("analytic histograms are in-memory only; sample to persist")
        records.append({"setting": h.setting, "shots": h.shots, "counts": dict(h.counts)})
    payload = {"n_qubits": n, "records": records}
    Path(path).write_text(json.dumps(payload, indent=1) + "\n")


def ingest_histograms(path) -> list[OutcomeHistogram]:
    """Load and validate a histogram file, reporting which record is broken."""
    payload = json.loads(Path(path).read_text())
    if not isinstance(payload, dict) or "n_qubits" not in payload or "records" not in payload:
        raise ValueError("histogram file must be an object with 'n_qubits' and 'records'")
    n = payload["n_qubits"]
    _check_number("n_qubits", n, low=1)
    records = payload["records"]
    if not isinstance(records, list) or not records:
        raise ValueError("'records' must be a non-empty list of histogram objects")
    out = []
    for pos, rec in enumerate(records):
        where = f"records[{pos}]"
        if not isinstance(rec, dict):
            raise ValueError(f"{where}: expected an object")
        missing = {"setting", "shots", "counts"} - rec.keys()
        if missing:
            raise ValueError(f"{where}: missing fields {sorted(missing)}")
        if not isinstance(rec["counts"], dict):
            raise ValueError(f"{where}: 'counts' must be an object mapping outcomes to counts")
        try:
            hist = OutcomeHistogram(
                setting=str(rec["setting"]),
                counts=dict(rec["counts"]),
                shots=rec["shots"],
            )
            check_setting(hist.setting, n)
        except (ValueError, TypeError) as exc:
            raise ValueError(f"{where} (setting {rec.get('setting')!r}): {exc}") from exc
        out.append(hist)
    return out
