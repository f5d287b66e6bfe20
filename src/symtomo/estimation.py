"""State estimators: variational fit, maximum likelihood, linear inversion.

The central estimator minimizes, over density matrices,

    alpha * sum_measured  |tr(E_i rho) - f_i| / max(|f_i|, eps)
  + beta  * sum_unmeasured tr(E_i rho)
  - gamma * log det rho

i.e. a relative-error data term, a penalty on probability mass assigned to
observables nobody measured, and an optional log-det barrier pulling the
estimate toward full rank.  The program is solved over a Hermitian operator
basis, rho = sum_i c_i S_i: a ``SymmetricBasis`` ("git" mode) or the matrix
units of one d x d block ("cvqt" mode, the same program with no symmetry
restriction, practical up to six qubits).  That block is the full operator
space, the commutant of the trivial group, and its units come from the
builder of the symmetric bases (``symmetry._block_matrix_units``).
``solve_maxlik`` instead minimizes the binomial negative log-likelihood
-sum_i [f_i log p_i + (1 - f_i) log(1 - p_i)], p_i = tr(E_i rho), over the
same matrix units.

Every estimator runs the same log-barrier Newton method (Boyd & Vandenberghe,
Convex Optimization, ch. 11) on its own data term, a convex function of the
predictions D c on the design rows.  tr(rho) = 1 is eliminated up front: the
solve runs in the coordinates c = base + P z, base the coefficients of I/d
and P an orthonormal basis of the trace-keeping directions, so every Newton
step is unconstrained.  Positivity becomes -mu*log det rho and merges with
the gamma term; damped Newton steps from z = 0 (I/d) centre the sum for a
decreasing sequence of mu.  In the relative-error term each a|e| becomes
a*t - mu*log(t^2 - e^2), the slack t eliminated in closed form; the
log-likelihood needs no slack.  At a centred point the duality gap is at
most mu*(b + d), with d = 2^n and b the data term's barrier parameter (2m
for m measured records, 0 for the likelihood), so ``converged`` certifies
that the objective is within ``objective_tolerance`` (relative) of the optimum.

The log-det terms never form the d x d state: both built-in symmetry algebras
are block diagonal in the total-spin decomposition, so rho is held as one
copy of each block (an s x s matrix, s = 12 instead of d = 32 at five qubits)
plus the blocks' multiplicities, read off the blocks the basis was built from
(``SymmetricBasis.blocks``).  One ``eigh`` of that matrix gives the spectrum,
each eigenvalue counted with multiplicity sum_a mult_a |U_ak|^2, and with it
log det rho, its gradient and its Hessian.  The full space, custom symmetries
and bases given by their elements alone get the identity as a single block of
multiplicity one, i.e. the dense computation, through the same code.

``linear_inversion`` is the plain least-squares fit (no positivity
guarantee), which tests use as an independent reference.
"""

from __future__ import annotations

import numbers
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .measurement import _observable_projectors, check_observable
from .operators import _check_number, num_qubits
from .symmetry import SymmetricBasis, _block_matrix_units, _one_block

_CENTRED = 1e-9             # half the squared Newton decrement that ends a centring stage
_MU_SHRINK = 10.0           # barrier weight divisor between centring stages
_ARMIJO = 0.25              # sufficient-decrease fraction of the line search
_LINESEARCH_MAX_TRIALS = 60


@dataclass(frozen=True)
class EstimatorConfig:
    """Hyperparameters of the estimators.

    alpha/beta/gamma weight the data term, the unmeasured-mass term and the
    barrier of the variational estimator; alpha = beta = 1 with gamma = 0 is
    the plain relative-error program, and the default gamma = 1e-3 adds a
    weak full-rank pull.  ``solve_maxlik`` does not use them.
    ``frequency_floor`` is the eps in the relative weights.
    ``max_iterations`` caps the Newton steps of every estimator's solve, and
    ``objective_tolerance`` is the relative duality gap at which it reports
    ``converged``.  ``feasibility_tolerance``, ``restarts`` and ``seed`` are
    accepted, so that saved sweep configs still load, and ignored: every
    solve is one barrier Newton solve from I/d that stops on its gap.
    """

    alpha: float = 1.0
    beta: float = 1.0
    gamma: float = 1e-3
    max_iterations: int = 2000
    objective_tolerance: float = 1e-8
    feasibility_tolerance: float = 1e-8
    frequency_floor: float = 1e-6
    restarts: int = 3
    seed: int = 0

    def __post_init__(self):
        for name in ("alpha", "beta", "gamma", "objective_tolerance", "feasibility_tolerance",
                     "frequency_floor"):
            _check_number(name, getattr(self, name), numbers.Real)
        for name in ("max_iterations", "restarts", "seed"):
            _check_number(name, getattr(self, name))
        # the barrier solve needs a convex barrier, an iteration cap, a data
        # term, a gap to reach and finite relative weights
        for name in ("beta", "gamma"):
            _check_number(name, getattr(self, name), numbers.Real, low=0)
        _check_number("max_iterations", self.max_iterations, low=0)
        for name in ("alpha", "objective_tolerance", "frequency_floor"):
            if not getattr(self, name) > 0:
                raise ValueError(f"estimator config needs {name} > 0, got {getattr(self, name)!r}")


@dataclass(frozen=True)
class EstimationProblem:
    """Observable records plus the search space (basis = None means full space)."""

    records: tuple
    basis: SymmetricBasis | None
    dim: int


@dataclass(frozen=True, eq=False)
class EstimationResult:
    rho_hat: np.ndarray
    objective: float
    delta: np.ndarray            # per-measured-record relative residuals
    feasibility_residual: float
    iterations: int
    converged: bool
    mode: str


# ---------------------------------------------------------------------------
# small numeric helpers
# ---------------------------------------------------------------------------

def _split_records(records):
    measured = [r for r in records if r.measured]
    unmeasured = [r for r in records if not r.measured]
    if not measured:
        raise ValueError("estimation needs at least one measured record")
    return measured, unmeasured


def _record_rows(records, elements):
    """Design rows and frequencies of the measured records, and the summed row of the unmeasured ones."""
    measured, unmeasured = _split_records(records)
    n = num_qubits(elements.shape[1])
    proj = _observable_projectors([check_observable(r.ops, n) for r in measured + unmeasured])
    freq = np.array([r.frequency for r in measured], dtype=float)
    rows = _design_matrix(proj, elements)
    return rows[:len(measured)], freq, rows[len(measured):].sum(axis=0)


def _design_matrix(proj: np.ndarray, elements: np.ndarray) -> np.ndarray:
    """Rows Re tr(E_m^dag S_i) = sum_ab (Re E Re S + Im E Im S)_ab: one real matmul
    of the (m, 2d^2) and (r, 2d^2) float views of the flattened complex arrays."""
    flat = np.ascontiguousarray(elements).view(float).reshape(len(elements), -1)
    return np.ascontiguousarray(proj).view(float).reshape(len(proj), -1) @ flat.T


# ---------------------------------------------------------------------------
# linear inversion
# ---------------------------------------------------------------------------

def _element_traces(elements: np.ndarray) -> np.ndarray:
    return np.real(np.einsum("iaa->i", elements))


def _trace_frame(traces: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(base, P): the unit-trace coefficients are c = base + P z, with base = traces/|traces|^2
    those of I/d and P's orthonormal columns the r - 1 directions that keep the trace."""
    _, _, vh = np.linalg.svd(traces.reshape(1, -1))
    return traces / (traces @ traces), vh[1:].T


def _warn_if_rank_deficient(design: np.ndarray) -> None:
    """Warn when the design D P, with the trace, does not pin down all r = cols + 1 coefficients."""
    sv = np.linalg.svd(design, compute_uv=False)
    rank = int((sv > 1e-9 * max(1.0, float(sv[0]))).sum())
    if rank < design.shape[1]:
        warnings.warn(
            f"measurement map is rank deficient ({rank + 1} < {design.shape[1] + 1}); "
            "the data do not determine every coefficient, so the estimate may be non-unique",
            # the caller of the public estimator, which calls _estimate or
            # _trace_one_lstsq itself, never another public estimator
            stacklevel=4,
        )


def _trace_one_lstsq(design: np.ndarray, target: np.ndarray, elements: np.ndarray) -> np.ndarray:
    """Least squares min ||D c - f|| subject to tr(sum_i c_i S_i) = 1.

    Solved as min ||D P z - (f - D base)|| in trace-one coordinates.  Returns
    the minimum-norm solution, with a warning when the data do not pin it down.
    """
    base, tangent = _trace_frame(_element_traces(elements))
    reduced = design @ tangent
    z, *_ = np.linalg.lstsq(reduced, target - design @ base, rcond=None)
    _warn_if_rank_deficient(reduced)
    return base + tangent @ z


def linear_inversion(records, basis: SymmetricBasis | None = None, dim: int | None = None) -> np.ndarray:
    """Plain least-squares reconstruction from measured records.

    The fit enforces unit trace but *not* positivity; the result can have
    negative eigenvalues, which is intentional: it serves as an unbiased
    reference for the variational solver, which starts from I/d, not from
    this fit.  Rank deficiency of the measurement map triggers a warning and
    yields the minimum-norm solution.
    """
    measured, _ = _split_records(records)
    elements, _ = _search_space(basis, 2 ** len(measured[0].ops) if dim is None else dim)
    design, freq, _ = _record_rows(measured, elements)
    coeff = _trace_one_lstsq(design, freq, elements)
    rho = np.einsum("i,iab->ab", coeff, elements)
    return 0.5 * (rho + rho.conj().T)


# ---------------------------------------------------------------------------
# the estimators
# ---------------------------------------------------------------------------

def solve_vqt(problem: EstimationProblem, config: EstimatorConfig = EstimatorConfig()) -> EstimationResult:
    """Minimize the relative-error objective over the problem's search space.

    With a basis attached the search runs over real symmetry-algebra
    coefficients ("git" mode); without one the same solve runs over the
    coefficients of the matrix units of one d x d block, the full operator
    space ("cvqt" mode, up to six qubits).
    Deterministic for fixed problem and config: one barrier Newton solve,
    started from I/d; ``iterations`` counts its Newton steps and
    ``converged`` says that its duality gap fell below the tolerance.
    """
    mode = "cvqt" if problem.basis is None else "git"
    return _estimate(problem.records, *_search_space(problem.basis, problem.dim), config, mode)


def solve_git(records, basis: SymmetricBasis, config: EstimatorConfig = EstimatorConfig()) -> EstimationResult:
    return _estimate(tuple(records), *_search_space(basis, basis.dim), config, "git")


def solve_cvqt(records, dim: int, config: EstimatorConfig = EstimatorConfig()) -> EstimationResult:
    return _estimate(tuple(records), *_search_space(None, dim), config, "cvqt")


def solve_maxlik(records, config: EstimatorConfig = EstimatorConfig()) -> EstimationResult:
    """Maximum likelihood over the full state space (up to six qubits).

    Each measured record is a two-outcome experiment {E_i, I - E_i} with
    success frequency f_i.  The barrier Newton solve of ``solve_vqt`` maximizes
    sum_i [f_i log p_i + (1 - f_i) log(1 - p_i)], p_i = tr(E_i rho), and
    ``objective`` is its negative.  Unmeasured records are ignored.  Warns when
    the records are not informationally complete: the maximum may be non-unique.
    """
    measured, _ = _split_records(records)
    return _estimate(measured, *_search_space(None, 2 ** len(measured[0].ops)), config, "maxlik")


def _search_space(basis: SymmetricBasis | None, dim: int) -> tuple[np.ndarray, tuple]:
    """The Hermitian basis an estimator solves over, with its (d, block, copies) block arrays.

    A symmetric basis comes with the blocks it was built from, or, when it has
    none, the identity as one block; such a basis, given by its elements
    alone, must be Hermitian, orthonormal and span the identity, to 1e-9.
    ``basis=None`` is the full space, the commutant of the trivial group: the
    matrix units of one d x d identity block, whose d^2 dense d x d elements
    limit it to six qubits.
    """
    if basis is not None:
        if basis.dim != dim:
            raise ValueError(f"basis dimension {basis.dim} does not match dim {dim}")
        if basis.blocks is not None:
            return basis.elements, basis.blocks
        elements = basis.elements
        flat = elements.reshape(len(elements), -1)
        traces = np.trace(elements, axis1=1, axis2=2)
        for fault, deviation in (
            ("are not Hermitian", np.abs(elements - elements.conj().transpose(0, 2, 1)).max()),
            ("are not orthonormal", np.abs(flat.conj() @ flat.T - np.eye(len(flat))).max()),
            ("do not span the identity", np.linalg.norm(np.einsum("i,iab->ab", traces, elements) - np.eye(dim))),
        ):
            if not deviation <= 1e-9:
                raise ValueError(f"basis elements {fault} (deviation {deviation:.1e} > 1e-9)")
        return elements, _one_block(dim)
    if num_qubits(dim) > 6:
        raise ValueError("full-space estimation keeps 4^n dense basis matrices; practical up to 6 qubits")
    blocks = _one_block(dim)
    return _block_matrix_units(blocks), blocks


def _estimate(records, elements: np.ndarray, blocks, config: EstimatorConfig,
              mode: str) -> EstimationResult:
    """Solve ``mode``'s program over the real coefficients of the Hermitian basis ``elements``.

    ``blocks`` are (d, block, copies) arrays of a block decomposition of the
    algebra the elements span, for the log-det terms; a single identity block
    stands for no decomposition.
    """
    design, freq, unmeasured_row = _record_rows(records, elements)
    traces = _element_traces(elements)
    frame = _trace_frame(traces)
    _warn_if_rank_deficient(design @ frame[1])
    weight = 1.0 / np.maximum(np.abs(freq), config.frequency_floor)
    if mode == "maxlik":
        term = _Likelihood.of(design, freq, traces)
    else:
        term = _RelativeError(np.vstack([design, unmeasured_row]), freq, config.alpha * weight,
                              config.beta, config.gamma)
    c, objective, iterations, converged = _barrier_newton(term, elements, blocks, frame, config)
    rho = np.einsum("i,iab->ab", c, elements)
    rho = 0.5 * (rho + rho.conj().T)
    lowest = float(np.linalg.eigvalsh(rho)[0])
    return EstimationResult(
        rho_hat=rho,
        objective=float(objective),
        delta=np.abs(design @ c - freq) * weight,
        feasibility_residual=max(abs(float(np.trace(rho).real) - 1.0), -lowest, 0.0),
        iterations=iterations,
        converged=converged,
        mode=mode,
    )


# ---------------------------------------------------------------------------
# the data terms
# ---------------------------------------------------------------------------
#
# A data term is a convex function of the predictions p = D c on its design
# rows D.  It gives its exact ``objective``, the data part of the centring
# ``value`` for barrier weight mu (inf outside its domain), and the
# ``weights`` g and w of its gradient D^T g and Hessian D^T diag(w) D.
# ``gamma`` adds -gamma log det rho to the objective, and at a centred point
# the duality gap is at most mu * (``barrier_parameter`` + d).

class _RelativeError(NamedTuple):
    """sum_m a_m |p_m - f_m| + beta tr(U rho), U the sum of the unmeasured projectors.

    The last design row is that of U.  In the barrier each a|e| becomes
    a*t - mu*log(t^2 - e^2), with the slack t eliminated in closed form.
    """

    design: np.ndarray
    freq: np.ndarray
    slope: np.ndarray  # alpha / max(|f|, eps)
    beta: float
    gamma: float

    @property
    def barrier_parameter(self) -> int:
        return 2 * self.freq.size

    def objective(self, pred):
        return self.slope @ np.abs(pred[:-1] - self.freq) + self.beta * pred[-1]

    def value(self, pred, mu):
        width = mu / self.slope
        t = width + np.hypot(width, pred[:-1] - self.freq)
        # t^2 - e^2 = 2 t mu / a at the optimal slack
        return self.slope @ t - mu * np.log(2.0 * width * t).sum() + self.beta * pred[-1]

    def weights(self, pred, mu):
        resid = pred[:-1] - self.freq
        width = mu / self.slope
        root = np.hypot(width, resid)
        t = width + root
        return np.append(self.slope * resid / t, self.beta), np.append(mu / (root * t), 0.0)


class _Likelihood(NamedTuple):
    """The binomial negative log-likelihood -sum_k n_k log p_k over outcomes k.

    Record m contributes the outcomes E_m, with count f_m, and I - E_m, with
    count 1 - f_m; each has its own design row.  An identity record has
    p = 1 for every state, so it carries no likelihood and is left out, and
    so is every outcome of zero count.
    """

    design: np.ndarray
    counts: np.ndarray
    gamma = 0.0
    barrier_parameter = 0

    @classmethod
    def of(cls, design: np.ndarray, freq: np.ndarray, traces: np.ndarray) -> "_Likelihood":
        complement = traces - design  # rows of I - E
        informative = np.linalg.norm(complement, axis=1) > 1e-9 * np.linalg.norm(traces)
        rows = np.vstack([design[informative], complement[informative]])
        counts = np.concatenate([freq[informative], 1.0 - freq[informative]])
        return cls(rows[counts > 0.0], counts[counts > 0.0])

    def objective(self, pred):
        if not np.all(pred > 0.0):
            return np.inf
        return -(self.counts @ np.log(pred))

    def value(self, pred, mu):
        return self.objective(pred)

    def weights(self, pred, mu):
        share = self.counts / pred
        return -share, share / pred


# ---------------------------------------------------------------------------
# the barrier Newton solve
# ---------------------------------------------------------------------------

class _BlockMaps(NamedTuple):
    """Maps between trace-one coordinates z and the block compression of a basis's algebra.

    ``blocks`` are the algebra's (d, block, copies) arrays (``_search_space``).
    V stacks copy 0 of each, so a member X of the algebra satisfies
    tr f(X) = sum_b copies_b tr f(V_b^dag X V_b).  With c = base + P z
    (``_trace_frame``), ``offset + z @ forward`` is the s x s matrix
    V^dag (sum_i c_i S_i) V masked to its diagonal blocks.  Both are real
    views of the complex arrays, so each application is one real
    matrix-vector product.  ``column_mult`` is the multiplicity (the copy
    count of its block) of each of the s columns.
    """

    offset: np.ndarray
    forward: np.ndarray
    column_mult: np.ndarray

    @classmethod
    def of(cls, elements: np.ndarray, blocks, base: np.ndarray, tangent: np.ndarray) -> "_BlockMaps":
        isometry = np.hstack([cols[:, :, 0] for cols in blocks])
        block_of = np.repeat(np.arange(len(blocks)), [cols.shape[1] for cols in blocks])
        mask = block_of[:, None] == block_of[None, :]
        column_mult = np.array([cols.shape[2] for cols in blocks], dtype=float)[block_of]
        compressed = isometry.conj().T @ (elements @ isometry) * mask
        flat = compressed.view(float).reshape(len(elements), -1)
        return cls(base @ flat, tangent.T @ flat, column_mult)

    def spectrum(self, z):
        """Eigenvalues (ascending), eigenvectors and multiplicities of the state of z.

        Multiplicities are per eigenvector, sum_a mult_a |U_ak|^2, so they stay
        right when eigh mixes degenerate eigenvectors of different blocks.
        """
        s = self.column_mult.size
        vals, vecs = np.linalg.eigh((self.offset + z @ self.forward).view(complex).reshape(s, s))
        return vals, vecs, self.column_mult @ (vecs * vecs.conj()).real

    def coefficients(self, vals, vecs):
        """z-gradient P^T tr(S_i A) of tr(rho A), A the operator with eigenpairs (vals, vecs);
        tr(S_i A) = sum_b mult_b tr(S_i,b A_b) is one real dot product with a row of ``forward``."""
        weighted = self.column_mult[:, None] * ((vecs * vals) @ vecs.conj().T)
        return self.forward @ weighted.view(float).reshape(-1)

    def logdet_hessian(self, vals, vecs):
        """z-Hessian of log det rho at the state with eigenpairs (vals, vecs).

        With X the compressed state, M the column multiplicities (constant on
        each block, so M commutes with X) and F_a the rows of ``forward``,
        the entry is sum_b mult_b tr(X_b^-1 F_a,b X_b^-1 F_c,b) = tr(K_a K_c)
        with K_a = R F_a R and R = M^(1/4) X^(-1/2): one real Gram matrix.
        """
        s = self.column_mult.size
        root = self.column_mult[:, None] ** 0.25 * ((vecs / np.sqrt(vals)) @ vecs.conj().T)
        k = root @ self.forward.view(complex).reshape(-1, s, s) @ root
        flat = k.view(float).reshape(len(k), -1)
        return flat @ flat.T


def _newton_direction(hess, grad):
    """Newton step: minimize g.dz + dz.H.dz / 2, by Cholesky of the Jacobi-scaled H.

    As mu -> 0, H can become singular to working precision where the data
    leave coefficients unpinned.  Where Cholesky fails, or roundoff leaves its
    step no descent direction, the scaled H is solved through its
    eigendecomposition, dropping the eigenvalues at or below
    size * eps * lambda_max, the cut-off of ``np.linalg.lstsq``.
    """
    scale = 1.0 / np.sqrt(np.diag(hess))
    scaled = hess * np.outer(scale, scale)
    rhs = -grad * scale
    try:
        np.linalg.cholesky(scaled)
        dz = np.linalg.solve(scaled, rhs)
        if rhs @ dz > 0.0:
            return dz * scale
    except np.linalg.LinAlgError:
        pass
    vals, vecs = np.linalg.eigh(scaled)
    keep = vals > rhs.size * np.finfo(float).eps * vals[-1]
    return vecs[:, keep] @ ((rhs @ vecs[:, keep]) / vals[keep]) * scale


def _barrier_newton(term, elements: np.ndarray, blocks, frame, config: EstimatorConfig):
    """Minimize a data term minus gamma log det rho over the states rho = sum_i c_i S_i.

    Works in the coordinates c = base + P z of ``frame``, from z = 0 (I/d).
    Returns c, the objective there, the Newton steps taken and whether the
    duality gap was certified below the tolerance.
    """
    base, tangent = frame
    offset, design = term.design @ base, term.design @ tangent
    maps = _BlockMaps.of(elements, blocks, base, tangent)
    gap_per_mu = term.barrier_parameter + elements.shape[1]

    # ``spectrum`` is maps.spectrum(z), computed once per point and shared by all three
    def objective(z, spectrum):
        vals, _, mult = spectrum
        return term.objective(offset + design @ z) - term.gamma * (mult @ np.log(vals))

    def centring_value(z, spectrum, mu):
        """The barrier objective; inf outside the PSD cone and the data term's domain."""
        vals, _, mult = spectrum
        if vals[0] <= 0.0:
            return np.inf
        return term.value(offset + design @ z, mu) - (term.gamma + mu) * (mult @ np.log(vals))

    def centring_derivatives(z, spectrum, mu):
        vals, vecs, _ = spectrum
        g, w = term.weights(offset + design @ z, mu)
        grad = design.T @ g - (term.gamma + mu) * maps.coefficients(1.0 / vals, vecs)
        hess = (design.T @ (w[:, None] * design)
                + (term.gamma + mu) * maps.logdet_hessian(vals, vecs))
        return grad, hess

    z = np.zeros(tangent.shape[1])  # I/d
    spectrum = maps.spectrum(z)
    # the first stage's gap bound is the objective at the start
    mu = max(1.0, objective(z, spectrum)) / gap_per_mu
    value = centring_value(z, spectrum, mu)
    iterations = 0
    converged = False
    while True:
        grad, hess = centring_derivatives(z, spectrum, mu)
        step = _newton_direction(hess, grad)
        if 0.5 * step @ hess @ step <= _CENTRED:
            if mu * gap_per_mu <= config.objective_tolerance * max(1.0, abs(objective(z, spectrum))):
                converged = True
                break
            mu /= _MU_SHRINK
            value = centring_value(z, spectrum, mu)
            continue
        if iterations == config.max_iterations:
            break
        decrease = _ARMIJO * float(grad @ step)
        if decrease >= 0.0:  # roundoff has swamped the Newton direction
            break
        length = 1.0
        for _ in range(_LINESEARCH_MAX_TRIALS):
            trial = z + length * step
            trial_spectrum = maps.spectrum(trial)
            trial_value = centring_value(trial, trial_spectrum, mu)
            # strict: next to a large value, length * decrease can round away
            if trial_value < value and trial_value <= value + length * decrease:
                break
            length *= 0.5
        else:
            break
        z, spectrum, value = trial, trial_spectrum, trial_value
        iterations += 1
    return base + tangent @ z, objective(z, spectrum), iterations, converged
