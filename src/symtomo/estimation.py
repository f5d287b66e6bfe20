"""State estimators: variational fit, maximum likelihood, linear inversion.

The central estimator minimizes, over density matrices,

    alpha * sum_measured  |tr(E_i rho) - f_i| / max(|f_i|, eps)
  + beta  * sum_unmeasured tr(E_i rho)
  - gamma * log det rho

i.e. a relative-error data term, a penalty on probability mass assigned to
observables nobody measured, and an optional log-det barrier pulling the
estimate toward full rank.  The program is solved over a Hermitian operator
basis, rho = sum_i c_i S_i: a ``SymmetricBasis`` ("git" mode) or the full
Pauli basis ("cvqt" mode, the same program with no symmetry restriction,
practical up to six qubits).

It is an l1 fit over a spectrahedron, solved exactly by the log-barrier
method (Boyd & Vandenberghe, Convex Optimization, ch. 11).  Each term a|e|
becomes a*t - mu*log(t^2 - e^2) with the slack t eliminated in closed form,
positivity becomes -mu*log det rho and merges with the gamma term, and damped
Newton steps on the real coefficients, with the trace-one row in the KKT
system, centre the sum for a decreasing sequence of mu.  The solve starts
from I/d, which is strictly feasible for every basis.  At a centred point the
duality gap is at most mu*(2m + d) (m measured records, d = 2^n), so
``converged`` certifies that the objective is within ``objective_tolerance``
(relative) of the optimum.

The log-det terms never form the d x d state: both built-in symmetry algebras
are block diagonal in the total-spin decomposition, so rho is held as one
copy of each block (an s x s matrix, s = 12 instead of d = 32 at five qubits)
plus the blocks' multiplicities (``symmetry.spin_blocks``).  One ``eigh`` of
that matrix gives the spectrum, each eigenvalue counted with multiplicity
sum_a mult_a |U_ak|^2, and with it log det rho, its gradient and its Hessian.
The full Pauli basis and custom symmetries get the identity as a single block
of multiplicity one, i.e. the dense computation, through the same code.

``solve_maxlik`` provides the classical iterative maximum-likelihood baseline
and ``linear_inversion`` the plain least-squares fit (no positivity
guarantee), which tests use as an independent reference.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .operators import num_qubits, pauli_string
from .symmetry import SpinBlocks, SymmetricBasis, spin_blocks

_CENTRED = 1e-9             # half the squared Newton decrement that ends a centring stage
_MU_SHRINK = 10.0           # barrier weight divisor between centring stages
_ARMIJO = 0.25              # sufficient-decrease fraction of the line search
_LINESEARCH_MAX_TRIALS = 60


@dataclass(frozen=True)
class EstimatorConfig:
    """Hyperparameters of the variational estimator.

    alpha/beta/gamma weight the data term, the unmeasured-mass term and the
    barrier; alpha = beta = 1 with gamma = 0 is the plain relative-error
    program, and the default gamma = 1e-3 adds a weak full-rank pull.
    ``frequency_floor`` is the eps in the relative weights.
    ``max_iterations`` caps the Newton steps of the variational solve (the
    fixed-point steps of ``solve_maxlik``), and ``objective_tolerance`` is
    the relative duality gap at which it reports ``converged``.
    ``feasibility_tolerance`` is used only by ``solve_maxlik``.  ``restarts``
    and ``seed`` are accepted, so that saved sweep configs still load, and
    ignored: the program is convex and every solve starts once, from I/d.
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
        # the barrier solve needs a data term, a convex barrier and a gap to reach
        if not (self.alpha > 0.0 and self.gamma >= 0.0 and self.objective_tolerance > 0.0):
            raise ValueError(
                "estimator config needs alpha > 0, gamma >= 0 and objective_tolerance > 0, got "
                f"alpha={self.alpha!r}, gamma={self.gamma!r}, "
                f"objective_tolerance={self.objective_tolerance!r}"
            )


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

@lru_cache(maxsize=8)
def _hermitian_basis(n_qubits: int) -> np.ndarray:
    """Orthonormal Hermitian basis of the full operator space (scaled Pauli strings)."""
    if n_qubits > 6:
        raise ValueError(
            "full-space estimation keeps 4^n dense basis matrices; practical up to 6 qubits"
        )
    scale = np.sqrt(2.0**n_qubits)
    mats = np.array([
        pauli_string("".join(s)) / scale
        for s in itertools.product("IXYZ", repeat=n_qubits)
    ])
    mats.setflags(write=False)  # cached: every caller shares this array
    return mats


def _split_records(records):
    measured = [r for r in records if r.measured]
    unmeasured = [r for r in records if not r.measured]
    if not measured:
        raise ValueError("estimation needs at least one measured record")
    if any(r.frequency is None for r in measured):
        raise ValueError("measured records must carry a frequency")
    return measured, unmeasured


def _record_arrays(records, dim, config):
    measured, unmeasured = _split_records(records)
    proj = np.stack([r.projector for r in measured])
    if proj.shape[1:] != (dim, dim):
        raise ValueError(f"record projectors have shape {proj.shape[1:]}, expected ({dim}, {dim})")
    freq = np.array([r.frequency for r in measured], dtype=float)
    weight = 1.0 / np.maximum(np.abs(freq), config.frequency_floor)
    if unmeasured:
        unmeasured_sum = np.sum([r.projector for r in unmeasured], axis=0)
    else:
        unmeasured_sum = np.zeros((dim, dim), dtype=complex)
    return proj, freq, weight, unmeasured_sum


def _design_matrix(proj: np.ndarray, elements: np.ndarray) -> np.ndarray:
    """Rows Re tr(E_m^dag S_i): one matmul of the flattened (m, d^2) and (r, d^2) arrays."""
    return np.real(proj.reshape(len(proj), -1).conj() @ elements.reshape(len(elements), -1).T)


# ---------------------------------------------------------------------------
# linear inversion
# ---------------------------------------------------------------------------

def _element_traces(elements: np.ndarray) -> np.ndarray:
    return np.real(np.einsum("iaa->i", elements))


def _warn_if_rank_deficient(design: np.ndarray, traces: np.ndarray) -> None:
    """Warn when the stacked [design; traces] map does not pin down every coefficient."""
    sv = np.linalg.svd(np.vstack([design, traces.reshape(1, -1)]), compute_uv=False)
    rank = int((sv > 1e-9 * max(1.0, float(sv[0]))).sum())
    if rank < traces.size:
        warnings.warn(
            f"measurement map is rank deficient ({rank} < {traces.size}); "
            "the data do not determine every coefficient",
            stacklevel=4,
        )


def _trace_one_lstsq(design: np.ndarray, target: np.ndarray, elements: np.ndarray) -> np.ndarray:
    """Least squares min ||D c - f|| subject to tr(sum_i c_i S_i) = 1.

    Returns the minimum-norm solution, with a warning when the data do not
    pin the fit down.
    """
    traces = _element_traces(elements)
    base = traces / (traces @ traces)
    _, _, vh = np.linalg.svd(traces.reshape(1, -1))
    perp = vh[1:]  # orthonormal rows spanning the trace-constraint tangent
    reduced = design @ perp.T
    z, *_ = np.linalg.lstsq(reduced, target - design @ base, rcond=None)
    _warn_if_rank_deficient(design, traces)
    return base + perp.T @ z


def linear_inversion(records, basis: SymmetricBasis | None = None, dim: int | None = None) -> np.ndarray:
    """Plain least-squares reconstruction from measured records.

    The fit enforces unit trace but *not* positivity; the result can have
    negative eigenvalues, which is intentional: it serves as an unbiased
    reference for the variational solver, which starts from I/d, not from
    this fit.  Rank deficiency of the measurement map triggers a warning and
    yields the minimum-norm solution.
    """
    measured, _ = _split_records(records)
    if dim is None:
        dim = measured[0].projector.shape[0]
    if basis is not None:
        elements = basis.elements
        if basis.dim != dim:
            raise ValueError(f"basis dimension {basis.dim} does not match dim {dim}")
    else:
        elements = _hermitian_basis(num_qubits(dim))
    proj = np.stack([r.projector for r in measured])
    freq = np.array([r.frequency for r in measured], dtype=float)
    design = _design_matrix(proj, elements)
    coeff = _trace_one_lstsq(design, freq, elements)
    rho = np.einsum("i,iab->ab", coeff, elements)
    return 0.5 * (rho + rho.conj().T)


# ---------------------------------------------------------------------------
# the variational estimator
# ---------------------------------------------------------------------------

def solve_vqt(problem: EstimationProblem, config: EstimatorConfig = EstimatorConfig()) -> EstimationResult:
    """Minimize the relative-error objective over the problem's search space.

    With a basis attached the search runs over real symmetry-algebra
    coefficients ("git" mode); without one the same solve runs over the
    coefficients of the full Pauli basis ("cvqt" mode, up to six qubits).
    Deterministic for fixed problem and config: one barrier Newton solve,
    started from I/d; ``iterations`` counts its Newton steps and
    ``converged`` says that its duality gap fell below the tolerance.
    """
    basis = problem.basis
    if basis is None:
        elements = _hermitian_basis(num_qubits(problem.dim))
        blocks = SpinBlocks(np.eye(problem.dim), (problem.dim,), (1,))
        return _solve(problem.records, elements, blocks, config, "cvqt")
    blocks = spin_blocks(basis.n_qubits, basis.kind)
    return _solve(problem.records, basis.elements, blocks, config, "git")


def solve_git(records, basis: SymmetricBasis, config: EstimatorConfig = EstimatorConfig()) -> EstimationResult:
    problem = EstimationProblem(records=tuple(records), basis=basis, dim=basis.dim)
    return solve_vqt(problem, config)


def solve_cvqt(records, dim: int, config: EstimatorConfig = EstimatorConfig()) -> EstimationResult:
    problem = EstimationProblem(records=tuple(records), basis=None, dim=dim)
    return solve_vqt(problem, config)


def _exact_objective(rho, proj, freq, weight, unmeasured_sum, config):
    pred = np.real(np.einsum("mab,ab->m", proj.conj(), rho))
    delta = np.abs(pred - freq) * weight
    value = config.alpha * float(delta.sum())
    value += config.beta * float(np.vdot(unmeasured_sum, rho).real)
    if config.gamma > 0.0:
        eigs = np.linalg.eigvalsh(rho)
        if eigs[0] <= 0.0:
            return np.inf, delta
        value -= config.gamma * float(np.log(eigs).sum())
    return value, delta


def _finalize(rho, proj, freq, weight, unmeasured_sum, config, iters, converged, mode):
    rho = 0.5 * (rho + rho.conj().T)
    objective, delta = _exact_objective(rho, proj, freq, weight, unmeasured_sum, config)
    eigs = np.linalg.eigvalsh(rho)
    feas = max(abs(float(np.trace(rho).real) - 1.0), max(0.0, -float(eigs[0])))
    return EstimationResult(
        rho_hat=rho,
        objective=float(objective),
        delta=delta,
        feasibility_residual=feas,
        iterations=iters,
        converged=converged,
        mode=mode,
    )


class _BlockMaps(NamedTuple):
    """Coefficient maps through the block compression of a basis's algebra.

    With V the isometry of ``spin_blocks``, ``forward`` sends c to the s x s
    matrix V^dag (sum_i c_i S_i) V, masked to its diagonal blocks, and
    ``back`` sends such a matrix X to the coefficients tr(S_i rho) of the
    full-space operator rho it stands for, sum_b mult_b tr(S_i,b X_b).  Both
    are stored as real views of the complex maps, so each application is one
    real matrix-vector product.  ``column_mult`` is the multiplicity of each
    of the s columns.
    """

    forward: np.ndarray
    back: np.ndarray
    column_mult: np.ndarray

    @classmethod
    def of(cls, elements: np.ndarray, blocks: SpinBlocks) -> "_BlockMaps":
        isometry, sizes, mults = blocks
        block_of = np.repeat(np.arange(len(sizes)), sizes)
        mask = block_of[:, None] == block_of[None, :]
        column_mult = np.asarray(mults, dtype=float)[block_of]
        compressed = isometry.conj().T @ (elements @ isometry) * mask
        # Re tr(B^dag X) = B.real . X.real + B.imag . X.imag
        back = compressed * column_mult[:, None]
        return cls(
            compressed.view(float).reshape(len(elements), -1),
            back.view(float).reshape(len(elements), -1),
            column_mult,
        )

    def spectrum(self, c):
        """Eigenvalues (ascending), eigenvectors and multiplicities of the state of c.

        Multiplicities are per eigenvector, sum_a mult_a |U_ak|^2, so they stay
        right when eigh mixes degenerate eigenvectors of different blocks.
        """
        s = self.column_mult.size
        vals, vecs = np.linalg.eigh((c @ self.forward).view(complex).reshape(s, s))
        return vals, vecs, self.column_mult @ (vecs * vecs.conj()).real

    def coefficients(self, vals, vecs):
        """Coefficients of the operator with eigenpairs (vals, vecs)."""
        return self.back @ ((vecs * vals) @ vecs.conj().T).view(float).reshape(-1)

    def logdet_hessian(self, vals, vecs):
        """Hessian tr(rho^-1 S_i rho^-1 S_j) of log det rho at the state with eigenpairs (vals, vecs).

        With X the compressed state and M the column multiplicities (constant
        on each block, so M commutes with X), the entry is
        sum_b mult_b tr(X_b^-1 S_i,b X_b^-1 S_j,b) = tr(K_i K_j) with
        K_i = P S_i P and P = M^(1/4) X^(-1/2): one real Gram matrix.
        """
        s = self.column_mult.size
        root = self.column_mult[:, None] ** 0.25 * ((vecs / np.sqrt(vals)) @ vecs.conj().T)
        k = root @ self.forward.view(complex).reshape(-1, s, s) @ root
        flat = k.view(float).reshape(len(k), -1)
        return flat @ flat.T


def _newton_direction(hess, grad, traces, trace_residual):
    """Solve the KKT system [[H, tau], [tau^T, 0]] [dc; nu] = [-g; trace_residual] for dc.

    Jacobi-scaled least squares: as mu -> 0 the system becomes singular to
    working precision wherever the data leave coefficients unpinned, and the
    least-squares solution stays finite there.  The part of g along the
    trace row only moves nu, so it is taken out first: a large nu would
    swamp dc with its roundoff.
    """
    scale = 1.0 / np.sqrt(np.diag(hess))
    row = traces * scale
    row_norm = np.linalg.norm(row)
    row /= row_norm
    r = grad.size
    kkt = np.zeros((r + 1, r + 1))
    kkt[:r, :r] = hess * np.outer(scale, scale)
    kkt[:r, r] = kkt[r, :r] = row
    rhs = -grad * scale
    rhs = np.append(rhs - row * (row @ rhs), trace_residual / row_norm)
    return np.linalg.lstsq(kkt, rhs, rcond=None)[0][:r] * scale


def _solve(records, elements: np.ndarray, blocks: SpinBlocks, config: EstimatorConfig,
           mode: str) -> EstimationResult:
    """Log-barrier Newton solve over the real coefficients of the Hermitian basis ``elements``.

    ``blocks`` is a block decomposition of the algebra the elements span, for
    the log-det terms; a single identity block stands for no decomposition.
    """
    proj, freq, weight, unmeasured_sum = _record_arrays(records, elements.shape[1], config)
    design = _design_matrix(proj, elements)
    traces = _element_traces(elements)
    _warn_if_rank_deficient(design, traces)
    unmeasured_row = config.beta * np.real(
        np.einsum("ab,iab->i", unmeasured_sum.conj(), elements)
    )
    maps = _BlockMaps.of(elements, blocks)
    slope = config.alpha * weight
    gap_per_mu = 2 * freq.size + elements.shape[1]  # the barrier parameter 2m + d

    def objective(c):
        vals, _, mult = maps.spectrum(c)
        return (slope @ np.abs(design @ c - freq) + unmeasured_row @ c
                - config.gamma * (mult @ np.log(vals)))

    def centring_value(c, mu):
        """The barrier objective with the slacks eliminated; inf outside the PSD cone."""
        vals, _, mult = maps.spectrum(c)
        if vals[0] <= 0.0:
            return np.inf
        width = mu / slope
        t = width + np.hypot(width, design @ c - freq)
        # t^2 - e^2 = 2 t mu / a at the optimal slack
        return (slope @ t - mu * np.log(2.0 * width * t).sum() + unmeasured_row @ c
                - (config.gamma + mu) * (mult @ np.log(vals)))

    def centring_derivatives(c, mu):
        vals, vecs, _ = maps.spectrum(c)
        resid = design @ c - freq
        width = mu / slope
        root = np.hypot(width, resid)
        t = width + root
        grad = (design.T @ (slope * resid / t) + unmeasured_row
                - (config.gamma + mu) * maps.coefficients(1.0 / vals, vecs))
        hess = (design.T @ ((mu / (root * t))[:, None] * design)
                + (config.gamma + mu) * maps.logdet_hessian(vals, vecs))
        return grad, hess

    c = traces / elements.shape[1]  # I/d
    # the first stage's gap bound is the objective at the start
    mu = max(1.0, objective(c)) / gap_per_mu
    value = centring_value(c, mu)
    iterations = 0
    converged = False
    while True:
        grad, hess = centring_derivatives(c, mu)
        step = _newton_direction(hess, grad, traces, 1.0 - traces @ c)
        if 0.5 * step @ hess @ step <= _CENTRED:
            if mu * gap_per_mu <= config.objective_tolerance * max(1.0, abs(objective(c))):
                converged = True
                break
            mu /= _MU_SHRINK
            value = centring_value(c, mu)
            continue
        if iterations == config.max_iterations:
            break
        decrease = _ARMIJO * float(grad @ step)
        if decrease >= 0.0:  # roundoff has swamped the Newton direction
            break
        length = 1.0
        for _ in range(_LINESEARCH_MAX_TRIALS):
            trial = c + length * step
            trial_value = centring_value(trial, mu)
            if trial_value <= value + length * decrease:
                break
            length *= 0.5
        else:
            break
        c, value = trial, trial_value
        iterations += 1
    rho = np.einsum("i,iab->ab", c, elements)
    return _finalize(rho, proj, freq, weight, unmeasured_sum, config, iterations, converged, mode)


# ---------------------------------------------------------------------------
# iterative maximum likelihood
# ---------------------------------------------------------------------------

def solve_maxlik(records, config: EstimatorConfig = EstimatorConfig()) -> EstimationResult:
    """Diluted iterative maximum likelihood over the full state space.

    Each measured record contributes a two-outcome experiment {E_i, 1 - E_i}
    with success frequency f_i, so the update operator R is the standard
    likelihood-gradient kernel and the combined outcome set is a rescaled
    POVM.  Steps are diluted (shrunk toward the identity) whenever a full
    R rho R step would lower the likelihood.  Unmeasured records are ignored.
    Emits a warning when the records are not informationally complete.
    """
    measured, _ = _split_records(records)
    dim = measured[0].projector.shape[0]
    proj = np.stack([r.projector for r in measured])
    freq = np.array([r.frequency for r in measured], dtype=float)
    m = len(measured)

    flat = np.concatenate([proj.reshape(m, -1), np.eye(dim).reshape(1, -1)])
    rank = int(np.linalg.matrix_rank(flat, tol=1e-9))
    if rank < dim * dim:
        warnings.warn(
            f"records span only {rank} of {dim * dim} operator dimensions; "
            "maximum-likelihood solution may be non-unique",
            stacklevel=2,
        )

    eye = np.eye(dim, dtype=complex)

    def loglik(p):
        p = np.clip(p, 1e-12, 1.0 - 1e-12)
        return float(freq @ np.log(p) + (1.0 - freq) @ np.log1p(-p))

    def kernel(p):
        p = np.clip(p, 1e-12, 1.0 - 1e-12)
        pos = freq / p
        neg = (1.0 - freq) / (1.0 - p)
        r_op = np.einsum("m,mab->ab", pos - neg, proj) + neg.sum() * eye
        return r_op / m

    rho = eye / dim
    pred = np.real(np.einsum("mab,ab->m", proj.conj(), rho))
    current = loglik(pred)
    iterations = 0
    converged = False
    residual = np.inf
    for iterations in range(1, config.max_iterations + 1):
        r_op = kernel(pred)
        r_op = 0.5 * (r_op + r_op.conj().T)
        pure = r_op @ rho @ r_op
        residual = float(np.max(np.abs(pure / np.trace(pure).real - rho)))
        if residual < config.feasibility_tolerance:
            converged = True
            break
        scale = 1.0
        improved = False
        for _ in range(30):
            mix = (1.0 - scale) * eye + scale * r_op
            cand = mix @ rho @ mix.conj().T
            cand = cand / np.trace(cand).real
            cand_pred = np.real(np.einsum("mab,ab->m", proj.conj(), cand))
            cand_ll = loglik(cand_pred)
            if cand_ll > current - 1e-15:
                rho, pred, current = cand, cand_pred, cand_ll
                improved = True
                break
            scale *= 0.5
        if not improved:
            converged = True
            break

    rho = 0.5 * (rho + rho.conj().T)
    delta = np.abs(pred - freq) / np.maximum(np.abs(freq), config.frequency_floor)
    return EstimationResult(
        rho_hat=rho,
        objective=-current,
        delta=delta,
        feasibility_residual=residual,
        iterations=iterations,
        converged=converged,
        mode="maxlik",
    )
