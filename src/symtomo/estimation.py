"""State estimators: variational fit, maximum likelihood, linear inversion.

The central estimator minimizes, over density matrices,

    alpha * sum_measured  |tr(E_i rho) - f_i| / max(|f_i|, eps)
  + beta  * sum_unmeasured tr(E_i rho)
  - gamma * log det rho

i.e. a relative-error data term (slack variables eliminated in closed form),
a penalty on probability mass assigned to observables nobody measured, and an
optional log-det barrier pulling the estimate toward full rank.  The program
is solved over a Hermitian operator basis, rho = sum_i c_i S_i: a
``SymmetricBasis`` ("git" mode) or the full Pauli basis ("cvqt" mode, the
same program with no symmetry restriction, practical up to six qubits).  The
iteration is spectral projected gradient descent over the real coefficient
vector, with the exact projection onto {trace one, PSD} (eigenvalue clipping
against the probability simplex -- a spectral operation, so it never leaves
the algebra spanned by the basis).  The projection never forms the d x d
state: both built-in symmetry algebras are block diagonal in the total-spin
decomposition, so rho is held as one copy of each block (an s x s matrix,
s = 12 instead of d = 32 at five qubits) plus the blocks' multiplicities
(``symmetry.spin_blocks``).  One ``eigh`` of that matrix gives the spectrum,
each eigenvalue counted with multiplicity sum_a mult_a |U_ak|^2, and the
eigenvalues go onto the simplex weighted by those counts, so the projection
equals the dense one.  The log-det barrier and its gradient use the same
pieces.  The full Pauli basis and custom symmetries get the identity as a
single block of multiplicity one, i.e. the dense projection, through the same
code.

The absolute values are Huber-smoothed so gradients exist everywhere, with
the width driven through a coarse-to-fine continuation (1e-3 down to 1e-6,
warm-starting each stage) because the sharp kinks otherwise stall the step
size near the optimum; reported objectives always use the exact (unsmoothed)
formula.  The program is convex in the coefficients, so the descent starts
once, from the projected trace-one least-squares fit.

``solve_maxlik`` provides the classical iterative maximum-likelihood baseline
and ``linear_inversion`` the plain least-squares fit (no positivity
guarantee): the same fit seeds the variational solver, and tests use it as an
independent reference.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import NamedTuple

import numpy as np

from .operators import num_qubits, pauli_string
from .symmetry import SpinBlocks, SymmetricBasis, spin_blocks

HUBER_DELTA = 1e-6          # final smoothing width for |x| in the data term
BARRIER_EIG_FLOOR = 1e-12   # eigenvalue floor applied by projections when gamma > 0
SEED_EIG_FLOOR = 1e-7       # kinder floor for the start, keeps barrier gradients sane
_HUBER_STAGES = (1e-3, 3e-5, HUBER_DELTA)
_LINESEARCH_SHRINK = 0.5
_LINESEARCH_MAX_TRIALS = 60
_NONMONOTONE_MEMORY = 10
_STALL_PATIENCE = 30


@dataclass(frozen=True)
class EstimatorConfig:
    """Hyperparameters of the variational estimator.

    alpha/beta/gamma weight the data term, the unmeasured-mass term and the
    barrier; alpha = beta = 1 with gamma = 0 is the plain relative-error
    program, and the default gamma = 1e-3 adds a weak full-rank pull.
    ``frequency_floor`` is the eps in the relative weights.  ``restarts`` and
    ``seed`` are accepted, so that saved sweep configs still load, and
    ignored: the program is convex and every solve starts once, from the
    least-squares fit.
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

def _huber(x: np.ndarray, delta: float = HUBER_DELTA) -> np.ndarray:
    ax = np.abs(x)
    return np.where(ax <= delta, 0.5 * x * x / delta, ax - 0.5 * delta)


def _huber_grad(x: np.ndarray, delta: float = HUBER_DELTA) -> np.ndarray:
    return np.clip(x / delta, -1.0, 1.0)


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

def _trace_one_lstsq(design: np.ndarray, target: np.ndarray, elements: np.ndarray) -> np.ndarray:
    """Least squares min ||D c - f|| subject to tr(sum_i c_i S_i) = 1.

    Returns the minimum-norm solution.  Warns when the stacked [design;
    traces] map has lower rank than the number of unknowns, since the data
    then do not pin the fit down.
    """
    traces = np.real(np.einsum("iaa->i", elements))
    base = traces / (traces @ traces)
    _, _, vh = np.linalg.svd(traces.reshape(1, -1))
    perp = vh[1:]  # orthonormal rows spanning the trace-constraint tangent
    reduced = design @ perp.T
    z, *_ = np.linalg.lstsq(reduced, target - design @ base, rcond=None)
    sv = np.linalg.svd(np.vstack([design, traces.reshape(1, -1)]), compute_uv=False)
    rank = int((sv > 1e-9 * max(1.0, float(sv[0]))).sum())
    if rank < traces.size:
        warnings.warn(
            f"measurement map is rank deficient ({rank} < {traces.size}); "
            "returning the minimum-norm solution",
            stacklevel=3,
        )
    return base + perp.T @ z


def linear_inversion(records, basis: SymmetricBasis | None = None, dim: int | None = None) -> np.ndarray:
    """Plain least-squares reconstruction from measured records.

    The fit enforces unit trace but *not* positivity; the result can have
    negative eigenvalues, which is intentional (it serves as an unbiased
    reference, and the same fit seeds the variational solver).  Rank
    deficiency of the measurement map triggers a warning and yields the
    minimum-norm solution.
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
# spectral projected descent
# ---------------------------------------------------------------------------

def _descend(x0, value, gradient, advance, config):
    """Barzilai-Borwein descent with nonmonotone backtracking.

    ``advance(x, g, step)`` returns the trial point for one step (projection
    happens inside it); the loop only sees flat real vectors.  The line
    search may accept temporary increases, so the best visited point -- not
    the last -- is returned.
    """
    x = advance(x0, np.zeros_like(x0), 0.0)  # initial feasibility pass
    fval = value(x)
    grad = gradient(x)
    history = [fval]
    x_best, f_best = x, fval
    best_iter_ago = 0
    gnorm = float(np.linalg.norm(grad))
    step = 1.0 / max(1.0, gnorm)
    iterations = 0
    converged = False
    for iterations in range(1, config.max_iterations + 1):
        trial = advance(x, grad, step)
        direction = trial - x
        slope = float(grad @ direction)
        if not np.any(direction) or slope >= 0.0:
            converged = True
            break
        f_ref = max(history)
        lam = 1.0
        accepted = False
        for _ in range(_LINESEARCH_MAX_TRIALS):
            cand = x + lam * direction if lam < 1.0 else trial
            cand_f = value(cand)
            if cand_f <= f_ref + 1e-4 * lam * slope:
                accepted = True
                break
            lam *= _LINESEARCH_SHRINK
        if not accepted:
            converged = True
            break
        new_grad = gradient(cand)
        s = cand - x
        y = new_grad - grad
        sy = float(s @ y)
        step = float(np.clip((s @ s) / sy, 1e-13, 1e13)) if sy > 1e-30 else min(step * 2.0, 1e13)
        x, fval, grad = cand, cand_f, new_grad
        history.append(fval)
        if len(history) > _NONMONOTONE_MEMORY:
            history.pop(0)
        if fval < f_best - config.objective_tolerance * max(1.0, abs(f_best)):
            x_best, f_best = x, fval
            best_iter_ago = 0
        else:
            if fval < f_best:
                x_best, f_best = x, fval
            best_iter_ago += 1
            if best_iter_ago >= _STALL_PATIENCE:
                converged = True
                break
    return x_best, f_best, iterations, converged


# ---------------------------------------------------------------------------
# the variational estimator
# ---------------------------------------------------------------------------

def solve_vqt(problem: EstimationProblem, config: EstimatorConfig = EstimatorConfig()) -> EstimationResult:
    """Minimize the relative-error objective over the problem's search space.

    With a basis attached the search runs over real symmetry-algebra
    coefficients ("git" mode); without one the same descent runs over the
    coefficients of the full Pauli basis ("cvqt" mode, up to six qubits).
    Deterministic for fixed problem and config: one descent, started from the
    projected least-squares fit.
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

    def project(self, c, eig_floor):
        """Coefficients of the closest density matrix to the state of c.

        The Hilbert-Schmidt projection onto {trace one, PSD}: eigenvalues go
        onto the multiplicity-weighted simplex, then, when ``eig_floor`` is
        positive, are floored and renormalized.
        """
        vals, vecs, mult = self.spectrum(c)
        vals = _project_weighted_simplex(vals, mult)
        if eig_floor > 0.0:
            vals = np.maximum(vals, eig_floor)
            vals = vals / (mult @ vals)
        return self.coefficients(vals, vecs)


def _project_weighted_simplex(vals: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Project ascending eigenvalues of multiplicity ``weights`` onto the simplex.

    Returns x = max(vals - tau, 0) with weights . x = 1: the spectrum of the
    Euclidean projection of a state onto the density matrices when each
    eigenvalue occurs weights[k] times.  Unit weights give the plain simplex
    projection.  ``vals`` must be sorted ascending, as ``eigh`` returns them.
    """
    srt = vals[::-1]
    cumsum = (weights * vals)[::-1].cumsum() - 1.0
    counts = weights[::-1].cumsum()
    k = np.flatnonzero(srt - cumsum / counts > 0)[-1]
    return np.maximum(vals - cumsum[k] / counts[k], 0.0)


def _solve(records, elements: np.ndarray, blocks: SpinBlocks, config: EstimatorConfig,
           mode: str) -> EstimationResult:
    """One descent over the real coefficients of the Hermitian basis ``elements``.

    ``blocks`` is a block decomposition of the algebra the elements span, for
    the projection; a single identity block stands for no decomposition.
    """
    proj, freq, weight, unmeasured_sum = _record_arrays(records, elements.shape[1], config)
    design = _design_matrix(proj, elements)
    unmeasured_row = config.beta * np.real(
        np.einsum("ab,iab->i", unmeasured_sum.conj(), elements)
    )
    floor = BARRIER_EIG_FLOOR if config.gamma > 0.0 else 0.0
    maps = _BlockMaps.of(elements, blocks)
    project = maps.project

    def smooth_value(c, delta):
        resid = design @ c - freq
        value = config.alpha * float((weight * _huber(resid, delta)).sum())
        value += float(unmeasured_row @ c)
        if config.gamma > 0.0:
            vals, _, mult = maps.spectrum(c)
            if vals[0] <= 0.0:
                return np.inf
            value -= config.gamma * float(mult @ np.log(vals))
        return value

    def smooth_gradient(c, delta):
        resid = design @ c - freq
        g = config.alpha * (design.T @ (weight * _huber_grad(resid, delta))) + unmeasured_row
        if config.gamma > 0.0:
            vals, vecs, _ = maps.spectrum(c)
            g = g - config.gamma * maps.coefficients(1.0 / np.clip(vals, BARRIER_EIG_FLOOR, None), vecs)
        return g

    def advance(c, g, step):
        return project(c - step * g, floor)

    c = project(_trace_one_lstsq(design, freq, elements),
                SEED_EIG_FLOOR if config.gamma > 0.0 else 0.0)
    iterations = 0
    for delta in _HUBER_STAGES:  # coarse-to-fine, each stage warm-started
        c, _, iters, converged = _descend(
            c, partial(smooth_value, delta=delta), partial(smooth_gradient, delta=delta),
            advance, config,
        )
        iterations += iters
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
