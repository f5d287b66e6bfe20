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
space, the commutant of the trivial group.
``solve_maxlik`` instead minimizes the binomial negative log-likelihood
-sum_i [f_i log p_i + (1 - f_i) log(1 - p_i)], p_i = tr(E_i rho), over the
same matrix units.

Every estimator runs the same log-barrier Newton method (Boyd & Vandenberghe,
Convex Optimization, ch. 11) on its own data term, a convex function of the
predictions D c on the design rows.  tr(rho) = 1 is eliminated up front: the
solve runs in the coordinates c = base + P z, base the coefficients of I/d
and P an orthonormal basis of the trace-keeping directions, so every Newton
step is unconstrained.  Positivity needs only each block X_b of rho (below)
to be PSD, so it becomes one log det per block, -mu*sum_b log det X_b, whose
barrier parameter is s, the sum of the block sizes (d for the full space,
one block of multiplicity one).  Damped Newton steps from z = 0 (I/d)
centre it with the data and gamma terms for a sequence of mu that shrinks by
50 per stage.  In the relative-error term each a|e| becomes
a*t - mu*log(t^2 - e^2), the slack t eliminated in closed form; the
log-likelihood needs no slack.  At the centre the duality gap is at most
mu*(b + s), with b the data term's barrier parameter (2m for m measured
records, 0 for the likelihood).  Centring is inexact (Boyd & Vandenberghe,
section 11.3.3): a stage ends once half the squared Newton decrement,
dz.H.dz / 2, is at most 0.1 mu, inside the region where Newton's method on
the mu-scaled problem converges quadratically, since the next mu moves the
centre anyway.  The last stage, the first whose mu*(b + s) meets
``objective_tolerance`` (relative), must also reach dz.H.dz / 2 <= 1e-9, and
only then does ``converged`` certify that the objective is within the
tolerance of the optimum: a test relative to mu is what keeps the gap bound
of the centre valid at the point.  The line search halves from the full
step until a trial lies in the domain and decreases the value enough; each
trial's own spectrum is its only PSD test, taken before its predictions are
formed (Boyd & Vandenberghe, section 9.2).  Between stages a
predictor step follows the tangent of the central path (the predictor of
path-following interior-point methods, Boyd & Vandenberghe section 11.3;
Mehrotra, SIAM J. Optim. 2, 575 (1992)): as mu shrinks to mu', the centre
moves by about dz = -(mu' - mu) H^-1 d/dmu grad, with the Hessian H already
in hand, so the new stage starts there if one of the lengths 1 to 1/8 of
that step strictly lowers its centring value.  The step counts as a Newton
step; on the benchmark's full-space solves it saves about one step in five.

No solve forms a dense basis element or record projector of a symmetric
basis.  Both built-in symmetry algebras are block diagonal in the total-spin
decomposition, and the solve works on the blocks the basis was built from
(``SymmetricBasis.blocks``), in the coordinates of their matrix units
(``symmetry._unit_coordinates``):

* a record's design row is tr(E S_i), read off the blocks by
  ``measurement._Space.rows``, the row builder that also gives setting
  selection its outcome rows;
* the traces tr(S_i) are sqrt(copies) on the diagonal units, 0 elsewhere;
* the log-det terms hold rho as one copy of each block (an s x s matrix, s =
  12 instead of d = 32 at five qubits) plus the blocks' multiplicities, and
  one ``eigh`` of it gives the spectrum.  Every log-det term is a weighted
  sum sum_b w_b log det X_b: w_b = mult_b gives gamma's log det rho, and the
  barrier adds mu to every block's weight.  Each eigenvalue carries the
  weight sum_a w_a |U_ak|^2, and the gradient and Hessian come from the
  same eigenpairs, the Hessian as one Gram matrix of the blocks of the
  trace-keeping directions taken into the eigenbasis;
* the estimate is assembled block by block, rho = sum_b V_b (X_b (x) 1) V_b^dag.

The full space is one identity block of multiplicity one, whose design rows
are the record projectors' own entries.  A basis given by its elements alone,
such as a custom symmetry's, is the full space composed with the unit
coordinates of its elements (``measurement._search_space``), so every
estimator runs through the same code.  A space of one element, the identity
alone, holds one unit-trace state, I/d: the solve returns it with no
Newton step, and linear inversion returns it.

``linear_inversion`` is the plain least-squares fit (no positivity
guarantee), which tests use as an independent reference.
"""

from __future__ import annotations

import numbers
import warnings
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .measurement import _Space, _search_space, check_observable
from .operators import _check_number, num_qubits
from .symmetry import SymmetricBasis, _column_mult, _copy_blocks

_CENTRED_PER_MU = 0.1       # kappa: a centring stage ends at half the squared Newton decrement <= kappa * mu
_CENTRED = 1e-9             # the last stage, whose gap bound meets the tolerance, must also reach this
_MU_SHRINK = 50.0           # barrier weight divisor between centring stages
_ARMIJO = 0.25              # sufficient-decrease fraction of the line search
_LINESEARCH_MAX_TRIALS = 60
_PREDICTOR_MAX_TRIALS = 4   # lengths 1 to 1/8: a predictor that needs shorter ones is not worth the trials


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
        # the barrier solve needs a convex barrier, an iteration cap, a data
        # term, a gap to reach and finite relative weights
        for f in fields(self):
            value = getattr(self, f.name)
            _check_number(f.name, value, numbers.Real if f.type == "float" else numbers.Integral,
                          low=0 if f.name in ("beta", "gamma", "max_iterations") else None)
            if f.name in ("alpha", "objective_tolerance", "frequency_floor") and not value > 0:
                raise ValueError(f"estimator config needs {f.name} > 0, got {value!r}")


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


def _record_rows(records, space: _Space):
    """Design rows and frequencies of the measured records, and the summed row of the unmeasured ones."""
    measured, unmeasured = _split_records(records)
    n = num_qubits(space.blocks[0].shape[0])
    rows = space.rows([check_observable(r.ops, n) for r in measured + unmeasured])
    freq = np.array([r.frequency for r in measured], dtype=float)
    return rows[:len(measured)], freq, rows[len(measured):].sum(axis=0)


# ---------------------------------------------------------------------------
# linear inversion
# ---------------------------------------------------------------------------

def _trace_frame(traces: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(base, P): the unit-trace coefficients are c = base + P z, with base = traces/|traces|^2
    those of I/d and P's orthonormal columns the r - 1 directions that keep the trace.

    P is the last r - 1 columns of the Householder reflector H = I - 2 u u^T / u.u
    with u = v + sign(v_0) e_1, v = traces/|traces|.  H v = -sign(v_0) e_1, so
    the other columns of the orthogonal H are orthogonal to the traces; the
    sign keeps u.u >= 2.
    """
    u = traces / np.linalg.norm(traces)
    u[0] += np.copysign(1.0, u[0])
    tangent = np.outer(u, u[1:]) * (-2.0 / (u @ u))
    tangent[1:] += np.eye(u.size - 1)
    return traces / (traces @ traces), tangent


def _warn_if_rank_deficient(design: np.ndarray) -> None:
    """Warn when the design D P, with the trace, does not pin down all r = cols + 1 coefficients."""
    sv = np.linalg.svd(design, compute_uv=False)
    rank = int((sv > 1e-9 * sv.max(initial=1.0)).sum())
    if rank < design.shape[1]:
        warnings.warn(
            f"measurement map is rank deficient ({rank + 1} < {design.shape[1] + 1}); "
            "the data do not determine every coefficient, so the estimate may be non-unique",
            # the caller of the public estimator, which calls _estimate or
            # _trace_one_lstsq itself, never another public estimator
            stacklevel=4,
        )


def _trace_one_lstsq(design: np.ndarray, target: np.ndarray, traces: np.ndarray) -> np.ndarray:
    """Least squares min ||D c - f|| subject to tr(sum_i c_i S_i) = 1.

    Solved as min ||D P z - (f - D base)|| in trace-one coordinates.  Returns
    the minimum-norm solution, with a warning when the data do not pin it down.
    """
    base, tangent = _trace_frame(traces)
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
    space = _search_space(basis, 2 ** len(measured[0].ops) if dim is None else dim)
    design, freq, _ = _record_rows(measured, space)
    return space.state(_trace_one_lstsq(design, freq, space.traces()))


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
    return _estimate(problem.records, _search_space(problem.basis, problem.dim), config, mode)


def solve_git(records, basis: SymmetricBasis, config: EstimatorConfig = EstimatorConfig()) -> EstimationResult:
    return _estimate(tuple(records), _search_space(basis, basis.dim), config, "git")


def solve_cvqt(records, dim: int, config: EstimatorConfig = EstimatorConfig()) -> EstimationResult:
    return _estimate(tuple(records), _search_space(None, dim), config, "cvqt")


def solve_maxlik(records, config: EstimatorConfig = EstimatorConfig()) -> EstimationResult:
    """Maximum likelihood over the full state space (up to six qubits).

    Each measured record is a two-outcome experiment {E_i, I - E_i} with
    success frequency f_i.  The barrier Newton solve of ``solve_vqt`` maximizes
    sum_i [f_i log p_i + (1 - f_i) log(1 - p_i)], p_i = tr(E_i rho), and
    ``objective`` is its negative.  Unmeasured records are ignored.  Warns when
    the records are not informationally complete: the maximum may be non-unique.
    """
    measured, _ = _split_records(records)
    return _estimate(measured, _search_space(None, 2 ** len(measured[0].ops)), config, "maxlik")


def _estimate(records, space: _Space, config: EstimatorConfig, mode: str) -> EstimationResult:
    """Solve ``mode``'s program over the real coefficients of the basis of ``space``."""
    design, freq, unmeasured_row = _record_rows(records, space)
    traces = space.traces()
    frame = _trace_frame(traces)
    _warn_if_rank_deficient(design @ frame[1])
    weight = 1.0 / np.maximum(np.abs(freq), config.frequency_floor)
    if mode == "maxlik":
        term = _Likelihood.of(design, freq, traces)
    else:
        term = _RelativeError(np.vstack([design, unmeasured_row]), freq, config.alpha * weight,
                              config.beta, config.gamma)
    c, objective, iterations, converged, lowest = _barrier_newton(term, _BlockMaps.of(space, *frame), frame,
                                                                  config)
    return EstimationResult(
        rho_hat=space.state(c),
        objective=float(objective),
        delta=np.abs(design @ c - freq) * weight,
        # the block spectrum is rho's, without the multiplicities
        feasibility_residual=max(abs(float(traces @ c) - 1.0), -float(lowest), 0.0),
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
# ``value`` for barrier weight mu (inf outside its domain), the ``weights`` g
# and w of its gradient D^T g and Hessian D^T diag(w) D, and the ``drift``
# d g / d mu, which the predictor between stages follows.
# ``gamma`` adds -gamma log det rho to the objective, and at a centred point
# the duality gap is at most mu * (``barrier_parameter`` + s), s the sum of
# the block sizes.

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
        g, w = np.zeros((2, pred.size))
        g[:-1], g[-1], w[:-1] = self.slope * resid / t, self.beta, mu / (root * t)
        return g, w

    def drift(self, pred, mu):
        # d g / d mu: the slope a e / t falls as the width mu / a of the smoothed |e| grows
        resid = pred[:-1] - self.freq
        width = mu / self.slope
        root = np.hypot(width, resid)
        g = np.zeros(pred.size)
        g[:-1] = -resid / ((width + root) * root)
        return g


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

    def drift(self, pred, mu):  # its gradient weights do not depend on mu
        return np.zeros(pred.size)


# ---------------------------------------------------------------------------
# the barrier Newton solve
# ---------------------------------------------------------------------------

class _BlockMaps(NamedTuple):
    """Maps between trace-one coordinates z and the block compression of a basis's algebra.

    V stacks copy 0 of each of the space's blocks (``_Space``), so a member
    X of the algebra satisfies tr f(X) = sum_b copies_b tr f(V_b^dag X V_b).
    With c = base + P z (``_trace_frame``), ``offset + z @ forward`` is the
    s x s matrix V^dag (sum_i c_i S_i) V masked to its diagonal blocks; both
    are scattered from unit coordinates, with no d x d element.  Both are
    real views of the complex arrays, so each application is one real
    matrix-vector product.  ``column_mult`` is the multiplicity (the copy
    count of its block) of each of the s columns.

    The log-det terms of the solve are sums sum_b w_b log det X_b over the
    blocks, given by a weight per column that is constant on each block:
    w = ``column_mult`` is log det rho, and the barrier's gamma * mult + mu
    adds one log det per block to gamma log det rho.  ``work`` holds the two
    (r - 1) s x s products of ``logdet_hessian``, allocated once per solve:
    fresh temporaries of that size cost page faults on every Newton step.
    """

    offset: np.ndarray
    forward: np.ndarray
    column_mult: np.ndarray
    work: np.ndarray

    @classmethod
    def of(cls, space: _Space, base: np.ndarray, tangent: np.ndarray) -> "_BlockMaps":
        def compressed(c):  # the (..., 2 s^2) real views of the copy-0 blocks of sum_i c_i S_i
            x = _copy_blocks(space.units(c), space.blocks)
            return x.view(float).reshape(c.shape[:-1] + (2 * x.shape[-1] ** 2,))  # no -1: z may be empty

        forward = compressed(tangent.T)
        mult = _column_mult(space.blocks)
        return cls(compressed(base), forward, mult, np.empty((2, len(forward) * mult.size, mult.size), complex))

    def spectrum(self, z):
        """Eigenvalues (ascending), eigenvectors and multiplicities of the state of z.

        Multiplicities are per eigenvector, sum_a mult_a |U_ak|^2, so they stay
        right when eigh mixes degenerate eigenvectors of different blocks.
        """
        s = self.column_mult.size
        vals, vecs = np.linalg.eigh((self.offset + z @ self.forward).view(complex).reshape(s, s))
        return vals, vecs, self.column_mult @ (vecs * vecs.conj()).real

    def coefficients(self, vals, vecs, weight):
        """z-gradient of sum_b w_b tr(X_b A_b), A the s x s operator with eigenpairs (vals, vecs)
        and ``weight`` w per column, constant on each block; at w = ``column_mult`` it is tr(rho A).
        Each entry sum_b w_b tr(F_i,b A_b) is one real dot product with a row of ``forward``."""
        weighted = weight[:, None] * ((vecs * vals) @ vecs.conj().T)
        return self.forward @ weighted.view(float).reshape(-1)

    def logdet_hessian(self, vals, vecs, weight):
        """z-Hessian of -sum_b w_b log det X_b at the state with eigenpairs (vals, vecs) = (Lambda, U).

        ``weight`` w is per column and constant on each block, so W = diag(w)
        commutes with X; at w = ``column_mult`` this is -log det rho.  With F_a
        the rows of ``forward``, the entry is sum_b w_b tr(X_b^-1 F_a,b X_b^-1
        F_c,b) = tr(K_a K_c), K_a = S^dag F_a S in the eigenbasis with S =
        W^(1/4) U Lambda^(-1/2).  Two plain products over all a, F_a S and then
        (F_a S)^T conj(S), give the K_a^T, and one real Gram matrix the entries.
        """
        s = weight.size
        scale = weight[:, None] ** 0.25 * (vecs / np.sqrt(vals))
        half, turned = self.work
        np.matmul(self.forward.view(complex).reshape(-1, s), scale, out=half)
        turned.reshape(-1, s, s)[...] = half.reshape(-1, s, s).transpose(0, 2, 1)
        k = np.matmul(turned, scale.conj(), out=half)
        flat = k.view(float).reshape(len(self.forward), -1)
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


def _centring_derivatives(term, maps: _BlockMaps, design, pred, spectrum, mu):
    """Gradient and Hessian in z of the centring value for barrier weight mu (``_barrier_newton``)."""
    vals, vecs, _ = spectrum
    g, w = term.weights(pred, mu)
    weight = term.gamma * maps.column_mult + mu
    grad = design.T @ g - maps.coefficients(1.0 / vals, vecs, weight)
    hess = design.T @ (w[:, None] * design) + maps.logdet_hessian(vals, vecs, weight)
    return grad, hess


def _path_derivative(term, maps: _BlockMaps, design, pred, spectrum, mu):
    """d/dmu of the centring gradient at fixed z; along the central path, where the gradient is 0,
    dz/dmu = -H^-1 times it.  Each column's weight gamma * mult + mu has mu-derivative 1, and the
    data term's gradient weights change by their ``drift``."""
    vals, vecs, _ = spectrum
    return design.T @ term.drift(pred, mu) - maps.coefficients(1.0 / vals, vecs, np.ones(vals.size))


def _barrier_newton(term, maps: _BlockMaps, frame, config: EstimatorConfig):
    """Minimize a data term minus gamma log det rho over the states rho = sum_i c_i S_i.

    Works in the coordinates c = base + P z of ``frame``, from z = 0 (I/d).
    Positivity is the barrier -mu sum_b log det X_b, one log det per block,
    whose parameter is s; with the gamma term each column carries the weight
    gamma * mult + mu.  The line search halves a step from length 1, and a
    trial whose own spectrum leaves the PSD cone is shortened before its
    predictions are formed.  Once a stage is centred and mu shrinks to mu', one
    predictor step follows the tangent of the central path, dz = -(mu' - mu)
    H^-1 d/dmu grad, with the stage's last Hessian H; the first of the lengths
    1, 1/2, 1/4, 1/8 that strictly lowers the mu' centring value is taken, as
    one Newton step, and if none does the stage starts where the last ended.
    Returns c, the objective there, the Newton steps taken, whether the
    duality gap was certified below the tolerance, and the least eigenvalue
    of the state.
    """
    base, tangent = frame
    offset, design = term.design @ base, term.design @ tangent
    gap_per_mu = term.barrier_parameter + maps.column_mult.size  # b + s

    # ``pred`` is offset + design @ z and ``spectrum`` maps.spectrum(z), each
    # computed once per point and shared by the value, objective and derivatives
    def objective(pred, spectrum):
        vals, _, mult = spectrum
        return term.objective(pred) - term.gamma * (mult @ np.log(vals))

    def centring_value(pred, spectrum, mu):
        """The barrier objective at a point inside the PSD cone; inf outside the data term's domain."""
        vals, _, mult = spectrum
        # eigenvector k carries the weight sum_j (gamma mult_j + mu) |U_jk|^2 = gamma mult_k + mu
        return term.value(pred, mu) - (term.gamma * mult + mu) @ np.log(vals)

    def line_search(z, value, step, decrease, mu, trials):
        """The first point z + 0.5**k step, k < ``trials``, inside the PSD cone whose value is below
        ``value`` and at most value + 0.5**k ``decrease``, with its prediction, spectrum and value;
        None if no trial is."""
        for halvings in range(trials):
            length = 0.5 ** halvings
            trial = z + length * step
            trial_spectrum = maps.spectrum(trial)
            if trial_spectrum[0][0] <= 0.0:  # outside the cone: shorten before predicting
                continue
            trial_pred = offset + design @ trial
            trial_value = centring_value(trial_pred, trial_spectrum, mu)
            # strict: next to a large value, length * decrease can round away
            if trial_value < value and trial_value <= value + length * decrease:
                return trial, trial_pred, trial_spectrum, trial_value
        return None

    z = np.zeros(tangent.shape[1])  # I/d
    pred, spectrum = offset + design @ z, maps.spectrum(z)
    if not z.size:  # a one-element space holds one unit-trace state, I/d
        return base, objective(pred, spectrum), 0, True, spectrum[0][0]
    # the first stage's gap bound is the objective at the start
    mu = max(1.0, objective(pred, spectrum)) / gap_per_mu
    value = centring_value(pred, spectrum, mu)
    iterations = 0
    converged = False
    while True:
        grad, hess = _centring_derivatives(term, maps, design, pred, spectrum, mu)
        step = _newton_direction(hess, grad)
        decrement = 0.5 * step @ hess @ step
        if decrement <= _CENTRED_PER_MU * mu:
            if mu * gap_per_mu > config.objective_tolerance * max(1.0, abs(objective(pred, spectrum))):
                shrunk = mu / _MU_SHRINK
                change = (shrunk - mu) * _path_derivative(term, maps, design, pred, spectrum, mu)
                mu = shrunk
                value = centring_value(pred, spectrum, mu)
                if iterations < config.max_iterations:
                    # the predictor -(mu' - mu) H^-1 d/dmu grad, on a strict decrease alone
                    predicted = line_search(z, value, _newton_direction(hess, change), 0.0, mu,
                                            _PREDICTOR_MAX_TRIALS)
                    if predicted is not None:
                        z, pred, spectrum, value = predicted
                        iterations += 1
                continue
            if decrement <= _CENTRED:  # the last stage also meets the absolute test
                converged = True
                break
        if iterations == config.max_iterations:
            break
        decrease = _ARMIJO * float(grad @ step)
        if decrease >= 0.0:  # roundoff has swamped the Newton direction
            break
        accepted = line_search(z, value, step, decrease, mu, _LINESEARCH_MAX_TRIALS)
        if accepted is None:
            break
        z, pred, spectrum, value = accepted
        iterations += 1
    return base + tangent @ z, objective(pred, spectrum), iterations, converged, spectrum[0][0]
