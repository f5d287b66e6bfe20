"""Output checks of the benchmark, in its own numpy code.

Each check raises ``CheckFailed``; the runner counts that operation as failed
instead of stopping.  None of these run inside a timed region.
"""

from __future__ import annotations

import numpy as np

from symtomo.measurement import RANK_TOL, setting_rotation
from symtomo.operators import assert_density_matrix


class CheckFailed(Exception):
    pass


OBJECTIVE_RTOL = 1e-9
# Below this the objective is zero up to roundoff (an exact fit), where a
# relative comparison would only compare rounding errors.
OBJECTIVE_ATOL = 1e-12


def density(rho, name: str) -> np.ndarray:
    """The estimate as a validated density matrix."""
    try:
        return assert_density_matrix(rho, name=name)
    except ValueError as exc:
        raise CheckFailed(str(exc)) from exc


def objective(rho, records, alpha=1.0, beta=1.0, gamma=0.0, floor=1e-6) -> float:
    """alpha sum_measured |tr(E rho) - f| / max(|f|, floor)
    + beta sum_unmeasured tr(E rho) - gamma log det rho, recomputed from scratch."""
    rho = np.asarray(rho)
    flat = rho.reshape(-1)
    value = 0.0
    for rec in records:
        # tr(E rho) for Hermitian E is sum_ab conj(E_ab) rho_ab
        expectation = float(np.real(np.conj(rec.projector).reshape(-1) @ flat))
        if rec.measured:
            value += alpha * abs(expectation - rec.frequency) / max(abs(rec.frequency), floor)
        else:
            value += beta * expectation
    if gamma > 0.0:
        eigs = np.linalg.eigvalsh(rho)
        if eigs[0] <= 0.0:
            return float("inf")
        value -= gamma * float(np.log(eigs).sum())
    return value


def same_objective(recomputed: float, reported: float, label: str) -> None:
    gap = abs(recomputed - reported)
    if not (gap <= OBJECTIVE_RTOL * max(abs(recomputed), abs(reported)) or gap <= OBJECTIVE_ATOL):
        raise CheckFailed(
            f"{label}: recomputed objective {recomputed!r} differs from reported {reported!r}"
        )


def project_to_state(h) -> np.ndarray:
    """Closest density matrix in Frobenius norm: eigenvalues onto the simplex."""
    h = 0.5 * (h + h.conj().T)
    vals, vecs = np.linalg.eigh(h)
    srt = np.sort(vals)[::-1]
    cum = np.cumsum(srt) - 1.0
    ks = np.arange(1, vals.size + 1)
    k = ks[srt - cum / ks > 0][-1]
    vals = np.clip(vals - cum[k - 1] / k, 0.0, None)
    return (vecs * vals) @ vecs.conj().T


def response_matrix(elements: np.ndarray, setting: str) -> np.ndarray:
    """Rows diag(U S_i U^dag) for one product setting, shape (2^n, r).

    The same map ``symtomo.measurement.response_rank`` stacks, contracted one
    qubit at a time instead of through dense d x d rotations, so that n = 6
    and 7 take well under a second.
    """
    r, d, _ = elements.shape
    n = len(setting)
    t = elements.reshape((r,) + (2,) * (2 * n))
    for q, axis in enumerate(setting):
        u = setting_rotation(axis)
        # w[l, j, k] = u[l, j] conj(u[l, k]) contracts row and column slot q
        w = u[:, :, None] * u.conj()[:, None, :]
        remaining = n - q
        t = np.tensordot(t, w, axes=([1, 1 + remaining], [1, 2]))
    return np.real(t.reshape(r, d)).T


def response_rank(elements: np.ndarray, settings) -> int:
    rows = np.vstack([response_matrix(elements, s) for s in settings])
    sv = np.linalg.svd(rows, compute_uv=False)
    return int((sv > RANK_TOL).sum())
