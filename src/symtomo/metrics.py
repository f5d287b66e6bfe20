"""State-comparison metrics: fidelity, purity, trace distance, concurrence."""

from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np

from .operators import (
    PAULI_Y,
    _state_spectrum,
    as_matrix,
    assert_density_matrix,
    tensor,
)


def _support_factor(vals: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """B = V diag(sqrt(lambda)) with rho = B B^dag, over the eigenvalues above size * eps * lambda_max.

    ``vals`` and ``vecs`` are rho's ``eigh``.  The eigenvalues at or below
    that cut-off are roundoff: a square root would turn each one at 1e-16
    into about 1e-8.
    """
    keep = vals > vals.size * np.finfo(float).eps * vals[-1]
    return vecs[:, keep] * np.sqrt(vals[keep])


def fidelity(rho, sigma, convention: str = "squared") -> float:
    """Uhlmann fidelity of two density matrices.

    The default ("squared") convention is F = (tr sqrt(sqrt(rho) sigma
    sqrt(rho)))^2, which equals |<psi|phi>|^2 on pure states; pass
    ``convention="sqrt"`` for the square-root variant used by some authors.

    tr sqrt(sqrt(rho) sigma sqrt(rho)) is the sum of the singular values of
    B_sigma^dag B_rho for any factors rho = B_rho B_rho^dag and
    sigma = B_sigma B_sigma^dag.  With the factors taken on each state's
    support (``_support_factor``, read off the one ``eigh`` that also checks
    each state), no square root of a roundoff eigenvalue enters the sum, and a
    small singular value is read as accurately as a large one.
    """
    if convention not in ("squared", "sqrt"):
        raise ValueError(f"unknown fidelity convention {convention!r}")
    rho, *rho_eigh = _state_spectrum(rho, "rho", vectors=True)
    sigma, *sigma_eigh = _state_spectrum(sigma, "sigma", vectors=True)
    if rho.shape != sigma.shape:
        raise ValueError(f"dimension mismatch {rho.shape} vs {sigma.shape}")
    overlap = _support_factor(*sigma_eigh).conj().T @ _support_factor(*rho_eigh)
    total = float(np.linalg.svd(overlap, compute_uv=False).sum())
    value = min(total, 1.0) if convention == "sqrt" else min(total * total, 1.0)
    return max(value, 0.0)


def purity(rho) -> float:
    """tr(rho^2); 1 for pure states, 1/d for the maximally mixed state."""
    rho = assert_density_matrix(rho)
    return float(np.real(np.trace(rho @ rho)))


def trace_distance(rho, sigma) -> float:
    """(1/2) || rho - sigma ||_1."""
    rho = assert_density_matrix(rho, name="rho")
    sigma = assert_density_matrix(sigma, name="sigma")
    if rho.shape != sigma.shape:
        raise ValueError(f"dimension mismatch {rho.shape} vs {sigma.shape}")
    return float(0.5 * np.abs(np.linalg.eigvalsh(rho - sigma)).sum())


def concurrence(rho) -> float:
    """Two-qubit entanglement monotone from the spin-flipped spectrum.

    With rho~ = (Y (x) Y) rho* (Y (x) Y) and l_1 >= ... >= l_4 the square
    roots of the eigenvalues of rho rho~, the concurrence is
    max(0, l_1 - l_2 - l_3 - l_4).  Defined for two-qubit states only.
    """
    rho = assert_density_matrix(rho)
    if rho.shape != (4, 4):
        raise ValueError("concurrence is defined for two-qubit states")
    flip = tensor(PAULI_Y, PAULI_Y)
    product = rho @ flip @ rho.conj() @ flip
    vals = np.linalg.eigvals(product)
    roots = np.sqrt(np.clip(np.real(vals), 0.0, None))
    roots.sort()
    return float(max(0.0, roots[-1] - roots[-2] - roots[-3] - roots[-4]))


@dataclass(frozen=True)
class MetricReport:
    """Bundle of metrics comparing an estimate (first state) to a reference.

    ``purity`` and ``concurrence`` describe the first state; ``concurrence``
    is ``None`` except for two-qubit states.
    """

    fidelity: float
    purity: float
    trace_distance: float
    concurrence: float | None

    def to_dict(self) -> dict:
        return asdict(self)


def metric_report(rho, sigma, fidelity_convention: str = "squared") -> MetricReport:
    rho = as_matrix(rho)
    return MetricReport(
        fidelity=fidelity(rho, sigma, convention=fidelity_convention),
        purity=purity(rho),
        trace_distance=trace_distance(rho, sigma),
        concurrence=concurrence(rho) if rho.shape == (4, 4) else None,
    )
