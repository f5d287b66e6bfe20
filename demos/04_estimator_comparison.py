"""Three reconstruction routes on one noisy data set.

The symmetry-restricted variational estimator, the full-space variational
estimator, and maximum likelihood all see the same histograms from a
depolarized 2-qubit entangled state.  The symmetric route searches 10
parameters, the other two search 16.  All three run the same barrier Newton
solve, with a relative-error or a log-likelihood data term, and stop on a
certified duality gap.
"""

import numpy as np

from symtomo.estimation import EstimatorConfig, solve_cvqt, solve_git, solve_maxlik
from symtomo.measurement import extract_frequencies, full_observables, full_settings, pi_observables
from symtomo.metrics import metric_report
from symtomo.operators import projector
from symtomo.statesim import apply_channel, ghz_state
from symtomo.symmetry import SymmetrySpec, compute_commutant_basis


def main():
    n = 2
    ideal = projector(ghz_state(n))
    rho = ideal
    for q in range(n):
        rho = apply_channel(rho, "depolarizing", 0.1, q)

    from symtomo.measurement import sample_state

    hists = sample_state(rho, full_settings(n), shots=4096, seed=5)
    config = EstimatorConfig(gamma=0.0)

    basis = compute_commutant_basis(SymmetrySpec.permutation(n))
    pooled = extract_frequencies(hists, pi_observables(n), pi_mode=True)
    full = extract_frequencies(hists, full_observables(n))

    results = {
        "symmetric variational": solve_git(pooled, basis, config),
        "full-space variational": solve_cvqt(full, 2**n, config),
        "maximum likelihood": solve_maxlik(full, config),
    }

    print(f"true state: depolarized entangled pair (level 0.1), 4096 shots/setting\n")
    print(f"{'estimator':>24} {'F vs true':>10} {'purity':>8} {'concurrence':>12} {'iters':>6}")
    for name, res in results.items():
        rep = metric_report(res.rho_hat, rho)
        print(f"{name:>24} {rep.fidelity:>10.4f} {rep.purity:>8.4f} "
              f"{rep.concurrence:>12.4f} {res.iterations:>6}")

    rep = metric_report(results["symmetric variational"].rho_hat,
                        results["full-space variational"].rho_hat)
    print(f"\nsymmetric vs full-space estimates agree at F = {rep.fidelity:.4f}")
    print("(they solve the same program; the symmetric route just fixes the")
    print(" off-commutant coordinates at zero, which the data supports here)")


if __name__ == "__main__":
    main()
