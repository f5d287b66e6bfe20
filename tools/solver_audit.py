"""Audit the barrier solve on 200 pure-state solves, whose optima are rank deficient.

Pure GHZ states at n = 2 and 3 are sampled on all 3^n settings at 4096
shots, with the seeds of the acceptance tests ``test_04`` (1000-1009) and
``test_05`` (2000-2009).  Each of these 40 data sets is solved five ways:
git on the pooled records and cvqt on the full records, each at gamma = 0 and
1e-3, and ``maxlik`` on the full records.  A pure state's optimum lies on the
boundary of the PSD cone, where the barrier's last steps are hardest, so a
change to the solver shows here before it shows on noisy data.

The script prints, per estimator and in total, the solves that converged and
the Newton steps taken, and it lists the estimates whose dense least
eigenvalue is below 0.  ``--json PATH`` writes each solve's objective,
``converged`` flag, Newton steps and least eigenvalue.  ``--compare PATH``
reads such a file from another tree and counts, on each tree, the converged
solves whose objective lies above the lower of the two trees' by more than
1e-8 * max(1, |lower|).  The script reports and does not judge: it exits 0
whatever the counts.

Usage, from any directory (it imports the ``src/symtomo`` of the checkout it
sits in)::

    python tools/solver_audit.py [--json PATH] [--compare PATH]
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict
from pathlib import Path

# the package of this checkout, ahead of any installed one
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np

from symtomo.estimation import EstimatorConfig, solve_cvqt, solve_git, solve_maxlik
from symtomo.measurement import extract_frequencies, full_observables, full_settings, pi_observables, sample_state
from symtomo.operators import projector
from symtomo.statesim import ghz_state
from symtomo.symmetry import SymmetrySpec, compute_commutant_basis

SHOTS = 4096
SEEDS = tuple(range(1000, 1010)) + tuple(range(2000, 2010))
GAMMAS = (0.0, 1e-3)
ABOVE = 1e-8  # relative excess over the lower objective that counts as a worse optimum


def solves(ns=(2, 3), seeds=SEEDS) -> dict:
    """{label: {objective, converged, iterations, least_eigenvalue}} of every audited solve."""
    out = {}
    for n in ns:
        basis = compute_commutant_basis(SymmetrySpec.permutation(n))
        rho = projector(ghz_state(n))
        for seed in seeds:
            hists = sample_state(rho, full_settings(n), SHOTS, seed=seed)
            pooled = extract_frequencies(hists, pi_observables(n), pi_mode=True)
            full = extract_frequencies(hists, full_observables(n))
            results = {}
            for gamma in GAMMAS:
                config = EstimatorConfig(gamma=gamma)
                results[f"git gamma={gamma:g}"] = solve_git(pooled, basis, config)
                results[f"cvqt gamma={gamma:g}"] = solve_cvqt(full, 2**n, config)
            results["maxlik"] = solve_maxlik(full)
            for name, result in results.items():
                out[f"n={n} seed={seed} {name}"] = {
                    "objective": float(result.objective),
                    "converged": bool(result.converged),
                    "iterations": int(result.iterations),
                    "least_eigenvalue": float(np.linalg.eigvalsh(result.rho_hat)[0]),
                }
    return out


def above_lower(mine: dict, other: dict) -> list[str]:
    """Labels of my converged solves whose objective lies above the lower of the two trees' by more than
    ``ABOVE`` * max(1, |lower|)."""
    worse = []
    for label, solve in mine.items():
        if solve["converged"] and label in other:
            lower = min(solve["objective"], other[label]["objective"])
            if solve["objective"] - lower > ABOVE * max(1.0, abs(lower)):
                worse.append(label)
    return worse


def report(audit: dict) -> list[str]:
    """The lines the script prints for one tree's solves."""
    by_estimator = defaultdict(list)
    for label, solve in audit.items():
        by_estimator[label.split(" ", 2)[2]].append(solve)
    lines = []
    for name, group in sorted(by_estimator.items()) + [("total", list(audit.values()))]:
        converged = sum(s["converged"] for s in group)
        steps = sum(s["iterations"] for s in group)
        lines.append(f"{name:18s} converged {converged:3d} of {len(group):3d}, {steps:5d} Newton steps")
    negative = sorted((s["least_eigenvalue"], label) for label, s in audit.items() if s["least_eigenvalue"] < 0.0)
    lines.append(f"estimates with a negative least eigenvalue: {len(negative)}")
    lines += [f"  {value:.2e}  {label}" for value, label in negative]
    return lines


def main(argv: list[str]) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--json", type=Path, help="write each solve's figures to this file")
    parser.add_argument("--compare", type=Path, help="another tree's --json file to compare objectives with")
    args = parser.parse_args(argv)
    audit = solves()
    print("\n".join(report(audit)))
    if args.json:
        args.json.write_text(json.dumps(audit, indent=1, sort_keys=True) + "\n")
    if args.compare:
        other = json.loads(args.compare.read_text())
        print(f"converged solves above the lower objective by > {ABOVE:g} relative: "
              f"this tree {len(above_lower(audit, other))}, the other {len(above_lower(other, audit))}")


if __name__ == "__main__":
    main(sys.argv[1:])
