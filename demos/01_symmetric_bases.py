"""How many parameters does a symmetric state actually have?

Builds the operator bases the estimators search over and compares their
sizes against the 4^n parameters of an unconstrained density matrix.
"""

import numpy as np

from symtomo.symmetry import SymmetrySpec, compute_commutant_basis


def main():
    print("permutation symmetry (invariant under qubit relabeling)")
    print(f"{'qubits':>8} {'full':>8} {'symmetric':>10} {'savings':>8}")
    for n in range(2, 8):
        basis = compute_commutant_basis(SymmetrySpec.permutation(n))
        full = 4**n
        print(f"{n:>8} {full:>8} {basis.size:>10} {full / basis.size:>7.1f}x")

    print()
    print("collective rotation symmetry (invariant under U x U x ... x U)")
    for n in range(2, 7):
        basis = compute_commutant_basis(SymmetrySpec.collective(n))
        print(f"  {n} qubits: {basis.size} parameters instead of {4**n}")

    # the basis elements are orthonormal under the Hilbert-Schmidt inner
    # product, so coefficients are just overlaps
    basis = compute_commutant_basis(SymmetrySpec.permutation(3))
    gram = np.array(
        [
            [np.trace(a.conj().T @ b).real for b in basis.elements]
            for a in basis.elements
        ]
    )
    print()
    print(f"3-qubit permutation basis Gram matrix == identity: "
          f"{np.allclose(gram, np.eye(basis.size), atol=1e-10)}")

    # a custom symmetry: states invariant under conjugation by Z x Z
    zz = np.diag([1.0, -1.0, -1.0, 1.0]).astype(complex)
    custom = compute_commutant_basis(SymmetrySpec.custom_unitaries([zz]))
    print(f"custom Z(x)Z-invariant family: {custom.size} parameters")


if __name__ == "__main__":
    main()
