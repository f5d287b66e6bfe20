"""symtomo: symmetry-adapted tomography of few-qubit states.

The package turns a symmetry group into an operator basis, simulates noisy
state preparation and Pauli-basis sampling, reconstructs states with a
relative-error variational program (optionally restricted to the symmetry
algebra), and wraps all of it in reproducible sweep studies.
"""

__version__ = "0.1.0"

from .estimation import (
    EstimationProblem,
    EstimationResult,
    EstimatorConfig,
    linear_inversion,
    solve_cvqt,
    solve_git,
    solve_maxlik,
    solve_vqt,
)
from .harness import (
    SweepConfig,
    SweepRecord,
    SweepSummary,
    export,
    mix_seed,
    observable_count_sweep,
    run_sweep,
    summarize,
    sweep_config_from_dict,
)
from .measurement import (
    ObservableRecord,
    OutcomeHistogram,
    born_probabilities,
    exact_histogram,
    extract_frequencies,
    full_observables,
    full_settings,
    ingest_histograms,
    marginal_observables,
    observable_projector,
    pi_observables,
    pi_settings,
    sample_histogram,
    sample_state,
    save_histograms,
    select_settings,
    unmeasured_records,
)
from .metrics import MetricReport, concurrence, fidelity, metric_report, purity, trace_distance
from .operators import (
    eig_hermitian,
    hilbert_schmidt_inner,
    load_matrix,
    matrix_from_json,
    matrix_sqrt_psd,
    matrix_to_json,
    partial_trace,
    save_matrix,
    tensor,
)
from .statesim import (
    Circuit,
    Gate,
    NoiseModel,
    apply_channel,
    apply_channel_to_all,
    build_ghz_phase,
    build_twisted,
    build_werner_pair,
    ghz_state,
    kraus_operators,
    run_circuit,
    run_werner_pair,
    twisted_state,
    werner_exact,
)
from .symmetry import (
    SymmetricBasis,
    SymmetricCoefficients,
    SymmetrySpec,
    compute_commutant_basis,
    group_generators,
    project_onto_basis,
    reconstruct,
    symmetrize,
)

__all__ = [name for name in dir() if not name.startswith("_")]
