"""specdist: weakly-continuous distances between spectral measures.

Scalar and matrix-valued measures on an interval, classical scalar metrics
(total variation, Kolmogorov, 1-Wasserstein), an unbalanced Wasserstein-like
metric for matrix-valued measures solved by a certified first-order method,
its transport (primal) counterpart, a spectral distance for density matrices
with Dirac operators, and the benchmark spectra reproducing the comparison
study.
"""

__version__ = "0.1.0"

from .connes import (
    DiracSet,
    State,
    connes_distance,
    sufficient_kappa,
)
from .linalg import as_hermitian
from .matrix_dual import (
    DualCertificate,
    DualProblem,
    assemble_dual,
    check_certificate,
    dw1_kappa,
    solve_dual,
)
from .matrix_primal import (
    GapReport,
    TransportSolution,
    duality_gap,
    solve_unbalanced_primal,
)
from .measures import (
    Grid,
    MatrixMeasure,
    density_to_measure,
    load_measure,
    make_uniform_grid,
    save_measure,
    scalar_measure,
    total_mass,
    tv_matrix,
)
from .pdhg import ConvergenceError, SolverOptions
from .scalar_metrics import (
    kolmogorov,
    w1_balanced,
    w1_kappa_chain,
    w1_kappa_scalar,
)
from .spectra import (
    AR_FACTORS,
    Table1Report,
    ar_poly_abs2,
    benchmark_density,
    benchmark_measure,
    density_plot_data,
    itakura_saito,
    paper_grid,
    table1_report,
)
