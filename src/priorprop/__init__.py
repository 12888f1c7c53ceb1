"""Label propagation with priors, weak-labeler fusion, and bound diagnostics."""

from priorprop._kernels import BACKEND as KERNEL_BACKEND
from priorprop.bounds import (
    AuditReport,
    BoundReport,
    HopStats,
    audit_inequalities,
    compute_bound,
    hop_stats,
)
from priorprop.evaluation import (
    Metrics,
    PipelineReport,
    SyntheticSpec,
    evaluate,
    generate_clusters,
    generate_weak_labelers,
    pipeline_report,
)
from priorprop.graph import (
    Graph,
    GraphFormatError,
    LabelSet,
    NeighborhoodPartition,
    average_degree,
    build_threshold_graph,
    compute_neighborhoods,
)
from priorprop.multisource import (
    ABSTAIN,
    LabelerAccuracy,
    WeakVoteMatrix,
    alpha_accuracy,
    alpha_boosting,
    alpha_constant,
    alpha_oracle,
    alpha_probabilistic,
    estimate_accuracy_from_labeled,
    reduce_to_single_prior,
    vote_prior,
)
from priorprop.solver import (
    Prediction,
    PriorField,
    SingularSystemError,
    SolverConfig,
    fixed_point_residual,
    objective_value,
    solve_soft,
    solve_standard,
    solve_with_prior,
)
from priorprop.spectral import (
    SpectralReport,
    laplacian,
    second_smallest_eigenvalue,
    spectral_bound,
)

__version__ = "0.1.0"
