"""Block-wise MAP inference for determinantal point processes and
DPP-based change-point detection."""

from .errors import NonFinite, SingularToTolerance
from .kernel_model import (
    BlockPartition,
    CandidateKernel,
    DppKernel,
    SyntheticKernelSpec,
    build_quality_diversity_kernel,
    gamma_partition,
    gaussian_position_similarity,
    generate_synthetic_kernel,
    validate_partition,
)
from .map_inference import (
    blockwise_map,
    exhaustive_map,
    greedy_map,
    log_prob_unnormalized,
)
from .cpd_metrics import (
    DissimilarityProfile,
    dissimilarity_profile,
    glr_poisson,
    poisson_profile,
    segment_stats,
    symkl,
)
from .cpd_pipeline import (
    DetectionConfig,
    DetectionReport,
    build_cpd_kernel,
    candidate_quality,
    detect_change_points,
    detect_change_points_events,
    detector,
    generate_piecewise_gaussian,
    generate_poisson_events,
    pick_candidates,
)
from .evaluation import (
    EvalReport,
    MapBenchReport,
    MatchResult,
    benchmark_map,
    match_changes,
    precision_recall_f1,
    roc_sweep,
)

__version__ = "0.1.0"
