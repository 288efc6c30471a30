"""Unsupervised feature selection by class-margin trace optimization.

A coefficient matrix with orthonormal columns is learned so that its row
norms score features: total data scatter is maximized while the spread
around K-means pseudo-labels and a row-sparsity penalty are minimized, all
in one alternating solver. Selection and clustering-based evaluation
utilities round out the pipeline; the `ufcm` command runs batch experiments.
"""

from .dataset import (
    CsvFormatError,
    DataMatrix,
    center,
    load_csv,
    make_blobs,
)
from .kmeans import (
    CandidateChoice,
    IndicatorMatrix,
    KMeansResult,
    run_kmeans,
    update_u_with_candidates,
)
from .metrics import (
    EvalStats,
    FeatureRanking,
    accuracy,
    evaluate_clustering,
    nmi,
    rank_features,
    select,
)
from .solver import (
    SolverConfig,
    SolverResult,
    SolverTrace,
    solve,
)

__version__ = "0.1.0"

__all__ = [
    "CandidateChoice",
    "CsvFormatError",
    "DataMatrix",
    "EvalStats",
    "FeatureRanking",
    "IndicatorMatrix",
    "KMeansResult",
    "SolverConfig",
    "SolverResult",
    "SolverTrace",
    "accuracy",
    "center",
    "evaluate_clustering",
    "load_csv",
    "make_blobs",
    "nmi",
    "rank_features",
    "run_kmeans",
    "select",
    "solve",
    "update_u_with_candidates",
]
