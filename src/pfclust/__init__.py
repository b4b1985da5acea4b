"""Clustering toolkit for gene-expression matrices.

Data model and IO (ExpressionMatrix, TSV/GCT/RES parsing), row
normalization, four clustering algorithms (k-means, rough k-means, fuzzy
c-means and its penalized variant), validity measures, a comparative
experiment harness, heatmap rendering and CSV/JSON serialization. The
``pfclust`` console script fronts all of it.
"""

__version__ = "0.1.0"

from .fuzzy import (
    ALPHA_FLOOR,
    FuzzyConfig,
    FuzzyPartition,
    NumericalError,
    compute_alpha,
    compute_centroids,
    fcm,
    pfcm,
    pfcm_objective,
    update_memberships,
)
from .harness import (
    DEFAULTS,
    PARAMS,
    ExperimentGrid,
    ExperimentResult,
    generate_synthetic,
    run_algorithm,
    run_grid,
    subset_genes,
    preset_pairs,
)
from .heatmap import cluster_row_order, render_ppm, render_rgb, write_ppm
from .io import ParseError, parse_matrix, sniff_format, write_tsv
from .kmeans import HardPartition, kmeans
from .matrix import ExpressionMatrix
from .normalize import DegenerateRowsError, mean_relative, normalize, z_score
from .rough import RoughPartition, rough_kmeans
from .serialize import (
    PartitionFile,
    read_centroids_csv,
    read_partition_csv,
    write_centroids_csv,
    write_metadata_json,
    write_partition_csv,
)
from .validity import (
    ALGORITHMS,
    ValidityReport,
    evaluate,
    mae,
    rmse,
    unified_memberships,
    xie_beni,
)

__all__ = [
    "__version__",
    "ALGORITHMS",
    "ALPHA_FLOOR",
    "DEFAULTS",
    "DegenerateRowsError",
    "ExperimentGrid",
    "ExperimentResult",
    "ExpressionMatrix",
    "FuzzyConfig",
    "FuzzyPartition",
    "HardPartition",
    "NumericalError",
    "PARAMS",
    "ParseError",
    "PartitionFile",
    "RoughPartition",
    "ValidityReport",
    "cluster_row_order",
    "compute_alpha",
    "compute_centroids",
    "evaluate",
    "fcm",
    "generate_synthetic",
    "kmeans",
    "mae",
    "mean_relative",
    "normalize",
    "parse_matrix",
    "pfcm",
    "pfcm_objective",
    "read_centroids_csv",
    "read_partition_csv",
    "render_ppm",
    "render_rgb",
    "rmse",
    "rough_kmeans",
    "run_algorithm",
    "run_grid",
    "sniff_format",
    "subset_genes",
    "preset_pairs",
    "unified_memberships",
    "update_memberships",
    "write_centroids_csv",
    "write_metadata_json",
    "write_partition_csv",
    "write_ppm",
    "write_tsv",
    "xie_beni",
    "z_score",
]
