"""Clustering toolkit for gene-expression matrices.

Data model and IO (ExpressionMatrix, TSV/GCT/RES parsing), row
normalization, four clustering algorithms (k-means, rough k-means, fuzzy
c-means and its penalized variant), validity measures, a comparative
experiment harness, heatmap rendering and CSV/JSON serialization. The
``pfclust`` console script fronts all of it.

Each name below is loaded from its home module on first use (PEP 562), so
``import pfclust`` loads only numpy and the modules behind ``kmeans`` and
``normalize``. Those two are imported at once, as each is also a submodule
name: the package attribute must be the function, whichever module a
caller imports first.
"""

from importlib import import_module

__version__ = "0.1.0"

from .kmeans import kmeans
from .normalize import normalize

# each home module and the public names it defines
_EXPORTS = {
    "_util": ("ALGORITHMS", "DEFAULTS", "NumericalError", "PARAMS"),
    "fuzzy": ("ALPHA_FLOOR", "FuzzyConfig", "FuzzyPartition", "compute_alpha",
              "compute_centroids", "fcm", "pfcm", "pfcm_objective", "update_memberships"),
    "harness": ("ExperimentGrid", "ExperimentResult", "generate_synthetic", "preset_pairs",
                "run_algorithm", "run_grid", "subset_genes"),
    "heatmap": ("cluster_row_order", "render_ppm", "render_rgb", "write_ppm"),
    "io": ("ParseError", "parse_matrix", "sniff_format", "write_tsv"),
    "kmeans": ("HardPartition", "kmeans"),
    "matrix": ("ExpressionMatrix",),
    "normalize": ("DegenerateRowsError", "mean_relative", "normalize", "z_score"),
    "rough": ("RoughPartition", "rough_kmeans"),
    "serialize": ("PartitionFile", "read_centroids_csv", "read_partition_csv",
                  "write_centroids_csv", "write_metadata_json", "write_partition_csv"),
    "validity": ("ValidityReport", "evaluate", "mae", "rmse", "unified_memberships",
                 "xie_beni"),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_HOME]


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_HOME[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
