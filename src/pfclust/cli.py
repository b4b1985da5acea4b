"""Command line front end.

Subcommands: normalize, cluster, validate, grid, heatmap. Exit codes:
0 success, 1 usage or configuration error, 2 data error (unreadable or
malformed input, id mismatches, degenerate rows), 3 numerical failure.

Errors print a single diagnostic line on stderr; with --json the line is
a JSON object. Output files are written to temporaries and renamed into
place only after every artifact has been produced, so failed runs leave
no partial outputs. Reruns with identical flags overwrite byte-identical
artifacts.
"""

from __future__ import annotations

import argparse
import io as _stdio
import json
import os
import sys
from dataclasses import asdict
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from . import __version__
from ._util import check_params
from .fuzzy import FuzzyPartition, NumericalError
from .harness import (
    DEFAULTS,
    NORMALIZATIONS,
    PARAMS,
    SUBSET_POLICIES,
    ExperimentGrid,
    run_algorithm,
    run_grid,
    preset_pairs,
)
from .heatmap import cluster_row_order, render_ppm
from .io import FORMATS, ParseError, parse_matrix, sniff_format, write_tsv
from .kmeans import HardPartition
from .matrix import ExpressionMatrix
from .normalize import DegenerateRowsError, normalize
from .serialize import (
    PartitionFile,
    read_centroids_csv,
    read_partition_csv,
    write_centroids_csv,
    write_metadata_json,
    write_partition_csv,
)
from .validity import ALGORITHMS, score

__all__ = ["main", "entry"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class UsageError(Exception):
    pass


class DataError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that raises instead of exiting, so main() owns exit codes."""

    def error(self, message):
        raise UsageError(message)


def _canon_method(name) -> str:
    """Accept dashed/underscored spellings of the normalization names."""
    flat = name.replace("-", "_").lower() if isinstance(name, str) else name
    if flat == "zscore":
        flat = "z_score"
    if flat not in NORMALIZATIONS:
        raise UsageError(
            f"unknown normalization {name!r}; expected none, mean-relative or zscore"
        )
    return flat


def _canon_algorithm(name) -> str:
    flat = name.replace("-", "_").lower() if isinstance(name, str) else name
    if flat not in ALGORITHMS:
        raise UsageError(
            f"unknown algorithm {name!r}; expected one of "
            + ", ".join(a.replace("_", "-") for a in ALGORITHMS)
        )
    return flat


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part != "")
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _read_matrix(path: str, fmt: str) -> ExpressionMatrix:
    effective = sniff_format(path) if fmt == "auto" else fmt
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    try:
        return parse_matrix(text, effective)
    except ParseError as exc:
        raise DataError(f"{path}: {exc}") from exc


def _atomic_write(outputs: Sequence[tuple[Path, Union[str, bytes]]]) -> None:
    """Write every (path, content) pair via a temp file and rename."""
    temps: list[tuple[Path, Path]] = []
    try:
        for path, content in outputs:
            tmp = path.with_name(path.name + f".tmp{os.getpid()}")
            if isinstance(content, bytes):
                tmp.write_bytes(content)
            else:
                tmp.write_text(content, encoding="utf-8")
            temps.append((tmp, path))
        for tmp, path in temps:
            os.replace(tmp, path)
    except BaseException:
        for tmp, _ in temps:
            tmp.unlink(missing_ok=True)
        raise


def _warn(args, message: str) -> None:
    if getattr(args, "json", False):
        print(json.dumps({"warning": message}), file=sys.stderr)
    else:
        print(f"warning: {message}", file=sys.stderr)


def _default_prefix(input_path: str) -> Path:
    p = Path(input_path)
    return p.with_name(p.stem) if p.suffix else p


# ---------------------------------------------------------------- normalize

def _cmd_normalize(args) -> int:
    method = _canon_method(args.method)
    if method == "none":
        raise UsageError("--method must be mean-relative or zscore")
    m = _read_matrix(args.input, args.format)
    out = normalize(m, method, drop_degenerate=args.drop_degenerate)
    dest = Path(args.output) if args.output else _default_prefix(args.input).with_name(
        _default_prefix(args.input).name + ".normalized.tsv"
    )
    buf = _stdio.StringIO()
    write_tsv(out, buf)
    _atomic_write([(dest, buf.getvalue())])
    if out.n_genes < m.n_genes:
        _warn(args, f"dropped {m.n_genes - out.n_genes} degenerate gene(s)")
    print(f"wrote {dest}")
    return EXIT_OK


# ------------------------------------------------------------------ cluster

def _validate_cluster_flags(args) -> str:
    alg = _canon_algorithm(args.alg)
    if args.k < 1:
        raise UsageError(f"--k must be >= 1, got {args.k}")
    # every flag is checked, also those the chosen algorithm ignores
    check_params(flags=True, **{key: getattr(args, key) for key in DEFAULTS})
    if args.farthest_init and alg in ("fcm", "pfcm"):
        raise UsageError("--farthest-init applies to kmeans and rough-kmeans only")
    return alg


def _cmd_cluster(args) -> int:
    alg = _validate_cluster_flags(args)
    method = _canon_method(args.normalize)
    m = _read_matrix(args.input, args.format)
    if method != "none":
        m = normalize(m, method, drop_degenerate=args.drop_degenerate)

    params = {key: getattr(args, key) for key in PARAMS[alg]}
    part = run_algorithm(
        alg, m, args.k, seed=args.seed, farthest_init=args.farthest_init, **params
    )
    meta: dict = {
        "command": "cluster",
        "input": args.input,
        "algorithm": alg,
        "k": args.k,
        "seed": args.seed,
        "normalization": method,
        "drop_degenerate": bool(args.drop_degenerate),
        "n_genes": m.n_genes,
        "n_samples": m.n_samples,
        **params,
        "iterations": part.iterations,
        "converged": part.converged,
    }
    if isinstance(part, HardPartition):
        meta.update(sse=part.sse, sse_trace=list(part.sse_trace))
    if isinstance(part, FuzzyPartition):
        meta.update(
            objective=part.objective_trace[-1],
            objective_trace=list(part.objective_trace),
        )
        if part.alpha is not None:
            meta["alpha"] = list(part.alpha)
    else:
        meta["farthest_init"] = bool(args.farthest_init)

    prefix = Path(args.out) if args.out else _default_prefix(args.input)
    part_buf, cent_buf, meta_buf = _stdio.StringIO(), _stdio.StringIO(), _stdio.StringIO()
    write_partition_csv(part, m.gene_ids, part_buf)
    write_centroids_csv(part.centroids, m.sample_ids, cent_buf)
    write_metadata_json(meta, meta_buf)
    outputs = [
        (prefix.with_name(prefix.name + ".partition.csv"), part_buf.getvalue()),
        (prefix.with_name(prefix.name + ".centroids.csv"), cent_buf.getvalue()),
        (prefix.with_name(prefix.name + ".meta.json"), meta_buf.getvalue()),
    ]
    _atomic_write(outputs)
    if not part.converged:
        _warn(args, f"did not converge within {args.max_iter} iterations")
    for path, _ in outputs:
        print(f"wrote {path}")
    return EXIT_OK


# ----------------------------------------------------------------- validate

def _read_partition(path: str, m: ExpressionMatrix) -> tuple[PartitionFile, np.ndarray]:
    """Read a partition CSV and the row in it of each matrix gene, in matrix order."""
    try:
        pf = read_partition_csv(path)
    except (OSError, ValueError) as exc:
        raise DataError(str(exc)) from exc
    if sorted(pf.gene_ids) != sorted(m.gene_ids):
        raise DataError(
            f"partition gene ids do not match the matrix "
            f"({len(pf.gene_ids)} vs {m.n_genes} genes)"
        )
    index = {gid: i for i, gid in enumerate(pf.gene_ids)}
    return pf, np.array([index[gid] for gid in m.gene_ids])


def _cmd_validate(args) -> int:
    if args.m < 1.0:
        raise UsageError(f"--m must be 1 or greater, got {args.m}")
    m = _read_matrix(args.input, args.format)
    pf, order = _read_partition(args.partition, m)
    try:
        centroids, _ = read_centroids_csv(args.centroids)
        u = pf.padded_memberships(centroids.shape[0])[order]
    except (OSError, ValueError) as exc:
        raise DataError(str(exc)) from exc
    if centroids.shape[1] != m.n_samples:
        raise DataError(
            f"centroids have {centroids.shape[1]} columns but the matrix has "
            f"{m.n_samples} samples"
        )

    algorithm = _canon_algorithm(args.algorithm) if args.algorithm else {
        "hard": "kmeans", "rough": "rough_kmeans", "fuzzy": "fcm",
    }[pf.kind]
    report = {
        "command": "validate",
        "input": args.input,
        "partition_file": args.partition,
        "centroids_file": args.centroids,
        "partition_kind": pf.kind,
        "m": args.m,
        **asdict(score(m, u, centroids, args.m, algorithm)),
    }
    buf = _stdio.StringIO()
    write_metadata_json(report, buf)
    if args.output:
        _atomic_write([(Path(args.output), buf.getvalue())])
        print(f"wrote {args.output}")
    else:
        sys.stdout.write(buf.getvalue())
    return EXIT_OK


# --------------------------------------------------------------------- grid

_GRID_CONFIG_KEYS = {
    "subset_sizes", "ks", "pairs", "algorithms", "normalization",
    "subset_policy", "seeds", "overrides",
}


def _grid_from_config(path: str) -> ExperimentGrid:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise DataError(f"{path}: grid config must be a JSON object")
    unknown = set(doc) - _GRID_CONFIG_KEYS
    if unknown:
        raise UsageError(
            f"unknown grid config key(s): {', '.join(sorted(unknown))}; "
            f"expected {', '.join(sorted(_GRID_CONFIG_KEYS))}"
        )
    try:
        if "algorithms" in doc:
            doc["algorithms"] = tuple(_canon_algorithm(a) for a in doc["algorithms"])
        if "normalization" in doc:
            doc["normalization"] = _canon_method(doc["normalization"])
        return ExperimentGrid(**doc)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"{path}: {exc}") from exc


def _cmd_grid(args) -> int:
    if args.workers < 1:
        raise UsageError(f"--workers must be >= 1, got {args.workers}")
    m = _read_matrix(args.input, args.format)
    if args.config:
        if args.sizes or args.ks or args.preset:
            raise UsageError("--config cannot be combined with --sizes/--ks/--preset")
        grid = _grid_from_config(args.config)
    else:
        kwargs: dict = {
            "algorithms": tuple(_canon_algorithm(a) for a in args.algorithms.split(",")),
            "normalization": _canon_method(args.normalization),
            "subset_policy": args.policy,
            "seeds": args.seeds,
        }
        if args.preset:
            if args.sizes or args.ks:
                raise UsageError("--preset cannot be combined with --sizes/--ks")
            kwargs["pairs"] = preset_pairs(m.n_genes)
        else:
            if not args.sizes or not args.ks:
                raise UsageError("provide --sizes and --ks, or --preset, or --config")
            kwargs["subset_sizes"] = args.sizes
            kwargs["ks"] = args.ks
        try:
            grid = ExperimentGrid(**kwargs)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc

    result = run_grid(m, grid, workers=args.workers)

    prefix = Path(args.out) if args.out else _default_prefix(args.input)
    report_buf, json_buf, summary_buf = _stdio.StringIO(), _stdio.StringIO(), _stdio.StringIO()
    result.write_report_csv(report_buf)
    result.write_report_json(json_buf)
    result.write_summary_csv(summary_buf)
    outputs = [
        (prefix.with_name(prefix.name + ".report.csv"), report_buf.getvalue()),
        (prefix.with_name(prefix.name + ".report.json"), json_buf.getvalue()),
        (prefix.with_name(prefix.name + ".summary.csv"), summary_buf.getvalue()),
    ]
    if args.timings:
        timings_buf = _stdio.StringIO()
        result.write_timings_csv(timings_buf)
        outputs.append((prefix.with_name(prefix.name + ".timings.csv"), timings_buf.getvalue()))
    _atomic_write(outputs)
    failed = sum(1 for r in result.rows if r.error is not None)
    if failed:
        _warn(args, f"{failed} of {len(result.rows)} runs failed; see the error column")
    for path, _ in outputs:
        print(f"wrote {path}")
    return EXIT_OK


# ------------------------------------------------------------------ heatmap

def _cmd_heatmap(args) -> int:
    if args.scale < 1:
        raise UsageError(f"--scale must be >= 1, got {args.scale}")
    m = _read_matrix(args.input, args.format)
    order = None
    if args.partition:
        pf, rows = _read_partition(args.partition, m)
        order = cluster_row_order(pf.assignments[rows])
    data = render_ppm(m, row_order=order, scale=args.scale)
    dest = Path(args.output) if args.output else _default_prefix(args.input).with_name(
        _default_prefix(args.input).name + ".ppm"
    )
    _atomic_write([(dest, data)])
    print(f"wrote {dest}")
    return EXIT_OK


# ------------------------------------------------------------------ parser

def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("input", help="expression matrix file")
    p.add_argument(
        "--format", choices=("auto",) + FORMATS, default="auto",
        help="input format (default: by file extension)",
    )
    p.add_argument("--json", action="store_true", help="JSON diagnostics on stderr")


def _build_parser() -> _Parser:
    parser = _Parser(prog="pfclust", description="Expression-matrix clustering toolkit")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True, metavar="subcommand")

    p = sub.add_parser("normalize", help="row-normalize a matrix and write TSV")
    _add_common(p)
    p.add_argument("--method", required=True, help="mean-relative or zscore")
    p.add_argument("--drop-degenerate", action="store_true",
                   help="drop rows that cannot be normalized instead of failing")
    p.add_argument("-o", "--output", help="output TSV path (default: <input>.normalized.tsv)")
    p.set_defaults(func=_cmd_normalize)

    p = sub.add_parser("cluster", help="run one clustering algorithm")
    _add_common(p)
    p.add_argument("--alg", required=True,
                   help="kmeans, rough-kmeans, fcm or pfcm")
    p.add_argument("--k", type=int, required=True, help="number of clusters")
    p.add_argument("--m", type=float, default=DEFAULTS["m"], help="fuzzifier (fcm/pfcm)")
    p.add_argument("--v", type=float, default=DEFAULTS["v"], help="penalty weight (pfcm)")
    p.add_argument("--zeta", type=float, default=DEFAULTS["zeta"],
                   help="distance-ratio threshold (rough-kmeans)")
    p.add_argument("--w-lower", type=float, default=DEFAULTS["w_lower"],
                   help="lower-approximation weight (rough-kmeans)")
    p.add_argument("--eps", type=float, default=DEFAULTS["eps"], help="convergence tolerance")
    p.add_argument("--max-iter", type=int, default=DEFAULTS["max_iter"], help="iteration cap")
    p.add_argument("--seed", type=int, default=0, help="RNG seed")
    p.add_argument("--farthest-init", action="store_true",
                   help="greedy farthest-point initialization (kmeans/rough-kmeans)")
    p.add_argument("--normalize", default="none",
                   help="normalize first: none, mean-relative or zscore")
    p.add_argument("--drop-degenerate", action="store_true")
    p.add_argument("--out", help="output prefix (default: input path without extension)")
    p.set_defaults(func=_cmd_cluster)

    p = sub.add_parser("validate", help="score a stored partition against a matrix")
    _add_common(p)
    p.add_argument("--partition", required=True, help="partition CSV")
    p.add_argument("--centroids", required=True, help="centroid CSV")
    p.add_argument("--m", type=float, default=2.0,
                   help="fuzzifier weighting rmse/mae (use 1 for hard partitions)")
    p.add_argument("--algorithm", help="algorithm tag for the report")
    p.add_argument("-o", "--output", help="write the JSON report here instead of stdout")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("grid", help="run the comparative experiment grid")
    _add_common(p)
    p.add_argument("--config", help="grid config JSON file")
    p.add_argument("--sizes", type=_int_list, default=(), help="comma-separated subset sizes")
    p.add_argument("--ks", type=_int_list, default=(), help="comma-separated cluster counts")
    p.add_argument("--preset", action="store_true",
                   help="use the four preset (size, k) cells scaled to this matrix")
    p.add_argument("--algorithms", default=",".join(ALGORITHMS),
                   help="comma-separated algorithm subset")
    p.add_argument("--normalization", default="zscore",
                   help="none, mean-relative or zscore (default zscore)")
    p.add_argument("--policy", choices=SUBSET_POLICIES, default="variance_top_n",
                   help="gene subset policy")
    p.add_argument("--seeds", type=_int_list, default=(0,), help="comma-separated seeds")
    p.add_argument("--workers", type=int, default=1, help="worker threads")
    p.add_argument("--timings", action="store_true",
                   help="also write wall-clock timings (not reproducible)")
    p.add_argument("--out", help="output prefix (default: input path without extension)")
    p.set_defaults(func=_cmd_grid)

    p = sub.add_parser("heatmap", help="render a red/green PPM heatmap")
    _add_common(p)
    p.add_argument("--partition", help="partition CSV used to group rows by cluster")
    p.add_argument("--scale", type=int, default=1, help="integer pixel scale per cell")
    p.add_argument("-o", "--output", help="output PPM path (default: <input>.ppm)")
    p.set_defaults(func=_cmd_heatmap)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    json_mode = "--json" in argv
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        return _fail(EXIT_USAGE, str(exc), json_mode)
    except (ParseError, DegenerateRowsError, DataError) as exc:
        return _fail(EXIT_DATA, str(exc), json_mode)
    except NumericalError as exc:
        return _fail(EXIT_NUMERIC, str(exc), json_mode)
    except OSError as exc:
        return _fail(EXIT_DATA, str(exc), json_mode)
    except ValueError as exc:
        return _fail(EXIT_USAGE, str(exc), json_mode)


def _fail(code: int, message: str, json_mode: bool) -> int:
    if json_mode:
        print(json.dumps({"error": message, "exit_code": code}), file=sys.stderr)
    else:
        print(f"error: {message}", file=sys.stderr)
    return code


def entry() -> None:
    sys.exit(main())
