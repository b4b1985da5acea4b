"""Command line front end.

Subcommands: normalize, cluster, validate, grid, heatmap. Exit codes:
0 success, 1 usage or configuration error, 2 data error (unreadable or
malformed input, id mismatches, degenerate rows), 3 numerical failure.

Errors print a single diagnostic line on stderr; with --json the line is
a JSON object. Each artifact's library writer writes it into a temporary
file next to its destination, and the temporaries are renamed into place
only once every one of them is written, so failed runs leave no partial
outputs. Flag errors, among them grid's --config conflicts with the other
grid flags, a grid ExperimentGrid refuses, a name the library's one
name rule (``_util.canonical``) does not know and a --k, --seed,
--workers or --scale its one count rule (``_util.count``) refuses, exit
1 before the matrix is read. Output paths are checked before any input
is read: one that names a directory, lies in a missing one or is not a
regular file (a FIFO or a device, which the rename would replace), like
one that fails at write time, exits 2 with "cannot write <path>:
<reason>". A MemoryError exits 2.
An unreadable or non-UTF-8 input exits 2 with "cannot read <path>:
<reason>", and a partition cell that is not a number names its gene. A
grid whose worker process dies runs again in process, to the same reports.
normalize writes its TSV and, in the same atomic write, the TSV's binary
companion (``io.write_companion``). Every subcommand takes a tsv input's
values from a companion that matches its bytes (``io.read_tsv_file``);
no other subcommand writes one.
Reruns with identical flags overwrite byte-identical artifacts.

The module imports at its top only what the parser and every subcommand
share: numpy, ``_util`` (which holds the parser's name tables), ``io``,
``matrix``, ``normalize`` and ``heatmap``. Each handler imports the rest:
``harness`` for cluster and grid, ``serialize`` for cluster, validate and
heatmap, ``validity`` for validate. So normalize, validate, heatmap and
--version start without the grid harness, fuzzy or rough, and ``entry()``
ends each process without the interpreter's teardown.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import re
import sys
import threading
from dataclasses import asdict, fields, replace
from functools import partial
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Optional, Sequence

import numpy as np

from . import __version__
from ._util import (
    ALGORITHMS, DEFAULTS, GRID_DEFAULTS, NORMALIZATIONS, PARAMS, PRESET_PAIRS, NumericalError,
    canonical, check_params, count, default_m,
)
from .heatmap import cluster_row_order, write_ppm
from .io import (
    FORMATS,
    ParseError,
    companion_path,
    parse_matrix,
    read_tsv_file,
    sniff_format,
    write_companion,
    write_tsv,
)
from .matrix import ExpressionMatrix
from .normalize import METHODS, DegenerateRowsError, normalize

if TYPE_CHECKING:
    from .harness import ExperimentGrid
    from .serialize import PartitionFile

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

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse's own pattern has no exponent form, so `--eps -1e-3` would
        # read -1e-3 as an option and never reach the range check
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    def error(self, message):
        raise UsageError(message)


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part != "")
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _read(path: str, read: Optional[Callable] = None):
    """read(path), by default the file's UTF-8 text, with any failure as a DataError."""
    try:
        return read(path) if read else Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {path}: {getattr(exc, 'strerror', None) or exc}") from exc
    except ValueError as exc:
        raise DataError(str(exc)) from exc


def _read_matrix(path: str, fmt: str) -> ExpressionMatrix:
    """The matrix at `path`: a tsv file from its companion when that matches
    the bytes read (io.read_tsv_file), any file from its parsed text."""
    fmt = sniff_format(path) if fmt == "auto" else fmt
    text, m = _read(path, read_tsv_file) if fmt == "tsv" else (_read(path), None)
    try:
        return m if m is not None else parse_matrix(text, fmt)
    except ParseError as exc:
        raise DataError(f"{path}: {exc}") from exc


def _temp(path: Path) -> Path:
    """The temp file beside `path` that _atomic_write has its writer write."""
    return path.with_name(path.name + f".tmp{os.getpid()}")


def _atomic_write(outputs: Iterable[tuple[Path, Callable[[Path], None]]]) -> None:
    """Call each writer on a temp file beside its path; rename all once all are written.

    Writers run in order, so a writer may read an earlier output's temp.
    Prints "wrote <path>" per output on success. On any exception every
    temp is removed, and an OSError becomes a DataError naming the path
    being written or renamed.
    """
    outputs = list(outputs)
    temps: list[Path] = []
    try:
        for path, write in outputs:
            # registered first, so a half-written temp is removed too
            temps.append(_temp(path))
            write(temps[-1])
        for tmp, (path, _) in zip(temps, outputs):
            os.replace(tmp, path)
    except BaseException as exc:
        for tmp in temps:
            # a failed removal (the temp name may be a directory) must not
            # replace the error that got us here
            with contextlib.suppress(OSError):
                tmp.unlink()
        if isinstance(exc, OSError):
            raise DataError(f"cannot write {path}: {exc.strerror or exc}") from exc
        raise
    for path, _ in outputs:
        print(f"wrote {path}")


def _warn(args, message: str) -> None:
    if getattr(args, "json", False):
        print(json.dumps({"warning": message}), file=sys.stderr)
    else:
        print(f"warning: {message}", file=sys.stderr)


def _outputs(args, *suffixes: str) -> list[Path]:
    """Name and check a subcommand's outputs before any input is read.

    `-o` names the one output; else each suffix goes on the `--out` prefix,
    by default the input path without its extension (no suffix: no path).
    """
    one = getattr(args, "output", None)
    given = one or getattr(args, "out", None)
    if given and (given.endswith((os.sep, os.altsep or os.sep)) or os.path.isdir(given)):
        raise DataError(f"cannot write {given}: Is a directory")
    p = Path(given or args.input)
    paths = [p] if one else [p.with_name((p.name if given else p.stem) + s) for s in suffixes]
    # a default path sits beside the input, whose read reports a missing directory
    if given and not paths[0].parent.is_dir():
        reason = "Not a directory" if paths[0].parent.exists() else "No such file or directory"
        raise DataError(f"cannot write {paths[0]}: {reason}")
    _regular(paths)
    return paths


def _regular(paths: Iterable[Path]) -> None:
    """Refuse an existing path that is not a regular file, or a symlink to one."""
    for p in paths:
        if os.path.exists(p) and not os.path.isfile(p):
            raise DataError(f"cannot write {p}: not a regular file")


# ---------------------------------------------------------------- normalize

def _cmd_normalize(args) -> int:
    method = canonical(args.method, METHODS, "normalization")
    tsv = _outputs(args, ".normalized.tsv")[0]
    _regular([companion_path(tsv)])
    m = _read_matrix(args.input, args.format)
    out = normalize(m, method, drop_degenerate=args.drop_degenerate)
    # the companion holds the digest of the tsv temp's bytes, which are renamed unchanged
    _atomic_write([(tsv, partial(write_tsv, out)),
                   (companion_path(tsv), partial(write_companion, out.values, _temp(tsv)))])
    if out.n_genes < m.n_genes:
        _warn(args, f"dropped {m.n_genes - out.n_genes} degenerate gene(s)")
    return EXIT_OK


# ------------------------------------------------------------------ cluster

def _validate_cluster_flags(args) -> str:
    alg = canonical(args.alg, ALGORITHMS, "algorithm")
    count(args.k, "--k", 1)
    count(args.seed, "--seed", 0)
    # every flag is checked, also those the chosen algorithm ignores
    check_params(flags=True, **{key: getattr(args, key) for key in DEFAULTS})
    if args.farthest_init and alg in ("fcm", "pfcm"):
        raise UsageError("--farthest-init applies to kmeans and rough-kmeans only")
    return alg


def _cmd_cluster(args) -> int:
    from .harness import run_algorithm
    from .serialize import write_centroids_csv, write_metadata_json, write_partition_csv

    alg = _validate_cluster_flags(args)
    method = canonical(args.normalize, NORMALIZATIONS, "normalization")
    paths = _outputs(args, ".partition.csv", ".centroids.csv", ".meta.json")
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
        "stop_reason": part.stop_reason,
    }
    if alg == "kmeans":
        meta.update(sse=part.sse, sse_trace=list(part.sse_trace))
    if alg in ("fcm", "pfcm"):
        meta.update(
            objective=part.objective_trace[-1],
            objective_trace=list(part.objective_trace),
        )
        if alg == "pfcm":
            meta["alpha"] = list(part.alpha)
    else:
        meta["farthest_init"] = bool(args.farthest_init)

    _atomic_write(zip(paths, [
        partial(write_partition_csv, part, m.gene_ids),
        partial(write_centroids_csv, part.centroids, m.sample_ids),
        partial(write_metadata_json, meta),
    ]))
    if part.stop_reason == "cycle":
        _warn(args, "did not converge: the centroids cycle; "
                    f"stopped after {part.iterations} iterations")
    elif part.stop_reason == "max_iter":
        _warn(args, f"did not converge within {args.max_iter} iterations")
    return EXIT_OK


# ----------------------------------------------------------------- validate

def _read_partition(path: str, m: ExpressionMatrix) -> tuple[PartitionFile, np.ndarray]:
    """Read a partition CSV and the row in it of each matrix gene, in matrix order."""
    from .serialize import read_partition_csv

    pf = _read(path, read_partition_csv)
    # both id lists are distinct: equal lengths and no matrix gene missing mean one set
    index = {gid: i for i, gid in enumerate(pf.gene_ids)}
    rows = [index.get(gid) for gid in m.gene_ids]
    if len(index) != len(rows) or None in rows:
        raise DataError(
            f"partition gene ids do not match the matrix "
            f"({len(pf.gene_ids)} vs {m.n_genes} genes)"
        )
    return pf, np.array(rows)


def _cmd_validate(args) -> int:
    from .serialize import read_centroids_csv, write_metadata_json
    from .validity import score

    if args.m is not None and not args.m >= 1.0:
        raise UsageError(f"--m must be 1 or greater, got {args.m}")
    algorithm = canonical(args.algorithm, ALGORITHMS, "algorithm") if args.algorithm else None
    paths = _outputs(args)
    m = _read_matrix(args.input, args.format)
    pf, order = _read_partition(args.partition, m)
    centroids, _ = _read(args.centroids, read_centroids_csv)
    try:
        u = pf.padded_memberships(centroids.shape[0])[order]
    except ValueError as exc:
        raise DataError(str(exc)) from exc
    if centroids.shape[1] != m.n_samples:
        raise DataError(
            f"centroids have {centroids.shape[1]} columns but the matrix has "
            f"{m.n_samples} samples"
        )

    algorithm = algorithm or {"hard": "kmeans", "rough": "rough_kmeans", "fuzzy": "fcm"}[pf.kind]
    fuzzifier = args.m if args.m is not None else default_m(pf.kind == "fuzzy")
    report = {
        "command": "validate",
        "input": args.input,
        "partition_file": args.partition,
        "centroids_file": args.centroids,
        "partition_kind": pf.kind,
        "m": fuzzifier,
        **asdict(score(m, u, centroids, fuzzifier, algorithm)),
    }
    if paths:
        _atomic_write(zip(paths, [partial(write_metadata_json, report)]))
    else:
        write_metadata_json(report, sys.stdout)
    return EXIT_OK


# --------------------------------------------------------------------- grid

# each grid flag that sets one ExperimentGrid field, and that field
_GRID_FIELD_FLAGS = {"algorithms": "algorithms", "normalization": "normalization",
                     "policy": "subset_policy", "seeds": "seeds"}


def _grid(args) -> ExperimentGrid:
    """The grid that --config or the grid flags describe; errors name the config."""
    from .harness import ExperimentGrid

    given = [flag for flag in _GRID_FIELD_FLAGS if getattr(args, flag) is not None]
    if args.config:
        if args.sizes or args.ks or args.preset:
            raise UsageError("--config cannot be combined with --sizes/--ks/--preset")
        if given:
            raise UsageError("--config cannot be combined with --" + "/--".join(given))
        try:
            spec = json.loads(_read(args.config))
        except json.JSONDecodeError as exc:
            raise DataError(f"{args.config}: invalid JSON: {exc}") from exc
        if not isinstance(spec, dict):
            raise DataError(f"{args.config}: grid config must be a JSON object")
        keys = {f.name for f in fields(ExperimentGrid)}
        unknown = set(spec) - keys
        if unknown:
            raise UsageError(
                f"unknown grid config key(s): {', '.join(sorted(unknown))}; "
                f"expected {', '.join(sorted(keys))}"
            )
    elif args.preset:
        if args.sizes or args.ks:
            raise UsageError("--preset cannot be combined with --sizes/--ks")
        # scaled to the matrix once it is read
        spec = {"pairs": PRESET_PAIRS}
    elif not args.sizes or not args.ks:
        raise UsageError("provide --sizes and --ks, or --preset, or --config")
    else:
        spec = {"subset_sizes": args.sizes, "ks": args.ks}
    spec.update((_GRID_FIELD_FLAGS[flag], getattr(args, flag)) for flag in given)
    try:
        return ExperimentGrid(**spec)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"{args.config}: {exc}" if args.config else str(exc)) from exc


def _cmd_grid(args) -> int:
    from .harness import preset_pairs, run_grid

    count(args.workers, "--workers", 1)
    paths = _outputs(args, ".report.csv", ".report.json", ".summary.csv",
                     *[".timings.csv"] * args.timings)
    grid = _grid(args)
    m = _read_matrix(args.input, args.format)
    if args.preset:
        grid = replace(grid, pairs=preset_pairs(m.n_genes))
    result = run_grid(m, grid, workers=args.workers)

    # zip drops the timings writer unless --timings named its path
    _atomic_write(zip(paths, [result.write_report_csv, result.write_report_json,
                              result.write_summary_csv, result.write_timings_csv]))
    failed = sum(1 for r in result.rows if r.error is not None)
    if failed:
        _warn(args, f"{failed} of {len(result.rows)} runs failed; see the error column")
    return EXIT_OK


# ------------------------------------------------------------------ heatmap

def _cmd_heatmap(args) -> int:
    count(args.scale, "--scale", 1)
    paths = _outputs(args, ".ppm")
    m = _read_matrix(args.input, args.format)
    order = None
    if args.partition:
        pf, rows = _read_partition(args.partition, m)
        order = cluster_row_order(pf.assignments[rows])
    _atomic_write(zip(paths, [partial(write_ppm, m, row_order=order, scale=args.scale)]))
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
    p.add_argument("--seed", type=int, default=0,
                   help="RNG seed: picks the starting rows of every algorithm "
                        "(fcm/pfcm take one v=0 membership update from them)")
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
    p.add_argument("--m", type=float, help="fuzzifier weighting rmse/mae (default: "
                   f"{default_m(False):g} for a hard or rough partition, {default_m(True):g} "
                   "for a fuzzy one, as grid scores them)")
    p.add_argument("--algorithm", help="algorithm tag for the report")
    p.add_argument("-o", "--output", help="write the JSON report here instead of stdout")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("grid", help="run the comparative experiment grid")
    _add_common(p)
    p.add_argument("--config", help="grid config JSON file (excludes --sizes, --ks, --preset, "
                   "--algorithms, --normalization, --policy and --seeds)")
    p.add_argument("--sizes", type=_int_list, default=(), help="comma-separated subset sizes")
    p.add_argument("--ks", type=_int_list, default=(), help="comma-separated cluster counts")
    p.add_argument("--preset", action="store_true",
                   help="use the four preset (size, k) cells scaled to this matrix")
    # no defaults here: ExperimentGrid holds them, and --config excludes these four
    p.add_argument("--algorithms", type=lambda text: text.split(","), help="comma-separated "
                   f"algorithm subset (default: {','.join(GRID_DEFAULTS['algorithms'])})")
    p.add_argument("--normalization", help="none, mean-relative or z-score (default: "
                   + GRID_DEFAULTS["normalization"].replace("_", "-") + ")")
    p.add_argument("--policy", help="gene subset policy: first-n, variance-top-n or seeded-"
                   "random (default: " + GRID_DEFAULTS["subset_policy"].replace("_", "-") + ")")
    p.add_argument("--seeds", type=_int_list, help="comma-separated seeds (default: "
                   + ",".join(map(str, GRID_DEFAULTS["seeds"])) + ")")
    p.add_argument("--workers", type=int, default=1,
                   help="worker processes, at most one per (cell, algorithm) group and CPU")
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
    except (ParseError, DegenerateRowsError, DataError, OSError) as exc:
        return _fail(EXIT_DATA, str(exc), json_mode)
    except NumericalError as exc:
        return _fail(EXIT_NUMERIC, str(exc), json_mode)
    except MemoryError as exc:
        return _fail(EXIT_DATA, str(exc) or "out of memory", json_mode)
    except ValueError as exc:
        return _fail(EXIT_USAGE, str(exc), json_mode)


def _fail(code: int, message: str, json_mode: bool) -> int:
    if json_mode:
        print(json.dumps({"error": message, "exit_code": code}), file=sys.stderr)
    else:
        print(f"error: {message}", file=sys.stderr)
    return code


def entry() -> None:
    """Run main() and end the process with its code (argparse's for --help).

    Once stdout and stderr are flushed the process leaves by os._exit: every
    file pfclust writes is closed by then and it registers no atexit hook,
    so the interpreter's teardown (about 27 ms, most of it numpy's) has
    nothing to do for it. It leaves by sys.exit, teardown and all, while
    another thread is alive, a multiprocessing child is running or a tracer or
    profiler is set (coverage, cProfile), as any of them may need that
    teardown. A stdout that cannot be flushed (full, or a closed pipe) is a
    data error with one error line, whatever the subcommand: the teardown
    would only flush the same buffer again and exit 120."""
    try:
        code = main()
    except SystemExit as exc:
        code = exc.code
    try:
        sys.stdout and sys.stdout.flush()  # None if the process started without fd 1
    except OSError as exc:
        os._exit(_fail(EXIT_DATA, str(exc), "--json" in sys.argv[1:]))
    mp = sys.modules.get("multiprocessing")
    if (threading.active_count() > 1 or mp and mp.active_children()
            or sys.gettrace() or sys.getprofile()):
        sys.exit(code)
    with contextlib.suppress(Exception):  # nothing is left to report a failed stderr on
        sys.stderr.flush()
    os._exit(code)
