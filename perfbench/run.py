"""pfclust benchmark: three CLI workloads, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload pipeline_golub --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

With --trace 0 the benchmark runs the workload's CLI calls as
subprocesses (``python -m pfclust`` against ``src/``), one pass after
another for --seconds, and reports the median pass wall time, the least
pass peak RSS and the median start-up time of ``pfclust --version``.
Times are in reference seconds: each sample is divided by a fixed
pure-Python loop timed around it, which cancels most of the host's slow
spells (see reference_loop); raw medians and quartiles go to the results
file.
With --trace 1 it replays the same CLI calls in process through
``pfclust.cli.main``, alternating untraced and traced passes, and reports
per-layer metrics from the traced passes' spans.

Every pass's artefacts are checked and hashed; failed checks, non-zero
exits and failed grid rows count toward ``error_rate`` without stopping
the run. Each run writes a results JSON (environment, per-pass data,
artefact sha256) and, when traced, a span file under
``.perfbench_results/``. The last line of standard output is one JSON
object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
RESULTS_DIR = ROOT / ".perfbench_results"

# One BLAS thread for every measured process: default threading made one
# pfcm run vary from 0.70 to 1.65 s on a 2-core machine. Children get it in
# their environment; the benchmark sets it on itself before importing numpy,
# for the generator and the in-process replay.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

MIN_PASSES = 3
SETUP_PER_PASS = 3
KERNEL_REPEATS = 5
# A run stops starting passes, and kills a child still running, this many
# seconds after it began, so that it ends well inside three minutes.
RUN_LIMIT_S = 150.0
SWEEP_ROWS = 1000

REFERENCE_LOOP_ITERATIONS = 1_000_000
# the reference loop's time on an idle 2-core Xeon host (Python 3.11), so
# that reported times read as seconds on that host
REFERENCE_S = 0.06

E2E_UNITS = {"wall_s": "s", "peak_rss_mb": "MiB", "setup_s": "s"}
WORKLOAD_NAMES = ("pipeline_golub", "grid_golub", "cluster_wide")


@dataclass
class Tally:
    """Operations attempted and failed: CLI calls, grid rows and output checks."""

    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)

    def add(self, label: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 50:
                self.failures.append(f"{label}: {detail}")

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def child_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = str(SRC)
    return env


def keep_going(done: int, start: float, seconds: float, deadline: float) -> bool:
    now = time.perf_counter()
    return done == 0 or (now < deadline and (done < MIN_PASSES or now - start < seconds))


@dataclass
class Child:
    command: str
    wall_s: float
    maxrss_mb: float
    exit: int
    stderr: str


def run_child(argv, cwd: Path, env: dict, deadline: float) -> Child:
    """Run `python -m pfclust argv`, timed from spawn to exit."""
    log = cwd / "child.stderr"
    start = time.perf_counter()
    with open(log, "wb") as err:
        proc = subprocess.Popen(
            [sys.executable, "-m", "pfclust", *argv],
            cwd=cwd, env=env, stdout=subprocess.DEVNULL, stderr=err,
        )
        timer = threading.Timer(max(deadline - time.perf_counter(), 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
    stderr = log.read_text(errors="replace")[-500:] if proc.returncode else ""
    return Child(argv[0], wall, usage.ru_maxrss / 1024.0, proc.returncode, stderr)


def reference_loop() -> float:
    """Seconds a fixed pure-Python loop takes now: the host's current speed.

    The host has spells of minutes in which everything, this loop included,
    runs up to 1.7x slower, so raw times of the same code spread 16% to 48%
    over ten runs. Dividing each sample by this loop, timed just before and
    after it, and scaling by REFERENCE_S cancels most of a spell: over 20 s
    windows of one CLI call the ratio moved 5% where raw times moved 15%.
    The loop does not touch pfclust, so no change to the program moves it.
    """
    start = time.perf_counter()
    total = 0
    for i in range(REFERENCE_LOOP_ITERATIONS):
        total += i * i
    return time.perf_counter() - start


def reset_dir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)


def tally_pass(tally: Tally, workload, inputs, workdir, exits, reference):
    """Check one pass's artefacts and add its operations to the tally.

    exits is a list of (command, exit code, stderr). Returns (artefact
    hashes, ari).
    """
    from workloads import OUT_DIR, artefact_hashes, check_pass

    for command, code, stderr in exits:
        tally.add(f"{command} exit", code == 0, f"exit {code}: {stderr.strip()}")
    checks, grid_errors, ari = check_pass(workload, inputs, workdir)
    for c in checks:
        tally.add(f"{c.step} {c.name}", c.ok, c.detail)
    for i, error in enumerate(grid_errors):
        tally.add(f"grid row {i}", error == "", error)
    hashes = artefact_hashes(workdir / OUT_DIR)
    if reference is not None:
        changed = sorted(k for k in hashes.keys() | reference.keys() if hashes.get(k) != reference.get(k))
        tally.add("pass artefacts identical to the first pass", not changed, ", ".join(changed))
    return hashes, ari


def run_e2e(workload, inputs, workdir: Path, seconds: float, deadline: float, tally: Tally,
            tamper=None):
    """Subprocess passes for `seconds`; returns (metrics, detail for the results file)."""
    from workloads import OUT_DIR

    env = child_env()
    run_child(["--version"], workdir, env, deadline)  # untimed warm-up: byte-compiles src/
    setup, passes, reference, aris = [], [], None, []
    start = time.perf_counter()
    while keep_going(len(passes), start, seconds, deadline):
        speed_before = reference_loop()
        # start-up samples are spread over the run like the passes
        setup_now = [run_child(["--version"], workdir, env, deadline).wall_s
                     for _ in range(SETUP_PER_PASS)]
        reset_dir(workdir / OUT_DIR)
        steps = [run_child(argv, workdir, env, deadline) for argv in workload.steps]
        speed = (speed_before + reference_loop()) / 2
        if tamper is not None:
            tamper(workdir)
        hashes, ari = tally_pass(
            tally, workload, inputs, workdir,
            [(c.command, c.exit, c.stderr) for c in steps], reference,
        )
        reference = reference or hashes
        if ari is not None:
            aris.append(ari)
        setup += [(t, speed) for t in setup_now]
        passes.append({
            "wall_s": sum(c.wall_s for c in steps),
            "peak_rss_mb": max(c.maxrss_mb for c in steps),
            "reference_loop_s": speed,
            "steps": [{"command": c.command, "wall_s": c.wall_s, "maxrss_mb": c.maxrss_mb,
                       "exit": c.exit} for c in steps],
        })
    raw = {
        "wall_s": [p["wall_s"] for p in passes],
        "peak_rss_mb": [p["peak_rss_mb"] for p in passes],
        "setup_s": [t for t, _ in setup],
    }
    # Times are medians of (sample / reference loop) in reference seconds:
    # see reference_loop. Peak RSS is bimodal on the grid, by how the pool
    # interleaves its largest cells, so it takes the run's least pass peak.
    metrics = {
        "wall_s": REFERENCE_S * statistics.median(p["wall_s"] / p["reference_loop_s"] for p in passes),
        "peak_rss_mb": min(raw["peak_rss_mb"]),
        "setup_s": REFERENCE_S * statistics.median(t / speed for t, speed in setup),
    }
    detail = {
        "passes": passes,
        "setup_samples_s": setup,
        "raw_median": {name: statistics.median(v) for name, v in raw.items()},
        "raw_quartiles": {name: quartiles(v) for name, v in raw.items()},
        "ari": aris[0] if aris else None,
        "ari_repeats_exactly": len(set(aris)) <= 1,
        "artefact_sha256": reference,
    }
    return metrics, detail


def run_in_process(steps, tracer=None):
    """Run CLI calls through pfclust.cli.main; returns (wall seconds, exits)."""
    from pfclust import cli

    exits = []
    start = time.perf_counter()
    for argv in steps:
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            if tracer is None:
                code = cli.main(list(argv))
            else:
                with tracer.span("cli.main", {"command": argv[0]}):
                    code = cli.main(list(argv))
        exits.append((argv[0], code, sink.getvalue() if code else ""))
    return time.perf_counter() - start, exits


def sweep_steps():
    """Every workload's CLI calls, pointed at the sweep input and directory."""
    from workloads import OUT_DIR, RAW_INPUT, WORKLOADS

    def move(arg):
        if arg == RAW_INPUT:
            return "sweep.tsv"
        return "sweep/" + arg[len(OUT_DIR) + 1:] if arg.startswith(OUT_DIR + "/") else arg

    return [tuple(move(a) for a in argv) for w in WORKLOADS.values() for argv in w.steps]


def run_traced(workload, inputs, workdir: Path, seconds: float, deadline: float, tally: Tally,
               span_file: Path):
    """Alternate untraced and traced in-process passes, then probe and sweep."""
    import numpy as np
    from pfclust import write_tsv
    from tracing import (
        LAYER_METRICS, PROBE_METRICS, Tracer, kernel_probe, layer_metrics, median_metrics,
    )
    from workloads import OUT_DIR

    tracer = Tracer()
    origin = time.perf_counter()
    untraced, traced, per_pass, reference, aris = [], [], [], None, []
    previous = Path.cwd()
    os.chdir(workdir)
    try:
        while keep_going(len(traced), origin, seconds, deadline):
            for trace_this in (False, True):
                reset_dir(workdir / OUT_DIR)
                if trace_this:
                    tracer.pass_id = f"pass{len(traced)}"
                    with tracer.installed():
                        wall, exits = run_in_process(workload.steps, tracer)
                    traced.append(wall)
                    per_pass.append(layer_metrics([s for s in tracer.spans if s.pass_id == tracer.pass_id]))
                else:
                    wall, exits = run_in_process(workload.steps)
                    untraced.append(wall)
                hashes, ari = tally_pass(tally, workload, inputs, workdir, exits, reference)
                reference = reference or hashes
                if ari is not None:
                    aris.append(ari)

        probe = tracer.largest_run
        if probe is None:  # no clustering call succeeded; the failures are tallied
            kernel = {n: 0.0 for n in PROBE_METRICS if n.startswith("kernel.")}
        else:
            kernel = kernel_probe(probe[1], probe[2], repeats=KERNEL_REPEATS)

        # Layers this workload never calls are measured once on a sweep of
        # every workload's CLI calls over a row sample of the same input,
        # so that every per-layer metric is a measurement on every workload.
        n = inputs.matrix.n_genes
        rows = np.linspace(0, n - 1, min(n, SWEEP_ROWS)).round().astype(int)
        write_tsv(inputs.matrix.take_genes(rows), workdir / "sweep.tsv")
        reset_dir(workdir / "sweep")
        tracer.pass_id = "sweep"
        with tracer.installed():
            _, exits = run_in_process(sweep_steps(), tracer)
        for command, code, stderr in exits:
            tally.add(f"sweep {command} exit", code == 0, f"exit {code}: {stderr.strip()}")
        sweep = layer_metrics([s for s in tracer.spans if s.pass_id == "sweep"])
    finally:
        os.chdir(previous)

    replay = median_metrics(per_pass)
    metrics, swept = {}, []
    for name in LAYER_METRICS:
        if name in replay:
            metrics[name] = replay[name]
        else:
            metrics[name] = sweep.get(name, 0.0)
            swept.append(name)
    metrics.update(kernel)
    untraced_s, traced_s = statistics.median(untraced), statistics.median(traced)
    metrics["trace.overhead_frac"] = (traced_s - untraced_s) / untraced_s
    tracer.write_jsonl(span_file, origin)
    detail = {
        "untraced_pass_s": untraced,
        "traced_pass_s": traced,
        "metrics_from_sweep": swept,
        "kernel_n_d_k": None if probe is None else [*probe[1].shape, probe[2].centroids.shape[0]],
        "span_file": str(span_file.relative_to(ROOT)),
        "span_count": len(tracer.spans),
        "ari": aris[0] if aris else None,
        "ari_repeats_exactly": len(set(aris)) <= 1,
        "artefact_sha256": reference,
    }
    return metrics, detail


def git_commit():
    """HEAD of the checkout when it is a git work tree; read without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    cpu = None
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "child_thread_env": THREAD_ENV,
        "cpu_model": cpu,
        "git_commit": git_commit(),
        "seed": seed,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, shapes=None, tamper=None) -> dict:
    """One benchmark run; returns the results document."""
    from tracing import LAYER_METRICS, PROBE_METRICS
    from workloads import SHAPES, WORKLOADS, build_inputs

    workload = WORKLOADS[name]
    shape = (shapes or SHAPES)[workload.shape]
    RESULTS_DIR.mkdir(exist_ok=True)
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = WORK_ROOT / f"{name}-{os.getpid()}"
    reset_dir(workdir)
    tally = Tally()
    try:
        start = time.perf_counter()
        deadline = start + RUN_LIMIT_S
        inputs = build_inputs(shape, seed, workdir)
        build_s = time.perf_counter() - start
        if trace:
            span_file = RESULTS_DIR / f"spans_{name}_seed{seed}.jsonl"
            metrics, detail = run_traced(workload, inputs, workdir, seconds, deadline, tally, span_file)
            units = {n: u for n, (u, _) in LAYER_METRICS.items()} | PROBE_METRICS
        else:
            metrics, detail = run_e2e(workload, inputs, workdir, seconds, deadline, tally, tamper)
            units = E2E_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    doc = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "seconds": seconds,
        "shape": {"genes": shape.genes, "samples": shape.samples, "k": workload.k},
        "input_sha256": inputs.raw_sha256,
        "input_build_s": build_s,
        "environment": environment(seed),
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in units},
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "error_rate": tally.error_rate,
        "failures": tally.failures,
        **detail,
    }
    results = RESULTS_DIR / f"{name}_seed{seed}_trace{int(trace)}.json"
    results.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    doc["results_file"] = str(results.relative_to(ROOT))
    return doc


def report(doc: dict) -> None:
    """Human-readable lines: every metric with its unit, then quality and errors."""
    name = doc["workload"]
    swept = set(doc.get("metrics_from_sweep", ()))
    for metric, m in doc["metrics"].items():
        note = ""
        if metric in doc.get("raw_quartiles", {}):
            q1, q3 = doc["raw_quartiles"][metric]
            count = len(doc["setup_samples_s"]) if metric == "setup_s" else len(doc["passes"])
            stat = "least" if metric == "peak_rss_mb" else "median in reference seconds"
            note = (f"  {stat} of {count}; raw median {doc['raw_median'][metric]:.4g},"
                    f" quartiles {q1:.4g}..{q3:.4g}")
        elif metric in swept:
            note = "  (sweep: layer not called by this workload)"
        print(f"{name}  {metric} = {m['value']:.6g} {m['unit']}{note}")
    if doc["ari"] is not None:
        print(f"{name}  ari = {doc['ari']:.6g} index  (noise rows excluded)")
    print(f"{name}  error_rate = {doc['error_rate']:.6g} ratio  ({doc['failed']} of {doc['attempted']} operations failed)")
    for failure in doc["failures"][:10]:
        print(f"{name}  FAILED {failure}")
    print(f"{name}  results in {doc['results_file']}")


def prepare():
    """Make the checkout's pfclust importable; returns a problem or None."""
    if not (SRC / "pfclust" / "__init__.py").is_file():
        return f"no pfclust sources at {SRC}; run from a pfclust checkout"
    # the in-process replay and the input generator run under the same
    # BLAS thread budget as the children
    os.environ.update(THREAD_ENV)
    sys.path.insert(0, str(SRC))
    import pfclust

    if Path(pfclust.__file__).resolve().parent != SRC / "pfclust":
        return f"imported pfclust from {pfclust.__file__}, not {SRC}"
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    problem = prepare()
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    docs = [run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names]
    for doc in docs:
        report(doc)
    if args.trace:
        for doc in docs:
            print(f"{doc['workload']}  spans in {doc['span_file']}")
    if len(docs) == 1:
        metrics = docs[0]["metrics"]
    else:
        metrics = {f"{d['workload']}.{n}": m for d in docs for n, m in d["metrics"].items()}
    print(json.dumps({
        "correct": all(d["correct"] for d in docs),
        "attempted": sum(d["attempted"] for d in docs),
        "failed": sum(d["failed"] for d in docs),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
