"""End-to-end acceptance checks.

Each test prints one ``ACCEPTANCE <n> PASS|FAIL`` line directly on the
terminal (bypassing capture), then asserts the same condition.
Criterion 10 is reported for inspection, never asserted.
"""

import io
import shutil
import time

import numpy as np
import pytest

from pfclust import (
    compute_alpha,
    fcm,
    generate_synthetic,
    kmeans,
    mae,
    normalize,
    parse_matrix,
    pfcm,
    ParseError,
    rmse,
    rough_kmeans,
    run_grid,
    preset_pairs,
    ExperimentGrid,
    evaluate,
    write_tsv,
    xie_beni,
)
from pfclust.cli import main as cli_main

from _oracles import enumerate_kmeans_sse, fuzzy_start, grid_min_induced_objective
from _oracles import induced_objective
from conftest import DATA_DIR


@pytest.fixture
def emit(capfd):
    """Print a line on the real terminal regardless of capture mode."""

    def _emit(text: str) -> None:
        with capfd.disabled():
            print(text, flush=True)

    return _emit


def _verdict(emit, num: int, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    extra = f" ({detail})" if detail else ""
    emit(f"ACCEPTANCE {num} {status}{extra}")


def test_criterion_01_zero_penalty_equivalence(emit):
    # the penalized iteration at v=0 and the plain one must agree to the
    # last bit from identical seeds
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for i in range(20):
        n = int(rng.integers(20, 201))
        d = int(rng.integers(2, 11))
        c = int(rng.integers(2, 6))
        x = rng.normal(size=(n, d))
        a = pfcm(x, c, v=0.0, seed=i)
        b = fcm(x, c, seed=i)
        worst = max(worst, float(np.abs(a.memberships - b.memberships).max()))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 10.0
    _verdict(emit, 1, ok, f"max membership diff {worst:.1e}, {elapsed:.1f}s of 10s")
    assert worst <= 1e-12
    assert elapsed < 10.0


def test_criterion_02_objective_monotonicity(emit):
    start = time.perf_counter()
    worst_rise = -np.inf
    runs = 0
    for seed in range(3):
        x = np.random.default_rng(200 + seed).normal(size=(50 + 10 * seed, 3 + seed))
        for v in (0.0, 0.5, 1.0, 2.0):
            for m in (1.5, 2.0, 3.0):
                for alg, penalty in ((fcm, {}), (pfcm, {"v": v})):
                    part = alg(x, 3, m=m, seed=seed, **penalty)
                    worst_rise = max(worst_rise, float(np.diff(part.trace).max()))
                    runs += 1
    elapsed = time.perf_counter() - start
    ok = worst_rise <= 1e-9 and elapsed < 30.0
    _verdict(emit, 2, ok, f"{runs} runs, max trace rise {worst_rise:.1e}, {elapsed:.1f}s of 30s")
    assert worst_rise <= 1e-9
    assert elapsed < 30.0


def test_criterion_03_stationarity_under_perturbation(emit):
    # at a converged state, nudging any single membership entry by 1e-6
    # (and renormalizing the row) must not lower the objective by more
    # than 1e-8, with centroids and proportions re-fit to the nudged matrix
    rng = np.random.default_rng(303)
    worst_drop = 0.0
    for i in range(10):
        n = int(rng.integers(10, 31))
        d = int(rng.integers(1, 5))
        c = int(rng.integers(2, 4))
        v = float(rng.choice([0.5, 1.0]))
        x = rng.normal(size=(n, d))
        part = pfcm(x, c, v=v, eps=1e-10, max_iter=3000, seed=i)
        u0 = part.memberships
        j0 = induced_objective(u0, x, 2.0, v)
        for gi in range(n):
            for gj in range(c):
                for delta in (1e-6, -1e-6):
                    u = u0.copy()
                    u[gi, gj] += delta
                    if u[gi, gj] < 0.0:
                        continue
                    u[gi] /= u[gi].sum()
                    worst_drop = max(worst_drop, j0 - induced_objective(u, x, 2.0, v))
    ok = worst_drop <= 1e-8
    _verdict(emit, 3, ok, f"max objective drop {worst_drop:.1e}")
    assert worst_drop <= 1e-8


def test_criterion_04_small_instance_oracles(emit):
    # hard side: restarts must reach the exhaustively enumerated optimum;
    # fuzzy side: the fixed point must beat every lattice membership matrix
    gen = np.random.default_rng(2)
    shapes = [(8, 3, 2), (8, 3, 1)] + [
        (int(gen.integers(4, 9)), int(gen.integers(2, 4)), int(gen.integers(1, 4)))
        for _ in range(8)
    ]
    km_ok = True
    km_worst = -np.inf
    for n, k, d in shapes:
        k = min(k, n)
        x = gen.normal(size=(n, d))
        opt = enumerate_kmeans_sse(x, k)
        best = min(kmeans(x, k, seed=s).trace[-1] for s in range(10))
        km_worst = max(km_worst, best - opt)
        if best > opt + 1e-9:
            km_ok = False

    rng = np.random.default_rng(405)
    grid_ok = True
    grid_margin = np.inf
    for i in range(5):
        d = int(rng.integers(1, 3))
        v = float(rng.choice([0.5, 1.0]))
        x = rng.normal(size=(4, d))
        j_fix = min(
            induced_objective(
                pfcm(x, 2, v=v, eps=1e-10, max_iter=3000, seed=s).memberships,
                x, 2.0, v,
            )
            for s in range(5)
        )
        g_min = grid_min_induced_objective(x, 2.0, v, 0.05)
        grid_margin = min(grid_margin, g_min - j_fix)
        if j_fix > g_min + 1e-12:
            grid_ok = False

    ok = km_ok and grid_ok
    _verdict(
        emit, 4, ok,
        f"kmeans worst gap {km_worst:.1e}, fixed point beats grid by >= {grid_margin:.1e}",
    )
    assert km_ok
    assert grid_ok


def test_criterion_05_row_and_proportion_normalization(emit):
    worst_row = 0.0
    worst_alpha = 0.0
    iterations = 0
    replays_differ = 0
    configs = [
        (fcm, 1, 2.0, 0.0), (pfcm, 1, 2.0, 1.0),
        (fcm, 2, 1.2, 0.0), (pfcm, 2, 1.2, 3.0),
        (fcm, 3, 6.0, 0.0), (pfcm, 3, 6.0, 0.5),
        (fcm, 5, 2.0, 0.0), (pfcm, 5, 2.0, 1.0),
        (pfcm, 4, 1.5, 2.0), (pfcm, 4, 3.0, 0.0),
    ]
    rng = np.random.default_rng(505)
    for seed, (alg, c, m, v) in enumerate(configs):
        x = rng.normal(size=(int(rng.integers(20, 60)), int(rng.integers(2, 5))))
        params = dict(m=m, seed=seed, **({"v": v} if alg is pfcm else {}))
        run = alg(x, c, **params)
        # the start, then the state after update t: the same call's result
        # with max_iter=t, whose updates are the run's first t. The start and
        # fcm report no proportions (fcm fits them, then drops them), so
        # theirs are fitted from u**m as a run does.
        states = [(fuzzy_start(x, c, m, seed), None)]
        for t in range(1, run.iterations + 1):
            part = alg(x, c, max_iter=t, **params)
            replays_differ += part.delta != run.delta[:t]
            states.append((part.memberships, part.alpha))
        for u, alpha in states:
            iterations += 1
            worst_row = max(worst_row, float(np.abs(u.sum(axis=1) - 1.0).max()))
            alpha = compute_alpha(u ** m) if alpha is None else alpha
            worst_alpha = max(worst_alpha, abs(float(alpha.sum()) - 1.0))
    ok = worst_row <= 1e-9 and worst_alpha <= 1e-9 and replays_differ == 0
    _verdict(
        emit, 5, ok,
        f"{iterations} iterations, row-sum err {worst_row:.1e}, "
        f"proportion-sum err {worst_alpha:.1e}",
    )
    assert worst_row <= 1e-9
    assert worst_alpha <= 1e-9
    assert replays_differ == 0


def test_criterion_06_model_selection_recovers_cluster_count(emit):
    # three bumps ten standard deviations apart; scanning k by the
    # compactness/separation score must bottom out at 3
    start = time.perf_counter()
    clusters = [
        ((0.0, 0.0), 1.0, 100),
        ((10.0, 0.0), 1.0, 100),
        ((0.0, 10.0), 1.0, 100),
    ]
    m, _ = generate_synthetic(clusters, seed=1234)
    x = m.values
    hits_fcm = hits_pfcm = 0
    for seed in range(10):
        scores_f = {}
        scores_p = {}
        for k in range(2, 7):
            part_f = fcm(x, k, seed=seed)
            scores_f[k] = xie_beni(x, part_f.memberships, part_f.centroids)
            part_p = pfcm(x, k, seed=seed)
            scores_p[k] = xie_beni(x, part_p.memberships, part_p.centroids)
        hits_fcm += min(scores_f, key=scores_f.get) == 3
        hits_pfcm += min(scores_p, key=scores_p.get) == 3
    elapsed = time.perf_counter() - start
    ok = hits_fcm >= 9 and hits_pfcm >= 9 and elapsed < 60.0
    _verdict(
        emit, 6, ok,
        f"k=3 chosen {hits_fcm}/10 plain and {hits_pfcm}/10 penalized, "
        f"{elapsed:.1f}s of 60s",
    )
    assert hits_fcm >= 9
    assert hits_pfcm >= 9
    assert elapsed < 60.0


def test_criterion_07_rough_structure_invariants(emit):
    rng = np.random.default_rng(707)
    violations = 0
    checked = 0
    for trial in range(1000):
        n = int(rng.integers(3, 26))
        d = int(rng.integers(1, 5))
        k = int(rng.integers(1, min(5, n) + 1))
        zeta = float(rng.uniform(1.0, 2.5))
        w_lower = float(rng.uniform(0.51, 1.0))
        x = rng.normal(size=(n, d))
        params = dict(zeta=zeta, w_lower=w_lower, seed=trial)
        # the state after round t is the result of the same call with
        # max_iter=t, whose rounds are the run's first t
        delta = rough_kmeans(x, k, **params).delta
        for t in range(1, len(delta) + 1):
            p = rough_kmeans(x, k, max_iter=t, **params)
            checked += 1
            if p.delta != delta[:t]:
                violations += 1
            counts = np.zeros(n, dtype=int)
            for j in range(p.k):
                if not p.lower[j] <= p.upper[j]:
                    violations += 1
                for i in p.upper[j]:
                    counts[i] += 1
            in_lower = set().union(*p.lower)
            for i in range(n):
                if counts[i] < 1:
                    violations += 1
                if (counts[i] == 1) != (i in in_lower):
                    violations += 1
    ok = violations == 0
    _verdict(emit, 7, ok, f"1000 runs, {checked} iterations checked, {violations} violations")
    assert violations == 0


def test_criterion_08_validity_fixture_values(emit, four_points):
    u = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
    w = np.array([[0.5], [10.5]])
    got = (
        rmse(four_points, u, w),
        mae(four_points, u, w),
        xie_beni(four_points, u, w),
    )
    rep = evaluate(four_points, kmeans(four_points, 2, seed=0), m=1.0)
    ok = (
        abs(got[0] - 0.5) <= 1e-12
        and abs(got[1] - 0.5) <= 1e-12
        and abs(got[2] - 0.0025) <= 1e-12
        and abs(rep.rmse - 0.5) <= 1e-12
        and abs(rep.mae - 0.5) <= 1e-12
        and abs(rep.xie_beni - 0.0025) <= 1e-12
    )
    _verdict(emit, 8, ok, f"rmse {got[0]}, mae {got[1]}, xie_beni {got[2]}")
    assert ok


def test_criterion_09_end_to_end_determinism(emit, tmp_path):
    src = DATA_DIR / "synthetic_100x10.tsv"
    work = tmp_path / "synth.tsv"
    shutil.copy(src, work)

    # repeated grid runs, including a parallel one, must emit identical bytes
    prefixes = []
    for name, extra in (("r1", []), ("r2", []), ("r3", ["--workers", "3"])):
        prefix = tmp_path / name
        code = cli_main(
            ["grid", str(work), "--preset", "--seeds", "0",
             "--out", str(prefix)] + extra
        )
        assert code == 0
        prefixes.append(prefix)
    grids_equal = True
    for suffix in (".report.csv", ".report.json", ".summary.csv"):
        blobs = {p.with_name(p.name + suffix).read_bytes() for p in prefixes}
        if len(blobs) != 1:
            grids_equal = False

    # serialization round trip of a normalized matrix is bit exact
    m = parse_matrix(src.read_text(encoding="utf-8"), "tsv")
    normed = normalize(m, "z_score", drop_degenerate=True)
    buf1 = io.StringIO()
    write_tsv(normed, buf1)
    reparsed = parse_matrix(buf1.getvalue(), "tsv")
    buf2 = io.StringIO()
    write_tsv(reparsed, buf2)
    round_trip_ok = (
        buf1.getvalue() == buf2.getvalue()
        and np.array_equal(normed.values, reparsed.values)
        and normed.gene_ids == reparsed.gene_ids
        and normed.sample_ids == reparsed.sample_ids
    )

    # malformed inputs produce byte-stable diagnostics
    frozen = [
        ("s1\ts2\nga\t1.0\tfoo\n", "tsv",
         "line 2, column 3: non-numeric value 'foo'"),
        ("s1\ts2\nga\t1.0\n", "tsv",
         "line 2: expected 3 fields (gene id + 2 values), found 2"),
        ("#1.2\n4\t2\nName\tDescription\ts1\ts2\nga\td\t0.0\t1.0\n", "gct",
         "line 2: dimension line declares 4 data rows but file contains 1"),
        ("Description\tAccession\ts1\t\nd\n3\nd1\tga\t1.0\tP\n", "res",
         "line 3: count line declares 3 data rows but file contains 1"),
    ]
    errors_ok = True
    for text, fmt, expected in frozen:
        for _ in range(2):
            with pytest.raises(ParseError) as info:
                parse_matrix(text, fmt)
            if str(info.value) != expected:
                errors_ok = False

    ok = grids_equal and round_trip_ok and errors_ok
    _verdict(
        emit, 9, ok,
        f"grid bytes identical: {grids_equal}, round trip: {round_trip_ok}, "
        f"stable diagnostics: {errors_ok}",
    )
    assert grids_equal
    assert round_trip_ok
    assert errors_ok


def test_criterion_10_comparative_table_emitted(emit):
    # emitted for inspection: how the four algorithms rank on the bundled
    # noisy matrix; no score threshold is asserted
    with open(DATA_DIR / "synthetic_100x10.tsv", encoding="utf-8") as handle:
        m = parse_matrix(handle, "tsv")
    grid = ExperimentGrid(pairs=preset_pairs(m.n_genes), seeds=(0, 1, 2))
    result = run_grid(m, grid, workers=4)
    buf = io.StringIO()
    result.write_summary_csv(buf)
    lines = buf.getvalue().splitlines()
    emit("comparative validity table (mean/sd/best over 3 seeds; "
         "reported, not asserted):")
    for line in lines:
        emit("  " + line)
    emitted = len(lines) == 1 + 4 * 4
    algorithms = {line.split(",")[2] for line in lines[1:]}
    emitted = emitted and algorithms == {"kmeans", "rough_kmeans", "fcm", "pfcm"}
    _verdict(emit, 10, emitted, "table emitted; ranking left to the reader")
    assert emitted
