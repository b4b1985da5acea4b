import io
import json
import math
import os
import pickle
import sys
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pfclust.harness
from pfclust import (
    ALGORITHMS,
    DEFAULTS,
    PARAMS,
    ExperimentGrid,
    ExperimentResult,
    ExpressionMatrix,
    generate_synthetic,
    kmeans,
    normalize,
    parse_matrix,
    pfcm,
    run_algorithm,
    run_grid,
    subset_genes,
    preset_pairs,
    write_tsv,
    ValidityReport,
)
from pfclust.harness import CellResult
from pfclust.validity import unified_memberships

from _oracles import adjusted_rand
from conftest import DATA_DIR, SYNTH_CLUSTERS, SYNTH_NOISE, SYNTH_SEED, within

# iterations, stop reason and hard labels (one digit per gene, the argmax of
# the unified memberships) of each algorithm at k 3 and 9 and seeds 0-2 on
# the bundled matrix. A change to the distance kernel or to the order of a
# sum may move last bits of scores, but not these.
PINNED_RUNS = json.loads((DATA_DIR / "runs_synthetic_100x10.json").read_text("utf-8"))


@pytest.fixture(scope="module")
def bundled():
    with open(DATA_DIR / "synthetic_100x10.tsv", encoding="utf-8") as handle:
        return parse_matrix(handle, format="tsv")


@pytest.mark.parametrize("run", PINNED_RUNS)
def test_runs_on_the_bundled_matrix_keep_their_pinned_outcome(bundled, run):
    alg, k, seed = run.split()
    p = run_algorithm(alg, bundled, int(k), seed=int(seed))
    labels = "".join(map(str, np.argmax(unified_memberships(p), axis=1)))
    assert [p.iterations, p.stop_reason, labels] == PINNED_RUNS[run]


@settings(max_examples=200, deadline=None)
@given(alg=st.sampled_from(ALGORITHMS), n=st.integers(1, 12), k=st.integers(1, 5),
       d=st.integers(1, 3), distinct=st.integers(1, 12), seed=st.integers(0, 2**32 - 1),
       eps=st.sampled_from([1e-5, 1e-2, 0.5]), max_iter=st.integers(1, 25))
def test_delta_has_one_entry_a_round_and_decides_the_stop(
    alg, n, k, d, distinct, seed, eps, max_iter
):
    # the one stop rule of all four: a run stops with "tolerance" exactly
    # when its last round's delta is below eps. Rows drawn from a few
    # distinct ones, with k above their count, leave kmeans clusters to
    # repair, which can make it cycle.
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d))[rng.integers(min(n, distinct), size=n)]
    p = run_algorithm(alg, x, min(k, n), seed=int(rng.integers(100)), eps=eps, max_iter=max_iter)
    assert len(p.delta) == p.iterations
    assert (p.delta[-1] < eps) == (p.stop_reason == "tolerance")
    assert p.record()["delta"] == p.delta


def _varied_matrix():
    return ExpressionMatrix(
        ("a", "b", "c", "d", "e"),
        ("s1", "s2", "s3"),
        [
            [0.0, 0.0, 0.0],
            [0.0, 1.0, 2.0],
            [0.0, 3.0, 6.0],
            [0.0, 2.0, 4.0],
            [7.0, 7.0, 7.0],
        ],
    )


def test_subset_first_n():
    m = _varied_matrix()
    sub = subset_genes(m, 2, "first_n")
    assert sub.gene_ids == ("a", "b")


def test_subset_variance_top_n_keeps_file_order():
    m = _varied_matrix()
    sub = subset_genes(m, 2, "variance_top_n")
    # highest variances are rows c then d; file order preserved
    assert sub.gene_ids == ("c", "d")
    sub3 = subset_genes(m, 3, "variance_top_n")
    assert sub3.gene_ids == ("b", "c", "d")


def test_subset_variance_ties_break_by_gene_id():
    m = ExpressionMatrix(
        ("zz", "aa", "mm"),
        ("s1", "s2"),
        [[0.0, 2.0], [0.0, 2.0], [0.0, 1.0]],
    )
    sub = subset_genes(m, 1, "variance_top_n")
    assert sub.gene_ids == ("aa",)


@st.composite
def tied_matrices(draw):
    """Matrices of repeated integer rows, so many variances tie exactly, with
    unique ids in drawn order; ids may differ only by a trailing NUL."""
    n_samples = draw(st.integers(2, 4))
    row = st.lists(st.integers(-3, 3), min_size=n_samples, max_size=n_samples)
    rows = draw(st.lists(st.sampled_from(draw(st.lists(row, min_size=1, max_size=4))),
                         min_size=1, max_size=12))
    ids = draw(st.lists(st.text("ab\x00", min_size=1, max_size=3),
                        min_size=len(rows), max_size=len(rows), unique=True))
    m = ExpressionMatrix(ids, [f"s{j}" for j in range(n_samples)], np.array(rows, dtype=float))
    return m, draw(st.integers(1, len(rows)))


@settings(max_examples=200, deadline=None)
@given(case=tied_matrices())
def test_subset_variance_top_n_matches_sort_rule(case):
    m, size = case
    var = m.row_sample_vars()
    ranked = sorted(range(m.n_genes), key=lambda i: (-var[i], m.gene_ids[i]))
    want = tuple(m.gene_ids[i] for i in sorted(ranked[:size]))
    assert subset_genes(m, size, "variance_top_n").gene_ids == want


def test_subset_seeded_random_deterministic():
    m = _varied_matrix()
    a = subset_genes(m, 3, "seeded_random", seed=5)
    b = subset_genes(m, 3, "seeded_random", seed=5)
    assert a.gene_ids == b.gene_ids
    assert list(a.gene_ids) == sorted(a.gene_ids, key=m.gene_ids.index)
    c = subset_genes(m, 3, "seeded_random", seed=6)
    assert c.n_genes == 3


def test_subset_full_size_returns_same_matrix():
    m = _varied_matrix()
    assert subset_genes(m, 5, "seeded_random") is m


def test_subset_errors():
    m = _varied_matrix()
    with pytest.raises(ValueError, match="unknown subset policy"):
        subset_genes(m, 2, "bogus")
    with pytest.raises(ValueError, match="subset size"):
        subset_genes(m, 0)
    with pytest.raises(ValueError, match="subset size"):
        subset_genes(m, 6)


def test_preset_pairs_full_size():
    assert preset_pairs(7129) == ((7129, 7), (5000, 5), (3000, 3), (1000, 7))


def test_preset_pairs_scaled_down():
    assert preset_pairs(100) == ((100, 7), (70, 5), (42, 3), (14, 7))
    assert preset_pairs(20) == ((20, 7), (14, 5), (8, 3), (3, 3))


def test_preset_pairs_tiny_dedupes():
    pairs = preset_pairs(1)
    assert pairs == ((1, 1),)
    with pytest.raises(ValueError):
        preset_pairs(0)


def test_grid_validation():
    with pytest.raises(ValueError, match="at least one algorithm"):
        ExperimentGrid(subset_sizes=(5,), ks=(2,), algorithms=())
    with pytest.raises(ValueError, match="unknown algorithm"):
        ExperimentGrid(subset_sizes=(5,), ks=(2,), algorithms=("kmedians",))
    with pytest.raises(ValueError, match="unknown normalization"):
        ExperimentGrid(subset_sizes=(5,), ks=(2,), normalization="minmax")
    with pytest.raises(ValueError, match="subset_sizes and ks"):
        ExperimentGrid(subset_sizes=(), ks=(2,))
    with pytest.raises(ValueError, match="at least one seed"):
        ExperimentGrid(subset_sizes=(5,), ks=(2,), seeds=())
    with pytest.raises(ValueError, match="k must be >= 1"):
        ExperimentGrid(pairs=((5, 0),))
    with pytest.raises(ValueError, match="unknown override key"):
        ExperimentGrid(subset_sizes=(5,), ks=(2,), overrides={"pfcm": {"momentum": 1}})
    with pytest.raises(ValueError, match="override for unknown algorithm"):
        ExperimentGrid(subset_sizes=(5,), ks=(2,), overrides={"gmm": {"m": 2.0}})
    with pytest.raises(ValueError, match="^pairs cannot be combined with subset_sizes/ks$"):
        ExperimentGrid(pairs=((5, 2),), ks=(2,))
    with pytest.raises(ValueError, match="^pairs cannot be combined with subset_sizes/ks$"):
        ExperimentGrid(pairs=((5, 2),), subset_sizes=(5,))
    with pytest.raises(ValueError, match="at least one pair"):
        ExperimentGrid(pairs=())
    for kwargs, message in [
        ({"pairs": ((40, 2.7),)}, "k must be an integer, got 2.7"),
        ({"subset_sizes": (5,), "ks": (True,)}, "k must be an integer, got True"),
        ({"subset_sizes": ("3",), "ks": (2,)}, "subset size must be an integer, got '3'"),
        ({"pairs": ((5, 2),), "seeds": (float("nan"),)}, "seed must be an integer, got nan"),
        ({"pairs": ((5, 2),), "seeds": ("1",)}, "seed must be an integer, got '1'"),
        ({"subset_sizes": (0,), "ks": (2,)}, "subset size must be >= 1, got 0"),
        ({"pairs": ((5, 2),), "seeds": (0, -1)}, "seed must be >= 0, got -1"),
        ({"pairs": ((5, 0.0),)}, "k must be >= 1, got 0"),
    ]:
        with pytest.raises(ValueError) as info:
            ExperimentGrid(**kwargs)
        assert str(info.value) == message
    integral = ExperimentGrid(pairs=((40.0, np.int64(2)),), seeds=(1.0,))
    assert integral.pairs == ((40, 2),) and integral.seeds == (1,)
    assert all(type(n) is int for n in integral.pairs[0] + integral.seeds)
    # an override key follows the algorithm name rule, and names one algorithm once
    dashed = ExperimentGrid(pairs=((12, 2),), algorithms=("rough-kmeans",),
                            overrides={"rough-kmeans": {"zeta": 1.5}})
    assert dashed.overrides == {"rough_kmeans": {"zeta": 1.5}}
    assert run_grid(_TINY, dashed).rows[0].config["zeta"] == 1.5
    with pytest.raises(ValueError, match="^overrides name rough_kmeans twice$"):
        ExperimentGrid(pairs=((12, 2),),
                       overrides={"rough-kmeans": {"zeta": 1.5}, "rough_kmeans": {"zeta": 2.0}})


def test_grid_cells_sorted_and_deduped():
    grid = ExperimentGrid(subset_sizes=(40, 20), ks=(3, 2))
    assert grid.cells() == ((20, 2), (20, 3), (40, 2), (40, 3))
    paired = ExperimentGrid(pairs=((50, 5), (10, 2), (50, 5)))
    assert paired.cells() == ((10, 2), (50, 5))


def test_grid_config_overrides():
    grid = ExperimentGrid(
        subset_sizes=(5,), ks=(2,), overrides={"pfcm": {"v": 0.25, "m": 3.0}}
    )
    cfg = grid.config_for("pfcm")
    assert cfg["v"] == 0.25 and cfg["m"] == 3.0
    assert grid.config_for("fcm")["m"] == 2.0


def test_run_algorithm_reads_only_its_params(bundled):
    x = bundled.values[:30]
    # kmeans ignores the fuzzifier; fcm rejects it only when it reads it
    ref = kmeans(x, 2, seed=3, eps=1e-4)
    part = run_algorithm("kmeans", x, 2, seed=3, eps=1e-4, m=0.5)
    assert np.array_equal(part.assignments, ref.assignments)
    with pytest.raises(ValueError, match="m must be"):
        run_algorithm("fcm", x, 2, m=0.5)
    with pytest.raises(ValueError, match="unknown algorithm"):
        run_algorithm("kmedoids", x, 2)
    with pytest.raises(TypeError, match="mm"):
        run_algorithm("pfcm", x, 2, mm=3.0)


@pytest.mark.parametrize("name", ALGORITHMS)
def test_each_algorithm_takes_the_call_run_algorithm_makes(bundled, name):
    x = bundled.values[:40]
    alg = getattr(pfclust, name)
    for seed in (0, 1):
        direct = alg(x, 3, seed=seed, **{key: DEFAULTS[key] for key in PARAMS[name]})
        assert pickle.dumps(direct) == pickle.dumps(run_algorithm(name, x, 3, seed=seed))


@pytest.mark.parametrize("name", ALGORITHMS)
def test_run_algorithm_runs_the_function_the_harness_names(bundled, monkeypatch, name):
    # a tracer sees the runs by swapping these names for wrappers, so a
    # table of the functions built at import would hide every run from it
    ran = []
    result = object()
    monkeypatch.setattr(pfclust.harness, name, lambda *args, **kwargs: ran.append(kwargs) or result)
    assert run_algorithm(name, bundled.values[:30], 2, seed=1) is result
    assert ran == [{"seed": 1, **{key: DEFAULTS[key] for key in PARAMS[name]}}]


def test_run_grid_row_count_and_order(bundled):
    grid = ExperimentGrid(
        subset_sizes=(30, 40), ks=(2, 3), seeds=(0, 1), subset_policy="first_n"
    )
    res = run_grid(bundled, grid)
    assert len(res.rows) == 4 * 4 * 2
    keys = [(r.size, r.k, r.algorithm, r.seed) for r in res.rows]
    algo_pos = {"kmeans": 0, "rough_kmeans": 1, "fcm": 2, "pfcm": 3}
    assert keys == sorted(keys, key=lambda t: (t[0], t[1], algo_pos[t[2]], t[3]))
    assert all(r.error is None for r in res.rows)
    assert all(r.report is not None for r in res.rows)


def test_run_grid_oversize_cell_rejected(bundled):
    grid = ExperimentGrid(subset_sizes=(101,), ks=(2,))
    with pytest.raises(ValueError, match="exceeds the matrix gene count"):
        run_grid(bundled, grid)


def test_run_grid_k_above_size_becomes_error_row(bundled):
    grid = ExperimentGrid(pairs=((5, 7),), algorithms=("kmeans",), subset_policy="first_n")
    res = run_grid(bundled, grid)
    assert len(res.rows) == 1
    row = res.rows[0]
    assert row.report is None
    assert row.error is not None and "ValueError" in row.error


def test_reports_byte_identical_across_runs_and_workers(bundled):
    grid = ExperimentGrid(
        subset_sizes=(25, 30), ks=(2, 3), seeds=(0, 1), normalization="z_score"
    )
    outputs = []
    for workers in (1, 1, 3):
        res = run_grid(bundled, grid, workers=workers)
        bufs = [io.StringIO() for _ in range(3)]
        res.write_report_csv(bufs[0])
        res.write_summary_csv(bufs[1])
        res.write_report_json(bufs[2])
        outputs.append(tuple(b.getvalue() for b in bufs))
    assert outputs[0] == outputs[1]
    assert outputs[0] == outputs[2]


def test_report_csv_columns(bundled):
    grid = ExperimentGrid(pairs=((20, 2),), seeds=(0,), subset_policy="first_n")
    res = run_grid(bundled, grid)
    buf = io.StringIO()
    res.write_report_csv(buf)
    lines = buf.getvalue().splitlines()
    header = lines[0].split(",")
    assert header == [
        "size", "k", "algorithm", "seed", "n_genes", "n_samples",
        "normalization", "subset_policy", "m", "v", "zeta", "w_lower",
        "iterations", "converged", "rmse", "mae", "xie_beni", "error",
    ]
    assert len(lines) == 1 + 4
    by_algo = {line.split(",")[2]: line.split(",") for line in lines[1:]}
    # m column only for fuzzy rows, v only for pfcm, zeta/w_lower only rough
    assert by_algo["kmeans"][8] == "" and by_algo["fcm"][8] == "2.0"
    assert by_algo["fcm"][9] == "" and by_algo["pfcm"][9] == "1.0"
    assert by_algo["rough_kmeans"][10] == "1.3" and by_algo["kmeans"][10] == ""


def test_runtime_only_in_timings_file(bundled):
    grid = ExperimentGrid(pairs=((15, 2),), algorithms=("kmeans",), seeds=(0,))
    res = run_grid(bundled, grid)
    csv_buf, json_buf, timing_buf = io.StringIO(), io.StringIO(), io.StringIO()
    res.write_report_csv(csv_buf)
    res.write_report_json(json_buf)
    res.write_timings_csv(timing_buf)
    assert "runtime" not in csv_buf.getvalue()
    assert "runtime" not in json_buf.getvalue()
    lines = timing_buf.getvalue().splitlines()
    assert lines[0] == "size,k,algorithm,seed,runtime_s"
    assert len(lines) == 2
    assert float(lines[1].split(",")[4]) >= 0.0


def test_report_json_structure(bundled):
    grid = ExperimentGrid(
        pairs=((20, 2),), algorithms=("pfcm",), seeds=(3,), subset_policy="first_n"
    )
    res = run_grid(bundled, grid)
    buf = io.StringIO()
    res.write_report_json(buf)
    doc = json.loads(buf.getvalue())
    assert doc["matrix"] == {"n_genes": 100, "n_samples": 10}
    assert doc["grid"]["pairs"] == [[20, 2]]
    (row,) = doc["rows"]
    assert row["algorithm"] == "pfcm" and row["seed"] == 3
    assert row["validity"]["k"] == 2
    assert len(row["trace"]) == row["iterations"] + 1
    trace = row["trace"]
    assert all(b <= a + 1e-9 for a, b in zip(trace, trace[1:]))


def test_summary_grouping(bundled):
    grid = ExperimentGrid(
        pairs=((20, 2),), algorithms=("kmeans", "fcm"), seeds=(0, 1, 2)
    )
    res = run_grid(bundled, grid)
    buf = io.StringIO()
    res.write_summary_csv(buf)
    lines = buf.getvalue().splitlines()
    assert lines[0].startswith("size,k,algorithm,n_runs,n_errors,rmse_mean")
    assert len(lines) == 3
    fields = lines[1].split(",")
    assert fields[:5] == ["20", "2", "kmeans", "3", "0"]
    rmse_vals = [r.report.rmse for r in res.rows if r.algorithm == "kmeans"]
    assert float(fields[7]) == pytest.approx(min(rmse_vals), rel=1e-12)


def test_summary_of_infinite_scores_is_infinite():
    # Xie-Beni is inf for a partition with coincident centroids; its
    # spread must not come out of inf - inf as nan
    def row(seed, xie_beni):
        report = ValidityReport(rmse=1.0 + seed, mae=0.5, xie_beni=xie_beni,
                                n_genes=14, n_samples=10, k=7, algorithm="fcm")
        run = {"iterations": 3, "stop_reason": "tolerance", "converged": True, "trace": ()}
        return CellResult(size=14, k=7, algorithm="fcm", seed=seed, report=report,
                          run=run, config={}, runtime=0.0)

    grid = ExperimentGrid(pairs=((14, 7),), algorithms=("fcm",), seeds=(0, 1, 2))
    res = ExperimentResult(grid, 14, 10, (row(0, 0.5), row(1, math.inf), row(2, 0.25)))
    buf = io.StringIO()
    res.write_summary_csv(buf)
    header, line = buf.getvalue().splitlines()
    got = dict(zip(header.split(","), line.split(",")))
    assert (got["xie_beni_mean"], got["xie_beni_sd"], got["xie_beni_best"]) == ("inf", "inf", "0.25")
    assert (got["rmse_mean"], got["rmse_sd"], got["rmse_best"]) == ("2.0", "1.0", "1.0")


def test_fuzzy_validity_uses_run_fuzzifier(bundled):
    grid = ExperimentGrid(
        pairs=((20, 2),),
        algorithms=("fcm",),
        seeds=(0,),
        subset_policy="first_n",
        overrides={"fcm": {"m": 3.0}},
    )
    res = run_grid(bundled, grid)
    (row,) = res.rows
    from pfclust import evaluate, normalize

    sub = normalize(subset_genes(bundled, 20, "first_n", 0), "z_score", drop_degenerate=True)
    part = __import__("pfclust").fcm(sub, 2, m=3.0, seed=0)
    want = evaluate(sub, part, m=3.0)
    assert row.report.rmse == pytest.approx(want.rmse, rel=1e-12)


def test_generate_synthetic_zero_spread_exact():
    m, labels = generate_synthetic([((1.0, 2.0), 0.0, 3)], seed=0)
    assert m.values.tolist() == [[1.0, 2.0]] * 3
    assert labels.tolist() == [0, 0, 0]
    assert m.gene_ids == ("g00000", "g00001", "g00002")
    assert m.sample_ids == ("s00", "s01")


def test_generate_synthetic_labels_and_noise_box():
    clusters = [((0.0, 0.0), 0.5, 10), ((10.0, 10.0), 0.5, 15)]
    m, labels = generate_synthetic(clusters, noise_genes=20, seed=1)
    assert m.n_genes == 45
    assert labels.tolist() == [0] * 10 + [1] * 15 + [-1] * 20
    noise = m.values[25:]
    assert (noise >= -1.5).all() and (noise <= 11.5).all()


def test_generate_synthetic_degenerate_box_dimension():
    # both centers share y=0 and spread is 0: that axis widens to [-1, 1]
    m, _ = generate_synthetic(
        [((0.0, 0.0), 0.0, 2), ((5.0, 0.0), 0.0, 2)], noise_genes=50, seed=2
    )
    ys = m.values[4:, 1]
    assert (np.abs(ys) <= 1.0).all()
    assert ys.std() > 0.1


def test_generate_synthetic_validation():
    with pytest.raises(ValueError, match="at least one cluster"):
        generate_synthetic([])
    with pytest.raises(ValueError, match="same dimension"):
        generate_synthetic([((0.0,), 1.0, 2), ((0.0, 1.0), 1.0, 2)])
    with pytest.raises(ValueError, match="spread"):
        generate_synthetic([((0.0,), -1.0, 2)])
    with pytest.raises(ValueError, match="count"):
        generate_synthetic([((0.0,), 1.0, 0)])
    with pytest.raises(ValueError, match="noise_genes"):
        generate_synthetic([((0.0,), 1.0, 2)], noise_genes=-1)


def test_generate_synthetic_deterministic():
    spec = [((0.0, 1.0), 0.3, 5), ((4.0, 4.0), 0.3, 5)]
    a, la = generate_synthetic(spec, noise_genes=3, seed=9)
    b, lb = generate_synthetic(spec, noise_genes=3, seed=9)
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(la, lb)
    c, _ = generate_synthetic(spec, noise_genes=3, seed=10)
    assert not np.array_equal(a.values, c.values)


def test_bundled_file_matches_generializer_params(bundled_path):
    m, _ = generate_synthetic(SYNTH_CLUSTERS, SYNTH_NOISE, SYNTH_SEED)
    buf = io.StringIO()
    write_tsv(m, buf)
    assert buf.getvalue() == bundled_path.read_text(encoding="utf-8")


def test_cluster_recovery_across_seeds():
    clusters = [((0.0, 0.0), 0.5, 25), ((12.0, 0.0), 0.5, 25), ((0.0, 12.0), 0.5, 25)]
    m, labels = generate_synthetic(clusters, seed=7)
    x = m.values
    km_hits = sum(
        adjusted_rand(kmeans(x, 3, seed=s).assignments, labels) == 1.0
        for s in range(10)
    )
    pf_hits = sum(
        adjusted_rand(pfcm(x, 3, seed=s).assignments, labels) == 1.0
        for s in range(10)
    )
    assert km_hits >= 8
    assert pf_hits >= 9


def test_grid_overrides_accept_only_keys_the_algorithm_reads():
    with pytest.raises(ValueError, match="'m' for kmeans; expected one of eps, max_iter"):
        ExperimentGrid(subset_sizes=(5,), ks=(2,), overrides={"kmeans": {"m": 0.5, "v": -3}})
    with pytest.raises(ValueError, match="'v' for fcm"):
        ExperimentGrid(subset_sizes=(5,), ks=(2,), overrides={"fcm": {"v": 0.5}})
    grid = ExperimentGrid(subset_sizes=(5,), ks=(2,), overrides={"rough_kmeans": {"zeta": 1.5}})
    assert grid.config_for("rough_kmeans")["zeta"] == 1.5


def test_run_algorithm_rejects_farthest_init_for_fuzzy(bundled):
    x = bundled.values[:30]
    for name in ("fcm", "pfcm"):
        with pytest.raises(ValueError, match=f"farthest_init .* not {name}"):
            run_algorithm(name, x, 2, farthest_init=True)


def _count_subsets(monkeypatch):
    """Record the (size, seed) of every harness.subset_genes call."""
    calls = []
    original = pfclust.harness.subset_genes

    def counted(m, size, policy="variance_top_n", seed=0):
        calls.append((size, seed))
        return original(m, size, policy, seed)

    monkeypatch.setattr(pfclust.harness, "subset_genes", counted)
    return calls


# 9 workers: more than the CPUs, so the parts are capped; each part builds the
# subsets its own runs use, and these count the calls in this process
@pytest.mark.parametrize("workers", [1, 2, 9])
def test_grid_builds_each_preset_subset_once(bundled, monkeypatch, workers):
    calls = _count_subsets(monkeypatch)
    grid = ExperimentGrid(pairs=preset_pairs(bundled.n_genes), seeds=(0, 1))
    res = run_grid(bundled, grid, workers=workers)
    assert len(res.rows) == 32
    assert sorted(size for size, _ in calls) == sorted(s for s, _ in grid.cells())
    assert len(calls) == 4


# 9 workers: more than the CPUs, so the parts are capped; each part builds the
# subsets its own runs use, and these count the calls in this process
@pytest.mark.parametrize("workers", [1, 2, 9])
def test_grid_builds_one_seeded_random_subset_per_size_and_seed(bundled, monkeypatch, workers):
    calls = _count_subsets(monkeypatch)
    grid = ExperimentGrid(subset_sizes=(40, 80), ks=(2, 3), seeds=(0, 1),
                          subset_policy="seeded_random")
    res = run_grid(bundled, grid, workers=workers)
    assert len(res.rows) == 32
    assert sorted(calls) == [(40, 0), (40, 1), (80, 0), (80, 1)]


def test_grid_drops_a_subset_after_its_last_run(bundled, monkeypatch):
    # no normalization, so the runs get subset_genes' own matrices
    built = []
    original = pfclust.harness.subset_genes

    def tracked(*args):
        sub = original(*args)
        built.append(weakref.ref(sub))
        return sub

    held = []
    run = pfclust.harness.run_algorithm

    def spy(name, x, *args, **kwargs):
        held.append(sorted(ref().n_genes for ref in built if ref() is not None))
        return run(name, x, *args, **kwargs)

    monkeypatch.setattr(pfclust.harness, "subset_genes", tracked)
    monkeypatch.setattr(pfclust.harness, "run_algorithm", spy)
    grid = ExperimentGrid(subset_sizes=(30, 60), ks=(2,), normalization="none",
                          subset_policy="first_n", algorithms=("kmeans", "fcm"))
    run_grid(bundled, grid)
    assert held == [[30], [30], [60], [60]]
    assert all(ref() is None for ref in built)


_SPLITS = pytest.mark.skipif(not pfclust._util._SPREADS, reason="cannot fork or move to a CPU")
_SMALL = ExperimentGrid(pairs=((30, 2), (60, 3)), algorithms=("kmeans", "fcm"), seeds=(0, 1))


def _texts(res):
    """A result's report.csv, summary.csv and report.json."""
    texts = []
    for write in (res.write_report_csv, res.write_summary_csv, res.write_report_json):
        buf = io.StringIO()
        write(buf)
        texts.append(buf.getvalue())
    return texts


@pytest.fixture
def forks(monkeypatch):
    """One entry per process this process forks while the test runs."""
    forked = []
    fork = os.fork

    def counted():
        forked.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return forked


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# min(workers, groups, CPUs) parts, the first of them in process
@_SPLITS
@pytest.mark.parametrize("workers, cpus, expected", [
    (2, 8, 1), (12, 2, 1), (12, 8, 2), (3, 1, 0), (1, 8, 0),
], ids=["workers", "cpus", "runs", "one-cpu", "one-worker"])
def test_grid_pool_has_at_most_one_process_per_worker_run_and_cpu(
    bundled, monkeypatch, forks, workers, cpus, expected
):
    monkeypatch.setattr(pfclust._util, "usable_cpus", lambda: cpus)
    grid = ExperimentGrid(pairs=((30, 2),), algorithms=("kmeans", "fcm", "pfcm"), seeds=(0, 1))
    assert len(grid.runs()) == 6  # in three (cell, algorithm) groups
    run_grid(bundled, grid, workers=workers)
    assert len(forks) == expected
    _no_child_left()


@_SPLITS
def test_no_worker_process_outlives_a_grid(bundled, monkeypatch, forks):
    monkeypatch.setattr(pfclust._util, "usable_cpus", lambda: 2)
    expected = _texts(run_grid(bundled, _SMALL))
    assert _texts(run_grid(bundled, _SMALL, workers=2)) == expected
    assert len(forks) == 1
    _no_child_left()


@_SPLITS
def test_a_run_that_raises_in_a_worker_fills_its_row(bundled, monkeypatch):
    monkeypatch.setattr(pfclust._util, "usable_cpus", lambda: 2)
    run = pfclust.harness.run_algorithm

    def failing(name, x, k, seed=0, **params):
        if (name, k, seed) == ("fcm", 3, 1):
            raise ArithmeticError("injected")
        return run(name, x, k, seed=seed, **params)

    monkeypatch.setattr(pfclust.harness, "run_algorithm", failing)
    res = run_grid(bundled, _SMALL, workers=2)
    _no_child_left()
    errors = [(r.size, r.algorithm, r.seed, r.error) for r in res.rows if r.error]
    assert errors == [(60, "fcm", 1, "ArithmeticError: injected")]


@_SPLITS
def test_a_worker_that_dies_has_the_grid_run_again_in_process(bundled, monkeypatch, forks):
    monkeypatch.setattr(pfclust._util, "usable_cpus", lambda: 2)
    expected = _texts(run_grid(bundled, _SMALL))
    parent = os.getpid()
    run = pfclust.harness.run_algorithm

    def dying(name, x, k, seed=0, **params):
        if name == "fcm" and os.getpid() != parent:
            os._exit(1)
        return run(name, x, k, seed=seed, **params)

    monkeypatch.setattr(pfclust.harness, "run_algorithm", dying)
    with within(60):
        assert _texts(run_grid(bundled, _SMALL, workers=2)) == expected
    assert len(forks) == 1
    _no_child_left()


@_SPLITS
def test_a_grid_pool_forks_without_a_warning(bundled, monkeypatch):
    # Python 3.12+ warns on fork once a process has a second thread
    tasks = "/proc/self/task"
    if sys.version_info >= (3, 12) and os.path.isdir(tasks) and len(os.listdir(tasks)) > 1:
        pytest.skip("BLAS threads run already, so any fork warns")
    monkeypatch.setattr(pfclust._util, "usable_cpus", lambda: 2)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        run_grid(bundled, _SMALL, workers=2)
    assert [str(w.message) for w in caught] == []


def test_a_grid_without_fork_runs_in_process(bundled, monkeypatch, forks):
    monkeypatch.setattr(pfclust._util, "usable_cpus", lambda: 2)
    expected = _texts(run_grid(bundled, _SMALL))
    monkeypatch.setattr(pfclust._util, "_SPREADS", False)
    assert _texts(run_grid(bundled, _SMALL, workers=2)) == expected
    assert forks == []


@_SPLITS
def test_groups_that_do_not_divide_into_the_parts_keep_the_runs_order(
    bundled, monkeypatch, forks
):
    monkeypatch.setattr(pfclust._util, "usable_cpus", lambda: 3)
    grid = ExperimentGrid(pairs=((20, 2), (30, 2), (40, 3), (50, 2), (60, 3)),
                          algorithms=("kmeans",), seeds=(0, 1))
    expected = _texts(run_grid(bundled, grid))
    res = run_grid(bundled, grid, workers=3)
    assert len(forks) == 2
    assert [(r.size, r.k, r.algorithm, r.seed) for r in res.rows] == list(grid.runs())
    assert _texts(res) == expected
    _no_child_left()


_TINY, _ = generate_synthetic(
    [((0.0, 0.0, 0.0), 0.5, 8), ((4.0, 0.0, 4.0), 0.5, 8), ((0.0, 4.0, 4.0), 0.5, 8)],
    noise_genes=4, seed=7,
)


def _reports(grid, workers):
    res = run_grid(_TINY, grid, workers=workers)
    return _texts(res), len(res.rows)


_ALGORITHMS = ("kmeans", "rough_kmeans", "fcm", "pfcm")


def _spellings(*names):
    """Each name as written, dashed, upper case and dashed title case."""
    return st.sampled_from(names).flatmap(lambda a: st.sampled_from(
        (a, a.replace("_", "-"), a.upper(), a.replace("_", "-").title())
    ))


@settings(max_examples=15, deadline=None)
@given(
    sizes=st.lists(st.sampled_from((12, 28)), min_size=1, max_size=4),
    ks=st.lists(st.sampled_from((2, 3)), min_size=1, max_size=3),
    algorithms=st.lists(_spellings(*_ALGORITHMS), min_size=1, max_size=6),
    seeds=st.lists(st.sampled_from((0, 1, 2)), min_size=1, max_size=4),
    normalization=_spellings("z_score", "zscore"),
    policy=_spellings("variance_top_n"),
    order=st.randoms(use_true_random=False),
)
def test_repeated_spec_entries_run_once(sizes, ks, algorithms, seeds, normalization, policy,
                                        order):
    named = {a.replace("-", "_").lower() for a in algorithms}
    distinct = ExperimentGrid(
        subset_sizes=sorted(set(sizes)), ks=sorted(set(ks)),
        algorithms=[a for a in _ALGORITHMS if a in named], seeds=sorted(set(seeds)),
    )
    # report.json included, so its grid echo is the spec that ran
    expected, n_rows = _reports(distinct, 1)
    assert n_rows == len(set(sizes)) * len(set(ks)) * len(named) * len(set(seeds))
    for values in (sizes, ks, algorithms, seeds):
        values.extend(values)
        order.shuffle(values)
    repeated = ExperimentGrid(subset_sizes=sizes, ks=ks, algorithms=algorithms, seeds=seeds,
                              normalization=normalization, subset_policy=policy)
    assert repeated == distinct
    for workers in (1, 2):
        assert _reports(repeated, workers) == (expected, n_rows)


def test_library_entries_take_every_spelling():
    assert np.array_equal(normalize(_TINY, "zscore").values, normalize(_TINY, "z_score").values)
    assert subset_genes(_TINY, 5, "first-n").gene_ids == _TINY.gene_ids[:5]
    dashed = run_algorithm("Rough-KMeans", _TINY, 3, seed=1)
    assert np.array_equal(dashed.member, run_algorithm("rough_kmeans", _TINY, 3, seed=1).member)
    for call, message in [
        (lambda: normalize(_TINY, "none"),
         "unknown normalization 'none'; expected one of mean-relative, z-score"),
        (lambda: subset_genes(_TINY, 5, "first"),
         "unknown subset policy 'first'; expected one of first-n, variance-top-n, seeded-random"),
        (lambda: run_algorithm("k_means", _TINY, 3),
         "unknown algorithm 'k_means'; expected one of kmeans, rough-kmeans, fcm, pfcm"),
    ]:
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == message
