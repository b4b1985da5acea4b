import json
import math
import shutil
from dataclasses import asdict

import numpy as np
import pytest

from pfclust import evaluate, parse_matrix, read_partition_csv, run_algorithm
from pfclust.cli import main


SMALL_TSV = "s1\ts2\ts3\nga\t0.0\t1.0\t2.0\ngb\t0.5\t1.5\t2.5\ngc\t10.0\t11.0\t12.0\ngd\t10.5\t11.5\t12.5\n"

FOUR_TSV = "s1\nga\t0.0\ngb\t1.0\ngc\t10.0\ngd\t11.0\n"


@pytest.fixture
def small_tsv(tmp_path):
    p = tmp_path / "expr.tsv"
    p.write_text(SMALL_TSV, encoding="utf-8")
    return p


@pytest.fixture
def four_tsv(tmp_path):
    p = tmp_path / "four.tsv"
    p.write_text(FOUR_TSV, encoding="utf-8")
    return p


@pytest.fixture
def bundled_tsv(tmp_path, bundled_path):
    p = tmp_path / "synth.tsv"
    shutil.copy(bundled_path, p)
    return p


def test_normalize_writes_output(small_tsv, tmp_path, capsys):
    out = tmp_path / "norm.tsv"
    code = main(["normalize", str(small_tsv), "--method", "zscore", "-o", str(out)])
    assert code == 0
    assert f"wrote {out}" in capsys.readouterr().out
    m = parse_matrix(out.read_text(), "tsv")
    assert np.abs(m.values.mean(axis=1)).max() <= 1e-9
    assert np.abs(m.values.std(axis=1, ddof=1) - 1.0).max() <= 1e-9


def test_normalize_default_output_name(small_tsv, tmp_path):
    code = main(["normalize", str(small_tsv), "--method", "mean-relative"])
    assert code == 0
    assert (tmp_path / "expr.normalized.tsv").exists()


def test_normalize_rejects_none(small_tsv, capsys):
    code = main(["normalize", str(small_tsv), "--method", "none"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_normalize_degenerate_row_fails_with_gene_name(tmp_path, capsys):
    p = tmp_path / "flat.tsv"
    p.write_text("s1\ts2\nok\t1.0\t2.0\nflat\t3.0\t3.0\n", encoding="utf-8")
    code = main(["normalize", str(p), "--method", "zscore"])
    assert code == 2
    assert "flat" in capsys.readouterr().err
    assert not (tmp_path / "flat.normalized.tsv").exists()


def test_normalize_drop_degenerate_warns(tmp_path, capsys):
    p = tmp_path / "flat.tsv"
    p.write_text("s1\ts2\nok\t1.0\t2.0\nflat\t3.0\t3.0\n", encoding="utf-8")
    code = main(["normalize", str(p), "--method", "zscore", "--drop-degenerate"])
    assert code == 0
    err = capsys.readouterr().err
    assert "dropped 1 degenerate" in err
    m = parse_matrix((tmp_path / "flat.normalized.tsv").read_text(), "tsv")
    assert m.gene_ids == ("ok",)


def test_cluster_kmeans_writes_three_files(four_tsv, tmp_path, capsys):
    code = main(["cluster", str(four_tsv), "--alg", "kmeans", "--k", "2"])
    assert code == 0
    out = capsys.readouterr().out
    for suffix in (".partition.csv", ".centroids.csv", ".meta.json"):
        path = tmp_path / f"four{suffix}"
        assert path.exists()
        assert str(path) in out
    meta = json.loads((tmp_path / "four.meta.json").read_text())
    assert meta["command"] == "cluster"
    assert meta["algorithm"] == "kmeans"
    assert meta["k"] == 2
    assert meta["converged"] is True
    assert meta["sse"] == pytest.approx(1.0, abs=1e-12)
    assert isinstance(meta["sse_trace"], list)
    pf = read_partition_csv(tmp_path / "four.partition.csv")
    assert pf.kind == "hard"
    assert pf.gene_ids == ("ga", "gb", "gc", "gd")


def test_cluster_bad_k_writes_nothing(four_tsv, tmp_path, capsys):
    code = main(["cluster", str(four_tsv), "--alg", "kmeans", "--k", "0"])
    assert code == 1
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "four.partition.csv").exists()


def test_cluster_k_above_n_genes_fails_cleanly(four_tsv, tmp_path):
    code = main(["cluster", str(four_tsv), "--alg", "kmeans", "--k", "9"])
    assert code == 1
    assert not (tmp_path / "four.partition.csv").exists()
    assert not list(tmp_path.glob("*.tmp*"))


def test_cluster_pfcm_meta_has_alpha(four_tsv, tmp_path):
    code = main(["cluster", str(four_tsv), "--alg", "pfcm", "--k", "2", "--seed", "3"])
    assert code == 0
    meta = json.loads((tmp_path / "four.meta.json").read_text())
    assert meta["algorithm"] == "pfcm"
    assert len(meta["alpha"]) == 2
    assert sum(meta["alpha"]) == pytest.approx(1.0, abs=1e-9)
    trace = meta["objective_trace"]
    assert all(b <= a + 1e-9 for a, b in zip(trace, trace[1:]))
    pf = read_partition_csv(tmp_path / "four.partition.csv")
    assert pf.kind == "fuzzy"


def test_cluster_fcm_equals_pfcm_at_v_zero(four_tsv, tmp_path):
    main(["cluster", str(four_tsv), "--alg", "fcm", "--k", "2", "--seed", "7",
          "--out", str(tmp_path / "a")])
    main(["cluster", str(four_tsv), "--alg", "pfcm", "--k", "2", "--seed", "7",
          "--v", "0", "--out", str(tmp_path / "b")])
    a = (tmp_path / "a.partition.csv").read_bytes()
    b = (tmp_path / "b.partition.csv").read_bytes()
    assert a == b
    ac = (tmp_path / "a.centroids.csv").read_bytes()
    bc = (tmp_path / "b.centroids.csv").read_bytes()
    assert ac == bc


def test_cluster_rough_partition_kind(four_tsv, tmp_path):
    code = main(["cluster", str(four_tsv), "--alg", "rough-kmeans", "--k", "2"])
    assert code == 0
    pf = read_partition_csv(tmp_path / "four.partition.csv")
    assert pf.kind == "rough"
    meta = json.loads((tmp_path / "four.meta.json").read_text())
    assert meta["zeta"] == 1.3
    assert meta["w_lower"] == 0.7


def test_cluster_nonconvergence_warns_but_succeeds(bundled_tsv, tmp_path, capsys):
    code = main(["cluster", str(bundled_tsv), "--alg", "fcm", "--k", "3",
                 "--max-iter", "1"])
    assert code == 0
    captured = capsys.readouterr()
    assert "did not converge within 1 iterations" in captured.err
    assert (tmp_path / "synth.partition.csv").exists()
    meta = json.loads((tmp_path / "synth.meta.json").read_text())
    assert meta["converged"] is False


@pytest.mark.parametrize("alg,seed,stop", [("kmeans", 1, 4), ("rough-kmeans", 0, 6)])
def test_cluster_converged_on_last_allowed_iteration(bundled_tsv, tmp_path, capsys, alg, seed, stop):
    # these runs stop on their own at iteration `stop`; capping them there
    # must still report convergence
    code = main(["cluster", str(bundled_tsv), "--alg", alg, "--k", "3", "--seed", str(seed),
                 "--normalize", "zscore", "--max-iter", str(stop)])
    assert code == 0
    assert "did not converge" not in capsys.readouterr().err
    meta = json.loads((tmp_path / "synth.meta.json").read_text())
    assert meta["iterations"] == stop
    assert meta["converged"] is True


def test_cluster_zero_membership_mass_is_numerical_failure(bundled_tsv, capsys):
    # u**m underflows to zero mass at this fuzzifier
    code = main(["cluster", str(bundled_tsv), "--alg", "pfcm", "--k", "3", "--m", "2000"])
    assert code == 3
    assert "zero total mass" in capsys.readouterr().err


def test_cluster_rerun_byte_identical(four_tsv, tmp_path):
    args = ["cluster", str(four_tsv), "--alg", "pfcm", "--k", "2", "--seed", "1"]
    assert main(args) == 0
    first = {
        name: (tmp_path / f"four{name}").read_bytes()
        for name in (".partition.csv", ".centroids.csv", ".meta.json")
    }
    assert main(args) == 0
    for name, content in first.items():
        assert (tmp_path / f"four{name}").read_bytes() == content


def test_validate_four_point_fixture(four_tsv, tmp_path, capsys):
    part = tmp_path / "p.csv"
    cent = tmp_path / "c.csv"
    part.write_text("gene_id,cluster\nga,0\ngb,0\ngc,1\ngd,1\n", encoding="utf-8")
    cent.write_text("s1\n0.5\n10.5\n", encoding="utf-8")
    code = main(["validate", str(four_tsv), "--partition", str(part),
                 "--centroids", str(cent)])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["rmse"] == pytest.approx(0.5, abs=1e-12)
    assert doc["mae"] == pytest.approx(0.5, abs=1e-12)
    assert doc["xie_beni"] == pytest.approx(0.0025, abs=1e-12)
    assert doc["algorithm"] == "kmeans"
    assert doc["partition_kind"] == "hard"
    assert doc["k"] == 2


def test_validate_output_file_and_algorithm_override(four_tsv, tmp_path, capsys):
    part = tmp_path / "p.csv"
    cent = tmp_path / "c.csv"
    part.write_text("gene_id,cluster\nga,0\ngb,0\ngc,1\ngd,1\n", encoding="utf-8")
    cent.write_text("s1\n0.5\n10.5\n", encoding="utf-8")
    out = tmp_path / "report.json"
    code = main(["validate", str(four_tsv), "--partition", str(part),
                 "--centroids", str(cent), "--algorithm", "rough-kmeans",
                 "-o", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["algorithm"] == "rough_kmeans"


@pytest.mark.parametrize("k", [1, 3])
def test_validate_scores_a_rough_partition_like_evaluate(bundled_tsv, tmp_path, capsys, k):
    prefix = tmp_path / "r"
    assert main(["cluster", str(bundled_tsv), "--alg", "rough-kmeans", "--k", str(k),
                 "--out", str(prefix)]) == 0
    capsys.readouterr()
    assert main(["validate", str(bundled_tsv), "--partition", f"{prefix}.partition.csv",
                 "--centroids", f"{prefix}.centroids.csv", "--m", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    m = parse_matrix(bundled_tsv.read_text(), "tsv")
    want = asdict(evaluate(m, run_algorithm("rough_kmeans", m, k), m=1.0))
    if math.isinf(want["xie_beni"]):
        want["xie_beni"] = "inf"
    assert {key: doc[key] for key in want} == want


def test_validate_gene_id_mismatch(four_tsv, tmp_path, capsys):
    part = tmp_path / "p.csv"
    cent = tmp_path / "c.csv"
    part.write_text("gene_id,cluster\nother,0\n", encoding="utf-8")
    cent.write_text("s1\n0.5\n", encoding="utf-8")
    code = main(["validate", str(four_tsv), "--partition", str(part),
                 "--centroids", str(cent)])
    assert code == 2
    assert "gene ids do not match" in capsys.readouterr().err


@pytest.mark.parametrize("partition, message", [
    # more clusters than the centroid file holds
    ("gene_id,cluster\nga,0\ngb,0\ngc,1\ngd,2\n",
     "partition references cluster 2 but only 2 centroids given"),
    # memberships that are not a probability row
    ("gene_id,u0,u1\nga,1.0,0.0\ngb,nan,0.2\ngc,0.0,1.0\ngd,0.0,1.0\n",
     "gene 'gb': memberships must be in [0, 1] and sum to 1, got nan, 0.2"),
], ids=["cluster-count", "fuzzy-row"])
def test_validate_mismatched_partition_is_data_error(four_tsv, tmp_path, capsys,
                                                     partition, message):
    part = tmp_path / "p.csv"
    cent = tmp_path / "c.csv"
    part.write_text(partition, encoding="utf-8")
    cent.write_text("s1\n0.5\n10.5\n", encoding="utf-8")
    code = main(["validate", str(four_tsv), "--partition", str(part),
                 "--centroids", str(cent)])
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_heatmap_default_output(four_tsv, tmp_path):
    code = main(["heatmap", str(four_tsv), "--scale", "2"])
    assert code == 0
    data = (tmp_path / "four.ppm").read_bytes()
    assert data.startswith(b"P6\n2 8\n255\n")


def test_heatmap_partition_reorders_rows(small_tsv, tmp_path):
    part = tmp_path / "p.csv"
    part.write_text(
        "gene_id,cluster\nga,1\ngb,0\ngc,1\ngd,0\n", encoding="utf-8"
    )
    out = tmp_path / "map.ppm"
    code = main(["heatmap", str(small_tsv), "--partition", str(part),
                 "-o", str(out)])
    assert code == 0
    from pfclust import render_ppm

    m = parse_matrix(SMALL_TSV, "tsv")
    want = render_ppm(m, row_order=[1, 3, 0, 2])
    assert out.read_bytes() == want


def test_heatmap_partition_mismatch(four_tsv, tmp_path, capsys):
    part = tmp_path / "p.csv"
    part.write_text("gene_id,cluster\nga,0\n", encoding="utf-8")
    code = main(["heatmap", str(four_tsv), "--partition", str(part)])
    assert code == 2
    assert not (tmp_path / "four.ppm").exists()


def test_grid_preset_runs_and_is_deterministic(bundled_tsv, tmp_path):
    args = ["grid", str(bundled_tsv), "--preset", "--seeds", "0"]
    assert main(args) == 0
    names = [".report.csv", ".report.json", ".summary.csv"]
    first = {n: (tmp_path / f"synth{n}").read_bytes() for n in names}
    report_lines = first[".report.csv"].decode().splitlines()
    # 4 scaled preset cells x 4 algorithms x 1 seed
    assert len(report_lines) == 1 + 16
    assert main(args) == 0
    for n in names:
        assert (tmp_path / f"synth{n}").read_bytes() == first[n]
    assert not (tmp_path / "synth.timings.csv").exists()


def test_grid_sizes_ks_and_timings(bundled_tsv, tmp_path):
    code = main(["grid", str(bundled_tsv), "--sizes", "20,30", "--ks", "2",
                 "--algorithms", "kmeans,fcm", "--timings", "--workers", "2"])
    assert code == 0
    lines = (tmp_path / "synth.report.csv").read_text().splitlines()
    assert len(lines) == 1 + 2 * 2
    timings = (tmp_path / "synth.timings.csv").read_text().splitlines()
    assert timings[0] == "size,k,algorithm,seed,runtime_s"
    assert len(timings) == 1 + 4


def test_grid_config_file(bundled_tsv, tmp_path):
    cfg = tmp_path / "grid.json"
    cfg.write_text(json.dumps({
        "pairs": [[20, 2], [30, 3]],
        "algorithms": ["pfcm"],
        "seeds": [0, 1],
        "normalization": "mean-relative",
    }), encoding="utf-8")
    code = main(["grid", str(bundled_tsv), "--config", str(cfg)])
    assert code == 0
    lines = (tmp_path / "synth.report.csv").read_text().splitlines()
    assert len(lines) == 1 + 4
    assert all(",mean_relative," in line for line in lines[1:])


def test_grid_config_unknown_key(bundled_tsv, tmp_path, capsys):
    cfg = tmp_path / "grid.json"
    cfg.write_text('{"sizes": [10]}', encoding="utf-8")
    code = main(["grid", str(bundled_tsv), "--config", str(cfg)])
    assert code == 1
    assert "unknown grid config key" in capsys.readouterr().err


@pytest.mark.parametrize("doc", [
    '{"subset_sizes": 5, "ks": [2]}',
    '{"ks": null, "subset_sizes": [5]}',
    '{"algorithms": [5], "pairs": [[5, 2]]}',
    '{"normalization": 3, "pairs": [[5, 2]]}',
    '{"overrides": [], "pairs": [[5, 2]]}',
])
def test_grid_config_malformed_values(bundled_tsv, tmp_path, capsys, doc):
    cfg = tmp_path / "grid.json"
    cfg.write_text(doc, encoding="utf-8")
    args = ["grid", str(bundled_tsv), "--config", str(cfg)]
    assert main(args) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert main(args + ["--json"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and json.loads(err[0])["exit_code"] == 1


def test_grid_row_converged_on_last_allowed_iteration(bundled_tsv, tmp_path):
    cfg = tmp_path / "grid.json"
    cfg.write_text(json.dumps({
        "pairs": [[100, 3]], "algorithms": ["kmeans", "rough_kmeans"],
        "overrides": {"kmeans": {"max_iter": 4}, "rough_kmeans": {"max_iter": 6}},
    }), encoding="utf-8")
    assert main(["grid", str(bundled_tsv), "--config", str(cfg), "--out", str(tmp_path / "g")]) == 0
    rows = json.loads((tmp_path / "g.report.json").read_text())["rows"]
    assert [(r["iterations"], r["converged"]) for r in rows] == [(4, True), (6, True)]
    report = (tmp_path / "g.report.csv").read_text().splitlines()
    col = report[0].split(",").index("converged")
    assert [line.split(",")[col] for line in report[1:]] == ["true", "true"]


def test_grid_config_conflicts_with_flags(bundled_tsv, tmp_path, capsys):
    cfg = tmp_path / "grid.json"
    cfg.write_text("{}", encoding="utf-8")
    code = main(["grid", str(bundled_tsv), "--config", str(cfg), "--preset"])
    assert code == 1


def test_grid_requires_some_cells(bundled_tsv, capsys):
    code = main(["grid", str(bundled_tsv)])
    assert code == 1
    assert "--sizes and --ks" in capsys.readouterr().err


def test_missing_input_json_diagnostics(tmp_path, capsys):
    code = main(["cluster", str(tmp_path / "nope.tsv"), "--alg", "kmeans",
                 "--k", "2", "--json"])
    assert code == 2
    err_lines = capsys.readouterr().err.splitlines()
    assert len(err_lines) == 1
    doc = json.loads(err_lines[0])
    assert doc["exit_code"] == 2
    assert "nope.tsv" in doc["error"]


def test_parse_error_reports_location(tmp_path, capsys):
    p = tmp_path / "bad.tsv"
    p.write_text("s1\ts2\nga\t1.0\tnot_a_number\n", encoding="utf-8")
    code = main(["normalize", str(p), "--method", "zscore"])
    assert code == 2
    err = capsys.readouterr().err
    assert "line 2" in err and "column 3" in err


def test_unknown_algorithm_usage_error(four_tsv, capsys):
    code = main(["cluster", str(four_tsv), "--alg", "dbscan", "--k", "2"])
    assert code == 1
    assert "unknown algorithm" in capsys.readouterr().err


def test_unknown_subcommand(capsys):
    code = main(["frobnicate"])
    assert code == 1


def test_gct_extension_sniffed(tmp_path):
    gct = tmp_path / "mini.gct"
    gct.write_text(
        "#1.2\n2\t2\nName\tDescription\ts1\ts2\n"
        "ga\tdesc\t0.0\t1.0\ngb\tdesc\t5.0\t6.0\n",
        encoding="utf-8",
    )
    code = main(["cluster", str(gct), "--alg", "kmeans", "--k", "2"])
    assert code == 0
    pf = read_partition_csv(tmp_path / "mini.partition.csv")
    assert pf.gene_ids == ("ga", "gb")


def test_grid_config_override_key_the_algorithm_ignores(bundled_tsv, tmp_path, capsys):
    cfg = tmp_path / "grid.json"
    cfg.write_text(
        '{"pairs": [[5, 2]], "overrides": {"kmeans": {"m": 0.5, "v": -3}}}', encoding="utf-8"
    )
    assert main(["grid", str(bundled_tsv), "--config", str(cfg)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert "expected one of eps, max_iter" in err[0]


@pytest.mark.parametrize("alg", ["fcm", "pfcm"])
def test_cluster_farthest_init_is_usage_error_for_fuzzy(four_tsv, tmp_path, capsys, alg):
    out = tmp_path / "run"
    args = ["cluster", str(four_tsv), "--alg", alg, "--k", "2", "--farthest-init", "--out", str(out)]
    assert main(args) == 1
    assert "--farthest-init" in capsys.readouterr().err
    assert not list(tmp_path.glob("run.*"))
