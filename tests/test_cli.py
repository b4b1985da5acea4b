import errno
import hashlib
import json
import math
import os
import shutil
import stat
import tracemalloc
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from pfclust import (
    ExpressionMatrix, evaluate, parse_matrix, read_partition_csv, run_algorithm, write_tsv,
)
import pfclust.harness
from pfclust.cli import main
from pfclust.io import companion_path

from conftest import within


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


@pytest.fixture
def matrix_never_read(monkeypatch):
    """Fail the test if the CLI reads its input matrix."""
    def never(*args):
        raise AssertionError("the input was read")

    monkeypatch.setattr("pfclust.cli._read_matrix", never)


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


@pytest.mark.parametrize("subcommand, flags", [
    ("normalize", ["--method", "zscore"]),
    ("cluster", ["--alg", "kmeans", "--k", "2", "--normalize", "zscore"]),
], ids=["normalize", "cluster"])
def test_drop_degenerate_warns(tmp_path, capsys, subcommand, flags):
    p = tmp_path / "flat.tsv"
    p.write_text("s1\ts2\nga\t1.0\t2.0\nflat\t3.0\t3.0\ngb\t2.0\t1.0\ngc\t0.0\t5.0\n",
                 encoding="utf-8")
    assert main([subcommand, str(p), *flags, "--drop-degenerate"]) == 0
    assert capsys.readouterr().err == "warning: dropped 1 degenerate gene(s)\n"
    if subcommand == "normalize":
        ids = parse_matrix((tmp_path / "flat.normalized.tsv").read_text(), "tsv").gene_ids
    else:
        ids = read_partition_csv(tmp_path / "flat.partition.csv").gene_ids
    assert ids == ("ga", "gb", "gc")


@pytest.mark.parametrize("flags", [[], ["--normalize", "none"]], ids=["default", "none"])
def test_cluster_drop_degenerate_without_normalize_is_usage_error(tmp_path, capsys, flags):
    p = tmp_path / "flat.tsv"
    p.write_text("s1\ts2\nga\t1.0\t2.0\nflat\t3.0\t3.0\ngb\t2.0\t1.0\ngc\t0.0\t5.0\n",
                 encoding="utf-8")
    before = sorted(tmp_path.iterdir())
    # refused before the input is read: a missing input is not reported
    for source in (p, tmp_path / "missing.tsv"):
        args = ["cluster", str(source), "--alg", "kmeans", "--k", "2", *flags, "--drop-degenerate"]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err == "error: --drop-degenerate applies with --normalize mean-relative or zscore only\n"
    assert sorted(tmp_path.iterdir()) == before


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
    assert meta["trace"][-1] == pytest.approx(1.0, abs=1e-12)
    assert len(meta["trace"]) == meta["iterations"]
    pf = read_partition_csv(tmp_path / "four.partition.csv")
    assert pf.kind == "hard"
    assert pf.gene_ids == ("ga", "gb", "gc", "gd")


def test_cluster_bad_k_writes_nothing(four_tsv, tmp_path, capsys):
    code = main(["cluster", str(four_tsv), "--alg", "kmeans", "--k", "0"])
    assert code == 1
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "four.partition.csv").exists()


def test_cluster_negative_seed_is_usage_error(four_tsv, tmp_path, capsys):
    code = main(["cluster", str(four_tsv), "--alg", "kmeans", "--k", "2", "--seed", "-1"])
    assert code == 1
    assert capsys.readouterr().err == "error: --seed must be >= 0, got -1\n"
    assert not list(tmp_path.glob("four.*.*"))


@pytest.mark.parametrize("flag, rule", [("--eps", "must be positive"), ("--v", "must be >= 0")])
def test_cluster_negative_exponent_value_reaches_range_check(four_tsv, tmp_path, capsys,
                                                             flag, rule):
    code = main(["cluster", str(four_tsv), "--alg", "pfcm", "--k", "2", flag, "-1e-3"])
    assert code == 1
    assert capsys.readouterr().err == f"error: {flag} {rule}, got -0.001\n"
    assert not (tmp_path / "four.partition.csv").exists()


@pytest.mark.parametrize("json_mode", [False, True])
def test_cluster_into_missing_directory_names_the_output(four_tsv, tmp_path, capsys, json_mode):
    out = tmp_path / "nodir" / "x"
    code = main(["cluster", str(four_tsv), "--alg", "kmeans", "--k", "2", "--out", str(out)]
                + ["--json"] * json_mode)
    assert code == 2
    message = f"cannot write {out}.partition.csv: No such file or directory"
    want = json.dumps({"error": message, "exit_code": 2}) if json_mode else f"error: {message}"
    assert capsys.readouterr().err == want + "\n"


def test_normalize_output_that_is_a_directory(small_tsv, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = main(["normalize", str(small_tsv), "--method", "zscore", "-o", "."])
    assert code == 2
    assert capsys.readouterr().err == "error: cannot write .: Is a directory\n"
    assert os.listdir(tmp_path) == ["expr.tsv"]


@pytest.mark.parametrize("exists", [True, False])
def test_cluster_prefix_ending_in_a_separator(four_tsv, tmp_path, capsys, exists):
    # "d/" names a directory, not the prefix "d"
    d = tmp_path / "d"
    if exists:
        d.mkdir()
    prefix = str(d) + os.sep
    code = main(["cluster", str(four_tsv), "--alg", "kmeans", "--k", "3", "--out", prefix])
    assert code == 2
    assert capsys.readouterr().err == f"error: cannot write {prefix}: Is a directory\n"
    assert sorted(os.listdir(tmp_path)) == ["d", "four.tsv"][1 - exists:]
    assert not exists or os.listdir(d) == []


# each subcommand's flags up to its output flag, and the suffix of its
# first output; every call would succeed with a writable output
OUTPUT_FLAGS = {
    "normalize": (["--method", "zscore", "-o"], ""),
    "cluster": (["--alg", "kmeans", "--k", "2", "--out"], ".partition.csv"),
    "validate": (["--partition", "p.csv", "--centroids", "c.csv", "-o"], ""),
    "grid": (["--sizes", "4", "--ks", "2", "--out"], ".report.csv"),
    "heatmap": (["-o"], ""),
}


@pytest.mark.parametrize("given, reason", [
    ("d", "Is a directory"),
    ("e" + os.sep, "Is a directory"),
    (os.path.join("nodir", "x"), "No such file or directory"),
    (os.path.join("expr.tsv", "x"), "Not a directory"),
], ids=["directory", "separator", "missing-directory", "file-as-directory"])
@pytest.mark.parametrize("command", list(OUTPUT_FLAGS))
def test_outputs_are_refused_before_the_input_is_read(small_tsv, tmp_path, capsys, monkeypatch,
                                                      matrix_never_read, command, given, reason):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "p.csv").write_text("gene_id,cluster\nga,0\ngb,0\ngc,1\ngd,1\n", encoding="utf-8")
    (tmp_path / "c.csv").write_text("s1,s2,s3\n0,1,2\n10,11,12\n", encoding="utf-8")
    (tmp_path / "d").mkdir()
    flags, suffix = OUTPUT_FLAGS[command]
    given = os.path.join(tmp_path, given)
    code = main([command, str(small_tsv), *flags, given])
    assert code == 2
    named = given if reason == "Is a directory" else given + suffix
    assert capsys.readouterr().err == f"error: cannot write {named}: {reason}\n"
    assert sorted(os.listdir(tmp_path)) == ["c.csv", "d", "expr.tsv", "p.csv"]


# each subcommand's flags, naming the output prefix or file "out", and the
# output that is made a FIFO
FIFO_OUTPUTS = {
    "validate": (["--partition", "p.csv", "--centroids", "c.csv", "-o", "out"], "out"),
    "heatmap": (["-o", "out"], "out"),
    "normalize": (["--method", "zscore", "-o", "out"], "out"),
    "normalize-companion": (["--method", "zscore", "-o", "out"], "out.npy"),
    "cluster-meta": (["--alg", "kmeans", "--k", "2", "--out", "out"], "out.meta.json"),
}


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs")
@pytest.mark.parametrize("link", [False, True], ids=["fifo", "symlink-to-fifo"])
@pytest.mark.parametrize("case", list(FIFO_OUTPUTS))
def test_an_output_that_is_not_a_regular_file_is_refused(small_tsv, tmp_path, capsys, monkeypatch,
                                                         matrix_never_read, case, link):
    # the rename into place would replace the FIFO with a regular file
    monkeypatch.chdir(tmp_path)
    flags, name = FIFO_OUTPUTS[case]
    fifo = tmp_path / ("fifo" if link else name)
    os.mkfifo(fifo)
    if link:
        (tmp_path / name).symlink_to(fifo)
    before = sorted(os.listdir(tmp_path))
    code = main([case.split("-")[0], str(small_tsv), *flags])
    assert code == 2
    assert capsys.readouterr().err == f"error: cannot write {name}: not a regular file\n"
    assert sorted(os.listdir(tmp_path)) == before
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)


@pytest.mark.parametrize("target", ["regular", "dangling"])
def test_a_symlink_output_to_a_regular_file_or_to_nothing_is_replaced(small_tsv, tmp_path, target):
    dest, link = tmp_path / "dest.tsv", tmp_path / "out.tsv"
    if target == "regular":
        dest.write_text("old", encoding="utf-8")
    link.symlink_to(dest)
    assert main(["normalize", str(small_tsv), "--method", "zscore", "-o", str(link)]) == 0
    assert link.is_file() and not link.is_symlink()
    assert (dest.read_text(encoding="utf-8") == "old") if target == "regular" else not dest.exists()


@pytest.mark.parametrize("command", list(OUTPUT_FLAGS))
def test_default_output_beside_a_missing_input_reports_the_input(tmp_path, capsys, command):
    missing = tmp_path / "nodir" / "x.tsv"
    flags, _ = OUTPUT_FLAGS[command]
    code = main([command, str(missing), *flags[:-1]])
    assert code == 2
    assert capsys.readouterr().err == f"error: cannot read {missing}: No such file or directory\n"


@pytest.mark.parametrize("content, reason", [
    (None, "No such file or directory"),
    (b"\xff\n", "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
], ids=["missing", "not-utf8"])
@pytest.mark.parametrize("role", ["matrix", "config", "partition", "centroids"])
def test_unreadable_input_names_its_path(four_tsv, tmp_path, capsys, role, content, reason):
    bad = tmp_path / "bad.txt"
    if content is not None:
        bad.write_bytes(content)
    part = tmp_path / "p.csv"
    part.write_text("gene_id,cluster\nga,0\ngb,0\ngc,1\ngd,1\n", encoding="utf-8")
    argv = {
        "matrix": ["cluster", str(bad), "--alg", "kmeans", "--k", "2"],
        "config": ["grid", str(four_tsv), "--config", str(bad)],
        "partition": ["validate", str(four_tsv), "--partition", str(bad),
                      "--centroids", str(tmp_path / "c.csv")],
        "centroids": ["validate", str(four_tsv), "--partition", str(part),
                      "--centroids", str(bad)],
    }[role]
    code = main(argv)
    assert code == 2
    assert capsys.readouterr().err == f"error: cannot read {bad}: {reason}\n"


def test_cluster_temp_name_taken_by_a_directory(four_tsv, tmp_path, capsys):
    taken = tmp_path / f"x.centroids.csv.tmp{os.getpid()}"
    taken.mkdir()
    out = tmp_path / "x"
    code = main(["cluster", str(four_tsv), "--alg", "kmeans", "--k", "2", "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == f"error: cannot write {out}.centroids.csv: Is a directory\n"
    assert not (tmp_path / "x.partition.csv").exists()
    assert not (tmp_path / f"x.partition.csv.tmp{os.getpid()}").exists()
    assert taken.is_dir()


def test_cluster_disk_full_leaves_nothing(four_tsv, tmp_path, capsys, monkeypatch):
    def half_write(meta, dest):
        with open(dest, "w", encoding="utf-8") as handle:
            handle.write("{")
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr("pfclust.serialize.write_metadata_json", half_write)
    out = tmp_path / "x"
    code = main(["cluster", str(four_tsv), "--alg", "kmeans", "--k", "2", "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: cannot write {out}.meta.json: No space left on device\n"
    )
    assert not list(tmp_path.glob("x.*"))
    assert not list(tmp_path.glob("*.tmp*"))


@pytest.mark.parametrize("alg", ["kmeans", "rough-kmeans", "fcm", "pfcm"])
def test_cluster_k_above_n_genes_fails_cleanly(four_tsv, tmp_path, capsys, alg):
    code = main(["cluster", str(four_tsv), "--alg", alg, "--k", "9"])
    assert code == 1
    # one wording for all four algorithms
    assert capsys.readouterr().err == "error: k must be in [1, 4], got 9\n"
    assert not list(tmp_path.glob("four.*.*"))
    assert not list(tmp_path.glob("*.tmp*"))


def test_grid_rows_word_a_k_above_the_genes_alike(tmp_path):
    # z-scoring drops the two constant genes, so k 3 meets two rows
    p = tmp_path / "flat.tsv"
    p.write_text("s1\ts2\nga\t0.0\t1.0\ngb\t1.0\t0.0\ngc\t2.0\t2.0\ngd\t3.0\t3.0\n")
    assert main(["grid", str(p), "--sizes", "4", "--ks", "3", "--normalization", "zscore",
                 "--out", str(tmp_path / "g")]) == 0
    rows = json.loads((tmp_path / "g.report.json").read_text())["rows"]
    assert [r["algorithm"] for r in rows] == ["kmeans", "rough_kmeans", "fcm", "pfcm"]
    assert {r["error"] for r in rows} == {"ValueError: k must be in [1, 2], got 3"}
    assert all((r["iterations"], r["stop_reason"], r["converged"], r["trace"], r["delta"])
               == (None, None, None, [], []) for r in rows)


def test_cluster_pfcm_meta_has_alpha(four_tsv, tmp_path):
    code = main(["cluster", str(four_tsv), "--alg", "pfcm", "--k", "2", "--seed", "3"])
    assert code == 0
    meta = json.loads((tmp_path / "four.meta.json").read_text())
    assert meta["algorithm"] == "pfcm"
    assert len(meta["alpha"]) == 2
    assert sum(meta["alpha"]) == pytest.approx(1.0, abs=1e-9)
    trace = meta["trace"]
    assert all(b <= a + 1e-9 for a, b in zip(trace, trace[1:]))
    pf = read_partition_csv(tmp_path / "four.partition.csv")
    assert pf.kind == "fuzzy"


def test_meta_json_and_the_report_json_row_write_one_record(bundled_tsv, tmp_path):
    # at a size equal to the gene count the grid's subset is the whole matrix,
    # so each grid row is the run that cluster makes with the same flags
    assert main(["grid", str(bundled_tsv), "--sizes", "100", "--ks", "3", "--seeds", "2",
                 "--normalization", "z-score", "--out", str(tmp_path / "g")]) == 0
    rows = json.loads((tmp_path / "g.report.json").read_text())["rows"]
    assert [r["algorithm"] for r in rows] == ["kmeans", "rough_kmeans", "fcm", "pfcm"]
    for row in rows:
        alg = row["algorithm"]
        out = tmp_path / alg
        assert main(["cluster", str(bundled_tsv), "--alg", alg, "--k", "3", "--seed", "2",
                     "--normalize", "zscore", "--drop-degenerate", "--out", str(out)]) == 0
        meta = json.loads(Path(f"{out}.meta.json").read_text())
        assert ("alpha" in meta) == ("alpha" in row) == (alg == "pfcm")
        keys = ["iterations", "stop_reason", "converged", "trace", "delta"]
        keys += ["alpha"] * (alg == "pfcm")
        assert {key: meta[key] for key in keys} == {key: row[key] for key in keys}, alg
        assert len(meta["delta"]) == meta["iterations"], alg
        # kmeans traces each round's SSE, fcm and pfcm the start's J too, rough nothing
        if alg == "rough_kmeans":
            assert meta["trace"] == []
        else:
            assert len(meta["trace"]) == meta["iterations"] + (alg != "kmeans"), alg


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


def test_cluster_kmeans_cycle_is_named(tmp_path, capsys):
    # k 5 on 4 distinct rows: the empty-cluster repair alternates from round 1
    x = [-1.93746318743253, -1.1809254487794874, 2.139255412850659, 0.9365148280171314,
         -1.1809254487794874, 0.9365148280171314, 0.9365148280171314]
    p = tmp_path / "line.tsv"
    p.write_text("s1\n" + "".join(f"g{i}\t{v!r}\n" for i, v in enumerate(x)))
    assert main(["cluster", str(p), "--alg", "kmeans", "--k", "5", "--seed", "0"]) == 0
    assert capsys.readouterr().err.endswith(
        "warning: did not converge: the centroids cycle; stopped after 3 iterations\n")
    meta = json.loads((tmp_path / "line.meta.json").read_text())
    assert (meta["stop_reason"], meta["iterations"], meta["converged"]) == ("cycle", 3, False)
    assert len(meta["delta"]) == len(meta["trace"]) == 3


def test_cluster_rough_cycle_stops_with_the_max_iter_state(bundled_tsv, tmp_path, capsys):
    # the centroids of this run alternate with period 2, so every even
    # cap, the default 300 included, ends on the state of round 6
    args = ["cluster", str(bundled_tsv), "--alg", "rough-kmeans", "--k", "5", "--seed", "27",
            "--normalize", "zscore"]
    assert main(args) == 0
    err = capsys.readouterr().err
    assert "did not converge: the centroids cycle; stopped after 6 iterations" in err
    meta = json.loads((tmp_path / "synth.meta.json").read_text())
    assert (meta["stop_reason"], meta["iterations"], meta["converged"]) == ("cycle", 6, False)

    assert main(args + ["--max-iter", "6", "--out", str(tmp_path / "cap")]) == 0
    assert "did not converge within 6 iterations" in capsys.readouterr().err
    meta = json.loads((tmp_path / "cap.meta.json").read_text())
    assert (meta["stop_reason"], meta["iterations"], meta["converged"]) == ("max_iter", 6, False)
    for suffix in (".partition.csv", ".centroids.csv"):
        assert (tmp_path / f"synth{suffix}").read_bytes() == (tmp_path / f"cap{suffix}").read_bytes()


def test_cluster_zero_membership_mass_is_numerical_failure(bundled_tsv, capsys):
    # u**m underflows to zero mass at this fuzzifier
    code = main(["cluster", str(bundled_tsv), "--alg", "pfcm", "--k", "3", "--m", "2000"])
    assert code == 3
    assert "zero total mass" in capsys.readouterr().err


@pytest.mark.parametrize("alg", ["kmeans", "rough-kmeans", "fcm", "pfcm"])
def test_cluster_overflowing_distances_are_numerical_failure(tmp_path, capsys, alg):
    # every squared distance between rows of this matrix overflows
    inp = tmp_path / "big.tsv"
    inp.write_text("s1\ts2\ng1\t1e154\t-1e154\ng2\t-1e154\t1e154\n"
                   "g3\t1e154\t1e154\ng4\t-1e154\t-1e154\n", encoding="utf-8")
    code = main(["cluster", str(inp), "--alg", alg, "--k", "2"])
    assert code == 3
    assert "non-finite" in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == ["big.tsv"]


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


def test_validate_unknown_algorithm_is_found_before_any_input_is_read(small_tsv, tmp_path, capsys,
                                                                     matrix_never_read):
    # neither file exists, so reading either would exit 2
    code = main(["validate", str(small_tsv), "--partition", str(tmp_path / "p.csv"),
                 "--centroids", str(tmp_path / "c.csv"), "--algorithm", "bogus"])
    assert code == 1
    assert capsys.readouterr().err == (
        "error: unknown algorithm 'bogus'; expected one of kmeans, rough-kmeans, fcm, pfcm\n"
    )


@pytest.mark.parametrize("k", [1, 3, 9, 12])
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


def test_validate_m_one_scores_a_rough_run_as_the_grid_does(bundled_tsv, tmp_path, capsys):
    # the grid scores rough runs with m = 1, and so does validate without
    # --m; at m = 2 the boundary genes' split memberships weigh less, so
    # rmse differs
    prefix = tmp_path / "r"
    run = ["--k", "5", "--seed", "0"]
    assert main(["cluster", str(bundled_tsv), "--alg", "rough-kmeans", *run,
                 "--out", str(prefix)]) == 0
    assert main(["grid", str(bundled_tsv), "--sizes", "100", "--ks", "5", "--seeds", "0",
                 "--algorithms", "rough-kmeans", "--normalization", "none",
                 "--out", str(tmp_path / "g")]) == 0
    row = json.loads((tmp_path / "g.report.json").read_text())["rows"][0]["validity"]
    capsys.readouterr()
    scores = {}
    for m in ("", "1", "2"):
        assert main(["validate", str(bundled_tsv), "--partition", f"{prefix}.partition.csv",
                     "--centroids", f"{prefix}.centroids.csv", *(["--m", m] if m else [])]) == 0
        scores[m] = json.loads(capsys.readouterr().out)
    assert scores[""] == scores["1"]
    assert scores[""]["m"] == 1.0
    assert {key: scores[""][key] for key in row} == row
    assert round(row["rmse"], 4) == 1.4515
    assert round(scores["2"]["rmse"], 4) == 1.0645


@pytest.mark.parametrize("alg, m", [("kmeans", 1.0), ("rough-kmeans", 1.0), ("fcm", 2.0)])
def test_validate_default_m_follows_the_partition_kind(bundled_tsv, tmp_path, capsys, alg, m):
    prefix = tmp_path / "p"
    assert main(["cluster", str(bundled_tsv), "--alg", alg, "--k", "3",
                 "--out", str(prefix)]) == 0
    capsys.readouterr()
    files = ["--partition", f"{prefix}.partition.csv", "--centroids", f"{prefix}.centroids.csv"]
    assert main(["validate", str(bundled_tsv), *files]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["m"] == m
    # an explicit --m still wins
    assert main(["validate", str(bundled_tsv), *files, "--m", "3"]) == 0
    assert json.loads(capsys.readouterr().out)["m"] == 3.0


def test_validate_gene_id_mismatch(four_tsv, tmp_path, capsys):
    part = tmp_path / "p.csv"
    cent = tmp_path / "c.csv"
    part.write_text("gene_id,cluster\nother,0\n", encoding="utf-8")
    cent.write_text("s1\n0.5\n", encoding="utf-8")
    code = main(["validate", str(four_tsv), "--partition", str(part),
                 "--centroids", str(cent)])
    assert code == 2
    assert "gene ids do not match" in capsys.readouterr().err


_HARD_HEAD = "gene_id,cluster\nga,0\ngb,0\ngc,1\n"


@pytest.mark.parametrize("command", ["validate", "heatmap"])
@pytest.mark.parametrize("partition, message", [
    (_HARD_HEAD + "zz,1\n", "partition gene ids do not match the matrix (4 vs 4 genes)"),
    (_HARD_HEAD + "gd,1\nge,1\n", "partition gene ids do not match the matrix (5 vs 4 genes)"),
    # as many rows as the matrix has genes, but three genes
    ("gene_id,cluster,membership_kind\nga,0,lower\ngb,0,lower\ngc,0,boundary\ngc,1,boundary\n",
     "partition gene ids do not match the matrix (3 vs 4 genes)"),
    (_HARD_HEAD + "gd,99999999999999999999\n",
     "gene 'gd': cluster index 99999999999999999999 is not below the gene count 4"),
    (_HARD_HEAD + f"gd,{2**62}\n", f"gene 'gd': cluster index {2**62} is not below the gene count 4"),
    (_HARD_HEAD + "gd,1.0\n", "gene 'gd': cluster index must be an integer, got '1.0'"),
], ids=["one-gene-differs", "one-gene-more", "rough-rows-match", "past-int64", "2**62", "float"])
def test_bad_partition_file_is_data_error(four_tsv, tmp_path, capsys, command, partition,
                                          message):
    part = tmp_path / "p.csv"
    cent = tmp_path / "c.csv"
    part.write_text(partition, encoding="utf-8")
    cent.write_text("s1\n0.5\n10.5\n", encoding="utf-8")
    more = ["--centroids", str(cent)] if command == "validate" else ["-o", str(tmp_path / "h.ppm")]
    code = main([command, str(four_tsv), "--partition", str(part), *more])
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "h.ppm").exists()


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


@pytest.mark.parametrize("cell", ["nan", "inf"])
def test_validate_non_finite_centroid_is_data_error(four_tsv, tmp_path, capsys, cell):
    part = tmp_path / "p.csv"
    cent = tmp_path / "c.csv"
    part.write_text("gene_id,cluster\nga,0\ngb,0\ngc,1\ngd,1\n", encoding="utf-8")
    cent.write_text(f"s1\n0.5\n{cell}\n", encoding="utf-8")
    code = main(["validate", str(four_tsv), "--partition", str(part),
                 "--centroids", str(cent)])
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: non-finite value '{cell}' for centroid 1, sample 's1'\n"
    )


@pytest.mark.parametrize("value", ["0.5", "nan"])
def test_validate_m_below_one_or_nan_is_usage_error(four_tsv, tmp_path, capsys, value):
    part = tmp_path / "p.csv"
    cent = tmp_path / "c.csv"
    part.write_text("gene_id,cluster\nga,0\ngb,0\ngc,1\ngd,1\n", encoding="utf-8")
    cent.write_text("s1\n0.5\n10.5\n", encoding="utf-8")
    code = main(["validate", str(four_tsv), "--partition", str(part),
                 "--centroids", str(cent), "--m", value])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --m must be 1 or greater, got {float(value)}\n"


@pytest.mark.parametrize("command, flags, message", [
    ("cluster", ["--alg", "kmeans", "--k", "0"], "--k must be >= 1, got 0"),
    ("cluster", ["--alg", "kmeans", "--k", "2", "--seed", "-1"], "--seed must be >= 0, got -1"),
    ("grid", ["--preset", "--workers", "0"], "--workers must be >= 1, got 0"),
    ("heatmap", ["--scale", "0"], "--scale must be >= 1, got 0"),
], ids=["k", "seed", "workers", "scale"])
def test_count_flags_are_checked_before_the_input_is_read(small_tsv, tmp_path, capsys,
                                                          matrix_never_read,
                                                          command, flags, message):
    code = main([command, str(small_tsv), *flags])
    assert code == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert sorted(os.listdir(tmp_path)) == ["expr.tsv"]


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


def test_grid_summary_of_infinite_scores(bundled_tsv, tmp_path):
    # one of this cell's two runs has coincident centroids, so Xie-Beni inf
    assert main(["grid", str(bundled_tsv), "--preset", "--seeds", "0,1", "--workers", "2"]) == 0
    header, *lines = (tmp_path / "synth.summary.csv").read_text().splitlines()
    assert "nan" not in ",".join(lines)
    rows = {tuple(line.split(",")[:3]): dict(zip(header.split(","), line.split(",")))
            for line in lines}
    got = rows[("14", "7", "rough_kmeans")]
    assert (got["xie_beni_mean"], got["xie_beni_sd"]) == ("inf", "inf")
    assert float(got["xie_beni_best"]) < math.inf


@pytest.mark.skipif(not pfclust._util._SPREADS, reason="cannot fork or move to a CPU")
def test_grid_whose_worker_dies_exits_0_with_the_one_worker_reports(
    bundled_tsv, tmp_path, monkeypatch
):
    args = ["grid", str(bundled_tsv), "--preset", "--seeds", "0,1"]
    assert main(args + ["--out", str(tmp_path / "one")]) == 0
    parent = os.getpid()
    run = pfclust.harness.run_algorithm

    def dying(name, *args, **kwargs):
        if os.getpid() != parent:
            os._exit(1)
        return run(name, *args, **kwargs)

    monkeypatch.setattr(pfclust._util, "usable_cpus", lambda: 2)
    monkeypatch.setattr(pfclust.harness, "run_algorithm", dying)
    with within(60):
        assert main(args + ["--workers", "2", "--out", str(tmp_path / "dead")]) == 0
    for suffix in (".report.csv", ".report.json", ".summary.csv"):
        assert (tmp_path / f"dead{suffix}").read_bytes() == (tmp_path / f"one{suffix}").read_bytes()


def test_grid_row_reports_a_cycle(bundled_tsv, tmp_path):
    cfg = tmp_path / "grid.json"
    cfg.write_text(json.dumps({
        "pairs": [[100, 5], [100, 3]], "algorithms": ["rough_kmeans"], "seeds": [27],
    }), encoding="utf-8")
    assert main(["grid", str(bundled_tsv), "--config", str(cfg), "--out", str(tmp_path / "g")]) == 0
    rows = json.loads((tmp_path / "g.report.json").read_text())["rows"]
    got = [(r["k"], r["iterations"], r["converged"], r["stop_reason"]) for r in rows]
    assert got[1] == (5, 6, False, "cycle")
    assert got[0][2:] == (True, "tolerance")
    report = (tmp_path / "g.report.csv").read_text().splitlines()
    col = report[0].split(",").index("converged")
    assert [line.split(",")[col] for line in report[1:]] == ["true", "false"]


def test_grid_config_conflicts_with_flags(bundled_tsv, tmp_path, capsys):
    cfg = tmp_path / "grid.json"
    cfg.write_text("{}", encoding="utf-8")
    code = main(["grid", str(bundled_tsv), "--config", str(cfg), "--preset"])
    assert code == 1


CONFIG_CONFLICT = "--config cannot be combined with --sizes/--ks/--preset"
PRESET_CONFLICT = "--preset cannot be combined with --sizes/--ks"
NO_CELLS = "provide --sizes and --ks, or --preset, or --config"


@pytest.mark.parametrize("flags, message", [
    (["--config", "grid.json", "--preset"], CONFIG_CONFLICT),
    (["--config", "grid.json", "--sizes", "2"], CONFIG_CONFLICT),
    (["--config", "grid.json", "--ks", "2"], CONFIG_CONFLICT),
    (["--config", "bad.json"], "unknown grid config key(s): cells; expected algorithms, ks, "
                               "normalization, overrides, pairs, seeds, subset_policy, subset_sizes"),
    (["--config", "grid.json", "--algorithms", "kmeans"],
     "--config cannot be combined with --algorithms"),
    (["--config", "grid.json", "--normalization", "none"],
     "--config cannot be combined with --normalization"),
    (["--config", "grid.json", "--policy", "first_n"],
     "--config cannot be combined with --policy"),
    (["--config", "grid.json", "--seeds", "5"], "--config cannot be combined with --seeds"),
    (["--config", "grid.json", "--seeds", "5", "--algorithms", "kmeans"],
     "--config cannot be combined with --algorithms/--seeds"),
    (["--config", "grid.json", "--algorithms", "kmeans", "--seeds", "5", "--policy", "first_n",
      "--normalization", "none"],
     "--config cannot be combined with --algorithms/--normalization/--policy/--seeds"),
    (["--config", "grid.json", "--sizes", "2", "--seeds", "5"], CONFIG_CONFLICT),
    (["--preset", "--sizes", "2"], PRESET_CONFLICT),
    (["--preset", "--ks", "2"], PRESET_CONFLICT),
    (["--preset", "--seeds", "0,-1"], "seed must be >= 0, got -1"),
    (["--preset", "--algorithms", "kmeans,bogus"],
     "unknown algorithm 'bogus'; expected one of kmeans, rough-kmeans, fcm, pfcm"),
    (["--preset", "--normalization", "minmax"],
     "unknown normalization 'minmax'; expected one of none, mean-relative, z-score"),
    (["--preset", "--policy", "bogus"],
     "unknown subset policy 'bogus'; expected one of first-n, variance-top-n, seeded-random"),
    (["--sizes", "2"], NO_CELLS),
    ([], NO_CELLS),
], ids=["config-preset", "config-sizes", "config-ks", "config-key", "config-algorithms",
        "config-normalization", "config-policy", "config-seeds", "config-two-fields",
        "config-four-fields", "config-sizes-and-seeds", "preset-sizes",
        "preset-ks", "preset-seed", "preset-algorithm", "preset-normalization",
        "preset-policy", "sizes-only", "no-cells"])
def test_grid_flag_errors_are_found_before_the_input_is_read(small_tsv, tmp_path, capsys,
                                                            monkeypatch, matrix_never_read,
                                                            flags, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "grid.json").write_text("{}", encoding="utf-8")
    (tmp_path / "bad.json").write_text('{"cells": []}', encoding="utf-8")
    code = main(["grid", str(small_tsv), *flags])
    assert code == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert sorted(os.listdir(tmp_path)) == ["bad.json", "expr.tsv", "grid.json"]


@pytest.mark.parametrize("doc, message", [
    ({"pairs": [[40, 2.7]]}, "k must be an integer, got 2.7"),
    ({"subset_sizes": [40], "ks": [True]}, "k must be an integer, got True"),
    ({"pairs": [[40, 2]], "seeds": ["1"]}, "seed must be an integer, got '1'"),
    ({"pairs": []}, "provide subset_sizes and ks, or at least one pair"),
    ({"pairs": [[40, 2]], "ks": [3]}, "pairs cannot be combined with subset_sizes/ks"),
    ({"pairs": [[40, 2]], "algorithms": ["bogus"]},
     "unknown algorithm 'bogus'; expected one of kmeans, rough-kmeans, fcm, pfcm"),
    ({"pairs": [[40, 2]], "algorithms": "kmeans"}, "algorithms must be a list, got 'kmeans'"),
    ({"pairs": [[40, 2]], "seeds": 1}, "seeds must be a list, got 1"),
    ({"subset_sizes": 40, "ks": [3]}, "subset_sizes must be a list, got 40"),
    ({"pairs": [40, 3]}, "pairs must hold [size, k] pairs, got 40"),
    ({"pairs": [[40, 3, 1]]}, "pairs must hold [size, k] pairs, got [40, 3, 1]"),
    ({"pairs": [[40, 2]], "overrides": {"rough_kmeans": {}, "Rough-Kmeans": {"zeta": 1.5}}},
     "overrides name rough_kmeans twice"),
], ids=["fraction", "bool", "string", "no-pairs", "pairs-and-ks", "algorithm",
        "algorithms-string", "seeds-number", "sizes-number", "flat-pairs", "three-item-pair",
        "override-twice"])
def test_grid_config_spec_errors_name_the_config(small_tsv, tmp_path, capsys, matrix_never_read,
                                                 doc, message):
    cfg = tmp_path / "grid.json"
    cfg.write_text(json.dumps(doc), encoding="utf-8")
    code = main(["grid", str(small_tsv), "--config", str(cfg), "--out", str(tmp_path / "g")])
    assert code == 1
    assert capsys.readouterr().err == f"error: {cfg}: {message}\n"
    assert not list(tmp_path.glob("g.*"))


def test_grid_subset_failure_lands_in_every_row_of_its_cell(tmp_path, capsys):
    # the first six genes are constant, so the first_n cell of size 6 has
    # no gene left to z-score
    rng = np.random.default_rng(3)
    values = np.vstack([np.repeat(np.arange(6.0)[:, None], 4, axis=1),
                        rng.normal(size=(24, 4)).round(3)])
    ids = tuple(f"c{i}" for i in range(6)) + tuple(f"g{i}" for i in range(24))
    write_tsv(ExpressionMatrix(ids, ("s1", "s2", "s3", "s4"), values), tmp_path / "deg.tsv")
    reports = []
    for workers in ("1", "2"):
        code = main(["grid", str(tmp_path / "deg.tsv"), "--sizes", "6,20", "--ks", "2",
                     "--policy", "first_n", "--seeds", "0,1", "--workers", workers,
                     "--out", str(tmp_path / f"w{workers}")])
        assert code == 0
        assert capsys.readouterr().err == "warning: 8 of 16 runs failed; see the error column\n"
        reports.append([(tmp_path / f"w{workers}{suffix}").read_bytes()
                        for suffix in (".report.csv", ".report.json", ".summary.csv")])
    assert reports[0] == reports[1]
    rows = json.loads(reports[0][1])["rows"]
    assert [r["error"] for r in rows if r["size"] == 6] == [
        "DegenerateRowsError: cannot z_score-normalize genes with zero spread: "
        "c0, c1, c2, c3, c4, c5"
    ] * 8
    assert all(r["error"] is None for r in rows if r["size"] == 20)


@pytest.mark.parametrize("use_config", [False, True])
def test_grid_negative_seed_is_usage_error(bundled_tsv, tmp_path, capsys, use_config):
    if use_config:
        cfg = tmp_path / "grid.json"
        cfg.write_text('{"pairs": [[20, 2]], "seeds": [0, -1]}', encoding="utf-8")
        args = ["--config", str(cfg)]
    else:
        args = ["--sizes", "20", "--ks", "2", "--seeds", "0,-1"]
    code = main(["grid", str(bundled_tsv), *args])
    assert code == 1
    assert "seed must be >= 0, got -1" in capsys.readouterr().err
    assert not list(tmp_path.glob("synth.*.*"))


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


# field counts are checked before ids are taken: a one-field res row has no
# accession field and a short gct row no second value
@pytest.mark.parametrize("name, text, message", [
    ("one.res", "Description\tAccession\ta\t\tb\t\n\n2\nd\tg1\t1\tP\t2\tA\nonly\n",
     "line 5: expected 6 fields (description, accession and 2 value/call pairs), found 1"),
    ("short.gct", "#1.2\n2\t2\nName\tDescription\ta\tb\ng1\td\t1\t2\ng2\td\t3\n",
     "line 5: expected 4 fields (name, description, 2 values), found 3"),
], ids=["res", "gct"])
def test_short_data_row_names_its_field_count(tmp_path, capsys, name, text, message):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    assert main(["normalize", str(p), "--method", "zscore"]) == 2
    assert message in capsys.readouterr().err


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


# ---------------------------------------------------------------- companion

def _normalized(source, tmp_path, capsys):
    """normalize `source` into tmp_path/in/z.tsv; returns that path."""
    (tmp_path / "in").mkdir(exist_ok=True)
    path = tmp_path / "in" / "z.tsv"
    assert main(["normalize", str(source), "--method", "zscore", "-o", str(path)]) == 0
    capsys.readouterr()
    return path


def test_normalize_writes_its_tsv_and_the_companion(small_tsv, tmp_path, capsys):
    out = tmp_path / "z.tsv"
    assert main(["normalize", str(small_tsv), "--method", "zscore", "-o", str(out)]) == 0
    assert capsys.readouterr().out == f"wrote {out}\nwrote {out}.npy\n"
    assert sorted(os.listdir(tmp_path)) == ["expr.tsv", "z.tsv", "z.tsv.npy"]
    assert companion_path(out).read_bytes()[:32] == hashlib.sha256(out.read_bytes()).digest()


def test_a_matching_companion_replaces_the_text_parse(bundled_tsv, tmp_path, capsys,
                                                      monkeypatch):
    z = _normalized(bundled_tsv, tmp_path, capsys)

    def never(*args, **kwargs):
        raise AssertionError("the text was parsed")

    # the block path's conversion and the whole-text path
    monkeypatch.setattr("pfclust.io.np.loadtxt", never)
    monkeypatch.setattr("pfclust.io._parse_lines", never)
    o = tmp_path / "p"
    assert main(["cluster", str(z), "--alg", "kmeans", "--k", "3", "--out", str(o)]) == 0
    assert main(["validate", str(z), "--partition", f"{o}.partition.csv",
                 "--centroids", f"{o}.centroids.csv", "-o", str(tmp_path / "v.json")]) == 0
    assert main(["heatmap", str(z), "--partition", f"{o}.partition.csv",
                 "-o", str(tmp_path / "h.ppm")]) == 0
    assert main(["grid", str(z), "--sizes", "40", "--ks", "3", "--out", str(tmp_path / "g")]) == 0


def _pipeline_outputs(z, out):
    """Run cluster, validate and heatmap on z with outputs under out; their bytes."""
    p = out / "p"
    assert main(["cluster", str(z), "--alg", "pfcm", "--k", "3", "--out", str(p)]) == 0
    assert main(["validate", str(z), "--partition", f"{p}.partition.csv",
                 "--centroids", f"{p}.centroids.csv", "-o", str(out / "v.json")]) == 0
    assert main(["heatmap", str(z), "--partition", f"{p}.partition.csv",
                 "-o", str(out / "h.ppm")]) == 0
    return {name: (out / name).read_bytes() for name in sorted(os.listdir(out))}


def test_outputs_are_the_same_with_the_companion_present_deleted_or_stale(bundled_tsv,
                                                                           tmp_path, capsys):
    z = _normalized(bundled_tsv, tmp_path, capsys)
    (tmp_path / "out").mkdir()
    present = _pipeline_outputs(z, tmp_path / "out")
    assert len(present) == 5
    companion = companion_path(z).read_bytes()
    companion_path(z).unlink()
    assert _pipeline_outputs(z, tmp_path / "out") == present
    # CRLF line ends: the same matrix, other bytes, so the companion is stale
    companion_path(z).write_bytes(companion)
    z.write_bytes(z.read_bytes().replace(b"\n", b"\r\n"))
    assert _pipeline_outputs(z, tmp_path / "out") == present


def _first_value(text, cell):
    """text with the first value of its first data row replaced by cell."""
    header, first, rest = text.split("\n", 2)
    gene, _, values = first.split("\t", 2)
    return "\n".join([header, "\t".join([gene, cell, values]), rest])


# each edit of a normalized tsv file after its companion was written, and
# the exit code of a cluster run on the edited file
_STALE_EDITS = {
    "edited-value": (lambda text: _first_value(text, "0.25"), 0),
    "appended-row": (lambda text: text + "gx" + "\t0.5" * 10 + "\n", 0),
    "bad-cell": (lambda text: _first_value(text, "x"), 2),
    "appended-newline": (lambda text: text + "\n", 0),
    "short-row": (lambda text: text + "gx\t0.5\n", 2),
}


@pytest.mark.parametrize("edit, code", list(_STALE_EDITS.values()), ids=list(_STALE_EDITS))
def test_a_stale_companion_gives_the_text_result_or_message(bundled_tsv, tmp_path, capsys,
                                                            edit, code):
    z = _normalized(bundled_tsv, tmp_path, capsys)
    z.write_text(edit(z.read_text(encoding="utf-8")), encoding="utf-8")
    p = tmp_path / "p"

    def run():
        result = main(["cluster", str(z), "--alg", "kmeans", "--k", "3", "--out", str(p)])
        outputs = [Path(f"{p}{s}") for s in (".partition.csv", ".centroids.csv", ".meta.json")]
        written = [o.read_bytes() for o in outputs if o.exists()]
        for o in outputs:
            o.unlink(missing_ok=True)
        return result, capsys.readouterr().err, written

    stale = run()
    companion_path(z).unlink()
    assert stale == run()
    assert stale[0] == code


@pytest.mark.parametrize("content, reason", [
    (None, "No such file or directory"),
    (b"\xff\n", "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
], ids=["missing", "not-utf8"])
def test_an_unreadable_tsv_beside_a_companion_cannot_be_read(bundled_tsv, tmp_path, capsys,
                                                             content, reason):
    z = _normalized(bundled_tsv, tmp_path, capsys)
    z.unlink()
    if content is not None:
        z.write_bytes(content)
    code = main(["cluster", str(z), "--alg", "kmeans", "--k", "3", "--out", str(tmp_path / "p")])
    assert code == 2
    assert capsys.readouterr().err == f"error: cannot read {z}: {reason}\n"


def test_a_failed_normalize_leaves_neither_file(tmp_path, capsys, monkeypatch):
    p = tmp_path / "flat.tsv"
    p.write_text("s1\ts2\nok\t1.0\t2.0\nflat\t3.0\t3.0\n", encoding="utf-8")
    assert main(["normalize", str(p), "--method", "zscore", "-o", str(tmp_path / "z.tsv")]) == 2
    assert sorted(os.listdir(tmp_path)) == ["flat.tsv"]

    def half_write(values, tsv, dest):
        with open(dest, "wb") as handle:
            handle.write(b"\x93NUMPY")
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr("pfclust.cli.write_companion", half_write)
    argv = ["normalize", str(p), "--method", "zscore", "--drop-degenerate",
            "-o", str(tmp_path / "z.tsv")]
    assert main(argv) == 2
    assert capsys.readouterr().err.endswith(
        f"error: cannot write {tmp_path / 'z.tsv.npy'}: No space left on device\n")
    assert sorted(os.listdir(tmp_path)) == ["flat.tsv"]


def test_readers_write_nothing_beside_their_input(bundled_tsv, tmp_path, capsys):
    z = _normalized(bundled_tsv, tmp_path, capsys)
    raw = tmp_path / "raw"
    raw.mkdir()
    shutil.copy(bundled_tsv, raw / "x.tsv")
    out = tmp_path / "out"
    out.mkdir()
    before = {d: sorted(os.listdir(d)) for d in (z.parent, raw)}
    for source in (z, raw / "x.tsv"):
        p = out / "p"
        assert main(["cluster", str(source), "--alg", "kmeans", "--k", "3", "--out", str(p)]) == 0
        assert main(["validate", str(source), "--partition", f"{p}.partition.csv",
                     "--centroids", f"{p}.centroids.csv", "-o", str(out / "v.json")]) == 0
        assert main(["heatmap", str(source), "-o", str(out / "h.ppm")]) == 0
        assert main(["grid", str(source), "--sizes", "40", "--ks", "3",
                     "--out", str(out / "g")]) == 0
    assert {d: sorted(os.listdir(d)) for d in (z.parent, raw)} == before
    assert before[z.parent] == ["z.tsv", "z.tsv.npy"]


def test_a_cluster_index_near_the_gene_count_builds_no_gene_by_gene_array(tmp_path, capsys):
    n = 2000
    matrix = tmp_path / "m.tsv"
    matrix.write_text("s1\ts2\n" + "".join(f"g{i}\t{i}\t{-i}\n" for i in range(n)),
                      encoding="utf-8")
    part = tmp_path / "p.csv"
    part.write_text("gene_id,cluster\n" + "".join(f"g{i},{i % 2}\n" for i in range(n - 1))
                    + f"g{n - 1},{n - 1}\n", encoding="utf-8")
    cent = tmp_path / "c.csv"
    cent.write_text("s1,s2\n0,0\n1,1\n", encoding="utf-8")
    calls = [
        (lambda: read_partition_csv(part), None),
        (lambda: main(["validate", str(matrix), "--partition", str(part), "--centroids",
                       str(cent)]), 2),
        (lambda: main(["heatmap", str(matrix), "--partition", str(part),
                       "-o", str(tmp_path / "h.ppm")]), 0),
    ]
    for call, code in calls:
        tracemalloc.start()
        try:
            result = call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # an n x n float64 array alone would be 30.5 MiB
        assert peak < 4 * 2**20
        assert code is None or result == code
    assert capsys.readouterr().err == (
        f"error: partition references cluster {n - 1} but only 2 centroids given\n")
