"""What a fresh interpreter loads: per CLI subcommand, and through the package's lazy names."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import pfclust

SRC = Path(pfclust.__file__).resolve().parent.parent

# every process loads these: the package, the CLI and what its parser and
# all subcommands share
BASE = {"pfclust", "pfclust._util", "pfclust.cli", "pfclust.heatmap", "pfclust.io",
        "pfclust.kmeans", "pfclust.matrix", "pfclust.normalize"}
# and cluster adds these
CLUSTER_MODULES = {"pfclust.fuzzy", "pfclust.harness", "pfclust.rough", "pfclust.serialize",
                   "pfclust.validity"}


def _fresh(code: str, *args: str, cwd=None) -> str:
    """Run `code` in a new interpreter on this checkout; its stdout."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-c", textwrap.dedent(code), *args], cwd=cwd,
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


# loads `python -m pfclust`'s modules and runs main() on ARGS, then prints
# its exit code and the pfclust and process pool modules it loaded, as the
# last line; its run_name keeps entry(), which ends the process, from running
_LOADED = """
    import json, runpy, sys
    sys.argv = ["pfclust", *sys.argv[1:]]
    runpy.run_module("pfclust", run_name="pfclust.__main__")
    try:
        code = sys.modules["pfclust.cli"].main()
    except SystemExit as exc:
        code = exc.code
    names = [m for m in sys.modules
             if m.startswith("pfclust") or m in ("concurrent.futures", "multiprocessing")]
    print(json.dumps([code, sorted(names)]))
"""


def _loaded(*args: str, cwd) -> set[str]:
    code, names = json.loads(_fresh(_LOADED, *args, cwd=cwd).splitlines()[-1])
    assert code == 0
    return set(names)


@pytest.fixture(scope="module")
def clustered(tmp_path_factory):
    """The directory of the bundled matrix and a kmeans run's outputs, and the
    modules that run loaded."""
    out = tmp_path_factory.mktemp("loaded")
    data = Path(__file__).parent / "data" / "synthetic_100x10.tsv"
    (out / "m.tsv").write_bytes(data.read_bytes())
    return out, _loaded("cluster", "m.tsv", "--alg", "kmeans", "--k", "3", "--out", "p", cwd=out)


def test_cluster_loads_every_module_but_no_thread_pool(clustered):
    assert clustered[1] == BASE | CLUSTER_MODULES


@pytest.mark.parametrize("args, loads", [
    (["--version"], set()),
    (["normalize", "m.tsv", "--method", "zscore", "-o", "z.tsv"], set()),
    (["validate", "m.tsv", "--partition", "p.partition.csv", "--centroids", "p.centroids.csv"],
     {"pfclust.serialize", "pfclust.validity"}),
    (["heatmap", "m.tsv", "--partition", "p.partition.csv"], {"pfclust.serialize"}),
    (["grid", "m.tsv", "--sizes", "40", "--ks", "3", "--algorithms", "kmeans"],
     CLUSTER_MODULES),
    # two groups on two workers: forked by os.fork, with no process pool module
    (["grid", "m.tsv", "--sizes", "40", "--ks", "3", "--algorithms", "kmeans,fcm",
      "--workers", "2"], CLUSTER_MODULES),
], ids=["version", "normalize", "validate", "heatmap", "grid", "grid-workers"])
def test_each_subcommand_loads_only_the_modules_it_runs(clustered, args, loads):
    assert _loaded(*args, cwd=clustered[0]) == BASE | loads


def test_every_export_is_its_home_modules_object():
    _fresh("""
        from importlib import import_module
        import pfclust
        assert "pfclust.harness" not in __import__("sys").modules
        for name in pfclust.__all__[1:]:
            home = import_module(f"pfclust.{pfclust._HOME[name]}")
            value = getattr(pfclust, name)
            assert value is getattr(home, name), name
            assert getattr(value, "__module__", home.__name__) == home.__name__, name
        assert pfclust.__version__ == "0.1.0"
        try:
            pfclust.no_such_name
        except AttributeError as exc:
            assert "no_such_name" in str(exc)
        else:
            raise AssertionError("pfclust.no_such_name did not raise")
    """)


def test_dir_and_star_import_cover_every_export():
    _fresh("""
        import pfclust
        assert set(pfclust.__all__) <= set(dir(pfclust))
        namespace = {}
        exec("from pfclust import *", namespace)
        assert set(pfclust.__all__) <= set(namespace)
        assert namespace["run_grid"] is pfclust.harness.run_grid
    """)


@pytest.mark.parametrize("first", ["pfclust.harness", "pfclust.kmeans", "pfclust.normalize"])
def test_kmeans_and_normalize_stay_functions_whatever_loads_first(first):
    _fresh(f"""
        import {first}
        import pfclust
        from pfclust import kmeans, normalize
        assert pfclust.kmeans is kmeans is pfclust.kmeans.__globals__["kmeans"]
        assert pfclust.normalize is normalize is pfclust.normalize.__globals__["normalize"]
        assert callable(kmeans) and callable(normalize)
    """)
