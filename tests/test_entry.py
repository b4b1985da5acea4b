"""How a CLI process ends: `entry()` leaves by os._exit once main() has
returned and stdout and stderr are flushed, by sys.exit, with the
interpreter's teardown, while another thread or a child process runs or a
tracer or profiler is set, and with exit 2 when stdout cannot be flushed."""

import json
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import pfclust
from pfclust.cli import _build_parser

SRC = Path(pfclust.__file__).resolve().parent.parent
DATA = Path(__file__).parent / "data" / "synthetic_100x10.tsv"


def _run(*args: str, code: str = "", cwd=None, stdout=subprocess.PIPE, options=()):
    """`python -m pfclust ARGS`, or `python -c CODE ARGS`, in a new interpreter
    whose stdout is buffered unless `options` holds -u."""
    env = {**os.environ, "PYTHONPATH": str(SRC), "COLUMNS": "80"}
    env.pop("PYTHONUNBUFFERED", None)
    head = ["-c", textwrap.dedent(code)] if code else ["-m", "pfclust"]
    return subprocess.run([sys.executable, *options, *head, *args], cwd=cwd, env=env,
                          stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=120)


# runs `pfclust --version` through entry() after registering an atexit hook,
# and with argv[1] "thread", "child" or "trace" while a thread or a forked
# child process still runs, or with a trace function set
_WRAPPER = """
    import atexit, multiprocessing, sys, threading, time
    from pfclust.cli import entry
    atexit.register(print, "atexit ran")
    if sys.argv[1:] == ["thread"]:
        def late():
            time.sleep(0.3)
            print("thread ran", flush=True)
        threading.Thread(target=late).start()
    elif sys.argv[1:] == ["child"]:
        multiprocessing.get_context("fork").Process(target=time.sleep, args=(0.3,)).start()
    elif sys.argv[1:] == ["trace"]:
        sys.settrace(lambda *frame: None)
    sys.argv = ["pfclust", "--version"]
    entry()
"""


def test_a_finished_process_skips_the_interpreter_teardown():
    done = _run(code=_WRAPPER)
    assert (done.returncode, done.stdout, done.stderr) == (0, "pfclust 0.1.0\n", "")


def test_a_live_thread_gets_the_interpreter_teardown():
    done = _run("thread", code=_WRAPPER)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert sorted(lines[:2]) == ["pfclust 0.1.0", "thread ran"]
    assert lines[2:] == ["atexit ran"]


@pytest.mark.skipif(sys.platform != "linux", reason="forks a child")
def test_a_live_child_process_gets_the_interpreter_teardown():
    done = _run("child", code=_WRAPPER)
    assert (done.returncode, done.stdout) == (0, "pfclust 0.1.0\natexit ran\n"), done.stderr


def test_a_traced_process_gets_the_interpreter_teardown():
    # coverage, for one, saves its data from an atexit hook
    done = _run("trace", code=_WRAPPER)
    assert (done.returncode, done.stdout) == (0, "pfclust 0.1.0\natexit ran\n"), done.stderr


def test_help_exits_0_with_the_full_text(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    done = _run("--help")
    assert (done.returncode, done.stdout, done.stderr) == (0, _build_parser().format_help(), "")


def _error_line(done) -> str:
    assert done.stdout == ""
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1, done.stderr
    return done.stderr


def test_each_exit_code_keeps_its_one_error_line(tmp_path):
    done = _run("cluster", str(DATA), "--alg", "kmeans", "--k", "0", cwd=tmp_path)
    assert done.returncode == 1
    assert _error_line(done) == "error: --k must be >= 1, got 0\n"

    missing = tmp_path / "missing.tsv"
    done = _run("cluster", str(missing), "--alg", "kmeans", "--k", "2", cwd=tmp_path)
    assert done.returncode == 2
    assert _error_line(done) == f"error: cannot read {missing}: No such file or directory\n"

    # squared distances overflow float64
    big = tmp_path / "big.tsv"
    big.write_text("s1\ts2\ng1\t1e154\t-1e154\ng2\t-1e154\t1e154\n"
                   "g3\t1e154\t1e154\ng4\t-1e154\t-1e154\n", encoding="utf-8")
    done = _run("cluster", str(big), "--alg", "kmeans", "--k", "2", cwd=tmp_path)
    assert done.returncode == 3
    _error_line(done)
    assert os.listdir(tmp_path) == ["big.tsv"]


@pytest.fixture(scope="module")
def clustered(tmp_path_factory):
    """A directory holding a kmeans run's outputs, and that run."""
    out = tmp_path_factory.mktemp("entry")
    return out, _run("cluster", str(DATA), "--alg", "kmeans", "--k", "3", "--out", "p", cwd=out)


def test_every_wrote_line_arrives(clustered):
    _, done = clustered
    assert done.returncode == 0, done.stderr
    assert done.stdout == "wrote p.partition.csv\nwrote p.centroids.csv\nwrote p.meta.json\n"


def test_validate_on_a_pipe_writes_the_bytes_of_its_output_file(clustered):
    out, _ = clustered
    args = ["validate", str(DATA), "--partition", "p.partition.csv",
            "--centroids", "p.centroids.csv"]
    piped = _run(*args, cwd=out)
    assert (piped.returncode, piped.stderr) == (0, "")
    assert _run(*args, "-o", "v.json", cwd=out).returncode == 0
    assert piped.stdout == (out / "v.json").read_text(encoding="utf-8")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("options", [(), ("-u",)], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("command", [
    ["validate", str(DATA), "--partition", "p.partition.csv", "--centroids", "p.centroids.csv"],
    ["cluster", str(DATA), "--alg", "kmeans", "--k", "3", "--out", "q"],
], ids=["validate", "cluster"])
def test_a_full_stdout_is_a_data_error(clustered, command, options):
    out, _ = clustered
    with open("/dev/full", "w") as full:
        done = _run(*command, cwd=out, stdout=full, options=options)
        as_json = _run(*command, "--json", cwd=out, stdout=full, options=options)
    assert done.returncode == 2
    assert done.stderr == "error: [Errno 28] No space left on device\n"
    assert (as_json.returncode, json.loads(as_json.stderr)) == (
        2, {"error": "[Errno 28] No space left on device", "exit_code": 2})


@pytest.mark.skipif(sys.platform != "linux", reason="closes fd 1 in the child")
def test_a_process_started_without_stdout_exits_0(clustered):
    out, _ = clustered
    done = subprocess.run([sys.executable, "-m", "pfclust", "cluster", str(DATA), "--alg",
                           "kmeans", "--k", "3", "--out", "r"], cwd=out, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(SRC)},
                          preexec_fn=lambda: os.close(1))
    assert (done.returncode, done.stderr) == (0, "")
    assert (out / "r.meta.json").is_file()


def test_a_profiled_process_gets_the_interpreter_teardown(tmp_path):
    # cProfile writes its file after the module returns
    done = _run("--version", options=("-m", "cProfile", "-o", str(tmp_path / "prof")))
    assert (done.returncode, done.stdout, done.stderr) == (0, "pfclust 0.1.0\n", "")
    assert (tmp_path / "prof").stat().st_size > 0


def test_an_image_too_large_to_allocate_is_one_error_line(tmp_path):
    # 10^7 x 10^6 pixels, 27.3 TiB, more than any test host's file system
    # holds: the streamed writer refuses it before its first byte, and the
    # address-space cap makes any allocation of its size fail whatever the
    # host's overcommit policy. The heatmap runs in a forked child of a small
    # process, which prints the child's peak RSS in KiB: a process started
    # from this one would carry this one's peak.
    pytest.importorskip("resource")
    done = _run("heatmap", str(DATA), "--scale", "100000", "-o", "x.ppm", cwd=tmp_path, code="""
        import os, resource, sys
        cap = 64 << 30
        soft, hard = resource.getrlimit(resource.RLIMIT_AS)
        if soft == resource.RLIM_INFINITY or soft > cap:
            resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
        pid = os.fork()
        if pid == 0:
            from pfclust.cli import entry
            sys.argv[0] = "pfclust"
            entry()
        _, status, usage = os.wait4(pid, 0)
        print(usage.ru_maxrss)
        sys.exit(os.waitstatus_to_exitcode(status))
    """)
    assert done.returncode == 2
    assert re.fullmatch(r"error: cannot write x\.ppm: the image takes 27\.3 TiB but its file "
                        r"system has [0-9.]+ (bytes|[KMGTPE]iB) free\n", done.stderr), done.stderr
    # refused before any array of the image's size is built
    assert int(done.stdout) < 150 * 1024
    assert os.listdir(tmp_path) == []
