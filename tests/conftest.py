import signal
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

import pfclust._util
from pfclust import ExpressionMatrix

DATA_DIR = Path(__file__).parent / "data"

# parameters behind tests/data/synthetic_100x10.tsv; a test regenerates the
# file from these and compares bytes, so keep them in sync with the file
SYNTH_CLUSTERS = [
    ((5.0, 5.0, 5.0, 5.0, 5.0, 0.0, 0.0, 0.0, 0.0, 0.0), 1.0, 30),
    ((0.0, 0.0, 0.0, 0.0, 0.0, 5.0, 5.0, 5.0, 5.0, 5.0), 1.0, 30),
    ((5.0, 0.0, 5.0, 0.0, 5.0, 0.0, 5.0, 0.0, 5.0, 0.0), 1.0, 30),
]
SYNTH_NOISE = 10
SYNTH_SEED = 42


@pytest.fixture
def four_points():
    """The 1-D {0, 1, 10, 11} fixture behind several exact oracles."""
    return np.array([[0.0], [1.0], [10.0], [11.0]])


@pytest.fixture
def small_matrix():
    return ExpressionMatrix(
        ("g1", "g2", "g3"),
        ("s1", "s2", "s3"),
        [[2.0, 4.0, 6.0], [1.0, 2.0, 3.0], [5.0, 5.0, 5.0]],
    )


@pytest.fixture
def bundled_path():
    return DATA_DIR / "synthetic_100x10.tsv"


@pytest.fixture(autouse=True)
def at_most_three_processes(monkeypatch):
    """Cap a grid's worker processes, and the processes that read or write a
    matrix in parts, at three, whatever the host's CPU count."""
    cpus = pfclust._util.usable_cpus
    monkeypatch.setattr(pfclust._util, "usable_cpus", lambda: min(3, cpus()))


@contextmanager
def within(seconds: int):
    """Fail, rather than hang, if the block runs longer than `seconds` (POSIX only)."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
