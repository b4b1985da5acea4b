"""The run-parameter table: one default and one range rule per parameter,
enforced alike by the algorithms, the CLI and grid overrides."""

import dataclasses
import inspect
import json
import math
import re

import numpy as np
import pytest

from pfclust import (
    DEFAULTS,
    PARAMS,
    ExperimentGrid,
    FuzzyConfig,
    kmeans,
    rough_kmeans,
    run_algorithm,
)
from pfclust.cli import main

# each parameter's rule text and one finite value that breaks it
RULES = {
    "m": ("must be strictly greater than 1", 1.0),
    "v": ("must be >= 0", -0.1),
    "zeta": ("must be >= 1", 0.99),
    "w_lower": ("must be in (0, 1]", 0.0),
    "eps": ("must be positive", 0.0),
    "max_iter": ("must be >= 1", 0),
}

X = np.arange(12.0).reshape(6, 2)

# the library entries that read each algorithm's parameters
ENTRIES = {
    "kmeans": lambda **kw: kmeans(X, 2, **kw),
    "rough_kmeans": lambda **kw: rough_kmeans(X, 2, **kw),
    "fcm": lambda **kw: FuzzyConfig(c=2, **kw),
    "pfcm": lambda **kw: FuzzyConfig(c=2, **kw),
}


@pytest.mark.parametrize(
    "name, bad", [(name, bad) for name in RULES for bad in (math.nan, RULES[name][1])]
)
def test_bad_parameter_fails_everywhere(tmp_path, capsys, name, bad):
    rule = RULES[name][0]
    message = re.escape(f"{name} {rule}, got {bad}")
    readers = [alg for alg in PARAMS if name in PARAMS[alg]]
    for alg in readers:
        with pytest.raises(ValueError, match=message):
            ENTRIES[alg](**{name: bad})
        with pytest.raises(ValueError):
            run_algorithm(alg, X, 2, **{name: bad})
        with pytest.raises(ValueError, match=message):
            ExperimentGrid(pairs=((6, 2),), overrides={alg: {name: bad}})

    inp = tmp_path / "x.tsv"
    inp.write_text("s1\ts2\n" + "".join(f"g{i}\t{a}\t{b}\n" for i, (a, b) in enumerate(X)))
    flag = "--" + name.replace("_", "-")
    code = main(["cluster", str(inp), "--alg", "kmeans", "--k", "2", flag, str(bad),
                 "--out", str(tmp_path / "run")])
    assert code == 1
    err = capsys.readouterr().err
    if name == "max_iter" and math.isnan(bad):
        # argparse rejects a non-integer cap before the table sees it
        assert flag in err
    else:
        assert err == f"error: {flag} {rule}, got {bad}\n"

    cfg = tmp_path / "grid.json"
    cfg.write_text(json.dumps({"pairs": [[6, 2]], "overrides": {readers[0]: {name: bad}}}))
    before = sorted(tmp_path.iterdir())
    assert main(["grid", str(inp), "--config", str(cfg), "--out", str(tmp_path / "g")]) == 1
    assert re.search(message, capsys.readouterr().err)
    assert sorted(tmp_path.iterdir()) == before


@pytest.mark.parametrize("alg, name, value", [
    ("pfcm", "m", "2"),
    ("kmeans", "max_iter", True),
    ("rough_kmeans", "zeta", None),
])
def test_grid_override_must_be_a_number(alg, name, value):
    with pytest.raises(ValueError, match=f"{name} must be a number, got {value!r}"):
        ExperimentGrid(pairs=((6, 2),), overrides={alg: {name: value}})


def test_signature_defaults_are_the_table():
    for func, alg in ((kmeans, "kmeans"), (rough_kmeans, "rough_kmeans")):
        params = inspect.signature(func).parameters
        # the matrix argument is also called m, but has no default
        defaults = {key: p.default for key, p in params.items()
                    if key in DEFAULTS and p.default is not p.empty}
        assert defaults == {key: DEFAULTS[key] for key in PARAMS[alg]}
    fields = {f.name: f.default for f in dataclasses.fields(FuzzyConfig) if f.name in DEFAULTS}
    assert fields == {key: DEFAULTS[key] for key in PARAMS["pfcm"]}
    assert DEFAULTS == {"m": 2.0, "v": 1.0, "zeta": 1.3, "w_lower": 0.7, "eps": 1e-5,
                        "max_iter": 300}
