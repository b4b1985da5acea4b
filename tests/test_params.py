"""The run-parameter table: one default and one range rule per parameter,
enforced alike by the algorithms, the CLI and grid overrides; and the one
count rule every k, seed, size, worker count and scale follows."""

import inspect
import io
import json
import math
import pickle
import re

import numpy as np
import pytest

from pfclust import (
    DEFAULTS,
    PARAMS,
    ExperimentGrid,
    ExpressionMatrix,
    fcm,
    generate_synthetic,
    kmeans,
    pfcm,
    preset_pairs,
    render_ppm,
    rough_kmeans,
    run_algorithm,
    run_grid,
    subset_genes,
)
from pfclust.cli import main

# each parameter's rule text and one finite value that breaks it
RULES = {
    "m": ("must be strictly greater than 1", 1.0),
    "v": ("must be >= 0", -0.1),
    "zeta": ("must be >= 1", 0.99),
    "w_lower": ("must be in (0, 1]", 0.0),
    "eps": ("must be positive", 0.0),
    "max_iter": ("must be an integer >= 1", 0),
}

X = np.arange(12.0).reshape(6, 2)

# the library entries that read each algorithm's parameters
ENTRIES = {
    "kmeans": lambda **kw: kmeans(X, 2, **kw),
    "rough_kmeans": lambda **kw: rough_kmeans(X, 2, **kw),
    "fcm": lambda **kw: fcm(X, 2, **kw),
    "pfcm": lambda **kw: pfcm(X, 2, **kw),
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
        with pytest.raises(ValueError, match=message):
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


@pytest.mark.parametrize("bad", [math.nan, math.inf, 2.5])
def test_max_iter_is_checked_before_it_is_converted(tmp_path, capsys, bad):
    message = re.escape(f"max_iter must be an integer >= 1, got {bad}")
    for alg in PARAMS:
        with pytest.raises(ValueError, match=message):
            run_algorithm(alg, X, 2, max_iter=bad)
        # an integral float, as JSON may give it, is still a cap
        assert run_algorithm(alg, X, 2, max_iter=50.0).iterations <= 50
        assert ENTRIES[alg](max_iter=50.0).iterations <= 50
        # and runs as its int, bit for bit
        assert pickle.dumps(ENTRIES[alg](max_iter=50.0)) == pickle.dumps(ENTRIES[alg](max_iter=50))

    inp = tmp_path / "x.tsv"
    inp.write_text("s1\ts2\n" + "".join(f"g{i}\t{a}\t{b}\n" for i, (a, b) in enumerate(X)))
    cfg = tmp_path / "grid.json"
    overrides = {"rough_kmeans": {"max_iter": bad}}
    cfg.write_text(json.dumps({"pairs": [[6, 2]], "overrides": overrides}))
    assert main(["grid", str(inp), "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    assert re.search(message, capsys.readouterr().err)
    assert not list(tmp_path.glob("out*"))


@pytest.mark.parametrize("alg, name, value", [
    ("pfcm", "m", "2"),
    ("kmeans", "max_iter", True),
    ("rough_kmeans", "zeta", None),
])
def test_grid_override_must_be_a_number(alg, name, value):
    with pytest.raises(ValueError, match=f"{name} must be a number, got {value!r}"):
        ExperimentGrid(pairs=((6, 2),), overrides={alg: {name: value}})


def test_signature_defaults_are_the_table():
    for func, alg in ((kmeans, "kmeans"), (rough_kmeans, "rough_kmeans"), (fcm, "fcm"),
                      (pfcm, "pfcm")):
        params = inspect.signature(func).parameters
        defaults = {key: p.default for key, p in params.items() if key in DEFAULTS}
        assert defaults == {key: DEFAULTS[key] for key in PARAMS[alg]}
        assert params["seed"].default == 0
        # one call shape: the data x and the count, then keywords only
        kind = inspect.Parameter
        kinds = [(key, p.kind) for key, p in params.items()]
        assert kinds[:2] == [("x", kind.POSITIONAL_OR_KEYWORD),
                             ("c" if "fcm" in alg else "k", kind.POSITIONAL_OR_KEYWORD)]
        assert {k for _, k in kinds[2:]} == {kind.KEYWORD_ONLY}
        with pytest.raises(TypeError, match="positional argument"):
            func(X, 2, 1)
    assert DEFAULTS == {"m": 2.0, "v": 1.0, "zeta": 1.3, "w_lower": 0.7, "eps": 1e-5,
                        "max_iter": 300}


@pytest.mark.parametrize("run", [
    lambda seed: kmeans(X, 2, seed=seed),
    lambda seed: rough_kmeans(X, 2, seed=seed),
    lambda seed: pfcm(X, 2, seed=seed),
    lambda seed: run_algorithm("fcm", X, 2, seed=seed),
    lambda seed: subset_genes(M, 3, "seeded_random", seed=seed),
    lambda seed: generate_synthetic([((0.0, 0.0), 1.0, 3)], seed=seed),
], ids=["kmeans", "rough_kmeans", "pfcm", "run_algorithm-fcm", "subset_genes-seeded_random",
        "generate_synthetic"])
def test_negative_seed_is_named_by_the_api(run):
    with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
        run(-1)
    # numpy would run True as seed 1 and refuse 1.5 or "1" in its own words
    for bad in (True, 1.5, "1"):
        message = f"^seed must be an integer, got {re.escape(repr(bad))}$"
        with pytest.raises(ValueError, match=message):
            run(bad)


M = ExpressionMatrix(tuple(f"g{i}" for i in range(6)), ("s1", "s2"), X)

# every library entry that takes a count: the name its errors use, and a
# call with the count 2 put in; run_grid's report is compared without its
# wall-clock timings
COUNTS = {
    "kmeans-k": ("k", lambda n: kmeans(X, n)),
    "kmeans-seed": ("seed", lambda n: kmeans(X, 2, seed=n)),
    "rough_kmeans-k": ("k", lambda n: rough_kmeans(X, n)),
    "pfcm-c": ("c", lambda n: pfcm(X, n)),
    "fcm-c": ("c", lambda n: fcm(X, n)),
    "pfcm-seed": ("seed", lambda n: pfcm(X, 2, seed=n)),
    "run_algorithm-fcm-k": ("k", lambda n: run_algorithm("fcm", X, n)),
    "subset_genes-size": ("subset size", lambda n: subset_genes(M, n)),
    "subset_genes-seed": ("seed", lambda n: subset_genes(M, 3, "seeded_random", seed=n)),
    "preset_pairs": ("n_genes", preset_pairs),
    "run_grid-workers": ("workers", lambda n: _report(run_grid(M, GRID, workers=n))),
    "generate_synthetic-count": ("count", lambda n: generate_synthetic([((0.0,), 1.0, n)])),
    "generate_synthetic-noise": ("noise_genes",
                                 lambda n: generate_synthetic([((0.0,), 1.0, 3)], noise_genes=n)),
    "generate_synthetic-seed": ("seed", lambda n: generate_synthetic([((0.0,), 1.0, 3)], seed=n)),
    "render_ppm-scale": ("scale", lambda n: render_ppm(M, scale=n)),
    "ExperimentGrid-sizes": ("subset size", lambda n: ExperimentGrid(subset_sizes=(n,), ks=(2,))),
    "ExperimentGrid-ks": ("k", lambda n: ExperimentGrid(subset_sizes=(6,), ks=(n,))),
    "ExperimentGrid-pair-size": ("subset size", lambda n: ExperimentGrid(pairs=((n, 2),))),
    "ExperimentGrid-pair-k": ("k", lambda n: ExperimentGrid(pairs=((6, n),))),
    "ExperimentGrid-seeds": ("seed", lambda n: ExperimentGrid(pairs=((6, 2),), seeds=(n,))),
}

GRID = ExperimentGrid(pairs=((4, 2), (6, 3)), normalization="none", seeds=(0, 1))


def _report(result) -> str:
    out = io.StringIO()
    result.write_report_json(out)
    return out.getvalue()


@pytest.mark.parametrize("entry", COUNTS)
def test_every_count_follows_the_one_rule(entry):
    name, call = COUNTS[entry]
    for bad in (True, 2.5, math.nan, "2"):
        message = f"^{name} must be an integer, got {re.escape(repr(bad))}$"
        with pytest.raises(ValueError, match=message):
            call(bad)
    # an integral float runs as its int, bit for bit
    assert pickle.dumps(call(2.0)) == pickle.dumps(call(2))
