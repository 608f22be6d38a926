"""Property test: whatever JSON config `dvssgt run`, `compare` or `sweep` is
given, it runs (exit 0), is refused with a `config error:` line (exit 2) or
diverges (exit 3), and never ends in an uncaught exception.

Each example makes up to three type-valid edits to a small valid config
(odd values: tiny ratios, huge caps, seeds and batches; the seed pool, -3
to 2**70, also holds seeds that are refused with exit 2: a negative one, or
a sampling seed of 2**64 or more) and at most one junk edit, which sets any
schema key, an unknown key, a whole section or the whole config to a random
JSON value. Values that would make
a run long or large are kept out of both pools: n is at most 6, d and the
junk integers at most 6, paths at most 3, max_iters at most 6, a budget at
most 500 samples and a sweep grid at most 3 points; junk floats are at most
10 in magnitude (plus NaN and +-inf); and a target_eps stop is set only at
1e3 or more, which every path meets at k = 0 unless it diverges, because an
unmet target runs up to algo.TARGET_EPS_ITER_CAP = 100,000 iterations.
"""
import contextlib
import copy
import io
import json
import math
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings, strategies as st

from dvssgt import cli

BASE = {
    "problem": {"n": 3, "d": 2, "noise_sigmas": 1.0, "seed": 1},
    "graph": {"n": 3, "p": 0.8, "seed": 2},
    "algorithm": "dvss-sgt",
    "alpha": 0.05,
    "schedule": {"kind": "geometric", "ratio": 0.8},
    "paths": 2,
    "stop": {"max_iters": 4},
    "sweep": {"parameter": "alpha", "grid": [0.02, 0.05]},
}

SCHEMA_KEYS = [f"{name}.{key}" if isinstance(spec, dict) else name
               for name, spec in cli.SCHEMA.items()
               for key in (spec if isinstance(spec, dict) else [None])]
KEYS = ([key for key in SCHEMA_KEYS if key != "stop.target_eps"]
        + [name for name, spec in cli.SCHEMA.items() if isinstance(spec, dict)]
        + ["", "stpo", "problem.dd", "graph.edge_lst", "schedule.ratoi"])

SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 6), st.floats(-10.0, 10.0),
    st.sampled_from([math.nan, math.inf, -math.inf]), st.text(max_size=5),
    st.sampled_from(["identity", "geometric", "constant", *cli.ALGORITHMS,
                     *tuple(cli.SWEEP_KEYS)]))
VALUES = st.one_of(
    SCALARS, st.lists(SCALARS, max_size=4),
    st.dictionaries(st.sampled_from(["n", "p", "kind", "ratio", "size", "max_iters",
                                     "budget_samples", "parameter", "grid", "zz"]),
                    SCALARS, max_size=3))

SEEDS = st.integers(-3, 2**70)
# type-valid values, each bounded as the module docstring says
VALID = st.one_of(
    st.integers(2, 6).map(lambda n: [("problem.n", n), ("graph.n", n)]),
    *[st.tuples(st.just(key), values).map(lambda edit: [edit]) for key, values in {
        "problem.d": st.integers(1, 6),
        "problem.x_star": st.one_of(st.none(), st.lists(st.floats(-5.0, 5.0), max_size=3)),
        "problem.covariance_spec": st.sampled_from(
            ["identity", "rot-spd[0.5,4]", "diag-uniform[1,1]", "diag-uniform[1,inf]",
             "rot-spd[nan,2]", "diag-uniform[2,1]", "diag-uniform[-1,2]", "rot-spd[a,b]"]),
        "problem.noise_sigmas": st.one_of(st.floats(0.0, 1e3), st.lists(st.floats(0.0, 5.0),
                                                                         max_size=3)),
        "problem.seed": SEEDS,
        "graph.p": st.floats(1e-3, 1.0),
        "graph.seed": SEEDS,
        "algorithm": st.sampled_from(cli.ALGORITHMS),
        "alpha": st.floats(1e-9, 2.0),
        "schedule": st.one_of(
            st.fixed_dictionaries({"kind": st.just("geometric"),
                                   "ratio": st.floats(1e-12, 0.9999)}),
            st.fixed_dictionaries({"kind": st.just("constant"),
                                   "size": st.integers(1, 2**40)})),
        "schedule.cap": st.integers(1, 2**40),
        "baseline_batch": st.integers(1, 2**40),
        "paths": st.integers(1, 3),
        "seed": SEEDS,
        "stop": st.one_of(st.fixed_dictionaries({"max_iters": st.integers(1, 6)}),
                          st.fixed_dictionaries({"budget_samples": st.floats(1e-3, 500.0)}),
                          st.fixed_dictionaries({"target_eps": st.floats(1e3, 1e300)})),
        "sweep": st.sampled_from(tuple(cli.SWEEP_KEYS)).flatmap(
            lambda param: st.fixed_dictionaries({
                "parameter": st.just(param),
                "grid": st.lists(st.integers(2, 6) if param == "n" else st.floats(1e-4, 1.0),
                                 min_size=1, max_size=3)})),
    }.items()])


def edit(cfg, key_path, value):
    """cfg with the value at key_path ('' is the whole config), if its parent is an object."""
    if not key_path:
        return value
    *sections, key = key_path.split(".")
    parent = cfg
    for section in sections:
        parent = parent[section] if isinstance(parent, dict) and section in parent else None
    if isinstance(parent, dict):
        parent[key] = value
    return cfg


@settings(max_examples=300, deadline=None, database=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(command=st.sampled_from(["run", "compare", "sweep"]),
       valid=st.lists(VALID, max_size=3),
       junk=st.lists(st.tuples(st.sampled_from(KEYS), VALUES), max_size=1))
def test_any_config_runs_or_exits_with_a_message(command, valid, junk):
    cfg = copy.deepcopy(BASE)
    for key_path, value in [pair for pairs in valid for pair in pairs] + junk:
        cfg = edit(cfg, key_path, value)
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(cfg))
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main([command, "--config", str(path), "--out", str(Path(tmp) / "o")])
    assert code in (0, cli.EXIT_CONFIG_ERROR, cli.EXIT_DIVERGENCE), err.getvalue()
    assert "Traceback" not in err.getvalue()
    if code == cli.EXIT_CONFIG_ERROR:
        assert "config error: " in err.getvalue()
