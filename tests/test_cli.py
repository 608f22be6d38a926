import json
import math
import re
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from dvssgt import algo, charts, cli, graph


def small_cfg(tmp_path, **extra):
    cfg = {"paths": 2, "stop": {"max_iters": 25}}
    cfg.update(extra)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_load_config_preset_and_overrides(tmp_path):
    path = small_cfg(tmp_path, alpha=0.02)
    cfg = cli.load_config("fig1", path)
    assert cfg["alpha"] == 0.02
    assert cfg["paths"] == 2
    assert cfg["stop"] == {"max_iters": 25}
    assert cfg["problem"]["n"] == 10  # untouched preset values survive


def test_validate_config_itemized():
    cfg = cli.load_config("fig1")
    assert cli.resolve_config(cfg)[1] == []
    bad = cli.load_config("fig1")
    bad["alpha"] = -1.0
    bad["graph"]["p"] = 2.0
    bad["algorithm"] = "adam"
    bad["schedule"]["ratio"] = 1.5
    bad["stop"] = {"max_iters": 10, "target_eps": 0.1}
    errors = cli.resolve_config(bad)[1]
    assert len(errors) == 5
    assert cli.resolve_config({})[1] != []


def test_cmd_run_deterministic_csvs(tmp_path):
    path = small_cfg(tmp_path)
    assert cli.main(["run", "--preset", "fig1", "--config", path,
                     "--out", str(tmp_path / "a")]) == 0
    assert cli.main(["run", "--preset", "fig1", "--config", path,
                     "--out", str(tmp_path / "b")]) == 0
    a = (tmp_path / "a" / "run_dvss-sgt.csv").read_bytes()
    b = (tmp_path / "b" / "run_dvss-sgt.csv").read_bytes()
    assert a == b
    svg = (tmp_path / "a" / "run_dvss-sgt.svg").read_text()
    ET.fromstring(svg)  # well-formed XML


def test_config_echo_reproduces_run(tmp_path):
    path = small_cfg(tmp_path)
    assert cli.main(["run", "--preset", "fig1", "--config", path,
                     "--out", str(tmp_path / "a")]) == 0
    echo = tmp_path / "a" / "config.json"
    # the echo lists every default, so resolving it changes nothing
    echoed = json.loads(echo.read_text())
    assert echoed["schedule"]["cap"] == algo.DEFAULT_BATCH_CAP
    assert cli.resolve_config(echoed) == (echoed, [])
    assert cli.main(["run", "--config", str(echo),
                     "--out", str(tmp_path / "c")]) == 0
    assert ((tmp_path / "a" / "run_dvss-sgt.csv").read_bytes()
            == (tmp_path / "c" / "run_dvss-sgt.csv").read_bytes())


def test_config_error_exit_code(tmp_path):
    path = small_cfg(tmp_path, alpha=-5.0)
    assert cli.main(["run", "--preset", "fig1", "--config", path,
                     "--out", str(tmp_path / "o")]) == cli.EXIT_CONFIG_ERROR
    missing = cli.main(["run", "--config", str(tmp_path / "nope.json"),
                        "--out", str(tmp_path / "o")])
    assert missing == cli.EXIT_CONFIG_ERROR


@pytest.mark.parametrize("key,value,message", [
    ("problem.n", "10", "problem.n must be an integer, got '10'"),
    ("problem.d", 5.0, "problem.d must be an integer"),
    ("graph.n", "10", "graph.n must be an integer"),
    ("graph.p", "0.3", "graph.p must be a number"),
    ("alpha", "0.01", "alpha must be a number, got '0.01'"),
    ("schedule.ratio", "0.98", "schedule.ratio must be a number"),
    ("schedule", {"kind": "constant", "size": "2"}, "schedule.size must be an integer"),
    ("schedule.cap", 1.5, "schedule.cap must be an integer"),
    ("schedule.cap", 0, "schedule.cap must be >= 1, got 0"),
    ("paths", "2", "paths must be an integer"),
    ("paths", True, "paths must be an integer"),
    ("stop", {"max_iters": "25"}, "stop.max_iters must be an integer"),
    ("stop", {"max_iters": 2.5}, "stop.max_iters must be an integer, got 2.5"),
    ("stop", {"max_iters": 0}, "stop.max_iters must be >= 1"),
    ("stop", {"budget_samples": "300"}, "stop.budget_samples must be a number"),
    ("stop", {"target_eps": None}, "stop.target_eps must be a number"),
    ("graph.n", 12, "graph.n (12) must equal problem.n (10)"),
    ("--grid", "ratio=a,b", "schedule.ratio must be a number, got 'a'"),
    ("--grid", "n=2.5", "problem.n must be an integer, got 2.5"),
    ("alpha", 10**400, "alpha must be a number, got 1000"),
    ("paths", 3_000_000, "problem.n = 10 and problem.d = 5 need dense arrays of "
                         "max(n*n, n*d*d, paths*n*d) = 150000000 elements at paths = 3000000"),
])
def test_config_value_errors_exit_2(tmp_path, capsys, key, value, message):
    cfg = cli.load_config("fig1")
    cfg["paths"], cfg["stop"] = 2, {"max_iters": 25}
    argv = ["run"]
    if key == "--grid":   # value is param=grid, a sweep given on the command line
        param, _, grid = value.partition("=")
        argv = ["sweep", "--param", param, "--grid", grid]
    else:
        section, _, name = key.rpartition(".")
        (cfg[section] if section else cfg)[name] = value
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(argv + ["--config", str(path),
                            "--out", str(tmp_path / "o")]) == cli.EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert f"config error: {message}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command,config,message", [
    ("run", {"stpo": {"max_iters": 3}}, "unknown key stpo (did you mean stop?)"),
    ("run", {"stop": {"max_itres": 3}},
     "unknown key stop.max_itres (did you mean stop.max_iters?)"),
    ("run", {"problem": {"covariance_spec": 5}},
     "problem.covariance_spec must be a string, got 5"),
    ("run", {"graph": {"edge_list": 5}}, "graph.edge_list must be a string, got 5"),
    ("run", [1, 2], "config must be a JSON object, got [1, 2]"),
    ("run", {"schedule": "constant"}, "schedule must be a JSON object, got 'constant'"),
    ("sweep", {"sweep": 5}, "sweep must be a JSON object, got 5"),
    ("theory", {"schedule": {"kind": "constant"}}, "theory needs a geometric schedule"),
])
def test_config_shape_errors_exit_2(tmp_path, capsys, command, config, message):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "o"
    assert cli.main([command, "--preset", "fig1", "--config", str(path),
                     "--out", str(out)]) == cli.EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert f"config error: {message}" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_readme_config_table_lists_every_schema_key():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    documented = re.findall(r"^\| `([a-z_.]+)` \|", readme, re.M)
    schema_keys = [f"{name}.{key}" if isinstance(spec, dict) else name
                   for name, spec in cli.SCHEMA.items()
                   for key in (spec if isinstance(spec, dict) else [None])]
    assert sorted(documented) == sorted(schema_keys)


def test_edge_list_node_count_must_match_problem(tmp_path, capsys):
    g = graph.erdos_renyi(8, 0.5, seed=1)
    edges = tmp_path / "edges.txt"
    edges.write_text(f"{g.n}\n" + "".join(f"{i} {j}\n" for i, j in sorted(g.edges)))
    path = small_cfg(tmp_path, graph={"edge_list": str(edges)})
    assert cli.main(["run", "--preset", "fig1", "--config", path,
                     "--out", str(tmp_path / "o")]) == cli.EXIT_CONFIG_ERROR
    assert "graph has 8 nodes but problem.n is 10" in capsys.readouterr().err


@pytest.mark.parametrize("graph_cfg,message", [
    ({"p": 1e-9}, "config error: graph: no connected graph after"),
    ({"edge_list": "missing.txt"}, "config error: graph: [Errno 2]"),
])
def test_unbuildable_graph_exits_2(tmp_path, capsys, graph_cfg, message):
    if "edge_list" in graph_cfg:
        graph_cfg = {"edge_list": str(tmp_path / graph_cfg["edge_list"])}
    path = small_cfg(tmp_path, graph=graph_cfg)
    assert cli.main(["run", "--preset", "fig1", "--config", path,
                     "--out", str(tmp_path / "o")]) == cli.EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err


def test_divergence_exit_and_partial_trace(tmp_path):
    path = small_cfg(tmp_path, alpha=10.0, paths=1)
    out = tmp_path / "div"
    assert cli.main(["run", "--preset", "fig1", "--config", path,
                     "--out", str(out)]) == cli.EXIT_DIVERGENCE
    assert (out / "partial_trace.csv").exists()


def test_compare_outputs(tmp_path):
    path = small_cfg(tmp_path, paths=2, stop={"budget_samples": 300})
    out = tmp_path / "cmp"
    assert cli.main(["compare", "--preset", "fig3", "--config", path,
                     "--out", str(out)]) == 0
    for algorithm in cli.ALGORITHMS:
        assert (out / f"compare_{algorithm}.csv").exists()
    ET.fromstring((out / "compare.svg").read_text())


def test_compare_degenerate_budget(tmp_path):
    path = small_cfg(tmp_path, paths=2, stop={"budget_samples": 5})
    out = tmp_path / "cmp0"
    assert cli.main(["compare", "--preset", "fig3", "--config", path,
                     "--out", str(out)]) == 0
    from dvssgt import metrics
    for algorithm in cli.ALGORITHMS:
        rows = metrics.read_csv(out / f"compare_{algorithm}.csv")
        assert len(rows) == 1  # zero-iteration trace, clean exit


def test_theory_report(tmp_path):
    path = small_cfg(tmp_path)
    out = tmp_path / "th"
    assert cli.main(["theory", "--preset", "fig1", "--config", path,
                     "--out", str(out)]) == 0
    report = json.loads((out / "theory.json").read_text())
    assert report["rho_at_alpha_star"] < 1.0
    assert report["alpha_star"] > 0.0
    assert report["recursion_max_violation"] <= 1e-9
    assert report["regime"] in ("q_dominant", "rho_dominant")
    assert set(report["complexity"]) == {"1e-01", "1e-02", "1e-03", "1e-04"}
    q2 = report["q"] ** 2
    for table in report["complexity"].values():
        assert table["K"] >= 0
        # ceiling-adjusted form of the printed bound (see theory tests)
        assert table["oracle_exact"] <= table["oracle_bound"] / q2 + table["K"] + 1
    assert isinstance(report["rho_at_alpha"]["eta"], float)
    assert isinstance(report["rho_at_alpha"]["L"], float)
    assert json.loads((out / "config.json").read_text())["paths"] == 2


def test_theory_oracle_counts_follow_the_schedule_cap(tmp_path):
    path = small_cfg(tmp_path, schedule={"cap": 100})
    out = tmp_path / "th"
    assert cli.main(["theory", "--preset", "fig1", "--config", path,
                     "--out", str(out)]) == 0
    report = json.loads((out / "theory.json").read_text())
    capped = algo.geometric_schedule(0.98, cap=100)
    for table in report["complexity"].values():
        assert table["oracle_exact"] == algo.batch_total(capped, table["K"])
        assert table["oracle_exact"] <= 100 * (table["K"] + 1)


def test_theory_bound_overflow_is_null(tmp_path):
    # at q = sqrt(0.5) against rho near 1, (B/eps)^exponent exceeds the float range
    path = small_cfg(tmp_path, schedule={"kind": "geometric", "ratio": 0.5})
    out = tmp_path / "th"
    assert cli.main(["theory", "--preset", "fig1", "--config", path,
                     "--out", str(out)]) == 0

    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")
    report = json.loads((out / "theory.json").read_text(), parse_constant=reject)
    bounds = [table["oracle_bound"] for table in report["complexity"].values()]
    assert None in bounds
    assert all(b is None or math.isfinite(b) for b in bounds)


def test_theory_noiseless_C_zero(tmp_path):
    cfg, _errors = cli.resolve_config(cli.load_config("fig1"), "theory")
    cfg["paths"] = 2
    cfg["problem"]["noise_sigmas"] = 0.0
    report = cli.theory_report(cfg)
    # observation noise is zero but regressor scatter still contributes;
    # force a true noiseless check through the formula itself
    from dvssgt import theory
    assert theory.noise_constant(0.0, report["table_alpha"], report["q"],
                                 report["lips"], 10) == 0.0
    assert report["C_empirical_nu"] >= 0.0


def test_sweep_singleton_matches_run(tmp_path):
    path = small_cfg(tmp_path)
    out_sweep = tmp_path / "sw"
    assert cli.main(["sweep", "--preset", "fig1", "--config", path,
                     "--param", "ratio", "--grid", "0.98",
                     "--out", str(out_sweep)]) == 0
    out_run = tmp_path / "r"
    assert cli.main(["run", "--preset", "fig1", "--config", path,
                     "--out", str(out_run)]) == 0
    from dvssgt import metrics
    run_rows = metrics.read_csv(out_run / "run_dvss-sgt.csv")
    with open(out_sweep / "sweep_ratio.csv") as fh:
        import csv as csv_mod
        sweep_rows = list(csv_mod.DictReader(fh))
    assert len(sweep_rows) == len(run_rows)
    for srow, rrow in zip(sweep_rows, run_rows):
        assert srow["status"] == "ok"
        assert float(srow["mean_combined"]) == rrow["mean_combined"]


def test_sweep_flags_infeasible_alpha(tmp_path):
    path = small_cfg(tmp_path)
    out = tmp_path / "swa"
    assert cli.main(["sweep", "--preset", "fig1", "--config", path,
                     "--param", "alpha", "--grid", "0.002,0.6",
                     "--out", str(out)]) == 0
    import csv as csv_mod
    with open(out / "sweep_alpha.csv") as fh:
        rows = list(csv_mod.DictReader(fh))
    by_status = {row["status"] for row in rows}
    assert by_status == {"ok", "infeasible"}
    infeasible = [row for row in rows if row["status"] == "infeasible"]
    assert len(infeasible) == 1
    assert float(infeasible[0]["alpha"]) == 0.6


def test_sweep_requires_param_and_grid(tmp_path):
    path = small_cfg(tmp_path)
    assert cli.main(["sweep", "--preset", "fig1", "--config", path,
                     "--out", str(tmp_path / "o")]) == cli.EXIT_CONFIG_ERROR


def test_chart_svg_structure():
    ks = np.arange(10, dtype=float)
    svg = charts.line_chart_svg([("alg-a", ks, np.exp(-0.1 * ks)),
                                 ("alg-b", ks, np.exp(-0.2 * ks))],
                                title="demo", xlabel="k", ylabel="err")
    root = ET.fromstring(svg)
    assert root.tag.endswith("svg")
    assert "alg-a" in svg and "alg-b" in svg and "demo" in svg


def test_batch_sizes_and_dense_arrays_are_bounded():
    cap = algo.DEFAULT_BATCH_CAP
    cfg = cli.load_config("fig1", overrides={
        "schedule": {"kind": "constant", "size": 2**70, "cap": 2**80},
        "baseline_batch": cap + 1})
    errors = cli.resolve_config(cfg)[1]
    assert errors == [f"schedule.size must be <= {cap}, got {2**70}",
                      f"schedule.cap must be <= {cap}, got {2**80}",
                      f"baseline_batch must be <= {cap}, got {cap + 1}"]
    # n = 200,000 would ask the graph for ~37 GiB; only the config is resolved
    big = cli.load_config("fig1", overrides={"problem": {"n": 200_000},
                                             "graph": {"n": 200_000}})
    [error] = cli.resolve_config(big)[1]
    assert error.startswith("problem.n = 200000 and problem.d = 5 need dense arrays")
    assert "over the limit of 4194304" in error
    wide = cli.load_config("fig1", overrides={"problem": {"d": 1000}})
    assert cli.resolve_config(wide)[1] != []
    edge = cli.load_config("fig1", overrides={"problem": {"n": 2048}, "graph": {"n": 2048}})
    assert cli.resolve_config(edge)[1] == []
    # the stacked (paths, n, d) iterates: at n = 10 and d = 5, up to 83,886 paths
    most = cli.load_config("fig1", overrides={"paths": 83_886})
    assert cli.resolve_config(most)[1] == []
    [error] = cli.resolve_config(cli.load_config("fig1", overrides={"paths": 83_887}))[1]
    assert "paths*n*d) = 4194350 elements at paths = 83887, over the limit" in error
