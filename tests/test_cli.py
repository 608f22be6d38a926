import csv
import json
import math
import re
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import dvssgt
from dvssgt import algo, charts, cli, graph, oracle


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


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
    # the sampling streams are keyed with the seed's low 64 bits, so a seed
    # outside [0, 2**64) would alias one inside
    ("seed", 2**64, f"seed must be in [0, 2**64), got {2**64}"),
    ("seed", 2**70, f"seed must be in [0, 2**64), got {2**70}"),
    ("seed", -1, "seed must be in [0, 2**64), got -1"),
    ("problem.seed", -1, "problem.seed must be >= 0, got -1"),
    ("graph.seed", -3, "graph.seed must be >= 0, got -3"),
    ("problem.noise_sigmas", [1.0, 2.0],
     "problem.noise_sigmas needs 1 or problem.n = 10 values, got 2"),
    ("problem.noise_sigmas", [], "problem.noise_sigmas needs 1 or problem.n = 10 values, got 0"),
    ("problem.noise_sigmas", -1.0, "problem.noise_sigmas must be >= 0, got -1.0"),
    ("problem.noise_sigmas", [1.0] * 9 + [-0.5], "problem.noise_sigmas must be >= 0, got [1.0"),
    ("problem.noise_sigmas", [-0.5], "problem.noise_sigmas must be >= 0, got [-0.5]"),
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


def test_seeds_and_noise_sigmas_at_their_bounds_resolve():
    for key, value in [("seed", 0), ("seed", 2**64 - 1), ("problem.seed", 0),
                       ("graph.seed", 0), ("problem.noise_sigmas", 0.0),
                       ("problem.noise_sigmas", [0.0]), ("problem.noise_sigmas", [2.0] * 10)]:
        cfg = cli.load_config("fig1")
        section, _, name = key.rpartition(".")
        (cfg[section] if section else cfg)[name] = value
        assert cli.resolve_config(cfg)[1] == [], (key, value)


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


def test_edge_list_node_count_is_checked_before_any_node_is_built(tmp_path, capsys,
                                                                 monkeypatch):
    edges = tmp_path / "edges.txt"
    edges.write_text("100000000\n0 1\n")
    monkeypatch.setattr(graph.Graph, "from_edges", staticmethod(
        lambda n, edges: pytest.fail(f"built a graph of {n} nodes")))
    path = small_cfg(tmp_path, graph={"edge_list": str(edges)})
    assert cli.main(["run", "--preset", "fig1", "--config", path,
                     "--out", str(tmp_path / "o")]) == cli.EXIT_CONFIG_ERROR
    assert "graph has 100000000 nodes but problem.n is 10" in capsys.readouterr().err


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
    # the instance is built before the config echo is written
    assert not (tmp_path / "o" / "config.json").exists()


def test_divergence_exit_and_partial_trace(tmp_path):
    path = small_cfg(tmp_path, alpha=10.0, paths=1)
    out = tmp_path / "div"
    assert cli.main(["run", "--preset", "fig1", "--config", path,
                     "--out", str(out)]) == cli.EXIT_DIVERGENCE
    assert (out / "partial_trace.csv").exists()


def test_a_diverging_run_echoes_the_config_that_reproduces_it(tmp_path):
    path = small_cfg(tmp_path, alpha=1.0, paths=3, stop={"max_iters": 220})
    out, echo = tmp_path / "div", tmp_path / "div-echo"
    assert cli.main(["run", "--preset", "fig1", "--config", path,
                     "--out", str(out)]) == cli.EXIT_DIVERGENCE
    assert cli.main(["run", "--config", str(out / "config.json"),
                     "--out", str(echo)]) == cli.EXIT_DIVERGENCE
    assert ((out / "partial_trace.csv").read_bytes()
            == (echo / "partial_trace.csv").read_bytes())


def test_target_eps_run_stops_at_its_target(tmp_path, capsys):
    path = small_cfg(tmp_path, **{**cli.load_config("fig1"), "paths": 3,
                                  "stop": {"target_eps": 0.1}})
    out = tmp_path / "eps"
    assert cli.main(["run", "--config", path, "--out", str(out)]) == 0
    means = [float(row["mean_combined"]) for row in read_rows(out / "run_dvss-sgt.csv")]
    assert means[-1] <= 0.1 < min(means[:-1])
    assert f"{len(means) - 1} iterations (target_eps)" in capsys.readouterr().out


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
    for algorithm in cli.ALGORITHMS:
        rows = read_rows(out / f"compare_{algorithm}.csv")
        assert len(rows) == 1  # zero-iteration trace, clean exit


def test_compare_under_target_eps_says_where_the_baselines_stop(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(algo, "TARGET_EPS_ITER_CAP", 30)
    before = []   # (stdout, stderr) up to each run
    run = cli.run_experiment
    monkeypatch.setattr(cli, "run_experiment",
                        lambda *args: before.append(capsys.readouterr()) or run(*args))
    path = small_cfg(tmp_path, **{**cli.load_config("fig3"), "paths": 2,
                                  "stop": {"target_eps": 0.05}})
    out = tmp_path / "cmp-eps"
    assert cli.main(["compare", "--config", path, "--out", str(out)]) == 0
    before.append(capsys.readouterr())
    assert [err for _, err in before] == [
        "note: d-sgt and d-sgd stop at target_eps_iter_cap (k = 30) when their "
        "error floor lies above the target 0.05\n", "", "", ""]
    lines = dict(line.split(": ", 1) for text, _ in before for line in text.splitlines())
    for algorithm in ("d-sgt", "d-sgd"):
        assert lines[algorithm].endswith("(target_eps_iter_cap)")
        assert len(read_rows(out / f"compare_{algorithm}.csv")) == 31


def test_compare_under_other_stops_prints_no_note(tmp_path, capsys):
    path = small_cfg(tmp_path, paths=2, stop={"budget_samples": 300})
    assert cli.main(["compare", "--preset", "fig3", "--config", path,
                     "--out", str(tmp_path / "cmp")]) == 0
    assert capsys.readouterr().err == ""


def test_consecutive_main_calls_share_one_parser(tmp_path, capsys):
    path = small_cfg(tmp_path)
    assert cli.main(["run", "--preset", "fig1", "--config", path,
                     "--out", str(tmp_path / "a")]) == 0
    assert cli.main(["theory", "--preset", "fig1", "--config", path,
                     "--out", str(tmp_path / "b")]) == 0
    with pytest.raises(SystemExit) as exc:
        cli.main(["run", "--preset", "fig1", "--bogus"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --bogus" in capsys.readouterr().err
    assert cli.main(["sweep", "--preset", "fig1", "--config", path, "--param", "ratio",
                     "--grid", "0.9", "--out", str(tmp_path / "c")]) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: dvssgt")
    assert cli._parser() is cli._parser()


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
    # N(k) = ceil(0.98^-k) first reaches the default cap 2^31 - 1 at k = 1064
    assert report["cap_reached_at"] == 1064
    # empirical_nu is the exact noise level at path 0's x0
    p = cli.build_instance(cli.resolve_config(cli.load_config("fig1", path), "theory")[0])[0]
    E = algo.default_x0(p, oracle.StreamFactory(2024), 1)[0] - p.x_star
    RE = np.einsum("ijk,ik->ij", p.R, E)
    tr = np.trace(p.R, axis1=1, axis2=2)
    nu_sq = tr * np.einsum("ij,ij->i", E, RE) + np.einsum("ij,ij->i", RE, RE) + p.sigmas**2 * tr
    assert report["empirical_nu"] == pytest.approx(math.sqrt(nu_sq.max()), rel=1e-12)


def test_theory_draws_only_the_x0_and_z0_of_its_paths(monkeypatch, tmp_path):
    path = small_cfg(tmp_path)
    keyed, cells = [], []
    generator, draw = oracle.StreamFactory.generator, oracle._cells

    def keying(self, iteration, slot=0):
        keyed.append((slot, iteration))
        return generator(self, iteration, slot)
    monkeypatch.setattr(oracle.StreamFactory, "generator", keying)
    monkeypatch.setattr(oracle, "_cells", lambda p, batches, raw: cells.append(
        (batches, [z.shape for z, _chi in raw])) or draw(p, batches, raw))
    out = tmp_path / "th"
    assert cli.main(["theory", "--preset", "fig1", "--config", path, "--out", str(out)]) == 0
    # the x0 of both paths and their gradients at k = 0, N(0) = 1; the
    # recursion check's zero-noise path starts from path 0's x0 and draws nothing
    assert keyed == [(oracle.INIT_STREAM_AGENT, 0), (0, 0)]
    assert cells == [([1], [(2, 10, 1, 6)])]
    monkeypatch.undo()
    report = json.loads((out / "theory.json").read_text())
    run = cli.run_experiment(cli.resolve_config(cli.load_config("fig1", path))[0])
    z0 = np.linalg.norm(run.z[:, 0].mean(axis=0))
    assert report["z0_norm"] == pytest.approx(z0, rel=1e-12)


def test_theory_oracle_counts_follow_the_schedule_cap(tmp_path):
    path = small_cfg(tmp_path, schedule={"cap": 100})
    out = tmp_path / "th"
    assert cli.main(["theory", "--preset", "fig1", "--config", path,
                     "--out", str(out)]) == 0
    report = json.loads((out / "theory.json").read_text())
    capped = algo.geometric_schedule(0.98, cap=100)
    assert report["cap_reached_at"] == 228
    assert [algo.batch_size(capped, k) for k in (227, 228)] == [99, 100]
    for table in report["complexity"].values():
        assert table["oracle_exact"] == algo.batch_total(capped, table["K"])
        assert table["oracle_exact"] <= 100 * (table["K"] + 1)


def test_version_strings_agree():
    # a regex, not tomllib, which needs Python 3.11
    text = (Path(__file__).resolve().parent.parent / "pyproject.toml").read_text()
    project = text.split("[project]", 1)[1].split("\n[", 1)[0]
    assert re.search(r'^version = "([^"]+)"$', project, re.M).group(1) == dvssgt.__version__


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


def test_theory_near_ratio_one_reports_no_exact_count(tmp_path):
    # N(k) = ceil(ratio^-k) reaches the cap only at k ~ 2e11: the exact count
    # would sum that many batch sizes
    path = small_cfg(tmp_path, schedule={"kind": "geometric", "ratio": 0.9999999999})
    out = tmp_path / "th"
    assert cli.main(["theory", "--preset", "fig1", "--config", path,
                     "--out", str(out)]) == 0
    report = json.loads((out / "theory.json").read_text())
    assert report["cap_reached_at"] > algo.MAX_DENSE_ELEMENTS
    for table in report["complexity"].values():
        assert table["K"] > algo.MAX_DENSE_ELEMENTS
        assert table["oracle_exact"] is None and table["oracle_bound"] > 0


def test_theory_noiseless_C_zero(tmp_path):
    cfg, _errors = cli.resolve_config(cli.load_config("fig1"), "theory")
    cfg["paths"] = 2
    cfg["problem"]["noise_sigmas"] = 0.0
    report = cli.theory_report(cfg)
    # without observation noise the regressor scatter is left: at path 0's x0,
    # E||w_i||^2 = tr(R_i) e_i'R_i e_i + e_i'R_i^2 e_i with e_i = x0_i - x*
    p, _g, _mix = cli.build_instance(cfg)
    e = algo.default_x0(p, oracle.StreamFactory(cfg["seed"]), 1)[0] - p.x_star
    Re = np.einsum("ijk,ik->ij", p.R, e)
    level = math.sqrt(np.max(np.einsum("ijj->i", p.R) * np.einsum("ij,ij->i", e, Re)
                             + np.einsum("ij,ij->i", Re, Re)))
    assert level > 0.0
    assert report["empirical_nu"] == pytest.approx(level, rel=1e-12)
    from dvssgt import theory
    assert report["C_empirical_nu"] == pytest.approx(theory.noise_constant(
        level, report["table_alpha"], report["q"], report["lips"], p.n), rel=1e-12)


def test_sweep_singleton_matches_run(tmp_path):
    path = small_cfg(tmp_path)
    out_sweep = tmp_path / "sw"
    assert cli.main(["sweep", "--preset", "fig1", "--config", path,
                     "--param", "ratio", "--grid", "0.98",
                     "--out", str(out_sweep)]) == 0
    out_run = tmp_path / "r"
    assert cli.main(["run", "--preset", "fig1", "--config", path,
                     "--out", str(out_run)]) == 0
    run_rows = read_rows(out_run / "run_dvss-sgt.csv")
    sweep_rows = read_rows(out_sweep / "sweep_ratio.csv")
    assert len(sweep_rows) == len(run_rows)
    for srow, rrow in zip(sweep_rows, run_rows):
        assert srow["status"] == "ok"
        assert float(srow["mean_combined"]) == float(rrow["mean_combined"])


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


def test_chart_thins_a_long_series_and_keeps_its_extremes():
    ks = np.arange(100_000, dtype=float)
    ys = np.exp(-ks / 30_000) * (1.0 + 0.5 * np.sin(ks / 7.0))
    svg = charts.line_chart_svg([("long", ks, ys)])
    assert len(svg) < 25_000   # one point per iteration would take ~1.4 MB
    [line] = ET.fromstring(svg).iter("{http://www.w3.org/2000/svg}polyline")
    pts = [tuple(map(float, p.split(","))) for p in line.get("points").split()]
    # at most the first, the last and two points per pixel column
    width = charts.WIDTH - charts.MARGIN_L - charts.MARGIN_R
    assert len(pts) <= 2 * (width + 1) + 2
    assert [x for x, _y in pts] == sorted(x for x, _y in pts)
    assert pts[0][0] == charts.MARGIN_L and pts[-1][0] == charts.WIDTH - charts.MARGIN_R
    # the series' largest and smallest values span the plot top to bottom
    ys_px = [y for _x, y in pts]
    assert min(ys_px) == charts.MARGIN_T and max(ys_px) == charts.HEIGHT - charts.MARGIN_B
    # up to twice the width in points a series is drawn point by point
    short = charts.line_chart_svg([("short", ks[:2 * width], ys[:2 * width])])
    [line] = ET.fromstring(short).iter("{http://www.w3.org/2000/svg}polyline")
    assert len(line.get("points").split()) == 2 * width


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
    # the stacked (paths, n, d) iterates: at n = 10 and d = 5, up to 83,886
    # paths (over one iteration, within the trace rule below)
    one = {"stop": {"max_iters": 1}}
    most = cli.load_config("fig1", overrides={"paths": 83_886, **one})
    assert cli.resolve_config(most)[1] == []
    [error] = cli.resolve_config(cli.load_config("fig1", overrides={"paths": 83_887, **one}))[1]
    assert "paths*n*d) = 4194350 elements at paths = 83887, over the limit" in error


def test_trace_arrays_are_bounded():
    def errors(**sections):
        return cli.resolve_config({**cli.load_config("fig1"), **sections})[1]

    # 83,886 paths x 100,001 rows of 6 floats used to end in an _ArrayMemoryError
    assert errors(paths=83_886, stop={"max_iters": 100_000},
                  schedule={"kind": "constant", "size": 1}) == [
        "paths = 83886 over up to 100000 iterations need trace arrays of "
        "paths*(iterations + 1) = 8388683886 elements, over the limit of 4194304"]
    # the iteration bound of each stop rule, at the limit and one step past it
    limit = algo.MAX_DENSE_ELEMENTS
    assert errors(paths=64, stop={"max_iters": limit // 64 - 1}) == []
    assert len(errors(paths=64, stop={"max_iters": limit // 64})) == 1
    # a budget run reaches iteration K once n*batch_total(schedule, K) <= budget,
    # D-SGD (drawing at x(k-1)) once n*batch_total(schedule, K - 1) <= budget;
    # at 65,536 paths no run may reach K = 64
    paths = 1 << 16
    last = limit // paths
    geometric, baseline = algo.geometric_schedule(0.98), algo.constant_schedule(3)
    cost = {"dvss-sgt": 10 * algo.batch_total(geometric, last),
            "d-sgt": 10 * algo.batch_total(baseline, last),
            "d-sgd": 10 * algo.batch_total(baseline, last - 1)}
    assert len(set(cost.values())) == 3
    for command, algorithm, budget in [*(("run", a, c) for a, c in cost.items()),
                                       ("compare", "dvss-sgt", min(cost.values()))]:
        for spent, rejected in ((budget, 1), (budget - 1, 0)):
            cfg = {**cli.load_config("fig1"), "algorithm": algorithm, "paths": paths,
                   "baseline_batch": 3, "stop": {"budget_samples": spent}}
            assert len(cli.resolve_config(cfg, command)[1]) == rejected, (command, algorithm)
    # fig1 stops at k = 490 under 10^7 samples; fig3's baselines would run 10^6 iterations
    assert errors(stop={"budget_samples": 1e7}) == []
    assert len(cli.resolve_config({**cli.load_config("fig3"), "stop": {"budget_samples": 1e7}},
                                  "compare")[1]) == 1
    # run_paths caps a target_eps run by the limit itself, so fig1's 50 paths resolve;
    # theory runs no configured stop, so only run bounds max_iters
    assert errors(stop={"target_eps": 0.05}) == []
    long = {**cli.load_config("fig1"), "stop": {"max_iters": 100_000}}
    assert cli.resolve_config(long, "theory")[1] == []
    assert len(cli.resolve_config(long, "run")[1]) == 1
    # every preset and the 6-path target_eps run resolve
    for name in cli.PRESETS:
        for command in ("run", "compare", "theory"):
            if command != "run" or "algorithm" in cli.PRESETS[name]:
                assert cli.resolve_config(cli.load_config(name), command)[1] == [], name
    assert errors(paths=6, stop={"target_eps": 0.05}) == []
