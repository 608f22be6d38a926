"""Command-line orchestration: single runs, three-way comparisons, theory
reports, and one-parameter sweeps, with CSV + SVG output."""
from __future__ import annotations

import argparse
import copy
import csv
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import algo, charts, graph as graph_mod, metrics, oracle, theory

EXIT_CONFIG_ERROR = 2
EXIT_DIVERGENCE = 3

ALGORITHMS = ("dvss-sgt", "d-sgt", "d-sgd")

_BASE_INSTANCE = {
    "problem": {
        "n": 10,
        "d": 5,
        "x_star": None,            # null means ones/sqrt(d)
        "covariance_spec": "diag-uniform[1,2]",
        "noise_sigmas": 5.0,
        "seed": 7,
    },
    "graph": {"n": 10, "p": 0.3, "seed": 11},
    "alpha": 0.01,
    "schedule": {"kind": "geometric", "ratio": 0.98},
    "seed": 2024,
}

PRESETS = {
    "fig1": {**copy.deepcopy(_BASE_INSTANCE), "algorithm": "dvss-sgt",
             "paths": 50, "stop": {"max_iters": 220}},
    "fig2": {**copy.deepcopy(_BASE_INSTANCE), "algorithm": "dvss-sgt",
             "paths": 20, "stop": {"max_iters": 450}},
    # baselines draw one sampled gradient per agent per iteration
    "fig3": {**copy.deepcopy(_BASE_INSTANCE), "paths": 50,
             "stop": {"budget_samples": 3000}, "baseline_batch": 1},
}


def load_config(preset=None, config_path=None, overrides=None):
    cfg = copy.deepcopy(PRESETS[preset]) if preset else {}
    if config_path:
        with open(config_path) as fh:
            user = json.load(fh)
        _deep_update(cfg, user)
    if overrides:
        _deep_update(cfg, overrides)
    return cfg


def _deep_update(base, extra):
    for key, val in extra.items():
        if isinstance(val, dict) and isinstance(base.get(key), dict):
            _deep_update(base[key], val)
        else:
            base[key] = val


def validate_config(cfg, need_algorithm=True):
    """Itemized validation; returns a list of error messages."""
    errors = []

    def number(name, value, integer, ok=None, requirement=""):
        # bool is an int subclass, but true/false is never a count or a rate
        kinds = int if integer else (int, float)
        if isinstance(value, bool) or not isinstance(value, kinds):
            errors.append(f"{name} must be {'an integer' if integer else 'a number'}, "
                          f"got {value!r}")
            return False
        if ok is not None and not ok(value):
            errors.append(f"{name} must be {requirement}, got {value}")
            return False
        return True

    def optional_seed(name, section):
        if "seed" in section:
            number(name, section["seed"], True)

    prob = cfg.get("problem")
    n_ok = False
    if not isinstance(prob, dict):
        errors.append("missing 'problem' section")
    else:
        n_ok = number("problem.n", prob.get("n"), True, lambda v: v >= 2, ">= 2")
        number("problem.d", prob.get("d"), True, lambda v: v >= 1, ">= 1")
        optional_seed("problem.seed", prob)
    g = cfg.get("graph")
    if not isinstance(g, dict):
        errors.append("missing 'graph' section")
    elif "edge_list" not in g:
        number("graph.p", g.get("p"), False, lambda v: 0.0 < v <= 1.0, "in (0,1]")
        if (number("graph.n", g.get("n"), True, lambda v: v >= 2, ">= 2")
                and n_ok and g["n"] != prob["n"]):
            errors.append(f"graph.n ({g['n']}) must equal problem.n ({prob['n']})")
        optional_seed("graph.seed", g)
    if need_algorithm and cfg.get("algorithm") not in ALGORITHMS:
        errors.append(f"algorithm must be one of {ALGORITHMS}, got {cfg.get('algorithm')}")
    number("alpha", cfg.get("alpha"), False, lambda v: v > 0.0, "positive")
    sched = cfg.get("schedule", {})
    kind = sched.get("kind") if isinstance(sched, dict) else None
    if kind == "geometric":
        number("schedule.ratio", sched.get("ratio"), False, lambda v: 0.0 < v < 1.0,
               "in (0,1)")
    elif kind == "constant":
        number("schedule.size", sched.get("size", 1), True, lambda v: v >= 1, ">= 1")
    else:
        errors.append(f"schedule.kind must be 'geometric' or 'constant', got {kind!r}")
    if kind and "cap" in sched:
        number("schedule.cap", sched["cap"], True, lambda v: v >= 1, ">= 1")
    if "baseline_batch" in cfg:
        number("baseline_batch", cfg["baseline_batch"], True, lambda v: v >= 1, ">= 1")
    number("paths", cfg.get("paths"), True, lambda v: v >= 1, ">= 1")
    optional_seed("seed", cfg)
    stop = cfg.get("stop", {})
    known = {"max_iters", "budget_samples", "target_eps"}
    keys = known & set(stop) if isinstance(stop, dict) else set()
    if len(keys) != 1:
        errors.append(f"stop must contain exactly one of {sorted(known)}, got {stop!r}")
    else:
        key = keys.pop()
        if key == "max_iters":
            number("stop.max_iters", stop[key], True, lambda v: v >= 1, ">= 1")
        else:
            number(f"stop.{key}", stop[key], False, lambda v: v > 0, "positive")
    return errors


def build_instance(cfg):
    prob = cfg["problem"]
    d = prob["d"]
    x_star = prob.get("x_star")
    if x_star is None:
        x_star = np.ones(d) / math.sqrt(d)
    p = oracle.make_regression_problem(
        prob["n"], d, np.asarray(x_star, dtype=float),
        covariance_spec=prob.get("covariance_spec", "diag-uniform[1,2]"),
        noise_spec=prob.get("noise_sigmas", 1.0),
        seed=prob.get("seed", 0),
    )
    gcfg = cfg["graph"]
    try:
        if "edge_list" in gcfg:
            g = graph_mod.Graph.load(gcfg["edge_list"])
        else:
            g = graph_mod.erdos_renyi(gcfg["n"], gcfg["p"], gcfg.get("seed", 0))
    except (OSError, RuntimeError) as exc:
        # a missing edge list, or a graph.p too small to give a connected graph
        raise ValueError(f"graph: {exc}") from exc
    if g.n != p.n:
        raise ValueError(f"graph has {g.n} nodes but problem.n is {p.n}")
    return p, g, graph_mod.metropolis_weights(g)


def _schedule_from(cfg):
    sched = cfg["schedule"]
    if sched["kind"] == "geometric":
        return algo.geometric_schedule(sched["ratio"],
                                       cap=sched.get("cap", algo.DEFAULT_BATCH_CAP))
    return algo.constant_schedule(sched.get("size", 1),
                                  cap=sched.get("cap", algo.DEFAULT_BATCH_CAP))


def _stop_from(cfg):
    stop = cfg["stop"]
    kind = next(k for k in ("max_iters", "budget_samples", "target_eps") if k in stop)
    return algo.StopRule(kind, stop[kind])


def run_experiment(cfg, problem=None, g=None, mix=None, algorithm=None,
                   record_noise=False):
    """Run all sample paths of one algorithm and aggregate the traces."""
    if problem is None:
        problem, g, mix = build_instance(cfg)
    algorithm = algorithm or cfg["algorithm"]
    schedule = _schedule_from(cfg)
    if algorithm != "dvss-sgt":
        schedule = algo.constant_schedule(cfg.get("baseline_batch", 1))
    stop = _stop_from(cfg)
    seed = cfg.get("seed", 0)
    traces = [algo.run_path(problem, mix, g, algorithm, cfg["alpha"], schedule,
                            stop, seed, path=path, record_noise=record_noise)
              for path in range(cfg["paths"])]

    emp_nu = oracle.empirical_noise_level(problem, traces[0].x0, seed=seed)
    result = metrics.aggregate(traces, algorithm=algorithm, config=cfg,
                               empirical_nu=emp_nu)
    if len(result.mean_combined) > 3 and np.all(result.mean_combined > 0):
        result.rate_fit = metrics.fit_geometric_rate(result.mean_combined)
    return result


def _write_outputs(result, out, name, svg_series=None, svg_title="", svg_xlabel="k"):
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    metrics.write_csv(result, out / f"{name}.csv")
    with open(out / "config.json", "w") as fh:
        json.dump(result.config, fh, indent=2, sort_keys=True)
    if svg_series:
        svg = charts.line_chart_svg(svg_series, title=svg_title, xlabel=svg_xlabel,
                                    ylabel="mean combined error (log10)")
        with open(out / f"{name}.svg", "w") as fh:
            fh.write(svg)


def cmd_run(cfg, out):
    result = run_experiment(cfg)
    ks = np.arange(len(result.mean_combined))
    _write_outputs(result, out, f"run_{result.algorithm}",
                   svg_series=[(result.algorithm, ks, result.mean_combined)],
                   svg_title="Mean error vs iteration")
    fit = result.rate_fit
    print(f"{result.algorithm}: {len(ks)-1} iterations, "
          f"final mean error {result.mean_combined[-1]:.4e}"
          + (f", fitted rate {fit.rate:.4f} (R^2 {fit.r_squared:.4f})" if fit else ""))
    return result


def cmd_compare(cfg, out):
    problem, g, mix = build_instance(cfg)
    Path(out).mkdir(parents=True, exist_ok=True)
    results = {}
    series = []
    for algorithm in ALGORITHMS:
        res = run_experiment(cfg, problem=problem, g=g, mix=mix, algorithm=algorithm)
        results[algorithm] = res
        series.append((algorithm, res.cum_samples, res.mean_combined))
        metrics.write_csv(res, Path(out) / f"compare_{algorithm}.csv")
    with open(Path(out) / "config.json", "w") as fh:
        json.dump(cfg, fh, indent=2, sort_keys=True)
    svg = charts.line_chart_svg(series, title="Algorithm comparison",
                                xlabel="cumulative sampled gradients",
                                ylabel="mean combined error (log10)")
    with open(Path(out) / "compare.svg", "w") as fh:
        fh.write(svg)
    for algorithm, res in results.items():
        print(f"{algorithm}: final mean error {res.mean_combined[-1]:.4e} "
              f"after {res.cum_samples[-1]} samples")
    return results


def theory_report(cfg):
    problem, g, mix = build_instance(cfg)
    alpha = cfg["alpha"]
    ratio = cfg["schedule"].get("ratio", 0.98)
    q = math.sqrt(ratio)
    paths = cfg.get("paths", 1)
    seed = cfg.get("seed", 0)

    alpha_star, rho_star = theory.find_alpha(
        problem.eta, problem.lips, mix.sigma_A, problem.n, mix.norm_A_minus_I)

    # empirical z(0) over the configured sample paths
    sched = _schedule_from(cfg)
    z0s = []
    x0_first = None
    for path in range(paths):
        streams = oracle.StreamFactory(seed, path)
        x0 = algo.default_x0(problem, streams)
        if x0_first is None:
            x0_first = x0
        st = algo.start(problem, x0, sched, streams)
        ev = metrics.error_vector(st, problem)
        z0s.append([ev.opt_err, ev.cons_x, ev.cons_y])
    z0_norm = float(np.linalg.norm(np.mean(z0s, axis=0)))
    emp_nu = oracle.empirical_noise_level(problem, x0_first, seed=seed)

    rhos = {}
    for convention in ("eta", "L"):
        try:
            cm = theory.build_J(alpha, problem.eta, problem.lips, mix.sigma_A,
                                problem.n, mix.norm_A_minus_I, convention)
            rhos[convention] = theory.spectral_radius_3x3(cm.J)
        except ValueError as exc:
            rhos[convention] = f"infeasible: {exc}"

    # bound tables need rho < 1; fall back to alpha*/2 (comfortably interior)
    # when the configured step size is infeasible
    table_alpha = alpha
    if not (isinstance(rhos["eta"], float) and rhos["eta"] < 1.0 - theory.FEASIBILITY_MARGIN):
        table_alpha = alpha_star / 2.0
    cm_eta = theory.build_J(table_alpha, problem.eta, problem.lips, mix.sigma_A,
                            problem.n, mix.norm_A_minus_I, "eta")
    rb = theory.RateBound(theory.spectral_radius_3x3(cm_eta.J), q,
                          theory.noise_constant(emp_nu, cm_eta.alpha, q,
                                                problem.lips, problem.n), z0_norm)
    tables = {}
    if not rb.degenerate and max(rb.rho, rb.q) < 1.0:
        for eps in (1e-1, 1e-2, 1e-3, 1e-4):
            K = theory.iteration_complexity(rb, eps)
            oc = theory.oracle_complexity(rb, eps)
            tables[f"{eps:.0e}"] = {
                "K": K,
                "oracle_exact": oc.exact,
                "oracle_bound": oc.closed_form_bound,
                "comm_per_agent": (2 * g.degrees() * K).tolist(),
            }

    # zero-noise self-check of the per-step error recursion
    det = oracle.deterministic(problem)
    trace = algo.run_path(det, mix, g, "dvss-sgt", cm_eta.alpha, sched,
                          algo.StopRule("max_iters", 200), seed, x0=x0_first,
                          record_noise=True)
    lem = theory.check_error_recursion(trace, cm_eta)

    return {
        "table_alpha": table_alpha,
        "eta": problem.eta,
        "lips": problem.lips,
        "sigma_A": mix.sigma_A,
        "norm_A_minus_I": mix.norm_A_minus_I,
        "alpha": alpha,
        "alpha_star": alpha_star,
        "rho_at_alpha_star": rho_star,
        "rho_at_alpha": rhos,
        "q": q,
        "C_empirical_nu": rb.C,
        "empirical_nu": emp_nu,
        "z0_norm": z0_norm,
        "regime": rb.regime,
        "complexity": tables,
        "recursion_max_violation": lem.max_violation,
    }


def cmd_theory(cfg, out=None):
    report = theory_report(cfg)
    text = json.dumps(report, indent=2, sort_keys=True)
    print(text)
    if out:
        Path(out).mkdir(parents=True, exist_ok=True)
        with open(Path(out) / "theory.json", "w") as fh:
            fh.write(text + "\n")
    return report


SWEEP_PARAMETERS = ("alpha", "ratio", "n", "p")


def cmd_sweep(cfg, parameter, grid, out):
    if parameter not in SWEEP_PARAMETERS:
        raise ValueError(f"sweep parameter must be one of {SWEEP_PARAMETERS}")
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for value in grid:
        point = copy.deepcopy(cfg)
        if parameter == "alpha":
            point["alpha"] = value
        elif parameter == "ratio":
            point["schedule"]["ratio"] = value
        elif parameter == "n":
            point["problem"]["n"] = int(value)
            point["graph"]["n"] = int(value)
        else:
            point["graph"]["p"] = value
        problem, g, mix = build_instance(point)
        if parameter == "alpha":
            feasible = value <= 2.0 / (problem.eta + problem.lips)
            if feasible:
                cm = theory.build_J(value, problem.eta, problem.lips, mix.sigma_A,
                                    problem.n, mix.norm_A_minus_I)
                feasible = theory.spectral_radius_3x3(cm.J) < 1.0
            if not feasible:
                rows.append({parameter: value, "k": "", "mean_combined": "",
                             "cum_samples_total": "", "status": "infeasible"})
                continue
        res = run_experiment(point, problem=problem, g=g, mix=mix)
        for k in range(len(res.mean_combined)):
            rows.append({parameter: value, "k": k,
                         "mean_combined": repr(float(res.mean_combined[k])),
                         "cum_samples_total": int(res.cum_samples[k]),
                         "status": "ok"})
    fields = [parameter, "k", "mean_combined", "cum_samples_total", "status"]
    with open(out / f"sweep_{parameter}.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        writer.writerows(rows)
    with open(out / "config.json", "w") as fh:
        json.dump({"base": cfg, "parameter": parameter, "grid": list(grid)},
                  fh, indent=2, sort_keys=True)
    print(f"swept {parameter} over {len(grid)} points -> {out / f'sweep_{parameter}.csv'}")
    return rows


def main(argv=None):
    parser = argparse.ArgumentParser(prog="dvssgt",
                                     description="Distributed stochastic gradient "
                                                 "tracking simulator")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("run", "compare", "theory", "sweep"):
        sp = sub.add_parser(name)
        sp.add_argument("--config", help="JSON config file")
        sp.add_argument("--preset", choices=sorted(PRESETS))
        sp.add_argument("--out", default="out")
        if name == "sweep":
            sp.add_argument("--param", choices=SWEEP_PARAMETERS)
            sp.add_argument("--grid", help="comma-separated grid values")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.preset, args.config)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR

    need_algorithm = args.command in ("run", "sweep")
    errors = validate_config(cfg, need_algorithm=need_algorithm)
    if args.command == "sweep":
        parameter = args.param or cfg.get("sweep", {}).get("parameter")
        grid = cfg.get("sweep", {}).get("grid")
        if args.grid:
            grid = [float(v) for v in args.grid.split(",")]
        if not parameter or not grid:
            errors.append("sweep needs --param and --grid (or a 'sweep' config section)")
    if errors:
        for err in errors:
            print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG_ERROR

    try:
        if args.command == "run":
            cmd_run(cfg, args.out)
        elif args.command == "compare":
            cmd_compare(cfg, args.out)
        elif args.command == "theory":
            cmd_theory(cfg, args.out)
        else:
            cmd_sweep(cfg, parameter, grid, args.out)
    except algo.DivergenceError as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        trace = getattr(exc, "trace", None)
        if trace is not None and len(trace.combined) > 0:
            Path(args.out).mkdir(parents=True, exist_ok=True)
            partial = metrics.aggregate([trace])
            metrics.write_csv(partial, Path(args.out) / "partial_trace.csv")
            print(f"partial trace flushed to {Path(args.out) / 'partial_trace.csv'}",
                  file=sys.stderr)
        return EXIT_DIVERGENCE
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    return 0


if __name__ == "__main__":
    sys.exit(main())
