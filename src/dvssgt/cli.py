"""Command-line orchestration: single runs, three-way comparisons, theory
reports, and one-parameter sweeps, with CSV + SVG output."""
from __future__ import annotations

import argparse
import copy
import csv
import difflib
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
    "problem": {"n": 10, "d": 5, "noise_sigmas": 5.0, "seed": 7},
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

# sweep parameter -> the config keys each grid value is written to
SWEEP_KEYS = {"alpha": ("alpha",), "ratio": ("schedule.ratio",),
              "n": ("problem.n", "graph.n"), "p": ("graph.p",)}

# value types and requirements: (what the error message says, predicate); type()
# rules out true/false, and a number must convert to a finite float
INTEGER = ("an integer", lambda v: type(v) is int)
NUMBER = ("a number", lambda v: type(v) in (int, float) and abs(v) <= sys.float_info.max)
NUMBERS = ("a list of numbers", lambda v: type(v) is list and all(map(NUMBER[1], v)))
STRING = ("a string", lambda v: type(v) is str)
POSITIVE = ("positive", lambda v: v > 0)
AT_LEAST_1 = (">= 1", lambda v: v >= 1)
AT_LEAST_2 = (">= 2", lambda v: v >= 2)

REQUIRED, OPTIONAL = object(), object()

# largest n*n (graph, mixing matrix), n*d*d (covariances, draws) or
# paths*n*d (the stacked iterates of a run) array a config may need: 32 MiB
# of float64, so n <= 2048
MAX_DENSE_ELEMENTS = 1 << 22

# Every config key once, as (type, requirement or None, default). REQUIRED
# keys have no default; OPTIONAL ones stay absent unless given, and
# resolve_config says when they are needed.
SCHEMA = {
    "problem": {
        "n": (INTEGER, AT_LEAST_2, REQUIRED),
        "d": (INTEGER, AT_LEAST_1, REQUIRED),
        "x_star": (("null or a list of numbers", lambda v: v is None or NUMBERS[1](v)),
                   None, None),    # null means ones/sqrt(d)
        "covariance_spec": (STRING, None, "diag-uniform[1,2]"),
        "noise_sigmas": (("a number or a list of numbers",
                          lambda v: NUMBER[1](v) or NUMBERS[1](v)), None, 1.0),
        "seed": (INTEGER, None, 0),
    },
    "graph": {
        "n": (INTEGER, AT_LEAST_2, OPTIONAL),
        "p": (NUMBER, ("in (0,1]", lambda v: 0.0 < v <= 1.0), OPTIONAL),
        "seed": (INTEGER, None, 0),
        "edge_list": (STRING, None, OPTIONAL),   # a file; replaces n, p and seed
    },
    "algorithm": (STRING, (f"one of {ALGORITHMS}", lambda v: v in ALGORITHMS), OPTIONAL),
    "alpha": (NUMBER, POSITIVE, REQUIRED),
    "schedule": {
        "kind": (STRING, ("one of ('geometric', 'constant')",
                          lambda v: v in ("geometric", "constant")), REQUIRED),
        "ratio": (NUMBER, ("in (0,1)", lambda v: 0.0 < v < 1.0), OPTIONAL),
        "size": (INTEGER, AT_LEAST_1, 1),
        "cap": (INTEGER, AT_LEAST_1, algo.DEFAULT_BATCH_CAP),
    },
    "baseline_batch": (INTEGER, AT_LEAST_1, 1),   # the D-SGT and D-SGD batch
    "paths": (INTEGER, AT_LEAST_1, REQUIRED),
    "seed": (INTEGER, None, 0),                     # sampling seed of every path
    "stop": {                                       # exactly one of the three
        "max_iters": (INTEGER, AT_LEAST_1, OPTIONAL),
        "budget_samples": (NUMBER, POSITIVE, OPTIONAL),
        "target_eps": (NUMBER, POSITIVE, OPTIONAL),
    },
    "sweep": {                                      # read by `dvssgt sweep` only
        "parameter": (STRING, (f"one of {tuple(SWEEP_KEYS)}", lambda v: v in SWEEP_KEYS),
                      OPTIONAL),
        "grid": (("a non-empty list", lambda v: type(v) is list and v != []), None, OPTIONAL),
    },
}


def load_config(preset=None, config_path=None, overrides=None):
    """A preset with a JSON config file and then overrides laid over it, unchecked."""
    cfg = copy.deepcopy(PRESETS[preset]) if preset else {}
    if config_path:
        with open(config_path) as fh:
            cfg = _merge(cfg, json.load(fh))
    if overrides:
        cfg = _merge(cfg, overrides)
    return cfg


def _merge(base, extra):
    """extra laid over base, key by key wherever both are JSON objects."""
    if not (isinstance(base, dict) and isinstance(extra, dict)):
        return extra
    return {**base, **{key: _merge(base[key], val) if key in base else val
                       for key, val in extra.items()}}


def _walk(schema, cfg, prefix, errors):
    """cfg's keys checked against the schema, with its defaults filled in."""
    if not isinstance(cfg, dict):
        errors.append(f"{prefix[:-1] or 'config'} must be a JSON object, got {cfg!r}")
        return {}
    for key in cfg:
        if key not in schema:
            near = difflib.get_close_matches(str(key), list(schema), n=1)
            errors.append(f"unknown key {prefix}{key}"
                          + (f" (did you mean {prefix}{near[0]}?)" if near else ""))
    out = {}
    for key, spec in schema.items():
        name = prefix + key
        if isinstance(spec, dict):
            out[key] = _walk(spec, cfg[key] if key in cfg else {}, name + ".", errors)
        elif key in cfg:
            (kind, is_kind), requirement, _default = spec
            out[key] = value = cfg[key]
            if not is_kind(value):
                errors.append(f"{name} must be {kind}, got {value!r}")
            elif requirement and not requirement[1](value):
                errors.append(f"{name} must be {requirement[0]}, got {value}")
        elif spec[2] is REQUIRED:
            errors.append(f"{name} is required")
        elif spec[2] is not OPTIONAL:
            out[key] = spec[2]
    return out


def resolve_config(cfg, command="run"):
    """(cfg with every default filled in, itemized errors) for one command."""
    errors = []
    out = _walk(SCHEMA, cfg, "", errors)
    if not out:
        return out, errors
    g, sched, stop, sweep = out["graph"], out["schedule"], out["stop"], out["sweep"]
    if len(stop) != 1:
        errors.append(f"stop must contain exactly one of {sorted(SCHEMA['stop'])}, "
                      f"got {stop!r}")
    if "edge_list" not in g:
        errors += [f"graph.{key} is required unless graph.edge_list is given"
                   for key in ("n", "p") if key not in g]
    if ("kind", "geometric") in sched.items() and "ratio" not in sched:
        errors.append("schedule.ratio is required when schedule.kind is 'geometric'")
    if command in ("run", "sweep") and "algorithm" not in out:
        errors.append(f"algorithm is required for {command}")
    if command == "theory" and ("kind", "geometric") not in sched.items():
        errors.append("theory needs a geometric schedule: q = sqrt(schedule.ratio)")
    if command == "sweep" and not {"parameter", "grid"} <= sweep.keys():
        errors.append("sweep needs --param and --grid (or a 'sweep' config section)")
    if command != "sweep":
        del out["sweep"]
    # rules between values hold only once every value has its type
    if errors:
        return out, errors
    n, d, paths = out["problem"]["n"], out["problem"]["d"], out["paths"]
    if "n" in g and g["n"] != n:
        errors.append(f"graph.n ({g['n']}) must equal problem.n ({n})")
    errors += [f"{name} must be <= {algo.DEFAULT_BATCH_CAP}, got {value}" for name, value in
               (("schedule.size", sched["size"]), ("schedule.cap", sched["cap"]),
                ("baseline_batch", out["baseline_batch"])) if value > algo.DEFAULT_BATCH_CAP]
    dense = max(n * n, n * d * d, paths * n * d)
    if dense > MAX_DENSE_ELEMENTS:
        errors.append(f"problem.n = {n} and problem.d = {d} need dense arrays of "
                      f"max(n*n, n*d*d, paths*n*d) = {dense} elements at paths = {paths}, "
                      f"over the limit of {MAX_DENSE_ELEMENTS}")
    if command == "sweep":
        for value in sweep["grid"]:
            errors += resolve_config(_sweep_point(out, value), "run")[1]
    return out, errors


def _sweep_point(cfg, value):
    point = copy.deepcopy(cfg)
    for key_path in SWEEP_KEYS[cfg["sweep"]["parameter"]]:
        section, _, key = key_path.rpartition(".")
        (point[section] if section else point)[key] = value
    return point


def build_instance(cfg):
    prob, gcfg = cfg["problem"], cfg["graph"]
    x_star = prob["x_star"]
    if x_star is None:
        x_star = np.ones(prob["d"]) / math.sqrt(prob["d"])
    p = oracle.make_regression_problem(
        prob["n"], prob["d"], np.asarray(x_star, dtype=float),
        covariance_spec=prob["covariance_spec"], noise_spec=prob["noise_sigmas"],
        seed=prob["seed"])
    try:
        if "edge_list" in gcfg:
            g = graph_mod.Graph.load(gcfg["edge_list"])
        else:
            g = graph_mod.erdos_renyi(gcfg["n"], gcfg["p"], gcfg["seed"])
    except (OSError, RuntimeError) as exc:
        # a missing edge list, or a graph.p too small to give a connected graph
        raise ValueError(f"graph: {exc}") from exc
    if g.n != p.n:
        raise ValueError(f"graph has {g.n} nodes but problem.n is {p.n}")
    return p, g, graph_mod.metropolis_weights(g)


def run_experiment(cfg, problem=None, g=None, mix=None, algorithm=None):
    """Run all sample paths of one algorithm and aggregate the traces."""
    if problem is None:
        problem, g, mix = build_instance(cfg)
    algorithm = algorithm or cfg["algorithm"]
    schedule = algo.BatchSchedule(**cfg["schedule"])
    if algorithm != "dvss-sgt":
        schedule = algo.constant_schedule(cfg["baseline_batch"])
    [stop] = cfg["stop"].items()
    traces = algo.run_paths(problem, mix, g, algorithm, cfg["alpha"], schedule,
                            algo.StopRule(*stop), cfg["seed"], range(cfg["paths"]))

    result = metrics.aggregate(traces, algorithm=algorithm)
    if len(result.mean_combined) > 3 and np.all(result.mean_combined > 0):
        result.rate_fit = metrics.fit_geometric_rate(result.mean_combined)
    return result


def _out_dir(cfg, out):
    """out, created, with the config echo (every default included) written to it."""
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.json").write_text(json.dumps(cfg, indent=2, sort_keys=True))
    return out


def _svg(series, title, xlabel):
    return charts.line_chart_svg(series, title=title, xlabel=xlabel,
                                 ylabel="mean combined error (log10)")


def cmd_run(cfg, out):
    result = run_experiment(cfg)
    ks = np.arange(len(result.mean_combined))
    out = _out_dir(cfg, out)
    metrics.write_csv(result, out / f"run_{result.algorithm}.csv")
    (out / f"run_{result.algorithm}.svg").write_text(_svg(
        [(result.algorithm, ks, result.mean_combined)], "Mean error vs iteration", "k"))
    fit = result.rate_fit
    print(f"{result.algorithm}: {len(ks)-1} iterations, "
          f"final mean error {result.mean_combined[-1]:.4e}"
          + (f", fitted rate {fit.rate:.4f} (R^2 {fit.r_squared:.4f})" if fit else ""))
    return result


def cmd_compare(cfg, out):
    problem, g, mix = build_instance(cfg)
    out = _out_dir(cfg, out)
    results = {}
    for algorithm in ALGORITHMS:
        res = results[algorithm] = run_experiment(cfg, problem=problem, g=g, mix=mix,
                                                  algorithm=algorithm)
        metrics.write_csv(res, out / f"compare_{algorithm}.csv")
        print(f"{algorithm}: final mean error {res.mean_combined[-1]:.4e} "
              f"after {res.cum_samples[-1]} samples")
    (out / "compare.svg").write_text(_svg(
        [(a, res.cum_samples, res.mean_combined) for a, res in results.items()],
        "Algorithm comparison", "cumulative sampled gradients"))
    return results


def _rho_at(alpha, problem, mix, convention="eta"):
    """rho(J(alpha)), or why J(alpha) is not defined (alpha > 2/(eta+L))."""
    try:
        return theory.spectral_radius_3x3(theory.build_J(
            alpha, problem.eta, problem.lips, mix.sigma_A, problem.n,
            mix.norm_A_minus_I, convention).J)
    except ValueError as exc:
        return f"infeasible: {exc}"


def theory_report(cfg):
    problem, g, mix = build_instance(cfg)
    alpha = cfg["alpha"]
    q = math.sqrt(cfg["schedule"]["ratio"])

    alpha_star, rho_star = theory.find_alpha(
        problem.eta, problem.lips, mix.sigma_A, problem.n, mix.norm_A_minus_I)

    # empirical z(0) over the configured sample paths
    sched = algo.BatchSchedule(**cfg["schedule"])
    streams = oracle.StreamFactory(cfg["seed"], range(cfg["paths"]))
    x0s = algo.default_x0(problem, streams)
    ev = metrics.error_vector(algo.start(problem, x0s, sched, streams), problem)
    z0 = np.stack([ev.opt_err, ev.cons_x, ev.cons_y], axis=-1)   # one row per path
    z0_norm = float(np.linalg.norm(np.mean(z0, axis=0)))
    emp_nu = oracle.empirical_noise_level(problem, x0s[0], seed=cfg["seed"])

    rhos = {convention: _rho_at(alpha, problem, mix, convention)
            for convention in ("eta", "L")}

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
            oc = theory.oracle_complexity(rb, eps, sched)
            tables[f"{eps:.0e}"] = {
                "K": oc.iterations,
                "oracle_exact": oc.exact,
                "oracle_bound": oc.closed_form_bound,
                "comm_per_agent": theory.communication_complexity(g, rb, eps).tolist(),
            }

    # zero-noise self-check of the per-step error recursion
    det = oracle.deterministic(problem)
    trace = algo.run_path(det, mix, g, "dvss-sgt", cm_eta.alpha, sched,
                          algo.StopRule("max_iters", 200), cfg["seed"])
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


def cmd_theory(cfg, out):
    report = theory_report(cfg)
    text = json.dumps(report, indent=2, sort_keys=True)
    print(text)
    (_out_dir(cfg, out) / "theory.json").write_text(text + "\n")
    return report


def cmd_sweep(cfg, out):
    parameter, grid = cfg["sweep"]["parameter"], cfg["sweep"]["grid"]
    out = _out_dir(cfg, out)
    rows = []
    for value in grid:
        point = _sweep_point(cfg, value)
        problem, g, mix = build_instance(point)
        if parameter == "alpha":
            rho = _rho_at(value, problem, mix)
            if not (isinstance(rho, float) and rho < 1.0):
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
    print(f"swept {parameter} over {len(grid)} points -> {out / f'sweep_{parameter}.csv'}")
    return rows


COMMANDS = {"run": cmd_run, "compare": cmd_compare, "theory": cmd_theory, "sweep": cmd_sweep}


def _grid_value(text):
    """A --grid item as the JSON value it spells, else as a string for the schema."""
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def main(argv=None):
    parser = argparse.ArgumentParser(prog="dvssgt",
                                     description="Distributed stochastic gradient "
                                                 "tracking simulator")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", help="JSON config file")
        sp.add_argument("--preset", choices=sorted(PRESETS))
        sp.add_argument("--out", default="out")
        if name == "sweep":
            sp.add_argument("--param", choices=SWEEP_KEYS)
            sp.add_argument("--grid", help="comma-separated grid values")
    args = parser.parse_args(argv)
    # --param and --grid override the config's sweep section
    flags = {}
    if args.command == "sweep" and args.param:
        flags["parameter"] = args.param
    if args.command == "sweep" and args.grid:
        flags["grid"] = [_grid_value(v) for v in args.grid.split(",")]

    try:
        cfg, errors = resolve_config(
            load_config(args.preset, args.config, flags and {"sweep": flags}),
            args.command)
        if not errors:
            COMMANDS[args.command](cfg, args.out)
    except algo.DivergenceError as exc:
        # run_paths attaches the lowest diverged path's trace, k = 0 included
        print(f"divergence: {exc}", file=sys.stderr)
        partial = Path(args.out) / "partial_trace.csv"
        partial.parent.mkdir(parents=True, exist_ok=True)
        metrics.write_csv(metrics.aggregate([exc.trace]), partial)
        print(f"partial trace flushed to {partial}", file=sys.stderr)
        return EXIT_DIVERGENCE
    except (OSError, ValueError) as exc:   # json.JSONDecodeError is a ValueError
        errors = [exc]
    for err in errors:
        print(f"config error: {err}", file=sys.stderr)
    return EXIT_CONFIG_ERROR if errors else 0


if __name__ == "__main__":
    sys.exit(main())
