"""End-to-end acceptance checks. Each test prints one PASS/FAIL line."""
import math

import numpy as np

import oracles
from dvssgt import algo, metrics, oracle, theory


def report(num, name, ok, detail=""):
    print(f"\n[acceptance {num}] {name}: {'PASS' if ok else 'FAIL'}"
          + (f" ({detail})" if detail else ""))
    assert ok, f"acceptance criterion {num} ({name}) failed: {detail}"


def test_criterion_1_linear_convergence(fig1_run):
    result, elapsed = fig1_run
    # k = 20..200: the fit drops the first tenth of the 201 entries
    fit = metrics.fit_geometric_rate(result.mean_combined[:201])
    ok = fit.r_squared >= 0.98 and fit.rate < 1.0 and elapsed <= 60.0
    report(1, "linear convergence (fig1)", ok,
           f"rate={fit.rate:.4f}, R^2={fit.r_squared:.4f}, {elapsed:.1f}s")


def test_criterion_2_oracle_complexity_slope(fig2_run):
    floor = float(np.min(fig2_run.mean_combined))
    eps_grid = 1.2 * floor * np.logspace(1.0, 0.0, 10)  # one decade
    table = metrics.oracle_vs_epsilon(fig2_run, eps_grid)
    ok = np.all(table.samples > 0) and 1.6 <= table.slope <= 2.4
    report(2, "oracle-vs-epsilon slope (fig2)", ok,
           f"slope={table.slope:.3f} over eps [{eps_grid[-1]:.2e}, {eps_grid[0]:.2e}]")


def _window_ratio(err):
    # trailing 50 iterations vs the 50 before them; traces can be shorter
    # than 100 iterations, so "mid" is pinned just ahead of the tail window
    last = err[-50:]
    mid = err[max(0, len(err) - 100):-50]
    return float(last.mean() / mid.mean())


def test_criterion_3_baseline_comparison(fig3_runs):
    finals = {name: res.mean_combined[-1] for name, res in fig3_runs.items()}
    ratios = {name: _window_ratio(res.mean_combined)
              for name, res in fig3_runs.items()}
    ok = (finals["dvss-sgt"] < finals["d-sgt"]
          and finals["dvss-sgt"] < finals["d-sgd"]
          and ratios["d-sgt"] >= 0.5 and ratios["d-sgd"] >= 0.5
          and ratios["dvss-sgt"] <= 0.5)
    detail = ", ".join(f"{name}: final={finals[name]:.3e} ratio={ratios[name]:.2f}"
                       for name in sorted(finals))
    report(3, "baseline comparison (fig3)", ok, detail)


def test_criterion_4_recursion_checker(fig1_instance, fig1_run):
    problem, g, mix = fig1_instance
    cm = theory.build_J(0.01, problem.eta, problem.lips, mix.sigma_A,
                        problem.n, mix.norm_A_minus_I, "eta")
    det = oracle.deterministic(problem)
    zero_trace = algo.run_path(det, mix, g, "dvss-sgt", 0.01,
                               algo.geometric_schedule(0.98),
                               algo.StopRule("max_iters", 200), seed=2024)
    zero_violation = theory.check_error_recursion(zero_trace, cm).max()
    result, _elapsed = fig1_run
    assert len(result.z) == 50
    path_violation = theory.check_error_recursion(result, cm).max()   # over every path
    ok = zero_violation <= 1e-9 and path_violation <= 1e-9
    report(4, "per-step error recursion", ok,
           f"zero-noise max={zero_violation:.2e}, "
           f"50-path max={path_violation:.2e}")


def test_criterion_5_tracking_identity(long_invariant_run):
    _samples, track_dev, _avg_dev = long_invariant_run
    worst = float(track_dev.max())
    report(5, "tracking identity over 500 iterations", worst <= 1e-9,
           f"max deviation {worst:.2e}")


def test_criterion_6_average_recursion(long_invariant_run):
    _samples, _track_dev, avg_dev = long_invariant_run
    worst = float(avg_dev.max())
    report(6, "average-iterate recursion", worst <= 1e-12,
           f"max deviation {worst:.2e}")


def test_criterion_7_theory_consistency(fig1_instance, fig1_alpha_star):
    problem, g, mix = fig1_instance
    alpha_star, rho_star = fig1_alpha_star
    cm = theory.build_J(alpha_star, problem.eta, problem.lips, mix.sigma_A,
                        problem.n, mix.norm_A_minus_I)
    oracle_rho = oracles.spectral_radius(cm.J)
    rho_ok = rho_star < 1.0 and abs(rho_star - oracle_rho) <= 1e-9

    # zero-noise control at a comfortably feasible step size
    alpha = alpha_star / 2.0
    cm_half = theory.build_J(alpha, problem.eta, problem.lips, mix.sigma_A,
                             problem.n, mix.norm_A_minus_I)
    rho = theory.spectral_radius_3x3(cm_half.J)
    det = oracle.deterministic(problem)
    sched = algo.geometric_schedule(0.98)
    streams = oracle.StreamFactory(2024)
    x0 = algo.default_x0(det, streams, 1)
    x, y, _g, _samples = next(algo.iterate(det, mix, alpha, sched, streams, x0, True, 0, math.inf))
    ev0 = metrics.error_vector(x[0], y[0], det)
    z0 = float(np.linalg.norm([ev0.opt_err, ev0.cons_x, ev0.cons_y]))
    rb = theory.RateBound(rho, math.sqrt(0.98), 0.0, z0)
    eps = 1e-3
    K = theory.iteration_complexity(rb, eps)
    trace = algo.run_path(det, mix, g, "dvss-sgt", alpha, sched,
                          algo.StopRule("max_iters", K), seed=2024, x0=x0[0])
    err_at_K = float(np.linalg.norm(trace.z[0, -1]))
    ok = rho_ok and err_at_K <= eps
    report(7, "theory consistency", ok,
           f"rho(alpha*)={rho_star:.6f} vs oracle {oracle_rho:.6f}; "
           f"K({eps:g})={K}, error at K = {err_at_K:.2e}")


def test_criterion_8_accounting(fig1_instance, fig1_run, long_invariant_run):
    problem, g, _mix = fig1_instance
    samples_500, _track, _avg = long_invariant_run
    expect_500 = sum(oracles.exact_geometric_batch(98, 100, k)
                     for k in range(501))
    counts_ok = samples_500 == problem.n * expect_500

    result, _elapsed = fig1_run
    expect_220 = sum(oracles.exact_geometric_batch(98, 100, k)
                     for k in range(221))
    samples_ok = bool(np.all(result.per_agent_samples == expect_220))
    messages_ok = bool(np.array_equal(result.per_agent_messages,
                                      2 * g.degrees() * 220))
    ok = counts_ok and samples_ok and messages_ok
    report(8, "oracle/communication accounting", ok,
           f"500-iter samples/agent={samples_500 // problem.n} "
           f"(expected {expect_500}); messages 2|N_i|K exact={messages_ok}")


def test_criterion_9_statistical_oracle(fig1_instance):
    problem, _g, _mix = fig1_instance
    x = problem.x_star + np.linspace(0.5, -0.5, problem.d)
    X = np.tile(x, (problem.n, 1))
    true = oracle.exact_gradients(problem, X)[0]

    def sampled(batch, streams, k):   # agent 0's gradient from the cell of iteration k
        [cell] = oracle.draw_cells(problem, 1, [batch], [k], streams)
        return oracle.apply_cell(problem, X[None], cell)[0, 0]

    draws = 100_000
    streams = oracle.StreamFactory(101)
    s = sampled(draws, streams, 0)
    singles = np.stack([sampled(1, streams, t)
                        for t in range(1, 5001)])
    se = singles.std(axis=0) / math.sqrt(draws)
    unbiased_ok = bool(np.all(np.abs(s - true) <= 3.0 * se))

    reps = 10_000
    N = 10
    streams = oracle.StreamFactory(102)
    n1 = np.mean([np.sum((sampled(1, streams, t) - true) ** 2)
                  for t in range(reps)])
    nN = np.mean([np.sum((sampled(N, streams, t) - true) ** 2)
                  for t in range(reps, 2 * reps)])
    ratio = float(nN / n1)
    variance_ok = abs(ratio * N - 1.0) <= 0.10
    ok = unbiased_ok and variance_ok
    report(9, "statistical oracle properties", ok,
           f"max |bias|/SE={float(np.max(np.abs(s - true) / se)):.2f}, "
           f"batch-{N} variance ratio x N = {ratio * N:.3f}")
