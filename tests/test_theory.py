import math

import numpy as np
import pytest

import oracles
from dvssgt import algo, graph, oracle, theory


def test_build_J_worked_example():
    cm = theory.build_J(0.05, 1.0, 2.0, 0.5, 4, 1.5, convention="eta")
    expect = np.array([
        [0.95, 0.05, 0.0],
        [0.0, 0.5, 0.05],
        [0.4, 3.2, 0.6],
    ])
    assert np.allclose(cm.J, expect, atol=1e-12)
    rho = theory.spectral_radius_3x3(cm.J)
    assert rho == pytest.approx(oracles.spectral_radius(cm.J), abs=1e-9)


def test_build_J_alpha_zero_spectrum():
    cm = theory.build_J(0.0, 1.0, 2.0, 0.5, 4, 1.5)
    ev = np.sort(np.real(oracles.eigenvalues(cm.J)))
    assert np.allclose(ev, [0.5, 0.5, 1.0], atol=1e-10)
    assert theory.spectral_radius_3x3(cm.J) == pytest.approx(1.0, abs=1e-9)


def test_build_J_small_alpha_radius_near_one():
    cm = theory.build_J(1e-12, 1.0, 2.0, 0.5, 4, 1.5)
    # defective sigma_A block perturbs like sqrt(alpha), so only ~1e-6 accuracy
    assert theory.spectral_radius_3x3(cm.J) == pytest.approx(1.0, abs=1e-5)


def test_build_J_linear_split():
    eta, lips, sigma, n, normAI = 1.2, 2.5, 0.6, 9, 1.4
    J0 = theory.build_J(0.0, eta, lips, sigma, n, normAI).J
    E = np.array([
        [-eta, lips / math.sqrt(n), 0.0],
        [0.0, 0.0, 1.0],
        [math.sqrt(n) * lips**2, lips**2, lips],
    ])
    rng = np.random.default_rng(0)
    for alpha in rng.uniform(1e-4, 2.0 / (eta + lips), size=10):
        J = theory.build_J(alpha, eta, lips, sigma, n, normAI).J
        assert np.allclose(J, J0 + alpha * E, atol=1e-12)


def test_build_J_validation():
    with pytest.raises(ValueError):
        theory.build_J(0.7, 1.0, 2.0, 0.5, 4, 1.5)  # above 2/(eta+L)
    with pytest.raises(ValueError):
        theory.build_J(-0.1, 1.0, 2.0, 0.5, 4, 1.5)
    with pytest.raises(ValueError):
        theory.build_J(0.05, 2.5, 2.0, 0.5, 4, 1.5)  # eta > L
    with pytest.raises(ValueError):
        theory.build_J(0.05, 1.0, 2.0, 1.0, 4, 1.5)  # sigma_A = 1
    with pytest.raises(ValueError):
        theory.build_J(0.05, 1.0, 2.0, 0.5, 4, 1.5, convention="mu")


def test_theta_conventions_differ_only_in_corner():
    kw = dict(alpha=0.05, eta=1.0, lips=2.0, sigma_A=0.5, n=4, norm_AI=1.5)
    Je = theory.build_J(kw["alpha"], kw["eta"], kw["lips"], kw["sigma_A"],
                        kw["n"], kw["norm_AI"], "eta").J
    Jl = theory.build_J(kw["alpha"], kw["eta"], kw["lips"], kw["sigma_A"],
                        kw["n"], kw["norm_AI"], "L").J
    assert Je[0, 0] == pytest.approx(1.0 - 0.05 * 1.0)
    assert Jl[0, 0] == pytest.approx(1.0 - 0.05 * 2.0)
    diff = np.abs(Je - Jl)
    diff[0, 0] = 0.0
    assert np.all(diff == 0.0)


def test_spectral_radius_3x3_diagonal():
    assert theory.spectral_radius_3x3(np.diag([0.3, 0.5, 0.9])) == pytest.approx(
        0.9, abs=1e-9)


def test_find_alpha_on_experiment_instance(fig1_instance, fig1_alpha_star):
    problem, _g, mix = fig1_instance
    alpha_star, rho_star = fig1_alpha_star
    assert 0.0 < alpha_star <= 2.0 / (problem.eta + problem.lips)
    assert rho_star < 1.0
    cm = theory.build_J(alpha_star, problem.eta, problem.lips, mix.sigma_A,
                        problem.n, mix.norm_A_minus_I)
    assert rho_star == pytest.approx(oracles.spectral_radius(cm.J), abs=1e-9)
    # monotone check: half the returned step size is also feasible
    cm2 = theory.build_J(alpha_star / 2.0, problem.eta, problem.lips,
                         mix.sigma_A, problem.n, mix.norm_A_minus_I)
    assert theory.spectral_radius_3x3(cm2.J) < 1.0


def test_find_alpha_degenerate_single_agent():
    alpha, rho = theory.find_alpha(1.0, 1.0, 0.0, 1, 0.0)
    assert alpha > 0.0
    assert rho < 1.0


def test_find_alpha_rejects_sigma_one():
    with pytest.raises(ValueError):
        theory.find_alpha(1.0, 2.0, 1.0, 4, 1.5)


def test_noise_constant_formula():
    assert theory.noise_constant(2.0, 0.1, 0.9, 3.0, 4) == pytest.approx(
        2.0 * math.sqrt(0.1**2 + 4 * (1.0 + 0.9 + 0.3) ** 2))
    assert theory.noise_constant(0.0, 0.1, 0.9, 3.0, 4) == 0.0


def test_rate_bound_values():
    rb = theory.RateBound(0.9, 0.98, 1.0, 10.0)
    assert rb.regime == "q_dominant"
    assert theory.rate_bound(rb, 0) == pytest.approx(10.0 + 1.0 / 0.08)
    expect = 10.0 * 0.9**100 + (1.0 / 0.08) * 0.98**100
    assert theory.rate_bound(rb, 100) == pytest.approx(expect, rel=1e-12)
    assert expect == pytest.approx(1.658, abs=2e-3)
    noiseless = theory.RateBound(0.9, 0.98, 0.0, 10.0)
    assert theory.rate_bound(noiseless, 7) == pytest.approx(10.0 * 0.9**7)
    rho_dom = theory.RateBound(0.98, 0.9, 1.0, 10.0)
    assert rho_dom.regime == "rho_dominant"
    assert theory.rate_bound(rho_dom, 5) == pytest.approx(
        (10.0 + 1.0 / 0.08) * 0.98**5)


def test_rate_bound_monotone_nonincreasing():
    for rb in (theory.RateBound(0.9, 0.98, 1.0, 10.0),
               theory.RateBound(0.98, 0.9, 1.0, 10.0)):
        vals = [theory.rate_bound(rb, k) for k in range(1, 300)]
        assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))


def test_degenerate_regime_flagged():
    rb = theory.RateBound(0.95, 0.95, 1.0, 10.0)
    assert rb.degenerate
    with pytest.raises(ValueError):
        theory.rate_bound(rb, 10)
    with pytest.raises(ValueError):
        theory.iteration_complexity(rb, 0.1)
    with pytest.raises(ValueError):
        theory.oracle_complexity(rb, 0.1, algo.geometric_schedule(0.95**2))


def test_iteration_complexity_examples():
    rb = theory.RateBound(0.5, 0.98, 0.0, 10.0)  # prefactor B = 10
    assert theory.iteration_complexity(rb, 10.0) == 0
    assert theory.iteration_complexity(rb, 0.1) == 228
    with pytest.raises(ValueError):
        theory.iteration_complexity(rb, 0.0)
    no_decay = theory.RateBound(0.5, 1.0, 0.0, 10.0)
    with pytest.raises(ValueError):
        theory.iteration_complexity(no_decay, 0.1)


def test_iteration_complexity_tightness():
    rb = theory.RateBound(0.9, 0.97, 0.5, 8.0)
    for eps in (0.5, 0.05, 0.005):
        K = theory.iteration_complexity(rb, eps)
        base = rb.envelope_base
        assert rb.prefactor * base**K <= eps * (1.0 + 1e-12)
        if K > 0:
            assert rb.prefactor * base ** (K - 1) > eps


def test_communication_complexity():
    g = graph.Graph.from_edges(3, [(0, 1), (1, 2)])
    rb = theory.RateBound(0.5, 0.98, 0.0, 10.0)
    K = theory.iteration_complexity(rb, 0.1)
    assert np.array_equal(theory.communication_complexity(g, rb, 0.1),
                          2 * g.degrees() * K)


def test_oracle_complexity_exact_vs_bound():
    q = math.sqrt(0.98)
    rb = theory.RateBound(0.9, q, 1.0, 10.0)
    sched = algo.geometric_schedule(0.98)
    oc = theory.oracle_complexity(rb, 0.05, sched)
    expect_exact = sum(oracles.exact_geometric_batch(98, 100, k)
                       for k in range(oc.iterations + 1))
    assert oc.exact == expect_exact
    # the printed closed form bounds the idealized sum (real-valued K, no
    # ceilings); the implemented sum exceeds it by at most a q^-2 factor for
    # the integer K plus one unit per ceiled term
    assert oc.exact <= oc.closed_form_bound / q**2 + oc.iterations + 1
    assert oc.exact >= 0.5 * oc.closed_form_bound
    # K = 0 consumes exactly the single initialization sample
    easy = theory.oracle_complexity(rb, rb.prefactor + 1.0, sched)
    assert easy.iterations == 0
    assert easy.exact == 1


def test_oracle_complexity_rho_dominant_branch():
    rb = theory.RateBound(0.995, math.sqrt(0.98), 1.0, 10.0)
    assert rb.regime == "rho_dominant"
    oc = theory.oracle_complexity(rb, 0.05, algo.geometric_schedule(0.98))
    assert oc.exact <= oc.closed_form_bound / 0.98 + oc.iterations + 1


def test_oracle_complexity_bound_overflow_is_none():
    # q = 0.5 against rho = 0.999 raises B/eps to the power 2 ln 2 / ln(1/0.999)
    rb = theory.RateBound(0.999, 0.5, 1.0, 10.0)
    oc = theory.oracle_complexity(rb, 1e-4, algo.geometric_schedule(0.25))
    assert oc.closed_form_bound is None
    assert oc.iterations == theory.iteration_complexity(rb, 1e-4)
    assert oc.exact > 0


def test_oracle_complexity_quadratic_slope():
    q = math.sqrt(0.98)
    rb = theory.RateBound(0.9, q, 1.0, 10.0)
    eps_grid = np.logspace(-1, -3, 7)
    sched = algo.geometric_schedule(0.98)
    counts = [theory.oracle_complexity(rb, eps, sched).exact for eps in eps_grid]
    slope = np.polyfit(np.log(1.0 / eps_grid), np.log(counts), 1)[0]
    assert slope == pytest.approx(2.0, abs=0.05)


def test_check_error_recursion_zero_state_fixed_point():
    # consensus optimum with identical objectives: z stays identically zero
    p = oracle.make_regression_problem(3, 2, np.array([1.0, -1.0]),
                                       covariance_spec="identity",
                                       noise_spec=0.0, seed=0)
    p = oracle.deterministic(p)
    g = graph.Graph.from_edges(3, [(0, 1), (1, 2)])
    mix = graph.metropolis_weights(g)
    trace = algo.run_path(p, mix, g, "dvss-sgt", 0.1,
                          algo.constant_schedule(1),
                          algo.StopRule("max_iters", 30), seed=0,
                          x0=np.tile(p.x_star, (3, 1)))
    assert np.allclose(trace.z, 0.0, atol=1e-14)
    cm = theory.build_J(0.1, p.eta, p.lips, mix.sigma_A, p.n, mix.norm_A_minus_I)
    report = theory.check_error_recursion(trace, cm)
    assert report.passed
    assert report.steps == 30


def test_check_error_recursion_zero_noise_run(zero_noise_trace, fig1_instance):
    problem, _g, mix = fig1_instance
    trace, alpha = zero_noise_trace
    cm = theory.build_J(alpha, problem.eta, problem.lips, mix.sigma_A,
                        problem.n, mix.norm_A_minus_I, "eta")
    report = theory.check_error_recursion(trace, cm)
    assert report.max_violation <= 1e-9


def _per_step_worst(trace, cm):
    """Componentwise max over k of z(k+1) - (J z(k) + b(k)), one k at a time."""
    alpha, lips, n = cm.alpha, cm.inputs["lips"], cm.inputs["n"]
    worst = np.full(3, -np.inf)
    for k in range(trace.iterations):
        sum_w = trace.sum_w_norms[k]
        b = np.array([alpha / n * sum_w, 0.0,
                      trace.w_step[k + 1] + alpha * lips / math.sqrt(n) * sum_w])
        worst = np.maximum(worst, trace.z[k + 1] - (cm.J @ trace.z[k] + b))
    return worst


def test_check_error_recursion_equals_a_per_step_loop(fig1_instance, fig1_run):
    problem, g, mix = fig1_instance
    cm = theory.build_J(0.01, problem.eta, problem.lips, mix.sigma_A,
                        problem.n, mix.norm_A_minus_I)
    # a budget below the first draw stops the path at k = 0
    empty = algo.run_path(problem, mix, g, "dvss-sgt", 0.01, algo.geometric_schedule(0.98),
                          algo.StopRule("budget_samples", 1), seed=2024)
    assert empty.iterations == 0
    for trace in fig1_run[0].traces[:5] + [empty]:
        report = theory.check_error_recursion(trace, cm)
        worst = _per_step_worst(trace, cm)
        assert report.steps == trace.iterations
        np.testing.assert_allclose(report.per_component_max, worst, rtol=0, atol=1e-12)
        np.testing.assert_allclose(report.max_violation, worst.max(), rtol=0, atol=1e-12)
