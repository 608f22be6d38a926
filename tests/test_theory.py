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


def test_find_alpha_equals_a_sequential_bisection():
    # the batched grid and the 3-step rounds take the plain search's decisions,
    # so they return its alpha and rho bit for bit
    rng = np.random.default_rng(20)
    found = 0
    for _ in range(300):
        eta = rng.uniform(0.05, 2.0)
        args = (eta, eta + rng.uniform(0.0, 3.0), rng.uniform(0.0, 0.999),
                int(rng.integers(1, 60)), rng.uniform(0.0, 2.0))
        ref = oracles.sequential_alpha_star(*args)
        if ref is None:
            with pytest.raises(ValueError):
                theory.find_alpha(*args)
            continue
        assert theory.find_alpha(*args) == ref, args
        found += 1
    assert found > 250


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


def test_quantities_past_the_float_range_raise_value_errors():
    # not the OverflowError of a float's ** or of int(math.ceil(inf))
    with pytest.raises(ValueError, match=r"L\^2 leaves the float range"):
        theory.find_alpha(1e160, 1e160, 0.5, 4, 1.0)
    with pytest.raises(ValueError, match=r"alpha\^2 leaves the float range"):
        theory.noise_constant(1.0, 1e160, 0.9, 1e-160, 4)
    for C, z0 in ((math.inf, 1.0), (1.0, math.inf), (math.nan, 1.0), (-1.0, 1.0)):
        with pytest.raises(ValueError, match="must be finite"):
            theory.RateBound(0.5, 0.9, C, z0)
    # C and z0 finite, B = z0 + C/|q - rho| = 2.5e300, and B/eps past the float range
    with pytest.raises(ValueError, match=r"K\(1e-10\) leaves the float range"):
        theory.iteration_complexity(theory.RateBound(0.5, 0.9, 1e300, 1.0), 1e-10)


def test_degenerate_regime_flagged():
    rb = theory.RateBound(0.95, 0.95, 1.0, 10.0)
    assert rb.degenerate
    with pytest.raises(ValueError):
        theory.iteration_complexity(rb, 0.1)
    with pytest.raises(ValueError):
        theory.oracle_complexity(rb, 0.1, algo.geometric_schedule(0.95**2))


def test_iteration_complexity_examples():
    rb = theory.RateBound(0.5, 0.98, 0.0, 10.0)  # prefactor B = 10
    assert rb.regime == "q_dominant"
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
    assert theory.check_error_recursion(trace, cm).max() <= theory.DEGENERATE_TOL


def test_check_error_recursion_zero_noise_run(zero_noise_trace, fig1_instance):
    problem, _g, mix = fig1_instance
    trace, alpha = zero_noise_trace
    cm = theory.build_J(alpha, problem.eta, problem.lips, mix.sigma_A,
                        problem.n, mix.norm_A_minus_I, "eta")
    assert theory.check_error_recursion(trace, cm).max() <= 1e-9


def _per_step_worst(run, q, cm):
    """Componentwise max over k of z(k+1) - (J z(k) + b(k)) on path q of a
    run, one k at a time."""
    alpha, lips, n = cm.alpha, cm.inputs["lips"], cm.inputs["n"]
    z, sum_w_norms, w_step = run.z[q], run.sum_w_norms[q], run.w_step[q]
    worst = np.full(3, -np.inf)
    for k in range(run.iterations):
        sum_w = sum_w_norms[k]
        b = np.array([alpha / n * sum_w, 0.0,
                      w_step[k + 1] + alpha * lips / math.sqrt(n) * sum_w])
        worst = np.maximum(worst, z[k + 1] - (cm.J @ z[k] + b))
    return worst


def test_check_error_recursion_equals_a_per_step_loop(fig1_instance, fig1_run):
    problem, g, mix = fig1_instance
    cm = theory.build_J(0.01, problem.eta, problem.lips, mix.sigma_A,
                        problem.n, mix.norm_A_minus_I)
    # a budget below the first draw stops the path at k = 0
    empty = algo.run_path(problem, mix, g, "dvss-sgt", 0.01, algo.geometric_schedule(0.98),
                          algo.StopRule("budget_samples", 1), seed=2024)
    assert empty.iterations == 0
    run = fig1_run[0]
    for one in [run.path(q) for q in range(5)] + [empty]:
        np.testing.assert_allclose(theory.check_error_recursion(one, cm),
                                   _per_step_worst(one, 0, cm), rtol=0, atol=1e-12)
    assert np.array_equal(theory.check_error_recursion(empty, cm), np.full(3, -np.inf))


def test_check_error_recursion_of_a_run_is_the_worst_of_its_paths(fig1_instance, fig1_run):
    problem, _g, mix = fig1_instance
    cm = theory.build_J(0.01, problem.eta, problem.lips, mix.sigma_A,
                        problem.n, mix.norm_A_minus_I)
    run = fig1_run[0]
    alone = np.array([theory.check_error_recursion(run.path(q), cm)
                      for q in range(len(run.z))])
    assert len(alone) == 50
    worst = theory.check_error_recursion(run, cm)
    assert np.array_equal(worst, alone.max(axis=0))
    # the worst component of each comes from a different path than another's
    assert worst.shape == (3,) and len(set(alone.argmax(axis=0))) > 1
