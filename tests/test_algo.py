import dataclasses
import itertools
import json
import math
import sys

import numpy as np
import pytest

import oracles
from dvssgt import algo, cli, graph, metrics, oracle, theory


def scalar_problem(noise_spec=0.0):
    """n=2, d=1, f_i(x) = 1/2 (x-1)^2 via identity covariance."""
    p = oracle.make_regression_problem(2, 1, np.array([1.0]),
                                       covariance_spec="identity",
                                       noise_spec=noise_spec, seed=0)
    return oracle.deterministic(p) if noise_spec == 0.0 else p


def k2_mix():
    return graph.metropolis_weights(graph.Graph.from_edges(2, [(0, 1)]))


def path3_instance(covariance_spec="identity"):
    g = graph.Graph.from_edges(3, [(0, 1), (1, 2)])
    p = oracle.make_regression_problem(3, 2, np.array([1.0, -2.0]),
                                       covariance_spec=covariance_spec,
                                       noise_spec=0.0, seed=1)
    return oracle.deterministic(p), g, graph.metropolis_weights(g)


def _states(p, mix, alpha, sched, x0, steps, tracking=True, seed=0):
    """States 0..steps of the one path that starts at x0 (n, d), each (x, y,
    g, samples) of a block algo.iterate yields, less the path axis."""
    blocks = algo.iterate(p, mix, alpha, sched, oracle.StreamFactory(seed),
                          np.array([x0], dtype=float), tracking, steps, math.inf)
    return [(x[0], y[0], g[0], samples) for block in blocks for x, y, g, samples in zip(*block)]


def test_batch_schedule_validation():
    with pytest.raises(ValueError):
        algo.geometric_schedule(1.0)
    with pytest.raises(ValueError):
        algo.geometric_schedule(0.0)
    with pytest.raises(ValueError):
        algo.constant_schedule(0)
    with pytest.raises(ValueError):
        algo.BatchSchedule("fibonacci")
    with pytest.raises(ValueError):
        algo.geometric_schedule(0.98, cap=0)


def test_batch_size_examples():
    s = algo.geometric_schedule(0.98)
    assert algo.batch_size(s, 0) == 1
    assert algo.batch_size(s, 1) == 2
    assert algo.batch_size(s, 100) == 8
    with pytest.raises(ValueError):
        algo.batch_size(s, -1)


def test_batch_size_matches_exact_rational_oracle():
    s = algo.geometric_schedule(0.98)
    for k in range(301):
        assert algo.batch_size(s, k) == oracles.exact_geometric_batch(98, 100, k)


def test_batch_size_nondecreasing_and_capped():
    s = algo.geometric_schedule(0.9, cap=500)
    sizes = [algo.batch_size(s, k) for k in range(200)]
    assert all(b <= a for a, b in zip(sizes[1:], sizes))
    assert sizes[-1] == 500
    # log-space evaluation survives exponents that overflow a float power
    assert algo.batch_size(algo.geometric_schedule(0.5), 10_000) == algo.DEFAULT_BATCH_CAP


def test_cap_reached_at_matches_a_scan():
    # ratio 0.5 meets the caps at exact powers of two, where the float-dust rule decides
    for ratio in (0.5, 0.7, 0.9, 0.98, 0.999):
        for cap in (1, 2, 3, 4, 5, 8, 9, 100, 1024, 1025, 10**6):
            s = algo.geometric_schedule(ratio, cap=cap)
            scan = next(k for k in itertools.count() if algo.batch_size(s, k) == cap)
            assert algo.cap_reached_at(s) == scan, (ratio, cap)
    s = algo.geometric_schedule(0.98)
    k = algo.cap_reached_at(s)
    assert algo.batch_size(s, k - 1) < algo.DEFAULT_BATCH_CAP == algo.batch_size(s, k)


def test_batch_size_constant():
    s = algo.constant_schedule(7, cap=5)
    assert algo.batch_size(s, 0) == 5
    assert algo.batch_size(algo.constant_schedule(3), 99) == 3


def test_start_zero_noise():
    p, g, mix = path3_instance()
    sched = algo.geometric_schedule(0.98)
    streams = oracle.StreamFactory(1)
    x0 = algo.default_x0(p, streams, 2)
    states = algo.iterate(p, mix, 0.1, sched, streams, x0, True, 10, math.inf)
    (x,), (y,), (g0,), (samples,) = next(states)
    assert np.array_equal(x, x0) and np.allclose(y, oracle.exact_gradients(p, x0))
    assert np.array_equal(y, g0)
    assert samples == p.n  # N(0) = 1 for a geometric schedule
    # without tracking, or under a budget below the first draw, y(0) = g(0) = 0
    for tracking, budget in ((False, math.inf), (True, p.n - 1)):
        (x,), (y,), (g0,), (samples,) = next(algo.iterate(p, mix, 0.1, sched, streams, x0,
                                                          tracking, 10, budget))
        assert not y.any() and not g0.any() and samples == 0
    # a budget of exactly n N(0) pays for y(0)
    (x,), (y,), (g0,), (samples,) = next(algo.iterate(p, mix, 0.1, sched, streams, x0, True,
                                                      10, p.n))
    assert samples == p.n and np.array_equal(y, oracle.exact_gradients(p, x0))
    with pytest.raises(ValueError):
        algo.run_path(p, mix, g, "dvss-sgt", 0.1, sched, algo.StopRule("max_iters", 3),
                      seed=1, x0=np.zeros((p.n + 1, p.d)))


def test_hand_stepped_two_agent_example():
    p = scalar_problem()
    alpha = 0.3
    _first, (x, y, _g, _n) = _states(p, k2_mix(), alpha, algo.constant_schedule(1),
                                     [[0.0], [2.0]], 1)
    assert np.allclose(x[:, 0], [1.0 + alpha, 1.0 - alpha], atol=1e-14)
    assert np.allclose(y[:, 0], [1.0 + alpha, -(1.0 + alpha)], atol=1e-14)
    assert y.mean() == pytest.approx(0.0, abs=1e-14)


def test_fixed_point_at_consensus_optimum():
    p, _g, mix = path3_instance()
    x0 = np.tile(p.x_star, (p.n, 1))
    x, y, _g, _n = _states(p, mix, 0.2, algo.constant_schedule(1), x0, 10)[-1]
    assert np.allclose(x, x0, atol=1e-14)
    assert np.allclose(y, 0.0, atol=1e-14)


def test_step_rejects_nonpositive_alpha():
    p, g, mix = path3_instance()
    sched, stop = algo.constant_schedule(1), algo.StopRule("max_iters", 3)
    with pytest.raises(ValueError):
        algo.run_path(p, mix, g, "dvss-sgt", 0.0, sched, stop, seed=0)
    with pytest.raises(ValueError):
        algo.run_path(p, mix, g, "d-sgd", -0.1, sched, stop, seed=0)


def test_dsgd_alpha_zero_is_pure_mixing():
    p, _g, mix = path3_instance()
    x0 = np.arange(6, dtype=float).reshape(3, 2)
    x, _y, _g, _n = _states(p, mix, 0.0, algo.constant_schedule(1), x0, 1, tracking=False)[-1]
    assert np.allclose(x, mix.A @ x0, atol=1e-14)


def test_dsgd_alpha_zero_run_is_pure_mixing_under_noise():
    # the noisy draws are taken and counted, but alpha = 0 never applies them
    p = oracle.make_regression_problem(3, 2, np.array([0.5, -0.5]),
                                       noise_spec=1.0, seed=3)
    g = graph.Graph.from_edges(3, [(0, 1), (1, 2)])
    mix = graph.metropolis_weights(g)
    x0 = np.arange(6, dtype=float).reshape(3, 2)
    run = algo.run_path(p, mix, g, "d-sgd", 0.0, algo.constant_schedule(1),
                        algo.StopRule("max_iters", 8), seed=2, x0=x0)
    xbar = x0.mean(axis=0)
    assert run.z.shape == (1, 9, 3)
    for k in range(9):
        xk = np.linalg.matrix_power(mix.A, k) @ x0
        assert run.z[0, k, 0] == pytest.approx(np.linalg.norm(xbar - p.x_star), rel=1e-12)
        assert run.z[0, k, 1] == pytest.approx(np.linalg.norm(xk - xbar), rel=1e-9)
    assert np.all(run.per_agent_samples == 8)


def test_dsgd_contracts_like_scalar_recursion():
    # identical quadratic objectives, consensus start: factor |1 - alpha L|
    p, _g, mix = path3_instance()
    alpha = 0.25
    x0 = np.tile(p.x_star + np.array([2.0, -1.0]), (p.n, 1))
    err = [np.linalg.norm(x - p.x_star) for x, *_ in
           _states(p, mix, alpha, algo.constant_schedule(1), x0, 5, tracking=False)]
    assert len(err) == 6
    factor = abs(1.0 - alpha * p.lips)
    for a, b in zip(err, err[1:]):
        assert b == pytest.approx(factor * a, rel=1e-10)


def test_dsgt_equals_dvss_with_unit_constant_schedule():
    p = oracle.make_regression_problem(3, 2, np.array([0.5, -0.5]),
                                       noise_spec=1.0, seed=3)
    g = graph.Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    mix = graph.metropolis_weights(g)
    stop = algo.StopRule("max_iters", 25)
    t1 = algo.run_path(p, mix, g, "d-sgt", 0.05, algo.constant_schedule(1),
                       stop, seed=9)
    t2 = algo.run_path(p, mix, g, "dvss-sgt", 0.05, algo.constant_schedule(1),
                       stop, seed=9)
    assert np.array_equal(t1.z, t2.z)
    assert np.array_equal(t1.cum_samples, t2.cum_samples)
    assert np.array_equal(t1.cum_messages, t2.cum_messages)


def test_dsgt_equals_hand_stepped_engine_with_constant_schedule():
    p = oracle.make_regression_problem(3, 2, np.array([0.5, -0.5]),
                                       noise_spec=1.0, seed=3)
    g = graph.Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    mix = graph.metropolis_weights(g)
    run = algo.run_path(p, mix, g, "d-sgt", 0.05, algo.constant_schedule(2),
                        algo.StopRule("max_iters", 25), seed=9)
    x0 = algo.default_x0(p, oracle.StreamFactory(9), 1)[0]
    z = []
    for x, y, _g, _n in _states(p, mix, 0.05, algo.constant_schedule(2), x0, 25, seed=9):
        z.append(metrics.error_vector(x, y, p))
    assert np.array_equal(run.z, np.array([z]))
    assert np.all(run.per_agent_samples == 2 * 26)


def test_dsgt_zero_noise_converges_to_optimum():
    p, g, mix = path3_instance()
    stop = algo.StopRule("max_iters", 2000)
    run = algo.run_path(p, mix, g, "d-sgt", 0.1, algo.constant_schedule(1), stop, seed=0)
    assert run.combined.shape == (1, 2001)
    assert run.combined[0, -1] <= 1e-10


def test_tracking_identity_and_average_recursion_short_run():
    p = oracle.make_regression_problem(4, 3, np.zeros(3), noise_spec=2.0, seed=6)
    g = graph.erdos_renyi(4, 0.9, seed=1)
    mix = graph.metropolis_weights(g)
    x0 = algo.default_x0(p, oracle.StreamFactory(17), 1)[0]
    states = _states(p, mix, 0.02, algo.geometric_schedule(0.98), x0, 60, seed=17)
    assert len(states) == 61
    for (px, py, _pg, _pn), (x, y, g_k, _n) in zip(states, states[1:]):
        assert np.linalg.norm(y.mean(axis=0) - g_k.mean(axis=0)) <= 1e-9
        assert np.linalg.norm(x.mean(axis=0) - (px.mean(axis=0) - 0.02 * py.mean(axis=0))) <= 1e-12


def test_zero_noise_contraction_below_rho_plus_margin(fig1_instance,
                                                     fig1_alpha_star,
                                                     zero_noise_trace):
    problem, _g, mix = fig1_instance
    alpha_star, _rho_star = fig1_alpha_star
    run, alpha = zero_noise_trace
    cm = theory.build_J(alpha, problem.eta, problem.lips, mix.sigma_A,
                        problem.n, mix.norm_A_minus_I)
    rho = theory.spectral_radius_3x3(cm.J)
    [norms] = np.linalg.norm(run.z, axis=2)
    assert len(norms) > 51
    ratios = norms[-50:] / norms[-51:-1]
    assert np.all(ratios <= rho + 0.05)


def test_divergence_guard_attaches_partial_trace(fig1_instance):
    problem, g, mix = fig1_instance
    with pytest.raises(algo.DivergenceError) as err:
        algo.run_path(problem, mix, g, "dvss-sgt", 10.0,
                      algo.geometric_schedule(0.98),
                      algo.StopRule("max_iters", 100), seed=1)
    assert err.value.trace.stop_reason == "diverged"
    assert err.value.trace.combined.shape == (1, err.value.k)   # states 0 .. k - 1
    # the guard also stops the untracked update
    with pytest.raises(algo.DivergenceError) as err:
        algo.run_path(problem, mix, g, "d-sgd", 10.0, algo.constant_schedule(1),
                      algo.StopRule("max_iters", 100), seed=1)
    assert err.value.trace.stop_reason == "diverged"


def test_stop_rules():
    with pytest.raises(ValueError):
        algo.StopRule("wallclock", 10)
    with pytest.raises(ValueError):
        algo.StopRule("max_iters", 0)
    with pytest.raises(ValueError):
        algo.StopRule("max_iters", 2.5)
    # an integer beyond the float range is still a whole number of iterations
    assert algo.StopRule("max_iters", 10**400).value == 10**400


def test_budget_stop_counts_network_totals():
    p = oracle.make_regression_problem(3, 2, np.zeros(2), seed=2)
    g = graph.Graph.from_edges(3, [(0, 1), (1, 2)])
    mix = graph.metropolis_weights(g)
    trace = algo.run_path(p, mix, g, "d-sgd", 0.05, algo.constant_schedule(1),
                          algo.StopRule("budget_samples", 20), seed=4)
    assert trace.cum_samples[-1] <= 20
    assert trace.cum_samples[-1] + p.n > 20


def test_budget_below_init_cost_gives_zero_iterations():
    p = oracle.make_regression_problem(10, 2, np.zeros(2), seed=2)
    g = graph.erdos_renyi(10, 0.5, seed=2)
    mix = graph.metropolis_weights(g)
    trace = algo.run_path(p, mix, g, "dvss-sgt", 0.01,
                          algo.geometric_schedule(0.98),
                          algo.StopRule("budget_samples", 5), seed=4)
    assert trace.iterations == 0
    assert trace.cum_samples[-1] == 0


def test_target_eps_stop():
    p, g, mix = path3_instance()
    run = algo.run_path(p, mix, g, "d-sgt", 0.1, algo.constant_schedule(1),
                        algo.StopRule("target_eps", 1e-4), seed=0)
    [combined] = run.combined
    assert combined[-1] <= 1e-4
    assert np.all(combined[:-1] > 1e-4)


def test_run_path_determinism_and_explicit_x0():
    p = oracle.make_regression_problem(3, 2, np.zeros(2), seed=8)
    g = graph.Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    mix = graph.metropolis_weights(g)
    stop = algo.StopRule("max_iters", 20)
    sched = algo.geometric_schedule(0.98)
    a = algo.run_paths(p, mix, g, "dvss-sgt", 0.05, sched, stop, seed=3, paths=2)
    b = algo.run_paths(p, mix, g, "dvss-sgt", 0.05, sched, stop, seed=3, paths=2)
    c = algo.run_paths(p, mix, g, "dvss-sgt", 0.05, sched, stop, seed=3, paths=2, x0=a.x0)
    assert a.z.shape == (2, 21, 3)
    assert np.array_equal(a.z, b.z) and np.array_equal(a.z, c.z)
    assert np.array_equal(a.z[:1], algo.run_path(p, mix, g, "dvss-sgt", 0.05, sched, stop,
                                                 seed=3, x0=a.x0[0]).z)
    with pytest.raises(ValueError):
        algo.run_path(p, mix, g, "newton", 0.05, sched, stop, seed=3)
    with pytest.raises(ValueError):   # one x0 for two paths
        algo.run_paths(p, mix, g, "dvss-sgt", 0.05, sched, stop, seed=3, paths=2,
                       x0=a.x0[:1])


def test_message_accounting_per_algorithm():
    p = oracle.make_regression_problem(3, 2, np.zeros(2), seed=8)
    g = graph.Graph.from_edges(3, [(0, 1), (1, 2)])
    mix = graph.metropolis_weights(g)
    stop = algo.StopRule("max_iters", 12)
    sched = algo.constant_schedule(1)
    deg = g.degrees()
    tr = algo.run_path(p, mix, g, "dvss-sgt", 0.05, sched, stop, seed=3)
    assert np.array_equal(tr.per_agent_messages, 2 * deg * 12)
    tr = algo.run_path(p, mix, g, "d-sgd", 0.05, sched, stop, seed=3)
    assert np.array_equal(tr.per_agent_messages, deg * 12)


@pytest.mark.parametrize("algorithm,stop,reason", [
    ("dvss-sgt", ("max_iters", 12), "max_iters"),
    ("d-sgd", ("budget_samples", 20), "budget_samples"),
    ("d-sgt", ("target_eps", 1e-4), "target_eps"),
    ("d-sgt", ("target_eps", 1e-30), "target_eps_iter_cap"),
])
def test_stop_reason(monkeypatch, algorithm, stop, reason):
    if reason == "target_eps_iter_cap":
        monkeypatch.setattr(algo, "TARGET_EPS_ITER_CAP", 40)
    p, g, mix = path3_instance()
    run = algo.run_path(p, mix, g, algorithm, 0.1, algo.constant_schedule(1),
                        algo.StopRule(*stop), seed=0)
    assert run.stop_reason == reason
    if reason == "target_eps_iter_cap":
        assert run.iterations == 40
        assert run.combined[0, -1] > 1e-30


def _count_streams(monkeypatch):
    """Every (seed, slot, iteration) a stream is keyed to, in order."""
    calls = []
    real = oracle.stream_key

    def counting(seed, slot, iteration):
        calls.append((seed, slot, iteration))
        return real(seed, slot, iteration)
    monkeypatch.setattr(oracle, "stream_key", counting)
    return calls


def test_zero_noise_path_constructs_no_stream(monkeypatch):
    p, g, mix = path3_instance()
    calls = _count_streams(monkeypatch)
    x0 = np.zeros((p.n, p.d))
    for algorithm in ("dvss-sgt", "d-sgt", "d-sgd"):
        algo.run_path(p, mix, g, algorithm, 0.1, algo.constant_schedule(1),
                      algo.StopRule("max_iters", 30), seed=0, x0=x0)
    assert calls == []
    # only the initial iterates need a stream then, one for all paths
    algo.run_paths(p, mix, g, "dvss-sgt", 0.1, algo.geometric_schedule(0.98),
                   algo.StopRule("max_iters", 30), seed=0, paths=4)
    assert calls == [(0, oracle.INIT_STREAM_AGENT, 0)]


def test_one_stream_per_slot_and_iteration(monkeypatch):
    p = oracle.make_regression_problem(3, 2, np.zeros(2), seed=8)
    g = graph.Graph.from_edges(3, [(0, 1), (1, 2)])
    mix = graph.metropolis_weights(g)
    calls = _count_streams(monkeypatch)
    stop = algo.StopRule("max_iters", 10)
    algo.run_paths(p, mix, g, "dvss-sgt", 0.05, algo.geometric_schedule(0.98),
                   stop, seed=3, paths=3)
    init = (3, oracle.INIT_STREAM_AGENT, 0)
    # tracking samples at x(0) .. x(10); D-SGD at x(0) .. x(9)
    assert calls == [init] + [(3, 0, k) for k in range(11)]
    calls.clear()
    algo.run_paths(p, mix, g, "d-sgd", 0.05, algo.constant_schedule(1), stop, seed=3, paths=3)
    assert calls == [init] + [(3, 0, k) for k in range(10)]
    # a budget run draws ahead only the cells its budget pays for
    budget = algo.StopRule("budget_samples", 100)
    for algorithm, sched, lag in (("dvss-sgt", algo.geometric_schedule(0.98), 0),
                                  ("d-sgd", algo.constant_schedule(2), 1)):
        calls.clear()
        trace = algo.run_path(p, mix, g, algorithm, 0.05, sched, budget, seed=3)
        assert trace.stop_reason == "budget_samples" and trace.iterations > 10
        assert calls == [init] + [(3, 0, k) for k in range(trace.iterations + 1 - lag)]


@pytest.mark.parametrize("paths", [1, 3, 8])
def test_a_run_keys_one_stream_for_x0_and_at_most_two_per_iteration(monkeypatch, fig1_instance,
                                                                   paths):
    p, g, mix = fig1_instance
    sched, stop = algo.geometric_schedule(0.9), algo.StopRule("max_iters", 30)
    ref = algo.run_paths(p, mix, g, "dvss-sgt", 0.01, sched, stop, seed=5, paths=paths)
    # a block over the bytes of two one-path cells at N(k) = 11 is drawn as it
    # is applied, each cell's streams keyed then, and a cell of more than 2
    # paths at N(k) = 11 in chunks; the run is the same
    monkeypatch.setattr(oracle, "MAX_DRAW_BLOCK_BYTES", 2 * oracle.draw_bytes(p, 11))
    calls = _count_streams(monkeypatch)
    run = algo.run_paths(p, mix, g, "dvss-sgt", 0.01, sched, stop, seed=5, paths=paths)
    _assert_same_run(run, ref)
    # Bartlett cells (k >= 23) key the chi-square slot too, whatever P is
    cross = oracle.bartlett_crossover(p.d)
    assert algo.batch_size(sched, 22) < cross == algo.batch_size(sched, 23)
    assert calls == [(5, oracle.INIT_STREAM_AGENT, 0)] + [
        (5, slot, k) for k in range(31)
        for slot in ((0, 1) if algo.batch_size(sched, k) >= cross else (0,))]
    assert len(calls) <= 1 + 2 * (run.iterations + 1)


def test_the_iteration_field_cannot_reach_the_next_slot():
    # with a 21-bit field, slot 0 at k = 2^21 + j would be slot 1 at k = j
    for j in (0, 5):
        assert oracle.stream_key(7, 0, 2**21 + j) != oracle.stream_key(7, 1, j)
    streams = oracle.StreamFactory(7)
    first = streams.generator(2**21 + 5).standard_normal(4)
    assert not np.array_equal(first, streams.generator(5, 1).standard_normal(4))
    # no run reaches 2^42 iterations: its trace is bounded by the dense limit
    assert algo.MAX_DENSE_ELEMENTS < 2**42


def test_batch_total_matches_the_per_iteration_sum():
    for ratio in np.linspace(0.5, 0.9999, 300):
        s = algo.geometric_schedule(float(ratio))
        assert algo.batch_total(s, 3000) == sum(algo.batch_size(s, k) for k in range(3001))
    capped = algo.geometric_schedule(0.98, cap=500)
    assert algo.batch_total(capped, 1000) == sum(algo.batch_size(capped, k)
                                                 for k in range(1001))
    # N(k) reaches the cap at k = 31 for ratio 1/2; the rest is counted, not summed
    half = algo.geometric_schedule(0.5)
    assert algo.batch_total(half, 10**12) == (sum(2**k for k in range(31))
                                              + (10**12 + 1 - 31) * half.cap)
    assert algo.batch_total(algo.constant_schedule(7, cap=5), 9) == 50
    # around the first capped term, where the chunked sum hands over to cap x count
    for s in (algo.geometric_schedule(r, cap=cap) for r in (0.5, 0.98) for cap in (1, 100)):
        first = algo.cap_reached_at(s)
        for K in (first - 1, first, first + 1):
            assert algo.batch_total(s, K) == sum(algo.batch_size(s, k) for k in range(K + 1))
    with pytest.raises(ValueError):
        algo.geometric_schedule(0.98, cap=algo.DEFAULT_BATCH_CAP + 1)


def test_rekeyed_stream_equals_a_fresh_philox():
    seed = 2**63 + 12345
    streams = oracle.StreamFactory(seed)
    for slot, k in ((0, 0), (0, 7), (1, 7), (oracle.INIT_STREAM_AGENT, 0), (0, 2**21 - 2),
                    (0, 2**21 + 7), (1, 2**21 + 7), (1, 2**40 + 3), (0, 7)):
        rng = streams.generator(k, slot)
        ref = oracles.philox_stream(seed, slot, k)
        # an odd count leaves the Philox buffer part used when the slot is re-keyed
        assert np.array_equal(rng.standard_normal(3), ref.standard_normal(3))
        assert np.array_equal(rng.chisquare([5.0, 40.0]), ref.chisquare([5.0, 40.0]))
        assert np.array_equal(rng.standard_normal((2, 5)), ref.standard_normal((2, 5)))


def _assert_same_run(a, b):
    for f in dataclasses.fields(algo.Run):
        assert np.array_equal(getattr(a, f.name), getattr(b, f.name)), f.name


def test_w_step_is_the_norm_of_each_noise_step(fig1_instance):
    # w_step enters the recursion check's b(k): an inflated one loosens it
    p, g, mix = fig1_instance
    sched, paths, T = algo.geometric_schedule(0.98), 2, 6
    run = algo.run_paths(p, mix, g, "dvss-sgt", 0.01, sched, algo.StopRule("max_iters", T),
                         seed=5, paths=paths)
    streams = oracle.StreamFactory(5)
    blocks = algo.iterate(p, mix, 0.01, sched, streams, algo.default_x0(p, streams, paths),
                          True, T, math.inf)
    noise = [g - np.einsum("ijk,qik->qij", p.R, x - p.x_star)
             for xs, _ys, gs, _ns in blocks for x, g in zip(xs, gs)]
    assert len(noise) == T + 1
    assert run.w_step.shape == (paths, T + 1)
    for q in range(paths):
        expect = [0.0] + [np.linalg.norm(w1[q] - w0[q]) for w0, w1 in zip(noise, noise[1:])]
        assert min(expect[1:]) > 0.0
        np.testing.assert_allclose(run.w_step[q], expect, rtol=1e-12, atol=0)


@pytest.mark.parametrize("algorithm,ratio,stop", [
    ("dvss-sgt", 0.98, ("budget_samples", 3000)),
    ("d-sgt", 0.98, ("budget_samples", 3000)),
    ("d-sgd", 0.98, ("budget_samples", 3000)),
    # N(k) = ceil(0.9^-k) crosses the Bartlett crossover (12 at d = 5) at k = 23
    ("dvss-sgt", 0.9, ("max_iters", 60)),
])
def test_stacked_paths_equal_single_paths(fig1_instance, algorithm, ratio, stop):
    # path q draws the same numbers in every run of more than q paths, so the
    # first q paths of a run are a q-path run's; path 0 is a single path's run
    p, g, mix = fig1_instance
    sched, stop = algo.geometric_schedule(ratio), algo.StopRule(*stop)
    if stop.kind == "max_iters":
        assert algo.batch_size(sched, stop.value) >= oracle.bartlett_crossover(p.d)
    stacked = algo.run_paths(p, mix, g, algorithm, 0.01, sched, stop, seed=5, paths=3)
    assert len(stacked.z) == 3
    for q in (1, 2):
        prefix = algo.run_paths(p, mix, g, algorithm, 0.01, sched, stop, seed=5, paths=q)
        assert len(prefix.z) == q
        for j in range(q):
            _assert_same_run(stacked.path(j), prefix.path(j))
    _assert_same_run(stacked.path(0), algo.run_path(p, mix, g, algorithm, 0.01, sched, stop,
                                                    seed=5))
    assert not np.array_equal(stacked.z[0], stacked.z[1])


def test_target_eps_stops_every_path_at_one_k(fig1_instance):
    p, g, mix = fig1_instance
    stop = algo.StopRule("target_eps", 0.05)
    sched = algo.geometric_schedule(0.98)
    run = algo.run_paths(p, mix, g, "dvss-sgt", 0.01, sched, stop, seed=2024, paths=6)
    k = run.iterations
    assert run.stop_reason == "target_eps" and run.combined.shape == (6, k + 1)
    # the run's mean decides: it meets the target first at k ...
    mean = run.mean_combined
    assert mean[k] <= 0.05 and np.all(mean[:k] > 0.05)
    # ... where one path met it long before and another has not met it yet
    assert run.combined[:, :k].min() <= 0.05
    assert run.combined[:, k].max() > 0.05
    fixed = algo.run_paths(p, mix, g, "dvss-sgt", 0.01, sched, algo.StopRule("max_iters", k),
                           seed=2024, paths=6)
    _assert_same_run(run, dataclasses.replace(fixed, stop_reason="target_eps"))


@pytest.mark.parametrize("offsets,winner", [
    # path 0 sits at the fixed point and never diverges: path 1's error
    ((0.0, 1.0), 1),
    # both diverge, path 1 first: the run ends there, with path 1's error
    ((1e-3, 1e3), 1),
])
def test_divergence_raises_the_lowest_diverging_path(offsets, winner):
    p = oracle.deterministic(oracle.make_regression_problem(
        3, 2, np.array([1.0, -2.0]), covariance_spec="identity", seed=1))
    g = graph.Graph.from_edges(3, [(0, 1), (1, 2)])
    mix = graph.metropolis_weights(g)
    x0 = [np.tile(p.x_star + off, (p.n, 1)) for off in offsets]
    args = (p, mix, g, "dvss-sgt", 3.0, algo.constant_schedule(1),
            algo.StopRule("max_iters", 400))
    with pytest.raises(algo.DivergenceError) as err:
        algo.run_paths(*args, seed=0, paths=2, x0=x0)
    # an exact oracle draws nothing, so the winner's x0 alone replays it
    with pytest.raises(algo.DivergenceError) as ref:
        algo.run_path(*args, seed=0, x0=x0[winner])
    assert err.value.k == ref.value.k and str(err.value) == str(ref.value)
    assert err.value.trace.stop_reason == "diverged"
    _assert_same_run(err.value.trace, ref.value.trace)
    if offsets[0]:   # path 0 alone would have run on past the run's end
        with pytest.raises(algo.DivergenceError) as later:
            algo.run_path(*args, seed=0, x0=x0[0])
        assert later.value.k > err.value.k


def test_a_path_of_a_run_is_its_row_of_every_per_path_array(fig1_instance):
    p, g, mix = fig1_instance
    run = algo.run_paths(p, mix, g, "dvss-sgt", 0.01, algo.geometric_schedule(0.98),
                         algo.StopRule("max_iters", 20), seed=5, paths=3)
    per_path = ("z", "combined", "sum_w_norms", "w_step", "x0")
    # the per-path arrays are views of one table, not copies
    assert run.z.base is not None
    assert all(getattr(run, name).base is run.z.base for name in per_path[1:4])
    for q in range(3):
        one = run.path(q)
        for f in dataclasses.fields(algo.Run):
            got, full = getattr(one, f.name), getattr(run, f.name)
            if f.name in per_path:
                assert got.shape == (1,) + full.shape[1:] and np.array_equal(got[0], full[q])
            else:   # the run-level facts, stored once
                assert got is full, f.name
        assert one.iterations == run.iterations == 20
        assert np.array_equal(one.mean_z, run.z[q])
        assert np.array_equal(one.mean_combined, run.combined[q])
    assert np.array_equal(run.mean_combined, metrics.mean_over_paths(run.combined))
    assert np.array_equal(run.mean_z, metrics.mean_over_paths(run.z))


def test_paths_diverging_at_one_iteration_raise_the_lowest():
    p, g, mix = path3_instance()
    # path 0 sits at the fixed point; paths 1 and 2 start a hair apart and
    # diverge at the same iteration with different errors
    x0 = [np.tile(p.x_star + off, (p.n, 1)) for off in (0.0, 1.0, 1.0 + 1e-6)]
    args = (p, mix, g, "dvss-sgt", 3.0, algo.constant_schedule(1),
            algo.StopRule("max_iters", 400))
    with pytest.raises(algo.DivergenceError) as err:
        algo.run_paths(*args, seed=0, paths=3, x0=x0)
    alone = []
    for q in (1, 2):   # an exact oracle draws nothing, so x0 alone replays a path
        with pytest.raises(algo.DivergenceError) as ref:
            algo.run_path(*args, seed=0, x0=x0[q])
        alone.append(ref.value)
    assert alone[0].k == alone[1].k == err.value.k and err.value.slot == 1
    _assert_same_run(err.value.trace, alone[0].trace)
    assert not np.array_equal(err.value.trace.z, alone[1].trace.z)


def test_noise_norms_past_the_square_range_are_finite(fig1_instance):
    # sampled gradients of noise 1e160: ||w_i||^2 overflows, ||w_i|| does not;
    # a step size of 1e-170 keeps the iterates from diverging
    p, g, mix = fig1_instance
    loud = dataclasses.replace(p, sigmas=np.full(p.n, 1e160))
    run = algo.run_paths(loud, mix, g, "dvss-sgt", 1e-170, algo.geometric_schedule(0.98),
                         algo.StopRule("max_iters", 5), seed=1, paths=2)
    for rows in (run.z, run.combined, run.sum_w_norms, run.w_step):
        assert np.all(np.isfinite(rows))
    assert np.all((1e159 < run.z[..., 2]) & (run.z[..., 2] < 1e163))
    assert np.all((1e159 < run.sum_w_norms) & (run.sum_w_norms < 1e163))
    assert np.all(run.w_step[:, 0] == 0.0)
    assert np.all((1e159 < run.w_step[:, 1:]) & (run.w_step[:, 1:] < 1e163))


def _hand_stepped_run(p, mix, g, algorithm, alpha, sched, stop, seed, paths, x0=None):
    """Paths 0..paths-1 stepped one state at a time: algo.iterate with one
    cell a block, which draws each cell as its state is asked for, its own
    stop rules and sample counts, and the trace rows computed from each state
    as it is reached. The unblocked reference for run_paths."""
    tracking = algorithm != "d-sgd"
    streams = oracle.StreamFactory(seed)
    x0 = algo.default_x0(p, streams, paths) if x0 is None else np.array(x0, dtype=float)
    rows, samples, w_prev = [], [], None
    drawn = algo.batch_size(sched, 0) if tracking else 0   # per agent
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(algo, "RECORD_BLOCK_BYTES", 1)
        states = algo.iterate(p, mix, alpha, sched, streams, x0, tracking, math.inf, math.inf)
        while True:
            try:
                (x,), (y,), (g_k,), _count = next(states)
            except algo.DivergenceError:
                reason = "diverged"
                break
            k = len(rows)
            if k:
                drawn += algo.batch_size(sched, k - 1 + tracking)
            w = g_k - oracle.exact_gradients(p, x)
            dw = np.zeros_like(w) if w_prev is None else w - w_prev
            w_prev = w
            z = metrics.error_vector(x, y, p)
            rows.append(np.column_stack([z, np.hypot(z[:, 0], z[:, 1]),
                                         metrics._norm(w, 1).sum(-1), metrics._norm(dw, 2)]))
            samples.append(p.n * drawn)
            if stop.kind == "max_iters" and k >= stop.value:
                reason = "max_iters"
            elif stop.kind == "budget_samples" and samples[-1] + p.n * algo.batch_size(
                    sched, k + tracking) > stop.value:
                reason = "budget_samples"
            elif (stop.kind == "target_eps"
                  and metrics.mean_over_paths(rows[-1][:, 3]) <= stop.value):
                reason = "target_eps"
            else:
                continue
            break
    rows, k = np.array(rows).transpose(1, 0, 2), len(rows) - 1
    msg_per_iter = (2 if tracking else 1) * g.degrees()
    return algo.Run(algorithm, rows[..., :3], rows[..., 3], rows[..., 4], rows[..., 5], x0,
                    np.array(samples), np.arange(k + 1) * msg_per_iter.sum(),
                    np.full(p.n, drawn), k * msg_per_iter, reason)


def _block_of(monkeypatch, states, p, paths):
    """Bound the record block to `states` stacked states of `paths` paths."""
    monkeypatch.setattr(algo, "RECORD_BLOCK_BYTES", states * paths * p.n * p.d * 8)


@pytest.mark.parametrize("algorithm,stop,paths,states,k", [
    # k = 0, then 4 states a block: the last block holds 2, 3 and 4 states
    pytest.param("dvss-sgt", ("max_iters", 18), 3, 4, 18, id="dvss-sgt-stop0"),
    pytest.param("dvss-sgt", ("max_iters", 19), 3, 4, 19, id="dvss-sgt-stop1"),
    pytest.param("dvss-sgt", ("max_iters", 20), 3, 4, 20, id="dvss-sgt-stop2"),
    pytest.param("d-sgd", ("max_iters", 19), 3, 4, 19, id="d-sgd-stop3"),
    pytest.param("dvss-sgt", ("budget_samples", 3000), 3, 4, None, id="dvss-sgt-stop4"),
    pytest.param("d-sgd", ("budget_samples", 3000), 3, 4, None, id="d-sgd-stop5"),
    # target_eps, decided on the flushed rows, stops where the per-state
    # decision does: at k = 0, on a block's first state (k = 1 modulo the
    # block), on its last (k = 0 modulo it), inside one, and with one state a block
    pytest.param("dvss-sgt", ("target_eps", 10.0), 3, 4, 0, id="target-at-k0"),
    pytest.param("dvss-sgt", ("target_eps", 0.74), 1, 4, 21, id="target-first-of-block"),
    pytest.param("dvss-sgt", ("target_eps", 0.61), 3, 7, 49, id="target-last-of-block"),
    pytest.param("dvss-sgt", ("target_eps", 0.63), 6, 16, 48, id="target-last-of-block-6"),
    pytest.param("d-sgd", ("target_eps", 1.05), 3, 5, 18, id="target-inside-block"),
    pytest.param("d-sgt", ("target_eps", 0.88), 6, 3, 32, id="target-inside-block-6"),
    pytest.param("dvss-sgt", ("target_eps", 1.0), 3, 1, 17, id="target-one-state-blocks"),
])
def test_blocked_rows_equal_hand_stepped_rows(monkeypatch, fig1_instance, algorithm, stop,
                                              paths, states, k):
    p, g, mix = fig1_instance
    sched = algo.geometric_schedule(0.98) if algorithm == "dvss-sgt" else algo.constant_schedule(1)
    stop = algo.StopRule(*stop)
    _block_of(monkeypatch, states, p, paths)
    blocks = []
    monkeypatch.setattr(metrics, "error_vector", lambda x, y, p, real=metrics.error_vector:
                        blocks.append(x.shape) or real(x, y, p))
    run = algo.run_paths(p, mix, g, algorithm, 0.01, sched, stop, seed=5, paths=paths)
    assert run.stop_reason == stop.kind and (k is None or run.iterations == k)
    # one error-vector pass per record block of stacked states: k = 0 alone,
    # then `states` a block; only the last iteration or the budget cuts the
    # last block short, and a target_eps stop comes after its whole block
    last = run.iterations
    if stop.kind == "target_eps":
        last = -(-last // states) * states
    assert [shape[0] for shape in blocks] == [1] + [min(states, last - lo)
                                                  for lo in range(0, last, states)]
    assert all(shape[1:] == (paths, p.n, p.d) for shape in blocks)
    _assert_same_run(run, _hand_stepped_run(p, mix, g, algorithm, 0.01, sched, stop,
                                            seed=5, paths=paths))


@pytest.mark.parametrize("record_bytes", [1, "1.5 states"])
def test_states_over_half_a_record_block_are_stacked_one_at_a_time(
        monkeypatch, fig1_instance, record_bytes):
    p, g, mix = fig1_instance
    paths, stop = 2, algo.StopRule("max_iters", 12)
    if record_bytes != 1:
        record_bytes = 3 * paths * p.n * p.d * 8 // 2
    monkeypatch.setattr(algo, "RECORD_BLOCK_BYTES", record_bytes)
    blocks = []
    monkeypatch.setattr(metrics, "error_vector",
                        lambda x, y, p, real=metrics.error_vector: blocks.append(x) or real(x, y, p))
    run = algo.run_paths(p, mix, g, "dvss-sgt", 0.01, algo.geometric_schedule(0.98),
                         stop, seed=5, paths=paths)
    # one stacked error-vector pass per recorded state, never two states at once
    assert [len(x) for x in blocks] == [1] * (stop.value + 1)
    _assert_same_run(run, _hand_stepped_run(
        p, mix, g, "dvss-sgt", 0.01, algo.geometric_schedule(0.98), stop, seed=5, paths=2))


def test_blocked_target_eps_paths_stop_inside_a_block(monkeypatch, fig1_instance):
    p, g, mix = fig1_instance
    sched, stop = algo.geometric_schedule(0.98), algo.StopRule("target_eps", 0.05)
    _block_of(monkeypatch, 16, p, 6)
    blocks = []
    monkeypatch.setattr(metrics, "error_vector", lambda x, y, p, real=metrics.error_vector:
                        blocks.append(x.shape) or real(x, y, p))
    run = algo.run_paths(p, mix, g, "dvss-sgt", 0.01, sched, stop, seed=2024, paths=6)
    monkeypatch.undo()
    k = run.iterations
    assert (k, run.stop_reason) == (271, "target_eps")
    # the stop is decided on the flushed rows: every error vector is of a
    # stacked (B, P, n, d) record block, never of a single state
    assert all(len(shape) == 4 and shape[1:] == (6, p.n, p.d) for shape in blocks)
    # rows wait for a full block or the end; a flush for each state would make 272
    assert len(blocks) <= 20
    ref = _hand_stepped_run(p, mix, g, "dvss-sgt", 0.01, sched,
                            algo.StopRule("max_iters", k), seed=2024, paths=6)
    _assert_same_run(run, dataclasses.replace(ref, stop_reason="target_eps"))


def test_target_eps_cap_keeps_the_trace_within_the_dense_limit(monkeypatch, fig1_instance):
    p, g, mix = fig1_instance
    limit = 600
    monkeypatch.setattr(algo, "MAX_DENSE_ELEMENTS", limit)
    for paths in (1, 4, 7):
        run = algo.run_paths(p, mix, g, "d-sgt", 0.01, algo.constant_schedule(1),
                             algo.StopRule("target_eps", 1e-30), seed=3, paths=paths)
        assert (run.iterations, run.stop_reason) == (limit // paths - 1, "target_eps_iter_cap")
        assert algo.target_eps_iter_cap(paths) == run.iterations
        assert paths * (run.iterations + 1) <= limit


def test_blocked_divergence_of_a_later_slot_mid_block(monkeypatch):
    p, g, mix = path3_instance()
    # path 0 sits at the fixed point and never diverges; path 1 does
    x0 = [np.tile(p.x_star + off, (p.n, 1)) for off in (0.0, 1.0)]
    args = (p, mix, g, "dvss-sgt", 3.0, algo.constant_schedule(1),
            algo.StopRule("max_iters", 400))

    def diverge():
        with pytest.raises(algo.DivergenceError) as err:
            algo.run_paths(*args, seed=0, paths=2, x0=x0)
        return err.value

    monkeypatch.setattr(algo, "RECORD_BLOCK_BYTES", 1)   # one state a block: unblocked
    ref = diverge()
    assert ref.slot == 1
    # recorded states 0 .. k - 1, so k not a multiple of the block is mid-block
    states = next(b for b in (3, 4, 5, 7) if ref.k % b)
    _block_of(monkeypatch, states, p, 2)
    exc = diverge()
    assert (exc.k, exc.slot, str(exc)) == (ref.k, ref.slot, str(ref))
    _assert_same_run(exc.trace, ref.trace)
    _assert_same_run(exc.trace, _hand_stepped_run(*args, seed=0, paths=2, x0=x0).path(1))


def test_a_target_met_before_a_divergence_in_its_record_block_stops_the_run():
    p, g, mix = path3_instance()
    # at alpha 1.5, path 0 starts at consensus and its error halves each step;
    # path 1 starts a hair from the fixed point, and its disagreement diverges
    x0 = [np.tile(p.x_star + 1.0, (p.n, 1)), p.x_star + [[1e-6, 0.0], [0.0, 0.0], [-1e-6, 0.0]]]
    args = (p, mix, g, "dvss-sgt", 1.5, algo.constant_schedule(1))
    with pytest.raises(algo.DivergenceError) as err:
        algo.run_paths(*args, algo.StopRule("max_iters", 400), seed=0, paths=2, x0=x0)
    # it diverges inside the record block after k = 0, which holds states 1 to 682
    assert (err.value.k, err.value.slot) == (84, 1)
    assert err.value.k <= algo.RECORD_BLOCK_BYTES // (2 * p.n * p.d * 8) == 682
    # the mean error meets the target at k = 7 of that block: iterate yields
    # the states before the divergence, and the target stops the run there
    stop = algo.StopRule("target_eps", 1e-2)
    run = algo.run_paths(*args, stop, seed=0, paths=2, x0=x0)
    assert (run.iterations, run.stop_reason) == (7, "target_eps")
    _assert_same_run(run, _hand_stepped_run(*args, stop, seed=0, paths=2, x0=x0))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_guard_names_the_slot_and_worst_value_of_a_later_path(bad):
    x = np.zeros((3, 2, 2))
    x[0, 1, 0] = -algo.DIVERGENCE_THRESHOLD   # exactly at the threshold passes
    x[1, 0, 1] = algo.DIVERGENCE_THRESHOLD
    algo._guard(x, 7)
    x[2, 1, 1] = bad
    with pytest.raises(algo.DivergenceError) as err:
        algo._guard(x, 7)
    assert (err.value.k, err.value.slot) == (7, 2)
    assert f"magnitude {abs(bad):.3e} exceeded" in str(err.value)
    x[1, 1, 1] = np.nextafter(algo.DIVERGENCE_THRESHOLD, np.inf)
    with pytest.raises(algo.DivergenceError) as err:
        algo._guard(x, 7)
    assert err.value.slot == 1


@pytest.mark.parametrize("algorithm", ["dvss-sgt", "d-sgt", "d-sgd"])
def test_budget_run_stops_by_the_rule_that_bounds_its_trace(fig1_instance, algorithm):
    # cli.resolve_config bounds a budget run's trace by this rule: iteration K
    # is reached once n*batch_total(schedule, K) <= budget (D-SGD: K - 1)
    p, g, mix = fig1_instance
    sched = algo.geometric_schedule(0.9) if algorithm == "dvss-sgt" else algo.constant_schedule(3)
    budget = 2345
    run = algo.run_paths(p, mix, g, algorithm, 0.01, sched,
                         algo.StopRule("budget_samples", budget), seed=5, paths=2)
    lag = algorithm == "d-sgd"
    last = run.iterations
    assert last > 5
    assert p.n * algo.batch_total(sched, last - lag) <= budget
    assert p.n * algo.batch_total(sched, last + 1 - lag) > budget


# the largest direct draw at d = 3, and a Bartlett one
@pytest.mark.parametrize("batch", [oracle.bartlett_crossover(3) - 1, 1000])
def test_chunked_draw_respects_its_block_limit(monkeypatch, batch):
    p = oracle.make_regression_problem(4, 3, np.zeros(3), seed=2)
    X = np.random.default_rng(0).standard_normal((7, p.n, p.d))

    def draw():
        [cell] = oracle.draw_cells(p, 7, [batch], [4], oracle.StreamFactory(9))
        return oracle.apply_cell(p, X, cell)
    whole = draw()
    # the random numbers of one path at this batch: regressors and noise, or
    # the Bartlett normals, noise included, and chi-squares
    direct = batch < oracle.bartlett_crossover(p.d)
    per_path = 8 * p.n * (batch * (p.d + 1) if direct else p.d * (p.d + 2))
    calls = []
    _draw_spy(monkeypatch, calls)
    for limit in (1, 2 * per_path + 1, 10**9):
        calls.clear()
        monkeypatch.setattr(oracle, "MAX_DRAW_BLOCK_BYTES", limit)
        chunked = draw()
        # the chunks continue the same streams, so they draw what one call does
        assert np.array_equal(chunked, whole)
        sizes = [n_paths for [[_batch, n_paths]] in calls]
        assert sum(sizes) == 7
        assert all(size * per_path <= max(per_path, limit) for size in sizes)
        assert sizes[0] == min(7, max(1, limit // per_path))
    # transposed regressors below the crossover, Bartlett's L B from it
    [cell] = oracle.draw_cells(p, 7, [batch], [4], oracle.StreamFactory(9))
    assert cell.M.shape == (7, p.n, p.d, batch if direct else p.d)
    assert np.array_equal(oracle.apply_cell(p, X, cell), whole)


def _draw_spy(monkeypatch, calls):
    """Record the rows of each stacked draw (a block drawn ahead by
    draw_cells, or a chunk of an undrawn cell that apply_cell draws) as a
    list of (batch, paths drawn)."""
    real = oracle._cells

    def spy(p, batches, raw):
        calls.append([[b, len(r[0] if isinstance(r, tuple) else r)] for b, r in zip(batches, raw)])
        return real(p, batches, raw)
    monkeypatch.setattr(oracle, "_cells", spy)


# one path's cell at N = 250 and d = 200 (direct, below the crossover of 266)
# holds 804,000 bytes, so 50 paths' (40.2 MB) exceed MAX_DRAW_BLOCK_BYTES (32 MiB)
OVERSIZED = {"problem": {"n": 2, "d": 200, "noise_sigmas": 1.0, "seed": 3},
             "graph": {"n": 2, "p": 1.0, "seed": 1}, "algorithm": "dvss-sgt", "alpha": 0.01,
             "schedule": {"kind": "constant", "size": 250}, "paths": 50, "seed": 5,
             "stop": {"max_iters": 3}}


@pytest.mark.parametrize("extra", [{}, {"algorithm": "d-sgd", "baseline_batch": 250}],
                         ids=["dvss-sgt", "d-sgd"])
def test_cells_over_the_draw_bound_are_drawn_as_they_are_applied(monkeypatch, tmp_path, extra):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({**OVERSIZED, **extra}))
    name = f"run_{extra.get('algorithm', 'dvss-sgt')}"
    per_path = 8 * 2 * 250 * 201
    assert 50 * per_path > oracle.MAX_DRAW_BLOCK_BYTES
    calls = []
    _draw_spy(monkeypatch, calls)
    outputs = []
    for limit in (oracle.MAX_DRAW_BLOCK_BYTES, 2**40):
        monkeypatch.setattr(oracle, "MAX_DRAW_BLOCK_BYTES", limit)
        calls.clear()
        out = tmp_path / str(limit)
        assert cli.main(["run", "--config", str(config), "--out", str(out)]) == 0
        outputs.append([(out / f"{name}.{ext}").read_bytes() for ext in ("csv", "svg")])
        for rows in calls:
            assert sum(n_paths * per_path for _b, n_paths in rows) <= max(per_path, limit)
        # every cell of the run at the real bound is drawn 41 and 9 paths at a time
        assert calls == ([[[250, 41]], [[250, 9]]] * (len(calls) // 2) if limit < 2**40
                         else [[[250, 50]]] * len(calls))
        assert len(calls) >= 3
    assert outputs[0] == outputs[1]


def _blocks(states, first, last):
    """Cells first..last in the blocks run_paths takes them in under
    _block_of(states), after the k = 0 state: `states` cells a block."""
    return [list(range(c, min(c + states, last + 1))) for c in range(first, last + 1, states)]


# N(k) = ceil(0.9^-k) changes at k = 1, 7, 11, 14, ... and reaches the Bartlett
# crossover, 12 at d = 5, at k = 23. The engine draws cells k + 1, ... from
# state k with tracking and k, ... without; the block size is picked so that
# one block holds cells 22 and 23, or one starts at cell 23.
@pytest.mark.parametrize("edge", [False, True])
@pytest.mark.parametrize("stop", [("max_iters", 40), ("budget_samples", 3000),
                                  ("target_eps", 0.5)])
@pytest.mark.parametrize("algorithm", ["dvss-sgt", "d-sgt", "d-sgd"])
def test_blocks_across_batch_changes_equal_hand_stepped_cells(monkeypatch, fig1_instance,
                                                              algorithm, stop, edge):
    p, g, mix = fig1_instance
    sched, stop, paths = algo.geometric_schedule(0.9), algo.StopRule(*stop), 3
    tracking = algorithm != "d-sgd"
    switch = oracle.bartlett_crossover(p.d)
    assert algo.batch_size(sched, 22) < switch == algo.batch_size(sched, 23)
    states = next(b for b in range(2, 100) if any(
        (block[0] == 23) if edge else (22 in block and 23 in block)
        for block in _blocks(b, int(tracking), 30)))
    _block_of(monkeypatch, states, p, paths)
    calls = []
    _draw_spy(monkeypatch, calls)
    run = algo.run_paths(p, mix, g, algorithm, 0.05, sched, stop, seed=5, paths=paths)
    monkeypatch.undo()
    blocks = [[b for b, _paths in rows] for rows in calls]
    crossing = [b for b in blocks if min(b) < switch <= max(b) or b[0] == switch]
    assert len(crossing) == 1 and (crossing[0][0] == switch) == edge
    k = run.iterations
    assert k > 30 and run.stop_reason == stop.kind
    ref = _hand_stepped_run(p, mix, g, algorithm, 0.05, sched,
                            algo.StopRule("max_iters", k) if stop.kind == "target_eps"
                            else stop, seed=5, paths=paths)
    _assert_same_run(run, dataclasses.replace(ref, stop_reason=stop.kind))


def test_the_drawer_is_entered_once_per_block(monkeypatch, fig1_instance):
    p, g, mix = fig1_instance
    sched, paths = algo.geometric_schedule(0.9), 3
    _block_of(monkeypatch, 7, p, paths)
    calls, counts = [], {"batch_size": 0, "draw_cells": 0}
    _draw_spy(monkeypatch, calls)
    for module, name in ((algo, "batch_size"), (oracle, "draw_cells")):
        def counting(*args, real=getattr(module, name), name=name):
            counts[name] += 1
            return real(*args)
        monkeypatch.setattr(module, name, counting)
    algo.run_paths(p, mix, g, "dvss-sgt", 0.01, sched, algo.StopRule("max_iters", 30),
                   seed=5, paths=paths)
    monkeypatch.undo()
    # cells 1 to 30 in blocks of 7 states, the last cut at the 30th iteration;
    # the block of cells 22 to 28 holds direct and Bartlett cells (k >= 23)
    expect = [len(block) for block in _blocks(7, 1, 30)]
    assert expect == [7, 7, 7, 7, 2]
    # cell 0 is drawn alone for the k = 0 state; then one call per block,
    # every path of every cell
    assert [len(rows) for rows in calls] == [1] + expect
    assert all(n_paths == 3 for rows in calls for _b, n_paths in rows)
    assert counts["draw_cells"] == 1 + len(expect)
    # each cell's batch size is taken once
    assert counts["batch_size"] == 1 + 30


def test_a_state_over_the_record_block_is_drawn_one_at_a_time(monkeypatch):
    # an exact oracle draws no random numbers; the record block alone sizes
    # a draw block: one state, where a state exceeds it
    p, g, mix = path3_instance()
    monkeypatch.setattr(algo, "RECORD_BLOCK_BYTES", p.n * p.d * 8 - 1)
    rows = []
    monkeypatch.setattr(oracle, "draw_cells", lambda p, paths, batches, ks, streams,
                        real=oracle.draw_cells: rows.append(len(batches)) or
                        real(p, paths, batches, ks, streams))
    algo.run_path(p, mix, g, "dvss-sgt", 0.1, algo.constant_schedule(1),
                  algo.StopRule("max_iters", 12), seed=0)
    assert rows == [1] * 13   # y(0), then one cell a block


def test_draw_bytes_is_called_once_per_drawn_row_and_only_by_the_oracle(monkeypatch,
                                                                        fig1_instance):
    p, g, mix = fig1_instance
    args = (p, mix, g, "dvss-sgt", 0.01, algo.geometric_schedule(0.98),
            algo.StopRule("max_iters", 150))
    ref = algo.run_paths(*args, seed=5, paths=2)
    callers, blocks = [], []
    real_bytes, real_cells = oracle.draw_bytes, oracle.draw_cells

    def draw_bytes(p, batch):
        callers.append(sys._getframe(1).f_globals["__name__"])
        return real_bytes(p, batch)

    def draw_cells(p, paths, batches, ks, streams):
        blocks.append(len(batches))
        return real_cells(p, paths, batches, ks, streams)
    monkeypatch.setattr(oracle, "draw_bytes", draw_bytes)
    monkeypatch.setattr(oracle, "draw_cells", draw_cells)
    _assert_same_run(algo.run_paths(*args, seed=5, paths=2), ref)
    # y(0), then 65,536 // (2 x 10 x 5 x 8) = 81 states a block, and the 69 left
    assert blocks == [1, 81, 69]
    assert algo.batch_size(args[5], 150) >= oracle.bartlett_crossover(p.d)
    # draw_cells sums each row's bytes once; nothing else asks for them
    assert len(callers) == sum(blocks) == 151
    assert set(callers) == {"dvssgt.oracle"}


def test_draw_blocks_keep_within_the_draw_limit(monkeypatch, fig1_instance):
    p, g, mix = fig1_instance
    sched, stop, paths = algo.geometric_schedule(0.9), algo.StopRule("max_iters", 30), 3
    ref = algo.run_paths(p, mix, g, "dvss-sgt", 0.01, sched, stop, seed=5, paths=paths)
    # 3 cells of N(k) = 2 and 3 paths fit the limit together; 3 of N(k) = 3 do
    # not, so each is drawn as it is applied; a batch-11 cell of 3 paths alone
    # does not either, so its paths are drawn 2 and 1; a Bartlett cell fits alone
    limit = 2 * oracle.draw_bytes(p, 11)
    assert 3 * oracle.draw_bytes(p, 12) <= limit < 3 * oracle.draw_bytes(p, 11)
    assert 3 * 3 * oracle.draw_bytes(p, 2) <= limit < 3 * 3 * oracle.draw_bytes(p, 3)
    monkeypatch.setattr(oracle, "MAX_DRAW_BLOCK_BYTES", limit)
    _block_of(monkeypatch, 3, p, paths)
    calls = []
    _draw_spy(monkeypatch, calls)
    _assert_same_run(algo.run_paths(p, mix, g, "dvss-sgt", 0.01, sched, stop, seed=5,
                                    paths=paths), ref)
    for rows in calls:
        size = sum(n_paths * oracle.draw_bytes(p, b) for b, n_paths in rows)
        assert size <= max(limit, max(oracle.draw_bytes(p, b) for b, _n in rows))
    assert [[11, 2]] in calls and [[11, 1]] in calls and [[12, 3]] in calls
    assert [[2, 3], [2, 3], [2, 3]] in calls and [[3, 3]] in calls


# the fig1 instance diverges at k = 24 on path 1 (dvss-sgt, alpha 1.0) and at
# k = 41 on path 0 (d-sgd, alpha 0.6); after the k = 0 block, a state k is
# the first row of its block where k - 1 is a multiple of the block's states
@pytest.mark.parametrize("algorithm,alpha,k,slot,states,yielded", [
    pytest.param("dvss-sgt", 1.0, 24, 1, 23, [1, 23], id="dvss-sgt-first-row"),
    pytest.param("dvss-sgt", 1.0, 24, 1, 5, [1, 5, 5, 5, 5, 3], id="dvss-sgt-middle-row"),
    pytest.param("d-sgd", 0.6, 41, 0, 8, [1, 8, 8, 8, 8, 8], id="d-sgd-first-row"),
    pytest.param("d-sgd", 0.6, 41, 0, 7, [1, 7, 7, 7, 7, 7, 5], id="d-sgd-middle-row"),
])
def test_a_divergence_yields_the_states_of_its_block_before_it(monkeypatch, fig1_instance,
                                                                algorithm, alpha, k, slot,
                                                                states, yielded):
    p, g, mix = fig1_instance
    sched = algo.geometric_schedule(0.98) if algorithm == "dvss-sgt" else algo.constant_schedule(1)
    args = (p, mix, g, algorithm, alpha, sched, algo.StopRule("max_iters", 400))
    _block_of(monkeypatch, states, p, 3)
    blocks = []

    def spy(*a, real=algo.iterate):
        for block in real(*a):
            blocks.append(len(block[0]))
            yield block
    monkeypatch.setattr(algo, "iterate", spy)
    with pytest.raises(algo.DivergenceError) as err:
        algo.run_paths(*args, seed=5, paths=3)
    monkeypatch.undo()
    # states 0 .. k - 1 are yielded, a block cut at the diverging state only
    # if a state of it came before; then the error is raised
    assert (err.value.k, err.value.slot) == (k, slot)
    assert blocks == yielded and sum(blocks) == k
    ref = _hand_stepped_run(*args, seed=5, paths=3)
    assert ref.stop_reason == "diverged"
    _assert_same_run(err.value.trace, ref.path(slot))
