import dataclasses

import numpy as np
import pytest

import oracles
from dvssgt import algo, graph, metrics, oracle, theory


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


def test_batch_size_constant():
    s = algo.constant_schedule(7, cap=5)
    assert algo.batch_size(s, 0) == 5
    assert algo.batch_size(algo.constant_schedule(3), 99) == 3


def test_start_zero_noise():
    p, _g, _mix = path3_instance()
    sched = algo.geometric_schedule(0.98)
    streams = oracle.StreamFactory(1, 0)
    x0 = algo.default_x0(p, streams)
    st = algo.start(p, x0, sched, streams)
    for i in range(p.n):
        assert np.allclose(st.y[i], oracle.exact_gradients(p, x0)[i])
    assert np.array_equal(st.y, st.g_prev)
    assert np.all(st.oracle_count == 1)  # N(0) = 1 for a geometric schedule
    with pytest.raises(ValueError):
        algo.start(p, np.zeros((p.n + 1, p.d)), sched, streams)


def test_hand_stepped_two_agent_example():
    p = scalar_problem()
    mix = k2_mix()
    sched = algo.constant_schedule(1)
    streams = oracle.StreamFactory(0, 0)
    alpha = 0.3
    st = algo.start(p, np.array([[0.0], [2.0]]), sched, streams)
    st = algo.step(st, mix, p, alpha, sched, streams)
    assert np.allclose(st.x[:, 0], [1.0 + alpha, 1.0 - alpha], atol=1e-14)
    assert np.allclose(st.y[:, 0], [1.0 + alpha, -(1.0 + alpha)], atol=1e-14)
    assert st.y.mean() == pytest.approx(0.0, abs=1e-14)


def test_fixed_point_at_consensus_optimum():
    p, _g, mix = path3_instance()
    sched = algo.constant_schedule(1)
    streams = oracle.StreamFactory(0, 0)
    x0 = np.tile(p.x_star, (p.n, 1))
    st = algo.start(p, x0, sched, streams)
    for _ in range(10):
        st = algo.step(st, mix, p, 0.2, sched, streams)
    assert np.allclose(st.x, x0, atol=1e-14)
    assert np.allclose(st.y, 0.0, atol=1e-14)


def test_step_rejects_nonpositive_alpha():
    p, _g, mix = path3_instance()
    sched = algo.constant_schedule(1)
    streams = oracle.StreamFactory(0, 0)
    st = algo.start(p, np.zeros((p.n, p.d)), sched, streams)
    with pytest.raises(ValueError):
        algo.step(st, mix, p, 0.0, sched, streams)
    with pytest.raises(ValueError):
        algo.step(st, mix, p, -0.1, sched, streams, tracking=False)


def test_dsgd_alpha_zero_is_pure_mixing():
    p, _g, mix = path3_instance()
    streams = oracle.StreamFactory(0, 0)
    sched = algo.constant_schedule(1)
    x0 = np.arange(6, dtype=float).reshape(3, 2)
    st = algo.start(p, x0, sched, streams, tracking=False)
    st = algo.step(st, mix, p, 0.0, sched, streams, tracking=False)
    assert np.allclose(st.x, mix.A @ x0, atol=1e-14)


def test_dsgd_alpha_zero_run_is_pure_mixing_under_noise():
    # the noisy draws are taken and counted, but alpha = 0 never applies them
    p = oracle.make_regression_problem(3, 2, np.array([0.5, -0.5]),
                                       noise_spec=1.0, seed=3)
    g = graph.Graph.from_edges(3, [(0, 1), (1, 2)])
    mix = graph.metropolis_weights(g)
    x0 = np.arange(6, dtype=float).reshape(3, 2)
    trace = algo.run_path(p, mix, g, "d-sgd", 0.0, algo.constant_schedule(1),
                          algo.StopRule("max_iters", 8), seed=2, x0=x0)
    xbar = x0.mean(axis=0)
    for k in range(9):
        xk = np.linalg.matrix_power(mix.A, k) @ x0
        assert trace.z[k, 0] == pytest.approx(np.linalg.norm(xbar - p.x_star), rel=1e-12)
        assert trace.z[k, 1] == pytest.approx(np.linalg.norm(xk - xbar), rel=1e-9)
    assert np.all(trace.per_agent_samples == 8)


def test_dsgd_contracts_like_scalar_recursion():
    # identical quadratic objectives, consensus start: factor |1 - alpha L|
    p, _g, mix = path3_instance()
    streams = oracle.StreamFactory(0, 0)
    alpha = 0.25
    x0 = np.tile(p.x_star + np.array([2.0, -1.0]), (p.n, 1))
    sched = algo.constant_schedule(1)
    st = algo.start(p, x0, sched, streams, tracking=False)
    err = [np.linalg.norm(st.x - p.x_star)]
    for _ in range(5):
        st = algo.step(st, mix, p, alpha, sched, streams, tracking=False)
        err.append(np.linalg.norm(st.x - p.x_star))
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
    trace = algo.run_path(p, mix, g, "d-sgt", 0.05, algo.constant_schedule(2),
                          algo.StopRule("max_iters", 25), seed=9)
    sched = algo.constant_schedule(2)
    streams = oracle.StreamFactory(9, 0)
    st = algo.start(p, algo.default_x0(p, streams), sched, streams)
    z = []
    for k in range(26):
        if k:
            st = algo.step(st, mix, p, 0.05, sched, streams)
        ev = metrics.error_vector(st, p)
        z.append([ev.opt_err, ev.cons_x, ev.cons_y])
    assert np.array_equal(trace.z, np.array(z))
    assert np.array_equal(trace.per_agent_samples, st.oracle_count)


def test_dsgt_zero_noise_converges_to_optimum():
    p, g, mix = path3_instance()
    stop = algo.StopRule("max_iters", 2000)
    trace = algo.run_path(p, mix, g, "d-sgt", 0.1, algo.constant_schedule(1),
                          stop, seed=0)
    assert trace.combined[-1] <= 1e-10


def test_tracking_identity_and_average_recursion_short_run():
    p = oracle.make_regression_problem(4, 3, np.zeros(3), noise_spec=2.0, seed=6)
    g = graph.erdos_renyi(4, 0.9, seed=1)
    mix = graph.metropolis_weights(g)
    sched = algo.geometric_schedule(0.98)
    streams = oracle.StreamFactory(17, 0)
    st = algo.start(p, algo.default_x0(p, streams), sched, streams)
    for _ in range(60):
        prev = st
        st = algo.step(st, mix, p, 0.02, sched, streams)
        assert np.linalg.norm(st.y.mean(axis=0) - st.g_prev.mean(axis=0)) <= 1e-9
        assert np.linalg.norm(
            st.x.mean(axis=0)
            - (prev.x.mean(axis=0) - 0.02 * prev.y.mean(axis=0))) <= 1e-12


def test_zero_noise_contraction_below_rho_plus_margin(fig1_instance,
                                                     fig1_alpha_star,
                                                     zero_noise_trace):
    problem, _g, mix = fig1_instance
    alpha_star, _rho_star = fig1_alpha_star
    trace, alpha = zero_noise_trace
    cm = theory.build_J(alpha, problem.eta, problem.lips, mix.sigma_A,
                        problem.n, mix.norm_A_minus_I)
    rho = theory.spectral_radius_3x3(cm.J)
    norms = np.linalg.norm(trace.z, axis=1)
    ratios = norms[-50:] / norms[-51:-1]
    assert np.all(ratios <= rho + 0.05)


def test_divergence_guard_attaches_partial_trace(fig1_instance):
    problem, g, mix = fig1_instance
    with pytest.raises(algo.DivergenceError) as err:
        algo.run_path(problem, mix, g, "dvss-sgt", 10.0,
                      algo.geometric_schedule(0.98),
                      algo.StopRule("max_iters", 100), seed=1)
    assert err.value.trace.stop_reason == "diverged"
    assert len(err.value.trace.combined) >= 1
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
    trace = algo.run_path(p, mix, g, "d-sgt", 0.1, algo.constant_schedule(1),
                          algo.StopRule("target_eps", 1e-4), seed=0)
    assert trace.combined[-1] <= 1e-4
    assert np.all(trace.combined[:-1] > 1e-4)


def test_run_path_determinism_and_explicit_x0():
    p = oracle.make_regression_problem(3, 2, np.zeros(2), seed=8)
    g = graph.Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    mix = graph.metropolis_weights(g)
    stop = algo.StopRule("max_iters", 20)
    sched = algo.geometric_schedule(0.98)
    a = algo.run_path(p, mix, g, "dvss-sgt", 0.05, sched, stop, seed=3, path=1)
    b = algo.run_path(p, mix, g, "dvss-sgt", 0.05, sched, stop, seed=3, path=1)
    assert np.array_equal(a.z, b.z)
    c = algo.run_path(p, mix, g, "dvss-sgt", 0.05, sched, stop, seed=3, path=1,
                      x0=a.x0)
    assert np.array_equal(a.z, c.z)
    with pytest.raises(ValueError):
        algo.run_path(p, mix, g, "newton", 0.05, sched, stop, seed=3)


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
    trace = algo.run_path(p, mix, g, algorithm, 0.1, algo.constant_schedule(1),
                          algo.StopRule(*stop), seed=0)
    assert trace.stop_reason == reason
    if reason == "target_eps_iter_cap":
        assert trace.iterations == 40
        assert trace.combined[-1] > 1e-30


def _count_streams(monkeypatch):
    """Every (path, slot, iteration) cell a stream is keyed to, in order."""
    calls = []
    real = oracle.stream_key

    def counting(seed, path, slot, iteration):
        calls.append((seed, path, slot, iteration))
        return real(seed, path, slot, iteration)
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
    # only the initial iterates need a stream then
    algo.run_path(p, mix, g, "dvss-sgt", 0.1, algo.geometric_schedule(0.98),
                  algo.StopRule("max_iters", 30), seed=0, path=4)
    assert calls == [(0, 4, oracle.INIT_STREAM_AGENT, 0)]


def test_one_stream_per_path_and_iteration(monkeypatch):
    p = oracle.make_regression_problem(3, 2, np.zeros(2), seed=8)
    g = graph.Graph.from_edges(3, [(0, 1), (1, 2)])
    mix = graph.metropolis_weights(g)
    calls = _count_streams(monkeypatch)
    stop = algo.StopRule("max_iters", 10)
    algo.run_path(p, mix, g, "dvss-sgt", 0.05, algo.geometric_schedule(0.98),
                  stop, seed=3, path=2)
    init = (3, 2, oracle.INIT_STREAM_AGENT, 0)
    # tracking samples at x(0) .. x(10); D-SGD at x(0) .. x(9)
    assert calls == [init] + [(3, 2, 0, k) for k in range(11)]
    calls.clear()
    algo.run_path(p, mix, g, "d-sgd", 0.05, algo.constant_schedule(1),
                  stop, seed=3, path=2)
    assert calls == [init] + [(3, 2, 0, k) for k in range(10)]


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
    with pytest.raises(ValueError):
        algo.geometric_schedule(0.98, cap=algo.DEFAULT_BATCH_CAP + 1)


def test_rekeyed_stream_equals_a_fresh_philox():
    seed = 2**63 + 12345
    streams = oracle.StreamFactory(seed, [0, 3, 2**20])
    for slot, k in ((0, 0), (0, 7), (oracle.INIT_STREAM_AGENT, 0), (0, 2**21 - 2)):
        for path, rng in zip(streams.paths, streams.generators(k, slot)):
            lane = (path << 42) | (slot << 21) | k
            ref = np.random.Generator(np.random.Philox(
                key=np.array([seed % 2**64, lane], dtype=np.uint64)))
            # an odd count leaves the Philox buffer part used for the next path
            assert np.array_equal(rng.standard_normal(3), ref.standard_normal(3))
            assert np.array_equal(rng.chisquare([5.0, 40.0]), ref.chisquare([5.0, 40.0]))
            assert np.array_equal(rng.standard_normal((2, 5)), ref.standard_normal((2, 5)))


def _assert_same_trace(a, b):
    for f in dataclasses.fields(algo.PathTrace):
        assert np.array_equal(getattr(a, f.name), getattr(b, f.name)), f.name


def test_w_step_is_the_norm_of_each_noise_step(fig1_instance):
    # w_step enters the recursion check's b(k): an inflated one loosens it
    p, g, mix = fig1_instance
    sched, paths, T = algo.geometric_schedule(0.98), [0, 3], 6
    traces = algo.run_paths(p, mix, g, "dvss-sgt", 0.01, sched, algo.StopRule("max_iters", T),
                            seed=5, paths=paths)
    streams = oracle.StreamFactory(5, paths)
    st = algo.start(p, algo.default_x0(p, streams), sched, streams)
    noise = [st.g_prev - np.einsum("ijk,qik->qij", p.R, st.x - p.x_star)]
    for _ in range(T):
        st = algo.step(st, mix, p, 0.01, sched, streams)
        noise.append(st.g_prev - np.einsum("ijk,qik->qij", p.R, st.x - p.x_star))
    for q, trace in enumerate(traces):
        expect = [0.0] + [np.linalg.norm(w1[q] - w0[q]) for w0, w1 in zip(noise, noise[1:])]
        assert min(expect[1:]) > 0.0
        np.testing.assert_allclose(trace.w_step, expect, rtol=1e-12, atol=0)


@pytest.mark.parametrize("algorithm,ratio,stop", [
    ("dvss-sgt", 0.98, ("budget_samples", 3000)),
    ("d-sgt", 0.98, ("budget_samples", 3000)),
    ("d-sgd", 0.98, ("budget_samples", 3000)),
    # N(k) = ceil(0.9^-k) crosses the Bartlett crossover 150 at k = 48
    ("dvss-sgt", 0.9, ("max_iters", 60)),
])
def test_stacked_paths_equal_single_paths(fig1_instance, algorithm, ratio, stop):
    p, g, mix = fig1_instance
    sched = algo.geometric_schedule(ratio)
    paths = [0, 3, 1]
    stacked = algo.run_paths(p, mix, g, algorithm, 0.01, sched, algo.StopRule(*stop),
                             seed=5, paths=paths)
    assert len(stacked) == len(paths)
    for path, trace in zip(paths, stacked):
        single = algo.run_path(p, mix, g, algorithm, 0.01, sched, algo.StopRule(*stop),
                               seed=5, path=path)
        _assert_same_trace(trace, single)
    assert not np.array_equal(stacked[0].z, stacked[1].z)


def test_target_eps_paths_stop_at_different_k(fig1_instance):
    p, g, mix = fig1_instance
    stop = algo.StopRule("target_eps", 0.05)
    sched = algo.geometric_schedule(0.98)
    traces = algo.run_paths(p, mix, g, "dvss-sgt", 0.01, sched, stop, seed=2024,
                            paths=range(6))
    assert len({tr.iterations for tr in traces}) > 1
    for path, tr in enumerate(traces):
        assert tr.stop_reason == "target_eps"
        assert tr.combined[-1] <= 0.05 and np.all(tr.combined[:-1] > 0.05)
        _assert_same_trace(tr, algo.run_path(p, mix, g, "dvss-sgt", 0.01, sched, stop,
                                             seed=2024, path=path))


@pytest.mark.parametrize("offsets,winner", [
    # path 0 sits at the fixed point and never diverges: path 1's error
    ((0.0, 1.0), 1),
    # both diverge, path 1 first; running in order, path 0's error comes first
    ((1e-3, 1e3), 0),
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
        algo.run_paths(*args, seed=0, paths=[0, 1], x0=x0)
    with pytest.raises(algo.DivergenceError) as ref:
        algo.run_path(*args, seed=0, path=winner, x0=x0[winner])
    assert err.value.k == ref.value.k and str(err.value) == str(ref.value)
    assert err.value.trace.stop_reason == "diverged"
    _assert_same_trace(err.value.trace, ref.value.trace)
    if winner == 0:
        with pytest.raises(algo.DivergenceError) as first:
            algo.run_path(*args, seed=0, path=1, x0=x0[1])
        assert first.value.k < err.value.k


@pytest.mark.parametrize("batch", [40, 1000])
def test_chunked_draw_respects_its_block_limit(monkeypatch, batch):
    p = oracle.make_regression_problem(4, 3, np.zeros(3), seed=2)
    X = np.random.default_rng(0).standard_normal((7, p.n, p.d))
    whole = oracle.sample_gradients(p, X, batch, oracle.StreamFactory(9, range(7))
                                    .generators(4))
    # the random numbers of one path at this batch: regressors and noise, or
    # the Bartlett normals, chi-squares and noise
    per_path = 8 * p.n * (batch * (p.d + 1) if batch < 150 else p.d * (p.d + 2))
    sizes = []
    for name in ("_direct_gradients", "bartlett_gradients"):
        real = getattr(oracle, name)

        def spy(p, E, batch, rngs, real=real):
            sizes.append(len(E))
            return real(p, E, batch, rngs)
        monkeypatch.setattr(oracle, name, spy)
    for limit in (1, 2 * per_path + 1, 10**9):
        sizes.clear()
        monkeypatch.setattr(oracle, "MAX_DRAW_BLOCK_BYTES", limit)
        chunked = oracle.sample_gradients(p, X, batch, oracle.StreamFactory(9, range(7))
                                          .generators(4))
        assert np.array_equal(chunked, whole)
        assert sum(sizes) == 7
        assert all(size * per_path <= max(per_path, limit) for size in sizes)
        assert sizes[0] == min(7, max(1, limit // per_path))
