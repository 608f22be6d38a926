import csv
import math
import types

import numpy as np
import pytest

from dvssgt import algo, graph, metrics, oracle, theory


def state_of(x, y):
    """The (x, y) arrays metrics.error_vector reads, as floats."""
    return np.asarray(x, dtype=float), np.asarray(y, dtype=float)


def two_agent_problem():
    return oracle.make_regression_problem(2, 1, np.array([1.0]),
                                          covariance_spec="identity",
                                          noise_spec=0.0, seed=0)


def test_error_vector_trivials():
    p = two_agent_problem()
    z = metrics.error_vector(*state_of(np.tile(p.x_star, (2, 1)), np.zeros((2, 1))), p)
    assert z.shape == (3,) and z.dtype == float
    assert z.tolist() == [0.0, 0.0, 0.0]


def test_error_vector_hand_values():
    p = two_agent_problem()
    opt_err, cons_x, cons_y = metrics.error_vector(*state_of([[0.0], [2.0]], [[-1.0], [1.0]]), p)
    assert opt_err == pytest.approx(0.0, abs=1e-15)  # mean is exactly x*
    assert cons_x == pytest.approx(math.sqrt(2.0), abs=1e-12)
    assert cons_y == pytest.approx(math.sqrt(2.0), abs=1e-12)


def test_combined_is_the_hypot_of_the_first_two_error_columns():
    # a run's combined error is the stacked norm of the first two columns of
    # its error vector, bit for bit, and lies between ||z|| - cons_y and ||z||
    p = oracle.make_regression_problem(4, 3, np.zeros(3), seed=1)
    g = graph.erdos_renyi(4, 0.9, seed=1)
    run = algo.run_paths(p, graph.metropolis_weights(g), g, "dvss-sgt", 0.02,
                         algo.geometric_schedule(0.98), algo.StopRule("max_iters", 40),
                         seed=2, paths=3)
    z = run.z
    assert z.shape == (3, 41, 3)
    assert np.array_equal(run.combined, np.hypot(z[..., 0], z[..., 1]))
    z3 = np.linalg.norm(z, axis=-1)
    assert np.all(run.combined <= z3 * (1 + 1e-15))
    assert np.all(z3 <= (run.combined + z[..., 2]) * (1 + 1e-15))
    # and that of (xbar - x*, x - 1 xbar) at random states
    rng = np.random.default_rng(2)
    for _ in range(100):
        x, y = rng.standard_normal((4, 3)), rng.standard_normal((4, 3))
        z = metrics.error_vector(x, y, p)
        stacked = np.concatenate([x.mean(axis=0) - p.x_star,
                                  (x - x.mean(axis=0)).ravel()])
        assert np.hypot(z[0], z[1]) == pytest.approx(np.linalg.norm(stacked), rel=1e-12)


def test_fit_geometric_rate_exact_sequence():
    ks = np.arange(120)
    fit = metrics.fit_geometric_rate(3.7 * 0.95**ks)
    assert fit.rate == pytest.approx(0.95, abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_fit_geometric_rate_constant_sequence():
    fit = metrics.fit_geometric_rate(np.full(50, 2.0))
    assert fit.rate == pytest.approx(1.0, abs=1e-12)


def test_fit_geometric_rate_rejects_nonpositive():
    with pytest.raises(ValueError):
        metrics.fit_geometric_rate(np.array([1.0, 0.0, 1.0] * 10))


def test_fit_rate_zero_noise_run_below_rho(zero_noise_trace, fig1_instance):
    problem, _g, mix = fig1_instance
    run, alpha = zero_noise_trace
    cm = theory.build_J(alpha, problem.eta, problem.lips, mix.sigma_A,
                        problem.n, mix.norm_A_minus_I)
    rho = theory.spectral_radius_3x3(cm.J)
    # k = 100..399: the fit drops the first tenth of the 333 entries from k = 67
    fit = metrics.fit_geometric_rate(run.combined[0, 67:400])
    assert fit.rate <= rho + 0.05


def test_mean_over_paths_is_permutation_invariant():
    p = oracle.make_regression_problem(3, 2, np.zeros(2), seed=4)
    g = graph.Graph.from_edges(3, [(0, 1), (1, 2)])
    mix = graph.metropolis_weights(g)
    sched = algo.geometric_schedule(0.98)
    run = algo.run_paths(p, mix, g, "dvss-sgt", 0.02, sched,
                         algo.StopRule("max_iters", 30), seed=5, paths=3)
    assert len(run.mean_combined) == 31 and run.mean_z.shape == (31, 3)
    order = [2, 0, 1]
    assert np.array_equal(run.mean_combined, metrics.mean_over_paths(run.combined[order]))
    assert np.array_equal(run.mean_z, metrics.mean_over_paths(run.z[order]))
    assert np.all(np.diff(run.cum_samples) > 0)
    assert np.all(np.diff(run.cum_messages) > 0)


def test_optimality_row_contraction_pathwise(fig1_run, fig1_instance):
    # first row of the per-step recursion, checked with recorded noise
    problem, _g, mix = fig1_instance
    run, _elapsed = fig1_run
    theta = 1.0 - 0.01 * problem.eta
    coef = 0.01 * problem.lips / math.sqrt(problem.n)
    for z, sum_w_norms in zip(run.z[:5], run.sum_w_norms[:5]):
        assert z.shape == (221, 3)
        for k in range(z.shape[0] - 1):
            bound = (theta * z[k, 0] + coef * z[k, 1]
                     + 0.01 / problem.n * sum_w_norms[k])
            assert z[k + 1, 0] <= bound + 1e-9


def test_oracle_vs_epsilon_trivial_and_unreached():
    p = oracle.make_regression_problem(3, 2, np.zeros(2), seed=4)
    g = graph.Graph.from_edges(3, [(0, 1), (1, 2)])
    mix = graph.metropolis_weights(g)
    res = algo.run_path(oracle.deterministic(p), mix, g, "d-sgt", 0.1,
                        algo.constant_schedule(1),
                        algo.StopRule("max_iters", 200), seed=6)
    initial = res.mean_combined[0]
    table = metrics.oracle_vs_epsilon(res, [2.0 * initial, 1e-30, initial / 2.0, initial / 8.0])
    assert table.samples[0] == 0          # already below the loose target
    assert table.samples[1] == -1         # never reached
    # the slope is fitted through the targets reached after k = 0, here two
    first, second = table.samples[2:]
    assert 0 < first < second
    assert math.isclose(table.slope, math.log(second / first) / math.log(4.0), rel_tol=1e-9)


def test_oracle_vs_epsilon_noiseless_far_below_quadratic():
    p = oracle.make_regression_problem(10, 5, np.ones(5) / np.sqrt(5.0), seed=7)
    g = graph.erdos_renyi(10, 0.3, seed=11)
    mix = graph.metropolis_weights(g)
    res = algo.run_path(oracle.deterministic(p), mix, g, "dvss-sgt", 0.01,
                        algo.constant_schedule(1),
                        algo.StopRule("target_eps", 5e-4), seed=8)
    table = metrics.oracle_vs_epsilon(res, np.logspace(-1, -3, 8))
    assert np.all(table.samples > 0)
    assert table.slope < 1.0  # samples grow like K(eps), not 1/eps^2


def test_csv_round_trip(tmp_path):
    p = oracle.make_regression_problem(3, 2, np.zeros(2), seed=4)
    g = graph.Graph.from_edges(3, [(0, 1), (1, 2)])
    mix = graph.metropolis_weights(g)
    res = algo.run_path(p, mix, g, "dvss-sgt", 0.02,
                        algo.geometric_schedule(0.98),
                        algo.StopRule("max_iters", 25), seed=9)
    path = tmp_path / "run.csv"
    metrics.write_csv(res, path)
    with open(path, newline="") as fh:
        rows = [{key: float(val) for key, val in row.items()} for row in csv.DictReader(fh)]
    assert len(rows) == 26
    assert [row["k"] for row in rows] == list(range(26))
    for k, row in enumerate(rows):
        assert row["mean_combined"] == res.mean_combined[k]
        assert row["mean_opt_err"] == res.mean_z[k, 0]
        assert row["cum_samples_total"] == res.cum_samples[k]


@pytest.mark.parametrize("n", [2, 10, 40])
@pytest.mark.parametrize("d", [1, 2, 5])
def test_agent_sum_equals_the_sum_over_the_agent_axis_bit_for_bit(n, d):
    rng = np.random.default_rng(100 * n + d)
    for shape in [(32, 5, n, d), (3, 50, n, d), (1, 2, n, d), (5, n, d), (1, n, d)]:
        for _ in range(20):
            # magnitudes from 1e-12 to 1e12, so the order of the additions shows
            v = rng.standard_normal(shape) * np.exp(rng.uniform(-28.0, 28.0, shape))
            assert np.array_equal(metrics._agent_sum(v), v.sum(axis=-2))


def test_error_vector_of_a_record_block_equals_its_states_one_by_one():
    p = oracle.make_regression_problem(10, 5, np.zeros(5), seed=3)
    rng = np.random.default_rng(4)
    x, y = rng.standard_normal((2, 7, 3, 10, 5)) * np.exp(rng.uniform(-9, 9, (2, 7, 3, 10, 5)))
    block = metrics.error_vector(x, y, p)
    assert block.shape == (7, 3, 3)
    for b in range(7):
        assert np.array_equal(block[b], metrics.error_vector(x[b], y[b], p))


def test_error_vector_past_the_square_range_is_finite():
    # ||v||^2 overflows from ||v|| ~ 1.3e154 on; ||v|| itself does not
    p = two_agent_problem()
    x, y = state_of([[3e200], [-1e200]], [[1e300], [-1e300]])
    z = metrics.error_vector(x, y, p)
    assert z == pytest.approx([1e200, math.sqrt(8) * 1e200, math.sqrt(2) * 1e300], rel=1e-15)
    # a record block with one such state: the others are computed as alone
    rng = np.random.default_rng(5)
    xs, ys = rng.standard_normal((2, 4, 3, 2, 1))
    xs[2, 1], ys[2, 1] = x, y
    block = metrics.error_vector(xs, ys, p)
    assert np.array_equal(block[2, 1], z)
    for b, q in np.ndindex(4, 3):
        assert np.array_equal(block[b, q], metrics.error_vector(xs[b, q], ys[b, q], p))


def test_write_csv_bytes_equal_csv_writer(tmp_path):
    specials = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e308, 1.0 / 3.0, 2.5e-7]
    mean_z = np.array([specials[k:k + 3] for k in range(len(specials) - 2)])
    rows = len(mean_z)
    # the four columns write_csv reads of a run, set directly: a mean over
    # paths would turn -0.0 into 0.0
    res = types.SimpleNamespace(
        mean_z=mean_z, mean_combined=np.array(specials[2:]),
        cum_samples=np.array([2**62 - k for k in range(rows)], dtype=np.int64),
        cum_messages=np.arange(rows, dtype=np.int64) * 2**40)
    path = tmp_path / "out.csv"
    metrics.write_csv(res, path)
    ref = tmp_path / "ref.csv"
    with open(ref, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(metrics.CSV_FIELDS)
        for k in range(rows):
            writer.writerow([k, *map(repr, mean_z[k].tolist()), repr(float(res.mean_combined[k])),
                             int(res.cum_samples[k]), int(res.cum_messages[k])])
    assert path.read_bytes() == ref.read_bytes()
