import time

import numpy as np
import pytest

import oracles
from dvssgt import algo, oracle


def make_small(covariance_spec="diag-uniform[1,2]", noise_spec=1.0, seed=5,
               n=4, d=3):
    x_star = np.linspace(-1.0, 1.0, d)
    return oracle.make_regression_problem(n, d, x_star,
                                          covariance_spec=covariance_spec,
                                          noise_spec=noise_spec, seed=seed)


def test_identity_covariance_constants():
    p = make_small(covariance_spec="identity")
    assert p.eta == pytest.approx(1.0, abs=1e-9)
    assert p.lips == pytest.approx(1.0, abs=1e-9)


def test_diag_uniform_spectrum_bounds():
    p = make_small()
    assert p.eta >= 1.0 - 1e-9
    assert p.lips <= 2.0 + 1e-9
    # eta/lips are the extreme eigenvalues over agents, per the char-poly oracle
    lo = min(oracles.extreme_real_eigs(ag.R_u)[0] for ag in p.agents)
    hi = max(oracles.extreme_real_eigs(ag.R_u)[1] for ag in p.agents)
    assert p.eta == pytest.approx(lo, abs=1e-7)
    assert p.lips == pytest.approx(hi, abs=1e-7)


def test_experiment_instance_shape():
    d = 5
    p = oracle.make_regression_problem(10, d, np.ones(d) / np.sqrt(d), seed=7)
    assert p.n == 10 and p.d == 5
    assert len(p.agents) == 10
    assert 0.0 < p.eta <= p.lips
    assert p.nu > 0.0


def test_rot_spd_spectrum_in_band():
    p = make_small(covariance_spec="rot-spd[1,2]")
    for ag in p.agents:
        lo, hi = oracles.extreme_real_eigs(ag.R_u)
        assert lo >= 1.0 - 1e-7
        assert hi <= 2.0 + 1e-7
        assert np.allclose(ag.R_u, ag.R_u.T, atol=1e-12)


def test_non_spd_covariance_rejected():
    with pytest.raises(ValueError):
        make_small(covariance_spec="diag-uniform[-2,-1]")


def test_unknown_covariance_spec_rejected():
    with pytest.raises(ValueError):
        make_small(covariance_spec="wishart[3]")


def test_construction_input_checks():
    with pytest.raises(ValueError):
        oracle.make_regression_problem(1, 2, np.zeros(2))
    with pytest.raises(ValueError):
        oracle.make_regression_problem(3, 0, np.zeros(0))
    with pytest.raises(ValueError):
        oracle.make_regression_problem(3, 2, np.zeros(3))


def test_exact_gradient_trivials():
    p = make_small(covariance_spec="identity")
    assert np.allclose(oracle.exact_gradient(p, 0, p.x_star), 0.0)
    e1 = np.zeros(p.d)
    e1[0] = 1.0
    assert np.allclose(oracle.exact_gradient(p, 1, p.x_star + e1), e1)
    with pytest.raises(ValueError):
        oracle.exact_gradient(p, 0, np.zeros(p.d + 1))


def test_exact_gradient_matches_finite_differences():
    p = make_small(covariance_spec="rot-spd[1,3]", seed=9)
    rng = np.random.default_rng(0)
    for i in range(p.n):
        x = rng.standard_normal(p.d)
        R = p.agents[i].R_u

        def f(v):
            return 0.5 * (v - p.x_star) @ R @ (v - p.x_star)

        fd = oracles.finite_difference_gradient(f, x)
        assert np.allclose(oracle.exact_gradient(p, i, x), fd, atol=1e-6)


def test_mean_gradient_vanishes_at_x_star():
    p = make_small()
    mean = np.mean([oracle.exact_gradient(p, i, p.x_star) for i in range(p.n)],
                   axis=0)
    assert np.linalg.norm(mean) <= 1e-10


def test_sample_gradient_exact_zero_at_x_star_with_clean_observations():
    p = make_small(noise_spec=0.0)
    s = oracle.sample_gradient(p, 0, p.x_star, 7, oracle.gradient_stream(1, 0, 0, 0))
    # u u^T x* - (u^T x*) u = 0 for every draw, so the average is exactly 0
    assert np.all(s.value == 0.0)
    assert s.batch == 7


def test_sample_gradient_bookkeeping():
    p = make_small()
    x = p.x_star + 0.5
    s = oracle.sample_gradient(p, 2, x, 4, oracle.gradient_stream(1, 0, 2, 3))
    assert np.allclose(s.true_grad, oracle.exact_gradient(p, 2, x))
    assert np.allclose(s.noise, s.value - s.true_grad)
    with pytest.raises(ValueError):
        oracle.sample_gradient(p, 2, x, 0, oracle.gradient_stream(1, 0, 2, 3))


def test_stream_reproducibility_and_independence():
    p = make_small()
    x = p.x_star + 1.0
    a = oracle.sample_gradient(p, 1, x, 5, oracle.gradient_stream(42, 3, 1, 9))
    b = oracle.sample_gradient(p, 1, x, 5, oracle.gradient_stream(42, 3, 1, 9))
    assert np.array_equal(a.value, b.value)
    # draws at one iteration do not depend on how much was drawn at another
    f1 = oracle.StreamFactory(42, 3)
    oracle.sample_gradient(p, 1, x, 2, f1.stream(1, 8))
    c = oracle.sample_gradient(p, 1, x, 5, f1.stream(1, 9))
    f2 = oracle.StreamFactory(42, 3)
    oracle.sample_gradient(p, 1, x, 50, f2.stream(1, 8))
    d = oracle.sample_gradient(p, 1, x, 5, f2.stream(1, 9))
    assert np.array_equal(c.value, d.value)
    # distinct labels give distinct draws
    e = oracle.sample_gradient(p, 1, x, 5, oracle.gradient_stream(42, 3, 1, 10))
    assert not np.array_equal(c.value, e.value)


def _direct_draw(p, i, x, batch, rng):
    """Reference regressor-by-regressor batch draw; below the crossover the
    oracle must reproduce it bit for bit from the same stream."""
    ag = p.agents[i]
    u = rng.standard_normal((batch, p.d)) @ ag.chol_R.T
    d_obs = u @ p.x_star + ag.sigma_nu * rng.standard_normal(batch)
    return u.T @ (u @ x - d_obs) / batch


@pytest.mark.parametrize("d,batch", [(3, 1), (3, 7),
                                     (3, oracle.BARTLETT_MIN_BATCH - 1),
                                     (200, oracle.BARTLETT_MIN_BATCH + 10)])
def test_direct_draw_below_crossover_is_bit_identical(d, batch):
    p = make_small(d=d, n=2)
    x = p.x_star + 0.5
    s = oracle.sample_gradient(p, 1, x, batch, oracle.gradient_stream(8, 2, 1, 4))
    ref = _direct_draw(p, 1, x, batch, oracle.gradient_stream(8, 2, 1, 4))
    assert np.array_equal(s.value, ref)


def test_bartlett_draw_from_crossover_uses_the_same_stream():
    p = make_small()
    x = p.x_star + 0.5
    for batch in (oracle.BARTLETT_MIN_BATCH, 10**6):
        s = oracle.sample_gradient(p, 1, x, batch, oracle.gradient_stream(8, 2, 1, 4))
        ref = oracle.bartlett_gradient(p.agents[1], x - p.x_star, batch,
                                       oracle.gradient_stream(8, 2, 1, 4))
        assert np.array_equal(s.value, ref)
    with pytest.raises(ValueError):
        oracle.bartlett_gradient(p.agents[1], x - p.x_star, p.d - 1,
                                 oracle.gradient_stream(8, 2, 1, 4))


@pytest.mark.parametrize("batch", [3, 30, 1000])
def test_bartlett_moments_match_analytic(batch):
    p = make_small(covariance_spec="rot-spd[1,2]", noise_spec=1.5, seed=3)
    ag = p.agents[0]
    R, sigma = ag.R_u, ag.sigma_nu
    e = np.array([1.0, -0.5, 0.25])
    rng = np.random.default_rng(17)
    draws = 20_000
    values = np.stack([oracle.bartlett_gradient(ag, e, batch, rng)
                       for _ in range(draws)])
    # single-sample noise covariance (e'Re) R + R e e' R + sigma^2 R, over batch
    cov = ((e @ R @ e) * R + np.outer(R @ e, R @ e) + sigma**2 * R) / batch
    w = values - R @ e
    se_mean = np.sqrt(np.diag(cov) / draws)
    assert np.all(np.abs(w.mean(axis=0)) <= 5.0 * se_mean)
    # entrywise, against the Monte Carlo error of the second moments themselves
    prods = w[:, :, None] * w[:, None, :]
    se_cov = prods.std(axis=0) / np.sqrt(draws)
    assert np.all(np.abs(prods.mean(axis=0) - cov) <= 5.0 * se_cov)


def test_draw_at_default_cap_is_finite_and_fast():
    p = make_small()
    x = p.x_star + 1.0
    start = time.perf_counter()
    s = oracle.sample_gradient(p, 0, x, algo.DEFAULT_BATCH_CAP,
                               oracle.gradient_stream(1, 0, 0, 1000))
    assert time.perf_counter() - start < 0.5
    assert np.all(np.isfinite(s.value))
    # at 2^31 - 1 samples the batch mean sits on the exact gradient
    assert np.allclose(s.value, s.true_grad, atol=1e-3)


def test_unbiasedness_quick():
    p = make_small(seed=2)
    x = p.x_star + np.array([1.0, -0.5, 0.25])
    draws = 20_000
    s = oracle.sample_gradient(p, 0, x, draws, oracle.gradient_stream(3, 0, 0, 0))
    # a batch average over M draws is the empirical mean itself; bound each
    # coordinate by 4 standard errors of a fresh single-draw sample
    singles = np.stack([
        oracle.sample_gradient(p, 0, x, 1, oracle.gradient_stream(3, 1, 0, t)).value
        for t in range(2000)])
    se = singles.std(axis=0) / np.sqrt(draws)
    assert np.all(np.abs(s.value - s.true_grad) <= 4.0 * se + 1e-12)


def test_variance_scaling_quick():
    p = make_small(seed=2)
    x = p.x_star + 1.0
    reps = 2000
    n1 = np.mean([
        np.sum(oracle.sample_gradient(p, 0, x, 1,
                                      oracle.gradient_stream(5, 0, 0, t)).noise ** 2)
        for t in range(reps)])
    n8 = np.mean([
        np.sum(oracle.sample_gradient(p, 0, x, 8,
                                      oracle.gradient_stream(5, 1, 0, t)).noise ** 2)
        for t in range(reps)])
    assert n8 / n1 == pytest.approx(1.0 / 8.0, rel=0.15)


def test_strong_convexity_and_lipschitz_1000_pairs():
    p = make_small(covariance_spec="rot-spd[0.5,4]", seed=13)
    rng = np.random.default_rng(1)
    for _ in range(1000):
        i = int(rng.integers(p.n))
        x1 = rng.standard_normal(p.d) * 3.0
        x2 = rng.standard_normal(p.d) * 3.0
        g1 = oracle.exact_gradient(p, i, x1)
        g2 = oracle.exact_gradient(p, i, x2)
        dx = x1 - x2
        assert (g1 - g2) @ dx >= p.eta * dx @ dx - 1e-9
        assert np.linalg.norm(g1 - g2) <= p.lips * np.linalg.norm(dx) + 1e-9


def test_deterministic_copy():
    p = make_small()
    det = oracle.deterministic(p)
    assert det.nu == 0.0
    x = p.x_star + 0.3
    s = oracle.sample_gradient(det, 1, x, 9, oracle.gradient_stream(0, 0, 1, 0))
    assert np.array_equal(s.value, oracle.exact_gradient(det, 1, x))
    assert np.all(s.noise == 0.0)
    assert oracle.empirical_noise_level(det, np.zeros((p.n, p.d))) == 0.0


def test_empirical_noise_level_positive_and_below_analytic_bound():
    p = make_small(seed=4)
    x0 = p.x_star + np.ones(p.d) / np.sqrt(p.d)  # inside the analytic region
    emp = oracle.empirical_noise_level(p, x0, draws=5000, seed=1)
    assert 0.0 < emp <= p.nu


def test_json_round_trip():
    p = make_small(seed=21)
    q = oracle.problem_from_json(oracle.problem_to_json(p))
    assert q.n == p.n and q.d == p.d
    assert np.allclose(q.x_star, p.x_star)
    assert q.eta == pytest.approx(p.eta, abs=1e-12)
    assert q.lips == pytest.approx(p.lips, abs=1e-12)
    for a, b in zip(p.agents, q.agents):
        assert np.allclose(a.R_u, b.R_u)
        assert a.sigma_nu == b.sigma_nu
