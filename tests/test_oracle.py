import dataclasses
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


def rows(p, x):
    """The (n, d) network point with every agent at x."""
    return np.tile(x, (p.n, 1))


def sampled(p, X, batch, streams, k):
    """The agents' mini-batch gradients at the (n, d) point X from the cell of
    iteration k, drawn and applied as one path."""
    [cell] = oracle.draw_cells(p, 1, [batch], [k], streams)
    return oracle.apply_cell(p, np.asarray(X, dtype=float)[None], cell)[0]


def test_identity_covariance_constants():
    p = make_small(covariance_spec="identity")
    assert p.eta == pytest.approx(1.0, abs=1e-9)
    assert p.lips == pytest.approx(1.0, abs=1e-9)


def test_diag_uniform_spectrum_bounds():
    p = make_small()
    assert p.eta >= 1.0 - 1e-9
    assert p.lips <= 2.0 + 1e-9
    # eta/lips are the extreme eigenvalues over agents, per the char-poly oracle
    lo = min(oracles.extreme_real_eigs(R)[0] for R in p.R)
    hi = max(oracles.extreme_real_eigs(R)[1] for R in p.R)
    assert p.eta == pytest.approx(lo, abs=1e-7)
    assert p.lips == pytest.approx(hi, abs=1e-7)


def test_experiment_instance_shape():
    d = 5
    p = oracle.make_regression_problem(10, d, np.ones(d) / np.sqrt(d), seed=7)
    assert p.n == 10 and p.d == 5
    assert p.R.shape == p.chol.shape == (10, 5, 5)
    assert p.sigmas.shape == (10,)
    assert 0.0 < p.eta <= p.lips


def test_rot_spd_spectrum_in_band():
    p = make_small(covariance_spec="rot-spd[1,2]")
    for R in p.R:
        lo, hi = oracles.extreme_real_eigs(R)
        assert lo >= 1.0 - 1e-7
        assert hi <= 2.0 + 1e-7
        assert np.allclose(R, R.T, atol=1e-12)


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
    assert np.allclose(oracle.exact_gradients(p, rows(p, p.x_star))[0], 0.0)
    e1 = np.zeros(p.d)
    e1[0] = 1.0
    assert np.allclose(oracle.exact_gradients(p, rows(p, p.x_star + e1))[1], e1)
    with pytest.raises(ValueError):
        oracle.exact_gradients(p, np.zeros((p.n, p.d + 1)))


def test_exact_gradient_matches_finite_differences():
    p = make_small(covariance_spec="rot-spd[1,3]", seed=9)
    rng = np.random.default_rng(0)
    for i in range(p.n):
        x = rng.standard_normal(p.d)
        R = p.R[i]

        def f(v):
            return 0.5 * (v - p.x_star) @ R @ (v - p.x_star)

        fd = oracles.finite_difference_gradient(f, x)
        assert np.allclose(oracle.exact_gradients(p, rows(p, x))[i], fd, atol=1e-6)


def test_mean_gradient_vanishes_at_x_star():
    p = make_small()
    mean = oracle.exact_gradients(p, rows(p, p.x_star)).mean(axis=0)
    assert np.linalg.norm(mean) <= 1e-10


def test_sample_gradient_exact_zero_at_x_star_with_clean_observations():
    p = make_small(noise_spec=0.0)
    s = sampled(p, rows(p, p.x_star), 7, oracle.StreamFactory(1), 0)
    # u u^T x* - (u^T x*) u = 0 for every draw, so the average is exactly 0
    assert np.all(s == 0.0)
    assert s.shape == (p.n, p.d)


def test_stream_reproducibility_and_independence():
    p = make_small()
    X = rows(p, p.x_star + 1.0)
    a = sampled(p, X, 5, oracle.StreamFactory(42), 9)
    b = sampled(p, X, 5, oracle.StreamFactory(42), 9)
    assert np.array_equal(a, b)
    # each agent draws its own regressors, so no two rows coincide
    assert len({tuple(row) for row in a}) == p.n
    # draws at one iteration do not depend on how much was drawn at another
    f1 = oracle.StreamFactory(42)
    sampled(p, X, 2, f1, 8)
    c = sampled(p, X, 5, f1, 9)
    f2 = oracle.StreamFactory(42)
    sampled(p, X, 50, f2, 8)
    d = sampled(p, X, 5, f2, 9)
    assert np.array_equal(c, d)
    # distinct labels give distinct draws
    e = sampled(p, X, 5, f2, 10)
    assert not np.array_equal(c, e)
    assert np.array_equal(c, _direct_draw(p, X, 5, oracles.philox_stream(42, 0, 9)))


def test_changing_one_batch_leaves_other_iterations_bit_identical():
    p = make_small()
    X = rows(p, p.x_star + 0.5)
    streams = oracle.StreamFactory(11)

    def draws(sizes):
        return [sampled(p, X, nb, streams, k)
                for k, nb in enumerate(sizes)]

    base = draws([1, 2, 3, 4, 5, 6, 7, 8])
    # a direct draw at k = 3, then one from the Bartlett branch
    for changed in (40, 10**5):
        other = draws([1, 2, 3, changed, 5, 6, 7, 8])
        for k in range(8):
            assert np.array_equal(base[k], other[k]) == (k != 3)


def _direct_draw(p, X, batch, rng):
    """Reference agent-by-agent batch draw from the network layout: an
    (n, batch, d + 1) block of normals, per sample d regressor normals and
    then a noise normal. Below the crossover the oracle must reproduce it
    bit for bit from the same stream."""
    z = rng.standard_normal((p.n, batch, p.d + 1))
    out = np.empty((p.n, p.d))
    for i in range(p.n):
        u = z[i, :, :p.d] @ p.chol[i].T
        out[i] = u.T @ (u @ (X[i] - p.x_star) - p.sigmas[i] * z[i, :, p.d]) / batch
    return out


def _bartlett_draw(p, X, batch, rng, chi_rng):
    """Reference agent-by-agent Bartlett draw from the network layout: an
    (n, d, d + 1) block of normals Z from rng, and (n, d) chi-squares with
    batch - d + 1 degrees of freedom from chi_rng. Agent i's factor B is Z_i's strict lower
    triangle with B_jj^2 the chi-square plus the squares right of Z_i's
    diagonal in row j, its noise Z_i's last column, and its gradient
    L B (B'L' e_i - sigma_i nu) / batch. From the crossover on the oracle
    must reproduce it bit for bit from the same streams."""
    d = p.d
    Z = rng.standard_normal((p.n, d, d + 1))
    chi = chi_rng.chisquare(batch - d + 1, size=(p.n, d))
    out = np.empty((p.n, d))
    for i in range(p.n):
        B, right = np.tril(Z[i, :, :d], -1), np.triu(Z[i, :, :d], 1)
        B[np.arange(d), np.arange(d)] = np.sqrt(chi[i] + (right * right).sum(axis=1))
        LB = p.chol[i] @ B
        out[i] = LB @ (LB.T @ (X[i] - p.x_star) - p.sigmas[i] * Z[i, :, d]) / batch
    return out


# d = 200 at N = 160 < d: no Bartlett factor exists, whatever the crossover
@pytest.mark.parametrize("d,batch", [(3, 1), (3, 7), (3, oracle.bartlett_crossover(3) - 1),
                                     (200, 160)])
def test_direct_draw_below_crossover_is_bit_identical(d, batch):
    p = make_small(d=d, n=2)
    X = p.x_star + np.array([[0.5], [-0.25]])
    s = sampled(p, X, batch, oracle.StreamFactory(8), 4)
    ref = _direct_draw(p, X, batch, oracles.philox_stream(8, 0, 4))
    assert np.array_equal(s, ref)


@pytest.mark.parametrize("d", [1, 5, 20])
def test_crossover_switches_draws_on_the_same_stream(d):
    p = make_small(d=d, n=2)
    X = p.x_star + np.array([[0.5], [-0.25]])
    below, at = oracle.bartlett_crossover(d) - 1, oracle.bartlett_crossover(d)
    assert below >= 1 and at >= d
    draw = [sampled(p, X, batch, oracle.StreamFactory(8), 4)
            for batch in (below, at)]
    assert np.array_equal(draw[0], _direct_draw(p, X, below, oracles.philox_stream(8, 0, 4)))
    assert np.array_equal(draw[1], _bartlett_draw(p, X, at, oracles.philox_stream(8, 0, 4),
                                                  oracles.philox_stream(8, 1, 4)))
    # at the crossover the direct draw is no longer taken
    assert not np.array_equal(draw[1], _direct_draw(p, X, at, oracles.philox_stream(8, 0, 4)))


def test_bartlett_draw_from_crossover_uses_the_same_stream(monkeypatch):
    p = make_small()
    X = rows(p, p.x_star + 0.5)
    for batch in (oracle.bartlett_crossover(p.d), 10**6):
        s = sampled(p, X, batch, oracle.StreamFactory(8), 4)
        ref = _bartlett_draw(p, X, batch, oracles.philox_stream(8, 0, 4),
                             oracles.philox_stream(8, 1, 4))
        assert np.array_equal(s, ref)
    # a crossover below d would ask for a Bartlett factor that does not exist
    monkeypatch.setattr(oracle, "bartlett_crossover", lambda d: 1)
    with pytest.raises(ValueError):
        oracle.draw_cells(p, 1, [p.d - 1], [4], oracle.StreamFactory(8))


@pytest.mark.parametrize("batch", [3, oracle.bartlett_crossover(3), 30, 1000])
def test_bartlett_moments_match_analytic(monkeypatch, batch):
    # the drawer takes Bartlett's decomposition from N = d on, here d = 3
    monkeypatch.setattr(oracle, "bartlett_crossover", lambda d: d)
    p = make_small(covariance_spec="rot-spd[1,2]", noise_spec=1.5, seed=3)
    R, sigma = p.R[0], p.sigmas[0]
    e = np.array([1.0, -0.5, 0.25])
    draws = 20_000
    X = rows(p, p.x_star + e)[None]
    cells = oracle.draw_cells(p, 1, [batch] * draws, range(draws), oracle.StreamFactory(17))
    assert cells[0].M.shape == (1, p.n, p.d, p.d)
    values = np.stack([oracle.apply_cell(p, X, cell)[0, 0] for cell in cells])
    # single-sample noise covariance (e'Re) R + R e e' R + sigma^2 R, over batch
    cov = ((e @ R @ e) * R + np.outer(R @ e, R @ e) + sigma**2 * R) / batch
    w = values - R @ e
    se_mean = np.sqrt(np.diag(cov) / draws)
    assert np.all(np.abs(w.mean(axis=0)) <= 5.0 * se_mean)
    # entrywise, against the Monte Carlo error of the second moments themselves
    prods = w[:, :, None] * w[:, None, :]
    se_cov = prods.std(axis=0) / np.sqrt(draws)
    assert np.all(np.abs(prods.mean(axis=0) - cov) <= 5.0 * se_cov)


@pytest.mark.parametrize("batch", [3, 30, 1000])
def test_every_row_of_a_batched_draw_follows_the_agent_law(batch):
    # 3 takes the direct draw, 30 and 1000 the Bartlett one
    p = make_small(covariance_spec="rot-spd[1,2]", noise_spec=(0.5, 1.0, 1.5, 2.0),
                   seed=3)
    E = np.array([[1.0, -0.5, 0.25], [0.0, 0.5, -1.0], [-0.75, 0.0, 0.5],
                  [0.25, 0.25, 0.25]])
    streams = oracle.StreamFactory(17)
    draws = 20_000
    values = np.stack([sampled(p, p.x_star + E, batch, streams, t)
                       for t in range(draws)])
    for i in range(p.n):
        R, sigma, e = p.R[i], p.sigmas[i], E[i]
        cov = ((e @ R @ e) * R + np.outer(R @ e, R @ e) + sigma**2 * R) / batch
        w = values[:, i] - R @ e
        se_mean = np.sqrt(np.diag(cov) / draws)
        assert np.all(np.abs(w.mean(axis=0)) <= 5.0 * se_mean)
        prods = w[:, :, None] * w[:, None, :]
        se_cov = prods.std(axis=0) / np.sqrt(draws)
        assert np.all(np.abs(prods.mean(axis=0) - cov) <= 5.0 * se_cov)


def test_draw_at_default_cap_is_finite_and_fast():
    p = make_small()
    X = rows(p, p.x_star + 1.0)
    start = time.perf_counter()
    s = sampled(p, X, algo.DEFAULT_BATCH_CAP, oracle.StreamFactory(1), 1000)
    assert time.perf_counter() - start < 0.5
    assert np.all(np.isfinite(s))
    # at 2^31 - 1 samples the batch mean sits on the exact gradient
    assert np.allclose(s, oracle.exact_gradients(p, X), atol=1e-3)


def test_unbiasedness_quick():
    p = make_small(seed=2)
    X = rows(p, p.x_star + np.array([1.0, -0.5, 0.25]))
    draws = 20_000
    streams = oracle.StreamFactory(3)
    s = sampled(p, X, draws, streams, 0)[0]
    # a batch average over M draws is the empirical mean itself; bound each
    # coordinate by 4 standard errors of a fresh single-draw sample
    singles = np.stack([sampled(p, X, 1, streams, t)[0]
                        for t in range(1, 2001)])
    se = singles.std(axis=0) / np.sqrt(draws)
    true = oracle.exact_gradients(p, X)[0]
    assert np.all(np.abs(s - true) <= 4.0 * se + 1e-12)


def test_variance_scaling_quick():
    p = make_small(seed=2)
    X = rows(p, p.x_star + 1.0)
    true = oracle.exact_gradients(p, X)[0]
    reps = 2000
    streams = oracle.StreamFactory(5)
    n1 = np.mean([np.sum((sampled(p, X, 1, streams, t)[0] - true) ** 2)
                  for t in range(reps)])
    n8 = np.mean([np.sum((sampled(p, X, 8, streams, t)[0] - true) ** 2)
                  for t in range(reps, 2 * reps)])
    assert n8 / n1 == pytest.approx(1.0 / 8.0, rel=0.15)


def test_strong_convexity_and_lipschitz_1000_pairs():
    p = make_small(covariance_spec="rot-spd[0.5,4]", seed=13)
    rng = np.random.default_rng(1)
    for _ in range(1000):
        i = int(rng.integers(p.n))
        x1 = rng.standard_normal(p.d) * 3.0
        x2 = rng.standard_normal(p.d) * 3.0
        g1 = oracle.exact_gradients(p, rows(p, x1))[i]
        g2 = oracle.exact_gradients(p, rows(p, x2))[i]
        dx = x1 - x2
        assert (g1 - g2) @ dx >= p.eta * dx @ dx - 1e-9
        assert np.linalg.norm(g1 - g2) <= p.lips * np.linalg.norm(dx) + 1e-9


def test_deterministic_copy():
    p = make_small()
    det = oracle.deterministic(p)
    X = rows(p, p.x_star + 0.3)
    s = sampled(det, X, 9, oracle.StreamFactory(0), 0)
    assert np.array_equal(s, oracle.exact_gradients(det, X))
    assert np.all(s - oracle.exact_gradients(det, X) == 0.0)
    # an exact oracle never touches its streams
    assert np.array_equal(sampled(det, X, 9, None, 0), s)
    assert oracle.noise_level(det, np.zeros((p.n, p.d))) == 0.0
    assert oracle.noise_level(det, p.x_star + 5.0) == 0.0


@pytest.mark.parametrize("covariance_spec", ["diag-uniform[1,2]", "rot-spd[0.5,3]"])
@pytest.mark.parametrize("shared_row", [False, True])
def test_noise_level_matches_monte_carlo_per_agent(covariance_spec, shared_row):
    p = make_small(covariance_spec, noise_spec=[0.5, 1.0, 2.0, 0.0], seed=3)
    rng = np.random.default_rng(11)
    x0 = p.x_star + (rng.standard_normal(p.d) if shared_row
                     else rng.standard_normal((p.n, p.d)))
    E = np.broadcast_to(x0 - p.x_star, (p.n, p.d))
    levels = []
    for i in range(p.n):
        mean, se = oracles.noise_level_mc(p.R[i], p.sigmas[i], E[i], 100_000, rng)
        # agent i alone: the others sit at x_star without observation noise
        alone = dataclasses.replace(p, sigmas=np.where(np.arange(p.n) == i, p.sigmas, 0.0))
        level = oracle.noise_level(alone, np.where(np.arange(p.n)[:, None] == i, E, 0.0)
                                   + p.x_star)
        assert abs(level**2 - mean) <= 5.0 * se
        levels.append(level)
    assert oracle.noise_level(p, x0) == pytest.approx(max(levels), rel=1e-12)
