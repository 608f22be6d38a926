"""Strongly convex per-agent objectives with a stochastic first-order oracle.

The concrete instance is linear-regression parameter estimation: agent i
observes d_obs = u^T x_star + noise for Gaussian regressors u, and a single
sampled gradient at x is u u^T x - d_obs u, an unbiased estimate of
grad f_i(x) = R_i (x - x_star).

A batch of N such gradients depends on its regressors only through their
scatter matrix S = sum u u^T ~ Wishart_d(N, R_i), so from N >= max(d,
BARTLETT_MIN_BATCH) on it is drawn from that law directly (Bartlett's
decomposition) in O(d^3) time and O(d^2) memory, whatever N is.
"""
from __future__ import annotations

import json
import re
from dataclasses import dataclass, replace

import numpy as np

from . import spectral

# radius of the compact region the analytic noise bound is taken over
NOISE_REGION_RADIUS_FACTOR = 3.0

# reserved agent slot for drawing initial iterates (outside any real agent index)
INIT_STREAM_AGENT = (1 << 21) - 1

_KEY_MASK = (1 << 64) - 1

# batch size from which the Bartlett draw replaces the direct one: at d=5 both
# cost 25-35 us per draw near 150 on a 2-core Xeon, the direct draw is cheaper
# below and grows linearly in N above (1 ms at N=8,877)
BARTLETT_MIN_BATCH = 150


@dataclass(frozen=True)
class RegressionAgentParams:
    R_u: np.ndarray
    sigma_nu: float
    chol_R: np.ndarray


@dataclass(frozen=True)
class GradientSample:
    value: np.ndarray
    batch: int
    true_grad: np.ndarray
    noise: np.ndarray


@dataclass(frozen=True)
class Problem:
    n: int
    d: int
    x_star: np.ndarray
    eta: float
    lips: float
    nu: float
    agents: tuple
    covariance_spec: str
    noise_sigmas: tuple
    seed: int
    exact_oracle: bool = False


def gradient_stream(seed, path, agent, iteration):
    """Counter-keyed Philox stream for one (path, agent, iteration) cell.

    Streams are independent by construction, so changing the batch size at
    one iteration never perturbs draws anywhere else.
    """
    lane = ((path << 42) | (agent << 21) | iteration) & _KEY_MASK
    key = np.array([seed & _KEY_MASK, lane], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class StreamFactory:
    """Per-path handle that hands out the (agent, iteration) streams."""

    seed: int
    path: int = 0

    def stream(self, agent, iteration):
        return gradient_stream(self.seed, self.path, agent, iteration)

    def init_stream(self):
        return gradient_stream(self.seed, self.path, INIT_STREAM_AGENT, 0)


def _agent_covariances(n, d, covariance_spec, rng):
    m = re.fullmatch(r"identity", covariance_spec)
    if m:
        return [np.eye(d) for _ in range(n)]
    m = re.fullmatch(r"diag-uniform\[([^,\]]+),([^,\]]+)\]", covariance_spec)
    if m:
        lo, hi = float(m.group(1)), float(m.group(2))
        return [np.diag(rng.uniform(lo, hi, size=d)) for _ in range(n)]
    m = re.fullmatch(r"rot-spd\[([^,\]]+),([^,\]]+)\]", covariance_spec)
    if m:
        lo, hi = float(m.group(1)), float(m.group(2))
        covs = []
        for _ in range(n):
            diag = rng.uniform(lo, hi, size=d)
            q, _r = np.linalg.qr(rng.standard_normal((d, d)))
            covs.append(q @ np.diag(diag) @ q.T)
        return covs
    raise ValueError(f"unknown covariance spec {covariance_spec!r}")


def make_regression_problem(n, d, x_star, covariance_spec="diag-uniform[1,2]",
                            noise_spec=1.0, seed=0):
    """Build the n-agent regression instance with known eta, L, x_star.

    noise_spec is a single observation-noise sigma or one per agent. The
    recorded nu is the analytic single-sample noise bound over the ball of
    radius 3*sqrt(d) around x_star; see empirical_noise_level for the
    at-x0 estimate used in reported bounds.
    """
    if n < 2:
        raise ValueError(f"need at least 2 agents, got n={n}")
    if d < 1:
        raise ValueError(f"need dimension >= 1, got d={d}")
    x_star = np.asarray(x_star, dtype=float)
    if x_star.shape != (d,):
        raise ValueError(f"x_star has shape {x_star.shape}, expected ({d},)")
    sigmas = np.broadcast_to(np.asarray(noise_spec, dtype=float), (n,)).copy()
    rng = np.random.default_rng(seed)
    covs = _agent_covariances(n, d, covariance_spec, rng)

    agents = []
    lam_lo, lam_hi = np.inf, 0.0
    radius = NOISE_REGION_RADIUS_FACTOR * np.sqrt(d)
    nu_sq = 0.0
    for i, R in enumerate(covs):
        lo, hi = spectral.sym_extreme_eigenvalues(R)
        if lo <= 0.0:
            raise ValueError(f"covariance for agent {i} is not positive definite")
        lam_lo, lam_hi = min(lam_lo, lo), max(lam_hi, hi)
        tr = float(np.trace(R))
        # E||w||^2 at offset e: tr(R) e'Re + e'R^2 e + sigma^2 tr(R)
        nu_sq = max(nu_sq, hi * radius**2 * (tr + hi) + sigmas[i] ** 2 * tr)
        agents.append(RegressionAgentParams(R, float(sigmas[i]), np.linalg.cholesky(R)))

    return Problem(n, d, x_star, float(lam_lo), float(lam_hi), float(np.sqrt(nu_sq)),
                   tuple(agents), covariance_spec, tuple(sigmas.tolist()), seed)


def deterministic(p: Problem) -> Problem:
    """Copy of the problem whose oracle returns exact gradients (zero noise)."""
    return replace(p, exact_oracle=True, nu=0.0)


def exact_gradient(p: Problem, i, x):
    x = np.asarray(x, dtype=float)
    if x.shape != (p.d,):
        raise ValueError(f"x has shape {x.shape}, expected ({p.d},)")
    return p.agents[i].R_u @ (x - p.x_star)


def sample_gradient(p: Problem, i, x, batch, rng):
    """Mini-batch averaged sampled gradient at x for agent i."""
    if batch < 1:
        raise ValueError(f"batch must be >= 1, got {batch}")
    true = exact_gradient(p, i, x)
    if p.exact_oracle:
        return GradientSample(true.copy(), batch, true, np.zeros(p.d))
    ag = p.agents[i]
    if batch >= max(p.d, BARTLETT_MIN_BATCH):
        value = bartlett_gradient(ag, x - p.x_star, batch, rng)
    else:
        u = rng.standard_normal((batch, p.d)) @ ag.chol_R.T
        d_obs = u @ p.x_star + ag.sigma_nu * rng.standard_normal(batch)
        value = u.T @ (u @ x - d_obs) / batch
    return GradientSample(value, batch, true, value - true)


def bartlett_gradient(ag: RegressionAgentParams, e, batch, rng):
    """Exact draw of a batch-`batch` averaged gradient at offset e = x - x_star.

    The batch sum is S e - sigma U^T nu with S = U^T U ~ Wishart_d(batch, R),
    and U^T nu given U is N(0, S). Bartlett's (1933) decomposition S = L B B^T L^T,
    with L = chol(R) and B lower triangular (B_jj^2 ~ chi^2_{batch-j},
    N(0,1) below the diagonal), gives both from O(d^2) random numbers.
    Needs batch >= d.
    """
    d = len(e)
    if batch < d:
        raise ValueError(f"Bartlett draw needs batch >= d={d}, got {batch}")
    B = np.tril(rng.standard_normal((d, d)), -1)
    B[np.diag_indices(d)] = np.sqrt(rng.chisquare(batch - np.arange(d)))
    LB = ag.chol_R @ B
    return LB @ (LB.T @ e - ag.sigma_nu * rng.standard_normal(d)) / batch


def empirical_noise_level(p: Problem, x0, draws=10_000, seed=0):
    """max over agents of sqrt(E||w_i||^2) at the rows of x0, by Monte Carlo."""
    if p.exact_oracle:
        return 0.0
    x0 = np.atleast_2d(np.asarray(x0, dtype=float))
    rng = np.random.default_rng(seed)
    worst = 0.0
    for i in range(p.n):
        xi = x0[i % x0.shape[0]]
        true = exact_gradient(p, i, xi)
        ag = p.agents[i]
        u = rng.standard_normal((draws, p.d)) @ ag.chol_R.T
        d_obs = u @ p.x_star + ag.sigma_nu * rng.standard_normal(draws)
        per_draw = u * (u @ xi - d_obs)[:, None] - true
        worst = max(worst, float(np.mean(np.sum(per_draw**2, axis=1))))
    return float(np.sqrt(worst))


def problem_to_json(p: Problem) -> str:
    return json.dumps({
        "n": p.n,
        "d": p.d,
        "x_star": p.x_star.tolist(),
        "covariance_spec": p.covariance_spec,
        "noise_sigmas": list(p.noise_sigmas),
        "seed": p.seed,
    }, indent=2)


def problem_from_json(text: str) -> Problem:
    doc = json.loads(text)
    return make_regression_problem(
        doc["n"], doc["d"], np.asarray(doc["x_star"], dtype=float),
        covariance_spec=doc.get("covariance_spec", "diag-uniform[1,2]"),
        noise_spec=doc.get("noise_sigmas", 1.0),
        seed=doc.get("seed", 0),
    )
