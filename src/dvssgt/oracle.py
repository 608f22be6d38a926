"""Strongly convex per-agent objectives with a stochastic first-order oracle.

The concrete instance is linear-regression parameter estimation: agent i
observes d_obs = u^T x_star + noise for Gaussian regressors u, and a single
sampled gradient at x is u u^T x - d_obs u, an unbiased estimate of
grad f_i(x) = R_i (x - x_star).

A batch of N such gradients depends on its regressors only through their
scatter matrix S = sum u u^T ~ Wishart_d(N, R_i), so from N >=
bartlett_crossover(d) on it is drawn from that law directly (Bartlett's
decomposition) in O(d^3) time and O(d^2) memory, whatever N is.
"""
from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass, replace

import numpy as np

from . import spectral

# reserved agent slot for drawing initial iterates (outside any real agent index)
INIT_STREAM_AGENT = (1 << 21) - 1

_KEY_MASK = (1 << 64) - 1

# smallest batch the Bartlett draw takes at any d; see bartlett_crossover
BARTLETT_FLOOR = 12

# bytes of random numbers per chunk of stacked paths (or one path's, if more):
# 6,355 paths of the largest direct draw, N = 11, at n = 10 and d = 5
MAX_DRAW_BLOCK_BYTES = 32 << 20


def bartlett_crossover(d):
    """Smallest batch drawn by Bartlett's decomposition at dimension d. The
    direct draw's cost grows linearly in N; the Bartlett draw's is flat in N
    but pays one more generator call per path and O(d^3) products. On stacked
    network draws (n = 10, 2 or 5 paths, 2-core Xeon) the two cost the same
    at N of about 8-20 for d <= 5 and 1.3 d for d >= 20, and at this rule the
    dearer draw is within ~20% of the cheaper one at each d measured."""
    return max(BARTLETT_FLOOR, d + d // 3)


@dataclass(frozen=True)
class Problem:
    n: int
    d: int
    x_star: np.ndarray
    eta: float
    lips: float
    R: np.ndarray        # (n, d, d) regressor covariances R_i
    chol: np.ndarray     # (n, d, d) lower Cholesky factors of R_i
    sigmas: np.ndarray   # (n,) observation-noise standard deviations
    exact_oracle: bool = False


def stream_key(seed, path, slot, iteration):
    """Philox key of one (path, slot, iteration) cell.

    Slot 0 carries the gradient draws of all n agents at one iteration and
    INIT_STREAM_AGENT the initial iterates. Streams are independent by
    construction, so changing the batch size at one iteration never perturbs
    draws anywhere else.
    """
    return [seed & _KEY_MASK, ((path << 42) | (slot << 21) | iteration) & _KEY_MASK]


class StreamFactory:
    """The streams of one path, or of paths stacked on a leading axis, under
    one seed. One Philox generator is re-keyed in place to each cell, which
    gives the draws of a fresh Philox keyed by stream_key without building one
    (and seeding an unused SeedSequence from OS entropy) per path and iteration."""

    def __init__(self, seed, path=0):
        self.seed = seed
        self.paths = np.atleast_1d(path).tolist()
        self.lead = np.shape(path)     # () for one path, (P,) for stacked ones
        self._rng = np.random.Generator(np.random.Philox(0))
        # a zero counter and an empty buffer, as in a fresh Philox
        self._state = {"bit_generator": "Philox", "buffer": (0,) * 4, "buffer_pos": 4,
                       "has_uint32": 0, "uinteger": 0, "state": {"counter": (0,) * 4}}

    def generators(self, iteration, slot=0):
        """The generator re-keyed to each path's cell in turn; draw all of a
        path's numbers before taking the next."""
        for path in self.paths:
            self._state["state"]["key"] = stream_key(self.seed, path, slot, iteration)
            self._rng.bit_generator.state = self._state
            yield self._rng


def _agent_covariances(n, d, covariance_spec, rng):
    if covariance_spec == "identity":
        return [np.eye(d) for _ in range(n)]
    m = re.fullmatch(r"(diag-uniform|rot-spd)\[([^,\]]+),([^,\]]+)\]", covariance_spec)
    if not m:
        raise ValueError(f"unknown covariance spec {covariance_spec!r}")
    lo, hi = float(m.group(2)), float(m.group(3))
    # numpy's uniform() raises OverflowError, not ValueError, on an infinite range
    if not -math.inf < lo <= hi < math.inf:
        raise ValueError(f"covariance spec {covariance_spec!r} needs finite bounds lo <= hi")
    covs = []
    for _ in range(n):
        diag = rng.uniform(lo, hi, size=d)
        if m.group(1) == "diag-uniform":
            covs.append(np.diag(diag))
        else:
            q, _r = np.linalg.qr(rng.standard_normal((d, d)))
            covs.append(q @ np.diag(diag) @ q.T)
    return covs


def make_regression_problem(n, d, x_star, covariance_spec="diag-uniform[1,2]",
                            noise_spec=1.0, seed=0):
    """Build the n-agent regression instance with known eta, L, x_star.

    noise_spec is a single observation-noise sigma or one per agent.
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

    lam_lo, lam_hi = np.inf, 0.0
    for i, R in enumerate(covs):
        lo, hi = spectral.sym_extreme_eigenvalues(R)
        if lo <= 0.0:
            raise ValueError(f"covariance for agent {i} is not positive definite")
        lam_lo, lam_hi = min(lam_lo, lo), max(lam_hi, hi)

    R = np.stack(covs)
    return Problem(n, d, x_star, float(lam_lo), float(lam_hi), R, np.linalg.cholesky(R),
                   sigmas)


def deterministic(p: Problem) -> Problem:
    """Copy of the problem whose oracle returns exact gradients (zero noise)."""
    return replace(p, exact_oracle=True)


def _offsets(p: Problem, X):
    E = np.asarray(X, dtype=float) - p.x_star
    if E.shape[-2:] != (p.n, p.d):
        raise ValueError(f"X has shape {E.shape}, expected (..., {p.n}, {p.d})")
    return E


def exact_gradients(p: Problem, X):
    """grad f_i(x_i) = R_i (x_i - x_star) for every row x_i of the (n, d) or
    stacked (P, n, d) array X."""
    return (p.R @ _offsets(p, X)[..., None])[..., 0]


def sample_gradients(p: Problem, X, batch, rng):
    """Mini-batch averaged sampled gradients of all n agents at the rows of X.

    X is (n, d), or (P, n, d) for P stacked paths, and `rng` one Generator
    that the paths draw from in turn, or an iterable of one per path. Per
    path, below bartlett_crossover(d) the draws are (n, batch, d) regressor
    normals, then (n, batch) noise normals. Paths are drawn in chunks whose
    random numbers fill at most max(one path's, MAX_DRAW_BLOCK_BYTES) bytes.
    An exact oracle never touches `rng`."""
    if batch < 1:
        raise ValueError(f"batch must be >= 1, got {batch}")
    if p.exact_oracle:
        return exact_gradients(p, X)
    E = _offsets(p, X)
    rngs = itertools.repeat(rng) if isinstance(rng, np.random.Generator) else iter(rng)
    stacked = E.reshape(-1, p.n, p.d)
    bartlett = batch >= bartlett_crossover(p.d)
    width = 8 * p.n * (p.d * (p.d + 2) if bartlett else batch * (p.d + 1))
    chunk = max(1, MAX_DRAW_BLOCK_BYTES // width)
    draw = bartlett_gradients if bartlett else _direct_gradients
    out = np.empty_like(stacked)
    for lo in range(0, len(stacked), chunk):
        e = stacked[lo:lo + chunk]
        out[lo:lo + chunk] = draw(p, e, batch, itertools.islice(rngs, len(e)))
    return out.reshape(E.shape)


def _direct_gradients(p: Problem, E, batch, rngs):
    # one call per path draws its regressor normals and then its noise normals
    block = np.array([rng.standard_normal(p.n * batch * (p.d + 1)) for rng in rngs])
    z = block[:, :p.n * batch * p.d].reshape(E.shape[:-1] + (batch, p.d))
    xi = block[:, p.n * batch * p.d:].reshape(E.shape[:-1] + (batch,))
    return _single_gradients(p.chol, p.sigmas[:, None], E, z, xi).sum(axis=-2) / batch


def _single_gradients(chol, sigma, e, z, xi):
    """Gradients u (u'e - sigma xi), u = L z, at offsets e = x - x_star for
    normals z (..., N, d) and xi (..., N); leading axes are paths and agents,
    so one agent's L, sigma and e give that agent's row."""
    u = z @ np.swapaxes(chol, -1, -2)
    return u * ((u @ e[..., None])[..., 0] - sigma * xi)[..., None]


def bartlett_gradients(p: Problem, E, batch, rng):
    """Exact draw of batch-`batch` averaged gradients at offsets E = X - x_star.

    Agent i's batch sum is S_i e_i - sigma_i U_i' nu_i with S_i = U_i' U_i ~
    Wishart_d(batch, R_i), and U_i' nu_i given U_i is N(0, S_i). Bartlett's
    (1933) decomposition S = L B B' L', with L = chol(R) and B lower
    triangular (B_jj^2 ~ chi^2_{batch-j}, N(0,1) below the diagonal), gives
    both from O(d^2) random numbers per agent. Per path one call draws
    (n, d, d + 1) normals Z, a second (n, d) chi-squares with batch - d + 1
    degrees of freedom: B is Z's strict lower triangle, nu its last column,
    and the d - 1 - j normals right of Z's diagonal in row j, squared, raise
    row j's chi-square to chi^2_{batch-j}. E is (P, n, d), with an iterable
    of one Generator per path. Needs batch >= d.
    """
    d = p.d
    if batch < d:
        raise ValueError(f"Bartlett draw needs batch >= d={d}, got {batch}")
    draws = [(r.standard_normal((p.n, d, d + 1)), r.chisquare(batch - d + 1, size=(p.n, d)))
             for r in rng]
    Z, chi = (np.array(a) for a in zip(*draws))
    j = np.arange(d)
    B = np.where(j[:, None] > j, Z[..., :d], 0.0)
    right = np.where(j[:, None] < j, Z[..., :d], 0.0)
    B[..., j, j] = np.sqrt(chi + (right * right).sum(axis=-1))
    LB = p.chol @ B
    r = (np.swapaxes(LB, -1, -2) @ E[..., None])[..., 0] - p.sigmas[:, None] * Z[..., d]
    return (LB @ r[..., None])[..., 0] / batch


def noise_level(p: Problem, x0):
    """max over agents of sqrt(E||w_i||^2) for the single-sample gradient noise
    w_i = u (u'e_i - sigma_i xi) - R_i e_i, u ~ N(0, R_i), at e_i = x0_i - x_star,
    exactly by Isserlis' (1918) identity: tr(R_i) e_i'R_i e_i + e_i'R_i^2 e_i +
    sigma_i^2 tr(R_i). x0 is (n, d) or one shared (d,) row; an exact oracle has none."""
    if p.exact_oracle:
        return 0.0
    E = np.broadcast_to(np.asarray(x0, dtype=float) - p.x_star, (p.n, p.d))
    RE = (p.R @ E[..., None])[..., 0]
    tr = np.trace(p.R, axis1=1, axis2=2)
    nu_sq = tr * np.sum(E * RE, axis=1) + np.sum(RE**2, axis=1) + p.sigmas**2 * tr
    return float(np.sqrt(nu_sq.max()))
