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
from typing import NamedTuple

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

    R = np.stack(covs)
    lo, hi = spectral.sym_extreme_eigenvalues(R)
    bad = np.flatnonzero(lo <= 0.0)
    if len(bad):
        raise ValueError(f"covariance for agent {bad[0]} is not positive definite")
    return Problem(n, d, x_star, float(lo.min()), float(hi.max()), R, np.linalg.cholesky(R),
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
    return apply_cell(p, X, None)


class Cell(NamedTuple):
    """The state-independent part of the sampled gradients of P stacked paths
    at one iteration: below bartlett_crossover(d) the regressors U = Z L'
    (P, n, batch, d) and noises s = sigma xi (P, n, batch), from it Bartlett's
    M = L B (P, n, d, d) and s = sigma nu (P, n, d). apply_cell turns it into
    gradients at any point."""

    batch: int
    M: np.ndarray
    s: np.ndarray


def draw_bytes(p: Problem, batch):
    """Bytes of random numbers in one path's cell at `batch`: regressor and
    noise normals below the crossover, Bartlett normals and chi-squares from
    it, none for an exact oracle."""
    if p.exact_oracle:
        return 0
    bartlett = batch >= bartlett_crossover(p.d)
    return 8 * p.n * (p.d * (p.d + 2) if bartlett else batch * (p.d + 1))


def draw_cells(p: Problem, batches, rngs):
    """One Cell per row of a block: row j has batch batches[j] and draws from
    rngs[j], an iterable of one Generator per path taken in turn (all of a
    path's numbers are drawn before the next path's). Per path, below
    bartlett_crossover(d) one call draws (n, batch, d) regressor normals and
    then (n, batch) noise normals; from it one call draws (n, d, d + 1)
    normals Z and a second (n, d) chi-squares with batch - d + 1 degrees of
    freedom (see apply_cell). Rows of one draw shape are stacked for the
    arithmetic. An exact oracle draws nothing: None per row."""
    if p.exact_oracle:
        return [None] * len(batches)
    n, d = p.n, p.d
    cross = bartlett_crossover(d)
    raw = [[(r.standard_normal((n, d, d + 1)), r.chisquare(b - d + 1, size=(n, d)))
            if b >= cross else r.standard_normal(n * b * (d + 1)) for r in gens]
           for b, gens in zip(batches, rngs)]
    groups = {}
    for j, b in enumerate(batches):
        groups.setdefault(min(b, cross), []).append(j)
    cells = [None] * len(batches)
    for b, rows in groups.items():
        if b < cross:
            block = np.array([raw[j] for j in rows])
            lead = block.shape[:2] + (n, b)
            z = block[..., :n * b * d].reshape(lead + (d,))
            xi = block[..., n * b * d:].reshape(lead)
            M, s = z @ np.swapaxes(p.chol, -1, -2), p.sigmas[:, None] * xi
        else:
            low = min(batches[j] for j in rows)
            if low < d:
                raise ValueError(f"Bartlett draw needs batch >= d={d}, got {low}")
            Z = np.array([[z for z, _chi in raw[j]] for j in rows])
            chi = np.array([[c for _z, c in raw[j]] for j in rows])
            k = np.arange(d)
            B = np.where(k[:, None] > k, Z[..., :d], 0.0)
            right = np.where(k[:, None] < k, Z[..., :d], 0.0)
            B[..., k, k] = np.sqrt(chi + (right * right).sum(axis=-1))
            M, s = p.chol @ B, p.sigmas[:, None] * Z[..., d]
        for i, j in enumerate(rows):
            cells[j] = Cell(batches[j], M[i], s[i])
    return cells


def apply_cell(p: Problem, X, cell):
    """Mini-batch averaged sampled gradients at the rows of X, (P, n, d), from
    the cell drawn for them; exact gradients for an exact oracle's None.

    A sampled gradient at x is u (u'e - sigma xi) with e = x - x_star, so
    below the crossover agent i's average is U_i'(U_i e_i - s_i)/batch. From
    it, agent i's batch sum is S_i e_i - sigma_i U_i' nu_i with S_i = U_i' U_i
    ~ Wishart_d(batch, R_i), and U_i' nu_i given U_i is N(0, S_i). Bartlett's
    (1933) decomposition S = L B B' L', with L = chol(R) and B lower
    triangular (B_jj^2 ~ chi^2_{batch-j}, N(0,1) below the diagonal), gives
    both from O(d^2) random numbers per agent: B is Z's strict lower
    triangle, nu its last column, and the d - 1 - j normals right of Z's
    diagonal in row j, squared, raise row j's chi-square to chi^2_{batch-j}.
    So the average is M (M'e_i - s_i)/batch with M = L B."""
    return _apply(p, _offsets(p, X), cell)


def _apply(p: Problem, E, cell):
    if cell is None:
        return (p.R @ E[..., None])[..., 0]
    batch, M, s = cell
    if batch < bartlett_crossover(p.d):
        return (M * ((M @ E[..., None])[..., 0] - s)[..., None]).sum(axis=-2) / batch
    r = (np.swapaxes(M, -1, -2) @ E[..., None])[..., 0] - s
    return (M @ r[..., None])[..., 0] / batch


def sample_gradients(p: Problem, X, batch, rng):
    """Mini-batch averaged sampled gradients of all n agents at the rows of X:
    one cell drawn and applied.

    X is (n, d), or (P, n, d) for P stacked paths, and `rng` one Generator
    that the paths draw from in turn, or an iterable of one per path. Paths
    are drawn in chunks whose random numbers fill at most max(one path's,
    MAX_DRAW_BLOCK_BYTES) bytes. An exact oracle never touches `rng`."""
    if batch < 1:
        raise ValueError(f"batch must be >= 1, got {batch}")
    if p.exact_oracle:
        return exact_gradients(p, X)
    E = _offsets(p, X)
    rngs = itertools.repeat(rng) if isinstance(rng, np.random.Generator) else iter(rng)
    stacked = E.reshape(-1, p.n, p.d)
    chunk = max(1, MAX_DRAW_BLOCK_BYTES // draw_bytes(p, batch))
    out = np.empty_like(stacked)
    for lo in range(0, len(stacked), chunk):
        e = stacked[lo:lo + chunk]
        [cell] = draw_cells(p, [batch], [itertools.islice(rngs, len(e))])
        out[lo:lo + chunk] = _apply(p, e, cell)
    return out.reshape(E.shape)


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
