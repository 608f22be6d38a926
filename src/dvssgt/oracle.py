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

import math
import re
from collections import defaultdict
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from . import spectral

# stream slot of the initial iterates; slots 0 and 1 carry the gradient draws
INIT_STREAM_AGENT = (1 << 21) - 1

_KEY_MASK = (1 << 64) - 1

# smallest batch the Bartlett draw takes at any d; see bartlett_crossover
BARTLETT_FLOOR = 12

# bytes of random numbers a block of cells draws ahead; a larger block is drawn
# as it is applied, in chunks of stacked paths of at most these bytes (or one
# path's, if more): 6,355 paths of the largest direct draw, N = 11, at n = 10, d = 5
MAX_DRAW_BLOCK_BYTES = 32 << 20


def bartlett_crossover(d):
    """Smallest batch drawn by Bartlett's decomposition at dimension d. The
    direct draw's cost grows linearly in N; the Bartlett draw's is flat in N
    but pays a second generator call per iteration and O(d^3) products. The
    rule was measured with one stream per path and iteration (n = 10, 2 or 5
    paths, 2-core Xeon): break-even at N of 8-20 for d <= 5 and 1.3 d for
    d >= 20. With one call per iteration for all paths it is still N of
    8-12 at d = 5, for 2 to 20 paths."""
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


def stream_key(seed, slot, iteration):
    """Philox key of one (slot, iteration) stream; word 1 is (slot << 42) |
    iteration, so no iteration a run can reach aliases another slot. Slot 0
    carries the normals of all paths' cells at one iteration, slot 1 the
    chi-squares of a Bartlett cell, INIT_STREAM_AGENT the initial iterates.
    Paths 0..P-1 draw path-major from each, so path q's numbers are the same
    in every run of more than q paths. Streams are independent by
    construction, so changing the batch size at one iteration never perturbs
    draws anywhere else."""
    return [seed & _KEY_MASK, ((slot << 42) | iteration) & _KEY_MASK]


class StreamFactory:
    """The streams of one seed: one Philox generator per slot, re-keyed in
    place, which gives the draws of a fresh Philox keyed by stream_key without
    building one (and seeding an unused SeedSequence) per iteration."""

    def __init__(self, seed):
        self.seed = seed
        self._rngs = defaultdict(lambda: np.random.Generator(np.random.Philox(0)))
        # a zero counter and an empty buffer, as in a fresh Philox
        self._state = {"bit_generator": "Philox", "buffer": (0,) * 4, "buffer_pos": 4,
                       "has_uint32": 0, "uinteger": 0, "state": {"counter": (0,) * 4}}

    def generator(self, iteration, slot=0):
        """The slot's generator at the start of its (slot, iteration) stream;
        the slot's next call re-keys the same generator."""
        rng = self._rngs[slot]
        self._state["state"]["key"] = stream_key(self.seed, slot, iteration)
        rng.bit_generator.state = self._state
        return rng


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


def _checked(p: Problem, X):
    X = np.asarray(X, dtype=float)
    if X.shape[-2:] != (p.n, p.d):
        raise ValueError(f"X has shape {X.shape}, expected (..., {p.n}, {p.d})")
    return X


def _per_agent(X, F):
    """X_i F_i for every agent i, the agent axis second to last: X (..., n, a)
    and F (n, a, c), as n stacked products, not one per leading index of X."""
    out = X.reshape((-1,) + X.shape[-2:]).swapaxes(0, 1) @ F
    return out.swapaxes(0, 1).reshape(X.shape[:-1] + F.shape[-1:])


def exact_gradients(p: Problem, X):
    """grad f_i(x_i) = R_i (x_i - x_star) for every row x_i of the (n, d) or
    stacked (..., n, d) array X."""
    return apply_cell(p, _checked(p, X), None)


class Cell(NamedTuple):
    """The state-independent part of P stacked paths' sampled gradients at
    one iteration, which apply_cell turns into gradients at any point: below
    bartlett_crossover(d) M = U' (P, n, d, batch), the transposed regressors,
    and s = sigma xi; from it Bartlett's M = L B (P, n, d, d) and s = sigma nu.
    An undrawn cell has M None and s (k, streams), its iteration and streams."""

    batch: int
    M: np.ndarray
    s: np.ndarray


def draw_bytes(p: Problem, batch):
    """Bytes of random numbers in one path's cell at `batch`, the arrays
    _drawer draws; none for an exact oracle."""
    if p.exact_oracle:
        return 0
    if batch >= bartlett_crossover(p.d):
        return 8 * p.n * p.d * (p.d + 2)
    return 8 * p.n * batch * (p.d + 1)


def _drawer(p: Problem, batch, k, streams: StreamFactory):
    """draw(P): the next P paths' numbers of the cell at iteration k, from its
    streams keyed now. Below bartlett_crossover(d), (P, n, batch, d + 1)
    normals: d regressor normals and a noise per sample. From it, Bartlett's
    (P, n, d, d + 1) normals and, from slot 1, (P, n, d) chi-squares with
    batch - d + 1 degrees of freedom (see apply_cell). Calls continue the same
    generators."""
    n, d, rng = p.n, p.d, streams.generator(k)
    if batch < bartlett_crossover(d):
        return lambda P: (rng.standard_normal((P, n, batch, d + 1)), None)
    chi = streams.generator(k, 1)
    return lambda P: (rng.standard_normal((P, n, d, d + 1)), chi.chisquare(batch - d + 1, (P, n, d)))


def draw_cells(p: Problem, paths, batches, ks, streams: StreamFactory):
    """One Cell of `paths` stacked paths per row of a block: row j has batch
    batches[j] and draws from the streams of iteration ks[j], one generator
    call per slot. Rows of one draw shape are stacked for the arithmetic. A
    block whose random numbers exceed MAX_DRAW_BLOCK_BYTES comes back undrawn,
    for apply_cell to draw as it applies each row. An exact oracle draws
    nothing: None per row."""
    if p.exact_oracle:
        return [None] * len(batches)
    if paths * sum(draw_bytes(p, b) for b in batches) > MAX_DRAW_BLOCK_BYTES:
        return [Cell(b, None, (k, streams)) for b, k in zip(batches, ks)]
    return _cells(p, batches, [_drawer(p, b, k, streams)(paths) for b, k in zip(batches, ks)])


def _cells(p: Problem, batches, raw):
    d, cross = p.d, bartlett_crossover(p.d)
    groups = {}
    for j, b in enumerate(batches):
        groups.setdefault(min(b, cross), []).append(j)
    cells = [None] * len(batches)
    for b, rows in groups.items():
        Z = np.array([raw[j][0] for j in rows])
        s = p.sigmas[:, None] * Z[..., d]
        if b < cross:
            U = _per_agent(Z[..., :d].swapaxes(-3, -2), p.chol.swapaxes(-1, -2))   # (..., b, n, d)
            M = np.moveaxis(U, -3, -1)
        else:
            low = min(batches[j] for j in rows)
            if low < d:
                raise ValueError(f"Bartlett draw needs batch >= d={d}, got {low}")
            chi = np.array([raw[j][1] for j in rows])
            k = np.arange(d)
            B = np.where(k[:, None] > k, Z[..., :d], 0.0)
            right = np.where(k[:, None] < k, Z[..., :d], 0.0)
            B[..., k, k] = np.sqrt(chi + (right * right).sum(axis=-1))
            M = p.chol @ B
        for i, j in enumerate(rows):
            cells[j] = Cell(batches[j], M[i], s[i])
    return cells


def apply_cell(p: Problem, X, cell):
    """Mini-batch averaged sampled gradients at the rows of X, a float
    (P, n, d) array taken as it is, from the cell drawn for them; exact
    gradients for an exact oracle's None. An undrawn cell's paths are drawn
    and applied in chunks whose random numbers fill at most max(one path's,
    MAX_DRAW_BLOCK_BYTES) bytes.

    A sampled gradient at x is u (u'e - sigma xi) with e = x - x_star, so below
    the crossover agent i's average is M (M'e_i - s_i)/batch with M = U_i' and
    s_i = sigma_i xi_i. From it, agent i's batch sum is S_i e_i - sigma_i U_i'
    nu_i with S_i = U_i' U_i ~ Wishart_d(batch, R_i), and U_i' nu_i given U_i
    is N(0, S_i). Bartlett's (1933) decomposition S = L B B' L', with L =
    chol(R) and B lower triangular (B_jj^2 ~ chi^2_{batch-j}, N(0,1) below the
    diagonal), gives both from O(d^2) random numbers per agent: B is Z's strict
    lower triangle, nu its last column, and the d - 1 - j normals right of Z's
    diagonal in row j, squared, raise row j's chi-square to chi^2_{batch-j}. So
    the average is again M (M'e_i - s_i)/batch, with M = L B."""
    if cell is None:
        return _per_agent(X - p.x_star, p.R.swapaxes(-1, -2))
    batch, M, s = cell
    if M is None:
        draw = _drawer(p, batch, *s)
        chunk = max(1, MAX_DRAW_BLOCK_BYTES // draw_bytes(p, batch))
        out = np.empty_like(X)
        for lo in range(0, len(X), chunk):
            x = X[lo:lo + chunk]
            out[lo:lo + chunk] = apply_cell(p, x, _cells(p, [batch], [draw(len(x))])[0])
        return out
    r = (M.swapaxes(-1, -2) @ (X - p.x_star)[..., None])[..., 0] - s
    return (M @ r[..., None])[..., 0] / batch


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
