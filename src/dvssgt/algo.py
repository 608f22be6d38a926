"""One network-wide iteration engine for D-VSS-SGT and the D-SGT / D-SGD baselines."""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from . import metrics, oracle
from .graph import Graph, MixingMatrix
from .oracle import Problem, StreamFactory

DIVERGENCE_THRESHOLD = 1e12
DEFAULT_BATCH_CAP = 2**31 - 1
TARGET_EPS_ITER_CAP = 100_000
# largest n*n (graph, mixing matrix), n*d*d (covariances, draws), paths*n*d
# (the stacked iterates of a run) or paths*(iterations + 1) (each trace
# column, kept until the run ends) array a run may need: 32 MiB of float64,
# so n <= 2048
MAX_DENSE_ELEMENTS = 1 << 22
SUM_CHUNK = 1 << 20   # terms per numpy chunk of batch_total
RECORD_BLOCK_BYTES = 64 << 10   # per stacked array of the states awaiting their trace rows


class DivergenceError(RuntimeError):
    """Raised when an iterate exceeds the divergence guard threshold."""

    def __init__(self, k, worst, slot):
        super().__init__(
            f"iterate magnitude {worst:.3e} exceeded {DIVERGENCE_THRESHOLD:.0e} "
            f"at iteration {k}; the step size is likely infeasible"
        )
        self.k = k
        self.slot = slot   # the lowest diverging path of a stacked state


@dataclass(frozen=True)
class BatchSchedule:
    """Per-iteration sample counts: geometric N(k) = ceil(ratio^-k), or constant."""

    kind: str
    ratio: float = 0.0
    size: int = 1
    cap: int = DEFAULT_BATCH_CAP

    def __post_init__(self):
        if not 1 <= self.cap <= DEFAULT_BATCH_CAP:
            raise ValueError(f"batch cap must be in [1, {DEFAULT_BATCH_CAP}], got {self.cap}")
        if self.kind == "geometric":
            if not (0.0 < self.ratio < 1.0):
                raise ValueError(f"geometric ratio must be in (0,1), got {self.ratio}")
        elif self.kind == "constant":
            if self.size < 1:
                raise ValueError(f"constant batch must be >= 1, got {self.size}")
        else:
            raise ValueError(f"unknown schedule kind {self.kind!r}")


def geometric_schedule(ratio, cap=DEFAULT_BATCH_CAP):
    return BatchSchedule("geometric", ratio=ratio, cap=cap)


def constant_schedule(size=1, cap=DEFAULT_BATCH_CAP):
    return BatchSchedule("constant", size=size, cap=cap)


def batch_size(s: BatchSchedule, k):
    if k < 0:
        raise ValueError(f"iteration index must be >= 0, got {k}")
    if s.kind == "constant":
        return min(s.size, s.cap)
    # log-space so ratio^-k never overflows a float before the cap applies
    log_n = -k * math.log(s.ratio)
    if log_n > math.log(s.cap):
        return s.cap
    val = math.exp(log_n)
    nearest = round(val)
    # absorb float dust around exact integer powers before taking the ceiling
    if abs(val - nearest) < 1e-9 * max(1.0, nearest):
        return min(int(nearest), s.cap)
    return min(int(math.ceil(val)), s.cap)


def cap_reached_at(s: BatchSchedule):
    """Smallest k with batch_size(s, k) == s.cap on a geometric schedule:
    N(k) = ceil(ratio^-k) reaches it between ratio^-k > cap - 1 and ratio^-k
    >= cap, and batch_size's float-dust rule decides where, by bisection."""
    step = -math.log(s.ratio)
    lo = max(0, math.floor(math.log(max(1, s.cap - 1)) / step) - 1)   # N(lo) < cap
    hi = math.ceil(math.log(s.cap) / step)   # N(hi) == cap; lo = hi = 0 at cap 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if batch_size(s, mid) == s.cap else (mid, hi)
    return hi


def batch_total(s: BatchSchedule, K):
    """sum_{k=0}^{K} batch_size(s, k) by batch_size's rule: the terms before
    cap_reached_at in numpy chunks of at most SUM_CHUNK, the rest as cap x count."""
    if s.kind == "constant":
        return (K + 1) * min(s.size, s.cap)
    end = min(K + 1, cap_reached_at(s))
    total = s.cap * (K + 1 - end)
    for lo in range(0, end, SUM_CHUNK):
        val = np.exp(-np.arange(lo, min(end, lo + SUM_CHUNK)) * math.log(s.ratio))
        nearest = np.round(val)
        n = np.where(np.abs(val - nearest) < 1e-9 * np.maximum(1.0, nearest), nearest, np.ceil(val))
        total += int(n.astype(np.int64).sum())
    return total


def _guard(x, k):
    if np.abs(x).max() <= DIVERGENCE_THRESHOLD:   # False on NaN
        return
    worst = np.abs(x).max(axis=(-2, -1))
    bad = np.flatnonzero(~(worst <= DIVERGENCE_THRESHOLD))
    raise DivergenceError(k, float(np.ravel(worst)[bad[0]]), int(bad[0]))


def _check_alpha(alpha, tracking):
    if tracking and alpha <= 0.0:
        raise ValueError(f"step size must be positive, got {alpha}")
    if alpha < 0.0:
        raise ValueError(f"step size must be nonnegative, got {alpha}")


def iterate(p: Problem, mix: MixingMatrix, alpha, schedule: BatchSchedule,
            streams: StreamFactory, x0, tracking, end, budget):
    """The states (x, y, g, samples) at k = 0, 1, ..., end of the paths that
    start at x0, a float (P, n, d) array: iterates, trackers (zero without
    tracking) and the sampled gradients of the last draw, and the network's
    samples so far. D-VSS-SGT (D-SGT: a constant schedule) draws y(0) = g(0)
    at x0 with batch N(0), then g(k+1) at x(k+1) = A x - alpha y, and y(k+1)
    = A y + g(k+1) - g(k). D-SGD draws g(k) at x(k), then x(k+1) = A x -
    alpha g(k), so alpha = 0 is pure mixing. The states stop before the first
    draw the budget does not pay for; a budget below n N(0) leaves y(0) zero.
    Raises DivergenceError naming the first path whose iterate exceeds the guard.

    k = 0 comes before any draw block: the next cells whose random numbers
    fit RECORD_BLOCK_BYTES (at least one, at most as many as the states a
    record block holds) and that the budget pays for, drawn by
    oracle.draw_cells and applied by oracle.apply_cell. A consumer that stops
    has drawn at most the rest of the current block.
    """
    A, paths, k, n0 = mix.A, len(x0), 0, batch_size(schedule, 0)
    x, y, samples = x0, np.zeros_like(x0), 0
    if tracking and p.n * n0 <= budget:
        [cell] = oracle.draw_cells(p, paths, [n0], [0], streams)
        y = oracle.apply_cell(p, x0, cell)
        samples = p.n * n0
    g = y
    yield x, y, g, samples
    per_block = max(1, RECORD_BLOCK_BYTES // x0.nbytes)
    while k < end:
        # the block: the next cells, at x(k + 1) with tracking, else at x(k)
        ks, batches, size, total = [], [], 0, samples
        for c in range(k + tracking, k + tracking + min(per_block, end - k)):
            b = batch_size(schedule, c)
            size += paths * oracle.draw_bytes(p, b)
            total += p.n * b
            if total > budget or ks and size > RECORD_BLOCK_BYTES:
                break
            ks.append(c)
            batches.append(b)
        if not ks:
            return
        for b, cell in zip(batches, oracle.draw_cells(p, paths, batches, ks, streams)):
            k += 1
            if tracking:
                x = A @ x - alpha * y
                _guard(x, k)
                g_prev, g = g, oracle.apply_cell(p, x, cell)
                y = A @ y + g - g_prev
            else:
                g = oracle.apply_cell(p, x, cell)
                x = A @ x - alpha * g
                _guard(x, k)
            samples += p.n * b
            yield x, y, g, samples


@dataclass(frozen=True)
class StopRule:
    """Exactly one of: iteration count, network-total sample budget, target error."""

    kind: str
    value: float

    def __post_init__(self):
        if self.kind not in ("max_iters", "budget_samples", "target_eps"):
            raise ValueError(f"unknown stop rule {self.kind!r}")
        if self.value <= 0:
            raise ValueError(f"stop rule value must be positive, got {self.value}")
        if self.kind == "max_iters" and self.value != int(self.value):
            raise ValueError(f"max_iters must be an integer, got {self.value}")


@dataclass(frozen=True)
class Run:
    """The sample paths of one run, each array with the path axis first, and
    the run-level counts and stop reason, stored once: every path ends at the
    same k for the same reason and draws the same samples."""

    algorithm: str
    z: np.ndarray              # (P, T+1, 3) error vector per iteration
    combined: np.ndarray       # (P, T+1) 2-component stacked error
    sum_w_norms: np.ndarray    # (P, T+1) sum_i ||w_i(k)||
    w_step: np.ndarray         # (P, T+1) ||w(k) - w(k-1)||_F, 0 at k = 0
    x0: np.ndarray             # (P, n, d)
    cum_samples: np.ndarray    # (T+1,) network-total samples
    cum_messages: np.ndarray   # (T+1,) network-total neighbor messages
    per_agent_samples: np.ndarray
    per_agent_messages: np.ndarray
    stop_reason: str   # max_iters, budget_samples, target_eps(_iter_cap) or diverged

    @property
    def iterations(self):
        return self.z.shape[1] - 1

    @functools.cached_property
    def mean_z(self):
        return metrics.mean_over_paths(self.z)

    @functools.cached_property
    def mean_combined(self):
        return metrics.mean_over_paths(self.combined)

    def path(self, q):
        """The one-path run of path q."""
        one = slice(q, q + 1)
        return replace(self, z=self.z[one], combined=self.combined[one],
                       sum_w_norms=self.sum_w_norms[one], w_step=self.w_step[one],
                       x0=self.x0[one])


def default_x0(p: Problem, streams: StreamFactory, paths):
    """Per-agent i.i.d. standard normal initial iterates of paths 0..paths-1,
    (paths, n, d), in one call."""
    return streams.generator(0, oracle.INIT_STREAM_AGENT).standard_normal((paths, p.n, p.d))


def run_path(p, mix, g, algorithm, alpha, schedule, stop, seed, x0=None) -> Run:
    """Sample path 0: run_paths with P = 1."""
    return run_paths(p, mix, g, algorithm, alpha, schedule, stop, seed, 1,
                     None if x0 is None else [x0])


def target_eps_iter_cap(paths):
    """The last iteration a target_eps run may reach: its trace fits the dense limit."""
    return min(TARGET_EPS_ITER_CAP, MAX_DENSE_ELEMENTS // paths - 1)


def run_paths(p: Problem, mix: MixingMatrix, g: Graph, algorithm, alpha,
              schedule: BatchSchedule, stop: StopRule, seed, paths, x0=None) -> Run:
    """Execute sample paths 0..paths-1 of the chosen algorithm under a stop
    rule as one stacked (P, n, d) state; returns them as one Run. Path q's
    numbers do not depend on P, so under max_iters and budget_samples the
    first q paths of a run are those of a q-path run.

    Every path ends at the same k, for the same reason: target_eps stops at
    the first k whose mean combined error (metrics.mean_over_paths, as
    Run.mean_combined) meets the target, at the latest at
    target_eps_iter_cap(P). On divergence the lowest diverging path's partial
    run is attached to the raised error as `exc.trace`, unless a state before
    it met the target.

    The states come from iterate, a block of draws at a time; run_paths
    computes their trace rows, and decides target_eps on them, once per block
    of recorded states, so iterate may step up to one block past the stop.
    """
    if algorithm not in ("dvss-sgt", "d-sgt", "d-sgd"):
        raise ValueError(f"unknown algorithm {algorithm!r}")
    streams = StreamFactory(seed)
    x0 = default_x0(p, streams, paths) if x0 is None else np.array(x0, dtype=float)
    if x0.shape != (paths, p.n, p.d):
        raise ValueError(f"x0 has shape {x0.shape}, expected {(paths, p.n, p.d)}")
    tracking = algorithm in ("dvss-sgt", "d-sgt")
    _check_alpha(alpha, tracking)
    msg_per_iter = (2 if tracking else 1) * g.degrees()
    budget = stop.value if stop.kind == "budget_samples" else math.inf
    # the last iteration the run may reach; a budget run's follows from its batches
    end = (int(stop.value) if stop.kind == "max_iters"
           else target_eps_iter_cap(paths) if stop.kind == "target_eps" else math.inf)
    per_block = max(1, RECORD_BLOCK_BYTES // x0.nbytes)
    rows, samples, pending = [], [], []
    w_prev = None   # the noise w = g - grad f at the last flushed record

    def flush():
        """Trace rows of the pending states, from one (B, P, n, d) stack per array
        (w_step 0 at k = 0); True if one meets target_eps, the rows cut after it."""
        nonlocal w_prev
        x, y, g_prev = map(np.array, zip(*pending))
        w = g_prev - oracle.exact_gradients(p, x)
        dw = w - np.concatenate([w[:1] if w_prev is None else w_prev[None], w[:-1]])
        w_prev = w[-1]
        ev = metrics.error_vector(x, y, p)
        rows.append(np.stack([ev.opt_err, ev.cons_x, ev.cons_y, metrics.combined_error(ev),
                              np.sqrt((w * w).sum(-1)).sum(-1),   # sum_i ||w_i||
                              np.sqrt((dw * dw).sum((-2, -1)))], axis=-1))
        pending.clear()
        if stop.kind != "target_eps":
            return False
        met = np.flatnonzero(metrics.mean_over_paths(rows[-1][..., 3].T) <= stop.value)
        if len(met):
            rows[-1] = rows[-1][:met[0] + 1]
        return len(met) > 0

    met, diverged = False, None
    try:
        for x, y, g_k, count in iterate(p, mix, alpha, schedule, streams, x0, tracking,
                                        end, budget):
            pending.append((x, y, g_k))
            samples.append(count)
            if len(pending) == per_block and (met := flush()):
                break
    except DivergenceError as exc:
        diverged = exc
    if pending:
        met = flush()
    k = sum(map(len, rows)) - 1
    reason = ("target_eps" if met else "diverged" if diverged else
              "budget_samples" if k < end else
              "max_iters" if stop.kind == "max_iters" else "target_eps_iter_cap")
    table = np.concatenate(rows).transpose(1, 0, 2)   # (P, T+1, 6)
    run = Run(algorithm, table[..., :3], table[..., 3], table[..., 4], table[..., 5], x0,
              np.array(samples[:k + 1], dtype=np.int64),
              np.arange(k + 1, dtype=np.int64) * int(msg_per_iter.sum()),
              np.full(p.n, samples[k] // p.n, dtype=np.int64), k * msg_per_iter, reason)
    if diverged and not met:
        diverged.trace = run.path(diverged.slot)
        raise diverged
    return run
