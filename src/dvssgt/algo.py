"""One network-wide iteration engine for D-VSS-SGT and the D-SGT / D-SGD baselines."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import metrics, oracle
from .graph import Graph, MixingMatrix
from .oracle import Problem, StreamFactory

DIVERGENCE_THRESHOLD = 1e12
DEFAULT_BATCH_CAP = 2**31 - 1
TARGET_EPS_ITER_CAP = 100_000
SUM_CHUNK = 1 << 20   # terms per numpy chunk of batch_total


class DivergenceError(RuntimeError):
    """Raised when an iterate exceeds the divergence guard threshold."""

    def __init__(self, k, worst, slot=0):
        super().__init__(
            f"iterate magnitude {worst:.3e} exceeded {DIVERGENCE_THRESHOLD:.0e} "
            f"at iteration {k}; the step size is likely infeasible"
        )
        self.k = k
        self.slot = slot   # the first diverging path of a stacked state


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


def batch_total(s: BatchSchedule, K):
    """sum_{k=0}^{K} batch_size(s, k) by batch_size's rule, in numpy chunks
    of at most SUM_CHUNK terms; the terms past the cap are added as cap x count."""
    if s.kind == "constant":
        return (K + 1) * min(s.size, s.cap)
    total, log_cap = 0, math.log(s.cap)
    for lo in range(0, K + 1, SUM_CHUNK):
        log_n = -np.arange(lo, min(K + 1, lo + SUM_CHUNK)) * math.log(s.ratio)
        if log_n[0] > log_cap:    # log N(k) grows with k, so every later term is capped
            return total + s.cap * (K + 1 - lo)
        val = np.exp(np.minimum(log_n, log_cap))
        nearest = np.round(val)
        n = np.where(np.abs(val - nearest) < 1e-9 * np.maximum(1.0, nearest), nearest, np.ceil(val))
        total += int(np.minimum(n, s.cap).astype(np.int64).sum())
    return total


@dataclass
class NetworkState:
    """Iterates of one path, (n, d) arrays, or of P stacked paths, (P, n, d)."""

    k: int
    x: np.ndarray        # solution estimates
    y: np.ndarray        # gradient trackers; zero without tracking
    g_prev: np.ndarray   # sampled gradients of the last draw
    oracle_count: np.ndarray  # (n,) cumulative samples per agent, equal on every path


def start(p: Problem, x0, s: BatchSchedule, streams: StreamFactory,
          tracking=True) -> NetworkState:
    """k = 0 state of the paths of `streams`; with tracking y(0) = g(0) drawn
    at x0 with batch N(0), else zeros."""
    x0 = np.array(x0, dtype=float)
    if x0.shape != streams.lead + (p.n, p.d):
        raise ValueError(f"x0 has shape {x0.shape}, expected {streams.lead + (p.n, p.d)}")
    if not tracking:
        zero = np.zeros_like(x0)
        return NetworkState(0, x0, zero, zero, np.zeros(p.n, dtype=np.int64))
    n0 = batch_size(s, 0)
    g = oracle.sample_gradients(p, x0, n0, streams.generators(0))
    return NetworkState(0, x0, g.copy(), g, np.full(p.n, n0, dtype=np.int64))


def _guard(x, k):
    worst = np.abs(x).max(axis=(-2, -1))
    bad = np.flatnonzero(~(worst <= DIVERGENCE_THRESHOLD))   # NaN included
    if len(bad):
        raise DivergenceError(k, float(np.ravel(worst)[bad[0]]), int(bad[0]))


def step(st: NetworkState, mix: MixingMatrix, p: Problem, alpha, s: BatchSchedule,
         streams: StreamFactory, tracking=True) -> NetworkState:
    """One iteration of D-VSS-SGT (D-SGT: a constant schedule) or, without
    tracking, D-SGD: g(k) is drawn at x(k), then x(k+1) = A x - alpha g(k),
    so alpha = 0 is pure mixing. Raises DivergenceError naming the first
    stacked path whose iterate exceeds the guard."""
    k1 = st.k + 1
    if tracking:
        if alpha <= 0.0:
            raise ValueError(f"step size must be positive, got {alpha}")
        x = mix.A @ st.x - alpha * st.y
        _guard(x, k1)
        nb = batch_size(s, k1)
        g = oracle.sample_gradients(p, x, nb, streams.generators(k1))
        y = mix.A @ st.y + g - st.g_prev
    else:
        if alpha < 0.0:
            raise ValueError(f"step size must be nonnegative, got {alpha}")
        nb = batch_size(s, st.k)
        g = oracle.sample_gradients(p, st.x, nb, streams.generators(st.k))
        x = mix.A @ st.x - alpha * g
        _guard(x, k1)
        y = st.y
    return NetworkState(k1, x, y, g, st.oracle_count + nb)


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


@dataclass
class PathTrace:
    """Per-iteration record of one sample path and why it stopped."""

    algorithm: str
    z: np.ndarray              # (T+1, 3) error vector per iteration
    combined: np.ndarray       # (T+1,) 2-component stacked error
    cum_samples: np.ndarray    # (T+1,) network-total samples
    cum_messages: np.ndarray   # (T+1,) network-total neighbor messages
    per_agent_samples: np.ndarray
    per_agent_messages: np.ndarray
    x0: np.ndarray
    sum_w_norms: np.ndarray    # (T+1,) sum_i ||w_i(k)||
    w_step: np.ndarray         # (T+1,) ||w(k) - w(k-1)||_F, 0 at k = 0
    stop_reason: str   # max_iters, budget_samples, target_eps(_iter_cap) or diverged

    @property
    def iterations(self):
        return self.z.shape[0] - 1


def default_x0(p: Problem, streams: StreamFactory):
    """Per-agent i.i.d. standard normal initial iterates of the paths of `streams`."""
    return np.array([rng.standard_normal((p.n, p.d)) for rng in streams.generators(
        0, oracle.INIT_STREAM_AGENT)]).reshape(streams.lead + (p.n, p.d))


def run_path(p, mix, g, algorithm, alpha, schedule, stop, seed, path=0, x0=None) -> PathTrace:
    """One sample path: run_paths with P = 1."""
    return run_paths(p, mix, g, algorithm, alpha, schedule, stop, seed, [path],
                     None if x0 is None else [x0])[0]


def run_paths(p: Problem, mix: MixingMatrix, g: Graph, algorithm, alpha,
              schedule: BatchSchedule, stop: StopRule, seed, paths=(0,),
              x0=None) -> list:
    """Execute sample paths `paths` of the chosen algorithm under a stop rule
    as one stacked (P, n, d) state; returns their traces in order.

    Each path stops by its own rule, with the outcome of running the paths
    one after another: on divergence, once the paths before it have run to
    their end, the lowest diverging path's partial trace is attached to the
    raised error as `exc.trace`.
    """
    if algorithm not in ("dvss-sgt", "d-sgt", "d-sgd"):
        raise ValueError(f"unknown algorithm {algorithm!r}")
    paths = list(paths)
    streams = StreamFactory(seed, paths)
    x0 = default_x0(p, streams) if x0 is None else np.array(x0, dtype=float)
    tracking = algorithm in ("dvss-sgt", "d-sgt")
    # D-SGT is the D-VSS-SGT update with a constant batch
    sched = schedule if algorithm == "dvss-sgt" else constant_schedule(schedule.size)
    msg_per_iter = (2 if tracking else 1) * g.degrees()
    budget = stop.value if stop.kind == "budget_samples" else math.inf
    # a budget below the first draw leaves the trackers at zero
    st = start(p, x0, sched, streams, tracking and p.n * batch_size(sched, 0) <= budget)
    live = np.arange(len(paths))   # the path behind each slice of the state
    rows, samples, counts, ends = [], [], [], {}   # ends: path -> (k, reason)
    w_prev = None   # the live paths' noise w = g - grad f at the last record

    def spread(a):
        """a, one row per live path, over all paths: NaN where a path stopped."""
        if len(live) == len(paths):
            return a
        out = np.full((len(paths),) + a.shape[1:], np.nan)
        out[live] = a
        return out

    def record(st):
        nonlocal w_prev
        w = st.g_prev - oracle.exact_gradients(p, st.x)
        dw = np.zeros_like(w) if w_prev is None else w - w_prev
        w_prev = w
        ev = metrics.error_vector(st, p)
        rows.append(spread(np.array([ev.opt_err, ev.cons_x, ev.cons_y, metrics.combined_error(ev),
                                     np.sqrt((w * w).sum(-1)).sum(-1),   # sum_i ||w_i||
                                     np.sqrt((dw * dw).sum((-2, -1)))]).T))
        samples.append(int(st.oracle_count.sum()))
        counts.append(st.oracle_count)

    def stop_reason(st):
        """Why the live paths stop at st.k, '' where a path goes on: one
        reason for all of them, or one each under target_eps."""
        if stop.kind == "max_iters":
            return "max_iters" if st.k >= stop.value else ""
        if stop.kind == "budget_samples":
            next_cost = p.n * batch_size(sched, st.k + 1 if tracking else st.k)
            return "budget_samples" if samples[-1] + next_cost > budget else ""
        capped = "target_eps_iter_cap" if st.k >= TARGET_EPS_ITER_CAP else ""
        return np.where(rows[-1][live, 3] <= stop.value, "target_eps", capped)

    record(st)
    diverged = None
    while len(live):
        reasons = np.asarray(stop_reason(st))
        if (reasons == "").all():
            try:
                st = step(st, mix, p, alpha, sched, streams, tracking)
            except DivergenceError as exc:
                diverged = exc, int(live[exc.slot])
                # it stops, and so do the paths after it, which would never have run
                reasons = np.where(np.arange(len(live)) < exc.slot, "", "diverged")
            else:
                record(st)
                continue
        reasons = np.broadcast_to(reasons, live.shape)
        ends.update((int(q), (st.k, str(why))) for q, why in zip(live, reasons) if why)
        keep = reasons == ""
        live, w_prev = live[keep], w_prev[keep]
        st = NetworkState(st.k, st.x[keep], st.y[keep], st.g_prev[keep], st.oracle_count)
        streams = StreamFactory(seed, [paths[q] for q in live])

    table = np.stack(rows)
    traces = {q: PathTrace(
        algorithm=algorithm,
        z=table[:k + 1, q, :3],
        combined=table[:k + 1, q, 3],
        cum_samples=np.array(samples[:k + 1], dtype=np.int64),
        cum_messages=np.arange(k + 1, dtype=np.int64) * int(msg_per_iter.sum()),
        per_agent_samples=counts[k].copy(),
        per_agent_messages=k * msg_per_iter,
        x0=x0[q],
        sum_w_norms=table[:k + 1, q, 4],
        w_step=table[:k + 1, q, 5],
        stop_reason=reason,
    ) for q, (k, reason) in ends.items()}
    if diverged:
        diverged[0].trace = traces[diverged[1]]
        raise diverged[0]
    return [traces[q] for q in range(len(paths))]
