"""Network-wide iteration engines: D-VSS-SGT and the D-SGD / D-SGT baselines."""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import metrics, oracle
from .graph import Graph, MixingMatrix
from .oracle import Problem, StreamFactory

DIVERGENCE_THRESHOLD = 1e12
DEFAULT_BATCH_CAP = 2**31 - 1
TARGET_EPS_ITER_CAP = 100_000


class DivergenceError(RuntimeError):
    """Raised when an iterate exceeds the divergence guard threshold."""

    def __init__(self, k, worst):
        super().__init__(
            f"iterate magnitude {worst:.3e} exceeded {DIVERGENCE_THRESHOLD:.0e} "
            f"at iteration {k}; the step size is likely infeasible"
        )
        self.k = k


@dataclass(frozen=True)
class BatchSchedule:
    """Per-iteration sample counts: geometric N(k) = ceil(ratio^-k), or constant."""

    kind: str
    ratio: float = 0.0
    size: int = 1
    cap: int = DEFAULT_BATCH_CAP

    def __post_init__(self):
        if self.cap < 1:
            raise ValueError(f"batch cap must be >= 1, got {self.cap}")
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


@dataclass
class NetworkState:
    k: int
    x: np.ndarray        # (n, d) solution estimates
    y: np.ndarray        # (n, d) gradient trackers
    g_prev: np.ndarray   # (n, d) last sampled gradients at x(k)
    oracle_count: np.ndarray  # (n,) cumulative samples per agent


def init_state(p: Problem, x0, s: BatchSchedule, streams: StreamFactory) -> NetworkState:
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (p.n, p.d):
        raise ValueError(f"x0 has shape {x0.shape}, expected ({p.n},{p.d})")
    n0 = batch_size(s, 0)
    g = np.empty_like(x0)
    for i in range(p.n):
        g[i] = oracle.sample_gradient(p, i, x0[i], n0, streams.stream(i, 0)).value
    counts = np.full(p.n, n0, dtype=np.int64)
    return NetworkState(0, x0.copy(), g.copy(), g, counts)


def _guard(x, k):
    worst = float(np.max(np.abs(x)))
    if not np.isfinite(worst) or worst > DIVERGENCE_THRESHOLD:
        raise DivergenceError(k, worst)


def dvss_sgt_step(st: NetworkState, mix: MixingMatrix, p: Problem, alpha,
                  s: BatchSchedule, streams: StreamFactory) -> NetworkState:
    """One consensus + tracking update with fresh batch-size N(k+1) samples."""
    if alpha <= 0.0:
        raise ValueError(f"step size must be positive, got {alpha}")
    k1 = st.k + 1
    x_new = mix.A @ st.x - alpha * st.y
    _guard(x_new, k1)
    nb = batch_size(s, k1)
    g_new = np.empty_like(x_new)
    for i in range(p.n):
        g_new[i] = oracle.sample_gradient(p, i, x_new[i], nb, streams.stream(i, k1)).value
    y_new = mix.A @ st.y + g_new - st.g_prev
    return NetworkState(k1, x_new, y_new, g_new, st.oracle_count + nb)


def dsgd_step(st: NetworkState, mix: MixingMatrix, p: Problem, alpha,
              fixed_batch, streams: StreamFactory) -> NetworkState:
    """Consensus + local noisy gradient; no tracker. alpha=0 is pure mixing."""
    if alpha < 0.0:
        raise ValueError(f"step size must be nonnegative, got {alpha}")
    g = np.empty_like(st.x)
    for i in range(p.n):
        g[i] = oracle.sample_gradient(p, i, st.x[i], fixed_batch, streams.stream(i, st.k)).value
    x_new = mix.A @ st.x - alpha * g
    _guard(x_new, st.k + 1)
    return NetworkState(st.k + 1, x_new, st.y.copy(), g, st.oracle_count + fixed_batch)


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
        if self.kind == "max_iters" and not float(self.value).is_integer():
            raise ValueError(f"max_iters must be an integer, got {self.value}")


@dataclass
class PathTrace:
    """Per-iteration record of one sample path."""

    algorithm: str
    z: np.ndarray              # (T+1, 3) error vector per iteration
    combined: np.ndarray       # (T+1,) 2-component stacked error
    cum_samples: np.ndarray    # (T+1,) network-total samples
    cum_messages: np.ndarray   # (T+1,) network-total neighbor messages
    per_agent_samples: np.ndarray
    per_agent_messages: np.ndarray
    x0: np.ndarray
    sum_w_norms: np.ndarray = None    # (T+1,) sum_i ||w_i(k)||
    w_stacks: list = field(default_factory=list)  # per-k (n, d) noise, if recorded
    diverged: bool = False

    @property
    def iterations(self):
        return self.z.shape[0] - 1


def default_x0(p: Problem, streams: StreamFactory):
    """Per-agent i.i.d. standard normal initial iterates."""
    return streams.init_stream().standard_normal((p.n, p.d))


def run_path(p: Problem, mix: MixingMatrix, g: Graph, algorithm, alpha,
             schedule: BatchSchedule, stop: StopRule, seed, path=0,
             x0=None, record_noise=False) -> PathTrace:
    """Execute one sample path of the chosen algorithm under a stop rule.

    On divergence the partial trace is attached to the raised error as
    `exc.trace` so callers can flush it.
    """
    if algorithm not in ("dvss-sgt", "d-sgt", "d-sgd"):
        raise ValueError(f"unknown algorithm {algorithm!r}")
    streams = StreamFactory(seed, path)
    if x0 is None:
        x0 = default_x0(p, streams)
    tracking = algorithm in ("dvss-sgt", "d-sgt")
    # D-SGT is the D-VSS-SGT update with a constant batch
    sched = schedule if algorithm == "dvss-sgt" else constant_schedule(schedule.size)
    msg_per_iter = (2 if tracking else 1) * g.degrees()

    budget = stop.value if stop.kind == "budget_samples" else math.inf
    if tracking:
        if p.n * batch_size(sched, 0) > budget:
            st = NetworkState(0, np.asarray(x0, float).copy(), np.zeros((p.n, p.d)),
                              np.zeros((p.n, p.d)), np.zeros(p.n, dtype=np.int64))
        else:
            st = init_state(p, x0, sched, streams)
    else:
        st = NetworkState(0, np.asarray(x0, float).copy(), np.zeros((p.n, p.d)),
                          np.zeros((p.n, p.d)), np.zeros(p.n, dtype=np.int64))

    zs, combined, cum_s, cum_m, sum_w = [], [], [], [], []
    w_stacks = []
    msgs = np.zeros(p.n, dtype=np.int64)
    diverged = False

    def record(state):
        ev = metrics.error_vector(state, p)
        zs.append([ev.opt_err, ev.cons_x, ev.cons_y])
        combined.append(metrics.combined_error(ev))
        cum_s.append(int(state.oracle_count.sum()))
        cum_m.append(int(msgs.sum()))
        w = state.g_prev - np.stack([oracle.exact_gradient(p, i, state.x[i])
                                     for i in range(p.n)])
        sum_w.append(float(np.linalg.norm(w, axis=1).sum()))
        if record_noise:
            w_stacks.append(w)

    record(st)

    def stopped(state):
        if stop.kind == "max_iters":
            return state.k >= stop.value
        if stop.kind == "target_eps":
            return combined[-1] <= stop.value or state.k >= TARGET_EPS_ITER_CAP
        next_cost = p.n * batch_size(sched, state.k + 1 if tracking else state.k)
        return int(state.oracle_count.sum()) + next_cost > budget

    try:
        while not stopped(st):
            if tracking:
                st = dvss_sgt_step(st, mix, p, alpha, sched, streams)
            else:
                st = dsgd_step(st, mix, p, alpha, sched.size, streams)
            msgs += msg_per_iter
            record(st)
    except DivergenceError as exc:
        diverged = True
        trace = _finish(algorithm, zs, combined, cum_s, cum_m, st, msgs, x0,
                        sum_w, w_stacks, record_noise, diverged)
        exc.trace = trace
        raise

    return _finish(algorithm, zs, combined, cum_s, cum_m, st, msgs, x0,
                   sum_w, w_stacks, record_noise, diverged)


def _finish(algorithm, zs, combined, cum_s, cum_m, st, msgs, x0,
            sum_w, w_stacks, record_noise, diverged):
    return PathTrace(
        algorithm=algorithm,
        z=np.asarray(zs),
        combined=np.asarray(combined),
        cum_samples=np.asarray(cum_s, dtype=np.int64),
        cum_messages=np.asarray(cum_m, dtype=np.int64),
        per_agent_samples=st.oracle_count.copy(),
        per_agent_messages=msgs.copy(),
        x0=np.asarray(x0, dtype=float).copy(),
        sum_w_norms=np.asarray(sum_w),
        w_stacks=w_stacks if record_noise else [],
        diverged=diverged,
    )
