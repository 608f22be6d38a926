"""One network-wide iteration engine for D-VSS-SGT and the D-SGT / D-SGD baselines."""
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
    y: np.ndarray        # (n, d) gradient trackers; zero without tracking
    g_prev: np.ndarray   # (n, d) sampled gradients of the last draw
    oracle_count: np.ndarray  # (n,) cumulative samples per agent


def _draw(p: Problem, x, batch, streams: StreamFactory, k):
    # an exact oracle draws nothing, so it gets no stream
    rng = None if p.exact_oracle else streams.stream(k)
    return oracle.sample_gradients(p, x, batch, rng)


def start(p: Problem, x0, s: BatchSchedule, streams: StreamFactory,
          tracking=True) -> NetworkState:
    """k = 0 state; with tracking y(0) = g(0) drawn at x0 with batch N(0), else zeros."""
    x0 = np.array(x0, dtype=float)
    if x0.shape != (p.n, p.d):
        raise ValueError(f"x0 has shape {x0.shape}, expected ({p.n},{p.d})")
    if not tracking:
        zero = np.zeros_like(x0)
        return NetworkState(0, x0, zero, zero, np.zeros(p.n, dtype=np.int64))
    n0 = batch_size(s, 0)
    g = _draw(p, x0, n0, streams, 0)
    return NetworkState(0, x0, g.copy(), g, np.full(p.n, n0, dtype=np.int64))


def _guard(x, k):
    worst = float(np.abs(x).max())
    if not np.isfinite(worst) or worst > DIVERGENCE_THRESHOLD:
        raise DivergenceError(k, worst)


def step(st: NetworkState, mix: MixingMatrix, p: Problem, alpha, s: BatchSchedule,
         streams: StreamFactory, tracking=True) -> NetworkState:
    """One iteration of D-VSS-SGT (D-SGT: a constant schedule) or, without
    tracking, D-SGD: g(k) is drawn at x(k), then x(k+1) = A x - alpha g(k),
    so alpha = 0 is pure mixing."""
    k1 = st.k + 1
    if tracking:
        if alpha <= 0.0:
            raise ValueError(f"step size must be positive, got {alpha}")
        x = mix.A @ st.x - alpha * st.y
        _guard(x, k1)
        nb = batch_size(s, k1)
        g = _draw(p, x, nb, streams, k1)
        y = mix.A @ st.y + g - st.g_prev
    else:
        if alpha < 0.0:
            raise ValueError(f"step size must be nonnegative, got {alpha}")
        nb = batch_size(s, st.k)
        g = _draw(p, st.x, nb, streams, st.k)
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
    stop_reason: str   # max_iters, budget_samples, target_eps(_iter_cap) or diverged
    w_stacks: list = field(default_factory=list)  # per-k (n, d) noise, if recorded

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
    # a budget below the first draw leaves the trackers at zero
    st = start(p, x0, sched, streams, tracking and p.n * batch_size(sched, 0) <= budget)

    rows, samples, w_stacks = [], [], []

    def record(st):
        ev = metrics.error_vector(st, p)
        w = st.g_prev - oracle.exact_gradients(p, st.x)
        rows.append((ev.opt_err, ev.cons_x, ev.cons_y, metrics.combined_error(ev),
                     float(np.linalg.norm(w, axis=1).sum())))
        samples.append(int(st.oracle_count.sum()))
        if record_noise:
            w_stacks.append(w)

    def stop_reason(st):
        if stop.kind == "max_iters":
            return "max_iters" if st.k >= stop.value else None
        if stop.kind == "target_eps":
            if rows[-1][3] <= stop.value:
                return "target_eps"
            return "target_eps_iter_cap" if st.k >= TARGET_EPS_ITER_CAP else None
        next_cost = p.n * batch_size(sched, st.k + 1 if tracking else st.k)
        return "budget_samples" if samples[-1] + next_cost > budget else None

    def finish(reason):
        cols = np.array(rows)
        return PathTrace(
            algorithm=algorithm,
            z=cols[:, :3],
            combined=cols[:, 3],
            cum_samples=np.array(samples, dtype=np.int64),
            cum_messages=np.arange(len(rows), dtype=np.int64) * int(msg_per_iter.sum()),
            per_agent_samples=st.oracle_count.copy(),
            per_agent_messages=st.k * msg_per_iter,
            x0=np.array(x0, dtype=float),
            sum_w_norms=cols[:, 4],
            stop_reason=reason,
            w_stacks=w_stacks,
        )

    record(st)
    try:
        while (reason := stop_reason(st)) is None:
            st = step(st, mix, p, alpha, sched, streams, tracking)
            record(st)
    except DivergenceError as exc:
        exc.trace = finish("diverged")
        raise
    return finish(reason)
