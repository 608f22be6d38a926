"""Error vectors, means over paths, rate fitting, and cost accounting."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# fraction of leading iterations dropped before fitting the geometric rate
TRANSIENT_FRACTION = 0.1


@dataclass(frozen=True)
class ErrorVector:
    """Scalars for one path's state, (P,) arrays for P stacked paths."""

    opt_err: float   # ||xbar - x*||
    cons_x: float    # ||x - 1 (x) xbar||
    cons_y: float    # ||y - 1 (x) ybar||


def _norm(v, axes):
    """sqrt(v . v) over the trailing `axes` axes of v, one value per leading index."""
    lead = v.shape[:v.ndim - axes]
    return np.sqrt(v.reshape(lead + (1, -1)) @ v.reshape(lead + (-1, 1)))[..., 0, 0]


def _agent_sum(v):
    """v.sum(axis=-2) bit for bit: a (B, P, n, d) record block agent-major (one copy),
    in the same order; not at d = 1, where numpy sums the contiguous agent axis pairwise."""
    if v.ndim < 4 or v.shape[-1] == 1:
        return v.sum(axis=-2)
    return np.moveaxis(v, -2, 0).copy().sum(axis=0)


def error_vector(x, y, p) -> ErrorVector:
    """Of iterates x and trackers y, (n, d) for one path or stacked (..., n, d)."""
    n = x.shape[-2]
    xbar = _agent_sum(x) / n
    ybar = _agent_sum(y) / n
    return ErrorVector(
        _norm(xbar - p.x_star, 1),
        _norm(x - xbar[..., None, :], 2),
        _norm(y - ybar[..., None, :], 2),
    )


def combined_error(ev: ErrorVector):
    """Stacked norm of (xbar - x*, x - 1 xbar): the quantity the figures plot."""
    return np.hypot(ev.opt_err, ev.cons_x)


@dataclass(frozen=True)
class RateFit:
    rate: float
    r_squared: float


def fit_geometric_rate(trace) -> RateFit:
    """Least-squares slope of ln(error) vs k past the first TRANSIENT_FRACTION
    of the trace; returns e^slope."""
    trace = np.asarray(trace, dtype=float)
    k0 = int(len(trace) * TRANSIENT_FRACTION)
    seg = trace[k0:]
    if np.any(seg <= 0.0):
        raise ValueError("trace must be positive over the fit window")
    ks = np.arange(k0, len(trace), dtype=float)
    logs = np.log(seg)
    slope, intercept = np.polyfit(ks, logs, 1)
    resid = logs - (slope * ks + intercept)
    ss_tot = float(np.sum((logs - logs.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - float(np.sum(resid**2)) / ss_tot
    return RateFit(float(np.exp(slope)), r2)


def mean_over_paths(stacked):
    """Mean over axis 0 with exact (fsum) accumulation, so independent of the
    path order bit-for-bit: an algo.Run's mean rows, and the error on which
    algo.run_paths decides a target_eps stop."""
    flat = stacked.reshape(stacked.shape[0], -1)
    sums = np.fromiter(map(math.fsum, flat.T.tolist()), dtype=float, count=flat.shape[1])
    return (sums / stacked.shape[0]).reshape(stacked.shape[1:])


@dataclass(frozen=True)
class OracleCostTable:
    samples: np.ndarray   # -1 where the target was never reached
    slope: float          # log(samples) vs log(1/eps) regression slope


def oracle_vs_epsilon(run, eps_grid) -> OracleCostTable:
    """Samples needed before the averaged combined error first drops below eps."""
    eps_grid = np.asarray(eps_grid, dtype=float)
    err = run.mean_combined
    samples = np.full(len(eps_grid), -1, dtype=np.int64)
    for j, eps in enumerate(eps_grid):
        hit = np.nonzero(err < eps)[0]
        if len(hit):
            k = int(hit[0])
            samples[j] = 0 if k == 0 else int(run.cum_samples[k])
    ok = samples > 0
    if np.count_nonzero(ok) >= 2:
        slope = float(np.polyfit(np.log(1.0 / eps_grid[ok]),
                                 np.log(samples[ok].astype(float)), 1)[0])
    else:
        slope = float("nan")
    return OracleCostTable(samples, slope)


CSV_FIELDS = ["k", "mean_opt_err", "mean_cons_x", "mean_cons_y",
              "mean_combined", "cum_samples_total", "cum_messages_total"]


def write_rows(path, header, rows):
    """A CSV file of text fields in one write: csv.writer's bytes, as no field
    the program writes (an int, a float's repr, a word) needs quoting."""
    with open(path, "w", newline="") as fh:
        fh.write("\r\n".join([",".join(header), *map(",".join, rows), ""]))


def write_csv(run, path):
    """The run's mean rows (an algo.Run), one per iteration."""
    floats = (map(repr, col.tolist()) for col in (*run.mean_z.T, run.mean_combined))
    write_rows(path, CSV_FIELDS, zip(map(str, range(len(run.mean_z))), *floats, *(
        map(str, col.tolist()) for col in (run.cum_samples, run.cum_messages))))

