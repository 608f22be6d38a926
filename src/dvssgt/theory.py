"""Contraction-matrix analysis: feasible step sizes, rate bounds, complexity,
and a per-step checker for the three-component error recursion."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import spectral
from .algo import MAX_DENSE_ELEMENTS, BatchSchedule, batch_total, cap_reached_at

FEASIBILITY_MARGIN = 1e-6
DEGENERATE_TOL = 1e-9


@dataclass(frozen=True)
class ContractionMatrix:
    J: np.ndarray
    alpha: float
    inputs: dict


def build_J(alpha, eta, lips, sigma_A, n, norm_AI, convention="eta") -> ContractionMatrix:
    """3x3 coupling matrix of optimality, consensus, and tracker errors."""
    if eta > lips:
        raise ValueError(f"need eta <= L, got eta={eta}, L={lips}")
    if not (0.0 <= alpha <= 2.0 / (eta + lips)):
        raise ValueError(f"alpha must be in [0, 2/(eta+L)] = [0, {2.0/(eta+lips):.6g}], "
                         f"got {alpha}")
    if not (0.0 <= sigma_A < 1.0):
        raise ValueError(f"sigma_A must be in [0,1), got {sigma_A}")
    if convention not in ("eta", "L"):
        raise ValueError(f"unknown theta convention {convention!r}")
    return ContractionMatrix(_coupling(alpha, eta, lips, sigma_A, n, norm_AI, convention),
                             alpha, {"eta": eta, "lips": lips, "sigma_A": sigma_A,
                                     "n": n, "norm_AI": norm_AI})


def _coupling(alpha, eta, lips, sigma_A, n, norm_AI, convention="eta"):
    """J(alpha) for a step size, or a (..., 3, 3) stack for an array of them."""
    a = np.asarray(alpha, dtype=float)
    theta = 1.0 - a * (eta if convention == "eta" else lips)
    zero = np.zeros_like(a)
    return np.stack([theta, a * lips / math.sqrt(n), zero,
                     zero, zero + sigma_A, a,
                     a * math.sqrt(n) * lips**2, lips * norm_AI + a * lips**2, sigma_A + a * lips],
                    axis=-1).reshape(a.shape + (3, 3))


def spectral_radius_3x3(M):
    """Perron root of a nonnegative 3x3 matrix, or of each of a stack."""
    return spectral.perron_root_3x3(M)


def find_alpha(eta, lips, sigma_A, n, norm_AI):
    """Largest step size with spectral radius below 1 - margin.

    Geometric grid down from 2/(eta+L), evaluated in one batched eigvals
    call, then 40 bisection steps between the first feasible point and its
    infeasible predecessor. The steps go in rounds of up to 3: a round
    evaluates the 7 midpoints its 3 steps can reach in one call and takes
    the same decisions as one step at a time.
    """
    if sigma_A >= 1.0:
        raise ValueError(f"sigma_A must be < 1, got {sigma_A}")
    a_top = 2.0 / (eta + lips)
    build_J(a_top, eta, lips, sigma_A, n, norm_AI)   # checks the inputs

    def feasible(alphas):
        """rho(J) at each step size, and whether it is below 1 - margin."""
        rho = spectral_radius_3x3(_coupling(np.array(alphas), eta, lips, sigma_A, n, norm_AI))
        return rho, rho <= 1.0 - FEASIBILITY_MARGIN

    grid, a = [], a_top
    while a >= 1e-12:
        grid.append(a)
        a /= 2.0
    rho, ok = feasible(grid)
    if not ok.any():
        raise ValueError("no feasible step size found down to 1e-12; "
                         "the network is too poorly connected or conditioned")
    first = int(ok.argmax())
    lo, rho_lo = grid[first], rho[first]
    if first == 0:
        return lo, float(rho_lo)
    hi, steps = lo * 2.0, 40
    while steps:
        depth = min(3, steps)
        nodes, mids = [(lo, hi)], []   # node j's halves are nodes 2j + 1 and 2j + 2
        for j in range(2**depth - 1):
            a, b = nodes[j]
            mids.append(0.5 * (a + b))
            nodes += [(a, mids[-1]), (mids[-1], b)]
        rho, ok = feasible(mids)
        j = 0
        for _ in range(depth):
            if ok[j]:
                lo, rho_lo, j = mids[j], rho[j], 2 * j + 2
            else:
                hi, j = mids[j], 2 * j + 1
        steps -= depth
    return lo, float(rho_lo)


def noise_constant(nu, alpha, q, lips, n):
    """C = nu * sqrt(alpha^2 + n (1 + q + alpha L)^2)."""
    return nu * math.sqrt(alpha**2 + n * (1.0 + q + alpha * lips) ** 2)


@dataclass(frozen=True)
class RateBound:
    rho: float
    q: float
    C: float
    z0_norm: float

    def __post_init__(self):
        if self.C < 0.0:
            raise ValueError("noise constant must be nonnegative")

    @property
    def degenerate(self):
        return abs(self.q - self.rho) < DEGENERATE_TOL

    @property
    def regime(self):
        if self.degenerate:
            return "degenerate"
        return "q_dominant" if self.q > self.rho else "rho_dominant"

    @property
    def envelope_base(self):
        return max(self.rho, self.q)

    @property
    def prefactor(self):
        """z0 + C/|q - rho|: the constant in front of the dominant envelope."""
        return self.z0_norm + self.C / abs(self.q - self.rho)


def _check_regime(rb: RateBound):
    if rb.degenerate:
        raise ValueError(
            f"q = {rb.q} and rho = {rb.rho} differ by less than {DEGENERATE_TOL}; "
            "the two-regime bounds do not apply at the boundary")


def iteration_complexity(rb: RateBound, eps):
    """Smallest K with the envelope bound below eps."""
    if eps <= 0.0:
        raise ValueError(f"eps must be positive, got {eps}")
    _check_regime(rb)
    B = rb.prefactor
    if B <= eps:
        return 0
    base = rb.envelope_base
    if base >= 1.0:
        raise ValueError(f"no geometric decay: max(rho, q) = {base} >= 1")
    return int(math.ceil(math.log(B / eps) / math.log(1.0 / base)))


def communication_complexity(g, rb: RateBound, eps):
    """Per-agent message counts 2|N_i| K(eps)."""
    K = iteration_complexity(rb, eps)
    return 2 * g.degrees() * K


@dataclass(frozen=True)
class OracleComplexity:
    iterations: int
    exact: int            # sum_{k=0}^{K} N(k); None past MAX_DENSE_ELEMENTS terms
    closed_form_bound: float   # None where it exceeds the float range


def oracle_complexity(rb: RateBound, eps, schedule: BatchSchedule) -> OracleComplexity:
    _check_regime(rb)
    K = iteration_complexity(rb, eps)
    terms = 1 if schedule.kind == "constant" else min(K + 1, cap_reached_at(schedule))
    exact = batch_total(schedule, K) if terms <= MAX_DENSE_ELEMENTS else None
    B = rb.prefactor
    try:
        if rb.q > rb.rho:
            bound = B**2 / (eps**2 * (1.0 - rb.q**2))
        else:
            exponent = 2.0 * math.log(1.0 / rb.q) / math.log(1.0 / rb.rho)
            bound = (B / eps) ** exponent / (1.0 - rb.q**2)
    except OverflowError:   # e.g. a small q against rho near 1: a huge exponent
        bound = math.inf
    return OracleComplexity(K, exact, bound if math.isfinite(bound) else None)


def check_error_recursion(run, cm: ContractionMatrix):
    """Worst violation per component, (3,), of z(k+1) <= J z(k) + b(k) over
    every step of every path of an algo.Run (-inf without a step), b(k) built
    from the path's sum_i ||w_i(k)|| and ||w(k+1) - w(k)||_F."""
    z, sum_w = run.z, run.sum_w_norms[:, :-1]
    alpha, lips, n = cm.alpha, cm.inputs["lips"], cm.inputs["n"]
    b = np.stack([alpha / n * sum_w, np.zeros_like(sum_w),
                  run.w_step[:, 1:] + alpha * lips / math.sqrt(n) * sum_w], axis=-1)
    return (z[:, 1:] - (z[:, :-1] @ cm.J.T + b)).max(axis=(0, 1), initial=-np.inf)
