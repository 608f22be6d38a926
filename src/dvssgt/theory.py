"""Contraction-matrix analysis: feasible step sizes, rate bounds, complexity,
and a per-step checker for the three-component error recursion."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import spectral
from .algo import BatchSchedule, batch_total

FEASIBILITY_MARGIN = 1e-6
DEGENERATE_TOL = 1e-9


@dataclass(frozen=True)
class ContractionMatrix:
    J: np.ndarray
    alpha: float
    theta_convention: str  # "eta" (derived value) or "L" (printed value)
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
    theta = 1.0 - alpha * (eta if convention == "eta" else lips)
    J = np.array([
        [theta, alpha * lips / math.sqrt(n), 0.0],
        [0.0, sigma_A, alpha],
        [alpha * math.sqrt(n) * lips**2, lips * norm_AI + alpha * lips**2,
         sigma_A + alpha * lips],
    ])
    return ContractionMatrix(J, alpha, convention,
                             {"eta": eta, "lips": lips, "sigma_A": sigma_A,
                              "n": n, "norm_AI": norm_AI})


def spectral_radius_3x3(M):
    """Perron root of a nonnegative 3x3 matrix."""
    return spectral.perron_root_3x3(M)


def find_alpha(eta, lips, sigma_A, n, norm_AI):
    """Largest step size with spectral radius below 1 - margin.

    Geometric grid down from 2/(eta+L), then 40 bisection steps between the
    first feasible point and its infeasible predecessor.
    """
    if sigma_A >= 1.0:
        raise ValueError(f"sigma_A must be < 1, got {sigma_A}")

    def rho_at(a):
        return spectral_radius_3x3(
            build_J(a, eta, lips, sigma_A, n, norm_AI).J)

    a_top = 2.0 / (eta + lips)
    a = a_top
    feasible = None
    while a >= 1e-12:
        if rho_at(a) <= 1.0 - FEASIBILITY_MARGIN:
            feasible = a
            break
        a /= 2.0
    if feasible is None:
        raise ValueError("no feasible step size found down to 1e-12; "
                         "the network is too poorly connected or conditioned")
    if feasible == a_top:
        return feasible, rho_at(feasible)
    lo, hi = feasible, feasible * 2.0
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        if rho_at(mid) <= 1.0 - FEASIBILITY_MARGIN:
            lo = mid
        else:
            hi = mid
    return lo, rho_at(lo)


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


def rate_bound(rb: RateBound, k):
    """Mean-error bound at iteration k in the applicable regime."""
    _check_regime(rb)
    if rb.q > rb.rho:
        return rb.rho**k * rb.z0_norm + rb.C / (rb.q - rb.rho) * rb.q**k
    return rb.rho**k * rb.z0_norm + rb.C / (rb.rho - rb.q) * rb.rho**k


def iteration_complexity(rb: RateBound, eps):
    """Smallest K with the envelope bound below eps."""
    if eps <= 0.0:
        raise ValueError(f"eps must be positive, got {eps}")
    _check_regime(rb)
    B = rb.prefactor
    if B <= eps:
        return 0
    base = rb.q if rb.q > rb.rho else rb.rho
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
    exact: int            # sum_{k=0}^{K} N(k) from the schedule in force
    closed_form_bound: float   # None where it exceeds the float range


def oracle_complexity(rb: RateBound, eps, schedule: BatchSchedule) -> OracleComplexity:
    _check_regime(rb)
    K = iteration_complexity(rb, eps)
    exact = batch_total(schedule, K)
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


@dataclass(frozen=True)
class RecursionReport:
    steps: int
    max_violation: float
    per_component_max: np.ndarray

    @property
    def passed(self):
        return self.max_violation <= DEGENERATE_TOL


def check_error_recursion(trace, cm: ContractionMatrix) -> RecursionReport:
    """Componentwise check of z(k+1) <= J z(k) + b(k) along a recorded path,
    b(k) built from the trace's sum_i ||w_i(k)|| and ||w(k+1) - w(k)||_F."""
    z, sum_w = trace.z, trace.sum_w_norms[:-1]
    alpha, lips, n = cm.alpha, cm.inputs["lips"], cm.inputs["n"]
    b = np.stack([alpha / n * sum_w, np.zeros_like(sum_w),
                  trace.w_step[1:] + alpha * lips / math.sqrt(n) * sum_w], axis=-1)
    worst = (z[1:] - (z[:-1] @ cm.J.T + b)).max(axis=0, initial=-np.inf)
    return RecursionReport(len(z) - 1, float(worst.max()), worst)
