"""Independent cross-check oracles used only by the tests.

Nothing here shares code with the package's numerical core: eigenvalues come
from the characteristic polynomial (Faddeev-LeVerrier + np.roots), batch
sizes from exact rational arithmetic, gradients from central differences,
gradient-noise levels from Monte Carlo draws, random streams from a Philox
key packed here.
"""
from fractions import Fraction

import numpy as np


def char_poly_coeffs(M):
    """Monic characteristic polynomial coefficients via Faddeev-LeVerrier."""
    M = np.asarray(M, dtype=float)
    n = M.shape[0]
    coeffs = [1.0]
    N = np.zeros_like(M)
    c = 1.0
    for k in range(1, n + 1):
        N = M @ N + c * np.eye(n)
        c = -float(np.trace(M @ N)) / k
        coeffs.append(c)
    return np.array(coeffs)


def eigenvalues(M):
    """All eigenvalues as roots of the brute-force characteristic polynomial."""
    return np.roots(char_poly_coeffs(M))


def spectral_radius(M):
    return float(np.max(np.abs(eigenvalues(M))))


def extreme_real_eigs(M):
    ev = np.real(eigenvalues(M))
    return float(ev.min()), float(ev.max())


def exact_geometric_batch(num, den, k):
    """ceil((num/den)^-k) in exact rational arithmetic."""
    r = Fraction(num, den) ** k
    return -((-r.denominator) // r.numerator)


def finite_difference_gradient(f, x, h=1e-6):
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for j in range(len(x)):
        e = np.zeros_like(x)
        e[j] = h
        g[j] = (f(x + e) - f(x - e)) / (2.0 * h)
    return g


def noise_level_mc(R, sigma, e, draws, rng):
    """(mean, standard error) of ||w||^2 over `draws` samples of one agent's
    single-sample gradient noise w = u (u'e - sigma xi) - R e at offset e,
    with u = chol(R) z and z, xi standard normal."""
    R, e = np.asarray(R, dtype=float), np.asarray(e, dtype=float)
    u = rng.standard_normal((draws, len(e))) @ np.linalg.cholesky(R).T
    xi = rng.standard_normal(draws)
    w = u * (u @ e - sigma * xi)[:, None] - R @ e
    sq = np.sum(w * w, axis=1)
    return float(sq.mean()), float(sq.std(ddof=1) / np.sqrt(draws))


def philox_stream(seed, slot, iteration):
    """A fresh Philox generator for one (slot, iteration) stream: key word 0
    is the seed, word 1 the slot times 2^42 plus the iteration, each modulo
    2^64."""
    key = [seed % 2**64, (slot * 2**42 + iteration) % 2**64]
    return np.random.Generator(np.random.Philox(key=np.array(key, dtype=np.uint64)))


def sequential_alpha_star(eta, lips, sigma_A, n, norm_AI, margin=1e-6):
    """(alpha, rho) of the plain step-size search, one eigvals call per step
    size: halve from 2/(eta + L) to the first alpha with rho(J) <= 1 - margin,
    then 40 bisection steps between it and its double. None if no alpha down
    to 1e-12 is feasible. J is written out entry by entry here."""
    def rho(a):
        J = np.array([
            [1.0 - a * eta, a * lips / np.sqrt(n), 0.0],
            [0.0, sigma_A, a],
            [a * np.sqrt(n) * lips**2, lips * norm_AI + a * lips**2, sigma_A + a * lips],
        ])
        return float(np.max(np.abs(np.linalg.eigvals(J))))

    top = a = 2.0 / (eta + lips)
    while rho(a) > 1.0 - margin:
        a /= 2.0
        if a < 1e-12:
            return None
    if a == top:
        return a, rho(a)
    lo, hi = a, 2.0 * a
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if rho(mid) <= 1.0 - margin else (lo, mid)
    return lo, rho(lo)
