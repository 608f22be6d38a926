"""Eigenvalue helpers for small dense matrices, backed by LAPACK (numpy.linalg)."""
from __future__ import annotations

import numpy as np


def _require_symmetric(M, tol=1e-9):
    if M.ndim < 2 or M.shape[-1] != M.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    if np.max(np.abs(M - np.swapaxes(M, -1, -2))) > tol:
        raise ValueError("matrix is not symmetric")


def spectral_radius_sym(M):
    """Largest |eigenvalue| of a symmetric matrix."""
    M = np.asarray(M, dtype=float)
    _require_symmetric(M)
    return float(np.max(np.abs(np.linalg.eigvalsh(M))))


def sym_extreme_eigenvalues(M):
    """(lambda_min, lambda_max) of a symmetric matrix, or (...,) arrays of
    them for a (..., m, m) stack."""
    M = np.asarray(M, dtype=float)
    _require_symmetric(M)
    ev = np.linalg.eigvalsh(M)  # ascending
    if M.ndim == 2:
        return float(ev[0]), float(ev[-1])
    return ev[..., 0], ev[..., -1]


def perron_root_3x3(M):
    """Spectral radius of a nonnegative 3x3 matrix, or a (...,) array of them
    for a (..., 3, 3) stack."""
    M = np.asarray(M, dtype=float)
    if M.shape[-2:] != (3, 3):
        raise ValueError(f"expected a 3x3 matrix, got shape {M.shape}")
    if np.any(M < 0.0):
        raise ValueError("matrix has negative entries")
    rho = np.max(np.abs(np.linalg.eigvals(M)), axis=-1)
    return float(rho) if M.ndim == 2 else rho
