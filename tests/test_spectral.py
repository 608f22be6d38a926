import numpy as np
import pytest

import oracles
from dvssgt import spectral


def test_radius_matches_char_poly_oracle_small_sizes():
    rng = np.random.default_rng(0)
    for n in (2, 3, 4):
        for _ in range(100):
            B = rng.standard_normal((n, n))
            M = (B + B.T) / 2.0
            assert abs(spectral.spectral_radius_sym(M)
                       - oracles.spectral_radius(M)) <= 1e-8


def test_radius_handles_plus_minus_pair():
    # eigenvalues +1 and -1: both extremes have the same magnitude
    M = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert spectral.spectral_radius_sym(M) == pytest.approx(1.0, abs=1e-10)


def test_radius_zero_matrix():
    assert spectral.spectral_radius_sym(np.zeros((3, 3))) == 0.0


def test_radius_rejects_nonsymmetric():
    with pytest.raises(ValueError):
        spectral.spectral_radius_sym(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        spectral.spectral_radius_sym(np.ones((2, 3)))


def test_extreme_eigenvalues_match_oracle():
    rng = np.random.default_rng(1)
    for _ in range(100):
        B = rng.standard_normal((4, 4))
        M = (B + B.T) / 2.0
        lo, hi = spectral.sym_extreme_eigenvalues(M)
        olo, ohi = oracles.extreme_real_eigs(M)
        assert lo == pytest.approx(olo, abs=1e-7)
        assert hi == pytest.approx(ohi, abs=1e-7)


def test_extreme_eigenvalues_zero():
    assert spectral.sym_extreme_eigenvalues(np.zeros((2, 2))) == (0.0, 0.0)


def test_perron_root_random_nonnegative_10k():
    rng = np.random.default_rng(4)
    for _ in range(10_000):
        M = rng.uniform(0.0, 2.0, size=(3, 3))
        assert abs(spectral.perron_root_3x3(M) - oracles.spectral_radius(M)) <= 1e-9


def test_perron_root_cyclic_and_defective_matrices():
    # cyclic permutation: three eigenvalues on the unit circle
    P = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    assert abs(spectral.perron_root_3x3(P) - oracles.spectral_radius(P)) <= 1e-9
    # Jordan block with triple eigenvalue 0.5; compared with the exact value,
    # since np.roots on a triple root (the oracle) is only accurate to ~1e-6
    J = np.array([[0.5, 1.0, 0.0], [0.0, 0.5, 1.0], [0.0, 0.0, 0.5]])
    assert spectral.perron_root_3x3(J) == pytest.approx(0.5, abs=1e-12)


def test_perron_root_diagonal():
    assert spectral.perron_root_3x3(np.diag([0.3, 0.5, 0.9])) == pytest.approx(
        0.9, abs=1e-9)


def test_perron_root_input_checks():
    with pytest.raises(ValueError):
        spectral.perron_root_3x3(-np.eye(3))
    with pytest.raises(ValueError):
        spectral.perron_root_3x3(np.eye(4))
