import numpy as np
import pytest

import oracles
from dvssgt import graph, spectral


def test_er_n2_p1_single_edge():
    g = graph.erdos_renyi(2, 1.0, seed=0)
    assert g.edges == frozenset({(0, 1)})


def test_er_complete_k4():
    g = graph.erdos_renyi(4, 1.0, seed=3)
    assert len(g.edges) == 6
    assert g.is_connected()


def test_er_deterministic_and_connected():
    g1 = graph.erdos_renyi(10, 0.3, seed=11)
    g2 = graph.erdos_renyi(10, 0.3, seed=11)
    assert g1.edges == g2.edges
    assert g1.is_connected()


def test_er_invalid_p():
    with pytest.raises(ValueError):
        graph.erdos_renyi(5, 0.0, seed=0)
    with pytest.raises(ValueError):
        graph.erdos_renyi(5, 1.5, seed=0)


def test_er_retry_limit_exceeded(monkeypatch):
    monkeypatch.setattr(graph, "CONNECT_RETRY_LIMIT", 5)
    with pytest.raises(RuntimeError, match="after 5 attempts"):
        graph.erdos_renyi(30, 0.001, seed=0)


def test_graph_validation():
    with pytest.raises(ValueError):
        graph.Graph.from_edges(3, [(0, 0)])
    with pytest.raises(ValueError):
        graph.Graph.from_edges(3, [(0, 5)])
    with pytest.raises(ValueError):
        graph.Graph.from_edges(1, [])


def test_neighbor_lists_match_edges():
    g = graph.erdos_renyi(12, 0.4, seed=5)
    for i in range(g.n):
        for j in g.neighbor_lists[i]:
            assert (min(i, j), max(i, j)) in g.edges
    for i, j in g.edges:
        assert j in g.neighbor_lists[i]
        assert i in g.neighbor_lists[j]


def test_is_connected_negative():
    g = graph.Graph.from_edges(4, [(0, 1), (2, 3)])
    assert not g.is_connected()


def test_edge_list_round_trip(tmp_path):
    g = graph.erdos_renyi(8, 0.5, seed=2)
    path = tmp_path / "g.txt"
    path.write_text(f"{g.n}\n" + "".join(f"{i} {j}\n" for i, j in sorted(g.edges)))
    loaded = graph.Graph.load(path)
    assert loaded.n == g.n
    assert loaded.edges == g.edges


def test_edge_list_rejects_empty():
    with pytest.raises(ValueError):
        graph.Graph.from_edge_list("")


def test_metropolis_path3():
    g = graph.Graph.from_edges(3, [(0, 1), (1, 2)])
    mix = graph.metropolis_weights(g)
    expect = np.array([[2 / 3, 1 / 3, 0.0],
                       [1 / 3, 1 / 3, 1 / 3],
                       [0.0, 1 / 3, 2 / 3]])
    assert np.allclose(mix.A, expect, atol=1e-15)
    assert mix.sigma_A == pytest.approx(2 / 3, abs=1e-9)
    dev = mix.A - np.full((3, 3), 1 / 3)
    assert mix.sigma_A == pytest.approx(oracles.spectral_radius(dev), abs=1e-9)
    # spectrum of A is {1, 2/3, 0} so A - I has extreme eigenvalue -1
    assert mix.norm_A_minus_I == pytest.approx(1.0, abs=1e-9)


def test_metropolis_k2():
    g = graph.Graph.from_edges(2, [(0, 1)])
    mix = graph.metropolis_weights(g)
    assert np.allclose(mix.A, np.full((2, 2), 0.5), atol=1e-15)
    assert mix.sigma_A == pytest.approx(0.0, abs=1e-9)
    assert mix.norm_A_minus_I == pytest.approx(1.0, abs=1e-9)


def test_metropolis_ring_closed_form_spectrum():
    # ring: every degree is 2, so all Metropolis weights are 1/3 and A is
    # circulant with eigenvalues 1/3 + (2/3) cos(2 pi k / n)
    n = 200
    g = graph.Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])
    mix = graph.metropolis_weights(g)
    assert mix.sigma_A == pytest.approx(1 / 3 + (2 / 3) * np.cos(2 * np.pi / n),
                                        abs=1e-12)
    # k = n/2 gives eigenvalue -1/3 of A, so A - I has extreme eigenvalue -4/3
    assert mix.norm_A_minus_I == pytest.approx(4 / 3, abs=1e-12)


def test_metropolis_rejects_disconnected():
    g = graph.Graph.from_edges(4, [(0, 1), (2, 3)])
    with pytest.raises(ValueError):
        graph.metropolis_weights(g)


def test_mixing_structure_and_sigma_on_100_random_graphs():
    rng = np.random.default_rng(7)
    for _ in range(100):
        n = int(rng.integers(3, 16))
        g = graph.erdos_renyi(n, 0.5, seed=int(rng.integers(1 << 30)))
        mix = graph.metropolis_weights(g)
        A = mix.A
        assert np.allclose(A, A.T, atol=1e-15)
        assert np.allclose(A.sum(axis=0), 1.0, atol=1e-12)
        assert np.allclose(A.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(A >= -1e-15)
        for i in range(n):
            for j in range(i + 1, n):
                if (i, j) in g.edges:
                    assert A[i, j] > 0.0
                else:
                    assert A[i, j] == 0.0
        assert 0.0 <= mix.sigma_A < 1.0


def test_deviation_and_norm_special_matrices():
    # metropolis_weights' sigma_A = rho(A - J/n) and ||A - I|| at A = I and J/n
    n = 5
    for A, sigma, norm in ((np.eye(n), 1.0, 0.0), (np.full((n, n), 1 / n), 0.0, 1.0)):
        assert spectral.spectral_radius_sym(A - 1.0 / n) == pytest.approx(sigma, abs=1e-9)
        assert spectral.spectral_radius_sym(A - np.eye(n)) == pytest.approx(norm, abs=1e-9)
    assert spectral.spectral_radius_sym(np.eye(n) - np.eye(n)) == 0.0


def test_deviation_rejects_nonsymmetric():
    A = np.array([[0.9, 0.2], [0.1, 0.8]])
    with pytest.raises(ValueError):
        spectral.spectral_radius_sym(A - 1.0 / len(A))
