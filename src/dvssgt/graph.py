"""Communication topologies and doubly stochastic mixing matrices."""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from . import spectral

CONNECT_RETRY_LIMIT = 1000


@dataclass(frozen=True)
class Graph:
    """Undirected graph on nodes 0..n-1 with per-node sorted neighbor lists."""

    n: int
    edges: frozenset
    neighbor_lists: tuple

    @staticmethod
    def from_edges(n, edges):
        if n < 2:
            raise ValueError(f"need at least 2 nodes, got n={n}")
        canon = set()
        for i, j in edges:
            if i == j:
                raise ValueError(f"self-loop at node {i}")
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"edge ({i},{j}) out of range for n={n}")
            canon.add((min(i, j), max(i, j)))
        nbrs = [[] for _ in range(n)]
        for i, j in canon:
            nbrs[i].append(j)
            nbrs[j].append(i)
        return Graph(n, frozenset(canon), tuple(tuple(sorted(v)) for v in nbrs))

    def degrees(self):
        return np.array([len(v) for v in self.neighbor_lists], dtype=int)

    def is_connected(self):
        seen = {0}
        queue = deque([0])
        while queue:
            u = queue.popleft()
            for v in self.neighbor_lists[u]:
                if v not in seen:
                    seen.add(v)
                    queue.append(v)
        return len(seen) == self.n

    @staticmethod
    def from_edge_list(text, n=None):
        """The node count on the first line, then one 'i j' edge per line; a
        count other than n, when given, is refused before any node is built."""
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise ValueError("empty edge-list")
        count = int(lines[0])
        if n is not None and count != n:
            raise ValueError(f"graph has {count} nodes but problem.n is {n}")
        edges = []
        for ln in lines[1:]:
            i, j = ln.split()
            edges.append((int(i), int(j)))
        return Graph.from_edges(count, edges)

    @staticmethod
    def load(path, n=None):
        with open(path) as fh:
            return Graph.from_edge_list(fh.read(), n)


@dataclass(frozen=True)
class MixingMatrix:
    """Symmetric doubly stochastic weights with cached spectral quantities."""

    A: np.ndarray
    sigma_A: float
    norm_A_minus_I: float


def erdos_renyi(n, p, seed):
    """Connected Erdos-Renyi graph; resamples the whole graph until connected."""
    if n < 2:
        raise ValueError(f"need at least 2 nodes, got n={n}")
    if not (0.0 < p <= 1.0):
        raise ValueError(f"link probability must be in (0,1], got {p}")
    rng = np.random.default_rng(seed)
    iu, ju = np.triu_indices(n, k=1)
    for _ in range(CONNECT_RETRY_LIMIT):
        mask = rng.random(len(iu)) < p
        g = Graph.from_edges(n, list(zip(iu[mask].tolist(), ju[mask].tolist())))
        if g.is_connected():
            return g
    raise RuntimeError(
        f"no connected graph after {CONNECT_RETRY_LIMIT} attempts (n={n}, p={p}); "
        "increase p"
    )


def metropolis_weights(g: Graph) -> MixingMatrix:
    """Metropolis rule: a_ij = 1/(1+max(deg_i, deg_j)), self-weight the complement."""
    if not g.is_connected():
        raise ValueError("graph must be connected")
    deg = g.degrees()
    A = np.zeros((g.n, g.n))
    for i, j in g.edges:
        A[i, j] = A[j, i] = 1.0 / (1.0 + max(deg[i], deg[j]))
    np.fill_diagonal(A, 1.0 - A.sum(axis=1))
    return MixingMatrix(A, spectral.spectral_radius_sym(A - 1.0 / g.n),
                        spectral.spectral_radius_sym(A - np.eye(g.n)))

