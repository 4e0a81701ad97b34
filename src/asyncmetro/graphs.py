"""Simple undirected graphs with sorted adjacency, plus generators and edge-list IO."""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

_PAIRING_TRIES = 5000  # pairings random_regular_graph draws before it gives up
MAX_NODES = 2**32  # schedule.generate keys each node's stream by a uint32 node id


class Graph:
    """Undirected simple graph on nodes 0..n-1.

    Neighbor lists are kept sorted ascending; duplicate edges collapse,
    self-loops are rejected.
    """

    __slots__ = ("n", "adj", "max_degree")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError(f"node count must be >= 0, got {n}")
        nbrs: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            u, v = int(u), int(v)
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at node {u}")
            nbrs[u].add(v)
            nbrs[v].add(u)
        self.n = n
        self.adj: tuple[tuple[int, ...], ...] = tuple(tuple(sorted(s)) for s in nbrs)
        self.max_degree = max((len(a) for a in self.adj), default=0)

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield each undirected edge once, as (u, v) with u < v."""
        for u in range(self.n):
            for v in self.adj[u]:
                if u < v:
                    yield (u, v)

    @property
    def num_edges(self) -> int:
        return sum(len(a) for a in self.adj) // 2

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.num_edges}, max_degree={self.max_degree})"


def greedy_coloring(graph: Graph, q: int) -> np.ndarray:
    """Proper coloring in 0..q-1: nodes in id order take the smallest color no
    lower-id neighbor holds. Raises ValueError when a node finds none free."""
    colors = np.full(graph.n, -1, dtype=np.int64)
    for v in range(graph.n):
        used = {int(colors[u]) for u in graph.adj[v] if colors[u] >= 0}
        free = next((c for c in range(q) if c not in used), None)
        if free is None:
            raise ValueError(f"greedy proper coloring infeasible at node {v} with q={q}")
        colors[v] = free
    return colors


def empty_graph(n: int) -> Graph:
    return Graph(n)


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError(f"cycle needs >= 3 nodes, got {n}")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def grid_graph(rows: int, cols: int) -> Graph:
    """rows x cols lattice, node (r, c) numbered r*cols + c."""
    if rows < 1 or cols < 1:
        raise ValueError("grid needs rows, cols >= 1")
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return Graph(rows * cols, edges)


def random_regular_graph(n: int, degree: int, seed: int) -> Graph:
    """Uniform random simple d-regular graph via the pairing model with rejection.

    One pairing is simple with probability about exp((1 - d^2) / 4), so the
    rejection loop rarely succeeds for d = 6 and almost never for d >= 7,
    whatever n is; it then raises ValueError after its tries."""
    if degree < 0 or degree >= n:
        raise ValueError(f"degree must satisfy 0 <= d < n, got d={degree}, n={n}")
    if (n * degree) % 2:
        raise ValueError(f"n*degree must be even, got n={n}, degree={degree}")
    if degree == 0:
        return Graph(n)
    rng = np.random.default_rng(seed)
    stubs = np.repeat(np.arange(n), degree)
    for _ in range(_PAIRING_TRIES):
        perm = rng.permutation(stubs)
        a, b = perm[0::2], perm[1::2]
        if np.any(a == b):
            continue
        lo = np.minimum(a, b)
        hi = np.maximum(a, b)
        keys = lo.astype(np.int64) * n + hi
        if len(np.unique(keys)) != len(keys):
            continue
        return Graph(n, zip(lo.tolist(), hi.tolist()))
    # each try is simple with probability about exp((1 - d^2) / 4), independent of n
    raise ValueError(f"no simple {degree}-regular pairing on {n} nodes found in {_PAIRING_TRIES} tries")


def read_edge_list(path: str | Path) -> Graph:
    """Parse an edge-list file: one 0-indexed "u v" pair per line, on nodes
    0..max node id. Blank lines and lines starting with '#' are skipped."""
    edges = []
    top = -1
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2 or not all(p.isdecimal() for p in parts) or int(parts[0]) == int(parts[1]):
                raise ValueError(f"{path}:{lineno}: expected 'u v' of two distinct node ids >= 0, got {line!r}")
            u, v = int(parts[0]), int(parts[1])
            edges.append((u, v))
            top = max(top, u, v)
            if top >= MAX_NODES:  # before Graph allocates a neighbour set per node
                raise ValueError(f"{path}:{lineno}: node ids must be < 2^32, got {top}")
    return Graph(top + 1, edges)
