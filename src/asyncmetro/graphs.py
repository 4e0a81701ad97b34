"""Simple undirected graphs with sorted adjacency, plus generators and edge-list IO."""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

_PAIRING_TRIES = 5000  # rejection tries, and Steger-Wormald restarts, of random_regular_graph
_REJECTION_MAX_DEGREE = 7  # above it, a rejection try is simple with probability below 2e-7
MAX_NODES = 2**32  # schedule.generate keys each node's stream by a uint32 node id


class Graph:
    """Undirected simple graph on nodes 0..n-1.

    Neighbor lists are kept sorted ascending; duplicate edges collapse,
    self-loops are rejected.
    """

    __slots__ = ("n", "adj", "max_degree", "_channels")

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
        self._set_adj(tuple(tuple(sorted(s)) for s in nbrs))

    @classmethod
    def _from_adj(cls, adj: tuple[tuple[int, ...], ...]) -> Graph:
        """The graph whose adjacency is adj, taken unchecked: each list sorted,
        loop-free and symmetric. For generators that build it in bulk."""
        graph = cls.__new__(cls)
        graph._set_adj(adj)
        return graph

    def _set_adj(self, adj: tuple[tuple[int, ...], ...]) -> None:
        self.n = len(adj)
        self.adj = adj
        self.max_degree = max(map(len, adj), default=0)
        self._channels: tuple[tuple, tuple] | None = None

    def channel_tables(self) -> tuple[tuple[tuple[int, int], ...], tuple[tuple[int, ...], ...]]:
        """(pairs, rslots), built on first use: pairs holds the directed channels
        (v, u) in (node, slot) order, and rslots[v][k] is the slot of v in the
        adjacency of its k-th neighbor."""
        if self._channels is None:
            # nodes come in ascending order and adjacency lists are sorted, so
            # the k-th time u turns up as a neighbor, the node is adj[u][k]
            seen = [0] * self.n
            rslots = []
            for a in self.adj:
                rslots.append(tuple(seen[u] for u in a))
                for u in a:
                    seen[u] += 1
            pairs = tuple((v, u) for v, a in enumerate(self.adj) for u in a)
            self._channels = (pairs, tuple(rslots))
        return self._channels

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
    """Random simple d-regular graph on n nodes.

    For d <= 7, the pairing model with rejection, uniform over d-regular
    graphs: each try pairs a random permutation of the nd points (d per node)
    and is kept when it has no loop and no double edge. One try is simple with
    probability about exp((1 - d^2) / 4), independent of n, so the tries often
    run out at d = 6 and 7. Steger and Wormald's pairing then takes over, with
    the generator where the tries left it; for d >= 8, where all the tries
    would fail with probability above 0.999, it runs at once. Its law is only
    asymptotically uniform, for d = o(n^(1/3)) (Kim and Vu).

    Raises ValueError when no such graph exists (d >= n, or n*d odd)."""
    if degree < 0 or degree >= n:
        raise ValueError(f"degree must satisfy 0 <= d < n, got d={degree}, n={n}")
    if (n * degree) % 2:
        raise ValueError(f"n*degree must be even, got n={n}, degree={degree}")
    rng = np.random.default_rng(seed)
    if degree <= _REJECTION_MAX_DEGREE:
        stubs = np.repeat(np.arange(n), degree)
        perm = np.empty_like(stubs)
        for _ in range(_PAIRING_TRIES):
            perm[:] = stubs
            rng.shuffle(perm)  # the draws of rng.permutation(stubs), without its copy
            a, b = perm[0::2], perm[1::2]
            if np.any(a == b):
                continue
            keys = np.minimum(a, b) * n + np.maximum(a, b)
            keys.sort()
            if np.any(keys[1:] == keys[:-1]):
                continue
            return _regular_graph(n, degree, a, b)
    return _regular_graph(n, degree, *_steger_wormald(n, degree, rng))


def _steger_wormald(n: int, degree: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Endpoints (u, v) of the edges of a simple d-regular graph, by the
    algorithm of Steger and Wormald (Combinatorics, Probability and Computing
    8(4), 1999): draw two of the unpaired points at random and pair them if
    they lie on distinct nodes not yet adjacent; start over if no such pair
    is left."""
    for _ in range(_PAIRING_TRIES):
        points = np.repeat(np.arange(n), degree).tolist()
        nbrs: list[set[int]] = [set() for _ in range(n)]
        left = [degree] * n
        open_nodes = set(range(n))  # the nodes with a point left
        us: list[int] = []
        vs: list[int] = []
        draw = _uniforms(rng)
        while points:
            k = len(points)
            i = int(next(draw) * k)
            j = int(next(draw) * (k - 1))
            j += j >= i
            u, v = points[i], points[j]
            if u != v and v not in nbrs[u]:
                nbrs[u].add(v)
                nbrs[v].add(u)
                us.append(u)
                vs.append(v)
                for x in (max(i, j), min(i, j)):
                    points[x] = points[-1]
                    points.pop()
                for w in (u, v):
                    left[w] -= 1
                    if not left[w]:
                        open_nodes.discard(w)
            # no suitable pair is left only if the open nodes are pairwise adjacent,
            # which needs at most d of them, as each has fewer than d neighbors
            elif len(open_nodes) <= degree and all(open_nodes <= nbrs[w] | {w} for w in open_nodes):
                break
        else:
            return np.array(us, dtype=np.int64), np.array(vs, dtype=np.int64)
    raise ValueError(f"no simple {degree}-regular graph on {n} nodes found in {_PAIRING_TRIES} tries")


def _uniforms(rng: np.random.Generator) -> Iterator[float]:
    """Endless uniform floats on [0, 1), drawn from rng in blocks."""
    while True:
        yield from rng.random(4096).tolist()


def _regular_graph(n: int, degree: int, u: np.ndarray, v: np.ndarray) -> Graph:
    """The graph of the distinct, loop-free edges (u[i], v[i]), which give every
    node `degree` neighbors: one sort of the keys of both directions lists each
    node's neighbors in order."""
    keys = np.concatenate((u * n + v, v * n + u))
    keys.sort()
    return Graph._from_adj(tuple(map(tuple, (keys % n).reshape(n, degree).tolist())))


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
