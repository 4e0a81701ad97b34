"""Spin models: a graph plus per-node proposal distributions and Metropolis filters.

A model's filter f(v, c, c', tau) is the probability of accepting the move of
node v from state c to proposal c' when its neighborhood holds tau (one state
per neighbor, in sorted-adjacency order). A model gives f in exactly one of two
forms: a filter_fn, or an edge-factor decomposition g(v, u, c, c', b) >= 0 with
f = min(1, prod_u g(v, u, c, c', tau_u)), which enables closed-form
acceptance/rejection thresholds under partial neighborhood knowledge. Every
route reads edge_factor_fn is None to tell the forms apart.
"""

from __future__ import annotations

import itertools
import math
from functools import partial
from itertools import repeat
from typing import Callable, Iterable, Sequence

import numpy as np

from .graphs import Graph

# States are integers 0..q-1 everywhere; +/-1 spins are encoded 0 <-> -1, 1 <-> +1.
_SPIN = (-1, 1)

# Safety net for user-supplied edge factors of extreme magnitude: running
# products are capped to avoid inf*0 = nan. The cap is applied identically on
# every evaluation route (filter, closed-form thresholds, enumeration), so
# all routes stay mutually consistent even when it engages; built-in models
# validate their parameters so it never does.
_PRODUCT_CAP = 1e300

_PROPOSAL_SUM_TOL = 1e-12

_EXACT_ENUM_LIMIT = 10**6


def capped_product(factors: Iterable[float]) -> float:
    """min(1, prod factors), each running product capped at _PRODUCT_CAP; a NaN
    product stays NaN. The filter, the closed-form thresholds and the engine
    all multiply through it."""
    p = 1.0
    for x in factors:
        p *= x
        if p > _PRODUCT_CAP:
            p = _PRODUCT_CAP
    return 1.0 if p >= 1.0 else p


def edge_range(factor, v: int, u: int, c: int, c_new: int, S: Sequence[int]) -> tuple[float, float]:
    """(min, max) of the edge factor g(v, u, c, c_new, b) over the states b in S,
    by enumeration; the reference for every closed form (SpinModel.edge_range_fn).
    Raises ValueError on a factor that is NaN or negative: the product of the
    per-edge minima is min f only when every factor is >= 0."""
    lo, hi = math.inf, -math.inf
    for b in S:
        x = factor(v, u, c, c_new, b)
        if not x >= 0.0:
            raise ValueError(f"edge factor g(v={v}, u={u}, c={c}, c'={c_new}, b={b}) = {x!r}, need >= 0")
        if x < lo:
            lo = x
        if x > hi:
            hi = x
    return lo, hi


class SpinModel:
    """Immutable graphical model driving a single-site Metropolis chain.

    edge_range_fn(v, u, c, c_new, S), allowed only with edge_factor_fn, is the
    closed form of (min, max) of edge_factor_fn(v, u, c, c_new, b) over the
    states b in S, a nonempty list or tuple over 0..q-1 that may repeat states.
    It must equal that enumeration (edge_range) bit for bit; unlike it, it need
    not check that each factor is >= 0, as the built-in factors always are.
    Without one, an edge-factor model binds edge_range on its factor here, so
    model.edge_range_fn is the one range that the engine and thresholds read
    (None for a filter-only model). Paranoid runs and criterion 2 (10^4
    instances through thresholds) check what they compute from it against
    filter_range, which reads only factors.
    """

    __slots__ = ("graph", "q", "proposals", "filter_fn", "edge_factor_fn", "edge_range_fn", "kind", "params")

    def __init__(
        self,
        graph: Graph,
        q: int,
        proposals: np.ndarray,
        filter_fn: Callable[[int, int, int, Sequence[int]], float] | None = None,
        edge_factor_fn: Callable[[int, int, int, int, int], float] | None = None,
        edge_range_fn: Callable[[int, int, int, int, Sequence[int]], tuple[float, float]] | None = None,
        kind: str = "custom",
        params: dict | None = None,
    ):
        if q < 1:
            raise ValueError(f"domain size must be >= 1, got {q}")
        if (filter_fn is None) == (edge_factor_fn is None):
            raise ValueError("need exactly one of filter_fn and edge_factor_fn")
        if edge_range_fn is not None and edge_factor_fn is None:
            raise ValueError("edge_range_fn needs edge_factor_fn: it is the closed form of the factors' range")
        proposals = np.asarray(proposals, dtype=float)
        if proposals.shape != (graph.n, q):
            raise ValueError(f"proposals must have shape ({graph.n}, {q}), got {proposals.shape}")
        if not np.all(proposals >= 0.0):  # inf fails the row sum below
            raise ValueError("proposal probabilities must be >= 0 and not NaN")
        sums = proposals.sum(axis=1)
        if graph.n and np.max(np.abs(sums - 1.0)) > _PROPOSAL_SUM_TOL:
            bad = int(np.argmax(np.abs(sums - 1.0)))
            raise ValueError(f"proposal row {bad} sums to {sums[bad]!r}, not 1")
        self.graph = graph
        self.q = q
        self.proposals = proposals
        self.proposals.setflags(write=False)
        self.filter_fn = filter_fn
        self.edge_factor_fn = edge_factor_fn
        if edge_range_fn is None and edge_factor_fn is not None:
            edge_range_fn = partial(edge_range, edge_factor_fn)
        self.edge_range_fn = edge_range_fn
        self.kind = kind
        self.params = dict(params or {})

    @property
    def n(self) -> int:
        return self.graph.n

    def check_filter_args(
        self, v: int, c: int, c_new: int, neighbor_states: Sequence[Iterable[int]]
    ) -> list[tuple[int, ...]]:
        """The one check of f's arguments: node v, states c and c', and one nonempty set
        of states in 0..q-1 per neighbor of v (sorted-adjacency order). Returns the
        sets, each sorted and deduplicated."""
        q = self.q
        if not 0 <= v < self.n:
            raise ValueError(f"node {v} out of range 0..{self.n - 1}")
        if not (0 <= c < q and 0 <= c_new < q):
            raise ValueError(f"states must lie in 0..{q - 1}, got c={c}, c'={c_new}")
        if len(neighbor_states) != self.graph.degree(v):
            raise ValueError(f"need {self.graph.degree(v)} neighbor states for node {v}, got {len(neighbor_states)}")
        sets = [tuple(sorted(set(S))) for S in neighbor_states]
        for S in sets:
            if not S or S[0] < 0 or S[-1] >= q:
                raise ValueError(f"neighbor state set {S} of node {v} must be nonempty within 0..{q - 1}")
        return sets

    def check_configuration(self, config: Sequence[int]) -> list[int]:
        """config as a list of ints, after checking its length and state range."""
        if len(config) != self.n:
            raise ValueError(f"configuration has length {len(config)}, model has n={self.n}")
        out = [int(x) for x in config]
        for v, x in enumerate(out):
            if not 0 <= x < self.q:
                raise ValueError(f"state {x} at node {v} out of range 0..{self.q - 1}")
        return out

    def _filter_raw(self, v: int, c: int, c_new: int, tau: Sequence[int]) -> float:
        if self.edge_factor_fn is None:
            return self.filter_fn(v, c, c_new, tau)
        # map, not a generator: its closure would slow every call, filter_fn ones too
        factors = map(self.edge_factor_fn, repeat(v), self.graph.adj[v], repeat(c), repeat(c_new), tau)
        return capped_product(factors)

    def filter_value(self, v: int, c: int, c_new: int, tau: Sequence[int]) -> float:
        """Acceptance probability f(v, c, c', tau); tau in sorted-adjacency order."""
        self.check_filter_args(v, c, c_new, [(b,) for b in tau])
        val = self._filter_raw(v, c, c_new, tau)
        if not 0.0 <= val <= 1.0:
            raise ValueError(f"filter returned {val!r}, outside [0, 1]")
        return val

    def __repr__(self) -> str:
        return f"SpinModel(kind={self.kind!r}, q={self.q}, {self.graph!r})"


def thresholds(
    model: SpinModel, v: int, c: int, c_new: int, neighbor_states: Sequence[Iterable[int]]
) -> tuple[float, float]:
    """(min f, max f) of the filter for node v's move c -> c_new over the product
    of the per-neighbor possible-state sets (sorted-adjacency order): the update
    accepts when beta < min f and rejects when beta >= max f.

    With edge factors, min f and max f are the capped products of the per-edge
    (min g, max g) from model.edge_range_fn, the range the engine reads.
    Criterion 2 checks this route against filter_range on 10^4 instances. A
    filter-only model enumerates the product (filter_range). Bad arguments
    raise ValueError from SpinModel.check_filter_args.
    """
    if model.edge_factor_fn is None:
        return filter_range(model, v, c, c_new, neighbor_states)
    sets = model.check_filter_args(v, c, c_new, neighbor_states)
    erange = model.edge_range_fn
    ranges = [erange(v, u, c, c_new, S) for u, S in zip(model.graph.adj[v], sets)]
    return capped_product(lo for lo, _ in ranges), capped_product(hi for _, hi in ranges)


def filter_range(
    model: SpinModel, v: int, c: int, c_new: int, neighbor_states: Sequence[Iterable[int]]
) -> tuple[float, float]:
    """(min f, max f) of the filter over the product of state sets, by
    enumeration; the reference for every closed-form and engine threshold.
    Raises ValueError on a filter value outside [0, 1], NaN included."""
    sets = model.check_filter_args(v, c, c_new, neighbor_states)
    filt = model._filter_raw
    values = [filt(v, c, c_new, tau) for tau in itertools.product(*sets)]
    for f in values:
        if not 0.0 <= f <= 1.0:
            raise ValueError(f"filter f(v={v}, c={c}, c'={c_new}) = {f!r} over sets {sets}, outside [0, 1]")
    return min(values), max(values)


def _coloring_range(v: int, u: int, c: int, c_new: int, S: Sequence[int]) -> tuple[float, float]:
    """(min, max) over the states b in S of the coloring factor 1[b != c']."""
    if c_new not in S:
        return (1.0, 1.0)
    return (0.0, 0.0) if S.count(c_new) == len(S) else (0.0, 1.0)


def make_coloring(graph: Graph, q: int) -> SpinModel:
    """Uniform proper q-coloring chain: uniform proposals, factor 1[b != c']."""
    if q < 1:
        raise ValueError(f"q must be >= 1, got {q}")
    proposals = np.full((graph.n, q), 1.0 / q)

    def factor(v: int, u: int, c: int, c_new: int, b: int) -> float:
        return 0.0 if b == c_new else 1.0

    return SpinModel(graph, q, proposals, edge_factor_fn=factor, edge_range_fn=_coloring_range, kind="coloring",
                     params={"q": q})


def make_hardcore(graph: Graph, lam: float) -> SpinModel:
    """Hardcore (independent set) chain at fugacity lam.

    States: 0 unoccupied, 1 occupied. Proposals nu(0) = 1/(1+lam),
    nu(1) = lam/(1+lam); factor 1[b + c' <= 1].
    """
    if not 0.0 <= lam < math.inf:
        raise ValueError(f"fugacity must be finite and >= 0, got {lam}")
    proposals = np.tile([1.0 / (1.0 + lam), lam / (1.0 + lam)], (graph.n, 1))

    def factor(v: int, u: int, c: int, c_new: int, b: int) -> float:
        return 0.0 if b + c_new > 1 else 1.0

    def edge_range(v: int, u: int, c: int, c_new: int, S: Sequence[int]) -> tuple[float, float]:
        # on states 0 and 1 the factor is coloring's when c' = 1 and 1 when c' = 0
        return _coloring_range(v, u, c, c_new, S) if c_new else (1.0, 1.0)

    return SpinModel(graph, 2, proposals, edge_factor_fn=factor, edge_range_fn=edge_range, kind="hardcore",
                     params={"lam": lam})


def make_ising(graph: Graph, beta: float) -> SpinModel:
    """Ising chain at inverse temperature beta, spins -1/+1 encoded as 0/1.

    Filter exp(min(0, beta*(s(c')-s(c))*sum_u s(tau_u))) decomposes into edge
    factors exp(beta*(s(c')-s(c))*s(b)). Requiring |beta|*max_degree <= 300
    keeps every partial factor product within e^(+-600), so products neither
    overflow nor underflow and the product form equals the sum form exactly.
    """
    if not math.isfinite(beta):
        raise ValueError(f"beta must be finite, got {beta}")
    if abs(beta) * max(1, graph.max_degree) > 300.0:
        raise ValueError(
            f"|beta|*max_degree must be <= 300 to keep factor products representable, "
            f"got beta={beta} at max_degree={graph.max_degree}"
        )
    proposals = np.full((graph.n, 2), 0.5)
    # factor[c][c_new][b]
    table = [[[math.exp(beta * (_SPIN[cn] - _SPIN[c]) * _SPIN[b]) for b in (0, 1)] for cn in (0, 1)]
             for c in (0, 1)]

    # ranges[c][c_new] = the range over S holding only 0, only 1, both
    ranges = [[((t[0], t[0]), (t[1], t[1]), (min(t), max(t))) for t in row] for row in table]

    def factor(v: int, u: int, c: int, c_new: int, b: int) -> float:
        return table[c][c_new][b]

    def edge_range(v: int, u: int, c: int, c_new: int, S: Sequence[int]) -> tuple[float, float]:
        r = ranges[c][c_new]
        return (r[2] if 1 in S else r[0]) if 0 in S else r[1]

    return SpinModel(graph, 2, proposals, edge_factor_fn=factor, edge_range_fn=edge_range, kind="ising",
                     params={"beta": beta})


def lipschitz_bound(model: SpinModel) -> float:
    """Scaled Lipschitz constant of the Metropolis filters.

    Returns C_hat = Delta * max over directed edges (u, v) and states a, b, c of
    E_{c' ~ nu_v}[ max_{sigma, tau agree off u, sigma_u=a, tau_u=b} |f(sigma) - f(tau)| ].
    Filters satisfy the chain's Lipschitz condition with any C >= C_hat.

    The built-in kinds take their closed forms: 2*Delta/q (coloring, q >= 2),
    Delta*lam/(1+lam) (hardcore), and Delta*(1-exp(-2|beta|)) (Ising). The
    first two match exact enumeration; the Ising form is the conventional
    translation constant and upper-bounds the exact value by at most 2x. Other
    models take the enumeration, guarded by q^(max_degree-1) <= 1e6, which reads
    f through filter_value and so raises ValueError on a value outside [0, 1].
    """
    d = model.graph.max_degree
    if model.kind == "coloring":
        return 0.0 if model.q < 2 else 2.0 * d / model.q
    if model.kind == "hardcore":
        lam = model.params["lam"]
        return d * lam / (1.0 + lam)
    if model.kind == "ising":
        return d * (1.0 - math.exp(-2.0 * abs(model.params["beta"])))
    return _lipschitz_exact(model)


def _lipschitz_exact(model: SpinModel) -> float:
    g = model.graph
    q = model.q
    if g.max_degree == 0 or q < 2:
        return 0.0
    if q ** (g.max_degree - 1) > _EXACT_ENUM_LIMIT:
        raise ValueError(
            f"exact enumeration infeasible: q^(max_degree-1) = {q}^{g.max_degree - 1} exceeds {_EXACT_ENUM_LIMIT}"
        )
    filt = model.filter_value
    best = 0.0
    for v in range(g.n):
        nbrs = g.adj[v]
        d = len(nbrs)
        if d == 0:
            continue
        nu = model.proposals[v]
        for ui in range(d):
            for c in range(q):
                for a, b in itertools.combinations(range(q), 2):
                    acc = 0.0
                    for c_new in range(q):
                        w = nu[c_new]
                        if w == 0.0:
                            continue
                        dmax = 0.0
                        # shared part ranges over the full product, per Condition 1
                        for rest in itertools.product(range(q), repeat=d - 1):
                            ta = rest[:ui] + (a,) + rest[ui:]
                            tb = rest[:ui] + (b,) + rest[ui:]
                            diff = abs(filt(v, c, c_new, ta) - filt(v, c, c_new, tb))
                            if diff > dmax:
                                dmax = diff
                        acc += w * dmax
                    if acc > best:
                        best = acc
    return g.max_degree * best
