"""Shared randomness of the coupling: Poisson update times, proposals, and coins.

Under generate (horizon T), one master seed splits into per-node independent
streams keyed by node id; each stream yields exponential clock gaps, then
proposals, then coins, so a node's draws are invariant to the graph size and
to other nodes' randomness. generate_steps (exactly N updates) draws from one
stream instead. The global processing order is the strict total order on
(time, node, index), which breaks exact time ties deterministically.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from itertools import accumulate
from typing import IO, NamedTuple

import numpy as np

from .models import SpinModel


class UpdateId(NamedTuple):
    node: int
    index: int  # 1-based ordinal within the node


class UpdateSchedule:
    """Per-node update times in (0, T), proposals, and uniform-[0,1) coins.

    Update (v, i) sits at flat position starts[v] + i - 1, so positions run in
    (node, index) order. order lists the positions in the total order (time,
    node, index) and rank is its inverse; both are computed once, here, and
    the times they derive from are read-only.
    """

    __slots__ = ("T", "seed", "n", "q", "times", "proposals", "coins", "counts", "starts", "order", "rank")

    def __init__(self, T, seed, n, q, times, proposals, coins):
        self.T = _check_horizon(T)
        self.seed = seed
        self.n = n
        self.q = q
        self.times = times          # list of float64 arrays, strictly increasing
        self.proposals = proposals  # list of int64 arrays
        self.coins = coins          # list of float64 arrays in [0, 1)
        if len(times) != n or len(proposals) != n or len(coins) != n:
            raise ValueError("per-node arrays must all have length n")
        self.counts = [len(t) for t in times]
        for v, (p, b) in enumerate(zip(proposals, coins)):
            if not (self.counts[v] == len(p) == len(b)):
                raise ValueError(f"node {v}: times/proposals/coins lengths differ")
        self.starts = [0, *accumulate(self.counts)]
        flat = np.concatenate([*times, []])
        self._validate(flat)
        for t in times:
            t.setflags(write=False)
        # a stable sort of the times in position order breaks exact ties by node, then index
        self.order = np.argsort(flat, kind="stable")
        self.rank = np.empty_like(self.order)
        self.rank[self.order] = np.arange(len(self.order))
        self.order.setflags(write=False)
        self.rank.setflags(write=False)

    def _validate(self, flat: np.ndarray) -> None:
        """Each check runs once over all updates (flat: the times in position order)."""
        # comparisons are negated so that NaN fails them
        self._require((flat > 0.0) & (flat < self.T), "update times must lie in (0, T)")
        increasing = np.ones(len(flat) + 1, dtype=bool)
        increasing[1:-1] = flat[1:] > flat[:-1]
        increasing[self.starts] = True  # a node's first update follows another node's last
        self._require(increasing, "update times must be strictly increasing")
        props = np.concatenate([*self.proposals, np.empty(0, np.int64)])
        self._require((props >= 0) & (props < self.q), f"proposals out of range 0..{self.q - 1}")
        coins = np.concatenate([*self.coins, []])
        self._require((coins >= 0.0) & (coins < 1.0), "coins out of [0, 1)")

    def _require(self, ok: np.ndarray, what: str) -> None:
        """Raise naming the node of the first position where ok is False."""
        if not ok.all():
            raise ValueError(f"node {self.update_at(int(np.argmin(ok))).node}: {what}")

    def check_model(self, model: SpinModel) -> None:
        if self.n != model.n or self.q != model.q:
            raise ValueError(
                f"schedule (n={self.n}, q={self.q}) does not match model (n={model.n}, q={model.q})"
            )

    @property
    def total_updates(self) -> int:
        return self.starts[-1]

    def update_at(self, pos: int) -> UpdateId:
        """The update at flat position pos."""
        v = bisect_right(self.starts, pos) - 1
        return UpdateId(v, int(pos) - self.starts[v] + 1)

    def __repr__(self) -> str:
        return f"UpdateSchedule(n={self.n}, T={self.T}, seed={self.seed}, updates={self.total_updates})"


def _check_horizon(T) -> float:
    if not 0 <= T < math.inf:
        raise ValueError(f"time horizon T must be finite and >= 0, got {T}")
    return float(T)


def _poisson_times(rng: np.random.Generator, T: float) -> np.ndarray:
    """Rate-1 Poisson arrival times strictly inside (0, T)."""
    if T <= 0.0:
        return np.empty(0)
    blocks: list[np.ndarray] = []
    total = 0.0
    block = max(16, int(2 * T) + 8)
    while True:
        cs = total + np.cumsum(rng.exponential(1.0, block))
        stop = int(np.searchsorted(cs, T, side="left"))  # first arrival >= T
        if stop < block:
            blocks.append(cs[:stop])
            return np.concatenate(blocks)  # a copy, so no block's unused tail is kept
        blocks.append(cs)
        total = float(cs[-1])


def generate(model: SpinModel, T: float, seed: int) -> UpdateSchedule:
    """Draw the full shared randomness for (model, T, seed); fully deterministic."""
    T = _check_horizon(T)  # before the draw loop, which never ends on an infinite T
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    n, q = model.n, model.q
    cdfs = np.cumsum(model.proposals, axis=1)  # row v is np.cumsum(model.proposals[v])
    times, proposals, coins = [], [], []
    for v in range(n):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=(int(seed), v)))
        t = _poisson_times(rng, T)
        m = len(t)
        props = draw_proposals(cdfs[v], rng.random(m), q)
        times.append(t)
        proposals.append(props.astype(np.int64, copy=False))
        coins.append(rng.random(m))
    return UpdateSchedule(T, int(seed), n, q, times, proposals, coins)


def generate_steps(model: SpinModel, N: int, seed: int) -> UpdateSchedule:
    """Exactly N updates: one stream draws N + 1 gaps of a rate-n Poisson clock, N
    uniform nodes, N proposal uniforms and N coins; T is the (N + 1)-th arrival. By Poisson
    superposition the nodes are i.i.d. uniform, so this is the N-step discrete chain."""
    n, q = model.n, model.q
    if N < 0 or seed < 0 or (N > 0 and n == 0):
        raise ValueError(f"need step count N >= 0, seed >= 0 and a node to step; got N={N}, seed={seed}, n={n}")
    if n == 0:
        return UpdateSchedule(0.0, int(seed), 0, q, [], [], [])  # no nodes, no clock
    rng = np.random.default_rng(seed)
    arrivals = np.cumsum(rng.exponential(1.0 / n, N + 1))
    nodes = rng.integers(n, size=N)
    uniforms, coins = rng.random(N), rng.random(N)
    by_node = np.argsort(nodes, kind="stable")  # keeps each node's draws in time order
    cuts = np.cumsum(np.bincount(nodes, minlength=n))[:-1]
    times, uniforms, coins = (np.split(a[by_node], cuts) for a in (arrivals[:N], uniforms, coins))
    cdfs = np.cumsum(model.proposals, axis=1)  # row v is np.cumsum(model.proposals[v]), as generate uses
    proposals = [draw_proposals(cdfs[v], u, q).astype(np.int64) for v, u in enumerate(uniforms)]
    return UpdateSchedule(arrivals[N], int(seed), n, q, times, proposals, coins)


def draw_proposals(cdf, coins, q: int):
    """Inverse-CDF proposal for each uniform coin, clipped to q - 1 against cdf tail rounding below 1."""
    return np.minimum(np.searchsorted(cdf, coins, side="right"), q - 1)


def dump(schedule: UpdateSchedule, fh: IO[str]) -> None:
    """Line-oriented text form: header "n T seed", then "node index time proposal coin"."""
    fh.write(f"{schedule.n} {schedule.T!r} {schedule.seed}\n")
    for v in range(schedule.n):
        t = schedule.times[v].tolist()
        p = schedule.proposals[v].tolist()
        b = schedule.coins[v].tolist()
        for i in range(len(t)):
            fh.write(f"{v} {i + 1} {t[i]!r} {p[i]} {b[i]!r}\n")
