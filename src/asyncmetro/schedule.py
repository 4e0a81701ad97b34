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
from itertools import accumulate, pairwise
from typing import IO, Iterator, NamedTuple

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
    """Rate-1 Poisson arrival times strictly inside (0, T), drawn in blocks of gaps;
    the first block covers T for nearly every node."""
    block = max(16, int(2 * T) + 8)
    cs = rng.exponential(1.0, block).cumsum()
    stop = cs.searchsorted(T)  # first arrival >= T
    if stop < block:
        return cs[:stop].copy()  # a copy, so the block's unused tail is not kept
    blocks = [cs]
    while stop == block:
        cs = float(cs[-1]) + rng.exponential(1.0, block).cumsum()
        stop = cs.searchsorted(T)
        blocks.append(cs[:stop])
    return np.concatenate(blocks)


# numpy's SeedSequence hash constants, and PCG64's LCG multiplier
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 2549297995355413924 << 64 | 4865540595714422341
_M32, _M128 = 2**32 - 1, 2**128 - 1


def _node_states(seed: int, n: int) -> Iterator[dict]:
    """For each node v < n (< 2**32), the PCG64 state of
    default_rng(SeedSequence(entropy=(seed, v))). SeedSequence's pool mixing and
    generate_state(4, uint64) run as uint32 array arithmetic over all nodes at once,
    and PCG64's seeding step on Python ints; seeding one generator per node costs
    ~12 us, most of a node's draw. numpy keeps both algorithms fixed across releases,
    and tests/test_schedule.py checks every state against numpy's own seeding."""
    words = [seed >> shift & _M32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    entropy = [np.full(n, w, dtype=np.uint32) for w in words] + [np.arange(n, dtype=np.uint32)]
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * _MULT_A & _M32
        value = value * np.uint32(const)
        return value ^ value >> 16

    def mix(x, y):
        r = x * np.uint32(_MIX_L) - y * np.uint32(_MIX_R)
        return r ^ r >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else np.zeros(n, dtype=np.uint32)) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    const, out = _INIT_B, []
    for k in range(8):  # generate_state(4, uint64): 8 words off the pool, paired low word first
        word = pool[k % 4] ^ np.uint32(const)
        const = const * _MULT_B & _M32
        word = word * np.uint32(const)
        out.append((word ^ word >> 16).astype(np.uint64))
    seed_hi, seed_lo, inc_hi, inc_lo = ((out[2 * j] | out[2 * j + 1] << np.uint64(32)).tolist() for j in range(4))
    # PCG64 seeds from s = words 0-1 and i = words 2-3, high word first: inc = 2i + 1,
    # and the state is two LCG steps from 0, with s added between them
    for a, b, c, d in zip(seed_hi, seed_lo, inc_hi, inc_lo):
        inc = ((c << 64 | d) << 1 | 1) & _M128
        state = ((inc + (a << 64 | b)) * _PCG64_MULT + inc) & _M128
        yield {"bit_generator": "PCG64", "state": {"state": state, "inc": inc}, "has_uint32": 0, "uinteger": 0}


def generate(model: SpinModel, T: float, seed: int) -> UpdateSchedule:
    """Draw the full shared randomness for (model, T, seed); fully deterministic."""
    T = _check_horizon(T)  # before the draw loop, which never ends on an infinite T
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    n = model.n
    bitgen = np.random.PCG64(0)  # one generator, reset to each node's own seeded state
    rng = np.random.Generator(bitgen)
    times, uniforms, coins = [], [], []
    for state in _node_states(int(seed), n):
        bitgen.state = state
        t = _poisson_times(rng, T)
        times.append(t)
        uniforms.append(rng.random(len(t)))  # the proposal uniforms, then the coins
        coins.append(rng.random(len(t)))
    cuts = [0, *accumulate(map(len, times))]
    proposals = _per_node(_proposals(model, cuts, np.concatenate([*uniforms, []])), cuts)
    del uniforms  # before the schedule's checks allocate their own temporaries; keeps the peak RSS down
    return UpdateSchedule(T, int(seed), n, model.q, times, proposals, coins)


def generate_steps(model: SpinModel, N: int, seed: int) -> UpdateSchedule:
    """Exactly N updates: one stream draws N + 1 gaps of a rate-n Poisson clock, N
    uniform nodes, N proposal uniforms and N coins; T is the (N + 1)-th arrival. By Poisson
    superposition the nodes are i.i.d. uniform, so this is the N-step discrete chain."""
    n = model.n
    if N < 0 or seed < 0 or (N > 0 and n == 0):
        raise ValueError(f"need step count N >= 0, seed >= 0 and a node to step; got N={N}, seed={seed}, n={n}")
    if n == 0:
        return UpdateSchedule(0.0, int(seed), 0, model.q, [], [], [])  # no nodes, no clock
    rng = np.random.default_rng(seed)
    arrivals = np.cumsum(rng.exponential(1.0 / n, N + 1))
    nodes = rng.integers(n, size=N)
    uniforms, coins = rng.random(N), rng.random(N)
    by_node = np.argsort(nodes, kind="stable")  # keeps each node's draws in time order
    cuts = [0, *np.bincount(nodes, minlength=n).cumsum().tolist()]
    proposals = _proposals(model, cuts, uniforms[by_node])
    times, proposals, coins = (_per_node(a, cuts) for a in (arrivals[:N][by_node], proposals, coins[by_node]))
    return UpdateSchedule(arrivals[N], int(seed), n, model.q, times, proposals, coins)


def _proposals(model: SpinModel, cuts: list[int], uniforms: np.ndarray) -> np.ndarray:
    """Inverse-CDF proposal of each uniform under its node's row of model.proposals,
    clipped to q - 1 against cdf tail rounding below 1; the uniforms of node v are
    uniforms[cuts[v]:cuts[v + 1]]."""
    cdfs = np.cumsum(model.proposals, axis=1)
    # a run of nodes with equal rows (all nodes, for the built-in models) is one searchsorted
    first = np.ones(model.n, dtype=bool)
    first[1:] = (cdfs[1:] != cdfs[:-1]).any(axis=1)
    runs = [*np.flatnonzero(first).tolist(), model.n]
    proposals = np.empty(len(uniforms), dtype=np.int64)
    for v, w in pairwise(runs):
        at = slice(cuts[v], cuts[w])
        proposals[at] = cdfs[v].searchsorted(uniforms[at], side="right")
    return np.minimum(proposals, model.q - 1, out=proposals)


def _per_node(flat: np.ndarray, cuts: list[int]) -> list[np.ndarray]:
    """Node v's entries flat[cuts[v]:cuts[v + 1]] as its own array: views of one large array
    per field left the peak RSS of repeated n = 2048 runs ~0.5 MB higher, for the same bytes."""
    return [flat[a:b].copy() for a, b in pairwise(cuts)]


def dump(schedule: UpdateSchedule, fh: IO[str]) -> None:
    """Line-oriented text form: header "n T seed", then "node index time proposal coin"."""
    fh.write(f"{schedule.n} {schedule.T!r} {schedule.seed}\n")
    for v in range(schedule.n):
        t = schedule.times[v].tolist()
        p = schedule.proposals[v].tolist()
        b = schedule.coins[v].tolist()
        for i in range(len(t)):
            fh.write(f"{v} {i + 1} {t[i]!r} {p[i]} {b[i]!r}\n")
