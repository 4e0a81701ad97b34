"""Discrete-event simulation of the two-phase asynchronous protocol.

The network is the model graph with one reliable FIFO channel per directed
edge; every message is delivered within one virtual time unit. A pluggable
scheduler gives each channel, once per run, the stream of its delays; the
engine takes one per message sent and checks it against (0, 1]. Phase I
ships each node's initial value and update list to its neighbors
(serialized on the channel, one fragment per update); a node enters Phase II
once every neighbor's info has fully arrived, then resolves its updates in
order. An update accepts as soon as the coupled coin beta falls below min f
and rejects once beta >= max f, with f ranging over the product of the
per-neighbor possible-state sets (a filter-only model instead resolves once
beta < f has one answer on every completion of the sets); each received
Accept/Reject narrows those sets and retriggers the test.

Local computation is instantaneous in virtual time; the virtual clock is a
separate axis from the chain's Poisson time in [0, T].
"""

from __future__ import annotations

import gc
import itertools
import math
import re
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from heapq import heappop, heappush
from typing import IO, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .models import SpinModel, capped_product
from .schedule import UpdateSchedule, UpdateId

DECISION_BITS = 1

class SimulationInvariantError(RuntimeError):
    """An internal protocol invariant failed; signals a simulator bug."""


# ---------------------------------------------------------------------------
# delay schedulers

class Scheduler:
    """Delay policy of a run. The engine calls channels(pairs, count) once, at
    set-up, with the directed channels (src, dst) in (node, slot) order, a tuple
    the graph builds once for all its runs, and the run's exact message count;
    it returns one iterator per channel, whose i-th value is the delay of the
    i-th message sent on that channel. The engine checks every delay against
    (0, 1]."""

    def channels(self, pairs: Sequence[tuple[int, int]], count: int) -> list[Iterator[float]]:
        raise NotImplementedError


class FixedDelayScheduler(Scheduler):
    """Constant delay per directed channel, from a table with a default."""

    def __init__(self, default: float = 1.0, table: dict[tuple[int, int], float] | None = None):
        self.default = default
        self.table = dict(table or {})

    def channels(self, pairs, count):
        if self.table:
            run_channels = set(pairs)
            for key in self.table:
                if key not in run_channels:
                    raise ValueError(f"delay table key {key!r} is not a channel (src, dst) of the run")
        return [itertools.repeat(self.table.get(pair, self.default)) for pair in pairs]


class UniformRandomScheduler(Scheduler):
    """I.i.d. delays uniform on (0, 1]."""

    def __init__(self, seed: int = 0):
        self._rng = np.random.default_rng(seed)

    def channels(self, pairs, count):
        # every channel reads one block, so delays are used in send order and
        # equal count scalar draws 1 - rng.random(), generator state included
        block = iter((1.0 - self._rng.random(count)).tolist())
        return [block] * len(pairs)


SCHEDULER_POLICIES = ("synchronous", "uniform", "adversarial-max")
_STREAM_ENDED = "the scheduler's delay stream of channel ({}, {}) ended before the run's messages were sent"


def make_scheduler(policy: str, seed: int = 0) -> Scheduler:
    if policy in ("synchronous", "adversarial-max"):
        # lock-step: every delay at the maximum of one unit, which is also the max-delay adversary
        return FixedDelayScheduler()
    if policy == "uniform":
        return UniformRandomScheduler(seed)
    raise ValueError(f"unknown scheduler policy {policy!r}; expected one of {SCHEDULER_POLICIES}")


# ---------------------------------------------------------------------------
# message-size accounting
#
# Sizes are charged by a fixed formula rather than an encoded wire format:
# timestamps ride at the n^-4 resolution that keeps update times of adjacent
# nodes distinct whp (4 id-widths), plus a sender id, the integer part of the
# time, and the proposal. Decisions are a single bit.

def _ilog2(x: int) -> int:
    return max(1, math.ceil(math.log2(x))) if x > 1 else 1


def phase1_update_bits(n: int, T: float, q: int) -> int:
    """Accounted size of one Phase-I update fragment (also the max message size)."""
    return 5 * _ilog2(n) + _ilog2(math.ceil(T) + 1) + _ilog2(q)


def phase1_init_bits(n: int, q: int) -> int:
    """Accounted size of the initial-value fragment of a PhaseOneInfo message."""
    return _ilog2(n) + _ilog2(q)


# ---------------------------------------------------------------------------
# possible-state sets and resolution thresholds

def thresholds(
    model: SpinModel, v: int, c: int, c_new: int, neighbor_states: Sequence[Iterable[int]]
) -> tuple[float, float]:
    """(min f, max f) of the filter for node v's move c -> c_new over the product
    of the per-neighbor possible-state sets (sorted-adjacency order): the update
    accepts when beta < min f and rejects when beta >= max f.

    Uses the per-edge min/max closed form when the model has edge factors,
    otherwise enumerates the product (filter_range). Bad arguments raise
    ValueError from SpinModel.check_filter_args.
    """
    factor = model.edge_factor_fn
    if factor is None:
        return filter_range(model, v, c, c_new, neighbor_states)
    sets = model.check_filter_args(v, c, c_new, neighbor_states)
    ranges = [edge_range(factor, v, u, c, c_new, S) for u, S in zip(model.graph.adj[v], sets)]
    return capped_product(lo for lo, _ in ranges), capped_product(hi for _, hi in ranges)


def edge_range(factor, v: int, u: int, c: int, c_new: int, S: Sequence[int]) -> tuple[float, float]:
    """(min, max) of the edge factor g(v, u, c, c_new, b) over the states b in S.
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


# ---------------------------------------------------------------------------
# run records

class Resolution(NamedTuple):
    """One resolved update, with what triggered it (None = self-triggered)."""

    node: int
    index: int
    accepted: bool
    vtime: float
    trigger: UpdateId | None


@dataclass
class RunStats:
    makespan: float
    phase1_end: float
    residence: np.ndarray          # per-node Phase-II residence R_v, time units
    entry_times: np.ndarray
    termination_times: np.ndarray
    phase1_messages: int           # logical PhaseOneInfo messages = 2|E|
    phase1_fragments: int
    decision_messages: int
    total_bits: int
    max_message_bits: int

    @classmethod
    def derive(cls, entry_times: Sequence[float], term_times: Sequence[float],
               infos: Sequence[tuple[int, int, int]], decisions: int) -> RunStats:
        """Stats of a run from per-node Phase-II entry and termination times
        (node order), the (frags, bits, maxfrag) of each PhaseOneInfo message (one
        per directed channel) and the number of decision messages sent."""
        entry = np.array(entry_times, dtype=float)
        term = np.array(term_times, dtype=float)
        phase1_end = float(entry.max()) if len(entry) else 0.0
        frags, bits, maxfrag = zip(*infos) if infos else ((), (), ())
        return cls(
            makespan=float(term.max()) if len(term) else 0.0,
            phase1_end=phase1_end,
            residence=np.maximum(term - phase1_end, 0.0),
            entry_times=entry,
            termination_times=term,
            phase1_messages=len(infos),
            phase1_fragments=sum(frags),
            decision_messages=decisions,
            total_bits=sum(bits) + decisions * DECISION_BITS,
            max_message_bits=max((*maxfrag, DECISION_BITS if decisions else 0)),  # 0 with no messages
        )

    @property
    def message_count(self) -> int:
        return self.phase1_messages + self.decision_messages

    def same_as(self, other: "RunStats") -> bool:
        return all(np.array_equal(getattr(self, f.name), getattr(other, f.name)) for f in fields(self))


@dataclass
class SimulationResult:
    """With collect_trace, trace holds one tuple (vtime, kind, src, dst, *fields)
    per event, in time order; src is -1 where no message is delivered. By kind:
    "enter"/"term" (node dst enters Phase II / terminates): no fields; "info"
    (src's PhaseOneInfo lands at dst): frags, bits, maxfrag; "dec" (src's decision
    on its update j lands at dst): accepted, j; "resolve" (dst resolves its update
    i): i, accepted, trigger (None if self-triggered, else the trigger's UpdateId)."""

    final: np.ndarray
    stats: RunStats
    resolutions: list[Resolution]
    trace: list[tuple] | None
    schedule: UpdateSchedule = field(repr=False)


class _Node:
    """Per-node protocol state. The lists are indexed by neighbor slot k, the
    position in nbrs: j = 1 + the neighbor's decisions received; known, where
    known[t] is its state after update t for t < j and its proposal for update t
    from t = j on (known[0] is its initial value), so its live set at window bound
    idx is known[min(j - 1, idx) : idx + 1]; its edge range fmin/fmax (edge-factor
    models) or deduplicated live set S (filter-only models; None otherwise),
    win[k][i - 1] = its count of updates before this node's update i, rslot =
    this node's slot in its adjacency, dly and out_last = the delays and the last
    delivery of the channel to it. The node is in Phase I while info_pending,
    its count of neighbors whose info has not arrived, is above 0."""

    __slots__ = (
        "vid", "nbrs", "m", "proposals", "coins", "value", "i", "beta", "c_new",
        "j", "known", "fmin", "fmax", "S", "win", "rslot", "dly", "out_last", "pending", "info_pending",
        "entry", "term", "done",
    )

    def __init__(self, vid, nbrs, proposals, coins, y0, known, win, rslot, dly):
        self.vid, self.nbrs, self.proposals, self.coins = vid, nbrs, proposals, coins
        self.m = len(proposals)
        self.value = y0[vid]
        self.i = self.c_new = 0
        self.beta = 0.0
        self.j = [1] * len(nbrs)
        self.known = [known[u][:] for u in nbrs]
        self.fmin = [0.0] * len(nbrs)
        self.fmax = [0.0] * len(nbrs)
        self.S: list[tuple[int, ...] | None] = [None] * len(nbrs)
        self.win, self.rslot, self.dly = win, rslot, dly
        self.out_last = [0.0] * len(nbrs)
        self.pending: list[tuple[int, bool, int]] = []
        self.info_pending = len(nbrs)
        self.entry = self.term = math.inf
        self.done = False


@contextmanager
def _collector_paused():
    """Keep the cyclic garbage collector out of the block. The engine makes no
    reference cycles, so a collection there finds nothing and only walks the
    heap; the caller's enabled or disabled state is restored on every exit."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


class Simulation:
    """One deterministic execution of the protocol for a fixed schedule.

    All nondeterminism lives in the schedule and the scheduler seed. Deliveries
    run in (vtime, src, dst, seq) order, from a heap of the distinct delivery
    vtimes and, per vtime, a bucket of entries (src, dst, seq, accepted, slot):
    seq 0 is the channel's Phase-I info message, seq i the decision on src's
    update i, slot the position of src in dst's adjacency. The first three fields
    are unique, so the rest are never compared. A bucket is sorted once in
    descending order and drained by pop(); a send onto the vtime being drained (a
    delay below half an ulp of it) joins that bucket and re-sorts it."""

    @_collector_paused()
    def __init__(
        self,
        model: SpinModel,
        schedule: UpdateSchedule,
        y0: Sequence[int],
        scheduler: Scheduler,
        collect_trace: bool = False,
        paranoid: bool = False,
    ):
        schedule.check_model(model)
        self.y0 = model.check_configuration(y0)
        self.model = model
        self.schedule = schedule
        self.paranoid = paranoid
        self.factor = model.edge_factor_fn
        props_l = [p.tolist() for p in schedule.proposals]
        coins_l = [b.tolist() for b in schedule.coins]
        known = [[y, *p] for y, p in zip(self.y0, props_l)]
        adj, m, at = model.graph.adj, schedule.counts, schedule.starts
        pairs, rslots = model.graph.channel_tables()
        # ranks rise with the index within a node (its times rise), so counting u's
        # ranks below v's counts u's updates before each of v's in the one order
        ranks = [schedule.rank[at[v] : at[v + 1]] for v in range(model.n)]
        # each node sends m + 1 Phase-I fragments and m decisions on each channel
        count = sum(len(adj[v]) * (2 * m[v] + 1) for v in range(model.n))
        dly = scheduler.channels(pairs, count)
        starts = [0, *itertools.accumulate(map(len, adj))]
        if len(dly) != starts[-1]:
            raise ValueError(f"scheduler gave {len(dly)} delay streams for {starts[-1]} channels")
        self.nodes = [
            _Node(v, adj[v], props_l[v], coins_l[v], self.y0, known,
                  [ranks[u].searchsorted(ranks[v]).tolist() for u in adj[v]],
                  rslots[v], dly[starts[v] : starts[v + 1]])
            for v in range(model.n)
        ]
        self.times: list[float] = []  # heap of the distinct delivery vtimes
        self.buckets: dict[float, list[tuple]] = {}
        self.resolutions: list[Resolution] = []
        self.trace: list[tuple] | None = [] if collect_trace else None
        self.info: list[tuple[int, int, int]] = []
        self.decision_messages = 0
        self._executed = False

    # -- channel plumbing ---------------------------------------------------

    def _schedule_phase1(self) -> None:
        n, q = self.model.n, self.model.q
        init, upd = phase1_init_bits(n, q), phase1_update_bits(n, self.schedule.T, q)
        for node in self.nodes:
            # a PhaseOneInfo message carries the initial value and one fragment per update
            u, m_u = node.vid, node.m
            bits, maxfrag = init + m_u * upd, (upd if m_u else init)
            self.info.append((m_u + 1, bits, maxfrag))  # the fields of u's traced info events
            for k, v in enumerate(node.nbrs):
                # info fragments are serialized on the channel: the logical
                # PhaseOneInfo message lands when the last fragment does
                t, dly = 0.0, node.dly[k]
                for _ in range(m_u + 1):
                    try:
                        d = next(dly)
                    except StopIteration:
                        raise ValueError(_STREAM_ENDED.format(u, v)) from None
                    if not 0.0 < d <= 1.0:
                        raise ValueError(f"scheduler produced delay {d!r} outside (0, 1]")
                    t += d
                node.out_last[k] = t
                self.buckets.setdefault(t, []).append((u, v, 0, False, node.rslot[k]))
        self.times = sorted(self.buckets)  # a sorted list is a heap

    # -- protocol handlers (Phase II) ---------------------------------------

    def enter_phase2(self, node: _Node, vtime: float) -> None:
        node.entry = vtime
        if self.trace is not None:
            self.trace.append((vtime, "enter", -1, node.vid))
        self._advance(node, vtime)
        if not node.done:
            self._cascade(node, vtime, None)
        pending, node.pending = node.pending, []
        for k, accepted, sidx in pending:
            self._apply_decision(node, k, accepted, sidx, vtime)

    def _apply_decision(self, node: _Node, k: int, accepted: bool, sidx: int, vtime: float) -> None:
        ju = node.j[k]
        known = node.known[k]
        if ju >= len(known):
            raise SimulationInvariantError(f"node {node.vid}: surplus decision from {node.nbrs[k]} "
                                           "(FIFO violation or duplicate delivery)")
        if sidx != ju:
            raise SimulationInvariantError(f"node {node.vid}: decision from {node.nbrs[k]} out of order: "
                                           f"expected ordinal {ju}, got {sidx}")
        if not accepted:  # an accept leaves the proposal known[ju] as u's state
            known[ju] = known[ju - 1]
        node.j[k] = ju + 1
        # a terminated node only folds the decision in. So does a node whose set for u
        # is pinned to known[idx] (idx < ju), whose edge range for u is a point (within
        # one update a live set only shrinks), or whose refresh leaves what try_resolve
        # reads as it was: its last test was undecided and would stay so
        factor = self.factor
        if node.done or (idx := node.win[k][node.i - 1]) < ju or factor is not None and node.fmin[k] == node.fmax[k]:
            return
        S = known[ju : idx + 1]
        if factor is None:  # filter-only: the walk reads deduplicated sets
            S = tuple(S) if len(S) == 1 else tuple(set(S))
            if S == node.S[k]:
                return
            node.S[k] = S
        else:
            lo, hi = edge_range(factor, node.vid, node.nbrs[k], node.value, node.c_new, S)
            if lo == node.fmin[k] and hi == node.fmax[k]:
                return
            node.fmin[k], node.fmax[k] = lo, hi
        self._cascade(node, vtime, tuple.__new__(UpdateId, (node.nbrs[k], ju)))

    def _advance(self, node: _Node, vtime: float) -> None:
        """Start the node's next update, or terminate the node after its last."""
        if node.i == node.m:
            node.done = True
            node.term = vtime
            if self.trace is not None:
                self.trace.append((vtime, "term", -1, node.vid))
            return
        node.i = i = node.i + 1
        c_new = node.c_new = node.proposals[i - 1]
        node.beta = node.coins[i - 1]
        v, c, factor = node.vid, node.value, self.factor
        for k, (u, known, ju, win) in enumerate(zip(node.nbrs, node.known, node.j, node.win)):
            idx = win[i - 1]
            if factor is None:
                s = known[min(ju - 1, idx) : idx + 1]
                node.S[k] = tuple(s) if len(s) == 1 else tuple(set(s))
            elif idx < ju:  # pinned to one known state: one factor value, which edge_range refuses if not >= 0
                x = factor(v, u, c, c_new, known[idx])
                node.fmin[k] = node.fmax[k] = x if x >= 0.0 else edge_range(factor, v, u, c, c_new, (known[idx],))[0]
            else:
                node.fmin[k], node.fmax[k] = edge_range(factor, v, u, c, c_new, known[ju - 1 : idx + 1])

    def try_resolve(self, node: _Node) -> bool | None:
        """Test the two resolution conditions, accept first; None = undecided."""
        beta = node.beta
        if self.factor is not None:
            # slot order is adjacency order, the order the filter multiplies in
            lo, hi = capped_product(node.fmin), capped_product(node.fmax)
            res = True if beta < lo else False if beta >= hi else None
        else:
            # filter only: the update resolves when every completion of the live
            # sets gives the oracle's test beta < f the same answer, so the walk
            # stops at the first two completions that disagree
            v, c, c_new, filt = node.vid, node.value, node.c_new, self.model.filter_fn
            res = first = None
            for tau in itertools.product(*node.S):
                f = filt(v, c, c_new, tau)
                if not 0.0 <= f <= 1.0:  # the oracle's check, on each value read
                    raise ValueError(f"{UpdateId(v, node.i)}: filter f(v={v}, c={c}, c'={c_new}) = {f!r}, "
                                     f"outside [0, 1]")
                if first is None:
                    res = first = bool(beta < f)
                elif (beta < f) != first:
                    res = None
                    break
            if first is None:
                raise SimulationInvariantError(f"empty possible-state set at node {v}, sets {node.S}")
            lo = hi = None  # no closed form
        if self.paranoid:  # outcome and closed form must match enumeration, bit for bit
            sets = self._live_sets(node)
            flo, fhi = filter_range(self.model, node.vid, node.value, node.c_new, sets)
            expected = True if beta < flo else False if beta >= fhi else None
            if res is not expected or (lo is not None and (lo, hi) != (flo, fhi)):
                raise SimulationInvariantError(
                    f"resolution mismatch at node {node.vid}, update {node.i}: engine {res} from (min f, max f) "
                    f"{(lo, hi)}, enumeration {expected} from {(flo, fhi)}, beta {beta!r}, proposal {node.c_new}, "
                    f"sets {sets}"
                )
        return res

    def _cascade(self, node: _Node, vtime: float, trigger: UpdateId | None) -> None:
        while True:
            res = self.try_resolve(node)
            if res is None:
                return
            self._finish_update(node, res, vtime, trigger)
            if node.done:
                return
            trigger = None  # later resolutions fire on their first computation

    def _finish_update(self, node: _Node, accepted: bool, vtime: float, trigger) -> None:
        i = node.i
        if accepted:
            node.value = node.proposals[i - 1]
        # tuple.__new__ skips the namedtuple's Python-level __new__
        self.resolutions.append(tuple.__new__(Resolution, (node.vid, i, accepted, vtime, trigger)))
        if self.trace is not None:
            self.trace.append((vtime, "resolve", -1, node.vid, i, accepted, trigger))
        # the decision on update i is the i-th on each channel, so i is its sequence number
        src, last, dly, buckets = node.vid, node.out_last, node.dly, self.buckets
        for k, dst in enumerate(node.nbrs):
            try:
                d = next(dly[k])
            except StopIteration:  # from Python 3.11 a try costs nothing until it raises
                raise ValueError(_STREAM_ENDED.format(src, dst)) from None
            if not 0.0 < d <= 1.0:
                raise ValueError(f"scheduler produced delay {d!r} outside (0, 1]")
            deliver = vtime + d
            if deliver < last[k]:
                # FIFO projection. Against an earlier decision (sent no later) this
                # stays within one unit of the send; only against the Phase-I tail,
                # which lands before the receiver enters Phase II, can it exceed one
                # unit, and the receiver's pending queue then absorbs the delay.
                deliver = last[k]
            last[k] = deliver
            if (bucket := buckets.get(deliver)) is None:
                buckets[deliver] = [(src, dst, i, accepted, node.rslot[k])]
                heappush(self.times, deliver)
            else:
                bucket.append((src, dst, i, accepted, node.rslot[k]))
                if deliver == vtime:  # the bucket being drained: its least entry goes last
                    bucket.sort(reverse=True)
        self.decision_messages += len(node.nbrs)
        self._advance(node, vtime)

    # -- main loop -----------------------------------------------------------

    @_collector_paused()
    def execute(self) -> SimulationResult:
        if self._executed:
            raise RuntimeError("a Simulation instance runs exactly once")
        self._executed = True
        self._schedule_phase1()
        for node in self.nodes:
            if not node.nbrs:
                self.enter_phase2(node, 0.0)
        times, buckets, nodes, trace, info = self.times, self.buckets, self.nodes, self.trace, self.info
        apply_decision = self._apply_decision
        while times:
            vtime = heappop(times)
            bucket = buckets[vtime]
            bucket.sort(reverse=True)
            while bucket:
                src, dst, seq, accepted, k = bucket.pop()
                node = nodes[dst]
                if seq == 0:
                    if trace is not None:
                        trace.append((vtime, "info", src, dst) + info[src])
                    node.info_pending -= 1
                    if node.info_pending == 0:
                        self.enter_phase2(node, vtime)
                    continue
                # a decision: traced, then queued while dst is in Phase I, its info still
                # pending (processed in arrival order once it enters Phase II), or applied
                if trace is not None:
                    trace.append((vtime, "dec", src, dst, accepted, seq))
                if node.info_pending:
                    node.pending.append((k, accepted, seq))
                else:
                    apply_decision(node, k, accepted, seq, vtime)
            del buckets[vtime]
        stuck = [nd for nd in self.nodes if not nd.done]
        if stuck:
            raise SimulationInvariantError(self._deadlock_dump(stuck))
        return self._finalize()

    def _deadlock_dump(self, stuck: list[_Node]) -> str:
        lines = [f"event queue drained with {len(stuck)} unresolved node(s):"]
        for node in stuck[:5]:
            if node.info_pending:
                lines.append(f"  node {node.vid}: still in Phase I ({node.info_pending} info pending)")
                continue
            sets = dict(zip(node.nbrs, self._live_sets(node)))
            lines.append(f"  node {node.vid}: update {node.i}/{node.m}, beta={node.beta!r}, proposal={node.c_new}, "
                         f"j={dict(zip(node.nbrs, node.j))}, possible states {sets}")
        return "\n".join(lines)

    def _live_sets(self, node: _Node) -> list[list[int]]:
        """Each slot's live set (see _Node), sorted and deduplicated."""
        return [sorted(set(known[min(ju - 1, win[node.i - 1]) : win[node.i - 1] + 1]))
                for known, ju, win in zip(node.known, node.j, node.win)]

    def _finalize(self) -> SimulationResult:
        stats = RunStats.derive(
            [nd.entry for nd in self.nodes],
            [nd.term for nd in self.nodes],
            [rec for nd, rec in zip(self.nodes, self.info) for _ in nd.nbrs],  # one per channel
            self.decision_messages,
        )
        final = np.array([nd.value for nd in self.nodes], dtype=np.int64)
        return SimulationResult(final, stats, self.resolutions, self.trace, self.schedule)


def run(
    model: SpinModel,
    schedule: UpdateSchedule,
    y0: Sequence[int],
    scheduler: Scheduler,
    collect_trace: bool = False,
    paranoid: bool = False,
) -> SimulationResult:
    """Execute the full two-phase protocol; returns the final configuration,
    run statistics, and per-update resolution records."""
    sim = Simulation(model, schedule, y0, scheduler, collect_trace=collect_trace, paranoid=paranoid)
    return sim.execute()


# ---------------------------------------------------------------------------
# event-trace export and replay

# the line of a SimulationResult.trace record after its vtime: " kind src dst", then
# the kind's fields as key=value (a bool as 0/1, a trigger as self or node:index)
_TRACE_FORMATS = {"enter": " enter %d %d\n", "term": " term %d %d\n", "dec": " dec %d %d accept=%d j=%d\n",
                  "info": " info %d %d frags=%d bits=%d maxfrag=%d\n",
                  "resolve": " resolve %d %d i=%d accept=%d trigger=%s\n"}


def write_trace(trace: list[tuple], fh: IO[str]) -> None:
    """Render SimulationResult.trace, one line per event, and write it at once."""
    lines, last, vtext = [], None, ""
    for rec in trace:
        vtime, kind = rec[0], rec[1]
        if vtime != last:  # repr, the costliest step, once per run of equal vtimes
            last, vtext = vtime, repr(vtime)
        if kind == "resolve":
            tid = rec[6]
            rec = rec[:6] + ("self" if tid is None else f"{tid.node}:{tid.index}",)
        lines += (vtext, _TRACE_FORMATS[kind] % rec[2:])
    fh.write("".join(lines))


# each kind's line after "vtime kind", for error messages, and the one pattern
# of a whole line, whose outermost named group that matched (lastgroup) is the kind
_TRACE_LAYOUTS = {"enter": "-1 NODE", "term": "-1 NODE", "info": "SRC DST frags=N bits=N maxfrag=N",
                  "dec": "SRC DST accept=0|1 j=N", "resolve": "-1 NODE i=N accept=0|1 trigger=self|NODE:N"}
_TRACE_LINE = re.compile(
    r"([0-9]+(?:\.[0-9]+)?(?:e[-+][0-9]+)?) (?:"  # a finite vtime >= 0, as repr renders it
    r"(?P<dec>dec [0-9]+ [0-9]+ accept=[01] j=[0-9]+)"
    r"|(?P<info>info [0-9]+ [0-9]+ frags=(?P<frags>[0-9]+) bits=(?P<bits>[0-9]+) maxfrag=(?P<maxfrag>[0-9]+))"
    r"|(?P<resolve>resolve -1 (?P<node>[0-9]+) i=(?P<i>[0-9]+) accept=(?P<accept>[01]) "
    r"trigger=(?:self|(?P<tnode>[0-9]+):(?P<tindex>[0-9]+)))"
    r"|(?P<phase2>(?P<edge>enter|term) -1 (?P<v>[0-9]+)))\s*"
)


def replay_trace(fh: IO[str]) -> tuple[RunStats, list[Resolution]]:
    """Rebuild RunStats and resolution records from an exported event trace.
    Each line must match its kind's layout exactly, one space between fields;
    blank lines are skipped, and "dec" lines are only checked and counted. Each
    node has one enter, then its resolves, then one term."""
    entry: dict[int, float] = {}
    term: dict[int, float] = {}
    resolutions: list[Resolution] = []
    infos: list[tuple[int, int, int]] = []
    decisions = 0
    match = _TRACE_LINE.fullmatch
    for lineno, line in enumerate(fh, start=1):
        m = match(line)
        if m is None:
            if line.isspace():
                continue
            kind = (line.split() + [None, None])[1]
            if kind not in _TRACE_LAYOUTS:
                raise ValueError(f"trace line {lineno}: unknown trace event kind {kind!r} in {line.strip()!r}")
            raise ValueError(f"trace line {lineno}: {kind} lines read 'VTIME {kind} {_TRACE_LAYOUTS[kind]}', "
                             f"one space apart, not {line.strip()!r}")
        kind = m.lastgroup
        if kind == "dec":
            decisions += 1
        elif kind == "info":
            infos.append((int(m["frags"]), int(m["bits"]), int(m["maxfrag"])))
        else:
            event, v = (m["edge"], int(m["v"])) if kind == "phase2" else (kind, int(m["node"]))
            if (v in entry) if event == "enter" else (v not in entry or v in term):
                raise ValueError(f"trace line {lineno}: {event} of node {v} out of place; a node has "
                                 "one enter, then its resolves, then one term")
            if event == "resolve":
                tid = None if m["tnode"] is None else UpdateId(int(m["tnode"]), int(m["tindex"]))
                resolutions.append(Resolution(v, int(m["i"]), m["accept"] == "1", float(m[1]), tid))
            else:
                (entry if event == "enter" else term)[v] = float(m[1])
    nodes = sorted(entry)
    if len(nodes) != len(term):
        raise ValueError("trace has a node that entered Phase II and never terminated")
    return RunStats.derive([entry[v] for v in nodes], [term[v] for v in nodes], infos, decisions), resolutions
