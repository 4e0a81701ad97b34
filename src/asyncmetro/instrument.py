"""Dependency-chain reconstruction and Phase-II residence measurements.

Chains are rebuilt post hoc from resolution records, never threaded through
live node state, so instrumenting a run cannot perturb the protocol. Chain
"length" counts updates (chain vertices), not hops.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .netsim import SimulationInvariantError, SimulationResult
from .schedule import UpdateId


def chain_lengths(result: SimulationResult) -> np.ndarray:
    """Length of the dependency chain ending at every update, in (node, index) order.

    One pass over result.resolutions, whose order is causal: the engine records
    a resolution after its predecessor's. The pass is also the one check of the
    records: each names a scheduled update, none twice and none missing, each
    predecessor comes earlier, and each trigger precedes its update.
    """
    schedule = result.schedule
    n, counts, starts = schedule.n, schedule.counts, schedule.starts
    lengths = [0] * schedule.total_updates
    earlier, later = [], []  # positions of the triggers, and of the updates they fired
    for v, i, _, _, trigger in result.resolutions:
        if not (0 <= v < n and 0 < i <= counts[v]):
            raise SimulationInvariantError(f"resolution of unscheduled update ({v},{i})")
        pos = starts[v] + i - 1
        if lengths[pos]:
            raise SimulationInvariantError(f"update {UpdateId(v, i)} resolved twice")
        # the update before on the chain: the trigger, else the node's previous update
        if trigger is not None:
            u, k = trigger
            # an unscheduled trigger reads the still empty entry of pos
            ppos = starts[u] + k - 1 if 0 <= u < n and 0 < k <= counts[u] else pos
            earlier.append(ppos)
            later.append(pos)
        elif i > 1:
            u, k, ppos = v, i - 1, pos - 1
        else:
            lengths[pos] = 1
            continue
        if not lengths[ppos]:
            raise SimulationInvariantError(
                f"update {UpdateId(v, i)} recorded before its predecessor ({u},{k}) (causal order)"
            )
        lengths[pos] = lengths[ppos] + 1
    if 0 in lengths:
        raise SimulationInvariantError("update (%d,%d) missing from the trace" % schedule.update_at(lengths.index(0)))
    rank = schedule.rank
    bad = np.flatnonzero(rank[np.array(earlier, dtype=np.intp)] >= rank[np.array(later, dtype=np.intp)])
    if len(bad):
        first, second = schedule.update_at(earlier[bad[0]]), schedule.update_at(later[bad[0]])
        raise SimulationInvariantError(f"trigger {first} does not precede {second} in the (time, node) order")
    return np.array(lengths, dtype=np.int64)


@dataclass
class ResidenceReport:
    residence: np.ndarray       # per-node R_v in time units
    chain_length: np.ndarray    # per-node len of the chain ending at (v, m_v); 0 if m_v = 0
    max_residence: float
    max_chain_length: int

    def bound_holds(self) -> bool:
        return bool(np.all(np.ceil(self.residence) <= self.chain_length))


def phase2_residence(result: SimulationResult, verify: bool = True) -> ResidenceReport:
    """Per-node Phase-II residence R_v and final-update chain lengths.

    R_v runs from the moment the last node entered Phase II to v's
    termination (clamped at 0). With verify=True the running-time bound
    ceil(R_v) <= len(chain of (v, m_v)) is asserted for every node.
    """
    lengths, schedule = chain_lengths(result), result.schedule
    # node v's last update sits just before the next node's first
    chain_len = np.array([lengths[end - 1] if m else 0 for m, end in zip(schedule.counts, schedule.starts[1:])],
                         dtype=np.int64)
    residence = result.stats.residence
    if verify:
        bad = np.flatnonzero(np.ceil(residence) > chain_len)
        if len(bad):
            v = bad[0]
            raise SimulationInvariantError(f"node {v}: residence {residence[v]} exceeds chain length {chain_len[v]}")
    return ResidenceReport(
        residence=residence,
        chain_length=chain_len,
        max_residence=float(residence.max(initial=0.0)),  # R_v >= 0
        max_chain_length=int(chain_len.max(initial=0)),
    )
