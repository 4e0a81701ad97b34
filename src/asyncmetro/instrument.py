"""Dependency-chain reconstruction and Phase-II residence measurements.

Chains are rebuilt post hoc from resolution records, never threaded through
live node state, so instrumenting a run cannot perturb the protocol. Chain
"length" counts updates (chain vertices), not hops.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import IO

import numpy as np

from .netsim import Resolution, SimulationInvariantError, SimulationResult
from .schedule import UpdateId, UpdateSchedule


def _predecessor(res: Resolution) -> tuple[int, int] | None:
    """(node, index) of the update before res on its chain: its trigger, else its node's previous update."""
    if res.trigger is not None:
        return res.trigger
    return (res.node, res.index - 1) if res.index > 1 else None


def _check_precedes(schedule: UpdateSchedule, earlier: list[int], later: list[int]) -> None:
    """Raise unless the update at position earlier[k] precedes the one at later[k], for every k."""
    rank = schedule.rank
    bad = np.flatnonzero(rank[np.array(earlier, dtype=np.intp)] >= rank[np.array(later, dtype=np.intp)])
    if len(bad):
        first, second = schedule.update_at(earlier[bad[0]]), schedule.update_at(later[bad[0]])
        raise SimulationInvariantError(f"trigger {first} does not precede {second} in the (time, node) order")


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
    for res in result.resolutions:
        v, i = res.node, res.index
        if not (0 <= v < n and 0 < i <= counts[v]):
            raise SimulationInvariantError(f"resolution of unscheduled update ({v},{i})")
        pos = starts[v] + i - 1
        if lengths[pos]:
            raise SimulationInvariantError(f"update {UpdateId(v, i)} resolved twice")
        pred = _predecessor(res)
        if pred is None:
            lengths[pos] = 1
            continue
        u, k = pred
        # an unscheduled predecessor reads the still empty entry of pos
        ppos = starts[u] + k - 1 if 0 <= u < n and 0 < k <= counts[u] else pos
        if not lengths[ppos]:
            raise SimulationInvariantError(
                f"update {UpdateId(v, i)} recorded before its predecessor ({u},{k}) (causal order)"
            )
        lengths[pos] = lengths[ppos] + 1
        if res.trigger is not None:
            earlier.append(ppos)
            later.append(pos)
    if 0 in lengths:
        raise SimulationInvariantError("update (%d,%d) missing from the trace" % schedule.update_at(lengths.index(0)))
    _check_precedes(schedule, earlier, later)
    return np.array(lengths, dtype=np.int64)


def record_trigger(result: SimulationResult) -> dict[UpdateId, Resolution]:
    """Resolution record of every update, keyed by update, after the checks of chain_lengths."""
    chain_lengths(result)
    return {UpdateId(res.node, res.index): res for res in result.resolutions}


def chain_of(
    records: dict[UpdateId, Resolution],
    target: UpdateId,
    schedule: UpdateSchedule | None = None,
) -> list[UpdateId]:
    """Dependency chain ending at target.

    Walks the recursion backwards: a triggered resolution prepends the
    trigger's chain; a self-triggered one prepends the node's previous update,
    terminating at a self-triggered first update. When a schedule is given the
    chain's strict (time, node) monotonicity is asserted.
    """
    if target not in records:
        raise KeyError(f"no record for update {target}")
    seq: list[UpdateId] = []
    cur: tuple[int, int] | None = target
    while cur is not None:
        if len(seq) > len(records):
            raise SimulationInvariantError(f"dependency chain at {target} has a cycle")
        seq.append(UpdateId(*cur))
        cur = _predecessor(records[cur])
    seq.reverse()
    if schedule is not None:
        pos = [schedule.starts[v] + i - 1 for v, i in seq]
        _check_precedes(schedule, pos[:-1], pos[1:])
    return seq


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


# ---------------------------------------------------------------------------
# CSV emission

CSV_FIELDS = ("seed", "scheduler", "n", "max_degree", "model", "param", "T", "makespan", "phase1_end",
              "max_residence", "max_chain_length", "messages", "bits")


def run_csv_row(
    seed: int,
    scheduler: str,
    model,
    T: float,
    result: SimulationResult,
    report: ResidenceReport,
) -> dict:
    if model.kind == "hardcore":
        param = f"lam={model.params['lam']!r}"
    elif model.kind == "ising":
        param = f"beta={model.params['beta']!r}"
    else:
        param = f"q={model.q}"
    return {
        "seed": seed,
        "scheduler": scheduler,
        "n": model.n,
        "max_degree": model.graph.max_degree,
        "model": model.kind,
        "param": param,
        "T": repr(float(T)),
        "makespan": repr(result.stats.makespan),
        "phase1_end": repr(result.stats.phase1_end),
        "max_residence": repr(report.max_residence),
        "max_chain_length": report.max_chain_length,
        "messages": result.stats.message_count,
        "bits": result.stats.total_bits,
    }


def write_csv(rows: list[dict], fh: IO[str]) -> None:
    fh.write(",".join(CSV_FIELDS) + "\n")
    for row in rows:
        fh.write(",".join(str(row[k]) for k in CSV_FIELDS) + "\n")
