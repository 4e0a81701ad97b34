"""Dependency-chain reconstruction and Phase-II residence measurements.

Chains are rebuilt post hoc from resolution records, never threaded through
live node state, so instrumenting a run cannot perturb the protocol. Chain
"length" counts updates (chain vertices), not hops.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import IO

import numpy as np

from .netsim import SimulationInvariantError, SimulationResult
from .schedule import UpdateId, UpdateSchedule, order_key


@dataclass(frozen=True)
class DependencyRecord:
    """How one update got resolved: trigger is None for a self-triggered
    resolution, else the adjacent (or own-previous) update whose decision
    fired the resolution condition."""

    update: UpdateId
    trigger: UpdateId | None
    resolve_vtime: float
    accepted: bool


def record_trigger(result: SimulationResult) -> dict[UpdateId, DependencyRecord]:
    """Per-update dependency records for a completed run.

    Validates completeness (every scheduled update resolved exactly once) and
    that each trigger precedes its update in the (time, node) order.
    """
    schedule = result.schedule
    records: dict[UpdateId, DependencyRecord] = {}
    for res in result.resolutions:
        uid = UpdateId(res.node, res.index)
        if uid in records:
            raise SimulationInvariantError(f"update {uid} resolved twice")
        records[uid] = DependencyRecord(uid, res.trigger, res.vtime, res.accepted)
    for v in range(schedule.n):
        for i in range(1, len(schedule.times[v]) + 1):
            if UpdateId(v, i) not in records:
                raise SimulationInvariantError(f"update ({v},{i}) missing from the trace")
    for rec in records.values():
        if rec.trigger is not None:
            _check_precedes(schedule, rec.trigger, rec.update)
    return records


def _check_precedes(schedule: UpdateSchedule, first: UpdateId, second: UpdateId) -> None:
    if order_key(schedule, first) >= order_key(schedule, second):
        raise SimulationInvariantError(
            f"trigger {first} does not precede {second} in the (time, node) order"
        )


def _predecessor(records: dict[UpdateId, DependencyRecord], uid: UpdateId) -> UpdateId | None:
    """Previous update on uid's dependency chain: its trigger, else its node's previous update."""
    trigger = records[uid].trigger
    if trigger is not None:
        return trigger
    return UpdateId(uid.node, uid.index - 1) if uid.index > 1 else None


def chain_of(
    records: dict[UpdateId, DependencyRecord],
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
    cur: UpdateId | None = target
    limit = len(records)
    while cur is not None:
        if len(seq) >= limit + 1:
            raise SimulationInvariantError(f"dependency chain at {target} has a cycle")
        seq.append(cur)
        cur = _predecessor(records, cur)
    seq.reverse()
    if schedule is not None:
        for a, b in zip(seq, seq[1:]):
            _check_precedes(schedule, a, b)
    return seq


def chain_lengths(records: dict[UpdateId, DependencyRecord]) -> dict[UpdateId, int]:
    """Length of the dependency chain ending at every recorded update."""
    lengths: dict[UpdateId, int] = {}
    for uid in records:
        if uid in lengths:
            continue
        stack = [uid]
        while stack:
            cur = stack[-1]
            if cur in lengths:
                stack.pop()
                continue
            pred = _predecessor(records, cur)
            if pred is None:
                lengths[cur] = 1
                stack.pop()
            elif pred in lengths:
                lengths[cur] = lengths[pred] + 1
                stack.pop()
            else:
                stack.append(pred)
    return lengths


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
    records = record_trigger(result)
    lengths = chain_lengths(records)
    schedule = result.schedule
    n = schedule.n
    chain_len = np.zeros(n, dtype=np.int64)
    for v in range(n):
        m_v = len(schedule.times[v])
        if m_v:
            chain_len[v] = lengths[UpdateId(v, m_v)]
    residence = result.stats.residence
    if verify:
        for v in range(n):
            if math.ceil(residence[v]) > chain_len[v]:
                raise SimulationInvariantError(
                    f"node {v}: residence {residence[v]} exceeds chain length {chain_len[v]}"
                )
    return ResidenceReport(
        residence=residence,
        chain_length=chain_len,
        max_residence=float(residence.max()) if n else 0.0,
        max_chain_length=int(chain_len.max()) if n else 0,
    )


# ---------------------------------------------------------------------------
# CSV emission

CSV_FIELDS = (
    "seed",
    "scheduler",
    "n",
    "max_degree",
    "model",
    "param",
    "T",
    "makespan",
    "phase1_end",
    "max_residence",
    "max_chain_length",
    "messages",
    "bits",
)


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
