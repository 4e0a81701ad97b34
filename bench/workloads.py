"""Benchmark workloads: set-up, one op, and the checks run after each op.

Every workload drives only the public API of ``asyncmetro``. An op returns
the runs it made; ``check_op`` then verifies them outside the timed
interval and derives the exact counts and the output digest. Layer spans
are opened here, around each call into a layer, through the tracer the
caller passes in (a no-op one when tracing is off).

Importing this module puts the checkout's ``src`` first on ``sys.path`` and
raises ``ProgramMissing`` when the program is not there, so the benchmark
never measures an installed copy by mistake.
"""

from __future__ import annotations

import hashlib
import io
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class ProgramMissing(ImportError):
    """The checkout holds no ``src/asyncmetro`` package to benchmark."""


if not (SRC / "asyncmetro" / "__init__.py").is_file():
    raise ProgramMissing(f"no asyncmetro package under {SRC}")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import asyncmetro as am  # noqa: E402
from asyncmetro.netsim import replay_trace, write_trace  # noqa: E402

if Path(am.__file__).resolve().parent != SRC / "asyncmetro":
    raise ProgramMissing(f"asyncmetro imported from {am.__file__}, not from {SRC}")

SIZES = ("full", "small")


@dataclass
class Cell:
    """One model instance with its initial configuration and horizon."""

    name: str
    model: am.SpinModel
    y0: np.ndarray
    T: float


@dataclass
class SimRun:
    """One simulator execution made by an op, plus what the op derived from it."""

    cell: Cell
    policy: str
    schedule: am.UpdateSchedule
    result: am.SimulationResult
    oracle_final: np.ndarray | None = None   # set when the op itself ran the oracle
    report: am.ResidenceReport | None = None
    replay: tuple | None = None              # (RunStats, resolutions) read back from the trace


@dataclass
class OpFacts:
    """What the checks of one op found, and its exact counts."""

    problems: list[str] = field(default_factory=list)
    digest: str = ""
    counts: dict = field(default_factory=dict)
    exec_runs: int = 0
    oracle_runs: int = 0


def greedy_coloring(graph: am.Graph, q: int) -> np.ndarray:
    colors = np.full(graph.n, -1, dtype=np.int64)
    for v in range(graph.n):
        used = {int(colors[u]) for u in graph.adj[v] if colors[u] >= 0}
        colors[v] = next(c for c in range(q) if c not in used)
    return colors


def _filter_coloring(v, c, c_new, tau):
    return 0.0 if c_new in tau else 1.0


# ---------------------------------------------------------------------------
# set-up (graphs and models layers)

def setup_scale(size: str) -> list[Cell]:
    n = 2048 if size == "full" else 128
    graph = am.random_regular_graph(n, 4, seed=n)
    return [Cell(f"coloring-4reg-n{n}", am.make_coloring(graph, 16), greedy_coloring(graph, 16), 20.0)]


def setup_stationarity(size: str) -> list[Cell]:
    graph = am.cycle_graph(4)
    T = 200.0 if size == "full" else 20.0
    return [Cell("coloring-c4", am.make_coloring(graph, 3), greedy_coloring(graph, 3), T)]


def setup_coupling(size: str) -> list[Cell]:
    T = 10.0 if size == "full" else 2.0
    reg = am.random_regular_graph(50, 4, seed=404)
    grid = am.grid_graph(10, 10)
    cyc = am.cycle_graph(30)
    custom = am.SpinModel(reg, 8, np.full((reg.n, 8), 1.0 / 8), filter_fn=_filter_coloring)
    return [
        Cell("coloring", am.make_coloring(reg, 8), greedy_coloring(reg, 8), T),
        Cell("hardcore", am.make_hardcore(grid, 0.2), np.zeros(grid.n, dtype=np.int64), T),
        Cell("ising", am.make_ising(cyc, 0.2), np.zeros(cyc.n, dtype=np.int64), T),
        Cell("custom", custom, greedy_coloring(reg, 8), T),
    ]


# ---------------------------------------------------------------------------
# ops

def _simulate(tr, cell, sch, policy, delay_seed, collect_trace=False) -> am.SimulationResult:
    with tr.span("netsim.setup", cell.name):
        sim = am.Simulation(
            cell.model, sch, cell.y0, am.make_scheduler(policy, seed=delay_seed),
            collect_trace=collect_trace,
        )
    with tr.span("netsim.execute", f"{cell.name}.{policy}"):
        return sim.execute()


def op_scale(cells: list[Cell], seeds: tuple[int, int], tr) -> list[SimRun]:
    (cell,) = cells
    with tr.span("schedule.generate", cell.name):
        sch = am.generate(cell.model, cell.T, seeds[0])
    result = _simulate(tr, cell, sch, "adversarial-max", seeds[1])
    with tr.span("instrument.phase2_residence", cell.name):
        report = am.phase2_residence(result, verify=True)
    return [SimRun(cell, "adversarial-max", sch, result, report=report)]


def op_stationarity(cells: list[Cell], seeds: tuple[int, int], tr) -> list[SimRun]:
    (cell,) = cells
    with tr.span("schedule.generate", cell.name):
        sch = am.generate(cell.model, cell.T, seeds[0])
    return [SimRun(cell, "synchronous", sch, _simulate(tr, cell, sch, "synchronous", seeds[1]))]


def op_coupling(cells: list[Cell], seeds: tuple[int, int], tr) -> list[SimRun]:
    runs = []
    for cell in cells:
        with tr.span("schedule.generate", cell.name):
            sch = am.generate(cell.model, cell.T, seeds[0])
        with tr.span("oracle.run_continuous", cell.name):
            expected = am.run_continuous(cell.model, sch, cell.y0).final
        runs.append(SimRun(cell, "synchronous", sch, _simulate(tr, cell, sch, "synchronous", seeds[1]),
                           oracle_final=expected))
        result = _simulate(tr, cell, sch, "uniform", seeds[1], collect_trace=True)
        with tr.span("netsim.trace", cell.name):
            buf = io.StringIO()
            write_trace(result.trace, buf)
            buf.seek(0)
            replay = replay_trace(buf)
        runs.append(SimRun(cell, "uniform", sch, result, oracle_final=expected, replay=replay))
    return runs


# ---------------------------------------------------------------------------
# checks, digest and exact counts (run between ops, outside the timed interval)

def _digest_run(h, run: SimRun) -> None:
    res, st = run.result, run.result.stats
    h.update(f"{run.cell.name} {run.policy}\n".encode())
    h.update(np.ascontiguousarray(res.final, dtype=np.int64).tobytes())
    for arr in (st.residence, st.entry_times, st.termination_times):
        h.update(np.ascontiguousarray(arr, dtype=np.float64).tobytes())
    h.update(repr((st.makespan, st.phase1_end, st.phase1_messages, st.phase1_fragments,
                   st.decision_messages, st.total_bits, st.max_message_bits)).encode())
    lines = []
    for r in res.resolutions:
        trig = "self" if r.trigger is None else f"{r.trigger.node}:{r.trigger.index}"
        lines.append(f"{r.node} {r.index} {int(r.accepted)} {r.vtime!r} {trig}")
    h.update("\n".join(lines).encode())


def check_op(runs: list[SimRun], tr) -> OpFacts:
    """Verify every run of one op; a failed check is recorded, never raised."""
    facts = OpFacts()
    h = hashlib.sha256()
    schedules: dict[int, am.UpdateSchedule] = {}
    counts = dict(updates=0, messages=0, bits=0, resolutions=0, triggered=0,
                  makespan_vt=0.0, max_residence_vt=0.0, max_chain_length=0, trace_events=0)
    for run in runs:
        cell, sch, res, st = run.cell, run.schedule, run.result, run.result.stats
        where = f"{cell.name}/{run.policy}"
        schedules[id(sch)] = sch
        expected = run.oracle_final
        if expected is None:
            with tr.span("oracle.run_continuous", cell.name):
                expected = am.run_continuous(cell.model, sch, cell.y0).final
        if not np.array_equal(res.final, expected):
            bad = int(np.flatnonzero(np.asarray(res.final) != np.asarray(expected))[0])
            facts.problems.append(f"{where}: final differs from run_continuous at node {bad}")
        g = cell.model.graph
        if st.phase1_messages != 2 * g.num_edges:
            facts.problems.append(f"{where}: phase1_messages {st.phase1_messages} != 2|E| = {2 * g.num_edges}")
        n_dec = sum(g.degree(v) * len(sch.times[v]) for v in range(g.n))
        if st.decision_messages != n_dec:
            facts.problems.append(f"{where}: decision_messages {st.decision_messages} != sum deg*m = {n_dec}")
        if run.report is not None:
            counts["max_residence_vt"] = max(counts["max_residence_vt"], run.report.max_residence)
            counts["max_chain_length"] = max(counts["max_chain_length"], run.report.max_chain_length)
        if run.replay is not None:
            stats, resolutions = run.replay
            if not stats.same_as(st):
                facts.problems.append(f"{where}: replayed trace stats differ from the live stats")
            if resolutions != res.resolutions:
                facts.problems.append(f"{where}: replayed resolutions differ from the live ones")
            counts["trace_events"] += len(res.trace)
        counts["messages"] += st.message_count
        counts["bits"] += st.total_bits
        counts["resolutions"] += len(res.resolutions)
        counts["triggered"] += sum(1 for r in res.resolutions if r.trigger is not None)
        counts["makespan_vt"] = max(counts["makespan_vt"], st.makespan)
        _digest_run(h, run)
    counts["updates"] = sum(s.total_updates for s in schedules.values())
    facts.counts = counts
    facts.digest = h.hexdigest()
    facts.exec_runs = len(runs)
    facts.oracle_runs = len(schedules)
    return facts


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[str], list[Cell]]
    op: Callable[[list[Cell], tuple[int, int], object], list[SimRun]]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("scale-2048", setup_scale, op_scale),
        Workload("stationarity-batch", setup_stationarity, op_stationarity),
        Workload("coupling-mixed", setup_coupling, op_coupling),
    )
}


def op_seeds(workload_seed: int, k: int) -> tuple[int, int]:
    """(schedule seed, delay seed) of op k, derived from the workload seed."""
    state = np.random.SeedSequence(entropy=(int(workload_seed), int(k))).generate_state(2)
    return int(state[0]), int(state[1])
