"""Dependency-chain reconstruction and Phase-II residence bounds."""

import numpy as np
import pytest

from asyncmetro import (
    FixedDelayScheduler,
    Graph,
    Resolution,
    SimulationInvariantError,
    UpdateId,
    chain_lengths,
    cycle_graph,
    empty_graph,
    generate,
    greedy_coloring,
    make_coloring,
    make_hardcore,
    make_ising,
    make_scheduler,
    path_graph,
    phase2_residence,
    run,
)
from tests.test_schedule import make_manual


def alternating_fixture():
    """Two-node path, q=2 coloring, where every resolution after the first is
    triggered by the other node's previous update.

    Hand trace (all delays 1): both nodes enter Phase II at vtime 3 (each
    ships 2 updates + the initial value in 3 serialized fragments). A's first
    update (t=0.1, proposal 1) rejects against B's pinned initial color at
    entry; each later update resolves exactly when the neighbor's previous
    rejection lands, one time unit apart.
    """
    m = make_coloring(path_graph(2), 2)
    s = make_manual(
        1.0,
        [[0.1, 0.5], [0.3, 0.7]],
        proposals=[[1, 1], [0, 0]],
        coins=[[0.5, 0.5], [0.5, 0.5]],
        q=2,
    )
    return m, s, [0, 1]


def records_of(res):
    """Resolution record of every update, keyed by update, after the checks of chain_lengths."""
    chain_lengths(res)
    return {UpdateId(r.node, r.index): r for r in res.resolutions}


def walk_chain(records, target, schedule):
    """Dependency chain ending at target, walked back from it: to the trigger,
    else to the node's previous update, down to a self-triggered first update.
    Asserts that the chain strictly increases in (time, node) order."""
    chain = [target]
    rec = records[target]
    while rec.trigger is not None or rec.index > 1:
        assert len(chain) <= len(records), f"dependency chain at {target} has a cycle"
        chain.append(UpdateId(*rec.trigger) if rec.trigger is not None else UpdateId(rec.node, rec.index - 1))
        rec = records[chain[-1]]
    chain.reverse()
    keys = [(float(schedule.times[v][i - 1]), v) for v, i in chain]
    assert all(a < b for a, b in zip(keys, keys[1:])), chain
    return chain


class TestRecordTrigger:
    def test_isolated_vertices_all_self_triggered(self):
        m = make_coloring(empty_graph(3), 4)
        s = generate(m, 8.0, 2)
        res = run(m, s, [0, 0, 0], FixedDelayScheduler())
        records = records_of(res)
        assert len(records) == s.total_updates
        assert all(rec.trigger is None for rec in records.values())

    def test_resolution_inside_accept_handler_is_triggered(self):
        # A's accepted proposal lands at B and immediately forces B's reject
        m = make_coloring(path_graph(2), 3)
        s = make_manual(
            1.0, [[0.1], [0.5]], proposals=[[2], [2]], coins=[[0.5], [0.5]], q=3
        )
        res = run(m, s, [0, 1], FixedDelayScheduler())
        records = records_of(res)
        a1, b1 = records[UpdateId(0, 1)], records[UpdateId(1, 1)]
        assert a1.trigger is None and a1.accepted
        assert b1.trigger == UpdateId(0, 1) and not b1.accepted

    def test_globally_earliest_update_is_self_triggered(self):
        # A's sole update precedes everything B does; it resolves from the
        # initial values alone, at Phase-II entry
        m, s, y0 = alternating_fixture()
        res = run(m, s, y0, make_scheduler("adversarial-max"))
        records = records_of(res)
        assert records[UpdateId(0, 1)].trigger is None

    def test_every_trigger_precedes_its_update(self):
        rng = np.random.default_rng(11)
        for _ in range(6):
            n = int(rng.integers(3, 9))
            edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
            m = make_coloring(Graph(n, edges), 3)
            s = generate(m, 5.0, int(rng.integers(10**6)))
            res = run(m, s, rng.integers(0, 3, n), make_scheduler("uniform", seed=1))
            records = records_of(res)  # raises if any trigger is not earlier
            for rec in records.values():
                if rec.trigger is not None:
                    tu, ti = rec.trigger
                    vu, vi = rec.node, rec.index
                    key_t = (float(s.times[tu][ti - 1]), tu)
                    key_v = (float(s.times[vu][vi - 1]), vu)
                    assert key_t < key_v

    def test_missing_update_detected(self):
        m, s, y0 = alternating_fixture()
        res = run(m, s, y0, FixedDelayScheduler())
        res.resolutions.pop()
        with pytest.raises(SimulationInvariantError, match="missing"):
            records_of(res)

    def test_duplicate_resolution_detected(self):
        m, s, y0 = alternating_fixture()
        res = run(m, s, y0, FixedDelayScheduler())
        res.resolutions.append(res.resolutions[0])
        with pytest.raises(SimulationInvariantError, match="twice"):
            records_of(res)


def _reference_lengths(res):
    """len(walk_chain(...)) of every update, in (node, index) order."""
    records = records_of(res)
    s = res.schedule
    return [len(walk_chain(records, UpdateId(v, i), s))
            for v in range(s.n) for i in range(1, s.counts[v] + 1)]


class TestChainLengths:
    @staticmethod
    def _random_case(rng, k, grid=None):
        n = int(rng.integers(0, 9))
        g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5])
        m = (make_coloring(g, int(rng.integers(2, 5))), make_hardcore(g, 1.2),
             make_ising(g, float(rng.normal())))[k % 3]
        if grid is None:
            s = generate(m, float(rng.random() * 4), int(rng.integers(10**6)))
        else:
            # exact ties between nodes, and some nodes with no update at all
            times = [grid[rng.random(len(grid)) < 0.5] for _ in range(n)]
            s = make_manual(2.0, times, q=m.q,
                            proposals=[rng.integers(0, m.q, len(t)) for t in times],
                            coins=[rng.random(len(t)) for t in times])
        table = {(u, v): float(1.0 - rng.random()) for u in range(n) for v in g.adj[u]}
        schedulers = (FixedDelayScheduler(), make_scheduler("uniform", seed=k),
                      FixedDelayScheduler(default=0.5, table=table))
        return m, s, rng.integers(0, m.q, n), schedulers

    def test_matches_chain_of_on_random_runs(self):
        rng = np.random.default_rng(41)
        grid = np.array([0.25, 0.5, 0.75, 1.0, 1.5])
        seen_empty_node = seen_empty_graph = False
        for k in range(60):
            m, s, y0, schedulers = self._random_case(rng, k, grid if k % 2 else None)
            seen_empty_graph |= s.n == 0
            seen_empty_node |= 0 in s.counts
            for scheduler in schedulers:
                res = run(m, s, y0, scheduler)
                lengths = chain_lengths(res)
                assert lengths.dtype == np.int64
                assert lengths.tolist() == _reference_lengths(res), (k, m.kind)
        assert seen_empty_graph and seen_empty_node

    def test_trigger_moved_after_its_dependent_raises(self):
        m, s, y0 = alternating_fixture()
        res = run(m, s, y0, make_scheduler("adversarial-max"))
        uids = [(r.node, r.index) for r in res.resolutions]
        dependent = next(k for k, r in enumerate(res.resolutions) if r.trigger is not None)
        trigger = uids.index(tuple(res.resolutions[dependent].trigger))
        res.resolutions.insert(dependent, res.resolutions.pop(trigger))
        with pytest.raises(SimulationInvariantError, match="causal order"):
            chain_lengths(res)

    @pytest.mark.parametrize("times", [[[0.2], [0.6]], [[0.5], [0.5]]], ids=["earlier-time", "tie"])
    def test_trigger_not_preceding_its_update_raises(self, times):
        # two isolated nodes, list reversed: node 1's record first. Editing
        # node 0's record to name node 1's update as trigger keeps causal list
        # order, but node 1's update comes later in (time, node, index) order
        # (on a time tie through the node id alone)
        m = make_coloring(empty_graph(2), 3)
        res = run(m, make_manual(1.0, times, q=3), [0, 0], FixedDelayScheduler())
        res.resolutions.reverse()
        chain_lengths(res)
        res.resolutions[1] = res.resolutions[1]._replace(trigger=UpdateId(1, 1))
        with pytest.raises(SimulationInvariantError, match="does not precede"):
            chain_lengths(res)

    def test_unscheduled_update_raises(self):
        m, s, y0 = alternating_fixture()
        res = run(m, s, y0, FixedDelayScheduler())
        res.resolutions.append(res.resolutions[0]._replace(index=3))
        with pytest.raises(SimulationInvariantError, match="unscheduled"):
            chain_lengths(res)


class TestChainOf:
    def test_first_update_self_triggered_is_base_case(self):
        records = {UpdateId(0, 1): Resolution(0, 1, True, 0.0, None)}
        assert walk_chain(records, UpdateId(0, 1), make_manual(1.0, [[0.5]])) == [UpdateId(0, 1)]

    def test_self_triggered_chain_walks_own_updates(self):
        m = make_coloring(empty_graph(1), 4)
        s = generate(m, 6.0, 4)
        assert s.counts[0] >= 2
        res = run(m, s, [0], FixedDelayScheduler())
        records = records_of(res)
        chain = walk_chain(records, UpdateId(0, 2), s)
        assert chain == [UpdateId(0, 1), UpdateId(0, 2)]

    def test_alternating_chain_matches_hand_trace(self):
        m, s, y0 = alternating_fixture()
        res = run(m, s, y0, make_scheduler("adversarial-max"))
        assert res.final.tolist() == [0, 1]  # every proposal rejected
        records = records_of(res)
        chain = walk_chain(records, UpdateId(1, 2), s)
        assert chain == [UpdateId(0, 1), UpdateId(1, 1), UpdateId(0, 2), UpdateId(1, 2)]
        lengths = chain_lengths(res)  # (node, index) order: (0,1) (0,2) (1,1) (1,2)
        assert lengths[3] == 4
        assert lengths[1] == 3


class TestPhase2Residence:
    def test_no_updates_means_zero_residence(self):
        m = make_coloring(cycle_graph(4), 3)
        s = generate(m, 0.0, 1)
        res = run(m, s, [0, 1, 0, 1], FixedDelayScheduler())
        report = phase2_residence(res)
        assert np.all(report.residence == 0.0)
        assert np.all(report.chain_length == 0)
        assert report.bound_holds()

    def test_isolated_nodes_under_synchronous_scheduler(self):
        m = make_coloring(empty_graph(4), 3)
        s = generate(m, 6.0, 9)
        res = run(m, s, [0] * 4, FixedDelayScheduler())
        report = phase2_residence(res)
        assert np.all(report.residence == 0.0)

    def test_adversarial_max_residence_counts_trigger_hops(self):
        # hand-traced fixture: A terminates 2 units after the last entry,
        # B 3 units after; chains are one longer than the hop counts
        m, s, y0 = alternating_fixture()
        res = run(m, s, y0, make_scheduler("adversarial-max"))
        assert res.stats.phase1_end == 3.0
        assert res.stats.makespan == 6.0
        report = phase2_residence(res)
        assert report.residence.tolist() == [2.0, 3.0]
        assert report.chain_length.tolist() == [3, 4]
        assert report.bound_holds()

    def test_bound_verified_across_schedulers(self):
        rng = np.random.default_rng(13)
        for _ in range(5):
            n = int(rng.integers(4, 10))
            edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4]
            m = make_hardcore(Graph(n, edges), 0.8)
            s = generate(m, 6.0, int(rng.integers(10**6)))
            for policy in ("synchronous", "uniform", "adversarial-max"):
                res = run(m, s, np.zeros(n, dtype=int), make_scheduler(policy, seed=3))
                report = phase2_residence(res, verify=True)
                assert report.bound_holds()

    def test_violation_detected(self):
        m, s, y0 = alternating_fixture()
        res = run(m, s, y0, make_scheduler("adversarial-max"))
        res.stats.residence = res.stats.residence + 100.0
        with pytest.raises(SimulationInvariantError, match="exceeds chain length"):
            phase2_residence(res, verify=True)


class TestResidenceTailDecay:
    def test_exceedance_decays_geometrically(self):
        # coloring at q = 4*max_degree satisfies the Lipschitz condition with
        # constant 1/2; the exceedance histogram of max_v R_v must fall at
        # least geometrically past the bulk and carry no mass at the
        # 2e(1+2C)T analytic scale
        import math

        from asyncmetro import lipschitz_bound, random_regular_graph

        n, d, T = 64, 4, 2.0
        g = random_regular_graph(n, d, seed=64)
        m = make_coloring(g, 4 * d)
        y0 = greedy_coloring(g, m.q)
        maxima = []
        for seed in range(1, 401):
            s = generate(m, T, seed)
            res = run(m, s, y0, make_scheduler("adversarial-max"))
            maxima.append(phase2_residence(res).max_residence)
        maxima = np.asarray(maxima)
        c_lip = lipschitz_bound(m)
        ell0 = 2 * math.e * (1 + 2 * c_lip) * T
        assert np.mean(maxima >= ell0) == 0.0
        exceed = [float(np.mean(maxima >= ell)) for ell in range(3, int(maxima.max()) + 1)]
        ratios = [b / a for a, b in zip(exceed, exceed[1:]) if a > 0]
        assert len(ratios) >= 1
        assert all(r <= 0.6 for r in ratios)
