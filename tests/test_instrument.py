"""Dependency-chain reconstruction and Phase-II residence bounds."""

import io

import numpy as np
import pytest

from asyncmetro import (
    Graph,
    SimulationInvariantError,
    SynchronousScheduler,
    UpdateId,
    chain_lengths,
    chain_of,
    cycle_graph,
    empty_graph,
    generate,
    greedy_coloring,
    make_coloring,
    make_hardcore,
    make_scheduler,
    path_graph,
    phase2_residence,
    record_trigger,
    run,
)
from asyncmetro import instrument
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


class TestRecordTrigger:
    def test_isolated_vertices_all_self_triggered(self):
        m = make_coloring(empty_graph(3), 4)
        s = generate(m, 8.0, 2)
        res = run(m, s, [0, 0, 0], SynchronousScheduler())
        records = record_trigger(res)
        assert len(records) == s.total_updates
        assert all(rec.trigger is None for rec in records.values())

    def test_resolution_inside_accept_handler_is_triggered(self):
        # A's accepted proposal lands at B and immediately forces B's reject
        m = make_coloring(path_graph(2), 3)
        s = make_manual(
            1.0, [[0.1], [0.5]], proposals=[[2], [2]], coins=[[0.5], [0.5]], q=3
        )
        res = run(m, s, [0, 1], SynchronousScheduler())
        records = record_trigger(res)
        a1, b1 = records[UpdateId(0, 1)], records[UpdateId(1, 1)]
        assert a1.trigger is None and a1.accepted
        assert b1.trigger == UpdateId(0, 1) and not b1.accepted

    def test_globally_earliest_update_is_self_triggered(self):
        # A's sole update precedes everything B does; it resolves from the
        # initial values alone, at Phase-II entry
        m, s, y0 = alternating_fixture()
        res = run(m, s, y0, make_scheduler("adversarial-max"))
        records = record_trigger(res)
        assert records[UpdateId(0, 1)].trigger is None

    def test_every_trigger_precedes_its_update(self):
        rng = np.random.default_rng(11)
        for _ in range(6):
            n = int(rng.integers(3, 9))
            edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
            m = make_coloring(Graph(n, edges), 3)
            s = generate(m, 5.0, int(rng.integers(10**6)))
            res = run(m, s, rng.integers(0, 3, n), make_scheduler("uniform", seed=1))
            records = record_trigger(res)  # raises if any trigger is not earlier
            for rec in records.values():
                if rec.trigger is not None:
                    tu, ti = rec.trigger
                    vu, vi = rec.update
                    key_t = (float(s.times[tu][ti - 1]), tu)
                    key_v = (float(s.times[vu][vi - 1]), vu)
                    assert key_t < key_v

    def test_missing_update_detected(self):
        m, s, y0 = alternating_fixture()
        res = run(m, s, y0, SynchronousScheduler())
        res.resolutions.pop()
        with pytest.raises(SimulationInvariantError, match="missing"):
            record_trigger(res)

    def test_duplicate_resolution_detected(self):
        m, s, y0 = alternating_fixture()
        res = run(m, s, y0, SynchronousScheduler())
        res.resolutions.append(res.resolutions[0])
        with pytest.raises(SimulationInvariantError, match="twice"):
            record_trigger(res)


class TestChainOf:
    def test_first_update_self_triggered_is_base_case(self):
        records = {UpdateId(0, 1): instrument.DependencyRecord(UpdateId(0, 1), None, 0.0, True)}
        assert chain_of(records, UpdateId(0, 1)) == [UpdateId(0, 1)]

    def test_self_triggered_chain_walks_own_updates(self):
        m = make_coloring(empty_graph(1), 4)
        s = generate(m, 6.0, 4)
        assert s.counts[0] >= 2
        res = run(m, s, [0], SynchronousScheduler())
        records = record_trigger(res)
        chain = chain_of(records, UpdateId(0, 2))
        assert chain == [UpdateId(0, 1), UpdateId(0, 2)]

    def test_alternating_chain_matches_hand_trace(self):
        m, s, y0 = alternating_fixture()
        res = run(m, s, y0, make_scheduler("adversarial-max"))
        assert res.final.tolist() == [0, 1]  # every proposal rejected
        records = record_trigger(res)
        chain = chain_of(records, UpdateId(1, 2), schedule=s)
        assert chain == [UpdateId(0, 1), UpdateId(1, 1), UpdateId(0, 2), UpdateId(1, 2)]
        lengths = chain_lengths(records)
        assert lengths[UpdateId(1, 2)] == 4
        assert lengths[UpdateId(0, 2)] == 3

    def test_unknown_target_rejected(self):
        with pytest.raises(KeyError):
            chain_of({}, UpdateId(0, 1))


class TestPhase2Residence:
    def test_no_updates_means_zero_residence(self):
        m = make_coloring(cycle_graph(4), 3)
        s = generate(m, 0.0, 1)
        res = run(m, s, [0, 1, 0, 1], SynchronousScheduler())
        report = phase2_residence(res)
        assert np.all(report.residence == 0.0)
        assert np.all(report.chain_length == 0)
        assert report.bound_holds()

    def test_isolated_nodes_under_synchronous_scheduler(self):
        m = make_coloring(empty_graph(4), 3)
        s = generate(m, 6.0, 9)
        res = run(m, s, [0] * 4, SynchronousScheduler())
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


class TestCsv:
    def test_row_fields_and_header(self):
        m, s, y0 = alternating_fixture()
        res = run(m, s, y0, SynchronousScheduler())
        report = phase2_residence(res)
        row = instrument.run_csv_row(7, "synchronous", m, 1.0, res, report)
        assert set(row) == set(instrument.CSV_FIELDS)
        buf = io.StringIO()
        instrument.write_csv([row], buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == ",".join(instrument.CSV_FIELDS)
        assert len(lines) == 2
