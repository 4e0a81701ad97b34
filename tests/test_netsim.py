"""Protocol simulation: possible states, thresholds, coupling, accounting."""

import contextlib
import gc
import hashlib
import inspect
import io
import itertools
import math
import re
import sys
from functools import partial

import numpy as np
import pytest

import asyncmetro.netsim as netsim
from asyncmetro import (
    FixedDelayScheduler,
    Graph,
    Scheduler,
    Simulation,
    SimulationInvariantError,
    SpinModel,
    cycle_graph,
    empty_graph,
    filter_range,
    generate,
    greedy_coloring,
    make_coloring,
    make_hardcore,
    make_ising,
    make_scheduler,
    path_graph,
    phase2_residence,
    random_regular_graph,
    run,
    run_continuous,
    thresholds,
)
from asyncmetro.models import capped_product
from asyncmetro.netsim import phase1_init_bits, phase1_update_bits, replay_trace, write_trace
from tests.test_schedule import make_manual


def possible_states(s, u, v, i, j_u, hist_u):
    """Reference set of states neighbor u may hold at node v's update i, given
    hist_u, u's j_u known states (index 0 is the initial value), built from the
    definition: u's updates before (v, i) are those with (t, u) < (t_v, v)."""
    t_v = float(s.times[v][i - 1])
    idx = sum((t, u) < (t_v, v) for t in s.times[u].tolist())
    if idx < j_u:
        return frozenset({hist_u[idx]})
    return frozenset([hist_u[-1], *s.proposals[u].tolist()[j_u - 1 : idx]])


class TestPossibleStates:
    # neighbor u = 0 with updates at 0.2 and 0.4 (proposals 5, 7); node 1 queries
    # at its updates 0.1, 0.5 and 0.6
    SCHED = make_manual(1.0, [[0.2, 0.4], [0.1, 0.5, 0.6]], proposals=[[5, 7], [0, 0, 0]], q=8)

    def test_no_updates_before_t_pins_initial_value(self):
        assert possible_states(self.SCHED, 0, 1, 1, 1, [2]) == frozenset({2})

    def test_unresolved_window_collects_proposals(self):
        assert possible_states(self.SCHED, 0, 1, 2, 1, [2]) == frozenset({2, 5, 7})

    def test_fully_resolved_prefix_is_singleton(self):
        # both updates resolved (accept then reject): history 2, 5, 5
        assert possible_states(self.SCHED, 0, 1, 3, 3, [2, 5, 5]) == frozenset({5})

    def test_window_is_time_inclusive(self):
        # node 0 at 0.1, 0.5, 1.0 and node 1 at 0.2, 0.5, 0.9 tie exactly at 0.5;
        # the window includes the tie only from the smaller node id
        s = make_manual(2.0, [[0.1, 0.5, 1.0], [0.2, 0.5, 0.9]], proposals=[[1, 2, 3], [5, 7, 9]], q=10)
        assert possible_states(s, 1, 0, 1, 1, [0]) == frozenset({0})
        assert possible_states(s, 1, 0, 2, 1, [0]) == frozenset({0, 5})  # 1 > 0: tie counts after
        assert possible_states(s, 1, 0, 3, 1, [0]) == frozenset({0, 5, 7, 9})
        assert possible_states(s, 0, 1, 2, 1, [0]) == frozenset({0, 1, 2})  # 0 < 1: tie counts before
        assert possible_states(s, 0, 1, 3, 3, [0, 1, 1]) == frozenset({1})

    def test_repeated_proposals_give_one_set(self):
        # u = 0 proposes 3, 1, 3, 3 before node 1's update; the engine's tuple
        # repeats states, the set does not change
        s = make_manual(1.0, [[0.1, 0.2, 0.3, 0.4], [0.5]], proposals=[[3, 1, 3, 3], [0]], q=4)
        assert possible_states(s, 0, 1, 1, 1, [1]) == frozenset({1, 3})
        assert possible_states(s, 0, 1, 1, 2, [1, 1]) == frozenset({1, 3})
        assert possible_states(s, 0, 1, 1, 3, [1, 1, 1]) == frozenset({1, 3})
        assert possible_states(s, 0, 1, 1, 4, [1, 1, 1, 3]) == frozenset({3})


class TestThresholds:
    @pytest.fixture
    def coloring5(self):
        return make_coloring(path_graph(3), 5)

    def test_both_branches_possible_is_unresolved(self, coloring5):
        # enumerating {1,3} x {2}: one config accepts, one rejects
        assert thresholds(coloring5, 1, 0, 3, [{1, 3}, {2}]) == (0.0, 1.0)

    def test_proposal_outside_all_sets_forces_accept(self, coloring5):
        assert thresholds(coloring5, 1, 0, 4, [{1, 3}, {2}]) == (1.0, 1.0)

    def test_singleton_match_forces_reject(self, coloring5):
        assert thresholds(coloring5, 0, 0, 2, [{2}]) == (0.0, 0.0)

    def test_filter_only_returns_filter_values_unrounded(self):
        # (min f, max f) as the filter gives them: a bound formed as
        # 1 - (1 - 0.3) would read 0.30000000000000004
        m = SpinModel(path_graph(2), 2, np.full((2, 2), 0.5), filter_fn=lambda v, c, cn, tau: 0.3)
        assert thresholds(m, 0, 0, 1, [{0, 1}]) == (0.3, 0.3)

    @pytest.mark.parametrize("bad", [float("nan"), -0.5], ids=["nan", "negative"])
    def test_bad_edge_factor_rejected(self, bad):
        m = SpinModel(path_graph(2), 2, np.full((2, 2), 0.5),
                      edge_factor_fn=lambda v, u, c, cn, b: bad if b == 1 else 0.5)
        with pytest.raises(ValueError, match=r"g\(v=0, u=1, c=0, c'=1, b=1\) = (nan|-0.5)"):
            thresholds(m, 0, 0, 1, [{0, 1}])

    def test_empty_set_is_invariant_violation(self, coloring5):
        # an empty set is caller input, a ValueError like every bad argument; the
        # engine's walk, whose sets are never empty, keeps SimulationInvariantError
        with pytest.raises(ValueError, match=r"set \(\) of node 0 must be nonempty"):
            thresholds(coloring5, 0, 0, 2, [set()])

    @pytest.mark.parametrize("args, match", [
        ((0, 7, 9, [{1}, {2}]), r"states must lie in 0\.\.4, got c=7, c'=9"),
        ((0, 0, 9, [{1}, {2}]), r"got c=0, c'=9"),
        ((9, 0, 1, [{1}, {2}]), r"node 9 out of range 0\.\.3"),
        ((-1, 0, 1, [{1}, {2}]), r"node -1 out of range"),
        ((0, 0, 1, [{1}]), r"need 2 neighbor states for node 0, got 1"),
        ((0, 0, 1, [{1}, {2, 5}]), r"set \(2, 5\) of node 0 must be nonempty within 0\.\.4"),
    ], ids=["c-and-c-new", "c-new", "node-past-n", "negative-node", "set-count", "state-out-of-range"])
    @pytest.mark.parametrize("form", ["edge-factor", "filter-only"])
    @pytest.mark.parametrize("fn", [thresholds, filter_range], ids=["thresholds", "filter_range"])
    def test_bad_arguments_raise_value_error(self, fn, form, args, match):
        # one check for every route: c = 7, c' = 9 at q = 5 gave (1.0, 1.0), node 9 an IndexError
        m = make_coloring(cycle_graph(4), 5)
        if form == "filter-only":
            m = SpinModel(m.graph, 5, m.proposals, filter_fn=lambda v, c, cn, tau: float(cn not in tau))
        with pytest.raises(ValueError, match=match):
            fn(m, *args)

    def test_fast_path_equals_bruteforce(self):
        rng = np.random.default_rng(42)
        graph = Graph(5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2)])
        models = [
            make_coloring(graph, 6),
            make_hardcore(graph, 1.3),
            make_ising(graph, 0.45),
            _soft_model(graph),
        ]
        for _ in range(400):
            m = models[int(rng.integers(4))]
            v = int(rng.integers(m.n))
            d = m.graph.degree(v)
            c, cn = int(rng.integers(m.q)), int(rng.integers(m.q))
            sets = [
                set(int(x) for x in rng.choice(m.q, size=int(rng.integers(1, m.q + 1)), replace=False))
                for _ in range(d)
            ]
            lo, hi = thresholds(m, v, c, cn, sets)
            assert (lo, hi) == filter_range(m, v, c, cn, sets)  # bit for bit, as paranoid demands
            assert 0.0 <= lo <= hi <= 1.0

    def test_singletons_make_thresholds_complementary(self):
        rng = np.random.default_rng(3)
        m = make_ising(cycle_graph(4), 0.6)
        for _ in range(100):
            sets = [{int(rng.integers(2))} for _ in range(2)]
            lo, hi = thresholds(m, 0, int(rng.integers(2)), int(rng.integers(2)), sets)
            assert lo == hi


class TestProductCap:
    # at the hub, two factors of 1e200 overflow to inf and inf * 0 is NaN; every
    # route caps each running product at models._PRODUCT_CAP, so f stays 0
    @staticmethod
    def _model():
        def factor(v, u, c, cn, b):
            return 1e200 if b == 0 else 0.0 if b == 2 else 0.5

        return SpinModel(Graph(4, [(0, 1), (0, 2), (0, 3)]), 3, np.full((4, 3), 1.0 / 3), edge_factor_fn=factor)

    def test_every_route_gives_zero(self):
        m = self._model()
        assert m.filter_value(0, 1, 1, (0, 0, 2)) == 0.0
        sets = [{0}, {0}, {2}]
        assert thresholds(m, 0, 1, 1, sets) == filter_range(m, 0, 1, 1, sets) == (0.0, 0.0)

    @pytest.mark.parametrize("policy", ["synchronous", "uniform"])
    def test_coupling_through_the_cap(self, policy):
        m = self._model()
        y0 = [1, 0, 0, 2]  # the hub starts at the capped product
        for seed in range(300):
            s = generate(m, 3.0, seed)
            res = run(m, s, y0, make_scheduler(policy, seed=seed), paranoid=True)
            assert np.array_equal(res.final, run_continuous(m, s, y0).final), seed


def _coupling_case(rng):
    n = int(rng.integers(2, 10))
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
    g = Graph(n, edges)
    pick = int(rng.integers(3))
    if pick == 0:
        m = make_coloring(g, int(rng.integers(2, 6)))
        y0 = rng.integers(0, m.q, n)
    elif pick == 1:
        m = make_hardcore(g, float(rng.random() * 2))
        y0 = np.zeros(n, dtype=int)
    else:
        m = make_ising(g, float(rng.normal() * 0.7))
        y0 = rng.integers(0, 2, n)
    s = generate(m, float(rng.random() * 6), int(rng.integers(10**6)))
    return m, s, y0


class TestRun:
    def test_empty_schedule_returns_initial(self):
        m = make_coloring(cycle_graph(4), 3)
        s = generate(m, 0.0, 1)
        res = run(m, s, [0, 1, 0, 1], FixedDelayScheduler())
        assert res.final.tolist() == [0, 1, 0, 1]
        assert res.stats.makespan == res.stats.phase1_end

    def test_isolated_vertices_resolve_at_entry(self):
        m = make_coloring(empty_graph(3), 4)
        s = generate(m, 10.0, 5)
        res = run(m, s, [0, 0, 0], FixedDelayScheduler())
        assert np.array_equal(res.final, run_continuous(m, s, [0, 0, 0]).final)
        assert res.stats.makespan == 0.0
        assert np.all(res.stats.residence == 0.0)

    def test_single_edge_forced_rejection(self):
        m = make_coloring(path_graph(2), 2)
        s = make_manual(1.0, [[0.5], []], proposals=[[1], []], coins=[[0.9], []], q=2)
        res = run(m, s, [0, 1], FixedDelayScheduler())
        assert res.final.tolist() == [0, 1]

    def test_matches_oracle_on_random_instances(self):
        rng = np.random.default_rng(2024)
        for _ in range(24):
            m, s, y0 = _coupling_case(rng)
            expected = run_continuous(m, s, y0).final
            for policy in ("synchronous", "uniform", "adversarial-max"):
                res = run(m, s, y0, make_scheduler(policy, seed=7), paranoid=True)
                assert np.array_equal(res.final, expected), (m.kind, policy)

    def test_output_independent_of_scheduler(self):
        rng = np.random.default_rng(99)
        for _ in range(8):
            m, s, y0 = _coupling_case(rng)
            outs = [
                run(m, s, y0, make_scheduler(policy, seed=k)).final
                for k, policy in enumerate(("synchronous", "uniform", "uniform", "adversarial-max"))
            ]
            for o in outs[1:]:
                assert np.array_equal(o, outs[0])

    def test_message_counts_exact(self):
        rng = np.random.default_rng(31)
        for _ in range(6):
            m, s, y0 = _coupling_case(rng)
            res = run(m, s, y0, FixedDelayScheduler())
            g = m.graph
            assert res.stats.phase1_messages == 2 * g.num_edges
            expected_dec = sum(len(s.times[v]) * g.degree(v) for v in range(g.n))
            assert res.stats.decision_messages == expected_dec
            assert res.stats.message_count == 2 * g.num_edges + expected_dec
            assert res.stats.phase1_fragments == sum(
                (len(s.times[u]) + 1) * g.degree(u) for u in range(g.n)
            )

    def test_bit_accounting(self):
        m = make_coloring(cycle_graph(5), 4)
        s = generate(m, 6.0, 12)
        res = run(m, s, [0, 1, 0, 1, 2], FixedDelayScheduler())
        n, T, q = 5, 6.0, 4
        init, upd = phase1_init_bits(n, q), phase1_update_bits(n, T, q)
        expected_phase1 = sum(
            (init + len(s.times[u]) * upd) * m.graph.degree(u) for u in range(n)
        )
        assert res.stats.total_bits == expected_phase1 + res.stats.decision_messages
        assert res.stats.max_message_bits == upd

    @pytest.mark.parametrize("infos, decisions, expected", [
        ([], 0, (0, 0, 0, 0, 0)),
        # info records but no decisions (the T = 0 case): DECISION_BITS counts nowhere
        ([(1, 4, 4), (1, 4, 4), (1, 6, 6)], 0, (3, 3, 0, 14, 6)),
        ([(1, 0, 0)], 0, (1, 1, 0, 0, 0)),
        ([(3, 20, 8), (1, 2, 2)], 5, (2, 4, 5, 22 + 5 * netsim.DECISION_BITS, 8)),
        # with only 0-bit info records a decision is the largest message
        ([(1, 0, 0)], 2, (1, 1, 2, 2 * netsim.DECISION_BITS, netsim.DECISION_BITS)),
    ], ids=["empty", "info-only", "zero-bit-info", "info-and-decisions", "decision-largest"])
    def test_derive_counters_from_records(self, infos, decisions, expected):
        st = netsim.RunStats.derive([0.5, 1.0], [2.0, 1.5], infos, decisions)
        assert (st.phase1_messages, st.phase1_fragments, st.decision_messages,
                st.total_bits, st.max_message_bits) == expected
        assert st.message_count == len(infos) + decisions
        assert (st.makespan, st.phase1_end, st.residence.tolist()) == (2.0, 1.0, [1.0, 0.5])

    def test_mismatched_schedule_rejected(self):
        m = make_coloring(cycle_graph(4), 3)
        other = make_coloring(cycle_graph(5), 3)
        s = generate(other, 1.0, 1)
        with pytest.raises(ValueError):
            run(m, s, [0, 1, 0, 1], FixedDelayScheduler())

    def test_invalid_initial_state_rejected(self):
        m = make_coloring(cycle_graph(4), 3)
        s = generate(m, 1.0, 1)
        with pytest.raises(ValueError):
            run(m, s, [0, 1, 0, 7], FixedDelayScheduler())

    def test_custom_filter_without_edge_factors(self):
        # the filter-only path, the oracle's beta < f over every completion, must also couple exactly
        from asyncmetro import SpinModel

        g = cycle_graph(5)
        q = 3

        def soft_filter(v, c, cn, tau):
            clash = sum(1 for b in tau if b == cn)
            return 1.0 / (1.0 + clash)

        m = SpinModel(g, q, np.full((5, q), 1.0 / q), filter_fn=soft_filter)
        s = generate(m, 5.0, 44)
        y0 = [0, 1, 2, 0, 1]
        expected = run_continuous(m, s, y0).final
        for policy in ("synchronous", "uniform"):
            res = run(m, s, y0, make_scheduler(policy, seed=3))
            assert np.array_equal(res.final, expected)

    def test_nan_edge_factor_raises(self):
        # a NaN factor fails both < and >, so a min/max scan that skipped it
        # would let some of these runs end apart from the oracle, with no error
        def factor(v, u, c, cn, b):
            return float("nan") if b == 2 else (0.3 if b == cn else (1.7 if b == c else 0.9))

        m = SpinModel(cycle_graph(4), 3, np.full((4, 3), 1.0 / 3), edge_factor_fn=factor)
        for seed in range(10):
            s = generate(m, 3.0, seed)
            for policy in ("synchronous", "uniform"):
                with pytest.raises(ValueError, match=r"edge factor g\(.*b=2\) = nan"):
                    run(m, s, [0, 1, 2, 0], make_scheduler(policy, seed=seed))
            # the filter is the capped product, which keeps NaN, so the oracle
            # refuses it too instead of reading it as 1.0
            with pytest.raises(ValueError, match=r"filter f\(.*\) = nan, outside \[0, 1\]"):
                run_continuous(m, s, [0, 1, 2, 0])
        with pytest.raises(ValueError, match="filter returned nan"):
            m.filter_value(1, 0, 1, (0, 2))
        assert math.isnan(capped_product([0.5, float("nan")]))
        assert m.filter_value(1, 0, 1, (0, 1)) == 1.7 * 0.3  # b = c, then b = c'

    @pytest.mark.parametrize("value", [1.5, float("nan")], ids=["above-one", "nan"])
    def test_filter_value_outside_unit_interval_raises(self, value):
        # a filter-only model whose f is out of range everywhere: enumeration,
        # the oracle and a paranoid run all refuse it
        m = SpinModel(cycle_graph(4), 3, np.full((4, 3), 1.0 / 3), filter_fn=lambda v, c, cn, tau: value)
        with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
            thresholds(m, 0, 0, 1, [{0, 1}, {2}])
        with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
            filter_range(m, 0, 0, 1, [{1}, {2}])
        s = generate(m, 3.0, 1)
        with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
            run_continuous(m, s, [0, 1, 2, 0])
        for policy in ("synchronous", "uniform"):
            with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
                run(m, s, [0, 1, 2, 0], make_scheduler(policy, seed=1), paranoid=True)

    def test_filter_range_starts_from_the_first_completion(self):
        # a constant in-range filter gives (f, f) whatever the value
        for value in (0.0, 0.3, 1.0):
            m = SpinModel(cycle_graph(4), 3, np.full((4, 3), 1.0 / 3), filter_fn=lambda v, c, cn, tau: value)
            assert thresholds(m, 0, 0, 1, [{0, 1}, {1, 2}]) == (value, value)


class TestEventLoopInternals:
    def test_decision_during_phase1_is_queued(self):
        # path A(0)-B(1)-C(2): A finishes Phase I early and its decision
        # reaches B while B still waits for C's slow info stream
        m = make_coloring(path_graph(3), 3)
        s = make_manual(1.0, [[0.5], [], []], proposals=[[2], [], []], coins=[[0.1], [], []], q=3)
        delays = {(0, 1): 0.05, (1, 0): 0.05, (1, 2): 1.0, (2, 1): 1.0}
        res = run(m, s, [0, 1, 2], FixedDelayScheduler(table=delays), collect_trace=True)
        assert res.final.tolist() == [2, 1, 2]
        dec_times = [e[0] for e in res.trace if e[1] == "dec" and e[3] == 1]
        enter_b = [e[0] for e in res.trace if e[1] == "enter" and e[3] == 1]
        assert dec_times and enter_b
        assert dec_times[0] < enter_b[0]  # delivered before B entered Phase II
        assert res.stats.phase1_end == 1.0
        assert res.stats.makespan == 1.0

    def test_accept_advances_neighbor_progress_by_one(self):
        m = make_coloring(path_graph(2), 4)
        s = make_manual(1.0, [[0.3], []], proposals=[[2], []], coins=[[0.0], []], q=4)
        sim = Simulation(m, s, [0, 1], FixedDelayScheduler())
        result = sim.execute()
        assert result.final.tolist() == [2, 1]
        # j and known are indexed by neighbor slot; node 0 is node 1's slot 0
        assert sim.nodes[1].j[0] == 2  # exactly one increment
        assert sim.nodes[1].known[0][:2] == [0, 2]

    def test_reject_writes_the_previous_state(self):
        # node 0 proposes node 1's color, which coloring always rejects
        m = make_coloring(path_graph(2), 4)
        s = make_manual(1.0, [[0.3], []], proposals=[[1], []], coins=[[0.0], []], q=4)
        sim = Simulation(m, s, [0, 1], FixedDelayScheduler())
        assert sim.nodes[1].known[0] == [0, 1]  # the proposal, until a decision arrives
        assert sim.execute().final.tolist() == [0, 1]
        assert sim.nodes[1].j[0] == 2
        assert sim.nodes[1].known[0][1] == sim.nodes[1].known[0][0] == 0

    def test_out_of_order_decision_detected(self):
        m = make_coloring(path_graph(2), 3)
        s = make_manual(1.0, [[], [0.2, 0.6]], proposals=[[], [1, 2]], coins=[[], [0.0, 0.0]], q=3)
        sim = Simulation(m, s, [0, 1], FixedDelayScheduler())
        node0 = sim.nodes[0]
        sim.enter_phase2(node0, 0.0)
        with pytest.raises(SimulationInvariantError, match="out of order"):
            sim._apply_decision(node0, 0, True, 2, 0.5)  # node 1 is node 0's slot 0

    def test_surplus_decision_detected(self):
        m = make_coloring(path_graph(2), 3)
        s = make_manual(1.0, [[], [0.2]], proposals=[[], [1]], coins=[[], [0.0]], q=3)
        sim = Simulation(m, s, [0, 1], FixedDelayScheduler())
        sim.execute()
        with pytest.raises(SimulationInvariantError, match="surplus"):
            sim._apply_decision(sim.nodes[0], 0, True, 2, 9.0)

    def test_deadlock_diagnostic(self, monkeypatch):
        resolve = Simulation.try_resolve
        m = make_coloring(cycle_graph(3), 5)
        s = generate(m, 3.0, 8)
        monkeypatch.setattr(Simulation, "try_resolve", lambda self, node: None)
        sim = Simulation(m, s, [0, 1, 2], FixedDelayScheduler())
        with pytest.raises(SimulationInvariantError, match="unresolved"):
            sim.execute()
        # only node 0 never resolves; an edge-factor node keeps only its edge
        # ranges, never node.S, yet the dump shows the live sets
        monkeypatch.setattr(Simulation, "try_resolve", lambda self, node: None if node.vid == 0 else resolve(self, node))
        m = make_coloring(cycle_graph(4), 3)
        s = generate(m, 3.0, 5)
        sim = Simulation(m, s, [0, 1, 2, 1], FixedDelayScheduler())
        with pytest.raises(SimulationInvariantError, match="unresolved") as err:
            sim.execute()
        node = sim.nodes[0]
        live = {u: sorted(possible_states(s, u, 0, node.i, j, known[:j]))
                for u, j, known in zip(node.nbrs, node.j, node.known)}
        assert node.S == [None] * len(node.nbrs)
        assert str(err.value).splitlines()[1].endswith(f"possible states {live}")

    def test_forced_resolution_on_full_knowledge(self):
        # once every neighbor set is a singleton min f = max f, so the
        # final pending decision must fire a resolution
        m = make_ising(cycle_graph(4), 0.8)
        s = generate(m, 4.0, 19)
        res = run(m, s, [0, 1, 0, 1], FixedDelayScheduler())
        assert len(res.resolutions) == s.total_updates


def _soft_model(g):
    # a custom edge-factor model whose factors are neither 0/1 nor symmetric
    def factor(v, u, c, cn, b):
        return 0.3 if b == cn else (1.7 if b == c else 0.9)

    return SpinModel(g, 3, np.full((g.n, 3), 1.0 / 3), edge_factor_fn=factor)


def _soft_filter(v, c, cn, tau):
    # a filter-only model: acceptance falls with the neighbors that hold the proposal
    return 1.0 / (1.0 + sum(1 for b in tau if b == cn))


def _with_range(m, wrap):
    """m with wrap(erange, v, u, c, c', S) as its edge_range_fn, where erange is
    the range the engine reads for m: its closed form, else the enumeration."""
    return SpinModel(m.graph, m.q, m.proposals, edge_factor_fn=m.edge_factor_fn,
                     edge_range_fn=partial(wrap, m.edge_range_fn), kind=m.kind, params=m.params)


def _halved(lo, hi):
    return 0.5 * lo, 0.5 * hi


class TestParanoidCheck:
    def test_runs_clean_on_every_edge_factor_model(self):
        # paranoid mode recomputes every engine threshold by enumeration of
        # the live sets and demands bit equality
        rng = np.random.default_rng(5)
        for k in range(16):
            n = int(rng.integers(3, 9))
            g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5])
            m = (make_coloring(g, int(rng.integers(2, 6))), make_hardcore(g, 1.4),
                 make_ising(g, float(rng.normal())), _soft_model(g))[k % 4]
            s = generate(m, 4.0, int(rng.integers(10**6)))
            y0 = rng.integers(0, m.q, n) if m.kind != "hardcore" else np.zeros(n, dtype=int)
            expected = run_continuous(m, s, y0).final
            for policy in ("synchronous", "uniform"):
                res = run(m, s, y0, make_scheduler(policy, seed=k), paranoid=True)
                assert np.array_equal(res.final, expected), (m.kind, policy)

    def test_runs_clean_on_filter_only_models(self):
        # paranoid mode checks every filter-only outcome against the test on
        # enumeration's min f and max f
        rng = np.random.default_rng(6)
        for k in range(8):
            n = int(rng.integers(3, 9))
            g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5])
            m = SpinModel(g, 3, np.full((n, 3), 1.0 / 3), filter_fn=_soft_filter)
            s = generate(m, 4.0, int(rng.integers(10**6)))
            y0 = rng.integers(0, m.q, n)
            expected = run_continuous(m, s, y0).final
            for policy in ("synchronous", "uniform"):
                res = run(m, s, y0, make_scheduler(policy, seed=k), paranoid=True)
                assert np.array_equal(res.final, expected), policy

    def test_detects_wrong_filter_range(self, monkeypatch):
        m = SpinModel(cycle_graph(6), 3, np.full((6, 3), 1.0 / 3), filter_fn=_soft_filter)
        s = generate(m, 3.0, 4)
        y0 = [0, 1, 2, 0, 1, 2]
        run(m, s, y0, FixedDelayScheduler(), paranoid=True)
        right = netsim.filter_range
        monkeypatch.setattr(netsim, "filter_range", lambda *args: tuple(0.5 * x for x in right(*args)))
        run(m, s, y0, FixedDelayScheduler())  # the fault itself raises nothing
        with pytest.raises(SimulationInvariantError, match="resolution mismatch"):
            run(m, s, y0, FixedDelayScheduler(), paranoid=True)

    @pytest.mark.parametrize("make, seed, fault", [
        (lambda: make_ising(cycle_graph(6), 0.5), 4, _halved),
        # the outcome stays a reject, and 1 - max f is 1.0 for every max f
        # below 1e-16, so only the exact (min f, max f) shows this fault
        (lambda: make_ising(path_graph(2), 20.0), 2, lambda lo, hi: (lo, 0.0 if hi < 1e-17 else hi)),
        (lambda: make_hardcore(cycle_graph(6), 1.3), 4, _halved),
        (lambda: make_coloring(cycle_graph(6), 3), 4, _halved),
    ], ids=["halved", "tiny-max-zeroed", "hardcore-halved", "coloring-halved"])
    def test_detects_wrong_edge_range(self, make, seed, fault):
        # the fault enters through the model's range, the route window slots and
        # refreshes take; paranoid enumerates with the factors alone
        m = make()
        s = generate(m, 3.0, seed)
        y0 = [k % 2 for k in range(m.n)]
        run(m, s, y0, FixedDelayScheduler(), paranoid=True)
        faulty = _with_range(m, lambda erange, *args: fault(*erange(*args)))
        run(faulty, s, y0, FixedDelayScheduler())  # the fault itself raises nothing
        with pytest.raises(SimulationInvariantError, match="resolution mismatch"):
            run(faulty, s, y0, FixedDelayScheduler(), paranoid=True)

    def test_repeat_heavy_windows(self):
        # q = 2 and long horizons: most windows hold a state more than once, and
        # every model's range, closed form or enumeration, reads them without
        # deduplication
        repeats = dict.fromkeys(("ising", "hardcore", "custom"), False)

        def spy(kind, erange, v, u, c, c_new, S):
            repeats[kind] |= len(set(S)) < len(S)
            return erange(v, u, c, c_new, S)

        rng = np.random.default_rng(7)
        for k in range(9):
            n = int(rng.integers(3, 8))
            g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.6])
            m = (make_ising(g, float(rng.normal())), make_hardcore(g, 1.4), _soft_model(g))[k % 3]
            s = generate(m, 10.0, int(rng.integers(10**6)))
            y0 = rng.integers(0, m.q, n) if m.kind != "hardcore" else np.zeros(n, dtype=int)
            expected = run_continuous(m, s, y0).final
            spied = _with_range(m, partial(spy, m.kind))
            for policy in ("adversarial-max", "uniform"):
                res = run(spied, s, y0, make_scheduler(policy, seed=k), paranoid=True)
                assert np.array_equal(res.final, expected), (m.kind, policy)
        assert repeats == {"ising": True, "hardcore": True, "custom": True}

    @pytest.mark.parametrize("bad", [float("nan"), -0.5])
    @pytest.mark.parametrize("paranoid", [False, True])
    def test_bad_factor_inside_window_raises(self, bad, paranoid):
        # node 1 proposes 2 twice and rejects both; only node 0's window for
        # node 1 holds state 2, so the oracle never reads the bad factor
        def factor(v, u, c, cn, b):
            return bad if b == 2 else 0.5

        m = SpinModel(path_graph(2), 3, np.full((2, 3), 1.0 / 3), edge_factor_fn=factor)
        s = make_manual(1.0, [[0.5], [0.1, 0.2]], proposals=[[1], [2, 2]], coins=[[0.9], [0.9, 0.9]], q=3)
        assert np.array_equal(run_continuous(m, s, [0, 0]).final, [0, 0])
        with pytest.raises(ValueError, match=r"edge factor g\(v=0, u=1, .*b=2\)"):
            run(m, s, [0, 0], FixedDelayScheduler(), paranoid=paranoid)


class TestKnownStates:
    def test_receiver_view_matches_oracle(self, monkeypatch):
        # at every resolution test, each slot's known states are the neighbor's
        # history as the sequential chain made it, then its own proposals, and the
        # live slice is possible_states of that history: paranoid derives its
        # sets from the known lists, so only the oracle can show a wrong fold
        resolve, history, tests = Simulation.try_resolve, [], []

        def checked(sim, node):
            s, v, i = sim.schedule, node.vid, node.i
            for u, known, j, live in zip(node.nbrs, node.known, node.j, sim._live_sets(node)):
                assert known[:j] == history[u][:j], (v, u, j)
                assert known[j:] == s.proposals[u].tolist()[j - 1 :], (v, u, j)
                assert set(live) == possible_states(s, u, v, i, j, history[u][:j]), (v, u, i, j)
            tests.append(v)
            return resolve(sim, node)

        monkeypatch.setattr(Simulation, "try_resolve", checked)
        rng = np.random.default_rng(15)
        early = 0  # decisions that land while their receiver is in Phase I
        for k in range(100):
            n = int(rng.integers(2, 8))
            g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.6])
            m = (make_coloring(g, int(rng.integers(2, 5))), make_hardcore(g, 1.2), make_ising(g, float(rng.normal())),
                 _soft_model(g), SpinModel(g, 3, np.full((n, 3), 1.0 / 3), filter_fn=_soft_filter))[k % 5]
            y0 = rng.integers(0, m.q, n) if m.kind != "hardcore" else np.zeros(n, dtype=int)
            s = generate(m, float(rng.uniform(1.0, 5.0)), int(rng.integers(10**6)))
            oracle = run_continuous(m, s, y0)
            history[:] = [[int(y)] for y in y0]
            for pos, state in zip(s.order.tolist(), oracle.states):
                history[s.update_at(pos).node].append(state)
            table = {(u, v): float(rng.choice([1e-3, 0.05, 1.0])) for a, b in g.edges() for u, v in ((a, b), (b, a))}
            for sch in (FixedDelayScheduler(), make_scheduler("uniform", seed=k), FixedDelayScheduler(table=table)):
                res = run(m, s, y0, sch, collect_trace=True)
                assert np.array_equal(res.final, oracle.final), (k, m.kind)
                entry = res.stats.entry_times
                early += sum(e[1] == "dec" and e[0] < entry[e[3]] for e in res.trace)
        assert tests and early > 0


class TestFilterOnly:
    """Filter-only models resolve by the oracle's own test, beta < f, over every
    completion of the live sets. 1 - (1 - x) != x for x = 0.1 and 0.3, so a
    bound formed as 1 - (1 - max f) would misplace coins that sit on a filter value."""

    @staticmethod
    def _two_nodes(filter_fn, coin):
        # node 1 proposes 0 at 0.3 and rejects (coin 0.9), so it stays 1; node 0
        # proposes 1 at 0.5 while its set for node 1 is still {0, 1}
        m = SpinModel(path_graph(2), 2, np.full((2, 2), 0.5), filter_fn=filter_fn)
        return m, make_manual(1.0, [[0.5], [0.3]], proposals=[[1], [0]], coins=[[coin], [0.9]], q=2)

    def _assert_couples(self, m, s, y0):
        expected = run_continuous(m, s, y0).final
        for policy in ("synchronous", "uniform"):
            res = run(m, s, y0, make_scheduler(policy, seed=1), paranoid=True)
            assert np.array_equal(res.final, expected), policy

    def test_coin_on_constant_filter_rejects(self):
        # beta = f = 0.3 rejects in the oracle; 1 - (1 - 0.3) > 0.3 left it
        # undecided on every completion, and the event queue drained
        m, s = self._two_nodes(lambda v, c, cn, tau: 0.3, 0.3)
        assert run_continuous(m, s, [0, 1]).final.tolist() == [0, 1]
        self._assert_couples(m, s, [0, 1])

    def test_coin_below_max_filter_does_not_reject_early(self):
        # beta = 1 - (1 - 0.1) < 0.1 = f at the neighbor's true state 1, so the
        # oracle accepts; the rounded bound rejected while the set was {0, 1}
        m, s = self._two_nodes(lambda v, c, cn, tau: 0.1 if tau[0] == 1 else 0.05, 1.0 - (1.0 - 0.1))
        assert run_continuous(m, s, [0, 1]).final.tolist() == [1, 1]
        self._assert_couples(m, s, [0, 1])

    @pytest.mark.parametrize("paranoid", [False, True], ids=["walk", "paranoid"])
    @pytest.mark.parametrize("policy", ["synchronous", "uniform"])
    @pytest.mark.parametrize("value", [1.5, float("nan")], ids=["above-one", "nan"])
    def test_walk_refuses_values_outside_unit_interval(self, value, policy, paranoid):
        # the walk checks each value it reads as the oracle does; unchecked,
        # f = 1.5 ran to the final [0, 2, 1, 1] where the oracle raises
        m = SpinModel(cycle_graph(4), 3, np.full((4, 3), 1.0 / 3), filter_fn=lambda v, c, cn, tau: value)
        s = generate(m, 3.0, 1)
        pattern = rf"UpdateId\(.*\): filter f\(v=.*\) = {value!r}, outside \[0, 1\]"
        with pytest.raises(ValueError, match=pattern):
            run_continuous(m, s, [0, 1, 2, 0])
        with pytest.raises(ValueError, match=pattern):
            run(m, s, [0, 1, 2, 0], make_scheduler(policy, seed=1), paranoid=paranoid)

    def test_walk_stops_at_the_first_disagreement(self):
        # f is 1 while the first neighbor holds 0, else 0: with beta = 0.5 the
        # completions (0, 0) and (0, 1) accept and (1, 0) rejects, so the walk
        # reads three values and leaves the update undecided
        calls = []

        def filt(v, c, cn, tau):
            calls.append(tuple(tau))
            return 1.0 if tau[0] == 0 else 0.0

        m = SpinModel(path_graph(3), 2, np.full((3, 2), 0.5), filter_fn=filt)
        sim = Simulation(m, generate(m, 1.0, 0), [0, 0, 0], FixedDelayScheduler())
        node = sim.nodes[1]
        node.i, node.beta, node.c_new, node.S = 1, 0.5, 1, [(0, 1), (0, 1)]
        assert sim.try_resolve(node) is None
        assert calls == [(0, 0), (0, 1), (1, 0)]

    def test_boundary_coupling_on_tie_grid(self):
        # filter values where 1 - (1 - x) != x, plus 0 and 1; coins on those
        # values and their 1 - (1 - x) images; times on an exact-tie grid
        values = (0.0, 0.1, 0.3, 1.0)
        coin_grid = np.array(sorted({x for v in values[:3] for x in (v, 1.0 - (1.0 - v))}))
        grid = np.array([0.25, 0.5, 0.75, 1.0, 1.5])
        filters = (
            lambda v, c, cn, tau: values[(c + cn + sum(tau)) % 4],
            lambda v, c, cn, tau: values[min(3, sum(b == cn for b in tau))],
        )
        rng = np.random.default_rng(12)
        for k in range(200):
            n = int(rng.integers(2, 7))
            g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5])
            q = int(rng.integers(2, 4))
            m = SpinModel(g, q, np.full((n, q), 1.0 / q), filter_fn=filters[k % 2])
            times = [grid[rng.random(len(grid)) < 0.6] for _ in range(n)]
            s = make_manual(
                2.0, times, q=q,
                proposals=[rng.integers(0, q, len(t)) for t in times],
                coins=[rng.choice(coin_grid, len(t)) for t in times],
            )
            y0 = rng.integers(0, q, n)
            expected = run_continuous(m, s, y0).final
            for policy in ("synchronous", "uniform", "adversarial-max"):
                res = run(m, s, y0, make_scheduler(policy, seed=k), paranoid=True)
                assert np.array_equal(res.final, expected), (k, policy)
                phase2_residence(res, verify=True)


class TestExactTies:
    def test_same_vtime_deliveries(self):
        # delays of 1e-300 vanish against vtimes near 1, so a decision lands at
        # the vtime it was sent, in the bucket being drained; it must still be
        # delivered in (vtime, src, dst, seq) order. The digest pins the trace
        # text that one heap of (vtime, src, dst, seq, ...) entries gives
        g = random_regular_graph(12, 3, seed=5)
        m, y0 = make_coloring(g, 7), greedy_coloring(g, 7)
        scheduler = FixedDelayScheduler(1.0, {(v, u): 1e-300 for v in range(g.n) for u in g.adj[v] if (v + u) % 2})
        h, same = hashlib.sha256(), 0
        for seed in range(20):
            s = generate(m, 6.0, seed)
            res = run(m, s, y0, scheduler, collect_trace=True, paranoid=True)
            assert np.array_equal(res.final, run_continuous(m, s, y0).final), seed
            sent = {(rec[3], rec[4]): rec[0] for rec in res.trace if rec[1] == "resolve"}
            same += sum(rec[1] == "dec" and rec[0] == sent[rec[2], rec[5]] for rec in res.trace)
            buf = io.StringIO()
            write_trace(res.trace, buf)
            h.update(buf.getvalue().encode())
        assert same == 1900
        assert h.hexdigest() == "dd94c4002a2d4605bd51e15e12dabc62a9e6b8ae06101b8cf3760c46a9bbd380"

    def test_coupling_with_shared_time_grid(self):
        # generate() never yields equal times, so hand-built schedules draw
        # every update time from one grid and adjacent nodes tie exactly
        grid = np.array([0.25, 0.5, 0.75, 1.0, 1.5])
        rng = np.random.default_rng(8)
        for k in range(300):
            n = int(rng.integers(2, 8))
            g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5])
            m = (make_coloring(g, int(rng.integers(2, 5))), make_hardcore(g, 1.2),
                 make_ising(g, float(rng.normal())))[k % 3]
            times = [grid[rng.random(len(grid)) < 0.6] for _ in range(n)]
            s = make_manual(
                2.0, times, q=m.q,
                proposals=[rng.integers(0, m.q, len(t)) for t in times],
                coins=[rng.random(len(t)) for t in times],
            )
            y0 = rng.integers(0, m.q, n)
            expected = run_continuous(m, s, y0).final
            for policy in ("synchronous", "uniform", "adversarial-max"):
                res = run(m, s, y0, make_scheduler(policy, seed=k), paranoid=True)
                assert np.array_equal(res.final, expected), (k, m.kind, policy)
                phase2_residence(res, verify=True)


class TestFastPaths:
    @staticmethod
    def _check_window_table(m, s):
        sim = Simulation(m, s, [0] * m.n, FixedDelayScheduler())
        checked = 0
        for v, node in enumerate(sim.nodes):
            for k, u in enumerate(m.graph.adj[v]):
                times_u = s.times[u].tolist()
                assert len(node.win[k]) == len(s.times[v])
                for i, t in enumerate(s.times[v].tolist(), start=1):
                    # the count from the (time, node id) order written out directly
                    want = sum((tu, u) < (t, v) for tu in times_u)
                    assert node.win[k][i - 1] == want, (v, u, i)
                    checked += 1
        return checked

    def test_window_table_matches_tuple_count(self):
        rng = np.random.default_rng(21)
        checked = 0
        for _ in range(20):
            m, s, _ = _coupling_case(rng)
            checked += self._check_window_table(m, s)
        assert checked > 0

    def test_window_table_on_exact_ties(self):
        grid = np.array([0.25, 0.5, 0.75, 1.0, 1.5])
        rng = np.random.default_rng(22)
        checked = 0
        for _ in range(50):
            n = int(rng.integers(2, 8))
            g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5])
            times = [grid[rng.random(len(grid)) < 0.6] for _ in range(n)]
            checked += self._check_window_table(make_coloring(g, 3), make_manual(2.0, times, q=3))
        assert checked > 0


class TestColoringSpecialization:
    def test_threshold_values_are_boolean(self):
        rng = np.random.default_rng(6)
        m = make_coloring(path_graph(3), 4)
        for _ in range(200):
            sets = [
                set(int(x) for x in rng.choice(4, size=int(rng.integers(1, 5)), replace=False))
                for _ in range(2)
            ]
            cn = int(rng.integers(4))
            lo, hi = thresholds(m, 1, 0, cn, sets)
            assert lo in (0.0, 1.0) and hi in (0.0, 1.0)
            union = set().union(*sets)
            assert (lo == 1.0) == (cn not in union)
            assert (hi == 0.0) == any(s == {cn} for s in sets)


class TestDeliveryBounds:
    def test_phase2_deliveries_take_at_most_one_unit(self):
        # the FIFO projection may hold a decision behind the channel's
        # Phase-I fragment tail, but only while the receiver is still in
        # Phase I; every delivery a Phase-II node reacts to is within one unit
        rng = np.random.default_rng(77)
        for _ in range(10):
            m, s, y0 = _coupling_case(rng)
            res = run(m, s, y0, make_scheduler("uniform", seed=5), collect_trace=True)
            # a decision leaves when its update resolves and arrives as the
            # receiver's "dec" event carrying the same update ordinal j
            sent, deliveries = {}, 0
            for vtime, kind, src, dst, *fields in res.trace:
                if kind == "resolve":
                    sent[dst, fields[0]] = vtime
                elif kind == "dec":
                    send = sent[src, fields[1]]
                    deliveries += 1
                    if vtime - send > 1.0 + 1e-12:
                        assert vtime <= res.stats.entry_times[dst] + 1e-12
            assert deliveries == res.stats.decision_messages


class TestTraceReplay:
    def test_replay_reproduces_stats(self):
        m = make_hardcore(cycle_graph(6), 0.9)
        s = generate(m, 5.0, 33)
        res = run(m, s, [0] * 6, make_scheduler("uniform", seed=2), collect_trace=True)
        buf = io.StringIO()
        write_trace(res.trace, buf)
        buf.seek(0)
        stats, resolutions = replay_trace(buf)
        assert stats.same_as(res.stats)
        assert resolutions == res.resolutions

    def test_replay_rejects_garbage(self):
        with pytest.raises(ValueError, match="unknown trace event kind"):
            replay_trace(io.StringIO("0.5 bogus 0 1\n"))

    @pytest.mark.parametrize("lines", [
        ["0.0 enter -1 0", "0.5 enter -1 0"],
        ["0.0 enter -1 0", "0.5 term -1 1"],
        ["0.0 enter -1 0", "0.5 resolve -1 3 i=1 accept=1 trigger=self"],
        ["0.0 enter -1 0", "0.5 term -1 0", "0.6 term -1 0"],
        ["0.0 enter -1 0", "0.5 term -1 0", "0.6 resolve -1 0 i=1 accept=1 trigger=self"],
    ], ids=["second-enter", "term-before-enter", "resolve-never-entered", "second-term", "resolve-after-term"])
    def test_replay_rejects_events_out_of_place(self, lines):
        # every line is well formed; the trace as a whole is not. The last line
        # is the one out of place
        with pytest.raises(ValueError, match=f"trace line {len(lines)}: .* out of place"):
            replay_trace(io.StringIO("\n".join(lines) + "\n"))

    FIELDS = {"enter": 0, "term": 0, "info": 3, "dec": 2, "resolve": 3}

    def test_round_trip_on_random_cases(self):
        # replay of the written text equals the live run, over isolated nodes,
        # n = 0, exact-tie grids, unit delays (vtimes like 3.0) and delays of
        # 1e-05, whose vtimes repr with an exponent (2e-05)
        grid = np.array([0.25, 0.5, 0.75, 1.0, 1.5])
        rng = np.random.default_rng(10)
        exponents = 0
        for k in range(60):
            n = int(rng.integers(0, 8))
            g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4])
            m = (make_coloring(g, 3), make_hardcore(g, 1.1), make_ising(g, 0.6),
                 SpinModel(g, 3, np.full((n, 3), 1.0 / 3), filter_fn=_soft_filter))[k % 4]
            if k % 2:
                times = [grid[rng.random(len(grid)) < 0.6] for _ in range(n)]
                s = make_manual(2.0, times, q=m.q, proposals=[rng.integers(0, m.q, len(t)) for t in times],
                                coins=[rng.random(len(t)) for t in times])
            else:
                s = generate(m, 3.0, k)
            y0 = [0] * n
            for scheduler in (make_scheduler("uniform", seed=k), FixedDelayScheduler(), FixedDelayScheduler(1e-05)):
                res = run(m, s, y0, scheduler, collect_trace=True)
                for rec in res.trace:
                    assert len(rec) == 4 + self.FIELDS[rec[1]], rec
                assert all(a[0] <= b[0] for a, b in zip(res.trace, res.trace[1:]))  # time order
                buf = io.StringIO()
                write_trace(res.trace, buf)
                text = buf.getvalue()
                assert text.count("\n") == len(res.trace)
                exponents += "e-05 " in text
                buf.seek(0)
                stats, resolutions = replay_trace(buf)
                assert stats.same_as(res.stats), (k, scheduler)
                assert resolutions == res.resolutions, (k, scheduler)
        assert exponents > 0

    def test_typed_records(self):
        # path 0-1 with all delays 1: node 1 has no updates, so its one-fragment
        # info lands at 1.0 and node 0 resolves its one update (accept) there;
        # node 0's two-fragment info lands at 2.0, and its decision right behind it
        m = make_coloring(path_graph(2), 3)
        s = make_manual(1.0, [[0.5], []], proposals=[[2], []], coins=[[0.1], []], q=3)
        res = run(m, s, [0, 1], FixedDelayScheduler(), collect_trace=True)
        init, upd = phase1_init_bits(2, 3), phase1_update_bits(2, 1.0, 3)
        assert res.trace == [
            (1.0, "info", 1, 0, 1, init, init), (1.0, "enter", -1, 0),
            (1.0, "resolve", -1, 0, 1, True, None), (1.0, "term", -1, 0),
            (2.0, "info", 0, 1, 2, init + upd, upd), (2.0, "enter", -1, 1), (2.0, "term", -1, 1),
            (2.0, "dec", 0, 1, True, 1),
        ]
        buf = io.StringIO()
        write_trace(res.trace, buf)
        assert buf.getvalue().splitlines()[2:4] == ["1.0 resolve -1 0 i=1 accept=1 trigger=self", "1.0 term -1 0"]

    @pytest.mark.parametrize("bad", [
        "0.5  dec 1 0 accept=1 j=1",
        "0.5 dec 1 0 accept=1\tj=1",
        " 0.5 dec 1 0 accept=1 j=1",
        "nan dec 1 0 accept=1 j=1",
        "-0.5 dec 1 0 accept=1 j=1",
        ".5 dec 1 0 accept=1 j=1",
        "1E-05 dec 1 0 accept=1 j=1",
        "0.5 enter 0 1",
        "0.5 resolve 3 0 i=1 accept=1 trigger=self",
        "0.5 dec -2 0 accept=1 j=1",
        "0.5 dec 1 +0 accept=1 j=1",
    ], ids=["two-spaces", "tab", "leading-space", "vtime-nan", "vtime-negative", "vtime-not-repr",
            "vtime-capital-e", "enter-src-not-minus-1", "resolve-src-not-minus-1", "dec-src-negative",
            "dec-dst-signed"])
    def test_lines_the_fixed_columns_reject(self, bad):
        # each line breaks one rule that a whitespace split with float()/int()
        # let through: single spaces between fields, a vtime as repr writes a
        # finite float >= 0, src -1 on enter/term/resolve, unsigned node ids
        with pytest.raises(ValueError, match="trace line 2: .* lines read"):
            replay_trace(io.StringIO(f"0.0 enter -1 0\n{bad}\n0.0 term -1 0\n"))


class _ShortStreams(Scheduler):
    # every channel's stream ends after one delay, within the Phase-I fragments
    def channels(self, pairs, count):
        return [itertools.repeat(0.5, 1) for _ in pairs]


class _TooFewStreams(Scheduler):
    def channels(self, pairs, count):
        return [itertools.repeat(1.0)] * (len(pairs) - 1)


class TestSchedulers:
    def test_delay_ranges(self):
        pairs = [(0, 1), (1, 0)]
        uniform = make_scheduler("uniform", seed=1).channels(pairs, 1000)
        assert len(uniform) == 2
        for k in range(1000):
            assert 0.0 < next(uniform[k % 2]) <= 1.0
        for sch in (FixedDelayScheduler(), make_scheduler("adversarial-max")):
            assert [next(it) for it in sch.channels(pairs, 4) for _ in range(2)] == [1.0] * 4

    def test_uniform_channels_share_one_block(self):
        # delays are used in send order, whatever the channel: the block is
        # the scalar stream 1 - rng.random()
        its = make_scheduler("uniform", seed=3).channels([(0, 1), (1, 0), (1, 2)], 6)
        got = [next(its[k]) for k in (2, 0, 0, 1, 2, 1)]
        rng = np.random.default_rng(3)
        assert got == [1.0 - float(rng.random()) for _ in range(6)]

    def test_fixed_table(self):
        sch = FixedDelayScheduler(default=0.5, table={(0, 1): 0.25})
        its = sch.channels([(0, 1), (1, 0)], 4)
        assert [next(its[0]), next(its[0])] == [0.25, 0.25]
        assert [next(its[1]), next(its[1])] == [0.5, 0.5]

    def test_table_key_not_a_channel_raises(self):
        # (0, 2) is no edge of the path and node 5 does not exist; the run
        # used to ignore both keys and end as all-default: final [0 2 1], makespan 6.0
        m = make_coloring(path_graph(3), 3)
        sch = FixedDelayScheduler(1.0, {(0, 2): 0.01, (5, 9): 2.0})
        with pytest.raises(ValueError, match=re.escape("delay table key (0, 2) is not a channel")):
            run(m, generate(m, 2.0, 1), [0, 1, 0], sch)

    def test_table_value_checked_by_the_engine(self):
        # every channel carries Phase-I fragments, so a bad value on a real channel is used
        m = make_coloring(path_graph(3), 3)
        with pytest.raises(ValueError, match=re.escape("delay 2.0 outside (0, 1]")):
            run(m, generate(m, 2.0, 1), [0, 1, 0], FixedDelayScheduler(1.0, {(0, 1): 2.0}))

    @pytest.mark.parametrize("lengths, channel", [
        ({(0, 1): 3, (1, 0): 2}, "(1, 0)"),  # ends within node 1's three Phase-I fragments
        ({(0, 1): 2, (1, 0): 5}, "(0, 1)"),  # ends at node 0's decision
    ], ids=["phase1", "decision"])
    def test_stream_that_ends_early(self, lengths, channel):
        # a bare StopIteration named neither the scheduler nor the channel
        class Short(Scheduler):
            def channels(self, pairs, count):
                return [itertools.repeat(0.5, lengths[pair]) for pair in pairs]

        m = make_coloring(path_graph(2), 3)
        s = make_manual(1.0, [[0.5], [0.2, 0.6]], proposals=[[2], [2, 0]], q=3)
        with pytest.raises(ValueError, match=re.escape(f"delay stream of channel {channel} ended before the run's "
                                                       "messages were sent")):
            run(m, s, [0, 1], Short())

    def test_one_stream_per_channel_required(self):
        m = make_coloring(path_graph(3), 3)
        with pytest.raises(ValueError, match="3 delay streams for 4 channels"):
            Simulation(m, generate(m, 1.0, 1), [0, 1, 0], _TooFewStreams())

    def test_unknown_policy(self):
        with pytest.raises(ValueError):
            make_scheduler("chaotic")

    def test_bad_delay_rejected(self):
        m = make_coloring(path_graph(2), 3)
        s = generate(m, 1.0, 1)
        with pytest.raises(ValueError):
            run(m, s, [0, 1], FixedDelayScheduler(default=1.5))

    @pytest.mark.parametrize("bad", [0.0, 1.5])
    def test_bad_decision_delay_rejected(self, bad):
        # every Phase-I fragment gets a valid delay; each channel's first decision gets a bad one
        m = make_coloring(cycle_graph(4), 3)
        s = generate(m, 3.0, 2)
        assert s.total_updates > 0
        drawn = []

        class BadDecisions(Scheduler):
            def channels(self, pairs, count):
                def stream(src):
                    yield from itertools.repeat(0.5, len(s.times[src]) + 1)
                    drawn.append(src)
                    yield bad
                return [stream(src) for src, _ in pairs]

        sim = Simulation(m, s, [0, 1, 0, 1], BadDecisions())
        with pytest.raises(ValueError, match=r"outside \(0, 1\]"):
            sim.execute()
        assert len(drawn) == 1 and sim.resolutions
        # every channel's Phase-I info was queued, m + 1 fragments of 0.5, before the raise
        assert all(nd.out_last == [0.5 * (nd.m + 1)] * len(nd.nbrs) for nd in sim.nodes)

    def test_uniform_draws_one_scalar_per_message(self):
        # the shared block leaves the generator exactly where one scalar draw per
        # message, sum_v deg(v) (2 m_v + 1), would
        m = make_hardcore(Graph(6, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4)]), 0.8)
        s = generate(m, 4.0, 9)
        sch = make_scheduler("uniform", seed=21)
        res = run(m, s, [0] * m.n, sch)
        deg = [len(a) for a in m.graph.adj]
        count = sum(d * (2 * m_v + 1) for d, m_v in zip(deg, s.counts))
        assert count == res.stats.phase1_fragments + res.stats.decision_messages
        ref = np.random.default_rng(21)
        for _ in range(count):
            ref.random()
        assert sch._rng.bit_generator.state == ref.bit_generator.state


@pytest.fixture
def collections():
    """The generations of the cyclic collections that start inside Simulation(...) or
    execute(), found on the stack through gc.callbacks; the collector's state is restored."""
    engine = {inspect.unwrap(f).__code__ for f in (Simulation.__init__, Simulation.execute)}
    inside = []

    def record(phase, info):
        frame = sys._getframe(1)
        while phase == "start" and frame is not None:
            if frame.f_code in engine:
                inside.append(info["generation"])
                break
            frame = frame.f_back

    enabled = gc.isenabled()
    gc.callbacks.append(record)
    try:
        yield inside
    finally:
        gc.callbacks.remove(record)
        (gc.enable if enabled else gc.disable)()


class TestCollectorPause:
    # the engine keeps the cyclic garbage collector out of Simulation(...) and execute()

    def test_no_collection_inside_the_engine(self, collections):
        g = random_regular_graph(256, 4, seed=1)
        m = make_coloring(g, 16)
        s, y0 = generate(m, 10.0, 1), greedy_coloring(g, 16)

        class CollectOnce(Scheduler):  # the record sees a collection that the engine's code starts
            def channels(self, pairs, count):
                def first():
                    gc.collect(0)
                    yield from itertools.repeat(1.0)
                return [first() if k == 0 else itertools.repeat(1.0) for k in range(len(pairs))]

        gc.enable()
        Simulation(m, s, y0, CollectOnce()).execute()
        assert collections == [0]
        collections.clear()
        sim = Simulation(m, s, y0, make_scheduler("uniform", seed=1))
        res = sim.execute()
        assert collections == [] and gc.isenabled()
        # a tuple per message: with the collector on, the gen-0 threshold (700) would be passed often
        assert res.stats.decision_messages > 10 * gc.get_threshold()[0]

    @pytest.mark.parametrize("scheduler, error", [
        (FixedDelayScheduler(), None),
        (FixedDelayScheduler(1.0, {(0, 1): 2.0}), re.escape("delay 2.0 outside (0, 1]")),
        (_ShortStreams(), "ended before the run's messages were sent"),
        (_TooFewStreams(), "3 delay streams for 4 channels"),  # raised by Simulation(...)
    ], ids=["normal", "table-delay-2.0", "stream-ends-early", "too-few-streams"])
    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    def test_caller_state_restored(self, collections, scheduler, error, enabled):
        (gc.enable if enabled else gc.disable)()
        m = make_coloring(path_graph(3), 3)
        with pytest.raises(ValueError, match=error) if error else contextlib.nullcontext():
            run(m, generate(m, 2.0, 1), [0, 1, 0], scheduler)
        assert gc.isenabled() == enabled

    def test_run_leaves_no_cyclic_garbage(self):
        g = cycle_graph(8)
        models = (make_coloring(g, 4), make_hardcore(g, 1.0), make_ising(g, 0.3),
                  SpinModel(g, 3, np.full((8, 3), 1.0 / 3), filter_fn=_soft_filter))
        cells = [(m, generate(m, 4.0, 2), [k % 2 if m.kind != "hardcore" else 0 for k in range(8)])
                 for m in models]
        gc.collect()
        for m, s, y0 in cells:
            res = run(m, s, y0, make_scheduler("uniform", seed=3))
            assert np.array_equal(res.final, run_continuous(m, s, y0).final)
        del res
        assert gc.collect() == 0
