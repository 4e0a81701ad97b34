"""Sequential reference chains: trivial cases, stationarity, tail bounds."""

import hashlib
import itertools
import math

import numpy as np
import pytest

from asyncmetro import (
    SpinModel,
    cycle_graph,
    empty_graph,
    exact_distribution,
    generate,
    generate_steps,
    make_coloring,
    make_hardcore,
    make_ising,
    path_graph,
    run_continuous,
    total_variation,
)
from tests.test_schedule import make_manual


def proper_colorings(graph, q):
    """Brute-force enumeration, independent of the library's weight logic."""
    edges = list(graph.edges())
    return [
        cfg
        for cfg in itertools.product(range(q), repeat=graph.n)
        if all(cfg[u] != cfg[v] for u, v in edges)
    ]


def node_states(s, out):
    """(node, new state) of each update of the run_continuous run out, in s.order."""
    return zip(np.repeat(np.arange(s.n), s.counts)[s.order].tolist(), out.states)


def run_discrete(model, n_steps, seed, x0):
    return run_continuous(model, generate_steps(model, n_steps, seed), x0).final


def discrete_configs(model, n_steps, seed, x0):
    """Yield the configuration after each step of run_discrete(model, n_steps, seed, x0),
    rebuilt from the states of run_continuous on the same schedule; one list, updated in place."""
    s = generate_steps(model, n_steps, seed)
    cur = list(x0)
    for v, state in node_states(s, run_continuous(model, s, x0)):
        cur[v] = state
        yield cur


class TestRunContinuous:
    def test_no_updates_returns_initial(self):
        m = make_coloring(cycle_graph(4), 3)
        s = generate(m, 0.0, 1)
        out = run_continuous(m, s, [0, 1, 0, 1])
        assert out.final.tolist() == [0, 1, 0, 1]
        assert out.states == []

    def test_isolated_vertex_always_accepts(self):
        m = make_coloring(empty_graph(1), 4)
        s = generate(m, 20.0, 3)
        out = run_continuous(m, s, [0])
        assert out.final[0] == s.proposals[0][-1]
        # every update took its proposal
        assert out.states == s.proposals[0].tolist()

    def test_single_edge_forced_rejection(self):
        # q=2 coloring on one edge, proposal collides with the neighbor
        m = make_coloring(path_graph(2), 2)
        s = make_manual(1.0, [[0.5], []], proposals=[[1], []], coins=[[0.9], []], q=2)
        out = run_continuous(m, s, [0, 1])
        assert out.final.tolist() == [0, 1]
        assert out.states == [0]

    def test_determinism(self):
        m = make_ising(cycle_graph(6), 0.3)
        s = generate(m, 8.0, 21)
        a = run_continuous(m, s, [0] * 6)
        b = run_continuous(m, s, [0] * 6)
        assert np.array_equal(a.final, b.final)
        assert a.states == b.states

    def test_single_site_moves_only(self):
        m = make_coloring(cycle_graph(5), 4)
        s = generate(m, 10.0, 9)
        out = run_continuous(m, s, [0, 1, 2, 3, 0])
        cur = [0, 1, 2, 3, 0]
        for v, state in node_states(s, out):
            nxt = list(cur)
            nxt[v] = state
            assert sum(a != b for a, b in zip(cur, nxt)) <= 1
            cur = nxt

    def test_coloring_stays_proper(self):
        g = cycle_graph(6)
        m = make_coloring(g, 4)
        s = generate(m, 15.0, 14)
        y0 = [0, 1, 0, 1, 0, 1]
        out = run_continuous(m, s, y0)
        cur = list(y0)
        for node, state in node_states(s, out):
            cur[node] = state
            assert all(cur[u] != cur[v] for u, v in g.edges())

    def test_shape_mismatch_rejected(self):
        m = make_coloring(cycle_graph(4), 3)
        s = generate(m, 1.0, 1)
        with pytest.raises(ValueError):
            run_continuous(m, s, [0, 1])


class TestRunDiscrete:
    def test_zero_steps(self):
        m = make_coloring(cycle_graph(4), 3)
        out = run_discrete(m, 0, 1, [0, 1, 0, 1])
        assert out.tolist() == [0, 1, 0, 1]

    def test_single_node_uniform_marginal(self):
        m = make_coloring(empty_graph(1), 2)
        visits = [0, 0]
        for cfg in discrete_configs(m, 100_000, 5, [0]):
            visits[cfg[0]] += 1
        frac = visits[0] / sum(visits)
        assert abs(frac - 0.5) < 0.01

    def test_c4_visits_proper_colorings_uniformly(self):
        g = cycle_graph(4)
        q = 3
        m = make_coloring(g, q)
        targets = proper_colorings(g, q)
        assert len(targets) == 18
        counts = {cfg: 0 for cfg in targets}
        steps = 1_000_000
        for cfg in discrete_configs(m, steps, 17, targets[0]):
            counts[tuple(cfg)] += 1
        expected = steps / 18
        for cfg, c in counts.items():
            assert abs(c - expected) / expected < 0.20, cfg

    def test_determinism(self):
        m = make_hardcore(cycle_graph(5), 0.8)
        a = run_discrete(m, 5000, 3, [0] * 5)
        b = run_discrete(m, 5000, 3, [0] * 5)
        assert np.array_equal(a, b)

    def test_stream_pinned_on_generate_steps(self):
        # every state of 2000 steps of the chain on generate_steps(model, 2000, 11)
        m = make_ising(cycle_graph(6), 0.4)
        h = hashlib.sha256()
        for cfg in discrete_configs(m, 2000, 11, [0] * 6):
            h.update(bytes(cfg))
        assert h.hexdigest() == "34720e4e48389977918ac4adfee68ccd0026b3a0c040373186c41f8ade136ed7"
        assert run_discrete(m, 2000, 11, [0] * 6).tolist() == cfg

    @pytest.mark.parametrize("value", [1.5, float("nan")], ids=["above-one", "nan"])
    def test_filter_value_outside_unit_interval_raises(self, value):
        # unchecked, f = NaN rejected every move and 50 steps returned the
        # initial configuration
        m = SpinModel(cycle_graph(4), 3, np.full((4, 3), 1.0 / 3), filter_fn=lambda v, c, cn, tau: value)
        with pytest.raises(ValueError, match=rf"index=1\): filter f\(v=.*\) = {value!r}, outside \[0, 1\]"):
            run_discrete(m, 50, 1, [0, 1, 2, 0])


class TestExactDistribution:
    def test_c4_coloring_uniform_over_proper(self):
        g = cycle_graph(4)
        table = exact_distribution(make_coloring(g, 3))
        assert len(table) == 18
        assert all(p == pytest.approx(1 / 18) for p in table.values())
        assert set(table) == set(proper_colorings(g, 3))

    def test_single_edge_hardcore(self):
        table = exact_distribution(make_hardcore(path_graph(2), 1.0))
        assert table == {
            (0, 0): pytest.approx(1 / 3),
            (0, 1): pytest.approx(1 / 3),
            (1, 0): pytest.approx(1 / 3),
        }

    def test_single_node_ising(self):
        table = exact_distribution(make_ising(empty_graph(1), 0.7))
        assert table[(0,)] == pytest.approx(0.5)
        assert table[(1,)] == pytest.approx(0.5)

    def test_ising_edge_weights(self):
        beta = 0.3
        table = exact_distribution(make_ising(path_graph(2), beta))
        z = 2 * math.exp(beta) + 2 * math.exp(-beta)
        assert table[(0, 0)] == pytest.approx(math.exp(beta) / z)
        assert table[(0, 1)] == pytest.approx(math.exp(-beta) / z)

    def test_state_space_guard(self):
        m = make_coloring(empty_graph(30), 4)  # 4^30 states
        with pytest.raises(ValueError):
            exact_distribution(m)

    def test_total_variation(self):
        p = {(0,): 0.5, (1,): 0.5}
        q = {(0,): 1.0}
        assert total_variation(p, q) == pytest.approx(0.5)
        assert total_variation(p, p) == 0.0
