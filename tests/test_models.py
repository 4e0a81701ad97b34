"""Model construction, filter evaluation, and Lipschitz constants."""

import hashlib
import itertools
import math
import time

import numpy as np
import pytest

from asyncmetro import (
    Graph,
    SpinModel,
    cycle_graph,
    empty_graph,
    grid_graph,
    lipschitz_bound,
    make_coloring,
    make_hardcore,
    make_ising,
    path_graph,
    random_regular_graph,
)
from asyncmetro.models import _lipschitz_exact


def star_graph(leaves):
    """Node 0 is the hub."""
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


class TestGraph:
    def test_adjacency_sorted_and_symmetric(self):
        g = Graph(4, [(2, 0), (3, 1), (0, 1), (1, 0)])
        assert g.adj == ((1, 2), (0, 3), (0,), (1,))
        assert g.max_degree == 2
        assert g.num_edges == 3
        assert list(g.edges()) == [(0, 1), (0, 2), (1, 3)]

    def test_rejects_self_loop_and_out_of_range(self):
        with pytest.raises(ValueError):
            Graph(3, [(1, 1)])
        with pytest.raises(ValueError):
            Graph(3, [(0, 3)])

    def test_generators(self):
        assert cycle_graph(5).num_edges == 5
        assert grid_graph(3, 4).num_edges == 3 * 3 + 2 * 4
        assert path_graph(4).max_degree == 2
        assert star_graph(6).degree(0) == 6
        assert empty_graph(7).num_edges == 0

    def test_random_regular_is_regular(self):
        g = random_regular_graph(30, 4, seed=5)
        assert all(g.degree(v) == 4 for v in range(30))
        g2 = random_regular_graph(30, 4, seed=5)
        assert g2.adj == g.adj  # seeded determinism

    def test_random_regular_parity_guard(self):
        with pytest.raises(ValueError):
            random_regular_graph(5, 3, seed=0)

    def test_random_regular_low_degree_adjacency_pinned(self):
        # every (n, d <= 7, seed) here built by rejection before the bulk builder,
        # whose tries keep the same draws and verdicts; (8, 5, 7) did not build
        grid = [(n, d, s) for n in (7, 8, 9, 10, 16, 33, 64, 100, 257, 512, 2048) for d in range(6)
                for s in (0, 1, 7, 404) if d < n and n * d % 2 == 0 and (n, d, s) != (8, 5, 7)]
        grid += [(16, 6, 0), (16, 6, 7), (64, 6, 0), (64, 6, 1), (64, 6, 7), (64, 6, 404), (32, 7, 31), (32, 7, 56)]
        digest = hashlib.sha256()
        for n, d, s in grid:
            digest.update(repr((n, d, s, random_regular_graph(n, d, s).adj)).encode())
        assert digest.hexdigest() == "2c772db75187871c042030655017a52c27c041d68a5d45863e97b15cdbee74e6"

    def test_random_regular_high_degree(self):
        # rejection alone almost never finds these; the Steger-Wormald pairing does
        start = time.perf_counter()
        for d in (8, 16, 32):
            g = random_regular_graph(512, d, seed=d)
            assert all(len(a) == d and v not in a for v, a in enumerate(g.adj))
            assert all(a == tuple(sorted(set(a))) for a in g.adj)
            assert all(v in g.adj[u] for v, a in enumerate(g.adj) for u in a)
            assert random_regular_graph(512, d, seed=d).adj == g.adj
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("graph", [random_regular_graph(40, 5, seed=3), grid_graph(3, 4), Graph(5, [(0, 4)])],
                             ids=["regular", "grid", "isolated-nodes"])
    def test_channel_tables(self, graph):
        pairs, rslots = graph.channel_tables()
        assert pairs == tuple((v, u) for v in range(graph.n) for u in graph.adj[v])
        slot_of = [{u: k for k, u in enumerate(a)} for a in graph.adj]
        assert rslots == tuple(tuple(slot_of[u][v] for u in graph.adj[v]) for v in range(graph.n))
        assert graph.channel_tables() is graph.channel_tables()  # built once per graph

    def test_edge_list_roundtrip(self, tmp_path):
        from asyncmetro import read_edge_list

        g = grid_graph(3, 3)
        path = tmp_path / "edges.txt"
        path.write_text("".join(f"{u} {v}\n" for u, v in g.edges()))
        g2 = read_edge_list(path)
        assert g2.adj == g.adj

    @pytest.mark.parametrize("bad", ["1 x", "1 2.0", "-1 2", "1 2 3", "1 01"])
    def test_edge_list_error_names_file_and_line(self, tmp_path, bad):
        from asyncmetro import read_edge_list

        path = tmp_path / "edges.txt"
        path.write_text(f"# header\n0 1\n{bad}\n")
        with pytest.raises(ValueError) as info:
            read_edge_list(path)
        assert str(info.value) == f"{path}:3: expected 'u v' of two distinct node ids >= 0, got {bad!r}"


class TestFilterEval:
    def test_coloring_accepts_free_color(self):
        g = path_graph(3)  # node 1 has neighbors 0 and 2
        m = make_coloring(g, 5)
        assert m.filter_value(1, 0, 3, (1, 2)) == 1.0

    def test_coloring_rejects_collision(self):
        g = path_graph(3)
        m = make_coloring(g, 5)
        assert m.filter_value(1, 0, 1, (1, 2)) == 0.0

    def test_ising_downhill_move(self):
        # c=-1 -> c'=+1 against two -1 neighbors: (c'-c)*sum(tau) = -4
        g = path_graph(3)
        m = make_ising(g, 0.5)
        f = m.filter_value(1, 0, 1, (0, 0))
        assert f == pytest.approx(math.exp(-2.0), abs=1e-12)

    def test_state_out_of_range_rejected(self):
        m = make_coloring(path_graph(3), 4)
        with pytest.raises(ValueError):
            m.filter_value(1, 0, 4, (1, 2))
        with pytest.raises(ValueError):
            m.filter_value(1, 0, 1, (1, 9))

    def test_tau_length_mismatch_rejected(self):
        m = make_coloring(path_graph(3), 4)
        with pytest.raises(ValueError):
            m.filter_value(1, 0, 1, (1,))


class TestBuiltins:
    def test_coloring_triangle(self):
        m = make_coloring(cycle_graph(3), 3)
        assert m.filter_value(0, 0, 2, (0, 1)) == 1.0

    def test_coloring_degenerate_domain(self):
        m = make_coloring(path_graph(2), 1)
        assert m.filter_value(0, 0, 0, (0,)) == 0.0

    def test_coloring_star_center(self):
        m = make_coloring(star_graph(3), 4)
        assert m.filter_value(0, 1, 0, (0, 0, 0)) == 0.0
        assert m.filter_value(0, 1, 1, (0, 0, 0)) == 1.0

    def test_hardcore_proposals(self):
        m = make_hardcore(path_graph(2), 1.0)
        assert np.allclose(m.proposals, 0.5)
        m2 = make_hardcore(path_graph(2), 3.0)
        assert m2.proposals[0] == pytest.approx([0.25, 0.75])

    def test_hardcore_blocks_occupied_neighbor(self):
        m = make_hardcore(path_graph(2), 1.0)
        assert m.filter_value(0, 0, 1, (1,)) == 0.0
        assert m.filter_value(0, 0, 1, (0,)) == 1.0

    def test_hardcore_negative_fugacity_rejected(self):
        with pytest.raises(ValueError):
            make_hardcore(path_graph(2), -0.1)

    @pytest.mark.parametrize("lam", [math.inf, math.nan])
    def test_hardcore_non_finite_fugacity_rejected(self, lam):
        with pytest.raises(ValueError, match="fugacity"):
            make_hardcore(path_graph(2), lam)

    def test_ising_zero_beta_always_accepts(self):
        m = make_ising(cycle_graph(4), 0.0)
        for c, cn, tau in itertools.product(range(2), range(2), itertools.product(range(2), repeat=2)):
            assert m.filter_value(0, c, cn, tau) == 1.0

    def test_ising_beta_range_guard_is_degree_aware(self):
        # partial factor products must stay representable: a balanced
        # neighborhood keeps the true filter at 1 even at the boundary
        with pytest.raises(ValueError):
            make_ising(star_graph(4), 250.0)
        with pytest.raises(ValueError):
            make_ising(path_graph(2), float("inf"))
        m = make_ising(star_graph(4), 75.0)
        assert m.filter_value(0, 0, 1, (1, 1, 0, 0)) == 1.0

    def test_proposal_rows_validated(self):
        g = path_graph(2)
        with pytest.raises(ValueError):
            SpinModel(g, 2, np.array([[0.7, 0.2], [0.5, 0.5]]), filter_fn=lambda *a: 1.0)
        with pytest.raises(ValueError):
            SpinModel(g, 2, np.array([[1.2, -0.2], [0.5, 0.5]]), filter_fn=lambda *a: 1.0)

    @pytest.mark.parametrize("row", [[math.nan, 1.0], [0.0, math.nan], [math.inf, 0.0], [math.inf, -math.inf]])
    def test_non_finite_proposals_rejected(self, row):
        # NaN passes both "< 0" and a row-sum test written as "> tol"
        with pytest.raises(ValueError, match="proposal"):
            SpinModel(path_graph(2), 2, np.array([row, [0.5, 0.5]]), filter_fn=lambda *a: 1.0)

    @pytest.mark.parametrize("fns", ["both", "neither"])
    def test_exactly_one_form_of_f(self, fns):
        # with both, the oracle read filter_fn and the engine the edge factors: on C4 with
        # q = 3, f = 0.5 and g = 1, generate(m, 5.0, 1) ended at [2 0 2 1] and [2 0 2 2]
        given = {"filter_fn": lambda v, c, cn, tau: 0.5, "edge_factor_fn": lambda v, u, c, cn, b: 1.0}
        with pytest.raises(ValueError, match="exactly one of filter_fn and edge_factor_fn"):
            SpinModel(cycle_graph(4), 3, np.full((4, 3), 1.0 / 3), **(given if fns == "both" else {}))


def _random_models(rng, n_graphs=6):
    out = []
    for k in range(n_graphs):
        n = int(rng.integers(2, 7))
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
        g = Graph(n, edges)
        out.append(make_coloring(g, int(rng.integers(2, 6))))
        out.append(make_hardcore(g, float(rng.random() * 2)))
        out.append(make_ising(g, float(rng.normal() * 0.8)))
    return out


class TestEdgeFactorContract:
    def test_product_matches_generic_filter(self):
        # explicit factor product vs filter_value on 10^4 random inputs
        rng = np.random.default_rng(123)
        models = _random_models(rng)
        checks = 0
        while checks < 10_000:
            m = models[int(rng.integers(len(models)))]
            v = int(rng.integers(m.n))
            c, cn = int(rng.integers(m.q)), int(rng.integers(m.q))
            tau = tuple(int(x) for x in rng.integers(0, m.q, m.graph.degree(v)))
            explicit = 1.0
            for u, b in zip(m.graph.adj[v], tau):
                explicit *= m.edge_factor_fn(v, u, c, cn, b)
            explicit = min(1.0, explicit)
            f = m.filter_value(v, c, cn, tau)
            assert abs(f - explicit) <= 1e-12
            assert 0.0 <= f <= 1.0
            checks += 1


class TestLipschitzBound:
    def test_coloring_path_q4_is_one(self):
        # brute-force enumeration on a 3-node path with q = 2*max_degree
        m = make_coloring(path_graph(3), 4)
        assert _lipschitz_exact(m) == pytest.approx(1.0, abs=1e-12)
        assert lipschitz_bound(m) == pytest.approx(1.0, abs=1e-12)

    def test_hardcore_zero_fugacity(self):
        m = make_hardcore(path_graph(3), 0.0)
        assert lipschitz_bound(m) == 0.0
        assert _lipschitz_exact(m) == 0.0

    def test_ising_uniqueness_comparison_point(self):
        # 1 - exp(-2|beta|) = 2/max_degree  =>  closed-form constant 2
        d = 4
        beta = -0.5 * math.log(1.0 - 2.0 / d)
        m = make_ising(star_graph(d), beta)
        assert lipschitz_bound(m) == pytest.approx(2.0, abs=1e-12)

    @pytest.mark.parametrize("q", [2, 3, 4])
    @pytest.mark.parametrize("make_graph", [path_graph, star_graph, cycle_graph])
    def test_coloring_closed_form_matches_exact(self, q, make_graph):
        g = make_graph(3)
        m = make_coloring(g, q)
        assert _lipschitz_exact(m) == pytest.approx(
            lipschitz_bound(m), abs=1e-9
        )

    @pytest.mark.parametrize("lam", [0.3, 1.0, 2.5])
    @pytest.mark.parametrize("make_graph", [path_graph, star_graph, cycle_graph])
    def test_hardcore_closed_form_matches_exact(self, lam, make_graph):
        m = make_hardcore(make_graph(3), lam)
        assert _lipschitz_exact(m) == pytest.approx(
            lipschitz_bound(m), abs=1e-9
        )

    @pytest.mark.parametrize("beta", [0.1, 0.4, 1.0])
    @pytest.mark.parametrize("make_graph", [path_graph, star_graph, cycle_graph])
    def test_ising_closed_form_sandwiches_exact(self, beta, make_graph):
        # the conventional Ising constant max_degree*(1-exp(-2|beta|)) is not the
        # exact enumeration value; it bounds it within a factor of two
        m = make_ising(make_graph(3), beta)
        exact = _lipschitz_exact(m)
        closed = lipschitz_bound(m)
        assert closed / 2 - 1e-12 <= exact <= closed + 1e-12

    def test_no_edges_gives_zero(self):
        assert _lipschitz_exact(make_coloring(empty_graph(4), 3)) == 0.0
        assert lipschitz_bound(make_coloring(empty_graph(4), 3)) == 0.0

    def test_enumeration_guard(self):
        m = make_coloring(star_graph(12), 16)  # 16^11 shared assignments
        with pytest.raises(ValueError):
            _lipschitz_exact(m)
        assert lipschitz_bound(m) == pytest.approx(2 * 12 / 16)

    @pytest.mark.parametrize("bad", [1.5, -0.5, math.nan], ids=["above-one", "negative", "nan"])
    def test_enumeration_rejects_filter_outside_unit_interval(self, bad):
        # read unchecked, a filter of 1.5 on part of the product gave 2.6, an all-NaN one 0.0
        def filt(v, c, cn, tau):
            return bad if math.isnan(bad) or tau[0] == 2 else 0.5

        m = SpinModel(cycle_graph(4), 3, np.full((4, 3), 1.0 / 3), filter_fn=filt)
        with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
            lipschitz_bound(m)

    def test_custom_model_has_no_closed_form(self):
        g = path_graph(2)
        m = SpinModel(g, 2, np.full((2, 2), 0.5), filter_fn=lambda v, c, cn, tau: 1.0, kind="custom")
        assert lipschitz_bound(m) == 0.0  # enumerated: a constant filter
