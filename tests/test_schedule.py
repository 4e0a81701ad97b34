"""Shared-randomness generation: Poisson clocks, proposals, coins, ordering."""

import io
import itertools
import math

import numpy as np
import pytest
from scipy import stats as scistats

from asyncmetro import (
    Graph,
    SpinModel,
    UpdateId,
    UpdateSchedule,
    cycle_graph,
    empty_graph,
    generate,
    generate_steps,
    greedy_coloring,
    make_coloring,
    make_hardcore,
    make_ising,
    make_scheduler,
    phase2_residence,
    random_regular_graph,
    run,
    run_continuous,
)
from asyncmetro import schedule as sched_mod


def make_manual(T, times_by_node, proposals=None, coins=None, q=4, seed=0):
    """Hand-built schedule for ordering and fixture tests."""
    n = len(times_by_node)
    times = [np.asarray(t, dtype=float) for t in times_by_node]
    props = [
        np.asarray(proposals[v] if proposals else [0] * len(times[v]), dtype=np.int64)
        for v in range(n)
    ]
    cns = [
        np.asarray(coins[v] if coins else [0.0] * len(times[v]), dtype=float)
        for v in range(n)
    ]
    return UpdateSchedule(T, seed, n, q, times, props, cns)


def assert_dump_exact(text, s):
    """dump's text, read back, gives s's header and every (node, index, time,
    proposal, coin) bit for bit: floats are written by repr."""
    header, *lines = text.splitlines()
    n, T, seed = header.split()
    assert (int(n), float(T), int(seed)) == (s.n, s.T, s.seed)
    rows = [(int(v), int(i), float(t), int(p), float(b)) for v, i, t, p, b in map(str.split, lines)]
    assert rows == [(v, i, t, p, b) for v in range(s.n) for i, t, p, b in
                    zip(itertools.count(1), s.times[v].tolist(), s.proposals[v].tolist(), s.coins[v].tolist())]


def tuple_keys(s):
    """(time, node, index) of every update in (node, index) order: the order key
    written out independently of UpdateSchedule."""
    return [(float(t), v, i) for v in range(s.n) for i, t in enumerate(s.times[v], start=1)]


def tuple_order(s):
    return [UpdateId(v, i) for _, v, i in sorted(tuple_keys(s))]


def order_cases():
    """Generated schedules, exact-tie grids and an empty graph."""
    grid = np.array([0.25, 0.5, 0.75, 1.0])
    rng = np.random.default_rng(31)
    schedules = [generate(make_coloring(empty_graph(5), 3), 3.0, seed) for seed in range(3)]
    schedules += [make_manual(2.0, [grid[rng.random(4) < 0.6] for _ in range(5)]) for _ in range(10)]
    schedules.append(make_manual(1.0, []))
    return schedules


def reference_poisson_times(rng, T):
    """Rate-1 Poisson arrivals in (0, T), drawn block by block as one loop."""
    if T <= 0.0:
        return np.empty(0)
    blocks, total = [], 0.0
    block = max(16, int(2 * T) + 8)
    while True:
        cs = total + np.cumsum(rng.exponential(1.0, block))
        stop = int(np.searchsorted(cs, T, side="left"))
        if stop < block:
            blocks.append(cs[:stop])
            return np.concatenate(blocks)
        blocks.append(cs)
        total = float(cs[-1])


def reference_proposals(cdf, uniforms, q):
    return np.minimum(np.searchsorted(cdf, uniforms, side="right"), q - 1).astype(np.int64)


def reference_generate(model, T, seed):
    """generate as a per-node loop: node v's own stream draws its times, then m
    proposal uniforms, then m coins, and its proposals are the inverse CDF of its row."""
    cdfs = np.cumsum(model.proposals, axis=1)
    times, proposals, coins = [], [], []
    for v in range(model.n):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, v)))
        t = reference_poisson_times(rng, T)
        times.append(t)
        proposals.append(reference_proposals(cdfs[v], rng.random(len(t)), model.q))
        coins.append(rng.random(len(t)))
    return UpdateSchedule(T, seed, model.n, model.q, times, proposals, coins)


def reference_generate_steps(model, N, seed):
    """generate_steps with a per-node proposal draw."""
    n = model.n
    if n == 0:
        return UpdateSchedule(0.0, seed, 0, model.q, [], [], [])
    rng = np.random.default_rng(seed)
    arrivals = np.cumsum(rng.exponential(1.0 / n, N + 1))
    nodes = rng.integers(n, size=N)
    uniforms, coins = rng.random(N), rng.random(N)
    by_node = np.argsort(nodes, kind="stable")
    cuts = np.cumsum(np.bincount(nodes, minlength=n))[:-1]
    times, uniforms, coins = (np.split(a[by_node], cuts) for a in (arrivals[:N], uniforms, coins))
    cdfs = np.cumsum(model.proposals, axis=1)
    proposals = [reference_proposals(cdfs[v], u, model.q) for v, u in enumerate(uniforms)]
    return UpdateSchedule(arrivals[N], seed, n, model.q, times, proposals, coins)


def assert_bit_identical(got, want):
    """Same header and counts, and every per-node array equal in bytes, dtype and writeability."""
    assert (got.n, got.q, got.T, got.seed, got.counts) == (want.n, want.q, want.T, want.seed, want.counts)
    for field in ("times", "proposals", "coins"):
        for a, b in zip(getattr(got, field), getattr(want, field), strict=True):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), field
            assert a.flags.writeable == b.flags.writeable, field


def draw_models(n):
    """The built-in models, and a custom one whose proposal rows differ by node,
    with runs of equal rows and rows that recur apart."""
    g = cycle_graph(n) if n >= 3 else empty_graph(n)
    rows = np.random.default_rng(n).random((n, 4)) + 0.05
    rows[1:3] = rows[:1]
    rows[5::4] = rows[:1]
    custom = SpinModel(g, 4, rows / rows.sum(axis=1, keepdims=True), filter_fn=lambda *a: 0.5)
    return [make_coloring(g, 3), make_hardcore(g, 0.7), make_ising(g, 0.4), custom]


class TestGenerate:
    def test_zero_horizon_is_empty(self):
        m = make_coloring(cycle_graph(5), 3)
        s = generate(m, 0.0, 1)
        assert s.counts == [0] * 5

    def test_negative_horizon_rejected(self):
        m = make_coloring(cycle_graph(5), 3)
        with pytest.raises(ValueError):
            generate(m, -1.0, 1)

    @pytest.mark.parametrize("T", [math.inf, math.nan])
    def test_non_finite_horizon_rejected(self, T):
        with pytest.raises(ValueError, match="finite"):
            generate(make_coloring(cycle_graph(5), 3), T, 1)

    def test_poisson_mean_concentrates(self):
        # mean of m_v over 1000 nodes at T=10 concentrates within 10 +/- 0.5
        m = make_coloring(empty_graph(1000), 3)
        s = generate(m, 10.0, 99)
        mean = np.mean(s.counts)
        assert abs(mean - 10.0) < 0.5

    def test_determinism(self):
        m = make_hardcore(cycle_graph(6), 0.7)
        a = generate(m, 7.0, 1234)
        b = generate(m, 7.0, 1234)
        for v in range(6):
            assert np.array_equal(a.times[v], b.times[v])
            assert np.array_equal(a.proposals[v], b.proposals[v])
            assert np.array_equal(a.coins[v], b.coins[v])

    def test_node_stream_invariant_to_graph_size(self):
        # a node's draws depend only on (seed, node id), not on n
        small = generate(make_coloring(empty_graph(3), 5), 6.0, 42)
        large = generate(make_coloring(empty_graph(50), 5), 6.0, 42)
        for v in range(3):
            assert np.array_equal(small.times[v], large.times[v])
            assert np.array_equal(small.proposals[v], large.proposals[v])
            assert np.array_equal(small.coins[v], large.coins[v])

    @pytest.mark.parametrize("seed", [5, 6, 7])
    def test_poisson_times_across_blocks(self, seed):
        # gaps a tenth of the mean make _poisson_times draw block after block; its arrivals
        # must equal those of the list accumulation it replaced, bit for bit
        T = 10.0

        class SmallGaps:  # stands in for the node's generator; records each block it draws
            def __init__(self):
                self.rng, self.blocks = np.random.default_rng(seed), 0

            def exponential(self, scale, size):
                self.blocks += 1
                return 0.1 * self.rng.exponential(scale, size)

        stub = SmallGaps()
        got = sched_mod._poisson_times(stub, T)
        assert stub.blocks >= 3
        expected, total, ref = [], 0.0, SmallGaps()
        block = max(16, int(2 * T) + 8)
        while True:
            cs = total + np.cumsum(ref.exponential(1.0, block))
            stop = int(np.searchsorted(cs, T, side="left"))
            if stop < block:
                expected.extend(cs[:stop].tolist())
                break
            expected.extend(cs.tolist())
            total = float(cs[-1])
        expected = np.asarray(expected)
        assert got.dtype == expected.dtype == np.float64
        assert got.tobytes() == expected.tobytes() and ref.blocks == stub.blocks
        assert got[0] > 0.0 and got[-1] < T and np.all(np.diff(got) > 0)

    @pytest.mark.parametrize("n", [0, 1, 12])
    def test_matches_per_node_loop(self, n):
        for model in draw_models(n):
            for T in (0.0, 0.3, 20.0):
                for seed in (0, 1, 29, 2**32, 2**100 + 9):
                    assert_bit_identical(generate(model, T, seed), reference_generate(model, T, seed))

    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**96, 2**130 + 7])
    def test_node_states_match_numpy_seeding(self, seed):
        # seeds of one to five 32-bit words: up to four fill SeedSequence's pool, the rest mix in after
        states = list(sched_mod._node_states(seed, 70))
        assert states == [np.random.PCG64(np.random.SeedSequence(entropy=(seed, v))).state for v in range(70)]
        assert list(sched_mod._node_states(seed, 0)) == []

    def test_matches_per_node_loop_past_first_block(self):
        # node 1121 has 16 arrivals before 4.49, which use up its first 16-gap block
        model = make_coloring(cycle_graph(2048), 3)
        s = generate(model, 4.49, 3)
        assert s.counts[1121] == max(16, int(2 * 4.49) + 8)
        assert_bit_identical(s, reference_generate(model, 4.49, 3))

    def test_gaps_fit_exponential(self):
        # KS test on one node's inter-arrival gaps over a long horizon
        m = make_coloring(empty_graph(1), 2)
        s = generate(m, 10_000.0, 7)
        gaps = np.diff(np.concatenate([[0.0], s.times[0]]))
        result = scistats.kstest(gaps, "expon")
        assert result.pvalue > 0.01

    def test_proposal_marginals(self):
        # empirical proposal frequencies within 3 sigma of nu over 1e5 draws
        lam = 2.0
        m = make_hardcore(empty_graph(1), lam)
        s = generate(m, 100_000.0, 11)
        draws = s.proposals[0]
        n = len(draws)
        for state, p in ((0, 1 / (1 + lam)), (1, lam / (1 + lam))):
            freq = np.mean(draws == state)
            sigma = np.sqrt(p * (1 - p) / n)
            assert abs(freq - p) < 3 * sigma

    def test_coins_in_unit_interval(self):
        m = make_coloring(empty_graph(10), 3)
        s = generate(m, 50.0, 3)
        for v in range(10):
            assert np.all(s.coins[v] >= 0.0) and np.all(s.coins[v] < 1.0)
            assert np.all(s.times[v] > 0.0) and np.all(s.times[v] < 50.0)
            assert np.all(np.diff(s.times[v]) > 0)


class TestGenerateSteps:
    def test_exactly_n_updates_before_T(self):
        m = make_coloring(cycle_graph(7), 4)
        for N in (0, 1, 7, 100):
            s = generate_steps(m, N, 3)
            assert s.total_updates == sum(s.counts) == N
            assert all(s.T > t.max() for t in s.times if len(t))
            assert s.T > 0.0

    @pytest.mark.parametrize("policy", ["synchronous", "uniform", "adversarial-max"])
    def test_engine_matches_oracle(self, policy):
        isolated = Graph(6, [(0, 1), (1, 2), (4, 5)])  # node 3 has no neighbours
        regular = random_regular_graph(16, 3, 2)
        cases = [
            (make_coloring(regular, 6), greedy_coloring(regular, 6), 80),
            (make_ising(isolated, 0.5), [0] * 6, 40),
            (make_hardcore(empty_graph(1), 0.7), [0], 15),
            (make_coloring(cycle_graph(5), 4), [0, 1, 0, 1, 2], 0),
        ]
        for k, (m, y0, N) in enumerate(cases):
            s = generate_steps(m, N, 10 + k)
            assert s.total_updates == N
            res = run(m, s, y0, make_scheduler(policy, seed=k), paranoid=True)
            assert np.array_equal(res.final, run_continuous(m, s, y0).final)
            phase2_residence(res, verify=True)

    @pytest.mark.parametrize("n", [1, 12])
    def test_matches_per_node_draw(self, n):
        for model in draw_models(n):
            for N in (0, 1, 40, 300):
                for seed in (0, 8):
                    assert_bit_identical(generate_steps(model, N, seed), reference_generate_steps(model, N, seed))
        empty = make_coloring(empty_graph(0), 2)
        assert_bit_identical(generate_steps(empty, 0, 4), reference_generate_steps(empty, 0, 4))

    def test_node_counts_are_uniform(self):
        s = generate_steps(make_coloring(empty_graph(50), 3), 20_000, 5)
        assert scistats.chisquare(s.counts).pvalue > 0.01

    @staticmethod
    def assert_same(a, b):
        assert (a.n, a.T, a.seed) == (b.n, b.T, b.seed)
        for v in range(a.n):
            assert np.array_equal(a.times[v], b.times[v])
            assert np.array_equal(a.proposals[v], b.proposals[v])
            assert np.array_equal(a.coins[v], b.coins[v])

    def test_determinism(self):
        m = make_hardcore(cycle_graph(6), 0.7)
        self.assert_same(generate_steps(m, 300, 8), generate_steps(m, 300, 8))

    def test_dump_load_roundtrip(self):
        s = generate_steps(make_hardcore(cycle_graph(5), 0.4), 60, 77)
        buf = io.StringIO()
        sched_mod.dump(s, buf)
        assert_dump_exact(buf.getvalue(), s)

    def test_empty_graph_without_steps(self):
        s = generate_steps(make_coloring(empty_graph(0), 2), 0, 1)
        assert (s.n, s.T, s.total_updates) == (0, 0.0, 0)

    @pytest.mark.parametrize("n, N, seed", [(3, -1, 1), (3, 5, -1), (0, 1, 1)])
    def test_bad_arguments_raise(self, n, N, seed):
        with pytest.raises(ValueError, match=f"got N={N}, seed={seed}, n={n}"):
            generate_steps(make_coloring(empty_graph(n), 2), N, seed)


class TestTotalOrder:
    def test_empty(self):
        m = make_coloring(empty_graph(3), 2)
        s = generate(m, 0.0, 1)
        assert [s.update_at(p) for p in s.order.tolist()] == []

    def test_sorted_by_time(self):
        s = make_manual(1.0, [[0.5], [0.3, 0.7]])
        assert [s.update_at(p) for p in s.order.tolist()] == [UpdateId(1, 1), UpdateId(0, 1), UpdateId(1, 2)]

    def test_exact_tie_breaks_by_node_id(self):
        s = make_manual(1.0, [[], [], [], [0.5], [], [], [], [0.5]])
        order = [s.update_at(p) for p in s.order.tolist()]
        assert order == [UpdateId(3, 1), UpdateId(7, 1)]
        assert order == tuple_order(s)

    def test_rank_matches_tuple_order(self):
        # every ordered pair of updates, on generated schedules and on exact-tie grids
        for s in order_cases():
            keys = tuple_keys(s)
            for a, b in itertools.product(range(len(keys)), repeat=2):
                assert (s.rank[a] < s.rank[b]) == (keys[a] < keys[b])

    def test_order_matches_tuple_sort(self):
        cases = order_cases()
        assert any(len(set(np.concatenate(s.times).tolist())) < s.total_updates for s in cases)  # exact ties occur
        for s in cases:
            assert [s.update_at(pos) for pos in s.order.tolist()] == tuple_order(s)
            assert s.rank[s.order].tolist() == list(range(s.total_updates))

    def test_empty_graph_has_empty_order(self):
        s = make_manual(1.0, [])
        assert (s.counts, s.starts, s.total_updates) == ([], [0], 0)
        assert len(s.order) == len(s.rank) == 0

    def test_update_at_inverts_starts(self):
        for s in order_cases():
            assert s.starts == [0, *np.cumsum(s.counts).tolist()] and s.total_updates == s.starts[-1]
            for v in range(s.n):
                for i in range(1, s.counts[v] + 1):
                    assert s.update_at(s.starts[v] + i - 1) == (v, i)

    def test_times_are_read_only(self):
        # order and rank derive from the times, so the times cannot change under them
        s = generate(make_coloring(cycle_graph(3), 3), 5.0, 2)
        with pytest.raises(ValueError):
            s.times[0][0] = 0.1

    def test_restriction_to_one_node_is_index_order(self):
        m = make_coloring(empty_graph(4), 3)
        s = generate(m, 30.0, 5)
        order = [s.update_at(p) for p in s.order.tolist()]
        for v in range(4):
            assert [u.index for u in order if u.node == v] == list(range(1, s.counts[v] + 1))


class TestDumpLoad:
    def test_roundtrip_bit_identical(self):
        m = make_hardcore(cycle_graph(5), 0.4)
        s = generate(m, 12.0, 77)
        buf = io.StringIO()
        sched_mod.dump(s, buf)
        assert_dump_exact(buf.getvalue(), s)


class TestScheduleValidation:
    def test_rejects_decreasing_times(self):
        with pytest.raises(ValueError):
            make_manual(1.0, [[0.5, 0.4]])

    def test_rejects_times_outside_horizon(self):
        with pytest.raises(ValueError):
            make_manual(1.0, [[1.5]])

    @pytest.mark.parametrize("times", [[math.nan], [0.2, math.nan, 0.6], [0.2, math.nan]])
    def test_rejects_nan_times(self, times):
        with pytest.raises(ValueError, match="times"):
            make_manual(1.0, [times])

    @pytest.mark.parametrize("T", [math.nan, math.inf, -math.inf, -2.0])
    def test_rejects_bad_horizon(self, T):
        for times in ([], [[]], [[], []]):
            with pytest.raises(ValueError, match="horizon T"):
                make_manual(T, times)

    def test_rejects_nan_coins(self):
        with pytest.raises(ValueError, match="coins"):
            make_manual(1.0, [[0.5]], coins=[[math.nan]])

    def test_rejects_out_of_range_proposals(self):
        with pytest.raises(ValueError):
            make_manual(1.0, [[0.5]], proposals=[[9]], q=4)

    # each check runs over all nodes at once; the fault sits on node 3 of 5, after
    # an empty node and with times that fall across every node boundary
    GOOD = [[0.5, 0.7], [0.3], [], [0.4, 0.6, 0.8], [0.2, 0.9]]

    def _fault_on_node_3(self, what, **fault):
        times = [list(t) for t in self.GOOD]
        props = [[1] * len(t) for t in times]
        coins = [[0.5] * len(t) for t in times]
        for name, value in fault.items():
            {"times": times, "props": props, "coins": coins}[name][3][1] = value
        with pytest.raises(ValueError, match=f"^node 3: {what}"):
            make_manual(1.0, times, proposals=props, coins=coins, q=4)

    def test_time_outside_horizon_names_node(self):
        self._fault_on_node_3(r"update times must lie in \(0, T\)", times=1.0)

    def test_decreasing_time_names_node(self):
        self._fault_on_node_3("update times must be strictly increasing", times=0.3)

    def test_proposal_out_of_range_names_node(self):
        self._fault_on_node_3(r"proposals out of range 0\.\.3", props=4)

    def test_coin_out_of_range_names_node(self):
        self._fault_on_node_3(r"coins out of \[0, 1\)", coins=1.0)
