"""Config parsing, CLI commands, reproducibility, and exit codes."""

import dataclasses
import io
import math
import os
import re
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from asyncmetro import FixedDelayScheduler, cli, harness, netsim, oracle, phase2_residence, run
from asyncmetro import schedule as sched_mod
from asyncmetro.harness import ConfigError
from tests.test_instrument import alternating_fixture
from tests.test_schedule import assert_dump_exact

BASE_CONFIG = """\
[model]
kind = coloring
q = 5

[graph]
kind = cycle
n = 6

[chain]
T = 3.0

[scheduler]
policies = synchronous, uniform
seed = 4

[experiment]
seeds = 1:5
"""


# a 3x4 grid sets no [graph] n; 2.5 steps per node are 30 updates on its 12 nodes
STEPS_CONFIG = """\
[model]
kind = hardcore
lambda = 1.0

[graph]
kind = grid
rows = 3
cols = 4

[chain]
steps_per_node = 2.5
y0 = zeros

[scheduler]
policies = synchronous, uniform
seed = 4

[experiment]
seeds = 1:3
runs = 20
"""

# a square grid whose sweep sizes must be perfect squares; format with the n_grid text
GRID_SWEEP_CONFIG = BASE_CONFIG.replace("kind = cycle\nn = 6", "kind = grid\nrows = 2\ncols = 2") + "n_grid = {}\n"

# every key of every section, each away from its default
EVERY_KEY_CONFIG = """\
[model]
kind = hardcore
q = 7
lambda = 2.5
beta = 0.25

[graph]
kind = grid
n = 9
degree = 3
rows = 2
cols = 5
seed = 11
path = g.txt

[chain]
T = 4.5
y0 = fixed
y0_values = 1 0 1

[scheduler]
policies = uniform, adversarial-max
seed = 13

[experiment]
seeds = 3, 5
n_grid = 4, 16
runs = 17
"""

# the keys load_config reads, per section, in the order its errors list them
DECLARED_KEYS = {
    "model": ["kind", "q", "lambda", "beta"],
    "graph": ["kind", "n", "degree", "rows", "cols", "seed", "path"],
    "chain": ["T", "steps_per_node", "y0", "y0_values"],
    "scheduler": ["policies", "seed"],
    "experiment": ["seeds", "n_grid", "runs"],
}


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text(BASE_CONFIG)
    return path


def run_capped_cli(*args) -> subprocess.CompletedProcess:
    """python -m asyncmetro in a child whose address space is capped at 2 GiB, so that a
    regression that allocates without bound fails there and does not exhaust the host's memory.
    BLAS and OpenMP get one thread each: their per-thread reservations grow with the core count
    and count against the cap (about 100 MB in all with one thread)."""
    src = str(Path(harness.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
           "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    return subprocess.run([sys.executable, "-m", "asyncmetro", *args], env=env, capture_output=True, text=True,
                          timeout=60, preexec_fn=cap)


class TestLoadConfig:
    def test_basic(self, config_path):
        cfg = harness.load_config(config_path)
        assert cfg.model_kind == "coloring"
        assert cfg.q == 5
        assert cfg.T == 3.0
        assert list(cfg.seeds) == [1, 2, 3, 4, 5]
        assert cfg.scheduler_policies == ["synchronous", "uniform"]

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            harness.load_config(tmp_path / "nope.ini")

    def test_missing_section(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[model]\nkind = coloring\nq = 3\n")
        with pytest.raises(ConfigError):
            harness.load_config(path)

    def test_unknown_model_kind(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text(BASE_CONFIG.replace("kind = coloring", "kind = potts", 1))
        with pytest.raises(ConfigError):
            harness.load_config(path)

    def test_unknown_scheduler(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text(BASE_CONFIG.replace("policies = synchronous, uniform", "policies = chaotic"))
        with pytest.raises(ConfigError):
            harness.load_config(path)

    def test_steps_per_node_macro(self, tmp_path):
        path = tmp_path / "steps.ini"
        path.write_text(STEPS_CONFIG)
        cfg = harness.load_config(path)
        assert (cfg.T, cfg.steps_per_node) == (None, 2.5)
        model, _ = harness.build_cell(cfg)
        assert model.n == 12
        for seed in cfg.seeds:
            assert harness.build_schedule(cfg, model, seed).total_updates == 30

    def test_seed_list_form(self, tmp_path):
        path = tmp_path / "s.ini"
        path.write_text(BASE_CONFIG.replace("seeds = 1:5", "seeds = 3, 9, 27"))
        assert harness.load_config(path).seeds == [3, 9, 27]

    def test_seed_range_stays_a_range(self, tmp_path):
        # a list of a million seeds took 1.6 s and 40 MB to load
        path = tmp_path / "s.ini"
        path.write_text(BASE_CONFIG.replace("seeds = 1:5", "seeds = 0:999999"))
        assert harness.load_config(path).seeds == range(1000000)

    def test_every_declared_key_is_read(self, tmp_path):
        path = tmp_path / "all.ini"
        path.write_text(EVERY_KEY_CONFIG)
        expected = dict(
            model_kind="hardcore", q=7, lam=2.5, beta=0.25, graph_kind="grid", graph_n=9, graph_degree=3,
            graph_rows=2, graph_cols=5, graph_seed=11, graph_path="g.txt", T=4.5, steps_per_node=None,
            y0_policy="fixed", y0_values=[1, 0, 1], scheduler_policies=["uniform", "adversarial-max"],
            scheduler_seed=13, seeds=[3, 5], n_grid=[4, 16], runs=17, base_dir=tmp_path,
        )
        assert dataclasses.asdict(harness.load_config(path)) == expected
        path.write_text(EVERY_KEY_CONFIG.replace("T = 4.5", "steps_per_node = 1.5"))
        assert dataclasses.asdict(harness.load_config(path)) == {**expected, "T": None, "steps_per_node": 1.5}
        # a config of the required keys alone differs from both in every field read from a key
        path.write_text("[model]\nkind = coloring\n[graph]\n[chain]\nT = 1\n")
        defaults = dataclasses.asdict(harness.load_config(path))
        assert [k for k, v in expected.items() if defaults[k] == v] == ["steps_per_node", "base_dir"]

    @pytest.mark.parametrize("section", DECLARED_KEYS)
    def test_unknown_key_lists_its_section_keys(self, tmp_path, section):
        path = tmp_path / "bad.ini"
        path.write_text(BASE_CONFIG.replace(f"[{section}]\n", f"[{section}]\nbogus = 1\n"))
        with pytest.raises(ConfigError) as info:
            harness.load_config(path)
        assert str(info.value) == f"[{section}] unknown key(s) bogus; keys are {', '.join(DECLARED_KEYS[section])}"

    def test_unknown_section_lists_the_sections(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text(BASE_CONFIG + "[extra]\n")
        with pytest.raises(ConfigError) as info:
            harness.load_config(path)
        assert str(info.value) == f"unknown config section [extra]; sections are DEFAULT, {', '.join(DECLARED_KEYS)}"


class TestBuilders:
    def test_edgelist_graph(self, tmp_path):
        edges = tmp_path / "g.txt"
        edges.write_text("0 1\n1 2\n")
        path = tmp_path / "e.ini"
        path.write_text(
            BASE_CONFIG.replace("kind = cycle\nn = 6", f"kind = edgelist\npath = {edges.name}")
        )
        cfg = harness.load_config(path)
        g = harness.build_graph(cfg)
        assert g.n == 3 and g.num_edges == 2

    def test_missing_edgelist_file(self, tmp_path):
        path = tmp_path / "e.ini"
        path.write_text(
            BASE_CONFIG.replace("kind = cycle\nn = 6", "kind = edgelist\npath = missing.txt")
        )
        cfg = harness.load_config(path)
        with pytest.raises(ConfigError):
            harness.build_graph(cfg)

    def test_y0_default_greedy_for_coloring(self, config_path):
        model, y0 = harness.build_cell(harness.load_config(config_path))
        assert all(y0[u] != y0[v] for u, v in model.graph.edges())

    def test_y0_greedy_infeasible(self, tmp_path):
        # two colors cannot greedily color an odd cycle
        path = tmp_path / "g.ini"
        path.write_text(BASE_CONFIG.replace("q = 5", "q = 2").replace("n = 6", "n = 5"))
        cfg = harness.load_config(path)
        with pytest.raises(ConfigError, match="infeasible"):
            harness.build_cell(cfg)

    def test_y0_fixed(self, tmp_path):
        path = tmp_path / "f.ini"
        path.write_text(
            BASE_CONFIG.replace("T = 3.0", "T = 3.0\ny0 = fixed\ny0_values = 0 1 2 3 4 0")
        )
        _, y0 = harness.build_cell(harness.load_config(path))
        assert y0.tolist() == [0, 1, 2, 3, 4, 0]

    def test_y0_fixed_wrong_length(self, tmp_path):
        path = tmp_path / "f.ini"
        path.write_text(BASE_CONFIG.replace("T = 3.0", "T = 3.0\ny0 = fixed\ny0_values = 0 1"))
        cfg = harness.load_config(path)
        with pytest.raises(ConfigError):
            harness.build_cell(cfg)


class TestCommands:
    def test_run_row_count_and_determinism(self, config_path):
        cfg = harness.load_config(config_path)
        a, b = io.StringIO(), io.StringIO()
        assert harness.cmd_run(cfg, a) == 0
        assert harness.cmd_run(cfg, b) == 0
        assert a.getvalue() == b.getvalue()
        lines = a.getvalue().splitlines()
        assert len(lines) == 1 + 5 * 2  # header + seeds x policies

    def test_verify_coupling_passes(self, config_path):
        cfg = harness.load_config(config_path)
        out = io.StringIO()
        assert harness.cmd_verify_coupling(cfg, out) == 0
        assert "all exact" in out.getvalue()

    def test_corrupted_coin_detected(self):
        # negative control: flipping one coin across the accept boundary of a
        # soft filter must surface as a first-mismatch report. (Coloring and
        # hardcore filters are 0/1-valued, so their outcomes ignore the coin;
        # an Ising chain actually consumes it.)
        from asyncmetro import cycle_graph, make_ising

        model = make_ising(cycle_graph(6), 0.6)
        y0 = np.zeros(6, dtype=int)
        sch = sched_mod.generate(model, 3.0, 1)
        expected = oracle.run_continuous(model, sch, y0).final
        corrupted = sched_mod.UpdateSchedule(
            sch.T, sch.seed, sch.n, sch.q,
            [t.copy() for t in sch.times],
            [p.copy() for p in sch.proposals],
            [b.copy() for b in sch.coins],
        )
        mismatch = None
        for v in range(model.n):
            for k in range(len(corrupted.coins[v])):
                corrupted.coins[v][k] = 1.0 - 1e-12 if sch.coins[v][k] < 0.5 else 0.0
                res = netsim.run(model, corrupted, y0, netsim.FixedDelayScheduler())
                mismatch = harness.first_mismatch(expected, res.final)
                if mismatch:
                    break
            if mismatch:
                break
        assert mismatch is not None
        node, exp, got = mismatch
        assert exp == expected[node] and got != exp

    def test_tv_test_reports(self, tmp_path):
        path = tmp_path / "tv.ini"
        path.write_text(
            "[model]\nkind = hardcore\nlambda = 1.0\n\n"
            "[graph]\nkind = cycle\nn = 3\n\n"
            "[chain]\nT = 20\ny0 = zeros\n\n"
            "[scheduler]\npolicies = synchronous\n\n"
            "[experiment]\nseeds = 1:1\nruns = 200\n"
        )
        cfg = harness.load_config(path)
        out = io.StringIO()
        assert harness.cmd_tv_test(cfg, out) == 0
        tv = float(out.getvalue().split("tv_distance=")[1].split()[0])
        assert 0.0 <= tv <= 1.0

    def test_tv_test_state_space_guard(self, tmp_path):
        path = tmp_path / "tv.ini"
        path.write_text(BASE_CONFIG.replace("n = 6", "n = 64").replace("kind = cycle", "kind = cycle"))
        cfg = harness.load_config(path)
        with pytest.raises(ConfigError, match="too large"):
            harness.empirical_tv(cfg)

    def test_tv_at_zero_horizon_is_point_mass_distance(self, tmp_path):
        path = tmp_path / "tv0.ini"
        path.write_text(
            "[model]\nkind = hardcore\nlambda = 1.0\n\n"
            "[graph]\nkind = cycle\nn = 3\n\n"
            "[chain]\nT = 0\ny0 = zeros\n\n"
            "[scheduler]\npolicies = synchronous\n\n"
            "[experiment]\nseeds = 1:1\nruns = 50\n"
        )
        cfg = harness.load_config(path)
        tv = harness.empirical_tv(cfg)
        exact = oracle.exact_distribution(harness.build_cell(cfg)[0])
        # all runs sit at the initial all-zero configuration
        assert tv == pytest.approx(1.0 - exact[(0, 0, 0)])

    @pytest.mark.parametrize("chain, note", [("T = 0", True), ("steps_per_node = 0.1", True),
                                             ("steps_per_node = 0.5", False)])
    def test_tv_test_notes_runs_without_updates(self, tmp_path, chain, note):
        # on a 3-cycle, 0.1 steps per node round to 0 updates a run; 0.5 round to 2
        path = tmp_path / "tv0.ini"
        path.write_text(
            "[model]\nkind = hardcore\nlambda = 1.0\n\n"
            "[graph]\nkind = cycle\nn = 3\n\n"
            f"[chain]\n{chain}\ny0 = zeros\n\n"
            "[experiment]\nseeds = 1:1\nruns = 30\n"
        )
        out = io.StringIO()
        assert harness.cmd_tv_test(harness.load_config(path), out) == 0
        assert ("initial point mass" in out.getvalue()) is note

    def test_sweep_summary(self, tmp_path):
        path = tmp_path / "sw.ini"
        path.write_text(
            "[model]\nkind = coloring\nq = 8\n\n"
            "[graph]\nkind = random-regular\nn = 16\ndegree = 2\nseed = 3\n\n"
            "[chain]\nT = 2\n\n"
            "[scheduler]\npolicies = adversarial-max\n\n"
            "[experiment]\nseeds = 1:4\nn_grid = 8, 16, 32\n"
        )
        cfg = harness.load_config(path)
        raw, summary = harness.run_sweep(cfg)
        assert len(raw) == 3 * 4
        assert set(summary.means) == {8, 16, 32}
        assert len(summary.residuals) == 3
        assert len(summary.growth_ratios) == 2
        out = io.StringIO()
        assert harness.cmd_sweep(cfg, out) == 0
        assert "# fit max_residence" in out.getvalue()

    def test_two_size_sweep_reports_no_r2(self, tmp_path):
        # a line through two points always fits, so R^2 would read 1.0 and say nothing
        assert math.isnan(harness.fit_log_n([4, 16], [1.0, 3.0])[2])
        path = tmp_path / "sw2.ini"
        path.write_text(BASE_CONFIG.replace("seeds = 1:5", "seeds = 1:2\nn_grid = 4, 16"))
        out = io.StringIO()
        assert harness.cmd_sweep(harness.load_config(path), out) == 0
        assert ", R2=nan\n" in out.getvalue()

    def test_sweep_requires_grid(self, config_path):
        cfg = harness.load_config(config_path)
        with pytest.raises(ConfigError):
            harness.run_sweep(cfg)

    def test_sweep_residence_tracks_horizon(self, tmp_path):
        # doubling T roughly doubles the T-dominated residence level at the
        # smallest grid size (the ln-n share does not scale with T)
        levels = {}
        for T in (4, 8):
            path = tmp_path / f"sw{T}.ini"
            path.write_text(
                "[model]\nkind = coloring\nq = 16\n\n"
                "[graph]\nkind = random-regular\nn = 16\ndegree = 4\nseed = 16\n\n"
                f"[chain]\nT = {T}\n\n"
                "[scheduler]\npolicies = adversarial-max\n\n"
                "[experiment]\nseeds = 1:12\nn_grid = 16, 64\n"
            )
            _, summary = harness.run_sweep(harness.load_config(path))
            levels[T] = summary.means[16]
        ratio = levels[8] / levels[4]
        assert 1.5 < ratio < 3.0

    def test_sweep_no_edges_has_zero_residence(self, tmp_path):
        path = tmp_path / "sw0.ini"
        path.write_text(
            "[model]\nkind = coloring\nq = 4\n\n"
            "[graph]\nkind = empty\nn = 8\n\n"
            "[chain]\nT = 5\ny0 = zeros\n\n"
            "[scheduler]\npolicies = synchronous\n\n"
            "[experiment]\nseeds = 1:3\nn_grid = 8, 16\n"
        )
        _, summary = harness.run_sweep(harness.load_config(path))
        assert all(mean == 0.0 for mean in summary.means.values())

    @pytest.mark.parametrize("grid", ["9", "9, 9", "16, 9, 16"])
    def test_sweep_rejects_degenerate_grid(self, tmp_path, capsys, grid):
        # one size gave a fit through one point; a repeated size ran and printed its cells twice
        path = tmp_path / "sw.ini"
        path.write_text(BASE_CONFIG + f"n_grid = {grid}\n")
        with pytest.raises(ConfigError, match="n_grid"):
            harness.run_sweep(harness.load_config(path))
        assert cli.main(["sweep", str(path)]) == 2
        err = capsys.readouterr().err
        assert "n_grid" in err and "Traceback" not in err

    @pytest.mark.parametrize("grid", ["0, 4, 8", "-4, 4, 8"])
    def test_sweep_rejects_size_below_one(self, tmp_path, capsys, grid):
        # size 0 of an empty graph reached fit_log_n as ln 0: LAPACK lines, then "SVD did not converge"
        path = tmp_path / "sw.ini"
        path.write_text(BASE_CONFIG.replace("kind = cycle\nn = 6", "kind = empty\nn = 4") + f"n_grid = {grid}\n")
        assert cli.main(["sweep", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: [experiment] n_grid entries must be >= 1") and "Traceback" not in err

    @pytest.mark.parametrize("old, new, message", [
        ("q = 5", "q = x", "[model] q must be an integer, got 'x'"),
        ("T = 3.0", "T = abc", "[chain] T must be a number, got 'abc'"),
        ("seeds = 1:5", "seeds = 1:5\nn_grid = 8, x", "[experiment] n_grid must be an integer, got 'x'"),
        ("seeds = 1:5", "seeds = 1:x", "[experiment] seeds must be an integer, got 'x'"),
        ("seeds = 1:5", "seeds = 1:5\nruns = 1.5", "[experiment] runs must be an integer, got '1.5'"),
    ], ids=["q", "T", "n_grid", "seeds", "runs"])
    def test_non_numeric_entry_names_its_key(self, tmp_path, capsys, old, new, message):
        path = tmp_path / "bad.ini"
        path.write_text(BASE_CONFIG.replace(old, new))
        assert cli.main(["sweep", str(path)]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"

    @pytest.mark.parametrize("command", ["run", "verify-coupling", "tv-test", "dump-schedule"])
    def test_steps_per_node_schedules(self, tmp_path, monkeypatch, command):
        built = []
        build = harness.build_schedule

        def spy(cfg, model, seed):
            sch = build(cfg, model, seed)
            built.append((model.n, sch.total_updates, seed, sch.T))
            return sch

        monkeypatch.setattr(harness, "build_schedule", spy)
        monkeypatch.delenv(harness.WORKERS_ENV, raising=False)
        path, out = tmp_path / "steps.ini", tmp_path / "out.txt"
        path.write_text(STEPS_CONFIG)
        assert cli.main([command, str(path), "-o", str(out)]) == 0
        assert built and {(n, m) for n, m, *_ in built} == {(12, 30)}
        if command == "run":
            # the T column is each run's drawn horizon
            drawn = {seed: T for _, _, seed, T in built}
            rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
            assert len(rows) == 3 * 2 and all(float(r[6]) == drawn[int(r[0])] for r in rows)
        if command == "dump-schedule":
            assert len(out.read_text().splitlines()) == 1 + 30  # the header, then one line per update

    def test_sweep_steps_per_node_per_size(self, tmp_path, monkeypatch):
        # each size n runs round(S * n) updates; a shared horizon gave every size one T
        monkeypatch.setenv(harness.WORKERS_ENV, "1")  # the spy sees only this process's runs
        seen = []
        execute = netsim.run

        def spy(model, sch, *args, **kwargs):
            seen.append((model.n, sch.total_updates))
            return execute(model, sch, *args, **kwargs)

        monkeypatch.setattr(netsim, "run", spy)
        path = tmp_path / "sw.ini"
        path.write_text(STEPS_CONFIG.replace("kind = grid\nrows = 3\ncols = 4", "kind = cycle\nn = 6") + "n_grid = 4, 16\n")
        raw, _ = harness.run_sweep(harness.load_config(path))
        assert len(raw) == 2 * 3 and sorted(set(seen)) == [(4, 10), (16, 40)]

    def test_sweep_builds_one_cell_per_size_and_chunk(self, tmp_path, monkeypatch):
        # 70 seeds are a chunk of 64 and one of 6, so 3 sizes build 6 cells, where one per run built 210
        path = tmp_path / "grid.ini"
        path.write_text(GRID_SWEEP_CONFIG.format("4, 9, 16").replace("seeds = 1:5", "seeds = 1:70"))
        cfg = harness.load_config(path)
        built = []
        build = harness.build_cell

        def spy(cfg):
            built.append(cfg.graph_rows * cfg.graph_cols)
            return build(cfg)

        monkeypatch.setattr(harness, "build_cell", spy)
        monkeypatch.setenv(harness.WORKERS_ENV, "1")
        serial = io.StringIO()
        assert harness.cmd_sweep(cfg, serial) == 0
        assert built == [4, 4, 9, 9, 16, 16]
        assert len(serial.getvalue().splitlines()) == 1 + 3 * 70 + 3  # header, runs, fit lines
        monkeypatch.setattr(harness, "build_cell", build)
        monkeypatch.setenv(harness.WORKERS_ENV, "2")
        pooled = io.StringIO()
        assert harness.cmd_sweep(cfg, pooled) == 0
        assert pooled.getvalue() == serial.getvalue()

    @pytest.mark.parametrize("workers, seeds, chunks", [
        (2, 70, [35, 35]), (4, 70, [18, 18, 18, 16]), (8, 100, [13] * 7 + [9]), (2, 200, [64] * 3 + [8]),
    ])
    def test_sweep_gives_each_worker_a_chunk(self, tmp_path, monkeypatch, workers, seeds, chunks):
        # seeds split evenly over the workers, so a pool never waits on one worker's serial run of 64 seeds
        path = tmp_path / "grid.ini"
        path.write_text(GRID_SWEEP_CONFIG.format("4, 9, 16").replace("seeds = 1:5", f"seeds = 1:{seeds}"))
        cfg = harness.load_config(path)
        tasks = []

        class InlinePool:  # the pool's task list, run in this process
            def __init__(self, size):
                assert size == workers

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def imap(self, fn, args):
                tasks.extend(args)
                return map(fn, tasks)

        monkeypatch.setattr(harness, "Pool", InlinePool)
        monkeypatch.setenv(harness.WORKERS_ENV, str(workers))
        pooled = io.StringIO()
        assert harness.cmd_sweep(cfg, pooled) == 0
        assert [(c.graph_rows, len(s)) for c, s, _ in tasks] == [(side, k) for side in (2, 3, 4) for k in chunks]
        monkeypatch.setenv(harness.WORKERS_ENV, "1")
        serial = io.StringIO()
        assert harness.cmd_sweep(cfg, serial) == 0
        assert pooled.getvalue() == serial.getvalue()

    def test_verify_coupling_empty_schedule(self, tmp_path):
        path = tmp_path / "t0.ini"
        path.write_text(BASE_CONFIG.replace("T = 3.0", "T = 0"))
        cfg = harness.load_config(path)
        out = io.StringIO()
        assert harness.cmd_verify_coupling(cfg, out) == 0

    @pytest.mark.parametrize("runs", [60, 130])  # one chunk of seeds; two full chunks and a part one
    def test_tv_worker_pool_matches_serial(self, tmp_path, monkeypatch, runs):
        path = tmp_path / "tv.ini"
        path.write_text(
            "[model]\nkind = hardcore\nlambda = 1.0\n\n"
            "[graph]\nkind = cycle\nn = 3\n\n"
            "[chain]\nT = 10\ny0 = zeros\n\n"
            "[scheduler]\npolicies = synchronous\n\n"
            f"[experiment]\nseeds = 5:5\nruns = {runs}\n"
        )
        cfg = harness.load_config(path)
        seen = []
        build = harness.build_schedule

        def spy(cfg, model, seed):
            seen.append(seed)
            return build(cfg, model, seed)

        monkeypatch.setattr(harness, "build_schedule", spy)
        monkeypatch.setenv(harness.WORKERS_ENV, "1")
        serial = harness.empirical_tv(cfg)
        assert sorted(seen) == list(range(5, 5 + runs))  # each seed of the batch runs exactly once
        monkeypatch.setenv(harness.WORKERS_ENV, "2")
        pooled = harness.empirical_tv(cfg)
        assert pooled == pytest.approx(serial)

    def test_fit_log_n(self):
        ns = [10, 100, 1000]
        ys = [2 + 0.5 * math.log(n) for n in ns]
        a, b, r2, resid = harness.fit_log_n(ns, ys)
        assert a == pytest.approx(2.0)
        assert b == pytest.approx(0.5)
        assert r2 == pytest.approx(1.0)
        assert max(abs(r) for r in resid) < 1e-9


class TestCsv:
    def test_row_fields_and_header(self):
        m, s, y0 = alternating_fixture()
        res = run(m, s, y0, FixedDelayScheduler())
        report = phase2_residence(res)
        row = harness.run_csv_row(7, "synchronous", m, res, report)
        assert len(row) == len(harness.CSV_FIELDS)
        assert {type(x) for x in row} <= {int, float, str}  # a np.float64 would repr differently
        buf = io.StringIO()
        harness.write_csv([harness.CSV_FIELDS, row], buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == ",".join(harness.CSV_FIELDS)
        assert len(lines) == 2


class TestCli:
    def test_run_roundtrip(self, config_path, tmp_path, capsys):
        out = tmp_path / "runs.csv"
        assert cli.main(["run", str(config_path), "-o", str(out)]) == 0
        first = out.read_text()
        assert cli.main(["run", str(config_path), "-o", str(out)]) == 0
        assert out.read_text() == first

    def test_run_writes_final_configurations(self, config_path, tmp_path):
        out = tmp_path / "runs.csv"
        finals = tmp_path / "finals.txt"
        assert cli.main(["run", str(config_path), "-o", str(out), "--finals", str(finals)]) == 0
        lines = finals.read_text().splitlines()
        assert len(lines) == 5 * 2
        seed, policy, *states = lines[0].split()
        assert int(seed) == 1 and len(states) == 6
        assert all(0 <= int(x) < 5 for x in states)

    def test_missing_config_exits_2(self, tmp_path):
        assert cli.main(["run", str(tmp_path / "absent.ini")]) == 2

    def test_missing_graph_file_exits_2(self, tmp_path):
        path = tmp_path / "e.ini"
        path.write_text(
            BASE_CONFIG.replace("kind = cycle\nn = 6", "kind = edgelist\npath = missing.txt")
        )
        assert cli.main(["run", str(path)]) == 2

    def test_sweep_over_edge_list_exits_2(self, tmp_path, capsys):
        # the file fixes n: every n_grid size reran the 4-cycle under its own n label
        (tmp_path / "c4.txt").write_text("0 1\n1 2\n2 3\n3 0\n")
        path = tmp_path / "e.ini"
        path.write_text(BASE_CONFIG.replace("kind = cycle\nn = 6", "kind = edgelist\npath = c4.txt") + "n_grid = 8, 16\n")
        assert cli.main(["run", str(path), "-o", str(tmp_path / "runs.csv")]) == 0
        assert cli.main(["sweep", str(path), "-o", str(tmp_path / "sweep.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: [graph] kind = edgelist takes its size from the file") and "Traceback" not in err

    @pytest.mark.parametrize("flag", ["-o", "--finals"])
    def test_unwritable_output_exits_2(self, config_path, tmp_path, capsys, flag):
        bad = tmp_path / "absent" / "out.txt"
        assert cli.main(["run", str(config_path), flag, str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(bad) in err and "Traceback" not in err

    def test_infeasible_random_regular_exits_2(self, tmp_path, capsys):
        # no d-regular graph on n nodes exists when n*d is odd or d >= n
        path = tmp_path / "rr.ini"
        for graph, message in [("n = 7\ndegree = 3", "n*degree must be even"),
                               ("n = 8\ndegree = 8", "degree must satisfy 0 <= d < n")]:
            path.write_text(BASE_CONFIG.replace("kind = cycle\nn = 6", f"kind = random-regular\n{graph}"))
            assert cli.main(["run", str(path)]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"error: {message}") and "Traceback" not in err

    def test_complete_random_regular_runs(self, tmp_path, capsys):
        # K8 is the one 8-node 7-regular graph: rejection almost never finds it, Steger-Wormald does
        path = tmp_path / "k8.ini"
        path.write_text(BASE_CONFIG.replace("q = 5", "q = 9").replace(
            "kind = cycle\nn = 6", "kind = random-regular\nn = 8\ndegree = 7"))
        assert cli.main(["run", str(path)]) == 0
        assert capsys.readouterr().out.count("\n") == 1 + 5 * 2  # header + seeds x policies

    def test_verify_coupling_cli(self, config_path, capsys):
        assert cli.main(["verify-coupling", str(config_path)]) == 0
        assert "all exact" in capsys.readouterr().out

    def test_verify_coupling_mismatch_exits_1(self, config_path, capsys, monkeypatch):
        # an engine whose final state at node 2 is one colour off the sequential chain's
        right = netsim.run

        def off_by_one(model, sch, y0, scheduler):
            res = right(model, sch, y0, scheduler)
            final = res.final.copy()
            final[2] = (final[2] + 1) % model.q
            return dataclasses.replace(res, final=final)

        cfg = harness.load_config(config_path)
        model, y0 = harness.build_cell(cfg)
        want = int(oracle.run_continuous(model, harness.build_schedule(cfg, model, 1), y0).final[2])
        monkeypatch.setattr(netsim, "run", off_by_one)
        assert cli.main(["verify-coupling", str(config_path)]) == 1
        out = capsys.readouterr().out
        assert out == f"MISMATCH seed=1 scheduler=synchronous node=2 expected={want} got={(want + 1) % 5}\n"

    def test_invariant_violation_exits_1(self, config_path, capsys, monkeypatch):
        # an engine that never resolves an update drains its queue with every node unfinished
        monkeypatch.setattr(netsim.Simulation, "try_resolve", lambda sim, node: None)
        assert cli.main(["run", str(config_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("simulation invariant violated: event queue drained") and "Traceback" not in err

    def test_tv_test_without_target_mass_exits_2(self, tmp_path, capsys):
        # a 3-cycle has no proper 2-colouring, so the exact distribution has no mass to normalise
        path = tmp_path / "tv.ini"
        path.write_text(
            "[model]\nkind = coloring\nq = 2\n\n"
            "[graph]\nkind = cycle\nn = 3\n\n"
            "[chain]\nT = 1\ny0 = zeros\n\n"
            "[experiment]\nseeds = 1:1\nruns = 5\n"
        )
        assert cli.main(["tv-test", str(path)]) == 2
        assert capsys.readouterr().err == "error: weight function assigns zero mass everywhere\n"

    def test_grid_sweep_over_square_sizes(self, tmp_path):
        path = tmp_path / "grid.ini"
        path.write_text(GRID_SWEEP_CONFIG.format("4, 9, 16"))
        out = tmp_path / "sweep.csv"
        assert cli.main(["sweep", str(path), "-o", str(out)]) == 0
        rows = [line for line in out.read_text().splitlines()[1:] if not line.startswith("#")]
        assert sorted({int(line.split(",")[0]) for line in rows}) == [4, 9, 16]

    def test_dump_schedule_and_reload(self, config_path, tmp_path):
        out = tmp_path / "sched.txt"
        assert cli.main(["dump-schedule", str(config_path), "-o", str(out)]) == 0
        cfg = harness.load_config(config_path)
        s = harness.build_schedule(cfg, harness.build_cell(cfg)[0], cfg.seeds[0])
        assert (s.n, s.seed) == (6, 1)
        assert_dump_exact(out.read_text(), s)

    def test_replay_trace_cli(self, tmp_path, capsys):
        from asyncmetro import FixedDelayScheduler, cycle_graph, generate, make_coloring, run

        m = make_coloring(cycle_graph(4), 4)
        s = generate(m, 3.0, 6)
        res = run(m, s, [0, 1, 0, 1], FixedDelayScheduler(), collect_trace=True)
        trace = tmp_path / "trace.txt"
        with open(trace, "w") as fh:
            netsim.write_trace(res.trace, fh)
        assert cli.main(["replay-trace", str(trace)]) == 0
        out = capsys.readouterr().out
        assert f"makespan={res.stats.makespan!r}" in out
        assert f"total_bits={res.stats.total_bits}" in out

    @pytest.mark.parametrize("text, named", [
        (STEPS_CONFIG.replace("lambda = 1.0", "lamda = 50"), "[model] unknown key(s) lamda;"),
        (STEPS_CONFIG.replace("seed = 4", "policy = uniform"), "[scheduler] unknown key(s) policy;"),
        (STEPS_CONFIG + "[extra]\nruns = 5\n", "unknown config section [extra];"),
        ("[DEFAULT]\nseed = 2\n" + STEPS_CONFIG, "[DEFAULT] unknown key(s) seed;"),
    ], ids=["misspelled-key", "second-spelling", "unknown-section", "default-section"])
    def test_unread_config_entry_exits_2(self, tmp_path, capsys, text, named):
        path = tmp_path / "bad.ini"
        path.write_text(text)
        assert cli.main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and named in err and "Traceback" not in err

    def test_module_entry_point(self):
        # python -m asyncmetro runs the CLI from a checkout, without an install
        src = str(Path(harness.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-m", "asyncmetro", "--help"], env=env,
                              capture_output=True, text=True, timeout=10)
        assert done.returncode == 0 and "replay-trace" in done.stdout

    def test_replay_trace_missing_file(self, tmp_path):
        assert cli.main(["replay-trace", str(tmp_path / "nope.txt")]) == 2

    def test_replay_trace_without_termination_exits_2(self, tmp_path, capsys):
        trace = tmp_path / "trace.txt"
        trace.write_text("0.0 enter -1 0\n")
        assert cli.main(["replay-trace", str(trace)]) == 2
        assert capsys.readouterr().err == "error: trace has a node that entered Phase II and never terminated\n"

    @pytest.mark.parametrize("text", [
        "kind = coloring\n" + BASE_CONFIG,
        BASE_CONFIG + "[graph]\nkind = cycle\n",
        BASE_CONFIG.replace("q = 5", "q = 5\nq = 6"),
    ], ids=["no-section-header", "duplicate-section", "duplicate-option"])
    def test_malformed_ini_exits_2(self, tmp_path, capsys, text):
        path = tmp_path / "bad.ini"
        path.write_text(text)
        assert cli.main(["run", str(path)]) == 2
        assert capsys.readouterr().err.startswith("config error: malformed config")

    def test_percent_in_value_exits_2(self, tmp_path, capsys):
        # with interpolation on, "%" would fail in a later lookup instead of at parsing
        path = tmp_path / "pct.ini"
        path.write_text(BASE_CONFIG.replace("seeds = 1:5", "seeds = 1:2%"))
        assert cli.main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "Traceback" not in err

    @pytest.mark.parametrize("command, text, message", [
        ("run", BASE_CONFIG.replace("T = 3.0", "T = 3.0\nsteps_per_node = 2"),
         "[chain] give exactly one of T and steps_per_node"),
        ("run", BASE_CONFIG.replace("T = 3.0", ""), "[chain] give exactly one of T and steps_per_node"),
        ("run", BASE_CONFIG.replace("T = 3.0", "T = 3.0\ny0 = fixed"), "[chain] y0 = fixed needs y0_values"),
        # the values were dropped unread, and the run started from the greedy colouring
        ("run", BASE_CONFIG.replace("T = 3.0", "T = 3.0\ny0_values = 0 1 2 3 4 0"),
         "[chain] y0_values needs y0 = fixed"),
        ("run", BASE_CONFIG.replace("seeds = 1:5", "seeds ="), "no seeds configured"),
        ("run", BASE_CONFIG.replace("seeds = 1:5", "seeds = 5:1"), "[experiment] seeds range '5:1' is empty"),
        ("run", BASE_CONFIG.replace("kind = cycle", "kind = torus"), "unknown graph kind 'torus'"),
        ("run", STEPS_CONFIG.replace("y0 = zeros", "y0 = greedy"), "y0 = greedy only applies to coloring models"),
        ("run", BASE_CONFIG.replace("T = 3.0", "T = 3.0\ny0 = random"), "unknown y0 policy 'random'"),
        ("sweep", GRID_SWEEP_CONFIG.format("4, 8"), "grid sweep sizes must be perfect squares, got 8"),
    ], ids=["T-and-steps", "neither-T-nor-steps", "fixed-without-values", "values-without-fixed", "no-seeds",
            "empty-seed-range", "unknown-graph-kind", "greedy-on-hardcore", "unknown-y0-policy",
            "non-square-grid-sweep"])
    def test_config_error_exits_2(self, tmp_path, capsys, command, text, message):
        path = tmp_path / "bad.ini"
        path.write_text(text)
        assert cli.main([command, str(path), "-o", str(tmp_path / "out.csv")]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"

    @pytest.mark.parametrize("command", ["run", "dump-schedule", "tv-test"])
    @pytest.mark.parametrize("text, message", [
        (BASE_CONFIG.replace("T = 3.0", "T = 3.0\ny0 = random"), "unknown y0 policy 'random'"),
        (STEPS_CONFIG.replace("y0 = zeros", "y0 = greedy"), "y0 = greedy only applies to coloring models"),
        (BASE_CONFIG.replace("T = 3.0", "T = 3.0\ny0 = fixed\ny0_values = 0 1"),
         "y0_values has length 2, graph has 6 nodes"),
    ], ids=["unknown-y0-policy", "greedy-on-hardcore", "y0-values-wrong-length"])
    def test_every_command_rejects_a_bad_y0(self, tmp_path, capsys, command, text, message):
        # dump-schedule starts no run, yet refuses every y0 that run refuses
        path = tmp_path / "bad.ini"
        path.write_text(text)
        assert cli.main([command, str(path), "-o", str(tmp_path / "out.txt")]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"

    def test_fixed_policy_rejected(self, tmp_path, capsys):
        # fixed delays need a per-channel table, which only Python code can build
        path = tmp_path / "fixed.ini"
        path.write_text(BASE_CONFIG.replace("policies = synchronous, uniform", "policies = uniform, fixed"))
        with pytest.raises(ConfigError, match="unknown scheduler policy 'fixed'"):
            harness.load_config(path)
        assert cli.main(["run", str(path)]) == 2
        assert capsys.readouterr().err.startswith("config error:")

    @pytest.mark.parametrize("chain", ["T = inf", "T = nan", "steps_per_node = inf",
                                       "steps_per_node = nan", "steps_per_node = -0.5"])
    def test_non_finite_horizon_exits_2(self, tmp_path, capsys, chain):
        key = chain.split()[0]
        path = tmp_path / "t.ini"
        path.write_text(BASE_CONFIG.replace("T = 3.0", chain))
        with pytest.raises(ConfigError, match=rf"\[chain\] {key}"):
            harness.load_config(path)
        assert cli.main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: [chain] {key}") and "Traceback" not in err

    @pytest.mark.parametrize("old, new, message", [
        ("seeds = 1:5", "seeds = 0:99999999999999",
         "[experiment] seeds is too large to hold in memory, got '0:99999999999999'"),
        ("seeds = 1:5", "seeds = 0:99999999999999999999999",
         "[experiment] seeds is too large to hold in memory, got '0:99999999999999999999999'"),
        ("T = 3.0", "T = 3.0\ny0 = fixed\ny0_values = 0 1 2 3 4 99999999999999999999999",
         "y0_values out of range 0..4"),
    ], ids=["seed-range-unallocatable", "seed-range-past-ssize_t", "y0-value-past-int64"])
    def test_oversized_config_value_exits_2(self, tmp_path, capsys, old, new, message):
        # the first range's records would take 800 TB at 8 bytes a seed, more than
        # any host's memory, and the second's length passes sys.maxsize; neither is listed
        path = tmp_path / "big.ini"
        path.write_text(BASE_CONFIG.replace(old, new))
        assert cli.main(["run", str(path)]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"

    @pytest.mark.parametrize("command", ["run", "dump-schedule"])
    def test_unallocatable_horizon_exits_2(self, tmp_path, capsys, command):
        # the first block of gaps would take 142 PiB, beyond any 64-bit address
        # space, so numpy fails at once and touches no memory
        path = tmp_path / "big.ini"
        path.write_text(BASE_CONFIG.replace("n = 6", "n = 4").replace("T = 3.0", "T = 1e16"))
        assert cli.main([command, str(path), "-o", str(tmp_path / "out.txt")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: Unable to allocate") and "Traceback" not in err

    @pytest.mark.parametrize("old, new, key", [
        ("kind = cycle\nn = 6", "kind = random-regular\nn = 8\ndegree = 3\nseed = -1", "[graph] seed"),
        ("seed = 4", "seed = -4", "[scheduler] seed"),
        ("seeds = 1:5", "seeds = -3:-1", "[experiment] seeds"),
    ], ids=["graph", "scheduler", "experiment"])
    def test_negative_seed_exits_2(self, tmp_path, capsys, old, new, key):
        # numpy's and schedule.generate's own errors name no config key, and the
        # latter printed as a run error
        path = tmp_path / "seed.ini"
        path.write_text(BASE_CONFIG.replace(old, new))
        with pytest.raises(ConfigError, match=re.escape(key)):
            harness.load_config(path)
        assert cli.main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {key} must be >= 0") and "Traceback" not in err

    def test_infinite_fugacity_exits_2(self, tmp_path, capsys):
        path = tmp_path / "lam.ini"
        path.write_text(BASE_CONFIG.replace("kind = coloring\nq = 5", "kind = hardcore\nlambda = inf"))
        assert cli.main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert "fugacity" in err and "Traceback" not in err

    @pytest.mark.parametrize("runs", ["0", "-5"])
    def test_no_runs_exits_2(self, tmp_path, capsys, runs):
        text = (
            "[model]\nkind = hardcore\nlambda = 1.0\n\n"
            "[graph]\nkind = cycle\nn = 3\n\n"
            "[chain]\nT = 1\ny0 = zeros\n\n"
            "[experiment]\nseeds = 1:1\nruns = {}\n"
        )
        path = tmp_path / "r.ini"
        path.write_text(text.format(runs))
        with pytest.raises(ConfigError, match="runs"):
            harness.load_config(path)
        assert cli.main(["tv-test", str(path)]) == 2
        err = capsys.readouterr().err
        assert "runs" in err and "Traceback" not in err
        path.write_text(text.format(5))
        with pytest.raises(ConfigError, match="run"):
            harness.empirical_tv(dataclasses.replace(harness.load_config(path), runs=int(runs)))

    @pytest.mark.parametrize("bad", [
        "0.5 info 1",
        "0.5 info 0 1 bits=3 maxfrag=2",
        "0.0 enter -1 0 extra=1",
        "0.5 dec 1 0 foo=bar",
        "0.5 resolve -1 0 i=1 accept=1 trigger=self junk=2",
        "0.5 dec 1 0 j=1 accept=1",
        "0.5 dec 1 0 accept=2 j=1",
        "0.5 resolve -1 0 i=1 accept=yes trigger=self",
        "0.5 dec 1 0 accept=1 j=abc",
        "0.5 dec 1 0 accept=1 j=1.5",
        "0.5 dec 1 0 accept=1 j=-1",
        "0.5 resolve -1 0 i=-1 accept=1 trigger=self",
        "0.5 resolve -1 0 i=1 accept=1 trigger=1:x",
        "0.5 info 1 0 frags=2 bits=9 maxfrag=nan",
    ], ids=["too-few-fields", "missing-payload-key", "enter-extra-key", "dec-unknown-key",
            "resolve-extra-key", "keys-out-of-order", "dec-accept-2", "resolve-accept-yes",
            "dec-j-abc", "dec-j-float", "dec-j-negative", "resolve-i-negative",
            "resolve-trigger-bad", "info-maxfrag-nan"])
    def test_malformed_trace_exits_2(self, tmp_path, capsys, bad):
        trace = tmp_path / "trace.txt"
        trace.write_text(f"0.0 enter -1 0\n{bad}\n")
        assert cli.main(["replay-trace", str(trace)]) == 2
        err = capsys.readouterr().err
        assert "trace line 2" in err and "Traceback" not in err

    def test_trace_with_events_out_of_place_exits_2(self, tmp_path, capsys):
        # a second enter for node 0, a term before node 1's enter, a resolve for
        # node 3, which never entered: each line alone replays, the traces do not
        for k, bad in enumerate(["0.5 enter -1 0", "0.5 term -1 1", "0.5 resolve -1 3 i=1 accept=1 trigger=self"]):
            trace = tmp_path / f"trace{k}.txt"
            trace.write_text(f"0.0 enter -1 0\n{bad}\n0.6 term -1 0\n")
            assert cli.main(["replay-trace", str(trace)]) == 2
            err = capsys.readouterr().err
            assert "trace line 2" in err and "out of place" in err and "Traceback" not in err

    @pytest.mark.parametrize("value", ["abc", "0", "-1"])
    @pytest.mark.parametrize("command", ["sweep", "tv-test"])
    def test_bad_worker_count_exits_2(self, tmp_path, capsys, monkeypatch, command, value):
        # only values that start no pool
        path = tmp_path / "w.ini"
        path.write_text(
            "[model]\nkind = hardcore\nlambda = 1.0\n\n"
            "[graph]\nkind = cycle\nn = 3\n\n"
            "[chain]\nT = 1\ny0 = zeros\n\n"
            "[scheduler]\npolicies = synchronous\n\n"
            "[experiment]\nseeds = 1:2\nruns = 5\nn_grid = 3, 4\n"
        )
        monkeypatch.setenv(harness.WORKERS_ENV, value)
        with pytest.raises(ConfigError, match=harness.WORKERS_ENV):
            harness.worker_count()
        assert cli.main([command, str(path)]) == 2
        err = capsys.readouterr().err
        assert harness.WORKERS_ENV in err and "Traceback" not in err

    @pytest.mark.parametrize("old, new, command, message", [
        ("n = 6", "n = 100000000000000000000", "run", "[graph] n must be <= 2^32 nodes, got 100000000000000000000"),
        ("kind = cycle\nn = 6", "kind = grid\nrows = 100000\ncols = 100000", "run",
         "[graph] rows x cols must be <= 2^32 nodes, got 10000000000"),
        ("seeds = 1:5", f"seeds = 1:5\nn_grid = 4, {2**40}", "sweep",
         f"[experiment] n_grid entries must be <= 2^32 nodes, got {2**40}"),
    ], ids=["cycle-n", "grid-rows-x-cols", "n_grid-entry"])
    def test_graph_past_2_32_nodes_exits_2(self, tmp_path, old, new, command, message):
        # schedule.generate keys each node's stream by a uint32 id; such a graph was built until memory ran out
        path = tmp_path / "huge.ini"
        path.write_text(BASE_CONFIG.replace(old, new))
        done = run_capped_cli(command, str(path))
        assert (done.returncode, done.stderr) == (2, f"config error: {message}\n")

    def test_edge_list_node_past_2_32_exits_2(self, tmp_path):
        # a node id of 2^32 asked Graph for 2^32 + 1 neighbour sets
        (tmp_path / "huge.txt").write_text("0 4294967296\n")
        path = tmp_path / "e.ini"
        path.write_text(BASE_CONFIG.replace("kind = cycle\nn = 6", "kind = edgelist\npath = huge.txt"))
        done = run_capped_cli("run", str(path))
        assert (done.returncode, done.stderr) == (2, f"error: {tmp_path / 'huge.txt'}:1: node ids must be < 2^32, got 4294967296\n")

    def test_bare_memory_error_is_named(self, config_path, capsys, monkeypatch):
        def out_of_memory(cfg):
            raise MemoryError

        monkeypatch.setattr(harness, "build_cell", out_of_memory)
        assert cli.main(["run", str(config_path)]) == 2
        assert capsys.readouterr().err == "error: MemoryError\n"

    def test_every_subcommand_is_documented(self, capsys):
        # a command or a CSV column added or dropped without its --help epilog entry
        # and README line fails here
        with pytest.raises(SystemExit):
            cli.main(["--help"])
        text = capsys.readouterr().out
        commands = set(re.search(r"\{([^}]*)\}", text).group(1).split(","))
        epilog = re.search(r"Subcommands: ([^.]*)\.", text).group(1)
        assert {name.strip() for name in epilog.split(",")} == commands
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("## CLI\n\n```\n")[1].split("```")[0]
        assert set(re.findall(r"^asyncmetro (\S+)", block, re.M)) == commands
        schemas = re.search(r"^  run +([\w,\s]+?)\n  sweep +([\w,\s]+?)  \(", text, re.M)
        readme_columns = (re.search(rf"{kind} CSV\s+columns: `([^`]*)`", readme).group(1)
                          for kind in ("Run", "Sweep"))
        for columns, fields in zip([*schemas.groups(), *readme_columns], [harness.CSV_FIELDS, harness.SWEEP_FIELDS] * 2):
            assert [name.strip() for name in columns.split(",")] == list(fields), columns

    def test_worker_count_reads_environment(self, monkeypatch):
        monkeypatch.delenv(harness.WORKERS_ENV, raising=False)
        assert harness.worker_count() == 1
        monkeypatch.setenv(harness.WORKERS_ENV, "2")
        assert harness.worker_count() == 2
