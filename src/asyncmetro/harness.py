"""Experiment harness: config parsing, seeded batch execution, post-processing.

Config files are INI-style with sections [model], [graph], [chain],
[scheduler], and [experiment]. Every run is a pure function of (config,
seed), so repeated invocations produce byte-identical outputs. run_chunk runs
one batch: a chunk of seeds on one config's model, each seed's schedule drawn
once for all its policies. tv-test and sweep split each config's seeds evenly
over the workers of a process pool sized by the ASYNCMETRO_WORKERS variable
(default 1), in chunks of at most CHUNK; a sweep size is the config resized.
"""

from __future__ import annotations

import configparser
import math
import os
from collections import Counter
from dataclasses import dataclass, field, fields, replace
from functools import partial
from multiprocessing import Pool
from pathlib import Path
from typing import IO, Sequence

import numpy as np

from . import graphs, instrument, models, netsim, oracle, schedule as sched
from .models import SpinModel

WORKERS_ENV = "ASYNCMETRO_WORKERS"

# Statistical tolerances, sized to the default sample budgets: the sampling
# noise of a TV estimate at 1e4 runs stays well under 0.05, and three or more
# grid points make R^2 >= 0.8 a meaningful fit-quality bar.
TV_LIMIT = 0.05
FIT_R2_LIMIT = 0.8

# The built-in model kinds: kind -> (maker, the ExperimentConfig field of its one parameter)
MODEL_KINDS = {"coloring": (models.make_coloring, "q"), "hardcore": (models.make_hardcore, "lam"),
               "ising": (models.make_ising, "beta")}


class ConfigError(ValueError):
    pass


def _number(kind: type, text: str):
    """kind(text) for kind int or float; a ValueError naming the token otherwise."""
    try:
        return kind(text)
    except ValueError:
        what = "an integer" if kind is int else "a number"
        raise ValueError(f"must be {what}, got {text.strip()!r}") from None


_int = partial(_number, int)
_float = partial(_number, float)


def _ints(text: str) -> list[int]:
    """A comma- or space-separated list of ints."""
    return [_int(x) for x in text.replace(",", " ").split()]


def _seeds(spec: str) -> Sequence[int]:
    """Either "a:b", an inclusive range kept as a range, or a comma list of ints; none below 0."""
    if ":" in spec:
        lo, hi = (_int(x) for x in spec.split(":", 1))
        if hi < lo:
            raise ValueError(f"range {spec.strip()!r} is empty")
        seeds, least = range(lo, hi + 1), lo
        # run and sweep keep a record per seed, an 8-byte reference at the least;
        # len raises OverflowError past sys.maxsize
        if len(seeds) * 8 > os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE"):
            raise MemoryError
    else:
        seeds = _ints(spec)
        least = min(seeds, default=0)
    if least < 0:  # numpy's and schedule.generate's own errors name no key
        raise ValueError(f"must be >= 0, got {least}")
    return seeds


def _word(text: str) -> str:
    return text.strip().lower()


def _names(text: str) -> list[str]:
    return [p.strip() for p in text.split(",")]


def _key(section: str, key: str, parse, default: str | None):
    """A field that load_config reads from `key` in [section] as parse(text). An absent
    key reads as the default text; a default of None leaves the field None."""
    return field(metadata={"config": (section, key, parse, default)})


@dataclass
class ExperimentConfig:
    model_kind: str = _key("model", "kind", _word, "")
    q: int = _key("model", "q", _int, "2")
    lam: float = _key("model", "lambda", _float, "1.0")
    beta: float = _key("model", "beta", _float, "0.0")
    graph_kind: str = _key("graph", "kind", _word, "")
    graph_n: int = _key("graph", "n", _int, "0")
    graph_degree: int = _key("graph", "degree", _int, "0")
    graph_rows: int = _key("graph", "rows", _int, "0")
    graph_cols: int = _key("graph", "cols", _int, "0")
    graph_seed: int = _key("graph", "seed", _int, "0")
    graph_path: str = _key("graph", "path", str.strip, "")
    T: float | None = _key("chain", "T", _float, None)  # the Poisson horizon; None when steps_per_node is set
    steps_per_node: float | None = _key("chain", "steps_per_node", _float, None)  # S: exactly round(S * n) updates
    y0_policy: str = _key("chain", "y0", _word, "default")
    y0_values: list[int] | None = _key("chain", "y0_values", _ints, None)
    scheduler_policies: list[str] = _key("scheduler", "policies", _names, "synchronous")
    scheduler_seed: int = _key("scheduler", "seed", _int, "0")
    seeds: Sequence[int] = _key("experiment", "seeds", _seeds, "1:10")
    n_grid: list[int] = _key("experiment", "n_grid", _ints, "")
    runs: int = _key("experiment", "runs", _int, "1000")
    base_dir: Path = field(default_factory=Path)


def load_config(path: str | Path) -> ExperimentConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    # no option uses interpolation, so a "%" in a value stays a plain character
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), interpolation=None)
    try:
        parser.read(path)
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"malformed config: {exc}") from None
    keys: dict[str, list[str]] = {"DEFAULT": []}  # a key under [DEFAULT] would reach every section
    values = {}
    for f in fields(ExperimentConfig):
        if "config" not in f.metadata:
            continue
        section, key, parse, default = f.metadata["config"]
        keys.setdefault(section, []).append(key)
        text = parser.get(section, key, fallback=default)
        try:
            values[f.name] = None if text is None else parse(text)
        except ValueError as exc:
            raise ConfigError(f"[{section}] {key} {exc}") from None
        except (OverflowError, MemoryError):  # a seed range too long to run
            raise ConfigError(f"[{section}] {key} is too large to hold in memory, got {text.strip()!r}") from None
    for name, section in parser.items():  # [DEFAULT] first
        if name not in keys:
            raise ConfigError(f"unknown config section [{name}]; sections are {', '.join(keys)}")
        unknown = [k for k in section if k not in [key.lower() for key in keys[name]]]
        if unknown:
            raise ConfigError(f"[{name}] unknown key(s) {', '.join(unknown)}; keys are {', '.join(keys[name])}")
    for name in ("model", "graph", "chain"):
        if not parser.has_section(name):
            raise ConfigError(f"missing config section {name!r}")
    cfg = ExperimentConfig(**values, base_dir=path.parent)
    if cfg.model_kind not in MODEL_KINDS:
        raise ConfigError(f"[model] kind must be {'|'.join(MODEL_KINDS)}, got {cfg.model_kind!r}")
    if (cfg.T is None) == (cfg.steps_per_node is None):
        raise ConfigError("[chain] give exactly one of T and steps_per_node")
    key, length = ("T", cfg.T) if cfg.steps_per_node is None else ("steps_per_node", cfg.steps_per_node)
    if not 0 <= length < math.inf:
        raise ConfigError(f"[chain] {key} must be finite and >= 0, got {length}")
    if cfg.y0_policy == "fixed" and cfg.y0_values is None:
        raise ConfigError("[chain] y0 = fixed needs y0_values")
    if cfg.y0_policy != "fixed" and cfg.y0_values is not None:  # it would be dropped unread
        raise ConfigError("[chain] y0_values needs y0 = fixed")
    for p in cfg.scheduler_policies:
        if p not in netsim.SCHEDULER_POLICIES:
            raise ConfigError(f"unknown scheduler policy {p!r}")
    for key, seed in (("[graph] seed", cfg.graph_seed), ("[scheduler] seed", cfg.scheduler_seed)):
        if seed < 0:  # numpy's and schedule.generate's own errors name no key
            raise ConfigError(f"{key} must be >= 0, got {seed}")
    if not cfg.seeds:
        raise ConfigError("no seeds configured")
    if cfg.runs < 1:
        raise ConfigError(f"[experiment] runs must be >= 1, got {cfg.runs}")
    if min(cfg.n_grid, default=1) < 1:  # a size of 0 reached fit_log_n as ln 0
        raise ConfigError(f"[experiment] n_grid entries must be >= 1, got {min(cfg.n_grid)}")
    for key, n in (("[graph] n", cfg.graph_n), ("[graph] rows x cols", cfg.graph_rows * cfg.graph_cols),
                   ("[experiment] n_grid entries", max(cfg.n_grid, default=0))):
        if n > graphs.MAX_NODES:  # else a generated graph grew Python lists until the process was killed
            raise ConfigError(f"{key} must be <= 2^32 nodes, got {n}")
    return cfg


def build_graph(cfg: ExperimentConfig) -> graphs.Graph:
    kind, n = cfg.graph_kind, cfg.graph_n
    if kind == "cycle":
        return graphs.cycle_graph(n)
    if kind == "grid":
        return graphs.grid_graph(cfg.graph_rows, cfg.graph_cols)
    if kind == "random-regular":
        return graphs.random_regular_graph(n, cfg.graph_degree, cfg.graph_seed)
    if kind == "edgelist":
        path = Path(cfg.graph_path)
        if not path.is_absolute():
            path = cfg.base_dir / path
        if not path.exists():
            raise ConfigError(f"graph file not found: {path}")
        return graphs.read_edge_list(path)
    if kind == "empty":
        return graphs.empty_graph(n)
    raise ConfigError(f"unknown graph kind {cfg.graph_kind!r}")


def initial_configuration(cfg: ExperimentConfig, model: SpinModel) -> np.ndarray:
    policy = cfg.y0_policy
    if policy == "default":
        policy = "greedy" if model.kind == "coloring" else "zeros"
    if policy == "zeros":
        return np.zeros(model.n, dtype=np.int64)
    if policy == "greedy":
        if model.kind != "coloring":
            raise ConfigError("y0 = greedy only applies to coloring models")
        try:
            return graphs.greedy_coloring(model.graph, model.q)
        except ValueError as exc:
            raise ConfigError(f"{exc}; use y0 = fixed or zeros") from None
    if policy == "fixed":
        if len(cfg.y0_values) != model.n:
            raise ConfigError(f"y0_values has length {len(cfg.y0_values)}, graph has {model.n} nodes")
        if not all(0 <= x < model.q for x in cfg.y0_values):  # on Python ints, before an int64 cast can overflow
            raise ConfigError(f"y0_values out of range 0..{model.q - 1}")
        return np.asarray(cfg.y0_values, dtype=np.int64)
    raise ConfigError(f"unknown y0 policy {cfg.y0_policy!r}")


def _scheduler_for(policy: str, cfg: ExperimentConfig, run_seed: int) -> netsim.Scheduler:
    # uniform delays get a stream keyed by (scheduler seed, run seed)
    derived = int(np.random.SeedSequence(entropy=(cfg.scheduler_seed, run_seed)).generate_state(1)[0])
    return netsim.make_scheduler(policy, seed=derived)


def build_cell(cfg: ExperimentConfig) -> tuple[SpinModel, np.ndarray]:
    """The config's model and initial configuration."""
    make, param = MODEL_KINDS[cfg.model_kind]
    model = make(build_graph(cfg), getattr(cfg, param))
    return model, initial_configuration(cfg, model)


def sized(cfg: ExperimentConfig, n: int) -> ExperimentConfig:
    """cfg with its generated graph resized to n nodes, a grid to sqrt(n) x sqrt(n): one sweep size."""
    if cfg.graph_kind == "edgelist":  # the file fixes n, so every n_grid size would rerun one graph
        raise ConfigError("[graph] kind = edgelist takes its size from the file; sweep over n_grid needs a generated graph")
    side = math.isqrt(n)
    if cfg.graph_kind == "grid" and side * side != n:
        raise ConfigError(f"grid sweep sizes must be perfect squares, got {n}")
    return replace(cfg, graph_n=n, graph_rows=side, graph_cols=side)


def build_schedule(cfg: ExperimentConfig, model: SpinModel, seed: int) -> sched.UpdateSchedule:
    """One run's shared randomness: horizon T, or exactly round(S * n) updates for steps_per_node = S."""
    if cfg.steps_per_node is None:
        return sched.generate(model, cfg.T, seed)
    return sched.generate_steps(model, round(cfg.steps_per_node * model.n), seed)


METRIC_FIELDS = ("makespan", "phase1_end", "max_residence", "max_chain_length", "messages", "bits")
CSV_FIELDS = ("seed", "scheduler", "n", "max_degree", "model", "param", "T", *METRIC_FIELDS)
SWEEP_FIELDS = ("n", "seed", *METRIC_FIELDS)


def run_csv_row(seed: int, scheduler: str, model: SpinModel, result: netsim.SimulationResult,
                report: instrument.ResidenceReport) -> tuple:
    """One run's values in CSV_FIELDS order; the floats are Python floats, which write_csv reprs."""
    [(name, value)] = model.params.items()  # a built-in kind's one parameter
    st = result.stats
    return (seed, scheduler, model.n, model.graph.max_degree, model.kind, f"{name}={value!r}", result.schedule.T,
            st.makespan, st.phase1_end, report.max_residence, report.max_chain_length, st.message_count, st.total_bits)


def write_csv(rows: list[tuple], fh: IO[str]) -> None:
    """One comma-separated line per row: floats by repr, everything else by str."""
    for row in rows:
        fh.write(",".join(repr(x) if isinstance(x, float) else str(x) for x in row) + "\n")


def run_chunk(args) -> list[tuple[tuple, tuple[int, ...]]]:
    """Every policy's run on each seed's one schedule, all on cfg's cell, built once: per run,
    its run_csv_row and its final configuration. Every run passes phase2_residence(verify=True)."""
    cfg, seeds, policies = args
    model, y0 = build_cell(cfg)
    runs = []
    for seed in seeds:
        sch = build_schedule(cfg, model, seed)
        for policy in policies:
            result = netsim.run(model, sch, y0, _scheduler_for(policy, cfg, seed))
            report = instrument.phase2_residence(result, verify=True)
            runs.append((run_csv_row(seed, policy, model, result, report), tuple(result.final.tolist())))
    return runs


def cmd_run(cfg: ExperimentConfig, out: IO[str], finals_out: IO[str] | None = None) -> int:
    runs = sorted(run_chunk((cfg, cfg.seeds, cfg.scheduler_policies)), key=lambda run: run[0][:2])  # (seed, scheduler)
    write_csv([CSV_FIELDS, *(row for row, _ in runs)], out)
    if finals_out is not None:
        for row, final in runs:
            finals_out.write(f"{row[0]} {row[1]} {' '.join(map(str, final))}\n")
    return 0


def first_mismatch(expected, got) -> tuple[int, int, int] | None:
    """(node, expected state, got state) at the first differing node, or None."""
    return next(((v, int(a), int(b)) for v, (a, b) in enumerate(zip(expected, got)) if a != b), None)


def cmd_verify_coupling(cfg: ExperimentConfig, out: IO[str]) -> int:
    model, y0 = build_cell(cfg)
    checked = 0
    for seed in cfg.seeds:
        sch = build_schedule(cfg, model, seed)
        expected = oracle.run_continuous(model, sch, y0).final
        for policy in cfg.scheduler_policies:
            scheduler = _scheduler_for(policy, cfg, seed)
            mismatch = first_mismatch(expected, netsim.run(model, sch, y0, scheduler).final)
            if mismatch is not None:
                v, want, got = mismatch
                out.write(f"MISMATCH seed={seed} scheduler={policy} node={v} expected={want} got={got}\n")
                return 1
            checked += 1
    out.write(f"coupling verified: {checked} runs, {len(cfg.seeds)} seeds x "
              f"{len(cfg.scheduler_policies)} schedulers, all exact\n")
    return 0


CHUNK = 64  # most seeds per task; a model holds closures and does not pickle, so each task builds its cell


def worker_count() -> int:
    """Process-pool size from the environment; ConfigError unless a positive integer."""
    raw = os.environ.get(WORKERS_ENV, "1")
    if not raw.strip().isdecimal() or int(raw) < 1:
        raise ConfigError(f"{WORKERS_ENV} must be a positive integer, got {raw!r}")
    return int(raw)


def _map_chunks(cfgs: list[ExperimentConfig], seeds) -> list[tuple[tuple, tuple[int, ...]]]:
    """run_chunk's first-policy runs of each config, in order; seeds split evenly over the workers, CHUNK at most."""
    workers = worker_count()
    size = min(CHUNK, -(-len(seeds) // workers))
    tasks = [(cfg, seeds[k:k + size], cfg.scheduler_policies[:1]) for cfg in cfgs for k in range(0, len(seeds), size)]
    if workers > 1:
        with Pool(workers) as pool:
            return [run for runs in pool.imap(run_chunk, tasks) for run in runs]
    return [run for task in tasks for run in run_chunk(task)]


def empirical_tv(cfg: ExperimentConfig) -> float:
    """TV distance of the final configurations of cfg.runs runs, on fresh seeds, from the exhaustive distribution."""
    if cfg.runs < 1:
        raise ConfigError(f"need at least one run, got {cfg.runs}")
    model, _ = build_cell(cfg)
    if model.q ** model.n > 10**6:
        raise ConfigError(f"state space too large for exact comparison: {model.q}^{model.n}")
    exact = oracle.exact_distribution(model)
    counts = Counter(final for _, final in _map_chunks([cfg], range(cfg.seeds[0], cfg.seeds[0] + cfg.runs)))
    empirical = {k: c / cfg.runs for k, c in counts.items()}
    return oracle.total_variation(empirical, exact)


def cmd_tv_test(cfg: ExperimentConfig, out: IO[str]) -> int:
    tv = empirical_tv(cfg)
    length = f"T={cfg.T!r}" if cfg.steps_per_node is None else f"steps_per_node={cfg.steps_per_node!r}"
    out.write(f"tv_distance={tv!r} runs={cfg.runs} {length}\n")
    if cfg.T == 0 or (cfg.steps_per_node is not None and round(cfg.steps_per_node * build_graph(cfg).n) == 0):
        out.write("zero updates per run: reported distance is between the initial point mass and the target\n")
    return 0


def fit_log_n(ns, ys) -> tuple[float, float, float, list[float]]:
    """Least-squares fit y = a + b*ln n; returns (a, b, R^2, residuals), R^2 nan below 3 points."""
    x = np.log(np.asarray(ns, dtype=float))
    y = np.asarray(ys, dtype=float)
    b, a = np.polyfit(x, y, 1)
    pred = a + b * x
    resid = (y - pred).tolist()
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = math.nan if len(x) < 3 else 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(a), float(b), r2, resid


@dataclass
class SweepSummary:
    means: dict[int, float]         # n -> mean of the per-run max residence
    fit_intercept: float
    fit_slope: float
    fit_r2: float
    residuals: list[float]
    growth_ratios: list[float]      # consecutive per-n mean max-residence ratios


def run_sweep(cfg: ExperimentConfig) -> tuple[list[tuple], SweepSummary]:
    if len(set(cfg.n_grid)) < max(2, len(cfg.n_grid)):
        raise ConfigError(f"[experiment] sweep needs an n_grid of two or more distinct sizes, got {cfg.n_grid}")
    runs = _map_chunks([sized(cfg, n) for n in cfg.n_grid], cfg.seeds)
    raw = sorted((row[2], row[0], *row[-len(METRIC_FIELDS):]) for row, _ in runs)  # SWEEP_FIELDS: n, seed, metrics
    # fit per-n means: under all-unit delays the per-run maxima are integers,
    # so medians quantize too coarsely for a meaningful R^2
    means = {n: float(np.mean([r[4] for r in raw if r[0] == n])) for n in sorted(cfg.n_grid)}
    ys = list(means.values())
    a, b, r2, resid = fit_log_n(list(means), ys)
    ratios = [ys[k + 1] / ys[k] if ys[k] > 0 else math.inf for k in range(len(ys) - 1)]
    return raw, SweepSummary(means, a, b, r2, resid, ratios)


def cmd_sweep(cfg: ExperimentConfig, out: IO[str]) -> int:
    raw, summary = run_sweep(cfg)
    write_csv([SWEEP_FIELDS, *raw], out)
    out.write(f"# fit max_residence ~ {summary.fit_intercept!r} + {summary.fit_slope!r}*ln(n), "
              f"R2={summary.fit_r2!r}\n")
    out.write(f"# residuals: {' '.join(repr(r) for r in summary.residuals)}\n")
    out.write(f"# growth ratios per grid step: {' '.join(repr(r) for r in summary.growth_ratios)}\n")
    return 0


def cmd_dump_schedule(cfg: ExperimentConfig, out: IO[str]) -> int:
    model, _ = build_cell(cfg)
    sched.dump(build_schedule(cfg, model, cfg.seeds[0]), out)
    return 0
