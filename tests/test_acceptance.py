"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines
as they complete. The whole suite takes several minutes, dominated by the
10^4-run stationarity batch and the n=2048 scaling sweep.
"""

import math

import numpy as np
import pytest

from asyncmetro import (
    cycle_graph,
    empty_graph,
    exact_distribution,
    filter_range,
    generate,
    greedy_coloring,
    grid_graph,
    lipschitz_bound,
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
    total_variation,
)
from asyncmetro.harness import FIT_R2_LIMIT, TV_LIMIT, fit_log_n
from asyncmetro.netsim import phase1_update_bits

SCHEDULER_POLICIES = ("synchronous", "uniform", "adversarial-max")


def _report(criterion: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {criterion} [{name}]: {status}{suffix}")
    assert ok, f"criterion {criterion} ({name}) failed: {detail}"


def coupling_setups():
    g1 = random_regular_graph(50, 4, seed=404)
    m1 = make_coloring(g1, 8)
    g2 = grid_graph(10, 10)
    m2 = make_hardcore(g2, 0.2)
    g3 = cycle_graph(30)
    m3 = make_ising(g3, 0.2)
    return [
        ("coloring-4reg-n50", m1, greedy_coloring(g1, 8)),
        ("hardcore-grid10", m2, np.zeros(100, dtype=np.int64)),
        ("ising-c30", m3, np.zeros(30, dtype=np.int64)),
    ]


def test_criterion_1_pathwise_coupling():
    # netsim == oracle exactly, coordinate-wise, on 100 seeds x 3 models x 3
    # schedulers at T=10; message counts also asserted on every run
    T = 10.0
    mismatches = 0
    runs = 0
    for name, model, y0 in coupling_setups():
        g = model.graph
        dec_expected_factor = [g.degree(v) for v in range(g.n)]
        for seed in range(1, 101):
            sch = generate(model, T, seed)
            expected = run_continuous(model, sch, y0).final
            n_dec = sum(len(sch.times[v]) * dec_expected_factor[v] for v in range(g.n))
            for policy in SCHEDULER_POLICIES:
                result = run(model, sch, y0, make_scheduler(policy, seed=seed))
                runs += 1
                if not np.array_equal(result.final, expected):
                    mismatches += 1
                assert result.stats.phase1_messages == 2 * g.num_edges
                assert result.stats.decision_messages == n_dec
    _report(1, "pathwise coupling", mismatches == 0, f"{runs} runs, {mismatches} mismatches")


def test_criterion_2_threshold_equivalence():
    # closed-form edge-factor thresholds vs product enumeration, 1e4 instances
    rng = np.random.default_rng(20_24)
    graphs = [path_graph(3), cycle_graph(5), random_regular_graph(8, 3, seed=2)]
    worst = 0.0
    checked = 0
    while checked < 10_000:
        g = graphs[int(rng.integers(len(graphs)))]
        pick = checked % 3
        if pick == 0:
            model = make_coloring(g, int(rng.integers(2, 9)))
        elif pick == 1:
            model = make_hardcore(g, float(rng.random() * 3))
        else:
            model = make_ising(g, float(rng.normal()))
        v = int(rng.integers(model.n))
        d = model.graph.degree(v)
        c, cn = int(rng.integers(model.q)), int(rng.integers(model.q))
        sets = []
        size_budget = 10_000
        for _ in range(d):
            cap = max(1, min(model.q, size_budget))
            k = int(rng.integers(1, cap + 1))
            sets.append(set(int(x) for x in rng.choice(model.q, size=k, replace=False)))
            size_budget //= k
        if math.prod(len(s) for s in sets) > 10_000:
            continue
        fast = thresholds(model, v, c, cn, sets)
        brute = filter_range(model, v, c, cn, sets)
        worst = max(worst, abs(fast[0] - brute[0]), abs(fast[1] - brute[1]))
        checked += 1
    _report(2, "threshold equivalence", worst <= 1e-12, f"{checked} instances, worst gap {worst:.3e}")


def _empirical_final_distribution(model, y0, T, runs, seed0):
    scheduler = make_scheduler("synchronous")
    counts: dict[tuple, int] = {}
    for k in range(runs):
        sch = generate(model, T, seed0 + k)
        final = tuple(int(x) for x in run(model, sch, y0, scheduler).final)
        counts[final] = counts.get(final, 0) + 1
    return {cfg: c / runs for cfg, c in counts.items()}


def test_criterion_3_stationarity():
    runs = 10_000
    g = cycle_graph(4)
    m = make_coloring(g, 3)
    emp = _empirical_final_distribution(m, greedy_coloring(g, 3), 200.0, runs, seed0=1)
    tv_coloring = total_variation(emp, exact_distribution(m))

    m2 = make_hardcore(path_graph(2), 1.0)
    emp2 = _empirical_final_distribution(m2, np.zeros(2, dtype=np.int64), 100.0, runs, seed0=1)
    tv_hardcore = total_variation(emp2, exact_distribution(m2))

    ok = tv_coloring <= TV_LIMIT and tv_hardcore <= 0.03
    _report(3, "stationarity", ok,
            f"TV coloring={tv_coloring:.4f} (<={TV_LIMIT}), hardcore={tv_hardcore:.4f} (<=0.03), {runs} runs each")


@pytest.fixture(scope="module")
def scaling_sweep():
    # coloring with q = 4*max_degree, max_degree = 4, adversarial-max delays
    T = 20.0
    q = 16
    seeds = range(1, 51)
    data = {}
    for n in (128, 512, 2048):
        g = random_regular_graph(n, 4, seed=n)
        model = make_coloring(g, q)
        y0 = greedy_coloring(g, q)
        max_res = []
        bound_violations = 0
        for seed in seeds:
            sch = generate(model, T, seed)
            result = run(model, sch, y0, make_scheduler("adversarial-max"))
            report = phase2_residence(result, verify=False)
            if not report.bound_holds():
                bound_violations += 1
            max_res.append(report.max_residence)
        data[n] = {"max_res": max_res, "violations": bound_violations, "model": model}
    return data


def test_criterion_4_time_unit_scaling(scaling_sweep):
    violations = sum(d["violations"] for d in scaling_sweep.values())
    ns = sorted(scaling_sweep)
    means = [float(np.mean(scaling_sweep[n]["max_res"])) for n in ns]
    a, b, r2, _ = fit_log_n(ns, means)
    ratios = [means[k + 1] / means[k] for k in range(len(ns) - 1)]
    ok = violations == 0 and r2 >= FIT_R2_LIMIT and all(r < 1.6 for r in ratios)
    _report(4, "time-unit scaling", ok,
            f"bound violations={violations}/150, fit a={a:.2f} b={b:.2f} R2={r2:.3f}, "
            f"growth per x4 n: {', '.join(f'{r:.3f}' for r in ratios)}")


def test_criterion_5_dependency_chain_tail(scaling_sweep):
    n = 512
    model = scaling_sweep[n]["model"]
    c_lip = lipschitz_bound(model)
    ell = math.ceil(2 * math.e * (1 + 2 * c_lip) * 20.0 + 2 * math.log2(n))
    max_res = scaling_sweep[n]["max_res"]
    exceed = sum(1 for r in max_res if r >= ell) / len(max_res)
    _report(5, "dependency-chain tail", exceed < 0.01,
            f"C={c_lip}, threshold={ell}, exceedance={exceed:.4f} over {len(max_res)} runs, "
            f"observed max={max(max_res)}")


def test_criterion_6_message_accounting():
    # exact message counts and the per-message bit ceiling on a mixed battery
    worst_over = 0
    runs = 0
    for name, model, y0 in coupling_setups():
        g = model.graph
        T = 10.0
        cap = phase1_update_bits(g.n, T, model.q)
        for seed in (3, 7):
            sch = generate(model, T, seed)
            for policy in SCHEDULER_POLICIES:
                result = run(model, sch, y0, make_scheduler(policy, seed=seed))
                runs += 1
                expected_dec = sum(len(sch.times[v]) * g.degree(v) for v in range(g.n))
                assert result.stats.phase1_messages == 2 * g.num_edges
                assert result.stats.decision_messages == expected_dec
                assert result.stats.message_count == 2 * g.num_edges + expected_dec
                if result.stats.max_message_bits > cap:
                    worst_over += 1
    _report(6, "message accounting", worst_over == 0,
            f"{runs} runs, exact counts, per-message bits within formula cap")


def test_criterion_7_poisson_sanity():
    n, T = 10_000, 10.0
    model = make_coloring(empty_graph(n), 2)
    sch = generate(model, T, seed=5)
    threshold = 5 * T + 3 * math.log2(n)
    heavy = sum(1 for c in sch.counts if c >= threshold)
    frac = heavy / n
    _report(7, "poisson sanity", frac <= 10.0 / n,
            f"threshold={threshold:.2f}, heavy nodes={heavy}/{n}")
