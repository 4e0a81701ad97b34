#!/usr/bin/env python3
"""asyncmetro benchmark: run a workload, check every op, print every metric.

One run:

    python3 bench/run.py --workload scale-2048 --seed 1 --seconds 30 --trace 0

sets the workload up several times (``setup_s`` is the mean), then runs
ops back to back in one process for ``--seconds`` seconds, checking each op
between ops, outside the timed interval. Throughout, a timer interrupts it
every 20 ms to run a unit of the fixed kernel in ``reference.py``, and every
time reported is scaled by the host's speed as the units that ran during
it, or around it, measured it. It runs under ``PYTHONHASHSEED=0``, and
replaces its own process by one that does if it was started without it.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``. The
full report, with the environment, the tail percentile, the fail rate, the
digests, the unscaled times and the self time of every span, is written to
``.bench_out/``; a traced run also writes its spans there.

Without ``--workload`` every workload is run, untraced and then traced, each
in its own process so that peak RSS is measured per workload, and a summary
is written to ``.bench_out/summary.json``.

``bench/expected_digests.json`` holds the output digests of the first ops of
the default seed, which every later run of that seed must reproduce.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import NamedTuple

from reference import UNIT_MS, Sampler

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"
DIGEST_FILE = BENCH_DIR / "expected_digests.json"

DEFAULT_SEED = 1
PINNED_OPS = 3        # ops of the default seed whose digests are pinned
SETUP_BATCH = 10      # set-ups timed back to back, before the first op and after each op
TAIL_PERCENTILE = 90  # op_ms.tail
CHILD_SLACK_S = 120   # a child of run_all may run this long beyond --seconds
HASH_SEED = "0"       # PYTHONHASHSEED every run uses

MODELS = ("coloring", "hardcore", "ising", "custom")
POLICIES = ("synchronous", "uniform")

END_TO_END = {
    "setup_s": "s",
    "op_ms.mean": "ms",
    "op_ms.tail": "ms",
    "updates_per_s": "1/s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "netsim.execute_ms": "ms",
    "netsim.us_per_message": "us",
    **{f"netsim.execute_ms.{m}.{p}": "ms" for m in MODELS for p in POLICIES},
    "netsim.trace_ms": "ms",
    "netsim.trace_events": "count",
    "netsim.setup_ms": "ms",
    "schedule.generate_ms": "ms",
    "instrument.phase2_residence_ms": "ms",
    "instrument.us_per_update": "us",
    "oracle.run_continuous_ms": "ms",
    "oracle.us_per_update": "us",
    "sim_to_oracle": "ratio",
    "other_ms": "ms",
    "trace_overhead": "ratio",
    "schedule.updates": "count",
    "netsim.messages": "count",
    "netsim.bits": "count",
    "netsim.triggered_share": "ratio",
    "netsim.makespan_vt": "vt",
    "instrument.max_residence_vt": "vt",
    "instrument.max_chain_length": "count",
}


# ---------------------------------------------------------------------------
# spans

class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int   # id of the enclosing span, -1 for a root
    op: int       # index of the op the span belongs to
    cell: str     # model cell (and delay policy) the call worked on


class Tracer:
    """Keeps spans in memory; ``op`` is set by the caller before each op."""

    def __init__(self, clock):
        self.clock = clock   # seconds, as a float
        self.spans: list[Span | None] = []
        self._open: list[int] = []
        self.op = -1

    @contextmanager
    def span(self, name: str, cell: str = ""):
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._open[-1] if self._open else -1
        self._open.append(sid)
        start = self.clock()
        try:
            yield
        finally:
            end = self.clock()
            self._open.pop()
            self.spans[sid] = Span(sid, name, start, end, parent, self.op, cell)


class NullTracer:
    _NULL = nullcontext()

    def span(self, name: str, cell: str = ""):
        return self._NULL


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the time its child spans cover, in seconds."""
    own = {s.id: s.end - s.start for s in spans}
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.end - s.start
    return own


# ---------------------------------------------------------------------------
# statistics

def tail(values: list[float]) -> tuple[float, int, int]:
    """(value, samples beyond it, samples) of the TAIL_PERCENTILE-th
    percentile, interpolated between the two nearest samples.

    The percentile is fixed rather than the highest one that keeps ten
    samples beyond it: that one falls below the median when a run has fewer
    than 20 ops, and moves with the op count, which made it spread far more
    from run to run.
    """
    if len(values) == 1:
        return values[0], 0, 1
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    value = cuts[TAIL_PERCENTILE - 1]
    return value, sum(1 for x in values if x > value), len(values)


def median_or_zero(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def mean_or_zero(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def environment() -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu": cpu,
        "loadavg_at_start": list(os.getloadavg()),
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
        "platform": platform.platform(),
    }


# ---------------------------------------------------------------------------
# one run

def load_digests() -> dict:
    with open(DIGEST_FILE) as fh:
        return json.load(fh)


def measure(workload: str, seed: int, seconds: float, trace: bool,
            size: str = "full", expected: dict | None = None) -> dict:
    """Run one workload for ``seconds`` and return the full report.

    ``expected`` maps workload -> size -> pinned digests of the default
    seed; a mismatch counts as a failed op.
    """
    import workloads as wl

    env = environment()
    w = wl.WORKLOADS[workload]
    pinned = (expected or {}).get(workload, {}).get(size, []) if seed == DEFAULT_SEED else []
    sampler = Sampler()
    clock = sampler.now
    setups: list[dict] = []   # mean time of one set-up in each batch, and the units it spans

    def set_up():
        # A batch from a collected heap: a lone set-up right after an op runs
        # on cold caches and swung with the host's speed 1.6 times as much.
        gc.collect()
        t0, u0 = clock(), len(sampler.unit_times)
        for _ in range(SETUP_BATCH):
            cells = w.setup(size)
        setups.append({"s": (clock() - t0) / SETUP_BATCH, "units": (u0, len(sampler.unit_times))})
        return cells

    tracer, null = Tracer(clock), NullTracer()
    ops: list[dict] = []
    min_ops = 2 if trace else 1   # a traced run compares traced and untraced ops
    with sampler:
        cells = set_up()
        start, origin = time.perf_counter(), clock()
        while len(ops) < min_ops or time.perf_counter() - start < seconds:
            k = len(ops)
            traced = trace and k % 2 == 0
            tr = tracer if traced else null
            tracer.op = k
            gc.collect()   # every op starts from the same heap, whatever the last one left
            rec = {"op": k, "traced": traced, "ms": None, "problems": [], "digest": "", "counts": {}}
            ops.append(rec)
            try:
                t0, u0 = clock(), len(sampler.unit_times)
                with tr.span("op"):
                    runs = w.op(cells, wl.op_seeds(seed, k), tr)
                rec["ms"] = 1e3 * (clock() - t0)
                rec["units"] = (u0, len(sampler.unit_times))
            except Exception as exc:  # a failed op is counted, and the run goes on
                rec["problems"].append(f"op raised {type(exc).__name__}: {exc}")
                continue
            try:
                with tr.span("check"):
                    facts = wl.check_op(runs, tr)
            except Exception as exc:
                rec["problems"].append(f"check raised {type(exc).__name__}: {exc}")
                continue
            finally:
                del runs
                set_up()   # spread over the run, so that setup_s sees the same host as the ops
            rec.update(problems=facts.problems, digest=facts.digest, counts=facts.counts,
                       exec_runs=facts.exec_runs, oracle_runs=facts.oracle_runs)
            if k < len(pinned) and facts.digest != pinned[k]:
                rec["problems"].append(f"digest {facts.digest} differs from the pinned {pinned[k]}")

    failed = sum(1 for r in ops if r["problems"])
    done = [r for r in ops if r["ms"] is not None and r["counts"]]
    report = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace), "size": size,
        "environment": env,
        "attempted": len(ops), "failed": failed, "fail_rate": failed / len(ops),
        "problems": [f"op {r['op']}: {p}" for r in ops for p in r["problems"]][:20],
        "digests": [r["digest"] for r in ops[:PINNED_OPS]],
        "op_ms": [r["ms"] for r in ops],   # as measured; see op_scale
        "op_updates": [r["counts"].get("updates") for r in ops],
        "digest_pinned": bool(pinned),
        "unit_ms": sampler.mean_unit_ms(),
        "units": len(sampler.unit_times),
    }
    # Times are scaled to the host speed at which a unit of the kernel takes
    # UNIT_MS, each by the units that ran while it was measured; see reference.py.
    report["time_scale"] = UNIT_MS / report["unit_ms"]
    for r in done + setups:
        r["scale"] = sampler.scale(*r["units"])
    report["op_scale"] = [r.get("scale") for r in ops]
    if trace:
        spans = [s for s in tracer.spans if s is not None]
        report["metrics"] = layer_metrics(ops, done, spans)
        report["self_ms"] = span_self_ms(spans)
        report["spans_file"] = write_spans(workload, seed, spans, origin)
    else:
        report["metrics"] = end_to_end_metrics(setups, done)
        report["unscaled"] = {k: m["value"] for k, m in end_to_end_metrics(setups, done, scaled=False).items()}
        if done:
            op_ms = [r["scale"] * r["ms"] for r in done]
            _, beyond, n = tail(op_ms)
            report["op_ms.p50"] = statistics.median(op_ms)
            report["op_ms.tail_beyond"] = beyond
            report["op_ms.samples"] = n
    return report


def end_to_end_metrics(setups: list[dict], done: list[dict], scaled: bool = True) -> dict:
    """End-to-end metrics; ``scaled`` brings every time to the nominal host speed."""
    op_ms = [(r["scale"] if scaled else 1.0) * r["ms"] for r in done]
    setup_s = [(r["scale"] if scaled else 1.0) * r["s"] for r in setups]
    # Means, not medians: on a shared host whose speed switches between a fast
    # and a slow state for seconds at a time, the median op (or set-up) time
    # jumps from one state to the other, while the mean moves with the share
    # of time in each.
    values = {
        "setup_s": statistics.fmean(setup_s),
        "op_ms.mean": mean_or_zero(op_ms),
        "op_ms.tail": tail(op_ms)[0] if op_ms else 0.0,
        "updates_per_s": sum(r["counts"]["updates"] for r in done) / (sum(op_ms) / 1e3) if op_ms else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {k: {"value": values[k], "unit": END_TO_END[k]} for k in END_TO_END}


def layer_metrics(ops: list[dict], done: list[dict], spans: list[Span]) -> dict:
    """Per-layer metrics: times at the nominal host speed, counts and ratios as measured."""
    own = self_times(spans)
    per_op: dict[int, dict[str, float]] = {}
    for s in spans:
        sums = per_op.setdefault(s.op, {})
        dur = 1e3 * (s.end - s.start)
        sums[s.name] = sums.get(s.name, 0.0) + dur
        if s.name == "netsim.execute":
            key = f"netsim.execute_ms.{s.cell}"
            sums[key] = sums.get(key, 0.0) + dur
        if s.name == "op":
            sums["other_ms"] = 1e3 * own[s.id]
    traced = [r for r in done if r["traced"]]

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def ms(key: str) -> float:
        """Median over traced ops of the per-op sum of ``key``."""
        return median_or_zero(r["scale"] * per_op[r["op"]].get(key, 0.0) for r in traced)

    def us_per(key: str, count: str) -> float:
        return median_or_zero(r["scale"] * ratio(1e3 * per_op[r["op"]].get(key, 0.0), r["counts"][count])
                              for r in traced)

    values = {
        "netsim.execute_ms": ms("netsim.execute"),
        "netsim.us_per_message": us_per("netsim.execute", "messages"),
        **{f"netsim.execute_ms.{m}.{p}": ms(f"netsim.execute_ms.{m}.{p}") for m in MODELS for p in POLICIES},
        "netsim.trace_ms": ms("netsim.trace"),
        "netsim.setup_ms": ms("netsim.setup"),
        "schedule.generate_ms": ms("schedule.generate"),
        "instrument.phase2_residence_ms": ms("instrument.phase2_residence"),
        "instrument.us_per_update": us_per("instrument.phase2_residence", "updates"),
        "oracle.run_continuous_ms": ms("oracle.run_continuous"),
        "oracle.us_per_update": us_per("oracle.run_continuous", "updates"),
        # mean time of one execute over mean time of one run_continuous
        "sim_to_oracle": median_or_zero(
            ratio(per_op[r["op"]].get("netsim.execute", 0.0) / r["exec_runs"],
                  per_op[r["op"]].get("oracle.run_continuous", 0.0) / r["oracle_runs"])
            for r in traced),
        "other_ms": ms("other_ms"),
        "trace_overhead": ratio(mean_or_zero(r["ms"] for r in traced),
                                mean_or_zero(r["ms"] for r in done if not r["traced"])),
    }
    first = ops[0]["counts"] if ops[0]["counts"] else {}
    values.update({
        "netsim.trace_events": first.get("trace_events", 0),
        "schedule.updates": first.get("updates", 0),
        "netsim.messages": first.get("messages", 0),
        "netsim.bits": first.get("bits", 0),
        "netsim.triggered_share": ratio(first.get("triggered", 0), first.get("resolutions", 0)),
        "netsim.makespan_vt": first.get("makespan_vt", 0.0),
        "instrument.max_residence_vt": first.get("max_residence_vt", 0.0),
        "instrument.max_chain_length": first.get("max_chain_length", 0),
    })
    return {k: {"value": values[k], "unit": PER_LAYER[k]} for k in PER_LAYER}


def span_self_ms(spans: list[Span]) -> dict[str, float]:
    """Median self time per op of every span name, in ms."""
    own = self_times(spans)
    per_op: dict[tuple[int, str], float] = {}
    for s in spans:
        key = (s.op, s.name)
        per_op[key] = per_op.get(key, 0.0) + 1e3 * own[s.id]
    names = sorted({name for _, name in per_op})
    return {name: median_or_zero(v for (_, n), v in per_op.items() if n == name) for name in names}


def write_spans(workload: str, seed: int, spans: list[Span], t0: float) -> str:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{workload}-seed{seed}.jsonl"
    with open(path, "w") as fh:
        for s in spans:
            fh.write(json.dumps({**s._asdict(), "start": s.start - t0, "end": s.end - t0}) + "\n")
    return str(path.relative_to(ROOT))


def print_report(report: dict) -> None:
    print(f"asyncmetro bench: workload={report['workload']} seed={report['seed']} "
          f"seconds={report['seconds']} trace={report['trace']} size={report['size']}")
    print("environment: " + json.dumps(report["environment"]))
    print(f"host speed: {report['unit_ms']:.6g} ms per kernel unit over {report['units']} units; "
          f"times below are scaled to {UNIT_MS:g} ms per unit, by {report['time_scale']:.6g} on average")
    for name, m in report["metrics"].items():
        print(f"  {name:<40} {m['value']:>16.6g} {m['unit']}")
    for name, value in report.get("unscaled", {}).items():
        print(f"  unscaled {name:<31} {value:>16.6g} {END_TO_END[name]}")
    if "op_ms.samples" in report:
        print(f"  {'op_ms.p50':<40} {report['op_ms.p50']:>16.6g} ms")
        print(f"  op_ms.tail is p{TAIL_PERCENTILE} of {report['op_ms.samples']} ops, "
              f"{report['op_ms.tail_beyond']} of them beyond it")
    for name, ms in report.get("self_ms", {}).items():
        print(f"  self time {name:<30} {ms:>16.6g} ms")
    print(f"  {'fail_rate':<40} {report['fail_rate']:>16.6g} ratio "
          f"({report['failed']} of {report['attempted']} ops)")
    pinned = "checked against the pinned digests" if report["digest_pinned"] else "not pinned for this seed"
    for k, d in enumerate(report["digests"]):
        print(f"  digest op {k}: {d} ({pinned})")
    for p in report["problems"]:
        print(f"  FAILED {p}")


def result_line(report: dict) -> str:
    return json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": report["metrics"],
    })


def run_one(args) -> int:
    report = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.size, load_digests())
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=1) + "\n")
    print_report(report)
    print(result_line(report))
    return 0


# ---------------------------------------------------------------------------
# every workload, untraced and traced

def run_all(args, names) -> int:
    summary = {"environment": environment(), "runs": []}
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace), "--size", args.size]
            try:
                proc = subprocess.run(cmd, capture_output=True, text=True,
                                      timeout=args.seconds + CHILD_SLACK_S)
            except subprocess.TimeoutExpired:
                print(f"{name} (trace {trace}) did not end within "
                      f"{args.seconds + CHILD_SLACK_S:g} s", file=sys.stderr)
                return 1
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                print(f"{name} (trace {trace}) exited with code {proc.returncode}", file=sys.stderr)
                return proc.returncode or 1
            report = json.loads((OUT_DIR / f"result-{name}-seed{args.seed}-trace{trace}.json").read_text())
            summary["runs"].append({k: v for k, v in report.items() if k not in ("op_ms", "op_scale", "op_updates")})
            correct &= report["failed"] == 0
            attempted += report["attempted"]
            failed += report["failed"]
            metrics.update({f"{name}/{k}": v for k, v in report["metrics"].items()})
    (OUT_DIR / "summary.json").write_text(json.dumps(summary, indent=1) + "\n")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    if argv is None and os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # Python salts string hashes per process, and the salt alone moved the
        # scaled time of a scale-2048 op by up to 8% between processes, while
        # two processes with the same salt agreed within 1% to 3.5%. Replace
        # this process by one with a fixed salt.
        sys.stdout.flush()
        os.execve(sys.executable, [sys.executable, *sys.argv], {**os.environ, "PYTHONHASHSEED": HASH_SEED})
    try:
        import workloads as wl
    except ImportError as exc:
        print(f"bench: cannot load the program to measure: {exc}", file=sys.stderr)
        return 2
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=wl.SIZES, default="full")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if args.workload is None:
        return run_all(args, list(wl.WORKLOADS))
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
