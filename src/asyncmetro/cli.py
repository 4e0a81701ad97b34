"""Command-line entry point.

Subcommands: run, verify-coupling, tv-test, sweep, dump-schedule,
replay-trace. All take an INI config (see README) except replay-trace, which
takes an exported event-trace file. CSV schemas:

  run            seed,scheduler,n,max_degree,model,param,T,makespan,
                 phase1_end,max_residence,max_chain_length,messages,bits
  sweep          n,seed,makespan,phase1_end,max_residence,max_chain_length,
                 messages,bits  (plus trailing '# fit ...' comment lines)

Exit codes: 0 success, 1 coupling mismatch, 2 invalid config, infeasible
input or a run too large to allocate (e.g. a huge T). Worker-pool size comes
from the ASYNCMETRO_WORKERS env variable.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import nullcontext

from . import harness, netsim
from .harness import ConfigError


# the subcommands that take an INI config: name -> (help line, harness entry point)
COMMANDS = {
    "run": ("execute seeded simulations, write RunStats CSV", harness.cmd_run),
    "verify-coupling": ("compare every run against the sequential chain, exactly", harness.cmd_verify_coupling),
    "tv-test": ("empirical distribution of many runs vs the exhaustive table", harness.cmd_tv_test),
    "sweep": ("scaling table over an n grid with a + b*ln(n) fit", harness.cmd_sweep),
    "dump-schedule": ("emit the shared-randomness schedule as text", harness.cmd_dump_schedule),
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="asyncmetro",
        description="Asynchronous distributed Metropolis sampler simulator",
        epilog=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (helptext, _) in COMMANDS.items():
        p = sub.add_parser(name, help=helptext)
        p.add_argument("config", help="INI experiment config")
        p.add_argument("-o", "--output", default=None, help="output file (default stdout)")
        if name == "run":
            p.add_argument("--finals", default=None, help="also write final configurations here")
    p = sub.add_parser("replay-trace", help="recompute RunStats from an exported event trace")
    p.add_argument("trace", help="event-trace file exported by a run")

    args = parser.parse_args(argv)

    try:
        if args.command == "replay-trace":
            with open(args.trace) as fh:
                stats, resolutions = netsim.replay_trace(fh)
            print(f"makespan={stats.makespan!r} phase1_end={stats.phase1_end!r}")
            print(f"messages={stats.message_count} phase1={stats.phase1_messages} "
                  f"fragments={stats.phase1_fragments} decisions={stats.decision_messages}")
            print(f"total_bits={stats.total_bits} max_message_bits={stats.max_message_bits}")
            print(f"resolutions={len(resolutions)} max_residence={float(stats.residence.max() if len(stats.residence) else 0.0)!r}")
            return 0
        cfg = harness.load_config(args.config)
        with nullcontext(sys.stdout) if args.output in (None, "-") else open(args.output, "w") as out:
            if args.command == "run" and args.finals:
                with open(args.finals, "w") as finals:
                    return harness.cmd_run(cfg, out, finals)
            return COMMANDS[args.command][1](cfg, out)
    except netsim.SimulationInvariantError as exc:
        print(f"simulation invariant violated: {exc}", file=sys.stderr)
        return 1
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    # OSError: an output file cannot be opened; MemoryError: numpy cannot allocate the run's arrays
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)  # a bare MemoryError has no text
        return 2


if __name__ == "__main__":
    sys.exit(main())
