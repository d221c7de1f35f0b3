"""Command line front end.

Subcommands:
  gen-trace    synthesize a packet trace CSV
  gen-script   synthesize an op script for equivalence checking
  run          drive a trace through a backend, print run statistics
  check        replay a script under two backends and diff the streams
  bench        saturate an array with back-to-back pushes

Exit codes: 0 success, 2 usage, 3 aborted run, 4 stream divergence,
5 unreadable input file.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields, replace

from . import harness, oracle
from .systolic import CYCLES_PER_OP, SystolicQueue, push_op

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_ABORT = 3
EXIT_DIVERGED = 4
EXIT_BADFILE = 5


def _queue_args(sub):
    # each flag lands on its SimParams field, None unless given
    sub.add_argument("--to", dest="timeout", type=int,
                     help="idle timeout in timer ticks")
    sub.add_argument("--precision", type=int, help="cycles per timer tick")
    sub.add_argument("--wr", dest="data_width", type=int,
                     help="timestamp width, bits")
    sub.add_argument("--wo", dest="timeout_width", type=int,
                     help="timeout width, bits")
    sub.add_argument("--wid", dest="id_width", type=int,
                     help="flow id width, bits")
    sub.add_argument("--capacity", type=int)
    sub.add_argument("--units", dest="n_units", type=int,
                     help="array units; unless both --units and --blocks "
                     "are known, the geometry is derived from capacity")
    sub.add_argument("--blocks", dest="m_blocks", type=int,
                     help="blocks per unit (see --units)")
    sub.add_argument("--cycle-ns", dest="cycle_time_ns", type=float)
    sub.add_argument("--backend", choices=harness.BACKENDS,
                     help="default: the params file's, else behavioral")


# run without --params: SimParams defaults, but for these
_RUN_DEFAULTS = {"timeout": 127, "precision": 6}


def _error(fault, code: int = EXIT_USAGE) -> int:
    print(f"error: {fault}", file=sys.stderr)
    return code


def _cmd_gen_trace(args) -> int:
    try:
        packets = harness.gen_trace(args.flows, args.packets, args.seed,
                                    args.duration_ns)
    except ValueError as exc:
        return _error(exc)
    harness.write_trace(args.out, packets)
    print(f"wrote {len(packets)} packets to {args.out}")
    return EXIT_OK


def _cmd_gen_script(args) -> int:
    try:
        script = oracle.make_script(
            args.seed, args.ops, data_width=args.wr, timeout_width=args.wo,
            id_width=args.wid, capacity=args.capacity, pool=args.pool,
            remove_rate=args.remove_rate, timeout=args.timeout)
    except ValueError as exc:
        return _error(exc)
    script.save(args.out)
    print(f"wrote {len(script.ops)} ops to {args.out}")
    return EXIT_OK


def _cmd_run(args) -> int:
    overrides = {field.name: getattr(args, field.name)
                 for field in fields(harness.SimParams)
                 if getattr(args, field.name) is not None}
    try:
        if args.params:
            path = args.params
            if not os.path.exists(path):
                bundled = harness.bundled_params(path)
                if bundled.is_file():
                    path = bundled
            params, extra = harness.load_params(path, **overrides)
        else:
            params = harness.SimParams(**{**_RUN_DEFAULTS, **overrides})
            params, extra = params.check(), {}
    except (OSError, harness.ParamsFileError) as exc:
        return _error(exc, EXIT_BADFILE)
    except ValueError as exc:       # a flag value the run cannot take
        return _error(exc)

    if args.trace:
        try:
            packets, skipped = harness.load_trace(args.trace)
        except (OSError, ValueError) as exc:
            return _error(exc, EXIT_BADFILE)
        if skipped:
            print(f"warning: skipped {skipped} malformed lines",
                  file=sys.stderr)
    else:
        gen = {key: extra.get(key) if getattr(args, key) is None
               else getattr(args, key)
               for key in ("flows", "packets", "seed", "duration_ns")}
        missing = [k for k, v in gen.items() if v is None]
        if missing:
            return _error("no trace and no generator values for "
                          + ", ".join(missing), EXIT_BADFILE)
        try:
            packets = harness.gen_trace(**gen)
        except ValueError as exc:
            return _error(exc)

    dequeue_log = [] if args.dequeue_log else None
    try:
        stats = harness.run(params, packets, dequeue_log=dequeue_log)
    except (harness.CapacityAbort, RuntimeError) as exc:
        print(f"aborted: {exc}", file=sys.stderr)
        return EXIT_ABORT

    text = stats.to_text()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    sys.stdout.write(text)
    if args.dequeue_log:
        with open(args.dequeue_log, "w") as fh:
            fh.write("tick,id\n")
            for expiry, ident in dequeue_log:
                fh.write(f"{expiry},{ident}\n")
    return EXIT_OK


def _cmd_check(args) -> int:
    try:
        script = oracle.OpScript.load(args.script)
    except (OSError, ValueError) as exc:
        return _error(exc, EXIT_BADFILE)
    try:
        replace(script.params, n_units=args.units,
                m_blocks=args.blocks).check()
    except ValueError as exc:
        return _error(exc)

    def factory_for(name):
        def make(params):
            p = replace(params, backend=name,
                        n_units=args.units, m_blocks=args.blocks)
            return harness.make_adapter(p)
        return make

    left = oracle.replay(script, factory_for(args.left))
    divergence = oracle.check_equivalence(
        script, factory_for(args.left), factory_for(args.right))
    print(f"ops={len(script.ops)} pops={len(left.pops)} "
          f"wide_bits_needed={left.wide_bits_needed} "
          f"modular_bits={script.params.data_width}")
    if divergence is None:
        print(f"{args.left} and {args.right} agree")
        return EXIT_OK
    print(str(divergence))
    return EXIT_DIVERGED


def _cmd_bench(args) -> int:
    try:
        config = harness.SimParams(
            timeout=1, data_width=args.wr, timeout_width=args.wo,
            id_width=args.wid, capacity=args.units * args.blocks,
            cycle_time_ns=args.cycle_ns, n_units=args.units,
            m_blocks=args.blocks).check().queue_config()
    except ValueError as exc:
        return _error(exc)
    if args.count < 1:
        return _error(f"count {args.count} must be at least 1")
    # a pool larger than the array would drop pushes off its last unit
    if not 1 <= args.pool <= config.capacity:
        return _error(f"pool {args.pool} outside [1, {config.capacity}]")
    queue = SystolicQueue(config, args.units, args.blocks)
    accepted = 0
    ident = 0
    cycles = 0
    while accepted < args.count:
        # cycle a small id pool so every push past the first few is an
        # in-place update and the array never fills
        ident = ident % args.pool + 1
        if queue.issue(push_op(ident, (accepted * 7) & config.data_mask)):
            accepted += 1
        queue.step()
        cycles += 1
    cycles += queue.drain()
    ceiling = 1000.0 / (CYCLES_PER_OP * args.cycle_ns)
    mpps = accepted / (cycles * args.cycle_ns * 1e-3)
    print(f"accepted={accepted}")
    print(f"cycles={cycles}")
    print(f"cycles_per_op={cycles / accepted:.4f}")
    print(f"modeled_mpps={mpps:.4f}")
    print(f"ceiling_mpps={ceiling:.4f}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="timerq",
        description="timer priority queue simulators and checkers")
    subs = parser.add_subparsers(dest="command", required=True)

    g = subs.add_parser("gen-trace", help="synthesize a packet trace")
    g.add_argument("--flows", type=int, required=True)
    g.add_argument("--packets", type=int, required=True)
    g.add_argument("--seed", type=int, default=42)
    g.add_argument("--duration-ns", type=int, required=True)
    g.add_argument("--out", required=True)
    g.set_defaults(func=_cmd_gen_trace)

    g = subs.add_parser("gen-script", help="synthesize an op script")
    g.add_argument("--seed", type=int, default=42)
    g.add_argument("--ops", type=int, default=400)
    g.add_argument("--wr", type=int, default=9)
    g.add_argument("--wo", type=int, default=7)
    g.add_argument("--wid", type=int, default=6)
    g.add_argument("--capacity", type=int, default=16)
    g.add_argument("--pool", type=int, default=8)
    g.add_argument("--remove-rate", type=float, default=0.15)
    g.add_argument("--timeout", type=int, default=0,
                   help="shared push timeout in ticks (0 = pick from seed)")
    g.add_argument("--out", required=True)
    g.set_defaults(func=_cmd_gen_script)

    g = subs.add_parser("run", help="drive a trace through a backend")
    g.add_argument("--trace", help="trace CSV; omit to synthesize one")
    g.add_argument("--params", help="params file (bundled or path)")
    g.add_argument("--flows", type=int)
    g.add_argument("--packets", type=int)
    g.add_argument("--seed", type=int)
    g.add_argument("--duration-ns", type=int)
    g.add_argument("--out", help="also write stats to this file")
    g.add_argument("--dequeue-log", help="write the dequeue stream CSV here")
    _queue_args(g)
    g.set_defaults(func=_cmd_run)

    g = subs.add_parser("check", help="diff two backends on one script")
    g.add_argument("--script", required=True)
    g.add_argument("--left", default="behavioral", choices=harness.BACKENDS)
    g.add_argument("--right", default="wide", choices=harness.BACKENDS)
    g.add_argument("--units", type=int, default=0)
    g.add_argument("--blocks", type=int, default=0)
    g.set_defaults(func=_cmd_check)

    g = subs.add_parser("bench", help="saturation micro-benchmark")
    g.add_argument("--count", type=int, default=100_000)
    g.add_argument("--units", type=int, default=2)
    g.add_argument("--blocks", type=int, default=2)
    g.add_argument("--pool", type=int, default=3)
    g.add_argument("--wr", type=int, default=9)
    g.add_argument("--wo", type=int, default=7)
    g.add_argument("--wid", type=int, default=4)
    g.add_argument("--cycle-ns", type=float, default=2.0)
    g.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
