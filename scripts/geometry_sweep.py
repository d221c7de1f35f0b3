#!/usr/bin/env python3
"""Run a univ_scale prefix on several systolic geometries of one
capacity and print what each one costs on the host.

The paper's design point is a 4K-deep queue.  For each N x M split of
the capacity the sweep prints the host seconds of a plain run, the
unit-phases per accepted op (one per phase a unit runs) and the number
of units that ran any phase, counted in a second run through the
array's event sink.  Each geometry's stats and dequeue log are checked
against the behavioral reference on the same packets; the script exits
1 if any differs.  Run from the repo root:

    python3 scripts/geometry_sweep.py
    python3 scripts/geometry_sweep.py --prefix-ns 2000 --geometries 64x64
"""

import argparse
import sys
import time
from dataclasses import replace

from timerq.harness import (SystolicAdapter, bundled_params, drive,
                            gen_trace, load_params, run)

GEOMETRIES = "16x256,64x64,256x16,1024x4"


def sweep(prefix_ns: int, geometries: list[tuple[int, int]]) -> list[dict]:
    """One row per geometry: host seconds, unit-phases per op, units
    touched, and whether stats and dequeue log match behavioral.  The
    capacity is N*M of the first geometry; any other raises ValueError."""
    n_units, m_blocks = geometries[0]
    params, extra = load_params(bundled_params(),
                                capacity=n_units * m_blocks)
    packets = [p for p in gen_trace(extra["flows"], extra["packets"],
                                    extra["seed"], extra["duration_ns"])
               if p.arrival_ns < prefix_ns]
    ref_log: list = []
    ref = run(replace(params, backend="behavioral"), packets,
              dequeue_log=ref_log)
    rows = []
    for n_units, m_blocks in geometries:
        geo = replace(params, backend="systolic", n_units=n_units,
                      m_blocks=m_blocks).check()
        log: list = []
        start = time.perf_counter()
        stats = run(geo, packets, dequeue_log=log)
        host_s = time.perf_counter() - start

        units: set[str] = set()
        phases = 0

        def count(line: str):
            nonlocal phases
            phases += 1
            units.add(line.split(",", 2)[1])

        counted_log: list = []
        adapter = SystolicAdapter(geo.queue_config(), n_units, m_blocks,
                                  event_sink=count)
        drive(packets, adapter, geo, dequeue_log=counted_log)
        rows.append({
            "geometry": f"{n_units}x{m_blocks}",
            "packets": len(packets),
            "host_s": host_s,
            "unit_phases_per_op": phases / stats.ops_accepted,
            "units_touched": len(units),
            "matches": stats == ref and log == counted_log == ref_log,
        })
    return rows


def parse_geometries(text: str) -> list[tuple[int, int]]:
    out = []
    for item in text.split(","):
        n_units, _, m_blocks = item.partition("x")
        out.append((int(n_units), int(m_blocks)))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--prefix-ns", type=int, default=6000,
                    help="run the packets that arrive before this time")
    ap.add_argument("--geometries", default=GEOMETRIES,
                    help="comma-separated NxM list of one capacity N*M")
    args = ap.parse_args(argv)
    try:
        geometries = parse_geometries(args.geometries)
        rows = sweep(args.prefix_ns, geometries)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    print(f"univ_scale prefix {args.prefix_ns} ns: {rows[0]['packets']} "
          f"packets, capacity {geometries[0][0] * geometries[0][1]}")
    print(f"{'geometry':>10} {'host_s':>8} {'phases/op':>10} "
          f"{'units':>6} {'log':>5}")
    for row in rows:
        print(f"{row['geometry']:>10} {row['host_s']:>8.3f} "
              f"{row['unit_phases_per_op']:>10.3f} "
              f"{row['units_touched']:>6} "
              f"{'ok' if row['matches'] else 'DIFF':>5}")
    return 0 if all(row["matches"] for row in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
