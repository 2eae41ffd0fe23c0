"""Record the output digests the benchmark checks every run against.

    python3 perfbench/record_digests.py --workload static-figs --size full
    python3 perfbench/record_digests.py --workload sim --size full

It runs one untimed pass of the workload (for ``sim`` at full size,
one per input set; at smoke size only input set 0, the one the
benchmark's tests run) and stores one digest per static cell (figure,
k, scheme: the traffic of every request) or per simulation run (its
result tuple) in ``digests.json``.  Before recording the full size's static cells or
input set 0 of ``sim``, it checks that the rows the benchmark computes
equal ``repro.experiments.reproduce`` rows (scale 0.1 for Figs.
7.1-7.7, 1.0 for Figs. 7.8-7.11) and stops if any differ.  Re-record only when a change to the program is meant to change
its outputs.
"""

from __future__ import annotations

import argparse
import json
import sys

import workload as wl


def reproduce_rows(figures, scale: float) -> dict:
    from repro.experiments import reproduce

    return {fig: reproduce(fig, scale).rows for fig in figures}


def record(name: str, size: str, input_set: int) -> list[str]:
    if name == "static-figs":
        work = wl.StaticWorkload(size)
        cells, _calls = work.run_pass(None)
        rows = work.rows(cells)
        digests = wl.cell_digests(cells)
        scale = wl.STATIC_SCALE
    else:
        work = wl.SimWorkload(size, input_set)
        records = work.run_pass(None)
        rows = work.rows(records)
        digests = [wl.digest((r[0], r[1], r[5])) for r in records]
        scale = 1.0
    if input_set == 0 and size == "full":
        expected = reproduce_rows(rows, scale)
        if rows != expected:
            bad = [fig for fig in rows if rows[fig] != expected[fig]]
            raise SystemExit(f"{name}: rows differ from repro.experiments.reproduce for {bad}")
        print(f"{name}: input set 0 rows equal reproduce() rows for {sorted(rows)}")
    return digests


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("static-figs", "sim"), required=True)
    parser.add_argument("--size", choices=wl.SIZES, required=True)
    args = parser.parse_args(argv)
    path = wl.HERE / "digests.json"
    sets = range(wl.INPUT_SETS) if args.workload == "sim" and args.size == "full" else [0]
    for input_set in sets:
        digests = record(args.workload, args.size, input_set)
        data = json.loads(path.read_text())
        if args.workload == "sim":
            data["sim"][args.size][str(input_set)] = digests
        else:
            data["static-figs"][args.size] = digests
        path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
        print(f"{args.workload} {args.size} input set {input_set}: {len(digests)} digests",
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
