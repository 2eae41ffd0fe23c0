"""Run the benchmark over several seeds and summarize it.

    python3 perfbench/measure.py --runs 10 --out perfbench/results.json

For each workload (all of them unless ``--workloads`` names some) it
makes ``--runs`` untraced runs, seeds 0 onwards, and one traced run at
seed 0, one after the other (never
in parallel: they would contend for the cores).  For every end-to-end
metric it reports the median, the quartiles as ``statistics.quantiles(n=4)``
gives them, and the spread: the distance between the quartiles as a share
of the median, next to the metric's bound in BENCHMARK.json.  Run from the
repository root.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run_once(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return {"info": json.loads(lines[-2]), "result": json.loads(lines[-1])}


def summarize(values: list[float], bound: float | None) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    out = {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
           "values": values}
    if bound is not None:
        out["bound"] = bound
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in SPEC["workloads"]))
    parser.add_argument("--out", default=None, help="write the summary here as JSON")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    summary: dict = {"run_seconds": SPEC["run_seconds"], "workloads": {}}
    for workload in args.workloads.split(","):
        runs = [run_once(workload, seed, 0) for seed in range(args.runs)]
        entry: dict = {
            "env": runs[0]["info"].get("env"),
            "seeds": [0, args.runs - 1],
            "attempted": sum(r["result"]["attempted"] for r in runs),
            "failed": sum(r["result"]["failed"] for r in runs),
            "end_to_end": {},
        }
        for name in bounds:
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            entry["end_to_end"][name] = summarize(values, bounds[name])
            stats = entry["end_to_end"][name]
            flag = "" if stats["spread"] < bounds[name] / 3 else "  <-- above bound/3"
            print(f"{workload:13s} {name:12s} median {stats['median']:14.4f}  "
                  f"spread {stats['spread']:.4f} (bound {bounds[name]}){flag}", flush=True)
        traced = run_once(workload, 0, 1)
        entry["per_layer_seed"] = 0
        entry["per_layer"] = {n: m["value"] for n, m in traced["result"]["metrics"].items()}
        entry["attempted"] += traced["result"]["attempted"]
        entry["failed"] += traced["result"]["failed"]
        print(f"{workload:13s} failed {entry['failed']} of {entry['attempted']} attempted",
              flush=True)
        summary["workloads"][workload] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
