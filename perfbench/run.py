"""End-to-end benchmark: one workload per invocation, in a fresh process.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  The workload runs in a child process
(``workload.py``) with ``PYTHONPATH=src`` and BLAS threads pinned to
one, so the oracle and labeling caches start empty as they do for a
user's ``python -m repro`` run.  This parent adds two metrics it
measures from outside:

* ``setup_s`` -- the median, over ``SETUP_SAMPLES`` more fresh
  processes, of the time from process start until the workload is
  ready for its first operation (imports and topology/labeling/Router
  construction);
* ``peak_rss_mb`` -- the largest resident set of the workload process
  or of any process it started.

The last line of standard output is the result object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 1`` the
metrics are the per-layer ones, and the spans are written to
``.perfbench/trace-<workload>-<seed>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOAD = HERE / "workload.py"
WORKLOADS = ("static-figs", "sim")
SETUP_SAMPLES = 5
#: a workload process that runs longer than this is killed (the run fails)
CHILD_TIMEOUT_S = 170.0


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def setup_seconds(args, env: dict, root: Path) -> float:
    """Start-to-ready time of one fresh workload process."""
    cmd = [sys.executable, str(WORKLOAD), "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size, "--setup-only"]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        if proc.wait(timeout=60) != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up process failed (exit {proc.returncode})")
    return elapsed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="end-to-end benchmark of the repro package")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: a tiny grid, for the benchmark's own tests")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"error: {root} holds no src/repro package; run from the repository root",
              file=sys.stderr)
        return 2
    env = child_env(root)

    cmd = [sys.executable, str(WORKLOAD), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size]
    if args.trace:
        out_dir = root / ".perfbench"
        out_dir.mkdir(exist_ok=True)
        cmd += ["--trace-out", str(out_dir / f"trace-{args.workload}-{args.seed}.jsonl")]
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: workload {args.workload} ran past {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        print(f"error: workload {args.workload} exited {proc.returncode}", file=sys.stderr)
        return 1
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    info = json.loads(lines[-2]) if len(lines) > 1 else {}

    if not args.trace:
        # ru_maxrss of waited-for children is the largest single
        # process, in KiB on Linux; read it before the set-up samples
        peak_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        try:
            setups = [setup_seconds(args, env, root) for _ in range(SETUP_SAMPLES)]
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": peak_kib / 1024, "unit": "MB"},
        }
    else:
        metrics = {}
    metrics.update(result["metrics"])
    print(json.dumps({"workload": args.workload, "seed": args.seed, **info}))
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
