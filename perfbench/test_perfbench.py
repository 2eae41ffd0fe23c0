"""Tests of the benchmark itself (not part of the package's test suite).

    python3 -m pytest perfbench/test_perfbench.py -q

* every workload, at its smallest size, emits exactly the metric names
  and units BENCHMARK.json lists, traced and untraced, with no failed
  operation;
* a wrapped route function that returns a changed ``traffic`` is caught
  as failed operations;
* at the default seed the static rows equal ``repro.experiments``
  rows;
* outside a checkout of the repository the command fails without
  printing a result.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workload as wl  # noqa: E402
from spans import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload: str, trace: int, cwd: Path = ROOT, seconds: float = 0.5):
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", "0",
           "--seconds", str(seconds), "--trace", str(trace)]
    if cwd == ROOT:
        cmd += ["--size", "smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def test_spec_lists_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(wl.WORKLOADS)
    assert SPEC["command"][:2] == ["python3", "perfbench/run.py"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_smoke_run_emits_every_metric(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
        if not trace:
            assert metric["value"] > 0, name


def test_changed_traffic_is_a_failed_operation():
    def route_wrap(scheme, fn):
        if scheme != "greedy-st":
            return fn

        def one_more_arc(request):
            route = fn(request)
            return dataclasses.replace(route, arcs=route.arcs + route.arcs[:1])

        return one_more_arc

    args = SimpleNamespace(workload="static-figs", size="smoke", seed=0, seconds=0.0, trace=0)
    clean = wl.run_static(args)
    assert clean["failed"] == 0
    broken = wl.run_static(args, route_wrap)
    greedy_calls = sum(
        max(3, max(3, int(rpp * wl.STATIC_SCALE)) * 10 // max(10, k))
        for _fig, _topo, schemes, ks, rpp in wl.static_grid("smoke")
        if "greedy-st" in schemes
        for k in ks
    )
    assert broken["failed"] == greedy_calls * broken["passes"]
    assert broken["attempted"] == clean["attempted"] // clean["passes"] * broken["passes"]


def test_default_seed_rows_equal_reproduce():
    from repro.experiments import reproduce

    work = wl.StaticWorkload("full")
    cheap = {"fig7.5", "fig7.6", "fig7.7"}
    work.grid = tuple(row for row in work.grid if row[0] in cheap)
    work.prepare()
    cells, _calls = work.run_pass(None)
    rows = work.rows(cells)
    assert rows == {fig: reproduce(fig, wl.STATIC_SCALE).rows for fig in cheap}
    expected = json.loads((HERE / "digests.json").read_text())["static-figs"]["full"]
    assert wl.cell_digests(cells) == expected[-len(cells):]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("sim", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_self_time_and_cover():
    tracer = Tracer()
    root = tracer.add("pass", 0.0, 10.0)
    tracer.add("route.greedy-st", 1.0, 4.0, parent=root)
    tracer.add("models.draw", 4.0, 5.0, parent=root)
    totals = tracer.totals()
    assert totals["pass"] == (1, 10.0, 6.0)
    assert tracer.layer_self_times() == {"harness": 6.0, "heuristics": 3.0, "models": 1.0}
    # overlapping request spans count once towards the covered time
    tracer.add("svc.wait", 6.0, 8.0)
    tracer.add("svc.wait", 7.0, 9.0)
    assert tracer.layer_cover([(0.0, 10.0)]) == pytest.approx(7.0)
