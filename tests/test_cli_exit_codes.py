"""CLI exit-code hardening: operator mistakes exit 2 with a one-line
message — never a traceback, never a silent 0.

Exit-code contract (module docstring of :mod:`repro.cli`): 0 success,
2 usage/configuration error, 3 infeasible routing, 4 search budget
exhausted.  These tests pin the *error paths*; happy paths live with
their verbs' own suites.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

from repro.cli import main

SIM_VERBS = ["simulate", "faults", "mixed"]


def _one_line_error(capsys) -> str:
    """Assert stderr is a short diagnostic (no traceback) and return it."""
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = [ln for ln in err.splitlines() if ln.strip()]
    assert 1 <= len(lines) <= 2  # message (+ optional one-line hint)
    return lines[0]


class TestInvalidSimConfig:
    @pytest.mark.parametrize("verb", SIM_VERBS)
    def test_negative_messages(self, verb, capsys):
        assert main([verb, "--messages", "-5"]) == 2
        assert "num_messages" in _one_line_error(capsys)

    @pytest.mark.parametrize("verb", SIM_VERBS)
    def test_nonpositive_interarrival(self, verb, capsys):
        assert main([verb, "--interarrival-us", "-1"]) == 2
        assert "mean_interarrival" in _one_line_error(capsys)

    @pytest.mark.parametrize("verb", SIM_VERBS)
    def test_more_destinations_than_other_nodes(self, verb):
        # the destination draw can never finish, so a missing check
        # hangs: run in a subprocess the timeout can stop
        env = dict(os.environ)
        repo_src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env["PYTHONPATH"] = repo_src + os.pathsep + env.get("PYTHONPATH", "")
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "repro", verb, "--topology", "mesh:2x2",
                 "--dests", "5", "--messages", "5"],
                env=env, capture_output=True, text=True, timeout=60,
            )
        except subprocess.TimeoutExpired:
            pytest.fail(f"{verb} hung on 5 destinations of a 4-node mesh")
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        lines = [ln for ln in proc.stderr.splitlines() if ln.strip()]
        assert len(lines) == 1
        assert "num_destinations" in lines[0] and "4 nodes" in lines[0]


class TestFaultModelCoverage:
    def test_faults_rejects_vct_tree(self, capsys):
        # vct-tree worms have no fault hooks: the run would report
        # delivery 1.0000 with every fault ignored
        argv = ["faults", "--topology", "mesh:4x4", "--schemes", "vct-tree",
                "--fault-rates", "0.1", "--messages", "100"]
        assert main(argv) == 2
        assert "vct-tree" in _one_line_error(capsys)


class TestMalformedInput:
    @pytest.mark.parametrize(
        "argv, needle",
        [
            (["simulate", "--topology", "mesh:0x4"], "mesh:0x4"),
            (["simulate", "--topology", "cube:-1"], "cube:-1"),
            (["route", "--topology", "mesh:4x4", "--source", "0,0", "--dest", "9,9"], "9,9"),
            (["route", "--topology", "cube:4", "--source", "abc", "--dest", "1"], "abc"),
            (["faults", "--fault-rates", "x"], "--fault-rates"),
        ],
    )
    def test_exit_2(self, argv, needle, capsys):
        assert main(argv) == 2
        assert needle in _one_line_error(capsys)


class TestUnknownScheme:
    def test_simulate(self, capsys):
        assert main(["simulate", "--scheme", "nope"]) == 2
        assert "nope" in _one_line_error(capsys)

    def test_route(self, capsys):
        # route validates --algorithm through argparse choices, so the
        # rejection happens before dispatch — still exit 2
        with pytest.raises(SystemExit) as exc_info:
            main(["route", "--topology", "mesh:4x4", "--algorithm", "nope",
                  "--source", "0,0", "--dest", "1,1"])
        assert exc_info.value.code == 2
        assert "invalid choice: 'nope'" in capsys.readouterr().err


class TestModelcheckOnly:
    def test_unknown_machine_exits_2(self, capsys):
        assert main(["modelcheck", "--only", "nope", "--out", ""]) == 2
        assert "unknown machine 'nope'" in _one_line_error(capsys)

    def test_known_machine_exits_0(self, tmp_path, capsys):
        out = str(tmp_path / "certs")
        assert main(["modelcheck", "--only", "circuit-breaker", "--out", out]) == 0
        stdout = capsys.readouterr().out
        assert "circuit-breaker" in stdout
        assert "1 machines verified, 0 violations" in stdout

    def test_only_is_repeatable(self, capsys):
        assert (
            main(["modelcheck", "--only", "circuit-breaker",
                  "--only", "worker-heartbeat", "--out", ""])
            == 0
        )
        assert "2 machines verified" in capsys.readouterr().out


class TestCertifyOnly:
    def test_unknown_scheme_exits_2(self, capsys):
        assert main(["certify", "--only", "nope"]) == 2
        assert "nope" in _one_line_error(capsys)

    def test_only_aliases_scheme(self, tmp_path, capsys):
        out = str(tmp_path / "certs")
        assert main(["certify", "--only", "dual-path", "--out", out]) == 0
        assert "dual-path" in capsys.readouterr().out


class TestServeConfig:
    def test_invalid_worker_count(self, tmp_path, capsys):
        sock = str(tmp_path / "svc.sock")
        assert main(["serve", "--socket", sock, "--workers", "0"]) == 2
        assert "workers" in _one_line_error(capsys)

    def test_invalid_chaos_rates(self, tmp_path, capsys):
        sock = str(tmp_path / "svc.sock")
        assert (
            main(["serve", "--socket", sock, "--chaos-kill", "0.9",
                  "--chaos-drop", "0.9"])
            == 2
        )
        assert "rates sum" in _one_line_error(capsys)
