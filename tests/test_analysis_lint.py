"""The repo-specific AST lint pass and its plugin rule API."""

from pathlib import Path

import pytest

from repro.analysis import lint
from repro.analysis.lint import LintFinding, lint_file, lint_paths, rule, rules


SRC = Path(__file__).parent.parent / "src" / "repro"


def _lint_source(tmp_path, source, select=None):
    path = tmp_path / "snippet.py"
    path.write_text(source)
    return lint_file(path, root=tmp_path, select=select)


def test_package_source_is_clean():
    assert lint_paths([SRC]) == []


def test_rules_are_registered():
    ids = [r.id for r in rules()]
    assert ids == sorted(ids)
    assert {
        "dispatcher-ownership",
        "guarded-mutation",
        "lock-discipline",
        "no-bare-except",
        "no-legacy-environment",
        "no-registry-bypass",
        "no-unseeded-rng",
        "route-check-site",
    } <= set(ids)


def test_no_registry_bypass_fires(tmp_path):
    findings = _lint_source(
        tmp_path,
        'def f(scheme):\n    if scheme == "dual-path":\n        return 1\n',
        select=["no-registry-bypass"],
    )
    assert len(findings) == 1
    assert findings[0].rule == "no-registry-bypass"
    assert "dual-path" in findings[0].message


def test_no_registry_bypass_allows_non_scheme_strings(tmp_path):
    findings = _lint_source(
        tmp_path,
        'def f(x):\n    return x == "not-a-scheme-name"\n',
        select=["no-registry-bypass"],
    )
    assert findings == []


def test_no_unseeded_rng_fires(tmp_path):
    findings = _lint_source(
        tmp_path,
        "import random\n"
        "r = random.Random()\n"
        "x = random.randint(0, 3)\n"
        "from random import shuffle\n",
        select=["no-unseeded-rng"],
    )
    assert len(findings) == 3
    assert all(f.rule == "no-unseeded-rng" for f in findings)


def test_no_unseeded_rng_allows_seeded(tmp_path):
    findings = _lint_source(
        tmp_path,
        "import random\nr = random.Random(42)\nx = r.randint(0, 3)\n",
        select=["no-unseeded-rng"],
    )
    assert findings == []


def test_no_unseeded_rng_flags_random_class_alias(tmp_path):
    findings = _lint_source(
        tmp_path,
        "from random import Random\nr = Random()\n",
        select=["no-unseeded-rng"],
    )
    assert len(findings) == 1
    assert "without a seed" in findings[0].message
    seeded = _lint_source(
        tmp_path,
        "from random import Random\nr = Random(7)\n",
        select=["no-unseeded-rng"],
    )
    assert seeded == []


def test_no_unseeded_rng_covers_benchmarks_and_chaos(tmp_path):
    """The rule's blind spots from the issue: benchmarks/ and the
    service chaos module are scanned and come back clean (chaos is
    seeded by construction; benchmark seeding is threaded)."""
    repo = SRC.parent.parent
    findings = lint_paths(
        [repo / "benchmarks", SRC / "service" / "chaos.py"],
        select=["no-unseeded-rng"],
    )
    assert findings == []


def test_route_check_site_fires_in_route_builders_only(tmp_path):
    source = "def route(request):\n    tree = build(request)\n    tree.validate(request)\n    return tree\n"
    flagged = []
    for pkg in ("heuristics", "wormhole", "exact", "analysis"):
        for name in ("builder.py", "reference.py"):
            path = tmp_path / "repro" / pkg / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(source)
            findings = lint_file(path, root=tmp_path, select=["route-check-site"])
            if findings:
                assert findings[0].line == 3
                flagged.append(f"{pkg}/{name}")
    # exact/reference.py is the parity oracle; checking outside the
    # builder packages (e.g. analysis) is what consumers do
    assert flagged == [
        "heuristics/builder.py", "heuristics/reference.py",
        "wormhole/builder.py", "wormhole/reference.py",
        "exact/builder.py",
    ]


def test_no_legacy_environment_fires(tmp_path):
    findings = _lint_source(
        tmp_path,
        "from repro.sim.kernel import LegacyEnvironment\nenv = LegacyEnvironment()\n",
        select=["no-legacy-environment"],
    )
    assert len(findings) == 2


def test_no_bare_except_fires(tmp_path):
    findings = _lint_source(
        tmp_path,
        "try:\n    pass\nexcept:\n    pass\n",
        select=["no-bare-except"],
    )
    assert len(findings) == 1
    assert findings[0].rule == "no-bare-except"


_OWNED_CLASS = """\
class Service:
    def __init__(self):
        self._pending = []  # owned-by: dispatcher

    def _drain(self):  # thread: dispatcher
        self._pending.clear()

    def submit(self, item):
        {body}
"""


def test_dispatcher_ownership_fires_on_untagged_mutation(tmp_path):
    findings = _lint_source(
        tmp_path,
        _OWNED_CLASS.format(body="self._pending.append(item)"),
        select=["dispatcher-ownership"],
    )
    assert len(findings) == 1
    assert "dispatcher-owned self._pending" in findings[0].message


def test_dispatcher_ownership_fires_on_cross_thread_call(tmp_path):
    findings = _lint_source(
        tmp_path,
        _OWNED_CLASS.format(body="self._drain()"),
        select=["dispatcher-ownership"],
    )
    assert len(findings) == 1
    assert "calls dispatcher-thread method _drain" in findings[0].message


def test_dispatcher_ownership_allows_reads_and_tagged_methods(tmp_path):
    findings = _lint_source(
        tmp_path,
        _OWNED_CLASS.format(body="return len(self._pending)"),
        select=["dispatcher-ownership"],
    )
    assert findings == []


def test_lock_discipline_fires_on_threading_locks(tmp_path):
    findings = _lint_source(
        tmp_path,
        "import threading\n"
        "class S:\n"
        "    def __init__(self):\n"
        "        self._lock = threading.Lock()\n"
        "    def bad(self):\n"
        "        self._lock.acquire()\n"
        "        self._lock.release()\n",
        select=["lock-discipline"],
    )
    assert len(findings) == 2
    assert all("with` block" in f.message for f in findings)


def test_lock_discipline_ignores_simulated_channel_resources(tmp_path):
    """Wormhole-channel acquire/release in the sim layer is domain
    vocabulary, not threading — only receivers bound to a Lock
    constructor are in scope."""
    findings = _lint_source(
        tmp_path,
        "class Net:\n"
        "    def reserve(self, ch):\n"
        "        ch.acquire()\n"
        "        self.channels[0].release()\n",
        select=["lock-discipline"],
    )
    assert findings == []


def test_guarded_mutation_fires_outside_lock(tmp_path):
    src = (
        "import threading\n"
        "class S:\n"
        "    def __init__(self):\n"
        "        self._lock = threading.Lock()\n"
        "        self._seq = 0  # guarded-by: _lock\n"
        "    def good(self):\n"
        "        with self._lock:\n"
        "            self._seq += 1\n"
        "    def bad(self):\n"
        "        self._seq += 1\n"
    )
    findings = _lint_source(tmp_path, src, select=["guarded-mutation"])
    assert len(findings) == 1
    assert "S.bad mutates self._seq outside `with self._lock`" in findings[0].message


def test_ownership_rules_pass_on_the_service_package():
    findings = lint_paths(
        [SRC / "service"],
        select=["dispatcher-ownership", "guarded-mutation", "lock-discipline"],
    )
    assert findings == []


def test_suppression_comment(tmp_path):
    src = "try:\n    pass\nexcept:  # lint: ignore[no-bare-except]\n    pass\n"
    assert _lint_source(tmp_path, src, select=["no-bare-except"]) == []
    blanket = "try:\n    pass\nexcept:  # lint: ignore\n    pass\n"
    assert _lint_source(tmp_path, blanket, select=["no-bare-except"]) == []
    other = "try:\n    pass\nexcept:  # lint: ignore[no-unseeded-rng]\n    pass\n"
    assert len(_lint_source(tmp_path, other, select=["no-bare-except"])) == 1


def test_syntax_errors_are_reported_not_raised(tmp_path):
    findings = _lint_source(tmp_path, "def broken(:\n")
    assert len(findings) == 1
    assert findings[0].rule == "syntax-error"


def test_plugin_rule_api(tmp_path):
    import ast

    @rule("no-print", "print() is reserved for the CLI front end")
    def no_print(ctx):
        for node in ctx.walk(ast.Call):
            if isinstance(node.func, ast.Name) and node.func.id == "print":
                yield node, "print() call"

    try:
        findings = _lint_source(tmp_path, 'print("hi")\n', select=["no-print"])
        assert len(findings) == 1
        assert findings[0].rule == "no-print"
        # duplicate registration is rejected
        with pytest.raises(ValueError, match="already registered"):
            rule("no-print", "dup")(lambda ctx: ())
    finally:
        lint._RULES.pop("no-print", None)


def test_findings_are_sorted_and_printable(tmp_path):
    a = tmp_path / "a.py"
    a.write_text("try:\n    pass\nexcept:\n    pass\n")
    b = tmp_path / "b.py"
    b.write_text("import random\nrandom.shuffle([])\n")
    findings = lint_paths([tmp_path])
    assert findings == sorted(
        findings, key=lambda f: (f.path, f.line, f.col, f.rule)
    )
    rendered = str(findings[0])
    assert str(a) in rendered and ":3:" in rendered


def test_cli_lint_exit_codes(tmp_path):
    from repro.cli import main

    bad = tmp_path / "bad.py"
    bad.write_text("try:\n    pass\nexcept:\n    pass\n")
    assert main(["lint", str(bad)]) == 1
    good = tmp_path / "good.py"
    good.write_text("x = 1\n")
    assert main(["lint", str(good)]) == 0
    assert main(["lint", "--list-rules"]) == 0


def test_lint_finding_shape():
    f = LintFinding("p.py", 3, 0, "r", "m")
    assert str(f) == "p.py:3:0: r m"
