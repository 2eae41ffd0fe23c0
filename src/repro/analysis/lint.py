"""Repo-specific AST lint pass: ``python -m repro lint``.

Generic linters (the ruff families in ``pyproject.toml``) cannot see
*project* conventions — that scheme dispatch and route checks must
flow through :mod:`repro.registry`, that simulation/fault code must
never construct an unseeded RNG (replications derive every stream from
the config seed), that :class:`~repro.sim.kernel.LegacyEnvironment` is reserved
for the parity layer, and that worker/retry paths must never swallow
``KeyboardInterrupt`` with a bare ``except``.  This module enforces
them with a small plugin-style rule API: a rule is one decorated
generator, so future PRs add checks in ~20 lines::

    from repro.analysis.lint import rule

    @rule("my-rule", "what it enforces")
    def my_rule(ctx):
        for node in ctx.walk(ast.Call):
            if looks_wrong(node):
                yield node, "explain the violation"

Suppression: append ``# lint: ignore[rule-id]`` (or a blanket
``# lint: ignore``) to the offending line.

Exit codes of the CLI front end: 0 clean, 1 findings.
"""

from __future__ import annotations

import ast
import re
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, field
from pathlib import Path

__all__ = [
    "FileContext",
    "LintFinding",
    "Rule",
    "lint_file",
    "lint_paths",
    "rule",
    "rules",
]

_IGNORE_RE = re.compile(r"#\s*lint:\s*ignore(?:\[(?P<ids>[\w\-, ]+)\])?")


@dataclass(frozen=True)
class LintFinding:
    """One rule violation at a source location."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


@dataclass
class FileContext:
    """Everything a rule may inspect about one source file."""

    path: Path
    relpath: str
    source: str
    tree: ast.Module
    _walked: dict = field(default_factory=dict, repr=False)

    def walk(self, *types: type) -> Iterator[ast.AST]:
        """All AST nodes of the given types (cached single traversal)."""
        nodes = self._walked.get("all")
        if nodes is None:
            nodes = self._walked["all"] = list(ast.walk(self.tree))
        for node in nodes:
            if not types or isinstance(node, types):
                yield node

    def module_aliases(self, module: str) -> set[str]:
        """Local names bound to ``module`` by plain imports
        (``import random`` / ``import numpy as np``)."""
        aliases = set()
        for node in self.walk(ast.Import):
            for item in node.names:
                if item.name == module:
                    aliases.add(item.asname or item.name)
        return aliases

    def in_file(self, *suffixes: str) -> bool:
        """Whether this file's path ends with one of the given
        ``dir/file.py`` suffixes (posix matching)."""
        return any(self.relpath.endswith(s) for s in suffixes)


@dataclass(frozen=True)
class Rule:
    """A registered lint rule: ``check(ctx)`` yields
    ``(node_or_line, message)`` violations."""

    id: str
    description: str
    check: Callable[[FileContext], Iterable[tuple]]


_RULES: dict[str, Rule] = {}


def rule(rule_id: str, description: str):
    """Decorator registering a lint rule (the plugin API)."""

    def decorate(fn: Callable) -> Callable:
        if rule_id in _RULES:
            raise ValueError(f"lint rule {rule_id!r} is already registered")
        _RULES[rule_id] = Rule(rule_id, description, fn)
        return fn

    return decorate


def rules() -> list[Rule]:
    """All registered rules, sorted by id."""
    return sorted(_RULES.values(), key=lambda r: r.id)


# ----------------------------------------------------------------------
# The rules.
# ----------------------------------------------------------------------


def _scheme_names() -> frozenset:
    """Registered scheme names (canonical + aliases), cached."""
    global _SCHEME_NAMES
    if _SCHEME_NAMES is None:
        from .. import registry

        _SCHEME_NAMES = frozenset(registry.known_names())
    return _SCHEME_NAMES


_SCHEME_NAMES: frozenset | None = None


@rule(
    "no-registry-bypass",
    "scheme dispatch must resolve through repro.registry, never by "
    "comparing names against string literals",
)
def no_registry_bypass(ctx: FileContext) -> Iterator[tuple]:
    if ctx.in_file("repro/registry.py"):
        return
    names = _scheme_names()

    def literal_schemes(node) -> list[str]:
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return [node.value] if node.value in names else []
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            return [s for e in node.elts for s in literal_schemes(e)]
        return []

    for node in ctx.walk(ast.Compare):
        for op, comparator in zip(node.ops, node.comparators):
            if not isinstance(op, (ast.Eq, ast.NotEq, ast.In, ast.NotIn)):
                continue
            hits = literal_schemes(comparator) + literal_schemes(node.left)
            if hits:
                yield node, (
                    f"comparison against scheme name(s) {sorted(set(hits))} — "
                    "dispatch on registry capabilities (worm_style/kind) instead"
                )


#: module-level ``random`` functions that mutate the hidden global RNG.
_GLOBAL_RNG_FNS = frozenset(
    {
        "random", "randrange", "randint", "choice", "choices", "shuffle",
        "sample", "uniform", "gauss", "normalvariate", "expovariate",
        "betavariate", "seed", "getrandbits", "triangular", "vonmisesvariate",
    }
)


@rule(
    "no-unseeded-rng",
    "sim/fault code must derive every RNG from an explicit seed — no "
    "random.Random() without arguments, no global random/numpy.random calls",
)
def no_unseeded_rng(ctx: FileContext) -> Iterator[tuple]:
    random_aliases = ctx.module_aliases("random")
    numpy_aliases = ctx.module_aliases("numpy") | ctx.module_aliases("numpy.random")
    random_class_aliases = set()
    for node in ctx.walk(ast.ImportFrom):
        if node.module == "random":
            bad = sorted(
                item.name for item in node.names if item.name in _GLOBAL_RNG_FNS
            )
            if bad:
                yield node, f"imports global-RNG functions {bad} from random"
            for item in node.names:
                if item.name == "Random":
                    random_class_aliases.add(item.asname or item.name)
    for node in ctx.walk(ast.Call):
        fn = node.func
        # from random import Random; Random()  (seedless via the alias)
        if (
            isinstance(fn, ast.Name)
            and fn.id in random_class_aliases
            and not node.args
            and not node.keywords
        ):
            yield node, "Random() constructed without a seed"
        if not isinstance(fn, ast.Attribute) or not isinstance(fn.value, (ast.Name, ast.Attribute)):
            continue
        # random.Random() with no seed / random.<stateful>()
        if isinstance(fn.value, ast.Name) and fn.value.id in random_aliases:
            if fn.attr == "Random" and not node.args and not node.keywords:
                yield node, "random.Random() constructed without a seed"
            elif fn.attr in _GLOBAL_RNG_FNS:
                yield node, f"global RNG call random.{fn.attr}() — use a seeded random.Random"
        # numpy.random.<fn>() globals and unseeded default_rng()
        value = fn.value
        if (
            isinstance(value, ast.Attribute)
            and value.attr == "random"
            and isinstance(value.value, ast.Name)
            and value.value.id in numpy_aliases
        ):
            if fn.attr == "default_rng" and not node.args and not node.keywords:
                yield node, "numpy default_rng() constructed without a seed"
            elif fn.attr not in ("default_rng", "Generator", "SeedSequence", "PCG64"):
                yield node, f"global numpy.random.{fn.attr}() — use a seeded Generator"


@rule(
    "no-legacy-environment",
    "LegacyEnvironment is the parity baseline; only the kernel module, "
    "the sim package re-export and the parity layer may reference it",
)
def no_legacy_environment(ctx: FileContext) -> Iterator[tuple]:
    if ctx.in_file("sim/kernel.py", "sim/__init__.py", "labeling/reference.py"):
        return
    for node in ctx.walk(ast.Name, ast.Attribute):
        name = node.id if isinstance(node, ast.Name) else node.attr
        if name == "LegacyEnvironment":
            yield node, "direct LegacyEnvironment use outside the parity layer"
    for node in ctx.walk(ast.ImportFrom):
        for item in node.names:
            if item.name == "LegacyEnvironment":
                yield node, "imports LegacyEnvironment outside the parity layer"


@rule(
    "no-bare-except",
    "bare `except:` swallows KeyboardInterrupt/SystemExit in worker and "
    "retry paths — name the exceptions (or use BaseException deliberately)",
)
def no_bare_except(ctx: FileContext) -> Iterator[tuple]:
    for node in ctx.walk(ast.ExceptHandler):
        if node.type is None:
            yield node, "bare except clause"


@rule(
    "route-check-site",
    "route builders in repro.heuristics/wormhole/exact never validate their "
    "output: AlgorithmSpec.check is the one check site (exact/reference.py, "
    "a parity oracle, is exempt)",
)
def route_check_site(ctx: FileContext) -> Iterator[tuple]:
    parts = ctx.path.resolve().parts
    pairs = set(zip(parts, parts[1:]))
    builders = {("repro", p) for p in ("heuristics", "wormhole", "exact")}
    if not pairs & builders or parts[-2:] == ("exact", "reference.py"):
        return
    for node in ctx.walk(ast.Call):
        if isinstance(node.func, ast.Attribute) and node.func.attr == "validate":
            yield node, "route self-check in a route builder — leave it to spec.route()"


# ----------------------------------------------------------------------
# Concurrency-ownership rules (the service supervisor's threading
# discipline, statically enforced — see docs/VERIFICATION.md).
#
# Annotation grammar, read from line comments:
#   self._pending = []            # owned-by: dispatcher
#   self._seq = 0                 # guarded-by: _lock
#   def _on_result(self, ...):    # thread: dispatcher
# ----------------------------------------------------------------------

_OWNED_RE = re.compile(r"#\s*owned-by:\s*dispatcher\b")
_GUARDED_RE = re.compile(r"#\s*guarded-by:\s*(\w+)")
_THREAD_RE = re.compile(r"#\s*thread:\s*dispatcher\b")

#: method names that mutate their receiver in place
_MUTATOR_METHODS = frozenset(
    {
        "append", "appendleft", "add", "clear", "discard", "extend",
        "insert", "pop", "popleft", "popitem", "remove", "reverse",
        "setdefault", "sort", "update",
    }
)


def _self_attr(node: ast.AST) -> str | None:
    """The attribute name if ``node`` is ``self.X`` (peeling
    ``self.X[...]`` subscripts), else None."""
    while isinstance(node, ast.Subscript):
        node = node.value
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _mutated_self_attrs(node: ast.AST) -> Iterator[str]:
    """``self.X`` attributes this single statement/expression mutates:
    assignments (plain, augmented, annotated, unpacking), deletions,
    and in-place mutator calls like ``self.X.append(...)``."""
    if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        for target in targets:
            elts = target.elts if isinstance(target, (ast.Tuple, ast.List)) else [target]
            for elt in elts:
                attr = _self_attr(elt)
                if attr is not None:
                    yield attr
    elif isinstance(node, ast.Delete):
        for target in node.targets:
            attr = _self_attr(target)
            if attr is not None:
                yield attr
    elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        if node.func.attr in _MUTATOR_METHODS:
            attr = _self_attr(node.func.value)
            if attr is not None:
                yield attr


def _annotated_attrs(ctx: FileContext, klass: ast.ClassDef) -> tuple[set, dict]:
    """(owned attrs, guarded attr -> lock attr) declared in ``klass``
    via ``# owned-by: dispatcher`` / ``# guarded-by: <lock>`` comments
    on the attribute's assignment lines."""
    lines = ctx.source.splitlines()
    owned: set[str] = set()
    guarded: dict[str, str] = {}
    for node in ast.walk(klass):
        if not isinstance(node, (ast.Assign, ast.AnnAssign)):
            continue
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        for target in targets:
            attr = _self_attr(target)
            if attr is None or not (0 < node.lineno <= len(lines)):
                continue
            text = lines[node.lineno - 1]
            if _OWNED_RE.search(text):
                owned.add(attr)
            match = _GUARDED_RE.search(text)
            if match:
                guarded[attr] = match.group(1)
    return owned, guarded


def _methods(klass: ast.ClassDef) -> list[ast.FunctionDef | ast.AsyncFunctionDef]:
    return [
        node
        for node in klass.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]


def _dispatcher_tagged(ctx: FileContext, fn: ast.AST) -> bool:
    lines = ctx.source.splitlines()
    lineno = getattr(fn, "lineno", 0)
    return 0 < lineno <= len(lines) and bool(_THREAD_RE.search(lines[lineno - 1]))


@rule(
    "dispatcher-ownership",
    "state annotated `# owned-by: dispatcher` may only be mutated by "
    "methods annotated `# thread: dispatcher` (all other threads must "
    "go through the intake queue); untagged methods must not call "
    "dispatcher-thread methods",
)
def dispatcher_ownership(ctx: FileContext) -> Iterator[tuple]:
    for klass in ctx.walk(ast.ClassDef):
        owned, _ = _annotated_attrs(ctx, klass)
        if not owned:
            continue
        methods = _methods(klass)
        dispatcher_names = {
            fn.name for fn in methods if _dispatcher_tagged(ctx, fn)
        }
        for fn in methods:
            if fn.name == "__init__" or fn.name in dispatcher_names:
                # construction happens-before the dispatcher starts
                continue
            for node in ast.walk(fn):
                for attr in _mutated_self_attrs(node):
                    if attr in owned:
                        yield node, (
                            f"{klass.name}.{fn.name} mutates dispatcher-owned "
                            f"self.{attr} without a `# thread: dispatcher` tag"
                        )
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id == "self"
                    and node.func.attr in dispatcher_names
                ):
                    yield node, (
                        f"{klass.name}.{fn.name} calls dispatcher-thread "
                        f"method {node.func.attr} from an untagged method"
                    )


#: constructors whose products are real concurrency locks (simulated
#: wormhole-channel acquire/release in repro.sim is *not* in scope)
_LOCK_FACTORIES = frozenset(
    {"Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore"}
)


def _lock_bindings(ctx: FileContext) -> tuple[set, set]:
    """(attribute names, local names) bound to ``threading.Lock()``-
    style constructors anywhere in this file."""
    attrs: set[str] = set()
    names: set[str] = set()
    for node in ctx.walk(ast.Assign, ast.AnnAssign):
        value = node.value
        if not isinstance(value, ast.Call):
            continue
        fn = value.func
        is_lock = (isinstance(fn, ast.Attribute) and fn.attr in _LOCK_FACTORIES) or (
            isinstance(fn, ast.Name) and fn.id in _LOCK_FACTORIES
        )
        if not is_lock:
            continue
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        for target in targets:
            if isinstance(target, ast.Attribute):
                attrs.add(target.attr)
            elif isinstance(target, ast.Name):
                names.add(target.id)
    return attrs, names


@rule(
    "lock-discipline",
    "explicit .acquire()/.release() on a threading lock is forbidden — "
    "use a `with` block so the lock is released on every exit path",
)
def lock_discipline(ctx: FileContext) -> Iterator[tuple]:
    attrs, names = _lock_bindings(ctx)
    if not attrs and not names:
        return
    for node in ctx.walk(ast.Call):
        fn = node.func
        if not isinstance(fn, ast.Attribute) or fn.attr not in ("acquire", "release"):
            continue
        receiver = fn.value
        is_lock = (isinstance(receiver, ast.Attribute) and receiver.attr in attrs) or (
            isinstance(receiver, ast.Name) and receiver.id in names
        )
        if is_lock:
            yield node, (
                f"explicit .{fn.attr}() on a lock — use a `with` block"
            )


@rule(
    "guarded-mutation",
    "state annotated `# guarded-by: <lock>` may only be mutated inside "
    "a `with self.<lock>:` block (reads for monitoring are exempt)",
)
def guarded_mutation(ctx: FileContext) -> Iterator[tuple]:
    for klass in ctx.walk(ast.ClassDef):
        _, guarded = _annotated_attrs(ctx, klass)
        if not guarded:
            continue
        findings: list[tuple] = []

        def visit(node: ast.AST, held: frozenset, fn_name: str) -> None:
            if isinstance(node, ast.With):
                acquired = {
                    item.context_expr.attr
                    for item in node.items
                    if isinstance(item.context_expr, ast.Attribute)
                    and isinstance(item.context_expr.value, ast.Name)
                    and item.context_expr.value.id == "self"
                }
                held = held | frozenset(acquired)
            for attr in _mutated_self_attrs(node):
                lock = guarded.get(attr)
                if lock is not None and lock not in held:
                    findings.append(
                        (
                            node,
                            f"{klass.name}.{fn_name} mutates self.{attr} "
                            f"outside `with self.{lock}`",
                        )
                    )
            for child in ast.iter_child_nodes(node):
                visit(child, held, fn_name)

        for fn in _methods(klass):
            if fn.name == "__init__":
                continue  # construction happens-before any other thread
            for child in ast.iter_child_nodes(fn):
                visit(child, frozenset(), fn.name)
        yield from findings


# ----------------------------------------------------------------------
# Driver.
# ----------------------------------------------------------------------


def _suppressed(source_line: str, rule_id: str) -> bool:
    m = _IGNORE_RE.search(source_line)
    if not m:
        return False
    ids = m.group("ids")
    if ids is None:
        return True
    return rule_id in {s.strip() for s in ids.split(",")}


def lint_file(
    path: str | Path,
    root: str | Path | None = None,
    select: Iterable[str] | None = None,
) -> list[LintFinding]:
    """Run the (selected) rules over one file."""
    path = Path(path)
    source = path.read_text(encoding="utf-8")
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        return [
            LintFinding(str(path), exc.lineno or 1, exc.offset or 0,
                        "syntax-error", str(exc.msg))
        ]
    try:
        relpath = path.resolve().relative_to(Path(root).resolve()).as_posix() if root else path.as_posix()
    except ValueError:
        relpath = path.as_posix()
    ctx = FileContext(path=path, relpath=relpath, source=source, tree=tree)
    lines = source.splitlines()
    wanted = set(select) if select is not None else None
    findings = []
    for r in rules():
        if wanted is not None and r.id not in wanted:
            continue
        for node, message in r.check(ctx):
            line = getattr(node, "lineno", None) or int(node)
            col = getattr(node, "col_offset", 0)
            text = lines[line - 1] if 0 < line <= len(lines) else ""
            if _suppressed(text, r.id):
                continue
            findings.append(LintFinding(str(path), line, col, r.id, message))
    return findings


def lint_paths(
    paths: Iterable[str | Path] = (),
    select: Iterable[str] | None = None,
) -> list[LintFinding]:
    """Run the lint pass over files and/or directory trees (default:
    the installed ``repro`` package source).  Findings are sorted by
    location."""
    roots = [Path(p) for p in paths]
    if not roots:
        import repro

        roots = [Path(repro.__file__).parent]
    findings: list[LintFinding] = []
    for root in roots:
        files = [root] if root.is_file() else sorted(root.rglob("*.py"))
        base = root if root.is_dir() else root.parent
        for f in files:
            if "__pycache__" in f.parts:
                continue
            findings.extend(lint_file(f, root=base, select=select))
    return sorted(findings, key=lambda f: (f.path, f.line, f.col, f.rule))
