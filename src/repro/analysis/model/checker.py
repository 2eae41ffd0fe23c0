"""Explicit-state model checker for the service's protocol machines.

The checker is deliberately small and deterministic: a breadth-first
exploration of every reachable state of a finite
:class:`Machine`, with canonical state hashing (states are tuples in
declared field order; the serialized form is sorted-key JSON of the
field view), so two runs on two machines produce byte-identical
transition relations and therefore byte-identical certificate digests.

Two property classes are verified exhaustively:

* **safety** — an invariant evaluated at every reachable state.  BFS
  discovery order doubles as shortest-path order, so the first state
  violating an invariant yields a *minimized* counterexample trace
  (the shortest transition sequence from the initial state) for free.
* **liveness under fairness** — ``eventually(goal)`` under strong
  fairness: an infinite run cannot ignore a transition that is enabled
  infinitely often.  Over a finite transition system this is exactly a
  bottom-SCC condition: the property holds iff every *closed* SCC of
  the reachable graph (no edge leaving it) contains a goal state.  A
  violation is reported as a lasso — a shortest stem from the initial
  state plus a shortest cycle inside the offending SCC, the latter
  minimized by :func:`repro.analysis.graph.shortest_cycle` (the same
  machinery that minimizes deadlock counterexamples in PR 4).

Verified machines are summarized as :class:`ModelCertificate`
artifacts (state count, edge count, sha256 of the canonicalized
transition relation) committed under ``analysis/certificates/service/``
and re-checked by CI, mirroring :mod:`repro.analysis.certify`.
"""

from __future__ import annotations

import hashlib
import json
from collections import deque
from collections.abc import Callable, Iterable, Mapping
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from ..graph import shortest_cycle

__all__ = [
    "ARTIFACT_SCHEMA",
    "Machine",
    "ModelCertificate",
    "ModelCheckResult",
    "SafetyProperty",
    "Transition",
    "Violation",
    "canonical_state",
    "check_machine",
    "load_certificate",
]

#: schema identifier stamped into every artifact (bump on format change)
ARTIFACT_SCHEMA = "repro.analysis/modelcheck.v1"

#: a state as the machine definitions see it: field name -> value
View = dict[str, Any]

#: a state as the checker stores it: values in declared field order
State = tuple[Any, ...]


@dataclass(frozen=True)
class Transition:
    """One named step of a machine.

    ``apply`` receives a field view and returns the successor view, or
    a list of views for nondeterministic steps (e.g. the chaos plan
    choosing an action at dispatch).  ``methods`` are the dotted paths
    (relative to ``repro.service``, or ``workers.`` for the shared
    worker pool :mod:`repro.workers`) of the production code the
    transition abstracts — :mod:`repro.analysis.model.conformance`
    verifies they resolve, so renaming a supervisor method without
    updating the model fails CI.
    """

    name: str
    methods: tuple[str, ...]
    guard: Callable[[View], bool]
    apply: Callable[[View], View | list[View]]


@dataclass(frozen=True)
class SafetyProperty:
    """An invariant over field views, checked at every reachable state."""

    name: str
    holds: Callable[[View], bool]
    description: str = ""


@dataclass(frozen=True)
class Machine:
    """A finite transition system plus the properties it must satisfy.

    ``goal`` is the liveness target: under strong fairness every run
    must eventually reach a state satisfying it (``liveness`` names the
    property in reports and certificates).
    """

    name: str
    fields: tuple[str, ...]
    initial: View
    transitions: tuple[Transition, ...]
    safety: tuple[SafetyProperty, ...]
    liveness: str
    goal: Callable[[View], bool]
    params: Mapping[str, object] = field(default_factory=dict)

    def pack(self, view: View) -> State:
        return tuple(view[name] for name in self.fields)

    def unpack(self, state: State) -> View:
        return dict(zip(self.fields, state))


def canonical_state(machine: Machine, state: State) -> str:
    """The canonical serialized form of a state (sorted-key JSON of the
    field view) — the unit the relation digest is computed over."""
    return json.dumps(machine.unpack(state), sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class Violation:
    """A property violation with a minimized counterexample.

    ``trace`` is the shortest transition-name sequence from the initial
    state to ``state`` (BFS order guarantees minimality).  For liveness
    violations ``cycle`` is the unfair loop: a shortest cycle of
    transition names inside a closed SCC containing no goal state
    (empty for a deadlock, where the run simply stops short of the
    goal).
    """

    machine: str
    property: str
    kind: str  # "safety" | "liveness" | "deadlock"
    trace: tuple[str, ...]
    state: View
    cycle: tuple[str, ...] = ()

    def __str__(self) -> str:
        stem = " -> ".join(self.trace) or "(initial state)"
        msg = (
            f"{self.machine}: {self.kind} violation of {self.property!r} "
            f"after [{stem}] in state {self.state}"
        )
        if self.cycle:
            msg += f" looping [{' -> '.join(self.cycle)}]"
        return msg


@dataclass(frozen=True)
class ModelCheckResult:
    """Everything one exhaustive run established about a machine."""

    machine: Machine
    states: int
    edges: int
    relation_digest: str
    deadlock_free: bool
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def certificate(self) -> "ModelCertificate":
        if not self.ok:
            raise ValueError(f"machine {self.machine.name!r} has violations")
        return ModelCertificate(
            machine=self.machine.name,
            params=dict(self.machine.params),
            fields=self.machine.fields,
            initial=dict(self.machine.initial),
            states=self.states,
            edges=self.edges,
            relation_digest=self.relation_digest,
            deadlock_free=self.deadlock_free,
            transitions={t.name: list(t.methods) for t in self.machine.transitions},
            safety=tuple(p.name for p in self.machine.safety),
            liveness=self.machine.liveness,
        )


class StateSpaceError(RuntimeError):
    """Raised when exploration exceeds the state budget — a modelling
    bug (an unbounded counter), never a property violation."""


def _reconstruct(
    parent: dict[State, tuple[State, str] | None], state: State
) -> tuple[str, ...]:
    names: list[str] = []
    cursor: State | None = state
    while cursor is not None:
        step = parent[cursor]
        if step is None:
            break
        cursor, name = step
        names.append(name)
    return tuple(reversed(names))


def check_machine(machine: Machine, max_states: int = 200_000) -> ModelCheckResult:
    """Exhaustively explore ``machine`` and verify all its properties.

    Deterministic: states are explored FIFO, transitions in declaration
    order, so traces and digests are stable across runs and platforms.
    Safety counterexamples keep only the first (shallowest) violating
    state per property; liveness counterexamples pick the closed
    goal-free SCC whose entry state is nearest the initial state.
    """
    initial = machine.pack(machine.initial)
    parent: dict[State, tuple[State, str] | None] = {initial: None}
    depth: dict[State, int] = {initial: 0}
    frontier: deque[State] = deque([initial])
    succ: dict[State, list[State]] = {}
    edge_label: dict[tuple[State, State], str] = {}
    edge_lines: list[str] = []
    violations: list[Violation] = []
    safety_seen: set[str] = set()
    deadlock_free = True

    def note_safety(state: State) -> None:
        view = machine.unpack(state)
        for prop in machine.safety:
            if prop.name in safety_seen or prop.holds(view):
                continue
            safety_seen.add(prop.name)
            violations.append(
                Violation(
                    machine=machine.name,
                    property=prop.name,
                    kind="safety",
                    trace=_reconstruct(parent, state),
                    state=view,
                )
            )

    note_safety(initial)
    while frontier:
        state = frontier.popleft()
        view = machine.unpack(state)
        successors: list[State] = []
        for transition in machine.transitions:
            if not transition.guard(view):
                continue
            result = transition.apply(dict(view))
            branches = result if isinstance(result, list) else [result]
            for branch in branches:
                nxt = machine.pack(branch)
                successors.append(nxt)
                edge_label.setdefault((state, nxt), transition.name)
                edge_lines.append(
                    f"{canonical_state(machine, state)} --{transition.name}--> "
                    f"{canonical_state(machine, nxt)}"
                )
                if nxt not in parent:
                    if len(parent) >= max_states:
                        raise StateSpaceError(
                            f"machine {machine.name!r} exceeded {max_states} states"
                        )
                    parent[nxt] = (state, transition.name)
                    depth[nxt] = depth[state] + 1
                    frontier.append(nxt)
                    note_safety(nxt)
        succ[state] = successors
        if not successors:
            deadlock_free = False
            if not machine.goal(view):
                violations.append(
                    Violation(
                        machine=machine.name,
                        property=machine.liveness,
                        kind="deadlock",
                        trace=_reconstruct(parent, state),
                        state=view,
                    )
                )

    violations.extend(_liveness_violations(machine, succ, parent, depth))
    digest = hashlib.sha256("\n".join(sorted(set(edge_lines))).encode()).hexdigest()
    return ModelCheckResult(
        machine=machine,
        states=len(parent),
        edges=len(edge_label),
        relation_digest=digest,
        deadlock_free=deadlock_free,
        violations=tuple(violations),
    )


def _strongly_connected(succ: dict[State, list[State]]) -> list[list[State]]:
    """Tarjan's algorithm, iteratively, over the explored graph."""
    index: dict[State, int] = {}
    low: dict[State, int] = {}
    on_stack: set[State] = set()
    stack: list[State] = []
    components: list[list[State]] = []
    counter = 0
    for root in succ:
        if root in index:
            continue
        work: list[tuple[State, int]] = [(root, 0)]
        while work:
            node, child_i = work[-1]
            if child_i == 0:
                index[node] = low[node] = counter
                counter += 1
                stack.append(node)
                on_stack.add(node)
            advanced = False
            children = succ[node]
            while child_i < len(children):
                child = children[child_i]
                child_i += 1
                if child not in index:
                    work[-1] = (node, child_i)
                    work.append((child, 0))
                    advanced = True
                    break
                if child in on_stack:
                    low[node] = min(low[node], index[child])
            if advanced:
                continue
            work.pop()
            if low[node] == index[node]:
                component: list[State] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                components.append(component)
            if work:
                parent_node, _ = work[-1]
                low[parent_node] = min(low[parent_node], low[node])
    return components


def _liveness_violations(
    machine: Machine,
    succ: dict[State, list[State]],
    parent: dict[State, tuple[State, str] | None],
    depth: dict[State, int],
) -> list[Violation]:
    """Bottom-SCC fairness check: every closed SCC must contain a goal
    state.  The reported lasso enters the nearest offending SCC via a
    shortest stem and loops its shortest internal cycle."""
    offenders: list[list[State]] = []
    for component in _strongly_connected(succ):
        members = set(component)
        if not all(nxt in members for state in component for nxt in succ[state]):
            continue  # open SCC: fairness forces an eventual exit
        if not any(succ[state] for state in component):
            continue  # a sink state, handled by the deadlock check during BFS
        if any(machine.goal(machine.unpack(state)) for state in component):
            continue
        offenders.append(component)
    violations: list[Violation] = []
    for component in offenders:
        members = set(component)
        inner_edges = [
            (state, nxt)
            for state in component
            for nxt in succ[state]
            if nxt in members
        ]
        cycle_nodes = shortest_cycle(inner_edges) or []
        anchor_pool = cycle_nodes[:-1] if cycle_nodes else component
        anchor = min(
            anchor_pool, key=lambda s: (depth[s], canonical_state(machine, s))
        )
        cycle_names: tuple[str, ...] = ()
        if cycle_nodes:
            # rotate the closed node list to start at the anchor, then
            # translate node pairs back into transition names
            closed_nodes = cycle_nodes[:-1]
            at = closed_nodes.index(anchor) if anchor in closed_nodes else 0
            rotated = closed_nodes[at:] + closed_nodes[:at] + [closed_nodes[at]]
            cycle_names = tuple(
                _edge_name(machine, a, b) for a, b in zip(rotated, rotated[1:])
            )
        violations.append(
            Violation(
                machine=machine.name,
                property=machine.liveness,
                kind="liveness",
                trace=_reconstruct(parent, anchor),
                state=machine.unpack(anchor),
                cycle=cycle_names,
            )
        )
    violations.sort(key=lambda v: (len(v.trace), canonical_state(machine, machine.pack(v.state))))
    return violations


def _edge_name(machine: Machine, src: State, dst: State) -> str:
    """Recover the (first, in declaration order) transition name that
    produced the edge ``src -> dst``."""
    view = machine.unpack(src)
    for transition in machine.transitions:
        if not transition.guard(view):
            continue
        result = transition.apply(dict(view))
        branches = result if isinstance(result, list) else [result]
        if any(machine.pack(branch) == dst for branch in branches):
            return transition.name
    raise RuntimeError(f"no transition yields {dst} from {src}")  # pragma: no cover


@dataclass(frozen=True)
class ModelCertificate:
    """A machine-checkable summary of one verified machine.

    Mirrors :class:`repro.analysis.certify.Certificate`: the digest is
    sha256 over the sorted canonical transition relation, so any change
    to the model (new transition, changed guard, different parameters)
    changes the committed artifact and ``git diff --exit-code`` in CI
    catches it.  ``revalidate`` re-runs the checker and compares.
    """

    machine: str
    params: dict[str, object]
    fields: tuple[str, ...]
    initial: dict[str, object]
    states: int
    edges: int
    relation_digest: str
    deadlock_free: bool
    transitions: dict[str, list[str]]
    safety: tuple[str, ...]
    liveness: str
    kind: str = "modelcheck-certificate"

    def to_json(self) -> dict[str, object]:
        return {
            "schema": ARTIFACT_SCHEMA,
            "kind": self.kind,
            "machine": self.machine,
            "params": dict(self.params),
            "fields": list(self.fields),
            "initial": dict(self.initial),
            "states": self.states,
            "edges": self.edges,
            "relation_digest": self.relation_digest,
            "deadlock_free": self.deadlock_free,
            "transitions": {k: list(v) for k, v in sorted(self.transitions.items())},
            "safety": list(self.safety),
            "liveness": self.liveness,
        }

    @classmethod
    def from_json(cls, data: Mapping[str, Any]) -> "ModelCertificate":
        if data.get("schema") != ARTIFACT_SCHEMA:
            raise ValueError(f"unknown artifact schema: {data.get('schema')!r}")
        return cls(
            machine=str(data["machine"]),
            params=dict(data["params"]),
            fields=tuple(data["fields"]),
            initial=dict(data["initial"]),
            states=int(data["states"]),
            edges=int(data["edges"]),
            relation_digest=str(data["relation_digest"]),
            deadlock_free=bool(data["deadlock_free"]),
            transitions={
                str(k): [str(m) for m in v]
                for k, v in dict(data["transitions"]).items()
            },
            safety=tuple(str(s) for s in data["safety"]),
            liveness=str(data["liveness"]),
        )

    @property
    def filename(self) -> str:
        return f"{self.machine}.json"

    def write(self, out_dir: str | Path) -> Path:
        path = Path(out_dir) / self.filename
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_json(), indent=2, sort_keys=True) + "\n")
        return path


def load_certificate(path: str | Path) -> ModelCertificate:
    return ModelCertificate.from_json(json.loads(Path(path).read_text()))


def write_certificates(
    results: Iterable[ModelCheckResult], out_dir: str | Path
) -> list[Path]:
    return [r.certificate().write(out_dir) for r in results if r.ok]
