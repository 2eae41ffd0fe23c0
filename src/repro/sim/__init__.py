"""Discrete-event wormhole network simulation (§7.2's dynamic study).

The CSIM-equivalent kernel lives in :mod:`repro.sim.kernel`; the
flit-level wormhole model in :mod:`repro.sim.reference`; routing
adapters in :mod:`repro.sim.traffic`; the experiment drivers in
:mod:`repro.sim.runner`.
"""

from .config import InvalidConfigError, SimConfig
from .kernel import Environment, Event, LegacyEnvironment, Process, Timeout
from .reference import (
    AdaptivePathWorm,
    Channel,
    Delivery,
    PathWorm,
    TreeWorm,
    WormholeNetwork,
)
from .circuit import CircuitMessage, inject_circuit_path
from .faults import (
    FaultEvent,
    FaultPlan,
    FaultState,
    derive_fault_seed,
)
from .saf import SAFNetwork
from .vct import VCTWorm, inject_vct_path
from .runner import (
    DeadlockDetected,
    FaultResult,
    MixedResult,
    UnsupportedFaultModel,
    inject_specs,
    run_mixed,
    run_resilient,
    run_until_confident,
    DynamicResult,
    ScenarioResult,
    run_dynamic,
    run_static_scenario,
)
from .stats import SimStats, Summary, batch_means, t975
from .traffic import AdaptiveSpec, PathSpec, Router, TreeSpec, VCTTreeSpec
from .vct_tree import VCTTreeMulticast, inject_vct_tree, tree_chains

__all__ = [
    "AdaptivePathWorm",
    "AdaptiveSpec",
    "Channel",
    "CircuitMessage",
    "DeadlockDetected",
    "Delivery",
    "DynamicResult",
    "Environment",
    "InvalidConfigError",
    "FaultEvent",
    "FaultPlan",
    "FaultResult",
    "FaultState",
    "LegacyEnvironment",
    "MixedResult",
    "Event",
    "PathSpec",
    "PathWorm",
    "SAFNetwork",
    "Process",
    "Router",
    "ScenarioResult",
    "SimConfig",
    "SimStats",
    "Summary",
    "Timeout",
    "TreeSpec",
    "VCTTreeMulticast",
    "VCTTreeSpec",
    "TreeWorm",
    "UnsupportedFaultModel",
    "VCTWorm",
    "WormholeNetwork",
    "batch_means",
    "inject_circuit_path",
    "inject_specs",
    "inject_vct_path",
    "inject_vct_tree",
    "tree_chains",
    "derive_fault_seed",
    "run_dynamic",
    "run_mixed",
    "run_resilient",
    "run_until_confident",
    "run_static_scenario",
    "t975",
]
