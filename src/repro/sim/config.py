"""Simulation parameters for the dynamic study (§7.2).

Defaults reproduce the dissertation's setup: 128-byte messages on
20 MB/s channels, an average of 10 destinations per multicast, and
exponential (Poisson) message generation at every node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


class InvalidConfigError(ValueError):
    """A :class:`SimConfig` field holds a value the simulators cannot
    run with (negative rate, zero capacity, non-positive length, ...).

    Raised at construction so a bad parameter fails at the call site
    instead of as silent misbehavior deep inside a runner.
    """


@dataclass(frozen=True)
class SimConfig:
    """Parameters of one dynamic wormhole simulation run.

    Every instance is validated on construction; out-of-range fields
    raise :class:`InvalidConfigError`.
    """

    #: message length L in bytes (§7.2: 128)
    message_bytes: int = 128
    #: flit size in bytes; 2 gives a 0.1 us flit time at 20 MB/s
    flit_bytes: int = 2
    #: channel bandwidth B in bytes/second (§7.2: 20 MB/s)
    bandwidth: float = 20e6
    #: average time between multicasts per node, in seconds
    #: (§7.2 Fig. 7.9: 300 us)
    mean_interarrival: float = 300e-6
    #: destinations per multicast (§7.2: average 10)
    num_destinations: int = 10
    #: total messages to inject across all nodes
    num_messages: int = 2000
    #: fraction of earliest-injected messages discarded as warm-up
    warmup_fraction: float = 0.1
    #: physical channels per link direction (1 = single, 2 = double)
    channels_per_link: int = 1
    #: model the destination-address header carried by each worm
    #: (§2.3.1: distributed routing carries the destination addresses in
    #: the message; more destinations = longer messages).  Off by
    #: default to match the dissertation's fixed 128-byte messages.
    model_header_overhead: bool = False
    #: bytes per destination address in the header when modelling it
    address_bytes: int = 2
    #: RNG seed
    seed: int = 1

    # ------------------------------------------------------------------
    # Fault injection (repro.sim.faults).  All zero by default: the
    # fault-aware simulator with these defaults is event-for-event
    # identical to the fault-free one (the parity suite asserts it).
    # ------------------------------------------------------------------

    #: fraction of directed channels that fail during the run
    link_fault_rate: float = 0.0
    #: fraction of nodes that fail during the run
    node_fault_rate: float = 0.0
    #: mean time between failures of a faulty element, in seconds;
    #: 0 = each faulty element fails once, uniformly over the window
    fault_mtbf: float = 0.0
    #: mean time to repair, in seconds; 0 = faults are permanent
    fault_mttr: float = 0.0
    #: time window faults are sampled over; ``None`` = the expected
    #: injection span (num_messages x interarrival / nodes)
    fault_window: float | None = None
    #: RNG seed of the fault schedule; ``None`` derives one from
    #: ``seed`` (independent of the traffic RNG either way)
    fault_seed: int | None = None

    #: source-level retry budget for dropped multicasts
    max_retries: int = 3
    #: delay before the first retransmission, in seconds
    retry_timeout: float = 200e-6
    #: multiplier applied to the retry delay per attempt (exponential
    #: backoff)
    retry_backoff: float = 2.0

    def __post_init__(self):
        def require(ok: bool, field: str, why: str) -> None:
            if not ok:
                raise InvalidConfigError(
                    f"SimConfig.{field} = {getattr(self, field)!r}: {why}"
                )

        require(self.message_bytes > 0, "message_bytes", "must be positive")
        require(self.flit_bytes > 0, "flit_bytes", "must be positive")
        require(self.bandwidth > 0, "bandwidth", "must be positive")
        require(
            self.mean_interarrival > 0, "mean_interarrival", "must be positive"
        )
        require(
            self.num_destinations >= 1, "num_destinations", "need at least one"
        )
        require(self.num_messages >= 0, "num_messages", "cannot be negative")
        require(
            0.0 <= self.warmup_fraction <= 1.0,
            "warmup_fraction",
            "must lie in [0, 1]",
        )
        require(
            self.channels_per_link >= 1,
            "channels_per_link",
            "need at least one channel per link",
        )
        require(self.address_bytes >= 0, "address_bytes", "cannot be negative")
        require(
            0.0 <= self.link_fault_rate <= 1.0,
            "link_fault_rate",
            "must lie in [0, 1]",
        )
        require(
            0.0 <= self.node_fault_rate <= 1.0,
            "node_fault_rate",
            "must lie in [0, 1]",
        )
        require(self.fault_mtbf >= 0, "fault_mtbf", "cannot be negative")
        require(self.fault_mttr >= 0, "fault_mttr", "cannot be negative")
        require(
            self.fault_window is None or self.fault_window > 0,
            "fault_window",
            "must be positive (or None for the injection span)",
        )
        require(self.max_retries >= 0, "max_retries", "cannot be negative")
        require(self.retry_timeout > 0, "retry_timeout", "must be positive")
        require(self.retry_backoff > 0, "retry_backoff", "must be positive")

    @property
    def faulty(self) -> bool:
        """Whether any fault injection is configured."""
        return self.link_fault_rate > 0 or self.node_fault_rate > 0

    @property
    def flits_per_message(self) -> int:
        return max(1, math.ceil(self.message_bytes / self.flit_bytes))

    def flits_with_header(self, num_addresses: int) -> int:
        """Flit count for a message carrying ``num_addresses``
        destination addresses in its header."""
        total = self.message_bytes + num_addresses * self.address_bytes
        return max(1, math.ceil(total / self.flit_bytes))

    @property
    def flit_time(self) -> float:
        """Time for one flit to cross one channel."""
        return self.flit_bytes / self.bandwidth

    @property
    def message_time(self) -> float:
        """L/B: time for the whole message to cross one channel."""
        return self.message_bytes / self.bandwidth

    def replace(self, **kw) -> "SimConfig":
        from dataclasses import replace

        return replace(self, **kw)
