"""Trusted/untrusted boundary: lifecycle calls and the paging cost model.

The engine's setup and teardown go through five ordered control calls
(initialize, start_device, acquire, stop, shutdown); anything out of order is
an OrderError. The cost model is explicitly a model, not a hardware claim:
it prices the trusted-side working set against a protected-memory budget and
yields a slowdown multiplier once the budget is exceeded, plus a startup
warmup window during which consumption is throttled. The engine takes
``None`` for no model, and then prices nothing anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .ring import ConfigError

EPC_BYTES_DEFAULT = 96 * 1024 * 1024  # protected memory available for user data
ENGINE_BASE_BYTES = 16 * 1024 * 1024  # resident engine code + fixed state
RULESET_BYTES_PER_RULE = 28 * 1024 * 1024 / 3462  # full community-scale set ~= 28MB
WARMUP_US_DEFAULT = 7_000_000  # 210 MiB paged in at 30 MiB/s
MAX_MODEL_US = 86_400_000_000  # one day (28,800 report rows); nothing else bounds either time


class LifecycleState(Enum):
    UNINITIALIZED = "uninitialized"
    INITIALIZED = "initialized"
    DEVICE_STARTED = "device_started"
    RUNNING = "running"
    STOPPED = "stopped"
    SHUTDOWN = "shutdown"


class LifecycleEvent(Enum):
    INITIALIZE = "initialize"
    START_DEVICE = "start_device"
    ACQUIRE = "acquire"
    STOP = "stop"
    SHUTDOWN = "shutdown"


class OrderError(Exception):
    """Lifecycle event arrived out of order."""


_TRANSITIONS = {
    (LifecycleState.UNINITIALIZED, LifecycleEvent.INITIALIZE): LifecycleState.INITIALIZED,
    (LifecycleState.INITIALIZED, LifecycleEvent.START_DEVICE): LifecycleState.DEVICE_STARTED,
    (LifecycleState.DEVICE_STARTED, LifecycleEvent.ACQUIRE): LifecycleState.RUNNING,
    (LifecycleState.RUNNING, LifecycleEvent.STOP): LifecycleState.STOPPED,
    (LifecycleState.STOPPED, LifecycleEvent.SHUTDOWN): LifecycleState.SHUTDOWN,
}


class Lifecycle:
    def __init__(self):
        self.state = LifecycleState.UNINITIALIZED

    def transition(self, event: LifecycleEvent) -> LifecycleState:
        nxt = _TRANSITIONS.get((self.state, event))
        if nxt is None:
            raise OrderError(f"event {event.value} not allowed in state {self.state.value}")
        self.state = nxt
        return nxt


@dataclass(frozen=True)
class CostModel:
    """Boundary-and-paging overhead parameters.

    crossing_cost_us applies only to the five lifecycle calls (the runtime
    path is exitless). warmup_us is the startup window in which the engine is
    busy paging its own code and data in; both are at most ``MAX_MODEL_US``.
    """

    epc_bytes: int = EPC_BYTES_DEFAULT
    crossing_cost_us: float = 0.0
    paging_penalty: float = 2.0
    warmup_us: int = WARMUP_US_DEFAULT

    def __post_init__(self):
        coefficients = (self.epc_bytes, self.crossing_cost_us, self.paging_penalty, self.warmup_us)
        if any(isinstance(c, float) and not math.isfinite(c) for c in coefficients):  # NaN would price silently
            raise ConfigError("cost model coefficients must be finite")
        if min(coefficients) < 0:
            raise ConfigError("cost model coefficients must be >= 0")
        if self.epc_bytes < 1:  # paging_factor divides by it
            raise ConfigError("epc_bytes must be >= 1")
        if max(self.warmup_us, self.crossing_cost_us) > MAX_MODEL_US:
            raise ConfigError(f"warmup_us and crossing_cost_us must be <= {MAX_MODEL_US} (one day)")


def paging_factor(model: CostModel | None, trusted_footprint_bytes: int) -> float:
    """Slowdown multiplier >= 1.0 once the working set exceeds the budget."""
    if model is None or trusted_footprint_bytes <= model.epc_bytes:
        return 1.0
    excess = trusted_footprint_bytes - model.epc_bytes
    return 1.0 + model.paging_penalty * (excess / model.epc_bytes)


def ruleset_bytes(rule_count: int) -> int:
    return int(rule_count * RULESET_BYTES_PER_RULE)


def trusted_footprint(flow_table_bytes: int, rule_count: int) -> int:
    """Total protected working set: flow tables + ruleset + fixed base."""
    return flow_table_bytes + ruleset_bytes(rule_count) + ENGINE_BASE_BYTES
