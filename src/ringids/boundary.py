"""Trusted/untrusted boundary: the paging cost model.

The cost model is explicitly a model, not a hardware claim. It prices what
an enclave-hosted detector's throughput rests on: the trusted-side working
set against a protected-memory budget, which yields a slowdown multiplier
once the budget is exceeded, and a startup warmup window during which
consumption is throttled while the engine pages its code and data in. The
packet path makes no boundary crossings, and the few a run's set-up and
teardown make cost microseconds in all, so nothing prices them. The engine
takes ``None`` for no model, and then prices nothing anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .ring import ConfigError

EPC_BYTES_DEFAULT = 96 * 1024 * 1024  # protected memory available for user data
ENGINE_BASE_BYTES = 16 * 1024 * 1024  # resident engine code + fixed state
RULESET_BYTES_PER_RULE = 28 * 1024 * 1024 / 3462  # full community-scale set ~= 28MB
WARMUP_US_DEFAULT = 7_000_000  # 210 MiB paged in at 30 MiB/s
MAX_MODEL_US = 86_400_000_000  # one day (28,800 report rows); nothing else bounds the warm-up


@dataclass(frozen=True)
class CostModel:
    """Paging overhead parameters.

    warmup_us is the startup window in which the engine is busy paging its
    own code and data in; it is at most ``MAX_MODEL_US``.
    """

    epc_bytes: int = EPC_BYTES_DEFAULT
    paging_penalty: float = 2.0
    warmup_us: int = WARMUP_US_DEFAULT

    def __post_init__(self):
        coefficients = (self.epc_bytes, self.paging_penalty, self.warmup_us)
        if any(isinstance(c, float) and not math.isfinite(c) for c in coefficients):  # NaN would price silently
            raise ConfigError("cost model coefficients must be finite")
        if min(coefficients) < 0:
            raise ConfigError("cost model coefficients must be >= 0")
        if self.epc_bytes < 1:  # paging_factor divides by it
            raise ConfigError("epc_bytes must be >= 1")
        if self.warmup_us > MAX_MODEL_US:
            raise ConfigError(f"warmup_us must be <= {MAX_MODEL_US} (one day)")


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
