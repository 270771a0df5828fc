"""ringids: a partitioned intrusion-detection pipeline.

Packet acquisition and analysis communicate only through bounded rings of
pool-backed packet descriptors; analysis workers run a two-phase matcher over
a Snort-subset rule language, track flows privately, and are handed each
packet's time (a monotone counter clock's reading in real-clock runs). An
optional cost model emulates protected-memory paging and the startup window
in which the engine pages itself in.
"""

from .acquire import AcquisitionWorker, rss_hash, select_ring
from .boundary import CostModel, paging_factor
from .clock import CounterClock, counter_to_us
from .detect import Alert, AnalysisWorker, PacketContext, evaluate_rule, format_alert_fast, prefilter
from .flow import Flow, FlowState, FlowTable, SegmentBuffer, update_flow
from .matching import NATIVE_AVAILABLE, MultiPatternMatcher
from .packet import (
    Direction,
    FiveTuple,
    PacketDescriptor,
    PacketPool,
    PoolExhausted,
    Proto,
    TruncatedFrame,
    canonical_key,
    decode,
)
from .ring import ConfigError, Ring
from .rules import CompiledRuleSet, ParseError, Rule, RuleSet, compile_ruleset, load_ruleset, parse_rule

__version__ = "0.1.0"
