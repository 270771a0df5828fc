"""The per-frame functions read enum members through module constants.

An attribute read through an enum class (``Proto.TCP``) goes through the
enum metaclass's slow attribute hook, about ten times the cost of a module
global, so the functions every frame runs must not contain one.
"""

import dis
import types

import pytest

from ringids import detect, flow, packet, rules

ENUM_CLASSES = {"Proto", "Direction", "FlowState"}

HOT_FUNCTIONS = [
    # packet.decode is a compiled twin where the extension imports and has no
    # bytecode; its Python reference is checked under its name
    pytest.param(packet._decode, id="decode"),
    packet.canonical_key,
    flow.stream_seq,
    flow.update_flow,
    flow._advance_tcp,
    flow.Flow.side,
    flow.FlowTable.lookup_or_create,
    flow.FlowTable.reassemble,
    flow.FlowTable.expire_flows,
    detect.AnalysisWorker.process_packet,
    detect.prefilter,
    rules.CompiledRuleSet.admitted,
    detect.format_alert_fast,
    detect.endpoint_text,
]


def enum_class_reads(code: types.CodeType) -> list[str]:
    """``Class.attr`` reads of an enum class in ``code`` and the code nested in it."""
    found = []
    instructions = list(dis.get_instructions(code))
    for load, nxt in zip(instructions, instructions[1:]):
        if load.opname.startswith("LOAD_") and isinstance(load.argval, str) and load.argval in ENUM_CLASSES:
            if nxt.opname in ("LOAD_ATTR", "LOAD_METHOD"):
                found.append(f"{load.argval}.{nxt.argval}")
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            found += enum_class_reads(const)
    return found


@pytest.mark.parametrize("fn", HOT_FUNCTIONS, ids=lambda fn: fn.__qualname__)
def test_hot_function_reads_no_enum_through_its_class(fn):
    assert enum_class_reads(fn.__code__) == []


def test_guard_sees_an_enum_class_read():
    def reads_enum(proto):
        return proto is packet.Proto.TCP or proto is Proto.UDP  # noqa: F821

    assert enum_class_reads(reads_enum.__code__) == ["Proto.TCP", "Proto.UDP"]
