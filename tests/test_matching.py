"""Pattern automaton correctness against a naive substring oracle."""

import random
from array import array

import pytest

from ringids.matching import MultiPatternMatcher, kernel_name


def naive_scan(patterns, data: bytes) -> set[int]:
    data = bytes(data)
    return {pid for pat, pid in patterns if data.find(pat) >= 0}


def build(patterns):
    m = MultiPatternMatcher()
    for pat, pid in patterns:
        m.add(pat, pid)
    return m.build()


def test_basic_overlapping_patterns():
    patterns = [(b"he", 0), (b"she", 1), (b"his", 2), (b"hers", 3)]
    m = build(patterns)
    assert m.scan(b"ushers") == {0, 1, 3}
    assert m.scan(b"nothing") == set()
    assert m.scan(b"his hers") == {0, 2, 3}


def test_pattern_inside_pattern():
    m = build([(b"a", 0), (b"aa", 1), (b"aaa", 2)])
    assert m.scan(b"aaa") == {0, 1, 2}
    assert m.scan(b"ba") == {0}


def test_shared_pattern_ids_and_binary_bytes():
    m = build([(bytes([0x18, 0x03, 0x00]), 7), (b"\x00\x00", 8)])
    assert m.scan(bytes([0x17, 0x18, 0x03, 0x00, 0x90])) == {7}
    assert m.scan(bytes([0, 0])) == {8}


def test_empty_input_and_empty_matcher():
    m = build([(b"x", 1)])
    assert m.scan(b"") == set()
    empty = MultiPatternMatcher().build()
    assert empty.scan(b"anything") == set()


def test_empty_pattern_rejected():
    m = MultiPatternMatcher()
    with pytest.raises(ValueError):
        m.add(b"", 1)


def test_memoryview_input():
    m = build([(b"abc", 1)])
    buf = bytearray(b"zzabczz")
    assert m.scan(memoryview(buf)[1:6]) == {1}


def test_randomized_against_naive_oracle(scan_kernel):
    rng = random.Random(1234)
    alphabet = bytes(range(0, 8))  # tiny alphabet forces heavy overlap
    for trial in range(40):
        patterns = []
        for pid in range(rng.randrange(1, 25)):
            length = rng.randrange(1, 6)
            patterns.append((bytes(rng.choice(alphabet) for _ in range(length)), pid))
        # drop duplicate byte strings (ids map 1:1 onto distinct patterns here)
        seen = {}
        for pat, pid in patterns:
            seen.setdefault(pat, pid)
        patterns = [(p, i) for p, i in seen.items()]
        m = build(patterns)
        for _ in range(30):
            data = bytes(rng.choice(alphabet) for _ in range(rng.randrange(0, 120)))
            assert m.scan(data) == naive_scan(patterns, data)


def test_kernel_parity_on_realistic_payloads(scan_kernel):
    rng = random.Random(77)
    patterns = [(bytes(rng.randrange(256) for _ in range(rng.randrange(3, 12))), pid) for pid in range(200)]
    m = build(patterns)
    for _ in range(200):
        data = bytearray(rng.randbytes(rng.randrange(0, 1400)))
        if rng.random() < 0.5 and patterns:
            pat = patterns[rng.randrange(len(patterns))][0]
            pos = rng.randrange(0, max(len(data) - len(pat), 1))
            data[pos : pos + len(pat)] = pat
        assert m.scan(data) == naive_scan(patterns, data)


def test_byte_edges_and_large_automaton(scan_kernel):
    # patterns and inputs at both ends of the byte range
    edges = [(b"\x00", 0), (b"\xff\xff", 1), (b"\x00\xff\x00", 2), (b"\xfe\xff", 3)]
    m = build(edges)
    for data in (b"\x00", b"\xff", b"\xff\xff\xff", b"\x01\x00\xff\x00\xff", b"\xfe\xff\xff", bytes(range(256))):
        assert m.scan(data) == naive_scan(edges, data)
    # "bcx" is found only through the copied failure row of the "abc" state
    m = build([(b"abcd", 0), (b"bcx", 1)])
    assert m.scan(b"abcx") == {1}
    assert m.scan(b"abcd") == {0}
    # state numbers past 255 exercise the full width of the table index
    rng = random.Random(5)
    patterns = [(rng.randbytes(rng.randrange(6, 14)), pid) for pid in range(60)]
    m = build(patterns)
    assert m.state_count > 256
    for _ in range(50):
        data = bytearray(rng.randbytes(rng.randrange(0, 600)))
        for pat, _pid in rng.sample(patterns, 3):
            pos = rng.randrange(0, len(data) + 1)
            data[pos:pos] = pat[rng.randrange(2) :]  # whole, or a near miss missing its first byte
        assert m.scan(data) == naive_scan(patterns, data)


def _tables(m):
    return array("I", m._delta), bytearray(m._accept)


def _assert_released(*buffers):
    for buf in buffers:  # resizing raises BufferError while a buffer export is held
        buf.append(0)


def test_native_rejects_malformed_inputs(native_dfa):
    m = build([(b"abc", 1)])
    delta, accept = _tables(m)
    data = bytearray(b"zzabczz")
    with pytest.raises(TypeError):
        native_dfa.scan(array("H", bytes(2 * len(delta))), accept, data)
    with pytest.raises(ValueError):
        native_dfa.scan(delta, accept + b"\x00", data)
    with pytest.raises(ValueError):
        native_dfa.scan(array("I"), b"", data)
    view = memoryview(data)
    with pytest.raises(ValueError):
        native_dfa.scan(delta, accept, view[::2])
    view.release()
    with pytest.raises(TypeError):
        native_dfa.scan(delta, accept, array("I", [1, 2]))
    bad = array("I", delta)
    bad[ord("z")] = len(accept)  # a transition to a state that does not exist
    with pytest.raises(ValueError):
        native_dfa.scan(bad, accept, data)
    _assert_released(bad, accept, data)


def test_native_releases_buffers(native_dfa):
    m = build([(b"abc", 1)])
    delta, accept = _tables(m)
    data = bytearray(b"zzabczz")
    assert {m._outputs[s][0] for s in native_dfa.scan(delta, accept, data)} == {1}
    _assert_released(delta, accept, data)
    with pytest.raises(ValueError):
        native_dfa.scan(delta, accept, data)  # delta and accept now disagree in length
    _assert_released(delta, accept, data)


def test_kernel_name_reports():
    assert kernel_name() in ("native", "pure-python")
