"""Pattern automaton correctness against a naive substring oracle, and the
native kernel's accepting states against the pure reference walk."""

import random
from array import array

import pytest

from ringids.matching import MultiPatternMatcher, _scan_states, kernel_name
from ringids.rules import compile_ruleset


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
        native_dfa.scan(array("H", bytes(2 * len(delta))), accept, data, 3)
    with pytest.raises(ValueError):
        native_dfa.scan(delta, accept + b"\x00", data, 3)
    with pytest.raises(ValueError):
        native_dfa.scan(array("I"), b"", data, 3)
    view = memoryview(data)
    with pytest.raises(ValueError):
        native_dfa.scan(delta, accept, view[::2], 3)
    view.release()
    with pytest.raises(TypeError):
        native_dfa.scan(delta, accept, array("I", [1, 2]), 3)
    bad = array("I", delta)
    bad[ord("z")] = len(accept)  # a transition to a state that does not exist
    with pytest.raises(ValueError):
        native_dfa.scan(bad, accept, data, 3)
    _assert_released(bad, accept, data)

    def fresh():
        return (*_tables(m), bytearray(b"zzabczz"))

    for pos in (0, 5, 2000, 4095):  # the first lockstep steps, a middle lane, the last lane's run to the end
        delta, accept, _ = fresh()
        delta[ord("z")] = len(accept)
        data = bytearray(b"." * 4096)
        data[pos] = ord("z")
        with pytest.raises(ValueError, match="names state"):
            native_dfa.scan(delta, accept, data, 3)
        _assert_released(delta, accept, data)
    for depth, error in ((-1, ValueError), (-(2**70), OverflowError), (3.0, TypeError), ("3", TypeError)):
        delta, accept, data = fresh()
        with pytest.raises(error):
            native_dfa.scan(delta, accept, data, depth)
        _assert_released(delta, accept, data)
    for args in (fresh(), (*fresh(), 3, 3), ()):
        with pytest.raises(TypeError, match="takes 4 arguments"):
            native_dfa.scan(*args)
        _assert_released(*args[:3])
    # a depth below the longest pattern's may lose hits, but reads nothing out of bounds
    for depth in (0, 1, 2):
        delta, accept, _ = fresh()
        data = bytearray(b"zab" + b"czzab" * 2000)
        assert native_dfa.scan(delta, accept, data, depth) <= set(range(len(accept)))
        _assert_released(delta, accept, data)


def test_native_releases_buffers(native_dfa):
    m = build([(b"abc", 1)])
    delta, accept = _tables(m)
    data = bytearray(b"zzabczz")
    assert {m._outputs[s][0] for s in native_dfa.scan(delta, accept, data, 3)} == {1}
    _assert_released(delta, accept, data)
    with pytest.raises(ValueError):
        native_dfa.scan(delta, accept, data, 3)  # delta and accept now disagree in length
    _assert_released(delta, accept, data)


def _lanes_from(native_dfa, depth: int) -> int:
    """The shortest data the native kernel walks as interleaved lanes."""
    warm = max(depth - 1, 0)
    return native_dfa.LANES * (warm + native_dfa.MIN_REGION) + warm


def _lane_edges(native_dfa, size: int, depth: int) -> list[int]:
    """Where each lane after the first starts walking, and where it starts recording."""
    warm = max(depth - 1, 0)
    region = (size - warm) // native_dfa.LANES
    return sorted({j * region + shift for j in range(1, native_dfa.LANES) for shift in (0, warm)})


def _assert_states_equal(native_dfa, m, data, depth=None):
    depth = m._depth if depth is None else depth
    assert native_dfa.scan(m._delta, m._accept, data, depth) == _scan_states(m._delta, m._accept, data)


def test_native_states_equal_reference_across_lane_edges(native_dfa):
    # Plants go into a short run of a four-letter alphabet, on a background of
    # a byte no pattern holds: the run keeps the walk deep in the trie, and the
    # background keeps the set of states small, so one state recorded by a lane
    # that has not reached the true state shows as a difference.
    rng = random.Random(16)
    alphabet = b"abcd"
    patterns = [(bytes(rng.choice(alphabet) for _ in range(rng.randrange(1, 7))), pid) for pid in range(12)]
    longest = max((p for p, _ in patterns), key=len)
    # the deepest pattern ends in another one, so a lane one byte short of the
    # deepest state there still enters an accepting state, but a different one
    patterns += [(longest + b"dcba", 99), (b"ba", 98)]
    m = build(patterns)
    depth = m._depth
    assert depth == len(longest) + 4
    threshold = _lanes_from(native_dfa, depth)
    for size in (threshold - 1, threshold, threshold + 1, threshold + native_dfa.LANES - 1, 1446, 3001):
        _assert_states_equal(native_dfa, m, bytes(rng.choice(alphabet) for _ in range(size)))
        for edge in _lane_edges(native_dfa, size, depth):
            for pat in (longest + b"dcba", longest, patterns[0][0]):
                for pos in range(max(edge - len(pat), 0), min(edge, size - len(pat)) + 1):
                    data = bytearray(b"." * size)
                    lo, hi = max(edge - 2 * depth, 0), min(edge + depth, size)
                    data[lo:hi] = bytes(rng.choice(alphabet) for _ in range(hi - lo))
                    data[pos : pos + len(pat)] = pat
                    _assert_states_equal(native_dfa, m, data)


def test_native_lanes_start_at_threshold(native_dfa):
    # Told depth 1 for a 3-byte pattern, the lanes record from their first
    # byte, so a pattern across lane 1's start is lost from the first length
    # the kernel walks as lanes on, and found one byte below it.
    m = build([(b"xyz", 1)])
    threshold = _lanes_from(native_dfa, 1)
    edge = _lane_edges(native_dfa, threshold, 1)[0]
    for size in (threshold - 1, threshold):
        data = bytearray(b"." * size)
        data[edge - 1 : edge + 2] = b"xyz"
        reference = _scan_states(m._delta, m._accept, data)
        assert reference
        assert native_dfa.scan(m._delta, m._accept, data, 1) == (set() if size == threshold else reference)
        _assert_states_equal(native_dfa, m, data)  # the true depth finds it either way


def test_native_states_equal_reference_edge_cases(native_dfa):
    rng = random.Random(3)
    empty = MultiPatternMatcher().build()
    for data in (b"", rng.randbytes(5000)):
        assert native_dfa.scan(empty._delta, empty._accept, data, 0) == set()
    single = build([(bytes([b]), b) for b in range(0, 256, 3)])  # depth 1: no warm-up at all
    assert single._depth == 1
    for size in (0, 1, _lanes_from(native_dfa, 1) - 1, _lanes_from(native_dfa, 1), 1446):
        _assert_states_equal(native_dfa, single, rng.randbytes(size))
    # data whose lanes' regions would be shorter than the longest pattern is walked on one lane
    long_pat = rng.randbytes(60)
    m = build([(long_pat, 1), (long_pat[20:40], 2), (b"\x00\x01", 3)])
    size = native_dfa.LANES * 60
    assert size < _lanes_from(native_dfa, 60)
    for pos in (0, size // 2, size - 60):
        data = bytearray(rng.randbytes(size))
        data[pos : pos + 60] = long_pat
        assert native_dfa.scan(m._delta, m._accept, data, 60) == _scan_states(m._delta, m._accept, data) != set()
    _assert_states_equal(native_dfa, m, b"")


def test_native_states_equal_reference_on_corpus_buckets(native_dfa, corpus_ruleset):
    rng = random.Random(1802)
    compiled = compile_ruleset(corpus_ruleset)
    for m in compiled._matchers.values():
        patterns = [p for p, _ in m._patterns]
        threshold = _lanes_from(native_dfa, m._depth)
        sizes = [0, 1, 199, 200, 1446, 9000, *range(threshold - 2, threshold + 3)]
        for size in sizes:
            for _ in range(4):
                data = bytearray(rng.randbytes(size))
                for _ in range(rng.randrange(0, 6)):
                    pos = rng.randrange(0, size + 1)
                    data[pos:pos] = rng.choice(patterns)
                _assert_states_equal(native_dfa, m, data)
        for edge in _lane_edges(native_dfa, 1446, m._depth):
            pat = max(patterns, key=len)
            for pos in range(edge - len(pat), edge + 1):
                data = bytearray(rng.randbytes(1446))
                data[pos : pos + len(pat)] = pat
                _assert_states_equal(native_dfa, m, data)


def test_kernel_name_reports():
    assert kernel_name() in ("native", "pure-python")
