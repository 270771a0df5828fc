"""Work per input, pinned by counts, not timings.

Most tests build an input an outside sender can choose and count the work
one more packet costs against an explicit bound, so a change that makes the
work grow with the attacker's input fails here on any host. The last counts
the driver's own bookkeeping per frame.
"""

import pytest

from conftest import CORPUS_PATH

from ringids.detect import PacketContext, evaluate_rule
from ringids.flow import SegmentBuffer
from ringids.harness import EngineConfig, WorkloadSpec, run_experiment, runner
from ringids.packet import FiveTuple, Proto
from ringids.rules import parse_rule

WORK_BOUND = 64  # reads of buffered runs per insert, whatever the buffer holds
FINDS_PER_OPTION_BYTE = 2  # phase-2 searches per payload option per buffer byte


class CountingList(list):
    """A list that counts the elements read from it, by index or by slice."""

    reads = 0

    def __getitem__(self, index):
        got = super().__getitem__(index)
        self.reads += len(got) if isinstance(index, slice) else 1
        return got


def test_retransmission_over_filled_holes_reads_a_bounded_number_of_runs():
    """30,000 one-byte pieces at even positions, a 1,460 B segment filling 730
    of the holes between them, then an exact retransmission of that segment:
    the retransmission brings no new byte and reads only the one run it lands
    in, not one piece per filled hole."""
    buf = SegmentBuffer(0)
    for pos in range(2, 60_002, 2):
        buf.insert(pos, b"p")
    segment = b"f" * 1460
    assert buf.insert(20_001, segment) == b""
    pending = buf.pending_bytes
    runs = buf._pieces = CountingList(buf._pieces)
    assert buf.insert(20_001, segment) == b""
    assert buf.pending_bytes == pending
    assert runs.reads <= WORK_BOUND, runs.reads


class CountingBytes(bytes):
    """Bytes that count their ``find`` calls."""

    finds = 0

    def find(self, *args):
        self.finds += 1
        return super().find(*args)


@pytest.mark.parametrize("window", ["", ", depth 4"])
def test_relative_contents_over_repeats_search_a_bounded_number_of_times(window):
    """A first content and four relative ones, each a byte that fills a
    1,460 B payload except the last, which never occurs. Every choice of
    positions for the first four fails, about 1460**4 / 24 of them; the
    memoised search tries each occurrence of each content once."""
    rule = parse_rule(
        'alert tcp any any -> any any (content:"a";'
        + f' content:"a", relative{window};' * 3
        + f' content:"b", relative{window}; sid:1;)'
    )
    payload = CountingBytes(b"a" * 1460)
    assert not evaluate_rule(rule, PacketContext(FiveTuple(Proto.TCP, 1, 2, 3, 4), payload=payload))
    bound = FINDS_PER_OPTION_BYTE * len(rule.options) * (len(payload) + 1)
    assert 0 < payload.finds <= bound, (payload.finds, bound)


def test_a_relative_content_that_fails_for_good_stops_the_retries():
    """The corpus's common shape, a content and a relative one with no
    depth, on a 1,460 B payload that holds the second content first and
    then 1,456 copies of the first. Once the second content is not found
    past the first copy, no later copy can help, so the search makes one
    ``find`` per option, not about two per copy."""
    rule = parse_rule('alert tcp any any -> any any (content:"a"; content:"ZZZZ", relative; sid:1;)')
    payload = CountingBytes(b"ZZZZ" + b"a" * 1456)
    assert not evaluate_rule(rule, PacketContext(FiveTuple(Proto.TCP, 1, 2, 3, 4), payload=payload))
    assert payload.finds == len(rule.options), payload.finds


class CountingTable(dict):
    """An interval table that counts the writes made to it; a missing key
    reads as the table's zero without adding an entry."""

    def __init__(self, zero, writes: list):
        super().__init__()
        self.zero = zero
        self.writes = writes

    def __missing__(self, key):
        return self.zero

    def __setitem__(self, key, value):
        self.writes.append(key)
        super().__setitem__(key, value)


def test_a_run_writes_each_interval_table_once_per_side_per_interval(monkeypatch):
    """20,000 frames, offered and served within one 3 s interval by the
    acquisition side and two workers: each interval table is written at
    most once per side per interval, not once per frame, and a table that
    several sides write sums their counts."""
    writes: dict[str, list] = {}
    init = runner._IntervalAccumulator.__init__

    def counting(acc):
        init(acc)
        for name, table in vars(acc).items():
            setattr(acc, name, CountingTable(table.default_factory(), writes.setdefault(name, [])))

    monkeypatch.setattr(runner._IntervalAccumulator, "__init__", counting)
    wl = WorkloadSpec(kind="synth", packet_size=200, n_flows=64, packet_count=20_000, seed=3,
                      attack_sid=30514, attack_rate=0.01)
    config = EngineConfig(n_workers=2, rules_path=str(CORPUS_PATH), ring_capacity=64)
    report = run_experiment(wl, config)
    t = report.totals
    assert t.received == 20_000
    assert t.alerts > 0 and t.dropped > 0  # every counted table is written
    (iv,) = report.intervals
    assert (iv.received, iv.analyzed, iv.dropped, iv.alerts) == (t.received, t.analyzed, t.dropped, t.alerts)
    sides = 1 + config.n_workers  # acquisition and each worker
    for name in ("received", "dropped", "analyzed", "alerts"):
        assert 0 < len(writes[name]) <= sides, (name, len(writes[name]))
    assert writes["base_us"] == writes["stretched_us"] == []  # kept per descriptor, with a cost model only
