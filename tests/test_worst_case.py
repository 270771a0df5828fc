"""Work per hostile input, pinned by counts, not timings.

Each test builds an input an outside sender can choose and counts the work
one more packet costs against an explicit bound, so a change that makes the
work grow with the attacker's input fails here on any host.
"""

import pytest

from ringids.detect import PacketContext, evaluate_rule
from ringids.flow import SegmentBuffer
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
