"""Work per hostile input, pinned by counts, not timings.

Each test builds an input an outside sender can choose and counts the work
one more packet costs against an explicit bound, so a change that makes the
work grow with the attacker's input fails here on any host.
"""

from ringids.flow import SegmentBuffer

WORK_BOUND = 64  # reads of buffered runs per insert, whatever the buffer holds


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
