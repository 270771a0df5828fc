"""Untrusted-side packet acquisition and hash dispatch.

The acquisition worker decodes each frame the runner offers into the pool and
places its descriptor on the per-analysis-worker receive ring chosen from the
flow hash; in inline mode it also drains the deque that workers append
allowed descriptors to back to the sink. Each entry holds a pool slot, so
an append never waits. The runner drains it a burst at a time, so forwarded
frames may wait on it holding their slots; a frame that finds the pool full
drains the deque and
tries once more before it is dropped. Both runner schedulers (sim
and real clock) call it from their acquisition side only, so the sink has
one writer. The hash is the standard library's CRC-32 over the 13 bytes of
the flow's key, its canonical ``FiveTuple`` packed big-endian, so both
directions of a connection map to the same ring, and the ring index is the
hash modulo the ring count, so flows spread evenly over any number of rings.

A flow's ring never changes, so the worker memoises the ring index per
5-tuple, as an RSS indirection table caches dispatch: the hash runs once per
tuple seen, not once per frame. The memo is bounded and is cleared when full.

``decode`` is ``packet.decode``, the compiled twin from the optional
extension ``_dfa`` where it imports. The one extension holds both of its
twins or none, so "native" in ``matching.kernel_name()`` covers the scan
kernel and the decoder; the hash is C code from the standard library either
way.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from zlib import crc32

from .packet import (
    _FLOW_KEY_BYTES,
    DecodeError,
    FiveTuple,
    PacketPool,
    PoolExhausted,
    canonical_key,
    decode,
)
from .ring import Ring

RING_MEMO_ENTRIES = 16_384  # 5-tuples whose ring index a worker remembers


def rss_hash(tuple_: FiveTuple) -> int:
    """Symmetric 32-bit flow hash: both directions of a flow hash identically."""
    return crc32(_FLOW_KEY_BYTES.pack(*canonical_key(tuple_)[0]))


def select_ring(hash_value: int, n_rings: int) -> int:
    if n_rings < 1:
        raise ValueError("need at least one ring")
    return hash_value % n_rings


@dataclass
class AcquireStats:
    """Counters owned by one acquisition worker."""

    received: int = 0
    dropped: int = 0  # RX ring full, or pool still full after a TX drain
    decode_failed: int = 0  # truncated / unsupported frames


class AcquisitionWorker:
    """Moves frames onto the RX rings and, inline, the TX deque to the sink.

    It produces onto any RX ring; ``tx_ring``, the workers' TX deque, is given
    in inline mode only, and without it ``drain_tx`` does nothing. It builds
    its own ``stats``.
    """

    def __init__(self, pool: PacketPool, rx_rings: list[Ring], tx_ring: deque | None = None, sink=None):
        self.pool = pool
        self.rx_rings = rx_rings
        self.tx_ring = tx_ring
        self.sink = sink
        self.stats = AcquireStats()
        self._ring_of: dict[FiveTuple, int] = {}  # dispatch memo, see ring_for

    def ring_for(self, tuple_: FiveTuple) -> int:
        """Ring index of a 5-tuple: ``select_ring(rss_hash(t), n)``, memoised."""
        idx = self._ring_of.get(tuple_)
        return self._dispatch(tuple_) if idx is None else idx

    def _dispatch(self, tuple_: FiveTuple) -> int:
        """``ring_for`` on a memo miss: hash the tuple and memoise its ring."""
        if len(self._ring_of) >= RING_MEMO_ENTRIES:
            self._ring_of.clear()
        idx = self._ring_of[tuple_] = select_ring(rss_hash(tuple_), len(self.rx_rings))
        return idx

    def ingest_frame(self, frame, arrival_us: int) -> int:
        """Decode and dispatch one frame; returns the ring index or -1.

        -1 means the frame was counted but not enqueued (decode failure, a
        pool still full after a TX drain, or a full ring) and holds no pool
        slot.
        """
        self.stats.received += 1
        try:
            desc = decode(frame, arrival_us, self.pool)
        except PoolExhausted:
            # frames waiting to be forwarded hold slots: free them, then retry
            if not self.drain_tx():
                self.stats.dropped += 1
                return -1
            desc = decode(frame, arrival_us, self.pool)
        except DecodeError:
            self.stats.decode_failed += 1
            return -1
        idx = self._ring_of.get(desc.tuple)  # ring_for, without its call on a memo hit
        if idx is None:
            idx = self._dispatch(desc.tuple)
        if not self.rx_rings[idx].enqueue(desc):
            self.pool.release(desc.slot)
            self.stats.dropped += 1
            return -1
        return idx

    def drain_tx(self) -> int:
        """Write the allowed packets waiting at entry to the sink and return
        their count; no-op in passive mode. What a worker appends meanwhile
        waits for the next drain."""
        tx_ring = self.tx_ring
        if tx_ring is None:
            return 0
        pop, frame, release = tx_ring.popleft, self.pool.frame, self.pool.release
        write = self.sink.write if self.sink is not None else None
        n = len(tx_ring)
        for _ in range(n):
            desc = pop()
            if write is not None:
                write(frame(desc.slot, desc.frame_len))
            release(desc.slot)
        return n
