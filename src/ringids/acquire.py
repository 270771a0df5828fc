"""Untrusted-side packet acquisition and hash dispatch.

The acquisition worker decodes each frame the runner offers into the pool and
places its descriptor on the per-analysis-worker receive ring chosen from the
flow hash; in inline mode it also drains the shared transmit ring back to the
sink. Both runner schedulers (sim and real clock) call it from their
acquisition side only, so the sink has one writer. The hash is MurmurHash3
(x86 32-bit) over the canonical flow-key bytes, so both directions of a
connection map to the same ring, and the ring index comes from the hash's
low six bits.

A flow's ring never changes, so the worker memoises the ring index per
5-tuple, as an RSS indirection table caches dispatch: the hash runs once per
tuple seen, not once per frame. The memo is bounded and is cleared when full.

``murmur3_32`` is the compiled twin from the optional extension ``_dfa``
where it imports, and the Python body ``_murmur3_32`` otherwise; that body is
the reference the twin's parity tests compare it against. ``decode`` is
``packet.decode``, likewise a twin where the extension imports. The one
extension holds every twin or none, so "native" in ``matching.kernel_name()``
covers the scan kernel, the decoder and this hash.
"""

from __future__ import annotations

import struct
from collections.abc import Callable
from dataclasses import dataclass

from .packet import (
    DecodeError,
    FiveTuple,
    PacketPool,
    PoolExhausted,
    canonical_key,
    decode,
)
from .ring import Ring

try:
    from . import _dfa
except ImportError:
    _dfa = None

RING_SELECT_BITS = 0x3F  # low six bits of the flow hash pick the ring
RING_MEMO_ENTRIES = 16_384  # 5-tuples whose ring index a worker remembers


_BLOCK_READERS: dict[int, Callable] = {}  # whole-block byte count -> unpack of its 32-bit blocks


def _murmur3_32(data: bytes, seed: int = 0) -> int:
    """MurmurHash3 x86 32-bit; the avalanche mix behind flow dispatch.

    The reference for ``murmur3_32``'s compiled twin, and ``murmur3_32``
    itself where the extension is absent.

    The 32-bit blocks are read by one ``struct`` unpack, cached per block
    count, and the rotations are written out in line: a flow key is hashed
    once per new 5-tuple, so on flood traffic this runs for every frame.
    """
    n = len(data)
    rounded = n & ~3
    blocks = _BLOCK_READERS.get(rounded)
    if blocks is None:
        blocks = _BLOCK_READERS[rounded] = struct.Struct(f"<{rounded >> 2}I").unpack_from
    h = seed & 0xFFFFFFFF
    for k in blocks(data):
        k = (k * 0xCC9E2D51) & 0xFFFFFFFF
        h ^= (((k << 15) | (k >> 17)) * 0x1B873593) & 0xFFFFFFFF  # rotl 15, times c2
        h = (((h << 13) | (h >> 19)) * 5 + 0xE6546B64) & 0xFFFFFFFF  # rotl 13
    tail = n & 3
    if tail:
        k = data[rounded]
        if tail > 1:
            k ^= data[rounded + 1] << 8
            if tail > 2:
                k ^= data[rounded + 2] << 16
        k = (k * 0xCC9E2D51) & 0xFFFFFFFF
        h ^= (((k << 15) | (k >> 17)) * 0x1B873593) & 0xFFFFFFFF
    h ^= n
    h ^= h >> 16
    h = (h * 0x85EBCA6B) & 0xFFFFFFFF
    h ^= h >> 13
    h = (h * 0xC2B2AE35) & 0xFFFFFFFF
    return h ^ (h >> 16)


murmur3_32 = _murmur3_32 if _dfa is None else _dfa.murmur3_32


def rss_hash(tuple_: FiveTuple) -> int:
    """Symmetric 32-bit flow hash: both directions of a flow hash identically."""
    key, _ = canonical_key(tuple_)
    return murmur3_32(key.encode())


def select_ring(hash_value: int, n_rings: int) -> int:
    if n_rings < 1:
        raise ValueError("need at least one ring")
    return (hash_value & RING_SELECT_BITS) % n_rings


@dataclass
class AcquireStats:
    """Counters owned by one acquisition worker."""

    received: int = 0
    dropped: int = 0  # RX ring full
    decode_failed: int = 0  # truncated / unsupported frames
    tx_sent: int = 0


class AcquisitionWorker:
    """Moves frames onto the RX rings and, inline, the TX ring to the sink.

    It produces onto any RX ring; ``tx_ring`` is given in inline mode only,
    and without it ``drain_tx`` does nothing. It builds its own ``stats``.
    """

    def __init__(self, pool: PacketPool, rx_rings: list[Ring], tx_ring: Ring | None = None, sink=None):
        self.pool = pool
        self.rx_rings = rx_rings
        self.tx_ring = tx_ring
        self.sink = sink
        self.stats = AcquireStats()
        self._ring_of: dict[FiveTuple, int] = {}  # dispatch memo, see ring_for

    def ring_for(self, tuple_: FiveTuple) -> int:
        """Ring index of a 5-tuple: ``select_ring(rss_hash(t), n)``, memoised."""
        idx = self._ring_of.get(tuple_)
        if idx is None:
            if len(self._ring_of) >= RING_MEMO_ENTRIES:
                self._ring_of.clear()
            idx = select_ring(rss_hash(tuple_), len(self.rx_rings))
            self._ring_of[tuple_] = idx
        return idx

    def ingest_frame(self, frame, arrival_us: int) -> int:
        """Decode and dispatch one frame; returns the ring index or -1.

        -1 means the frame was counted but not enqueued (decode failure, a
        full pool or a full ring) and holds no pool slot.
        """
        self.stats.received += 1
        try:
            desc = decode(frame, arrival_us, self.pool)
        except PoolExhausted:
            self.stats.dropped += 1
            return -1
        except DecodeError:
            self.stats.decode_failed += 1
            return -1
        idx = self.ring_for(desc.tuple)
        if not self.rx_rings[idx].enqueue(desc):
            self.pool.release(desc.slot)
            self.stats.dropped += 1
            return -1
        return idx

    def drain_tx(self) -> int:
        """Write up to a ring's worth of allowed packets back to the sink and
        return their count; no-op in passive mode."""
        tx_ring = self.tx_ring
        if tx_ring is None:
            return 0
        pool, sink = self.pool, self.sink
        descs = tx_ring.dequeue_burst(tx_ring.capacity)
        for desc in descs:
            if sink is not None:
                sink.write(pool.frame(desc.slot))
            pool.release(desc.slot)
        self.stats.tx_sent += len(descs)
        return len(descs)
