"""Classic pcap container read/write.

Microsecond-timestamp Ethernet captures only (magic 0xa1b2c3d4, linktype 1),
either byte order on read; writes are little-endian. A capture of another
link type is rejected before its first record, as the decoder reads only
Ethernet frames. The reader takes the file in 64 KiB blocks and parses every
record a block holds out of it, instead of two ``read`` calls per record; a
record that straddles a block end waits for the next read. It never holds
more than a block plus one record, so replaying a capture costs no memory in
proportion to its size. A record header that claims more than libpcap's
largest snapshot length is rejected before its body is read, so a corrupt
length allocates nothing.
"""

from __future__ import annotations

import struct
from operator import itemgetter

from .synth import GeneratorSource

MAGIC_US = 0xA1B2C3D4
MAGIC_US_SWAPPED = 0xD4C3B2A1
GLOBAL_HEADER = struct.Struct("<IHHiIII")
RECORD_HEADER_LEN = 16
LINKTYPE_ETHERNET = 1
SNAPLEN = 65535
MAX_RECORD_LEN = 262_144  # libpcap's largest snapshot length; a longer record is corrupt
READ_BLOCK = 64 * 1024  # bytes per read from the capture file
_FRAME = itemgetter(0)  # the frame of a (frame, timestamp) record


class BadMagic(Exception):
    pass


class TruncatedRecord(Exception):
    pass


def pcap_read(path):
    """Yield (frame_bytes, timestamp_us) records in file order."""
    with open(path, "rb") as fh:
        header = fh.read(GLOBAL_HEADER.size)
        if len(header) < GLOBAL_HEADER.size:
            raise BadMagic("file shorter than a pcap global header")
        magic = struct.unpack("<I", header[:4])[0]
        if magic == MAGIC_US:
            endian = "<"
        elif magic == MAGIC_US_SWAPPED:
            endian = ">"
        else:
            raise BadMagic(f"unknown pcap magic 0x{magic:08x}")
        linktype = struct.unpack_from(endian + "I", header, GLOBAL_HEADER.size - 4)[0]
        if linktype != LINKTYPE_ETHERNET:
            raise BadMagic(f"pcap linktype {linktype} is not Ethernet ({LINKTYPE_ETHERNET})")
        record_header = struct.Struct(endian + "IIII").unpack_from
        buf = b""
        pos = 0  # start of the first record not yet yielded
        need = RECORD_HEADER_LEN  # bytes from pos that the next step needs
        while True:
            more = fh.read(max(need - (len(buf) - pos), READ_BLOCK))
            if not more:
                if pos == len(buf):
                    return
                if len(buf) - pos < RECORD_HEADER_LEN:
                    raise TruncatedRecord("record header cut short")
                raise TruncatedRecord("record body cut short")
            buf = buf[pos:] + more
            pos = 0
            end = len(buf)
            while end - pos >= RECORD_HEADER_LEN:
                ts_sec, ts_usec, incl_len, _orig = record_header(buf, pos)
                if incl_len > MAX_RECORD_LEN:  # checked before the read that would allocate it
                    raise TruncatedRecord(f"record claims {incl_len}B, over the {MAX_RECORD_LEN}B snapshot limit")
                body = pos + RECORD_HEADER_LEN
                if body + incl_len > end:
                    break
                yield buf[body : body + incl_len], ts_sec * 1_000_000 + ts_usec
                pos = body + incl_len
            need = RECORD_HEADER_LEN if end - pos < RECORD_HEADER_LEN else RECORD_HEADER_LEN + incl_len


def pcap_write(path, frames) -> int:
    """Write frames to a pcap file with synthetic timestamps 0, 1, 2 ... us
    apart. Returns the record count."""
    count = 0
    with open(path, "wb") as fh:
        fh.write(GLOBAL_HEADER.pack(MAGIC_US, 2, 4, 0, 0, SNAPLEN, LINKTYPE_ETHERNET))
        for ts_us, frame in enumerate(frames):
            fh.write(struct.pack("<IIII", ts_us // 1_000_000, ts_us % 1_000_000, len(frame), len(frame)))
            fh.write(frame)
            count += 1
    return count


def pcap_source(path, repeat: bool = False) -> GeneratorSource:
    """Frame source over a capture file (timestamps dropped; replay is paced
    by the experiment, the way a generator replays a capture at line rate)."""
    return GeneratorSource(lambda: map(_FRAME, pcap_read(path)), repeat=repeat)
