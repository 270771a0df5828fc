"""Multi-pattern byte search for the phase-1 prefilter.

An Aho-Corasick automaton over the rules' fast patterns (Aho & Corasick,
CACM 1975) with the goto and failure functions folded into one dense
transition table, as in Snort's ``ac_full`` search method. ``build()`` makes
the goto trie, then walks it breadth-first: each state's row of 256 entries
starts as a copy of its failure state's row and its own children are written
over it. The result is a flat ``array("I")`` ``delta[state * 256 + byte]``,
one accept flag byte per state, and per-state pattern-id outputs merged along
the failure chain. A scan is then one table load per byte, with no failure
hops and no search. Pattern ids are the caller's: the ruleset registers each
fast pattern under its rule's sid, and rules with equal patterns share one
accepting state whose outputs name them all.

There are two kernels over the same table. Both return the set of accepting
states that the walk from state 0 enters; ``MultiPatternMatcher.scan`` maps
those to the ids of their patterns.

- ``_scan_states`` below is the pure-Python reference: one walk, byte by
  byte. It is also the fallback when the extension is absent.
- The C module ``_dfa`` (built by ``setup.py`` where a compiler exists) is
  used whenever it imports. One walk waits on each table load before the
  next, so ``_dfa.scan(delta, accept, data, depth)`` walks long data as
  interleaved lanes, one per region, whose loads overlap. ``depth`` is the
  longest pattern's length. A state is the longest suffix of the input read
  so far that is a trie prefix, never longer than ``depth``, so a lane
  started from state 0 is in the reference's state once it has read
  ``depth`` bytes: each lane after the first walks the ``depth - 1`` bytes
  before its region without recording, and records from its region's first
  byte on. Its result is the reference's, state for state.
"""

from __future__ import annotations

from array import array
from collections import deque

try:
    from . import _dfa
except ImportError:
    _dfa = None

NATIVE_AVAILABLE = _dfa is not None


def kernel_name() -> str:
    """The kernels in use: "native" or "pure-python".

    The extension holds every compiled twin or none, so this one name covers
    the scan kernel, ``packet.decode`` and ``acquire.murmur3_32``.
    """
    return "native" if _dfa is not None else "pure-python"


def _scan_states(delta, accept, data) -> set[int]:
    """Reference kernel: the accepting states entered walking ``data`` from state 0."""
    hits = set()
    state = 0
    for byte in data:
        state = delta[(state << 8) | byte]
        if accept[state]:
            hits.add(state)
    return hits


class MultiPatternMatcher:
    """Set-of-patterns matcher; ``scan`` reports which pattern ids occur.

    Patterns are non-empty byte strings registered with integer ids before
    ``build()``. Scanning an input of length n takes n table steps on the
    reference kernel; the C kernel's lanes add ``depth - 1`` steps each, and
    overlap them. The table costs 1 KiB per automaton state.
    """

    def __init__(self):
        self._patterns: list[tuple[bytes, int]] = []
        self._built = False
        # dense automaton, filled by build()
        self._delta = array("I", [0]) * 256
        self._accept = b"\x00"
        self._outputs: list[tuple[int, ...]] = [()]
        self._depth = 0  # the longest pattern's length: no state is deeper in the trie

    def add(self, pattern: bytes, pattern_id: int) -> None:
        if self._built:
            raise RuntimeError("matcher already built")
        if not pattern:
            raise ValueError("empty pattern")
        self._patterns.append((bytes(pattern), int(pattern_id)))

    def __len__(self) -> int:
        return len(self._patterns)

    def build(self) -> "MultiPatternMatcher":
        """Build the goto trie, then fill the dense table breadth-first."""
        children: list[dict[int, int]] = [{}]
        outputs: list[list[int]] = [[]]
        for pattern, pid in self._patterns:
            state = 0
            for byte in pattern:
                nxt = children[state].get(byte)
                if nxt is None:
                    nxt = len(children)
                    children[state][byte] = nxt
                    children.append({})
                    outputs.append([])
                state = nxt
            outputs[state].append(pid)

        n = len(children)
        delta = array("I", [0]) * (256 * n)
        fail = [0] * n
        for byte, child in children[0].items():
            delta[byte] = child  # every other root entry stays 0, the root's self-loop
        queue = deque(children[0].values())
        while queue:
            state = queue.popleft()
            row = state << 8
            frow = fail[state] << 8
            # BFS order finished the shallower failure state's row already
            delta[row : row + 256] = delta[frow : frow + 256]
            for byte, child in children[state].items():
                fail[child] = delta[frow | byte]
                # outputs of the failure target are suffix matches here too
                outputs[child] += outputs[fail[child]]
                delta[row | byte] = child
                queue.append(child)

        self._delta = delta
        self._accept = bytes(1 if out else 0 for out in outputs)
        self._outputs = [tuple(out) for out in outputs]
        self._depth = max((len(pattern) for pattern, _ in self._patterns), default=0)
        self._built = True
        return self

    @property
    def state_count(self) -> int:
        return len(self._accept)

    def scan(self, data) -> set[int]:
        """Return the ids of every pattern occurring anywhere in ``data``."""
        if not self._built:
            raise RuntimeError("build() must be called before scan()")
        if _dfa is not None:
            states = _dfa.scan(self._delta, self._accept, data, self._depth)
        else:
            states = _scan_states(self._delta, self._accept, data)
        found: set[int] = set()
        for state in states:
            found.update(self._outputs[state])
        return found
