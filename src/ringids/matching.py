"""Multi-pattern byte search for the phase-1 prefilter.

An Aho-Corasick automaton over the rules' fast patterns (Aho & Corasick,
CACM 1975) with the goto and failure functions folded into one dense
transition table, as in Snort's ``ac_full`` search method. ``build()`` makes
the goto trie, then walks it breadth-first: each state's row of 256 entries
starts as a copy of its failure state's row and its own children are written
over it. The result is a flat ``array("I")`` ``delta[state * 256 + byte]``,
one accept flag byte per state, and per-state pattern-id outputs merged along
the failure chain. A scan is then one table load per byte, with no failure
hops and no search.

There are two kernels over the same table. ``_scan_states`` below is the
pure-Python reference, and the fallback when the extension is absent. The C
module ``_dfa`` (built by ``setup.py`` where a compiler exists) does the same
walk and is used whenever it imports. Both return the set of accepting states
entered; ``MultiPatternMatcher.scan`` maps those to pattern ids.
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
    """The kernel ``MultiPatternMatcher.scan`` runs: "native" or "pure-python"."""
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
    ``build()``. Scanning an input of length n takes exactly n table steps.
    The table costs 1 KiB per automaton state.
    """

    def __init__(self):
        self._patterns: list[tuple[bytes, int]] = []
        self._built = False
        # dense automaton, filled by build()
        self._delta = array("I", [0]) * 256
        self._accept = b"\x00"
        self._outputs: list[tuple[int, ...]] = [()]

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
        self._built = True
        return self

    @property
    def state_count(self) -> int:
        return len(self._accept)

    def scan(self, data) -> set[int]:
        """Return the ids of every pattern occurring anywhere in ``data``."""
        if not self._built:
            raise RuntimeError("build() must be called before scan()")
        kernel = _dfa.scan if _dfa is not None else _scan_states
        found: set[int] = set()
        for state in kernel(self._delta, self._accept, data):
            found.update(self._outputs[state])
        return found
