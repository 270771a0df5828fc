"""Timing wrappers installed around the ringids pipeline from outside it.

``PassProbe`` times the pipeline run of one ``run_experiment`` call.
``Tracer`` adds per-layer spans and counters. Both wrap public functions and
methods for the length of one pass and restore the originals afterwards, so
untraced passes run the unmodified program.

A span records its wall time; a layer's self time is that minus the time of
spans nested inside it. Wrappers patch the name a caller looks up, which is
the importing module's global for functions imported by name.
"""

from __future__ import annotations

import time
import zlib
from collections import Counter, defaultdict

from ringids import acquire, detect
from ringids.boundary import trusted_footprint
from ringids.flow import FlowTable
from ringids.harness import runner
from ringids.harness.runner import Engine
from ringids.harness.synth import GeneratorSource
from ringids.matching import MultiPatternMatcher
from ringids.packet import PacketPool
from ringids.ring import Ring
from ringids.rules import CompiledRuleSet

clock = time.perf_counter_ns


class Patches:
    """Attribute replacements that ``restore`` undoes in reverse order."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, owner, name: str, make) -> bool:
        """Replace ``owner.name`` by ``make(original)``; False if it is absent."""
        original = vars(owner).get(name)
        if original is None:
            return False
        self._saved.append((owner, name, original))
        setattr(owner, name, make(original))
        return True

    def restore(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)


class FrameSink:
    """Frames written back by the inline TX drain, kept as count, bytes and
    an order-free digest (sum of crc32) to compare with the input."""

    def __init__(self):
        self.frames = 0
        self.bytes = 0
        self.crc_sum = 0

    def write(self, frame) -> None:
        self.frames += 1
        self.bytes += len(frame)
        self.crc_sum += zlib.crc32(frame)


class AlertCounter:
    """Alert sink that counts alerts per sid."""

    def __init__(self):
        self.by_sid: Counter = Counter()

    def emit(self, alert, line: str) -> None:
        self.by_sid[alert.sid] += 1


class PassProbe:
    """Run time of one run_experiment call: from the end of begin_acquire to
    the start of shutdown, so set-up and teardown are outside it."""

    def __init__(self, tracer: "Tracer | None" = None):
        self.tracer = tracer
        self.run_ns = 0
        self._run_start = 0

    def install(self, patches: Patches) -> None:
        def begin(fn):
            def wrapper(engine):
                fn(engine)
                if self.tracer is not None:
                    self.tracer.begin_run(engine)
                self._run_start = clock()
            return wrapper

        def shutdown(fn):
            def wrapper(engine):
                self.run_ns = clock() - self._run_start
                if self.tracer is not None:
                    self.tracer.end_run(engine, self.run_ns)
                return fn(engine)
            return wrapper

        if not (patches.wrap(Engine, "begin_acquire", begin) and patches.wrap(Engine, "shutdown", shutdown)):
            raise RuntimeError("Engine.begin_acquire and Engine.shutdown bound the timed run")
        if self.tracer is not None:
            self.tracer.install(patches)


class Tracer:
    """Per-layer spans and counters, accumulated over the traced passes.

    ``samples`` holds one value per call in ns: per byte for scans, per
    element for ring bursts, per frame for replay reads. The TX drain is the
    runner's inline closure, so its time is taken as the TX ring dequeue plus
    the pool release that follows each frame written to the sink.
    """

    def __init__(self):
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.counts: Counter = Counter()
        self.peaks: Counter = Counter()
        self.last: dict[str, float] = {}  # per-pass values from the last traced pass
        self.states = 0
        self.missing: list[str] = []  # spans whose function no longer exists
        self._stack: list[int] = []
        self._top_ns = 0
        self._bucket: dict[int, str] = {}
        self._tx_ring = None
        self._drain_release = False

    # -- pass boundaries -------------------------------------------------

    def begin_run(self, engine) -> None:
        self._tx_ring = engine.tx_ring
        self._top_ns = 0

    def end_run(self, engine, run_ns: int) -> None:
        self.counts["runner.self_ns"] += run_ns - self._top_ns
        tables = [w.flow_table for w in engine.workers]
        stats = engine.acquirer.stats
        self.last = {
            "flow.created": sum(t.created_total for t in tables),
            "flow.footprint_bytes": engine.flow_footprint(),
            "boundary.trusted_bytes": trusted_footprint(engine.flow_footprint(), len(engine.compiled)),
            "acquire.dropped": stats.dropped,
            "acquire.decode_failed": stats.decode_failed,
        }

    # -- wrappers ----------------------------------------------------------

    def _span(self, record):
        """Wrapper factory: time the call, then ``record`` it.

        The parent span is charged the wrapper's whole cost, bookkeeping
        included, so self times and the runner's residual leave it out.
        """
        stack = self._stack

        def make(fn):
            def wrapper(*args, **kwargs):
                t0 = clock()
                stack.append(0)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    dur = clock() - t0
                    child = stack.pop()
                record(args, result, dur, child)
                spent = clock() - t0
                if stack:
                    stack[-1] += spent
                else:
                    self._top_ns += spent
                return result
            return wrapper

        return make

    def install(self, p: Patches) -> None:
        s, c, peaks = self.samples, self.counts, self.peaks

        def plain(name):
            lst = s[name]
            return self._span(lambda a, r, d, ch: lst.append(d))

        def decode(a, r, d, ch):
            s["packet.decode"].append(d)
            peaks["packet.pool_hwm"] = max(peaks["packet.pool_hwm"], a[2].in_use_count())

        def ingest(a, r, d, ch):  # self time: decode, hash and enqueue are spans
            s["acquire.ingest_self"].append(d - ch)

        def hash_tail(a, r, d, ch):  # select_ring follows rss_hash: one sample for both
            if s["acquire.hash"]:
                s["acquire.hash"][-1] += d

        def enqueue(a, r, d, ch):
            s["ring.enqueue"].append(d)
            if r:
                key = "ring.tx_hwm" if a[0] is self._tx_ring else "ring.rx_hwm"
                peaks[key] = max(peaks[key], len(a[0]))

        def dequeue(a, r, d, ch):
            if r is not None:
                s["ring.dequeue"].append(d)

        def dequeue_burst(a, r, d, ch):
            if r:
                s["ring.dequeue"].append(d / len(r))
                if a[0] is self._tx_ring:
                    c["acquire.tx_drain_ns"] += d

        def release(a, r, d, ch):
            if self._drain_release:
                self._drain_release = False
                c["acquire.tx_drain_ns"] += d

        def sink_write(a, r, d, ch):
            self._drain_release = True
            c["acquire.tx_sent"] += 1

        def next_burst(a, r, d, ch):
            if r:
                s["replay.read"].append(d / len(r))

        def prefilter(a, r, d, ch):
            s["detect.prefilter"].append(d)
            c["detect.candidates"] += len(r)

        def evaluate(a, r, d, ch):
            s["detect.eval"].append(d)
            c["detect.matched"] += bool(r)

        def reassemble(a, r, d, ch):
            s["flow.reassemble"].append(d)
            c["flow.stream_bytes"] += len(r)

        def scan(a, r, d, ch):
            n = len(a[1])
            if n:
                s["matching.scan." + self._bucket.get(id(a[0]), "other")].append(d / n)
                c["matching.scans"] += 1

        def compiled(a, r, d, ch):
            s["rules.compile"].append(d)
            matchers = getattr(r, "_matchers", {})
            self._bucket = {id(m): name for name, m in matchers.items()}
            self.states = sum(m.state_count for m in matchers.values())

        spans = [
            (acquire, "decode", self._span(decode)),
            (acquire.AcquisitionWorker, "ingest_frame", self._span(ingest)),
            (acquire, "rss_hash", plain("acquire.hash")),
            (acquire, "select_ring", self._span(hash_tail)),
            (Ring, "enqueue", self._span(enqueue)),
            (Ring, "dequeue", self._span(dequeue)),
            (Ring, "dequeue_burst", self._span(dequeue_burst)),
            (Ring, "peek", plain("ring.peek")),
            (PacketPool, "release", self._span(release)),
            (GeneratorSource, "next_burst", self._span(next_burst)),
            (FlowTable, "lookup_or_create", plain("flow.lookup")),
            (detect, "update_flow", plain("flow.update")),
            (FlowTable, "reassemble", self._span(reassemble)),
            (runner, "compile_ruleset", self._span(compiled)),
            (CompiledRuleSet, "scan_payload", plain("rules.scan_payload")),
            (MultiPatternMatcher, "scan", self._span(scan)),
            (detect.AnalysisWorker, "process_packet", plain("detect.process")),
            (detect, "prefilter", self._span(prefilter)),
            (detect, "evaluate_rule", self._span(evaluate)),
            (detect, "format_alert_fast", plain("detect.alert_format")),
            (FrameSink, "write", self._span(sink_write)),
        ]
        self.missing = [
            f"{owner.__name__}.{name}" for owner, name, make in spans if not p.wrap(owner, name, make)
        ]
