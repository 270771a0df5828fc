"""Experiment runner: engine assembly, execution, reporting.

One pipeline driver, two schedulers. ``_Step`` holds the work both share:
``offer`` hands one frame to the acquisition side and ``serve`` has a worker
analyse one dequeued descriptor at the time the scheduler passes in (the
verdict, the timing model's cost, stretched by the paging factor when the
cost model is on). Neither counts anything per frame. The report's
fixed-width intervals (3 seconds each) come from the layers' own counters
(``AcquireStats``, ``WorkerStats``): each side's ``_Tally`` credits what
its counters gained to the interval it was in, when its time first reaches
the next interval edge and once at the end. The base and stretched cost
sums that give an interval's paging share are added per descriptor, and
only when a cost model is set; without one the share is 0, and a
useless-mode worker's cost is a constant, so it reads no candidate or alert
counts. In both, the acquisition side alone
drains the inline TX deque to the sink, a burst at a time as DPDK's
``rte_eth_tx_buffer`` does. Each descriptor on it holds a slot, so the pool
bounds it and nothing ever waits on it. ``offer`` drains once
``burst_size`` descriptors wait, as does a frame that finds the pool full,
the real clock before each pacing sleep, and each run at its end. The
deque is FIFO with one consumer, and the retry on a full pool frees every
slot a drain after each frame would have freed, so the sink's frames and
every drop are the same as with such a drain.
Both start the run's time base at 0 when acquisition begins, and a cost
model's warm-up window runs from there. Nothing takes a lock: every channel
is a deque, whose ``append`` and ``popleft`` are thread-safe. RX ring ``i`` is
one with a bound, appended to by acquisition alone and popped by worker
``i`` alone; the TX deque has none. The schedulers differ only in
where the time comes from and in who calls the step:

* simulated clock (default): a deterministic single-threaded schedule. Each
  actor carries its own local time; the acquisition side is paced by the
  source rate (or by its own per-frame cost, to saturate the pipeline) and
  each worker serves a descriptor at its own local time, then advances by
  the stretched cost. Once acquisition ends, each worker serves what is
  left on its ring. Identical seed and config give identical reports.
* real clock: acquisition on the calling thread plus one thread per worker;
  each descriptor is served at one reading of the counter clock. Intervals
  and elapsed time come from the wall clock, and a worker sleeps the paging
  stretch of each dequeued burst. With a cost model, each worker first
  sleeps until the run's clock reaches the end of the warm-up window,
  ``warmup_us`` after the start as in the sim run, while acquisition already
  offers frames; an acquisition error cuts that wait short. A worker exits
  once acquisition is done and its ring is empty; the counter clock stops
  however the run ends.

Neither scheduler expires flows: each worker's flow table sweeps its idle
flows itself, on the times the scheduler hands the worker (see ``flow``).

Reports carry run totals, throughput, the interval records of drop rate
and paging activity, and the count of reassembly gaps flushed.
"""

from __future__ import annotations

import math
import sys
import threading
import time
from collections import defaultdict, deque
from dataclasses import dataclass, field
from itertools import chain

from ..acquire import AcquisitionWorker
from ..boundary import CostModel, paging_factor, trusted_footprint
from ..clock import CounterClock
from ..detect import REJECT, AnalysisWorker
from ..matching import kernel_name
from ..packet import PacketPool
from ..ring import ConfigError, Ring
from ..rules import ParseError, RuleSet, compile_ruleset, load_ruleset, load_ruleset_file
from .pcapio import pcap_source
from .synth import WorkloadSpec, synth_source

INTERVAL_US = 3_000_000
MAX_WORKERS = 64  # a real-clock run starts one analysis thread per worker


class ConservationError(AssertionError):
    """A run's packet accounting identity failed."""


@dataclass
class TimingModel:
    """Simulated per-packet costs (microseconds); the paging factor stretches
    the analysis-side terms only, acquisition stays untrusted-fast."""

    acquire_us: float = 0.5
    useless_us: float = 0.5
    analysis_us: float = 2.0
    per_byte_us: float = 0.002
    per_candidate_us: float = 0.05
    per_alert_us: float = 0.5

    def __post_init__(self):
        """Every cost is finite and >= 0, and acquisition takes time, so sim time advances."""
        if not all(math.isfinite(c) and c >= 0 for c in vars(self).values()):
            raise ConfigError(f"timing model costs must be finite and >= 0, got {self}")
        if self.acquire_us <= 0:
            raise ConfigError(f"acquire_us must be > 0, got {self.acquire_us}")

    def packet_cost(self, payload_len: int, candidates: int, alerts: int) -> float:
        return (
            self.analysis_us
            + self.per_byte_us * payload_len
            + self.per_candidate_us * candidates
            + self.per_alert_us * alerts
        )


@dataclass
class EngineConfig:
    n_workers: int = 1
    ring_capacity: int = 4096
    burst_size: int = 32
    pool_capacity: int | None = None  # default sized from rings
    inline: bool = False
    useless: bool = False
    rules_text: str | None = None
    rules_path: str | None = None
    take_first: int | None = None
    cost_model: CostModel | None = None
    timing: TimingModel = field(default_factory=TimingModel)
    clock_mode: str = "sim"  # sim | real
    rate_pps: float = 0.0  # 0 = unpaced (saturating) source

    def __post_init__(self):
        """Reject a config that would analyse nothing, use the wrong rules or
        fail only once frames flow."""
        cap = self.ring_capacity
        if self.n_workers < 1:
            raise ConfigError(f"n_workers must be >= 1, got {self.n_workers}")
        if self.n_workers > MAX_WORKERS:
            raise ConfigError(
                f"n_workers must be <= {MAX_WORKERS}, got {self.n_workers}:"
                " a real-clock run starts one thread per worker"
            )
        if self.burst_size < 1:
            raise ConfigError(f"burst_size must be >= 1, got {self.burst_size}")
        if cap < 1 or cap & (cap - 1):
            raise ConfigError(f"ring_capacity must be a power of two, got {cap}")
        if self.pool_capacity is not None and self.pool_capacity < 1:
            raise ConfigError(f"pool_capacity must be >= 1, got {self.pool_capacity}")
        if self.take_first is not None and self.take_first < 0:
            raise ConfigError(f"take_first must be >= 0, got {self.take_first}")
        if not self.rate_pps >= 0:
            raise ConfigError(f"rate_pps must be >= 0, got {self.rate_pps}")
        if self.clock_mode not in ("sim", "real"):
            raise ConfigError(f"clock_mode must be 'sim' or 'real', got {self.clock_mode!r}")

    def resolved_pool_capacity(self) -> int:
        if self.pool_capacity is not None:
            return self.pool_capacity
        return (self.n_workers + 1) * self.ring_capacity + 2 * self.burst_size + 64


@dataclass
class IntervalRecord:
    index: int
    start_s: float
    received: int
    analyzed: int
    dropped: int
    alerts: int
    drop_rate_pct: float
    paging_pct: float


@dataclass
class ReportTotals:
    received: int = 0
    analyzed: int = 0
    allowed: int = 0
    dropped: int = 0  # ring-full drops, malformed frames and descriptors a worker rejected
    blocked: int = 0
    alerts: int = 0
    decode_failed: int = 0
    residual: int = 0


@dataclass
class Report:
    totals: ReportTotals
    elapsed_us: int
    pps: float
    bps: float
    mean_frame_bits: float
    intervals: list[IntervalRecord]
    config: dict
    rule_errors: list[tuple[int, ParseError]] = field(default_factory=list)  # (line, error) per rejected rule
    reassembly_flushes: int = 0  # gaps flushed to keep a flow's reassembly buffer under its cap

    def validate(self) -> None:
        t = self.totals
        if t.received != t.analyzed + t.dropped + t.residual:
            raise ConservationError(
                f"received {t.received} != analyzed {t.analyzed} + dropped {t.dropped} + residual {t.residual}"
            )
        if t.allowed != t.analyzed - t.blocked:
            raise ConservationError(f"allowed {t.allowed} != analyzed {t.analyzed} - blocked {t.blocked}")

    def to_text(self) -> str:
        t = self.totals
        lines = [
            "run statistics",
            f"  received : {t.received}",
            f"  analyzed : {t.analyzed}",
            f"  allowed  : {t.allowed}",
            f"  dropped  : {t.dropped} (malformed: {t.decode_failed})",
            f"  blocked  : {t.blocked}",
            f"  alerts   : {t.alerts}",
            f"  flushed  : {self.reassembly_flushes} reassembly gaps",
            f"  elapsed  : {self.elapsed_us / 1e6:.3f} s",
            f"  rate     : {self.pps:,.0f} pkt/s, {self.bps / 1e6:,.2f} Mbit/s",
            "",
            "interval  start_s  received  analyzed  dropped  alerts  drop%   paging%",
        ]
        for iv in self.intervals:
            lines.append(
                f"{iv.index:8d} {iv.start_s:8.1f} {iv.received:9d} {iv.analyzed:9d}"
                f" {iv.dropped:8d} {iv.alerts:7d} {iv.drop_rate_pct:6.2f} {iv.paging_pct:8.2f}"
            )
        return "\n".join(lines)

    def to_csv(self) -> str:
        rows = ["row,index,start_s,received,analyzed,dropped,alerts,drop_rate_pct,paging_pct,allowed,blocked,pps,bps"]
        for iv in self.intervals:
            rows.append(
                f"interval,{iv.index},{iv.start_s:.1f},{iv.received},{iv.analyzed},{iv.dropped},"
                f"{iv.alerts},{iv.drop_rate_pct:.3f},{iv.paging_pct:.3f},,,,"
            )
        t = self.totals
        rows.append(
            f"total,,0.0,{t.received},{t.analyzed},{t.dropped},{t.alerts},,,"
            f"{t.allowed},{t.blocked},{self.pps:.1f},{self.bps:.1f}"
        )
        return "\n".join(rows) + "\n"


class ListAlertSink:
    """Collects alerts and their formatted lines in memory."""

    def __init__(self):
        self.alerts = []
        self.lines = []

    def emit(self, alert, line: str) -> None:
        self.alerts.append(alert)
        self.lines.append(line)


class FileAlertSink:
    def __init__(self, fh):
        self.fh = fh

    def emit(self, alert, line: str) -> None:
        self.fh.write(line + "\n")


class NullSink:
    """Frame sink that discards allowed packets (passive-style termination)."""

    def __init__(self):
        self.frames = 0
        self.bytes = 0

    def write(self, frame) -> None:
        self.frames += 1
        self.bytes += len(frame)


class Engine:
    """Pipeline assembly, set up and torn down by ``run_experiment``: the
    calls mirror Snort's DAQ (initialize, start, acquire, shutdown)."""

    def __init__(self, config: EngineConfig, alert_sink=None):
        self.config = config
        self.alert_sink = alert_sink
        self.pool: PacketPool | None = None
        self.rx_rings: list[Ring] = []
        self.tx_ring: deque | None = None
        self.source = None
        self.ruleset: RuleSet | None = None
        self.compiled = None
        self.workers: list[AnalysisWorker] = []
        self.acquirer: AcquisitionWorker | None = None

    def load_rules(self) -> RuleSet:
        cfg = self.config
        if cfg.rules_path:
            rs = load_ruleset_file(cfg.rules_path)
        elif cfg.rules_text:
            rs = load_ruleset(cfg.rules_text)
        else:
            rs = RuleSet()
        if cfg.take_first is not None:
            rs = rs.take_first(cfg.take_first)
        return rs

    def initialize(self) -> None:
        """Allocate pool and rings, parse and compile the ruleset."""
        cfg = self.config
        self.pool = PacketPool(cfg.resolved_pool_capacity())
        self.rx_rings = [Ring(cfg.ring_capacity) for _ in range(cfg.n_workers)]
        self.tx_ring = deque()  # each entry holds a pool slot, so the pool bounds it
        self.ruleset = self.load_rules()
        self.compiled = compile_ruleset(self.ruleset)

    def start_device(self, source, sink) -> None:
        """Bind source/sink and build the workers; only inline workers get
        the TX deque, which they all append to without a lock; the
        acquisition side alone drains it."""
        cfg = self.config
        self.source = source
        tx_ring = self.tx_ring if cfg.inline else None
        self.acquirer = AcquisitionWorker(pool=self.pool, rx_rings=self.rx_rings, tx_ring=tx_ring, sink=sink)
        self.workers = [
            AnalysisWorker(
                pool=self.pool,
                compiled=self.compiled,
                tx_ring=tx_ring,
                alert_sink=self.alert_sink,
                useless_mode=cfg.useless,
            )
            for _ in range(cfg.n_workers)
        ]

    def begin_acquire(self) -> None:
        """The run starts here. It does nothing itself: perfbench's
        ``PassProbe`` wraps it and ``shutdown`` to time the run alone."""

    def shutdown(self) -> None:
        """Release everything; every pool slot must have come home."""
        in_use = self.pool.in_use_count() if self.pool is not None else 0
        if in_use:
            raise ConservationError(f"{in_use} pool slots still held at shutdown")

    def flow_footprint(self) -> int:
        return sum(w.flow_table.footprint_bytes for w in self.workers)

    def current_factor(self) -> float:
        """The paging factor of the current trusted footprint; called only
        when a cost model is set."""
        return paging_factor(self.config.cost_model, trusted_footprint(self.flow_footprint(), len(self.compiled)))


class _IntervalAccumulator:
    """Per-interval counts; each thread of a run fills its own, merged after.

    The tables are ``defaultdict``s; readers use ``get``, which adds no entry.
    """

    def __init__(self):
        self.received: defaultdict[int, int] = defaultdict(int)
        self.dropped: defaultdict[int, int] = defaultdict(int)
        self.analyzed: defaultdict[int, int] = defaultdict(int)
        self.alerts: defaultdict[int, int] = defaultdict(int)
        self.base_us: defaultdict[int, float] = defaultdict(float)  # cost model runs only
        self.stretched_us: defaultdict[int, float] = defaultdict(float)  # cost model runs only

    def merge(self, other: "_IntervalAccumulator") -> None:
        for name, table in vars(other).items():
            mine = getattr(self, name)
            for idx, n in table.items():
                mine[idx] += n

    def last_index(self) -> int:
        """Highest interval index any table touched; -1 when none was."""
        return max((idx for table in vars(self).values() for idx in table), default=-1)


class _Tally:
    """One side's own counters, credited to ``acc``'s interval tables at the
    side's interval edges.

    ``read`` returns the side's running counts, one per table named in
    ``tables``. A side's time never goes back, so its scheduler calls
    ``cross`` at the first time at or past ``edge``: what the counts gained
    since the last edge goes to ``idx``, the interval the side was in, and
    the side moves to that time's interval. ``close`` credits the rest once
    the side is done. Only a count that grew writes its table, so a table
    gets an entry exactly where one ``+=`` per event would have made one.
    """

    __slots__ = ("acc", "idx", "edge", "read", "tables", "last")

    def __init__(self, acc: _IntervalAccumulator, read, tables: tuple[str, ...]):
        self.acc = acc
        self.idx = 0
        self.edge = INTERVAL_US  # start of the next interval
        self.read = read
        self.tables = [getattr(acc, name) for name in tables]
        self.last = read()

    def cross(self, t_us: float) -> None:
        self.close()
        self.idx = idx = int(t_us // INTERVAL_US)
        self.edge = (idx + 1) * INTERVAL_US

    def close(self) -> None:
        counts, idx = self.read(), self.idx
        for table, n, before in zip(self.tables, counts, self.last):
            if n != before:
                table[idx] += n - before
        self.last = counts


def _intake_tally(engine: Engine, acc: _IntervalAccumulator) -> _Tally:
    """The acquisition side's tally: frames received, and frames dropped or malformed."""
    s = engine.acquirer.stats
    return _Tally(acc, lambda: (s.received, s.dropped + s.decode_failed), ("received", "dropped"))


def _worker_tally(worker: AnalysisWorker, acc: _IntervalAccumulator) -> _Tally:
    """A worker's tally: descriptors analysed, descriptors rejected (dropped) and alerts."""
    s = worker.stats
    return _Tally(acc, lambda: (s.analyzed, s.rejected, s.alerts), ("analyzed", "dropped", "alerts"))


class _Step:
    """The per-frame and per-descriptor work both schedulers share.

    It counts nothing itself: the acquisition worker and the analysis
    workers count their own events, and each side's ``_Tally`` turns those
    counts into interval counts at its interval edges. Only the cost sums
    are kept per descriptor, when a cost model is set.

    It expires no flows: each worker's flow table bounds itself and sweeps
    its idle flows on the packet times it is handed."""

    def __init__(self, engine: Engine):
        cfg = engine.config
        model = cfg.cost_model
        acq = engine.acquirer
        self.ingest = acq.ingest_frame
        self.drain_tx = acq.drain_tx
        self.workers = engine.workers
        self.packet_cost = cfg.timing.packet_cost
        # a useless-mode packet costs the same whatever it holds
        self.useless_cost = cfg.timing.useless_us if cfg.useless else None
        self.factor = engine.current_factor if model is not None else None  # None: unpriced
        self.tx_ring = acq.tx_ring
        self.tx_burst = cfg.burst_size  # inline: the acquisition side drains TX once this many wait

    def offer(self, frame, now_us: int) -> None:
        """Acquisition side: decode and dispatch one frame; drain TX once a burst waits."""
        self.ingest(frame, now_us)
        tx = self.tx_ring
        if tx is not None and len(tx) >= self.tx_burst:
            self.drain_tx()

    def serve(self, i: int, desc, now_us: int, tally: _Tally) -> tuple[float, float]:
        """Worker ``i`` analyses one descriptor; returns its base and
        paging-stretched cost in microseconds. A useless-mode descriptor
        costs the mode's constant, rejected or not; any other descriptor the
        worker rejects costs nothing. With a cost model, both costs are
        added to the interval ``tally`` is in."""
        w = self.workers[i]
        base = self.useless_cost
        if base is None:
            stats = w.stats
            cand0 = stats.candidates_evaluated
            verdict, alerts = w.process_packet(desc, now_us)
            if verdict is REJECT:
                base = 0.0
            else:
                base = self.packet_cost(desc.payload_len, stats.candidates_evaluated - cand0, len(alerts))
        else:
            w.process_packet(desc, now_us)
        if self.factor is None:
            return base, base
        cost = base * self.factor()
        acc, idx = tally.acc, tally.idx
        acc.base_us[idx] += base
        acc.stretched_us[idx] += cost
        return base, cost


def _frames(source, packet_count: int | None, burst: int):
    """Frames from ``source``, pulled ``burst`` at a time, never more than
    ``packet_count`` in all."""
    pulled = 0
    while True:
        n = burst if packet_count is None else min(burst, packet_count - pulled)
        frames = source.next_burst(n) if n > 0 else None
        if not frames:
            return
        pulled += len(frames)
        yield from frames


def _sim_run(engine: Engine, workload: WorkloadSpec) -> tuple[int, _IntervalAccumulator, dict]:
    """Deterministic schedule: acquisition paced by the source rate (or its
    own per-frame cost when unpaced), workers modeled as queue servers whose
    next-free time advances by the stretched per-packet cost.

    The schedule is one thread, so every side's tally writes the one
    accumulator. Acquisition time strictly increases (``acquire_us > 0``),
    so every descriptor waiting when a frame is offered at ``upto`` arrived
    before it, and a worker starts its next one before ``upto`` exactly
    when its own time is before ``upto``: the driver visits a worker only
    when its ring holds work and its time is before the frame's. Each side
    crosses an interval edge at the first frame or descriptor at or past
    it. Past the last frame (or the duration) the same pass runs once more
    with no frame and no time limit, draining every ring, and every tally
    closes once the last worker is done.
    """
    cfg = engine.config
    model = cfg.cost_model
    step = _Step(engine)
    serve = step.serve
    acc = _IntervalAccumulator()
    intake = _intake_tally(engine, acc)
    tallies = [_worker_tally(w, acc) for w in engine.workers]
    warm_end = float(model.warmup_us) if step.factor is not None else 0.0

    rx_rings = engine.rx_rings
    worker_t = [warm_end] * len(rx_rings)
    t_acq = 0.0
    duration_us = workload.duration_s * 1e6 if workload.duration_s is not None else None
    rate = cfg.rate_pps
    acquire_us = cfg.timing.acquire_us

    offer = step.offer
    acq_edge = intake.edge
    inf = math.inf
    lanes = list(zip(range(len(rx_rings)), rx_rings, tallies))
    frames = enumerate(_frames(engine.source, workload.packet_count, cfg.burst_size))
    for offered, frame in chain(frames, [(-1, None)]):  # None: no frame left, so every ring drains
        if frame is None:
            upto = inf
        else:
            if rate > 0:
                due, t_acq = offered * 1e6 / rate, t_acq + acquire_us
                if due > t_acq:  # max(t_acq + acquire_us, due), without the call
                    t_acq = due
            else:
                t_acq += acquire_us
            upto = t_acq
            if duration_us is not None and t_acq > duration_us:
                frame, upto = None, inf  # past the duration: offer nothing more
        for i, ring, tally in lanes:
            t = worker_t[i]
            while ring and t < upto:
                desc = ring.dequeue()
                arrival = desc.arrival_us
                start = float(arrival) if arrival > t else t
                if start >= tally.edge:
                    tally.cross(start)
                t = start + serve(i, desc, int(start), tally)[1]
            worker_t[i] = t
        if frame is None:
            break
        if t_acq >= acq_edge:
            intake.cross(t_acq)
            acq_edge = intake.edge
        offer(frame, int(t_acq))

    step.drain_tx()
    for tally in [intake, *tallies]:
        tally.close()
    end_us = max([t_acq] + worker_t)
    return int(math.ceil(end_us)), acc, {}


def _real_run(engine: Engine, workload: WorkloadSpec) -> tuple[int, _IntervalAccumulator, dict]:
    """Threaded execution against the counter clock; intervals and elapsed
    time come from the untrusted wall clock, as an external harness would
    measure them. Each thread has its own accumulator and tallies; the
    acquisition side crosses an interval edge at the first frame it offers
    past it, a worker at the first burst it dequeues past it, and the
    calling thread closes every tally once the workers have exited. With a
    cost model, no worker dequeues before the warm-up
    window ends: ``warmup_us`` after the run starts, as in the sim run;
    if acquisition raises, the workers stop waiting and exit at once.
    Refuses a free-threaded interpreter before any thread starts: the pool's
    slot bookkeeping and the shared alert sinks rely on the interpreter
    lock."""
    if not getattr(sys, "_is_gil_enabled", lambda: True)():
        raise ConfigError("the real clock needs the interpreter lock; this build runs without it")
    cfg = engine.config
    step = _Step(engine)
    rx_rings = engine.rx_rings
    t_clock = time.monotonic()
    clock = CounterClock().start()
    t0 = time.monotonic()
    model = cfg.cost_model
    warm_end_s = model.warmup_us / 1e6 if model is not None else 0.0
    done = threading.Event()  # acquisition has offered its last frame
    abort = threading.Event()  # acquisition raised: no worker waits out the warm-up
    accs = [_IntervalAccumulator() for _ in rx_rings]
    tallies = [_worker_tally(w, a) for w, a in zip(engine.workers, accs)]
    errors: list[Exception] = []

    def work(i: int) -> None:
        ring, tally, serve = rx_rings[i], tallies[i], step.serve
        try:
            warming = warm_end_s - (time.monotonic() - t0)
            if warming > 0 and abort.wait(warming):
                return
            while True:
                finished = done.is_set()  # read before the dequeue: nothing comes after it
                descs = ring.dequeue_burst(cfg.burst_size)
                if not descs:
                    if finished:
                        return
                    time.sleep(0)
                    continue
                now_us = (time.monotonic() - t0) * 1e6
                if now_us >= tally.edge:
                    tally.cross(now_us)
                stretch = 0.0
                for desc in descs:
                    base, cost = serve(i, desc, clock.now_us(), tally)
                    stretch += cost - base
                if stretch > 0:
                    time.sleep(stretch / 1e6)
        except Exception as exc:  # re-raised on the calling thread
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(i,), name=f"analysis-{i}", daemon=True) for i in range(len(rx_rings))]
    for t in threads:
        t.start()

    acc = _IntervalAccumulator()
    intake = _intake_tally(engine, acc)
    rate, duration_s = cfg.rate_pps, workload.duration_s
    try:
        for offered, frame in enumerate(_frames(engine.source, workload.packet_count, cfg.burst_size)):
            now = time.monotonic() - t0
            if rate > 0 and offered / rate > now:
                step.drain_tx()  # about to idle: no frame waits out the pacing for a burst to fill
                time.sleep(offered / rate - now)
                now = offered / rate
            if duration_s is not None and now > duration_s:
                break
            if now * 1e6 >= intake.edge:
                intake.cross(now * 1e6)
            step.offer(frame, clock.now_us())
    except BaseException:
        abort.set()
        raise
    finally:
        done.set()
        for t in threads:
            t.join()
        clock.stop()  # on every exit path: a spinning counter would outlive the run
    clock_s = time.monotonic() - t_clock
    if errors:
        raise errors[0]

    step.drain_tx()  # a worker exits only on an empty ring, so TX alone can hold frames
    end = time.monotonic()
    for tally in [intake, *tallies]:
        tally.close()
    for other in accs:
        acc.merge(other)
    rates = {
        "ticks_per_us": round(clock.ticks_per_us, 3),
        "ticks_per_us_effective": round(clock.ticks / max(clock_s * 1e6, 1.0), 3),
    }
    return math.ceil((end - t0) * 1e6), acc, rates


def run_experiment(workload: WorkloadSpec, config: EngineConfig, alert_sink=None, sink=None) -> Report:
    """Set up an engine, run the workload through it, tear it down and
    return the report."""
    engine = Engine(config, alert_sink=alert_sink)
    engine.initialize()

    if workload.kind == "synth":
        source = synth_source(workload, engine.ruleset)
    elif workload.kind == "pcap":
        if not workload.pcap_path:
            raise ConfigError("pcap workload needs pcap_path")
        source = pcap_source(workload.pcap_path, repeat=workload.repeat)
    else:
        raise ConfigError(f"unknown workload kind {workload.kind!r}")

    sink = sink if sink is not None else NullSink()
    engine.start_device(source, sink)
    engine.begin_acquire()

    run = _sim_run if config.clock_mode == "sim" else _real_run
    elapsed_us, acc, clock_rates = run(engine, workload)

    residual = sum(len(r) for r in engine.rx_rings) + len(engine.tx_ring)
    engine.shutdown()
    return _build_report(engine, workload, elapsed_us, acc, residual, clock_rates)


def _build_report(
    engine: Engine, workload: WorkloadSpec, elapsed_us: int, acc: _IntervalAccumulator, residual: int, clock_rates: dict
) -> Report:
    cfg = engine.config
    acq = engine.acquirer.stats
    analyzed = sum(w.stats.analyzed for w in engine.workers)
    analyzed_bytes = sum(w.stats.analyzed_bytes for w in engine.workers)
    blocked = sum(w.stats.blocked for w in engine.workers)
    alerts = sum(w.stats.alerts for w in engine.workers)
    rejected = sum(w.stats.rejected for w in engine.workers)
    totals = ReportTotals(
        received=acq.received,
        analyzed=analyzed,
        allowed=analyzed - blocked,
        dropped=acq.dropped + acq.decode_failed + rejected,
        blocked=blocked,
        alerts=alerts,
        decode_failed=acq.decode_failed,
        residual=residual,
    )
    elapsed_s = max(elapsed_us, 1) / 1e6
    pps = analyzed / elapsed_s
    bps = analyzed_bytes * 8 / elapsed_s
    mean_frame_bits = (analyzed_bytes * 8 / analyzed) if analyzed else 0.0

    # a source may end before the duration; backlog served after the span
    # gets trailing records, so the interval series always sums to the totals
    span_us = elapsed_us if workload.duration_s is None else min(workload.duration_s * 1e6, elapsed_us)
    n_intervals = max(math.ceil(span_us / INTERVAL_US), 1, acc.last_index() + 1)
    model = cfg.cost_model
    warm_end = model.warmup_us if model is not None else 0
    intervals = []
    for idx in range(n_intervals):
        received = acc.received.get(idx, 0)
        dropped = acc.dropped.get(idx, 0)
        got_analyzed = acc.analyzed.get(idx, 0)
        stretched = acc.stretched_us.get(idx, 0.0)
        base = acc.base_us.get(idx, 0.0)
        if stretched > 0:
            paging = 100.0 * (stretched - base) / stretched
        elif warm_end and idx * INTERVAL_US < warm_end:
            paging = 100.0  # startup window: busy paging code+data in
        else:
            paging = 0.0
        intervals.append(
            IntervalRecord(
                index=idx,
                start_s=idx * INTERVAL_US / 1e6,
                received=received,
                analyzed=got_analyzed,
                dropped=dropped,
                alerts=acc.alerts.get(idx, 0),
                drop_rate_pct=(100.0 * dropped / received) if received else 0.0,
                paging_pct=paging,
            )
        )

    report = Report(
        totals=totals,
        elapsed_us=elapsed_us,
        pps=pps,
        bps=bps,
        mean_frame_bits=mean_frame_bits,
        intervals=intervals,
        rule_errors=list(engine.ruleset.errors),
        reassembly_flushes=sum(w.flow_table.buffer_limit_events for w in engine.workers),
        config={
            "workload": {
                "kind": workload.kind,
                "packet_size": workload.packet_size,
                "n_flows": workload.n_flows,
                "packet_count": workload.packet_count,
                "duration_s": workload.duration_s,
                "seed": workload.seed,
                "pcap": workload.pcap_path,
            },
            "engine": {
                "workers": cfg.n_workers,
                "ring_capacity": cfg.ring_capacity,
                "inline": cfg.inline,
                "useless": cfg.useless,
                "rules": len(engine.compiled),
                "clock": cfg.clock_mode,
                "rate_pps": cfg.rate_pps,
                "cost_model": cfg.cost_model is not None,
                "kernel": kernel_name(),  # scan and frame decode: both native or both pure-python
                **clock_rates,
            },
        },
    )
    report.validate()
    return report
