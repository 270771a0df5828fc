"""Experiment runner: engine assembly, lifecycle, execution, reporting.

One pipeline driver, two schedulers. ``_Step`` holds the work both share:
``offer`` hands one frame to the acquisition side and ``serve`` has a worker
analyse one dequeued descriptor at the time the scheduler passes in (flow
expiry at each new interval, the verdict, the timing model's cost, stretched
by the paging factor when the cost model is on); both count into
fixed-width intervals (3 seconds each), with ``+=`` on per-interval
``defaultdict`` tables. The base and stretched cost sums that give an
interval's paging share are kept only when a cost model is set; without one
the share is 0, and a useless-mode worker's cost is a constant, so it reads
no candidate or alert counts. In both, the acquisition side alone
drains the inline TX ring to the sink, and drains it once more when the
rings are empty. Both price each of the five lifecycle crossings once: the
three set-up crossings start the run's time base, and stop and shutdown are
added after it. Rings take no locks: RX ring ``i`` has one
producer (acquisition) and one consumer (worker ``i``), and the TX ring's
producers, the inline workers, share one lock to enqueue. The schedulers
differ only in where the time comes from and in who calls the step:

* simulated clock (default): a deterministic single-threaded schedule. Each
  actor carries its own local time; the acquisition side is paced by the
  source rate (or by its own per-frame cost, to saturate the pipeline) and
  each worker serves a descriptor at its own local time, then advances by
  the stretched cost. After stop, each worker serves what is left on its
  ring. Identical seed and config give identical reports.
* real clock: acquisition on the calling thread plus one thread per worker;
  each descriptor is served at one reading of the counter clock. Intervals
  and elapsed time come from the wall clock, and a worker sleeps the paging
  stretch of each dequeued burst. A worker exits once acquisition is done
  and its ring is empty, and the acquisition side keeps draining TX until
  every worker has exited, so a worker waiting on a full TX ring always gets
  room.

Reports carry run totals, throughput, and the interval records of drop rate
and paging activity.
"""

from __future__ import annotations

import math
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field

from ..acquire import AcquisitionWorker
from ..boundary import CostModel, Lifecycle, LifecycleEvent, paging_factor, trusted_footprint
from ..clock import CounterClock
from ..detect import AnalysisWorker
from ..matching import kernel_name
from ..packet import PacketPool
from ..ring import ConfigError, Ring
from ..rules import ParseError, RuleSet, compile_ruleset, load_ruleset, load_ruleset_file
from .pcapio import pcap_source
from .synth import WorkloadSpec, synth_source

INTERVAL_US = 3_000_000


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

    def packet_cost(self, useless: bool, payload_len: int, candidates: int, alerts: int) -> float:
        if useless:
            return self.useless_us
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
    dropped: int = 0  # ring-full drops plus malformed frames
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


class CollectSink:
    def __init__(self):
        self.frames: list[bytes] = []

    def write(self, frame) -> None:
        self.frames.append(bytes(frame))


class Engine:
    """Pipeline assembly driven through the five lifecycle calls."""

    def __init__(self, config: EngineConfig, alert_sink=None):
        self.config = config
        self.lifecycle = Lifecycle()
        self.alert_sink = alert_sink
        self.pool: PacketPool | None = None
        self.rx_rings: list[Ring] = []
        self.tx_ring: Ring | None = None
        self.source = None
        self.ruleset: RuleSet | None = None
        self.compiled = None
        self.workers: list[AnalysisWorker] = []
        self.acquirer: AcquisitionWorker | None = None
        self._crossing_us_total = 0.0

    def _cross(self) -> None:
        model = self.config.cost_model
        if model is not None and model.crossing_cost_us > 0:
            self._crossing_us_total += model.crossing_cost_us
            if self.config.clock_mode == "real":
                time.sleep(model.crossing_cost_us / 1e6)

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
        self.lifecycle.transition(LifecycleEvent.INITIALIZE)
        self._cross()
        cfg = self.config
        self.pool = PacketPool(cfg.resolved_pool_capacity())
        self.rx_rings = [Ring(cfg.ring_capacity) for _ in range(cfg.n_workers)]
        self.tx_ring = Ring(cfg.ring_capacity)
        self.ruleset = self.load_rules()
        self.compiled = compile_ruleset(self.ruleset)

    def start_device(self, source, sink) -> None:
        """Bind source/sink and build the workers; only inline workers get
        the TX ring, the one ring with several producers, and the lock they
        share to produce onto it."""
        self.lifecycle.transition(LifecycleEvent.START_DEVICE)
        self._cross()
        cfg = self.config
        self.source = source
        tx_ring = self.tx_ring if cfg.inline else None
        tx_lock = threading.Lock()
        self.acquirer = AcquisitionWorker(pool=self.pool, rx_rings=self.rx_rings, tx_ring=tx_ring, sink=sink)
        self.workers = [
            AnalysisWorker(
                pool=self.pool,
                compiled=self.compiled,
                tx_ring=tx_ring,
                alert_sink=self.alert_sink,
                useless_mode=cfg.useless,
                tx_lock=tx_lock,
            )
            for _ in range(cfg.n_workers)
        ]

    def begin_acquire(self) -> None:
        self.lifecycle.transition(LifecycleEvent.ACQUIRE)
        self._cross()

    def stop(self) -> None:
        self.lifecycle.transition(LifecycleEvent.STOP)
        self._cross()

    def shutdown(self) -> None:
        """Release everything; every pool slot must have come home."""
        self.lifecycle.transition(LifecycleEvent.SHUTDOWN)
        self._cross()
        in_use = self.pool.in_use_count() if self.pool is not None else 0
        if in_use:
            raise ConservationError(f"{in_use} pool slots still held at shutdown")

    def flow_footprint(self) -> int:
        return sum(w.flow_table.footprint_bytes for w in self.workers)

    def current_factor(self) -> float:
        model = self.config.cost_model
        if model is None:
            return 1.0  # skip summing the flow footprints; paging_factor is 1.0 here
        return paging_factor(
            model,
            trusted_footprint(self.flow_footprint(), len(self.compiled)),
        )


class _IntervalAccumulator:
    """Per-interval counts; each thread of a run fills its own, merged after.

    The tables are ``defaultdict``s, so a count is one ``+=``; readers use
    ``get``, which adds no entry.
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


class _Step:
    """The per-frame and per-descriptor work both schedulers share."""

    def __init__(self, engine: Engine):
        cfg = engine.config
        model = cfg.cost_model
        self.ingest = engine.acquirer.ingest_frame
        self.workers = engine.workers
        self.packet_cost = cfg.timing.packet_cost
        # a useless-mode packet costs the same whatever it holds
        self.useless_cost = self.packet_cost(True, 0, 0, 0) if cfg.useless else None
        self.factor = engine.current_factor if model is not None else None  # None: unpriced
        self.expire_mark = [0] * len(engine.workers)  # last interval each worker swept

    def offer(self, frame, now_us: int, idx: int, acc: _IntervalAccumulator) -> None:
        """Acquisition side: decode and dispatch one frame."""
        acc.received[idx] += 1
        if self.ingest(frame, now_us) < 0:
            acc.dropped[idx] += 1

    def serve(self, i: int, desc, now_us: int, idx: int, acc: _IntervalAccumulator) -> tuple[float, float]:
        """Worker ``i`` analyses one descriptor; returns its base and
        paging-stretched cost in microseconds."""
        w = self.workers[i]
        if idx > self.expire_mark[i]:
            self.expire_mark[i] = idx
            w.flow_table.expire_flows(now_us)
        base = self.useless_cost
        if base is None:
            stats = w.stats
            cand0 = stats.candidates_evaluated
            _, alerts = w.process_packet(desc, now_us)
            base = self.packet_cost(False, desc.payload_len, stats.candidates_evaluated - cand0, len(alerts))
            if alerts:
                acc.alerts[idx] += len(alerts)
        else:
            w.process_packet(desc, now_us)
        acc.analyzed[idx] += 1
        if self.factor is None:
            return base, base
        cost = base * self.factor()
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

    The schedule is one thread, so the driver compares ring cursors directly
    to skip empty rings, and each worker remembers when its ring head will
    start until it dequeues it (the head only changes by that worker's dequeue).
    """
    cfg = engine.config
    model = cfg.cost_model
    step = _Step(engine)
    serve = step.serve
    acc = _IntervalAccumulator()
    warm_end = float(model.warmup_us) if step.factor is not None else 0.0

    rx_rings = engine.rx_rings
    worker_t = [warm_end + engine._crossing_us_total] * len(rx_rings)
    head_start: list[float | None] = [None] * len(rx_rings)  # start time of the peeked ring head
    t_acq = engine._crossing_us_total
    duration_us = workload.duration_s * 1e6 if workload.duration_s is not None else None
    rate = cfg.rate_pps
    acquire_us = cfg.timing.acquire_us

    tx_ring = engine.acquirer.tx_ring
    drain_tx = engine.acquirer.drain_tx if tx_ring is not None else None

    def drain_worker(i: int, upto: float | None) -> None:
        ring = rx_rings[i]
        while ring.head != ring.tail:
            start = head_start[i]
            if start is None:
                start = max(worker_t[i], float(ring.peek().arrival_us))
                head_start[i] = start
            if upto is not None and start >= upto:
                return
            desc = ring.dequeue()
            head_start[i] = None
            _, cost = serve(i, desc, int(start), int(start // INTERVAL_US), acc)
            # A full drain after every serve means a worker always finds the
            # TX ring empty, so its enqueue never waits for room.
            if drain_tx is not None and tx_ring.head != tx_ring.tail:
                drain_tx()
            worker_t[i] = start + cost

    offer = step.offer
    for offered, frame in enumerate(_frames(engine.source, workload.packet_count, cfg.burst_size)):
        if rate > 0:
            t_acq = max(t_acq + acquire_us, offered * 1e6 / rate)
        else:
            t_acq += acquire_us
        if duration_us is not None and t_acq > duration_us:
            break
        for i, ring in enumerate(rx_rings):
            if ring.head != ring.tail:
                drain_worker(i, t_acq)
        offer(frame, int(t_acq), int(t_acq // INTERVAL_US), acc)

    engine.stop()
    for i in range(len(rx_rings)):
        drain_worker(i, None)
    if drain_tx is not None:
        drain_tx()
    end_us = max([t_acq] + worker_t)
    return int(math.ceil(end_us)), acc, {}


def _real_run(engine: Engine, workload: WorkloadSpec) -> tuple[int, _IntervalAccumulator, dict]:
    """Threaded execution against the counter clock; intervals and elapsed
    time come from the untrusted wall clock, as an external harness would
    measure them. Refuses a free-threaded interpreter before any thread
    starts: rings and pool are lock-free only under the interpreter lock."""
    if not getattr(sys, "_is_gil_enabled", lambda: True)():
        raise ConfigError("the real clock needs the interpreter lock; this build runs without it")
    cfg = engine.config
    step = _Step(engine)
    acq = engine.acquirer
    rx_rings = engine.rx_rings
    t_clock = time.monotonic()
    clock = CounterClock().start()
    # the set-up crossings start the time base, as in the sim run
    t0 = time.monotonic() - engine._crossing_us_total / 1e6
    done = threading.Event()  # acquisition has offered its last frame
    accs = [_IntervalAccumulator() for _ in rx_rings]
    errors: list[Exception] = []

    def interval() -> int:
        return int((time.monotonic() - t0) * 1e6 // INTERVAL_US)

    def work(i: int) -> None:
        ring, acc, serve = rx_rings[i], accs[i], step.serve
        try:
            while True:
                finished = done.is_set()  # read before the dequeue: nothing comes after it
                descs = ring.dequeue_burst(cfg.burst_size)
                if not descs:
                    if finished:
                        return
                    time.sleep(0)
                    continue
                idx = interval()
                stretch = 0.0
                for desc in descs:
                    base, cost = serve(i, desc, clock.now_us(), idx, acc)
                    stretch += cost - base
                if stretch > 0:
                    time.sleep(stretch / 1e6)
        except Exception as exc:  # re-raised on the calling thread
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(i,), name=f"analysis-{i}", daemon=True) for i in range(len(rx_rings))]
    for t in threads:
        t.start()

    acc = _IntervalAccumulator()
    rate, duration_s = cfg.rate_pps, workload.duration_s
    try:
        for offered, frame in enumerate(_frames(engine.source, workload.packet_count, cfg.burst_size)):
            now = time.monotonic() - t0
            if rate > 0 and offered / rate > now:
                time.sleep(offered / rate - now)
                now = offered / rate
            if duration_s is not None and now > duration_s:
                break
            step.offer(frame, clock.now_us(), interval(), acc)
            acq.drain_tx()
    finally:
        done.set()
        while any(t.is_alive() for t in threads):
            if not acq.drain_tx():
                time.sleep(0.0005)
    if errors:
        raise errors[0]

    acq.drain_tx()  # a worker exits only on an empty ring, so TX alone can hold frames
    end = time.monotonic()
    engine.stop()  # its crossing is priced by run_experiment, as in the sim run
    clock.stop()
    clock_s = time.monotonic() - t_clock
    for other in accs:
        acc.merge(other)
    rates = {
        "ticks_per_us": round(clock.ticks_per_us, 3),
        "ticks_per_us_effective": round(clock.ticks / max(clock_s * 1e6, 1.0), 3),
    }
    return math.ceil((end - t0) * 1e6), acc, rates


def run_experiment(workload: WorkloadSpec, config: EngineConfig, alert_sink=None, sink=None) -> Report:
    """Drive a full lifecycle around the workload and return the report."""
    engine = Engine(config, alert_sink=alert_sink)
    engine.initialize()

    if workload.kind == "synth":
        source = synth_source(workload, engine.ruleset if workload.attack_sid else None)
    elif workload.kind == "pcap":
        if not workload.pcap_path:
            raise ConfigError("pcap workload needs pcap_path")
        source = pcap_source(workload.pcap_path, repeat=workload.repeat)
    else:
        raise ConfigError(f"unknown workload kind {workload.kind!r}")

    sink = sink if sink is not None else NullSink()
    engine.start_device(source, sink)
    engine.begin_acquire()
    crossings_before_run = engine._crossing_us_total  # set-up crossings are in the run's time base

    run = _sim_run if config.clock_mode == "sim" else _real_run
    elapsed_us, acc, clock_rates = run(engine, workload)

    residual = sum(len(r) for r in engine.rx_rings) + len(engine.tx_ring)
    engine.shutdown()
    elapsed_us += int(engine._crossing_us_total - crossings_before_run)  # stop + shutdown
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
    totals = ReportTotals(
        received=acq.received,
        analyzed=analyzed,
        allowed=analyzed - blocked,
        dropped=acq.dropped + acq.decode_failed,
        blocked=blocked,
        alerts=alerts,
        decode_failed=acq.decode_failed,
        residual=residual,
    )
    elapsed_s = max(elapsed_us, 1) / 1e6
    pps = analyzed / elapsed_s
    bps = analyzed_bytes * 8 / elapsed_s
    mean_frame_bits = (analyzed_bytes * 8 / analyzed) if analyzed else 0.0

    if workload.duration_s is not None:
        n_intervals = math.ceil(workload.duration_s * 1e6 / INTERVAL_US)
    else:
        n_intervals = max(math.ceil(elapsed_us / INTERVAL_US), 1)
    # backlog served after the planned span gets trailing records, so the
    # interval series always sums to the totals
    n_intervals = max(n_intervals, acc.last_index() + 1)
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
                "kernel": kernel_name(),  # scan, frame decode and flow hash: all native or all pure-python
                **clock_rates,
            },
        },
    )
    report.validate()
    return report
