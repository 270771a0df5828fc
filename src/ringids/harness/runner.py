"""Experiment runner: engine assembly, lifecycle, execution, reporting.

Two execution modes share the same pipeline objects:

* simulated clock (default): a deterministic single-process schedule. Each
  actor carries its own local time; analysis costs per packet come from a
  simple timing model stretched by the paging factor, and the acquisition
  side is paced by the source rate (or runs unpaced to saturate the
  pipeline). Identical seed and config give identical reports.
* real clock: one acquisition thread plus N analysis threads against the
  counter clock, wall-clock duration, paging stretch applied as sleeps.

Reports carry run totals, throughput, and fixed-width interval records
(3 seconds each) of drop rate and paging activity.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass, field
from functools import partial

from ..acquire import AcquireStats, AcquisitionWorker, DispatchConfig
from ..boundary import CostModel, Lifecycle, LifecycleEvent, paging_factor, trusted_footprint
from ..clock import CounterClock, SimClock
from ..detect import AnalysisWorker, WorkerStats
from ..flow import FlowTable
from ..matching import kernel_name
from ..packet import PacketPool
from ..ring import Discipline, Ring
from ..rules import AddressSpec, RuleSet, _parse_addr, compile_ruleset, load_ruleset, load_ruleset_file
from .pcapio import pcap_source
from .synth import ConfigError, WorkloadSpec, synth_source

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
    n_acquire_threads: int = 1
    ring_capacity: int = 4096
    burst_size: int = 32
    pool_capacity: int | None = None  # default sized from rings
    inline: bool = False
    useless: bool = False
    rules_text: str | None = None
    rules_path: str | None = None
    take_first: int | None = None
    variables: dict[str, str] = field(default_factory=dict)
    max_flows: int = 262_144
    cost_model: CostModel | None = None
    timing: TimingModel = field(default_factory=TimingModel)
    clock_mode: str = "sim"  # sim | real
    cpufreq: float = 3785.0
    rate_pps: float = 0.0  # 0 = unpaced (saturating) source

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


def parse_variables(raw: dict[str, str]) -> dict[str, AddressSpec]:
    return {name: _parse_addr(value, 0) for name, value in raw.items()}


class Engine:
    """Pipeline assembly driven through the five lifecycle calls."""

    def __init__(self, config: EngineConfig, alert_sink=None):
        self.config = config
        self.lifecycle = Lifecycle()
        self.alert_sink = alert_sink
        self.pool: PacketPool | None = None
        self.rx_rings: list[Ring] = []
        self.tx_ring: Ring | None = None
        self.compiled = None
        self.workers: list[AnalysisWorker] = []
        self.acquirer: AcquisitionWorker | None = None
        self._crossing_us_total = 0.0

    def _cross(self) -> None:
        model = self.config.cost_model
        if model is not None and model.enabled and model.crossing_cost_us > 0:
            self._crossing_us_total += model.crossing_cost_us
            if self.config.clock_mode == "real":
                time.sleep(model.crossing_cost_us / 1e6)

    def load_rules(self) -> RuleSet:
        cfg = self.config
        variables = parse_variables(cfg.variables)
        if cfg.rules_path:
            rs = load_ruleset_file(cfg.rules_path, variables)
        elif cfg.rules_text:
            rs = load_ruleset(cfg.rules_text, variables)
        else:
            rs = RuleSet(variables=variables)
        if cfg.take_first is not None:
            rs = rs.take_first(cfg.take_first)
        return rs

    def initialize(self) -> None:
        """Allocate pool and rings, parse and compile the ruleset."""
        self.lifecycle.transition(LifecycleEvent.INITIALIZE)
        self._cross()
        cfg = self.config
        self.pool = PacketPool(cfg.resolved_pool_capacity())
        self.rx_rings = [Ring(cfg.ring_capacity, Discipline.MPSC) for _ in range(cfg.n_workers)]
        self.tx_ring = Ring(cfg.ring_capacity, Discipline.MPMC)
        self.compiled = compile_ruleset(self.load_rules())

    def start_device(self, source, sink) -> None:
        """Bind source/sink and build the workers around the rings."""
        self.lifecycle.transition(LifecycleEvent.START_DEVICE)
        self._cross()
        cfg = self.config
        dispatch = DispatchConfig(
            n_rx_rings=cfg.n_workers,
            burst_size=cfg.burst_size,
            inline_mode=cfg.inline,
        )
        self.acquirer = AcquisitionWorker(
            source=source,
            pool=self.pool,
            rx_rings=self.rx_rings,
            config=dispatch,
            tx_ring=self.tx_ring,
            sink=sink,
            stats=AcquireStats(),
        )
        self.workers = []
        for i in range(cfg.n_workers):
            clock = SimClock() if cfg.clock_mode == "sim" else None
            self.workers.append(
                AnalysisWorker(
                    worker_id=i,
                    rx_ring=self.rx_rings[i],
                    pool=self.pool,
                    compiled=self.compiled,
                    clock=clock,
                    flow_table=FlowTable(max_flows=cfg.max_flows),
                    tx_ring=self.tx_ring,
                    inline_mode=cfg.inline,
                    alert_sink=self.alert_sink,
                    useless_mode=cfg.useless,
                    stats=WorkerStats(),
                )
            )

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
        if model is None or not model.enabled:
            return 1.0  # skip summing the flow footprints; paging_factor is 1.0 here
        return paging_factor(
            model,
            trusted_footprint(self.flow_footprint(), len(self.compiled)),
        )


class _IntervalAccumulator:
    def __init__(self):
        self.received: dict[int, int] = {}
        self.dropped: dict[int, int] = {}
        self.analyzed: dict[int, int] = {}
        self.alerts: dict[int, int] = {}
        self.base_us: dict[int, float] = {}
        self.stretched_us: dict[int, float] = {}

    def bump(self, table: dict, idx: int, n=1) -> None:
        table[idx] = table.get(idx, 0) + n


def _sim_run(engine: Engine, workload: WorkloadSpec, source) -> tuple[int, _IntervalAccumulator]:
    """Deterministic schedule: acquisition paced by the source rate (or its
    own per-frame cost when unpaced), workers modeled as queue servers whose
    next-free time advances by the stretched per-packet cost.

    The schedule is one thread, so ring cursors are read without the lock to
    skip empty rings, and each worker remembers when its ring head will start
    until it dequeues it: the head only changes by that worker's dequeue.
    """
    cfg = engine.config
    timing = cfg.timing
    model = cfg.cost_model
    priced = model is not None and model.enabled
    acc = _IntervalAccumulator()
    acq = engine.acquirer
    warm_end = float(model.warmup_us) if priced else 0.0

    workers = engine.workers
    rx_rings = [w.rx_ring for w in workers]
    n_workers = len(workers)
    worker_t = [warm_end + engine._crossing_us_total] * n_workers
    head_start: list[float | None] = [None] * n_workers  # start time of the peeked ring head
    expire_mark = [0] * n_workers
    t_acq = engine._crossing_us_total
    duration_us = workload.duration_s * 1e6 if workload.duration_s is not None else None
    packet_count = workload.packet_count
    rate = cfg.rate_pps
    acquire_us = timing.acquire_us
    offered = 0

    tx_ring = engine.tx_ring
    drain_tx = None
    if cfg.inline and tx_ring is not None:
        drain_tx = partial(acq.drain_tx, max_n=tx_ring.capacity)
        for w in workers:
            w.tx_stall_hook = drain_tx

    received, dropped = acc.received, acc.dropped
    analyzed, alerts_at = acc.analyzed, acc.alerts
    base_at, stretched_at = acc.base_us, acc.stretched_us
    packet_cost, current_factor = timing.packet_cost, engine.current_factor
    useless = cfg.useless

    def drain_worker(i: int, upto: float | None) -> None:
        w = workers[i]
        ring = rx_rings[i]
        stats = w.stats
        while ring.head != ring.tail:
            start = head_start[i]
            if start is None:
                start = max(worker_t[i], float(ring.peek().arrival_us))
                head_start[i] = start
            if upto is not None and start >= upto:
                return
            desc = ring.dequeue()
            head_start[i] = None
            now = int(start)
            w.clock.set_us(now)
            idx = int(start // INTERVAL_US)
            if idx > expire_mark[i]:
                expire_mark[i] = idx
                w.flow_table.expire_flows(now)
            cand0 = stats.candidates_evaluated
            alerts0 = stats.alerts
            w.process_packet(desc)
            if drain_tx is not None and tx_ring.head != tx_ring.tail:
                drain_tx()
            new_alerts = stats.alerts - alerts0
            base = packet_cost(useless, desc.payload_len, stats.candidates_evaluated - cand0, new_alerts)
            cost = base * current_factor() if priced else base
            worker_t[i] = start + cost
            analyzed[idx] = analyzed.get(idx, 0) + 1
            alerts_at[idx] = alerts_at.get(idx, 0) + new_alerts
            base_at[idx] = base_at.get(idx, 0.0) + base
            stretched_at[idx] = stretched_at.get(idx, 0.0) + cost

    burst = cfg.burst_size
    ingest = acq.ingest_frame
    running = True
    while running:
        n = burst if packet_count is None else min(burst, packet_count - offered)
        frames = source.next_burst(n) if n > 0 else None
        if not frames:
            break
        for frame in frames:
            if rate > 0:
                t_acq = max(t_acq + acquire_us, offered * 1e6 / rate)
            else:
                t_acq += acquire_us
            if duration_us is not None and t_acq > duration_us:
                running = False
                break
            offered += 1
            for i, ring in enumerate(rx_rings):
                if ring.head != ring.tail:
                    drain_worker(i, t_acq)
            idx = int(t_acq // INTERVAL_US)
            received[idx] = received.get(idx, 0) + 1
            if ingest(frame, int(t_acq)) < 0:
                dropped[idx] = dropped.get(idx, 0) + 1

    engine.stop()
    for i in range(n_workers):
        drain_worker(i, None)
    if drain_tx is not None:
        drain_tx()
    end_us = max([t_acq] + worker_t)
    return int(math.ceil(end_us)), acc


def _real_run(engine: Engine, workload: WorkloadSpec, source) -> tuple[int, _IntervalAccumulator]:
    """Threaded execution against the counter clock; intervals and elapsed
    time come from the untrusted wall clock, as an external harness would
    measure them."""
    cfg = engine.config
    acc = _IntervalAccumulator()
    clock = CounterClock(cfg.cpufreq).start()
    for w in engine.workers:
        w.clock = clock
    acq = engine.acquirer
    stop_flag = threading.Event()
    t0 = time.monotonic()
    duration_s = workload.duration_s
    lock = threading.Lock()  # guards the shared source and offered counter
    offered = [0]

    def interval_idx() -> int:
        return int((time.monotonic() - t0) / 3.0)

    def acquisition_loop():
        while not stop_flag.is_set():
            with lock:
                if workload.packet_count is not None and offered[0] >= workload.packet_count:
                    break
                frames = source.next_burst(1)
                if not frames:
                    break
                offered[0] += 1
                if cfg.rate_pps > 0:
                    target = t0 + offered[0] / cfg.rate_pps
                    delay = target - time.monotonic()
                else:
                    delay = 0.0
            if delay > 0:
                time.sleep(delay)
            before_drop = acq.stats.dropped + acq.stats.decode_failed
            acq.ingest_frame(frames[0], clock.now_us())
            idx = interval_idx()
            acc.bump(acc.received, idx)
            dropped_now = acq.stats.dropped + acq.stats.decode_failed - before_drop
            if dropped_now:
                acc.bump(acc.dropped, idx, dropped_now)
            acq.drain_tx()

    def worker_loop(i: int):
        w = engine.workers[i]
        timing = cfg.timing
        while True:
            alerts0 = w.stats.alerts
            analyzed0 = w.stats.analyzed
            n = w.poll_once(cfg.burst_size)
            if n:
                idx = interval_idx()
                acc.bump(acc.analyzed, idx, n)
                acc.bump(acc.alerts, idx, w.stats.alerts - alerts0)
                factor = engine.current_factor()
                base = timing.analysis_us * (w.stats.analyzed - analyzed0)
                acc.base_us[idx] = acc.base_us.get(idx, 0.0) + base
                acc.stretched_us[idx] = acc.stretched_us.get(idx, 0.0) + base * factor
                if factor > 1.0:
                    time.sleep((factor - 1.0) * base / 1e6)
            elif stop_flag.is_set():
                break
            else:
                time.sleep(0)

    acq_threads = [
        threading.Thread(target=acquisition_loop, name=f"acquire-{k}", daemon=True)
        for k in range(cfg.n_acquire_threads)
    ]
    worker_threads = [
        threading.Thread(target=worker_loop, args=(i,), name=f"analysis-{i}", daemon=True)
        for i in range(len(engine.workers))
    ]
    for t in acq_threads + worker_threads:
        t.start()
    if duration_s is not None:
        time.sleep(duration_s)
        stop_flag.set()
    for t in acq_threads:
        t.join()
    stop_flag.set()
    for t in worker_threads:
        t.join()
    engine.stop()
    # the workers have exited; drain whatever is left on the rings
    for i, w in enumerate(engine.workers):
        while w.poll_once(cfg.burst_size):
            pass
    acq.drain_tx(max_n=engine.tx_ring.capacity)
    clock.stop()
    elapsed_us = int((time.monotonic() - t0) * 1e6)
    return elapsed_us, acc


def run_experiment(workload: WorkloadSpec, config: EngineConfig, alert_sink=None, sink=None) -> Report:
    """Drive a full lifecycle around the workload and return the report."""
    engine = Engine(config, alert_sink=alert_sink)
    engine.initialize()

    if workload.kind == "synth":
        source = synth_source(workload, engine.load_rules() if workload.attack_sid else None)
    elif workload.kind == "pcap":
        if not workload.pcap_path:
            raise ConfigError("pcap workload needs pcap_path")
        source = pcap_source(workload.pcap_path, repeat=workload.repeat)
    else:
        raise ConfigError(f"unknown workload kind {workload.kind!r}")

    sink = sink if sink is not None else NullSink()
    engine.start_device(source, sink)
    engine.begin_acquire()
    crossings_before_run = engine._crossing_us_total  # setup crossings are in the time base

    if config.clock_mode == "sim":
        elapsed_us, acc = _sim_run(engine, workload, source)
    else:
        elapsed_us, acc = _real_run(engine, workload, source)

    residual = sum(len(r) for r in engine.rx_rings) + len(engine.tx_ring)
    engine.shutdown()
    elapsed_us += int(engine._crossing_us_total - crossings_before_run)  # stop + shutdown
    return _build_report(engine, workload, elapsed_us, acc, residual)


def _build_report(engine: Engine, workload: WorkloadSpec, elapsed_us: int, acc: _IntervalAccumulator, residual: int) -> Report:
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
    model = cfg.cost_model
    warm_end = model.warmup_us if (model is not None and model.enabled) else 0
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
                start_s=idx * 3.0,
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
                "cost_model": (cfg.cost_model is not None and cfg.cost_model.enabled),
                "kernel": kernel_name(),
            },
        },
    )
    report.validate()
    return report
