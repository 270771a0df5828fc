"""Workload generation, pcap I/O, experiment runs, and the CLI."""

import hashlib
import os
import random
import struct
import sys
import threading
import time
import zlib
from pathlib import Path

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from conftest import CORPUS_PATH, HEARTBLEED_RULE

from ringids.boundary import CostModel
from ringids.detect import AnalysisWorker
from ringids.flow import FlowTable
from ringids.harness import runner
from ringids.harness.cli import main as cli_main
from ringids.harness.pcapio import (
    GLOBAL_HEADER,
    MAGIC_US,
    MAGIC_US_SWAPPED,
    READ_BLOCK,
    RECORD_HEADER_LEN,
    SNAPLEN,
    BadMagic,
    TruncatedRecord,
    pcap_read,
    pcap_source,
    pcap_write,
)
from ringids.harness.runner import (
    CollectSink,
    ConservationError,
    Engine,
    EngineConfig,
    ListAlertSink,
    NullSink,
    Report,
    TimingModel,
    _sim_run,
    run_experiment,
)
from ringids.harness.synth import ConfigError, GeneratorSource, WorkloadSpec, craft_payload, gen_synth
from ringids.packet import PacketPool, UnsupportedL3, canonical_key, decode
from ringids.rules import load_ruleset, load_ruleset_file


def decode_all(frames):
    """Descriptors of the IPv4 frames; the others are skipped."""
    pool = PacketPool(capacity=max(len(frames) + 4, 8))
    out = []
    for f in frames:
        try:
            d = decode(f, 0, pool)
        except UnsupportedL3:
            continue
        out.append(d)
        pool.release(d.slot)
    return out


def test_synth_sizes_and_flow_count():
    spec = WorkloadSpec(kind="synth", packet_size=64, n_flows=256, packet_count=10_000, seed=7)
    frames = list(gen_synth(spec))
    assert len(frames) == 10_000
    assert all(len(f) == 64 for f in frames)
    keys = {canonical_key(d.tuple)[0] for d in decode_all(frames)}
    assert len(keys) == 256


def test_synth_deterministic():
    spec = WorkloadSpec(kind="synth", packet_size=128, n_flows=10, packet_count=500, seed=42)
    a = list(gen_synth(spec))
    b = list(gen_synth(WorkloadSpec(kind="synth", packet_size=128, n_flows=10, packet_count=500, seed=42)))
    assert a == b
    c = list(gen_synth(WorkloadSpec(kind="synth", packet_size=128, n_flows=10, packet_count=500, seed=43)))
    assert a != c


def test_synth_bounds_checked():
    with pytest.raises(ConfigError):
        WorkloadSpec(kind="synth", packet_size=32, n_flows=1)
    with pytest.raises(ConfigError):
        WorkloadSpec(kind="synth", packet_size=2000, n_flows=1)
    with pytest.raises(ConfigError):
        WorkloadSpec(kind="synth", packet_size=64, n_flows=0)


def test_synth_zero_attack_rate_injects_nothing():
    rules = load_ruleset('alert tcp any any -> any any (content:"XYZZY"; sid:9;)')
    spec = WorkloadSpec(kind="synth", packet_size=64, n_flows=4, packet_count=400, seed=1,
                        attack_sid=9, attack_rate=0.0)
    frames = list(gen_synth(spec, rules))
    assert sum(b"XYZZY" in f for f in frames) == 0


def test_synth_attack_injection_exact_count():
    rules = load_ruleset('alert tcp any any -> any any (content:"XYZZY"; sid:9;)')
    spec = WorkloadSpec(kind="synth", packet_size=64, n_flows=4, packet_count=400, seed=1,
                        attack_sid=9, attack_rate=0.05)
    frames = list(gen_synth(spec, rules))
    assert sum(b"XYZZY" in f for f in frames) == 20  # ceil(0.05 * 400)


def test_craft_payload_satisfies_heartbeat_rule():
    rules = load_ruleset(HEARTBLEED_RULE)
    payload = craft_payload(rules.rules[0])
    assert payload[:3] == b"\x18\x03\x00"
    assert int.from_bytes(payload[3:5], "big") > 128


def test_pcap_roundtrip(tmp_path):
    spec = WorkloadSpec(kind="synth", packet_size=100, n_flows=5, packet_count=64, seed=3)
    frames = list(gen_synth(spec))
    path = tmp_path / "w.pcap"
    assert pcap_write(path, frames) == 64
    back = list(pcap_read(path))
    assert [f for f, _ in back] == frames
    assert [ts for _, ts in back] == list(range(64))


def test_pcap_bad_magic(tmp_path):
    path = tmp_path / "bad.pcap"
    path.write_bytes(b"\x00" * 40)
    with pytest.raises(BadMagic):
        list(pcap_read(path))


def test_pcap_truncated_record(tmp_path):
    spec = WorkloadSpec(kind="synth", packet_size=80, n_flows=2, packet_count=4, seed=3)
    path = tmp_path / "t.pcap"
    pcap_write(path, gen_synth(spec))
    data = path.read_bytes()
    Path(path).write_bytes(data[:-10])
    with pytest.raises(TruncatedRecord):
        list(pcap_read(path))


def test_pcap_big_endian_accepted(tmp_path):
    import struct

    path = tmp_path / "be.pcap"
    frame = b"\x01" * 20
    with open(path, "wb") as fh:
        fh.write(struct.pack(">IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, 1))
        fh.write(struct.pack(">IIII", 1, 500000, len(frame), len(frame)))
        fh.write(frame)
    got = list(pcap_read(path))
    assert got == [(frame, 1_500_000)]


def reference_pcap_read(path):
    """The reader as first written: two ``read`` calls per record."""
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
        rec = struct.Struct(endian + "IIII")
        while True:
            head = fh.read(RECORD_HEADER_LEN)
            if not head:
                return
            if len(head) < RECORD_HEADER_LEN:
                raise TruncatedRecord("record header cut short")
            ts_sec, ts_usec, incl_len, _orig = rec.unpack(head)
            data = fh.read(incl_len)
            if len(data) < incl_len:
                raise TruncatedRecord("record body cut short")
            yield data, ts_sec * 1_000_000 + ts_usec


def read_all(reader, path):
    """Every record ``reader`` yields, then the error it ends with (or None)."""
    records = []
    try:
        for record in reader(path):
            records.append(record)
    except (BadMagic, TruncatedRecord) as exc:
        return records, (type(exc), str(exc))
    return records, None


def write_capture(path, records, endian="<"):
    with open(path, "wb") as fh:
        fh.write(struct.pack(endian + "IHHiIII", MAGIC_US, 2, 4, 0, 0, SNAPLEN, 1))
        for frame, ts_us in records:
            fh.write(struct.pack(endian + "IIII", ts_us // 1_000_000, ts_us % 1_000_000, len(frame), len(frame)))
            fh.write(frame)


@pytest.mark.parametrize("endian", ["<", ">"])
def test_pcap_read_equals_reference(tmp_path, endian):
    rng = random.Random(41)
    path = tmp_path / "r.pcap"
    cases = [[], [(b"", 0)], [(rng.randbytes(60), 7)], [(rng.randbytes(SNAPLEN), 12_345_678)]]
    # records of random sizes, many straddling a block boundary
    for _ in range(6):
        cases.append([(rng.randbytes(rng.choice([0, 1, 60, 1514, rng.randrange(SNAPLEN + 1)])),
                       rng.randrange(1 << 40)) for _ in range(rng.randrange(2, 40))])
    # a record that ends exactly at the first block's end, then one more
    first = READ_BLOCK - GLOBAL_HEADER.size - RECORD_HEADER_LEN
    cases.append([(rng.randbytes(first), 1), (b"xyz", 2)])
    for records in cases:
        write_capture(path, records, endian)
        got, error = read_all(pcap_read, path)
        assert error is None
        assert got == records
        assert (got, error) == read_all(reference_pcap_read, path)


def test_pcap_truncation_raises_after_every_complete_record(tmp_path):
    rng = random.Random(43)
    path = tmp_path / "t.pcap"
    records = [(rng.randbytes(rng.randrange(SNAPLEN + 1)), i) for i in range(5)]
    write_capture(path, records)
    data = path.read_bytes()
    starts = []  # file offset of each record header
    pos = GLOBAL_HEADER.size
    for frame, _ts in records:
        starts.append(pos)
        pos += RECORD_HEADER_LEN + len(frame)
    cuts = {len(data) - 1}
    for i, start in enumerate(starts):
        cuts |= {start + 1, start + RECORD_HEADER_LEN - 1, start + RECORD_HEADER_LEN + 1}
        cuts |= {start + RECORD_HEADER_LEN + len(records[i][0]) - 1}
    for cut in sorted(cuts):
        path.write_bytes(data[:cut])
        complete = sum(1 for i, start in enumerate(starts) if start + RECORD_HEADER_LEN + len(records[i][0]) <= cut)
        got, error = read_all(pcap_read, path)
        assert got == records[:complete]
        assert error is not None and error[0] is TruncatedRecord
        assert (got, error) == read_all(reference_pcap_read, path)


def test_repeating_source_over_empty_capture_ends(tmp_path):
    path = tmp_path / "empty.pcap"
    assert pcap_write(path, []) == 0
    source = pcap_source(path, repeat=True)
    assert run_with_watchdog(lambda: source.next_burst(4), timeout_s=10) == []
    assert source.next_burst(4) == []
    config = base_config()
    wl = WorkloadSpec(kind="pcap", pcap_path=str(path), repeat=True)
    report = run_with_watchdog(lambda: run_experiment(wl, config), timeout_s=30)
    assert report.totals.received == 0


def test_repeating_source_restarts_across_bursts(tmp_path):
    path = tmp_path / "three.pcap"
    frames = [bytes([i]) * 60 for i in range(3)]
    pcap_write(path, frames)
    source = pcap_source(path, repeat=True)
    assert [source.next_burst(n) for n in (2, 2, 3, 1)] == [
        frames[:2], [frames[2], frames[0]], [frames[1], frames[2], frames[0]], [frames[1]],
    ]


def base_config(**kw):
    defaults = dict(n_workers=1, clock_mode="sim")
    defaults.update(kw)
    return EngineConfig(**defaults)


def test_run_conservation_and_interval_shape():
    wl = WorkloadSpec(kind="synth", packet_size=64, n_flows=32, packet_count=5000, seed=2)
    report = run_experiment(wl, base_config(rules_path=str(CORPUS_PATH), take_first=50))
    t = report.totals
    assert t.received == t.analyzed + t.dropped
    assert t.allowed == t.analyzed - t.blocked
    assert report.mean_frame_bits == pytest.approx(64 * 8)
    assert report.bps == pytest.approx(report.pps * report.mean_frame_bits)


def test_run_repeatability():
    wl = WorkloadSpec(kind="synth", packet_size=64, n_flows=64, packet_count=8000, seed=11)
    cfg = lambda: base_config(n_workers=2, rules_path=str(CORPUS_PATH), take_first=40)
    r1 = run_experiment(wl, cfg())
    r2 = run_experiment(wl, cfg())
    assert r1.totals == r2.totals
    assert r1.elapsed_us == r2.elapsed_us
    assert [iv.__dict__ for iv in r1.intervals] == [iv.__dict__ for iv in r2.intervals]


def test_duration_gives_exact_interval_series_length():
    wl = WorkloadSpec(kind="synth", packet_size=64, n_flows=8, duration_s=7.0, repeat=True, seed=2)
    report = run_experiment(wl, base_config(rate_pps=2000.0))
    assert len(report.intervals) == 3  # ceil(7/3)
    assert [iv.index for iv in report.intervals] == [0, 1, 2]


def test_duration_backlog_lands_in_trailing_intervals():
    """Workers slower than the source keep serving after the duration ends;
    that backlog gets interval records, so the series sums to the totals."""
    wl = WorkloadSpec(kind="synth", packet_size=64, n_flows=8, duration_s=3.0, repeat=True, seed=2,
                      attack_sid=30514, attack_rate=0.01)
    report = run_experiment(wl, base_config(rules_path=str(CORPUS_PATH), rate_pps=2000.0,
                                            timing=TimingModel(analysis_us=600)))
    t = report.totals
    assert t.analyzed == 6001 and t.alerts > 0
    assert len(report.intervals) > 1  # ceil(3/3) planned, plus the backlog's
    assert [iv.index for iv in report.intervals] == list(range(len(report.intervals)))
    for field in ("received", "analyzed", "dropped", "alerts"):
        assert sum(getattr(iv, field) for iv in report.intervals) == getattr(t, field), field


def test_useless_mode_strictly_faster():
    wl = WorkloadSpec(kind="synth", packet_size=256, n_flows=64, packet_count=6000, seed=5)
    full = run_experiment(wl, base_config(rules_path=str(CORPUS_PATH)))
    useless = run_experiment(wl, base_config(useless=True))
    assert useless.pps > full.pps
    assert useless.totals.alerts == 0


def test_empty_ruleset_allows_everything_no_alerts():
    wl = WorkloadSpec(kind="synth", packet_size=64, n_flows=16, packet_count=2000, seed=5)
    report = run_experiment(wl, base_config())
    assert report.totals.alerts == 0
    assert report.totals.allowed == report.totals.analyzed


def test_inline_run_blocks_attacks_and_forwards_rest():
    rules_text = 'drop tcp any any -> any any (msg:"inj"; content:"INJECTME"; sid:900;)\n'
    wl = WorkloadSpec(kind="synth", packet_size=64, n_flows=4, packet_count=1000, seed=6,
                      attack_sid=900, attack_rate=0.01)
    sink = CollectSink()
    alert_sink = ListAlertSink()
    report = run_experiment(wl, base_config(rules_text=rules_text, inline=True),
                            alert_sink=alert_sink, sink=sink)
    assert report.totals.blocked == 10  # ceil(0.01 * 1000)
    assert report.totals.alerts == 10
    assert all(a.action_taken == "blocked" for a in alert_sink.alerts)
    assert len(sink.frames) == report.totals.allowed
    assert report.totals.allowed == report.totals.analyzed - 10


def test_passive_attack_run_alerts_but_allows():
    rules_text = 'alert tcp any any -> any any (msg:"inj"; content:"INJECTME"; sid:900;)\n'
    wl = WorkloadSpec(kind="synth", packet_size=64, n_flows=4, packet_count=1000, seed=6,
                      attack_sid=900, attack_rate=0.01)
    alert_sink = ListAlertSink()
    report = run_experiment(wl, base_config(rules_text=rules_text), alert_sink=alert_sink)
    assert report.totals.alerts == 10
    assert report.totals.blocked == 0
    assert report.totals.allowed == report.totals.analyzed


def test_attack_run_parses_the_rules_once(tmp_path, monkeypatch):
    """The engine's parsed ruleset also picks the attack payload: one parse per run."""
    rules = tmp_path / "r.rules"
    rules.write_text('alert tcp any any -> any any (msg:"inj"; content:"INJECTME"; sid:900;)\n')
    calls = []

    def counting(path):
        calls.append(path)
        return load_ruleset_file(path)

    monkeypatch.setattr(runner, "load_ruleset_file", counting)
    wl = WorkloadSpec(kind="synth", packet_size=64, n_flows=4, packet_count=500, seed=6,
                      attack_sid=900, attack_rate=0.02)
    report = run_experiment(wl, base_config(rules_path=str(rules)))
    assert report.totals.alerts == 10
    assert calls == [str(rules)]


def test_crossing_cost_shifts_elapsed():
    wl = WorkloadSpec(kind="synth", packet_size=64, n_flows=4, packet_count=500, seed=9)
    plain = run_experiment(wl, base_config(cost_model=None))
    priced = run_experiment(
        wl, base_config(cost_model=CostModel(crossing_cost_us=1000.0, warmup_us=0))
    )
    # five lifecycle crossings at 1ms each
    assert priced.elapsed_us - plain.elapsed_us == pytest.approx(5000, abs=5)


def test_csv_schema(tmp_path):
    wl = WorkloadSpec(kind="synth", packet_size=64, n_flows=8, packet_count=1000, seed=2)
    report = run_experiment(wl, base_config())
    csv = report.to_csv()
    lines = csv.strip().splitlines()
    header = lines[0].split(",")
    assert header == ["row", "index", "start_s", "received", "analyzed", "dropped", "alerts",
                      "drop_rate_pct", "paging_pct", "allowed", "blocked", "pps", "bps"]
    assert lines[1].startswith("interval,0,")
    assert lines[-1].startswith("total,")
    assert len(lines) == 1 + len(report.intervals) + 1  # header + intervals + total
    total = lines[-1].split(",")
    assert int(total[3]) == report.totals.received


def test_pcap_workload_roundtrip_through_runner(tmp_path):
    spec = WorkloadSpec(kind="synth", packet_size=128, n_flows=6, packet_count=600, seed=13)
    path = tmp_path / "replay.pcap"
    pcap_write(path, gen_synth(spec))
    wl = WorkloadSpec(kind="pcap", pcap_path=str(path))
    report = run_experiment(wl, base_config(rules_path=str(CORPUS_PATH), take_first=20))
    assert report.totals.received == 600
    assert report.totals.analyzed == 600


def test_sim_run_pulls_no_more_than_packet_count(tmp_path):
    path = tmp_path / "loop.pcap"
    pcap_write(path, gen_synth(WorkloadSpec(kind="synth", packet_size=64, n_flows=3, packet_count=10, seed=4)))
    pulls = []

    class CountingSource(GeneratorSource):
        def next_burst(self, n):
            pulls.append(n)
            assert sum(pulls) <= 25, "pulled past packet_count"
            return super().next_burst(n)

    source = CountingSource(lambda: (frame for frame, _ts in pcap_read(path)), repeat=True)
    engine = Engine(base_config(burst_size=4))
    engine.initialize()
    engine.start_device(source, NullSink())
    engine.begin_acquire()
    _sim_run(engine, WorkloadSpec(kind="pcap", pcap_path=str(path), repeat=True, packet_count=25))
    assert engine.acquirer.stats.received == 25
    assert pulls == [4, 4, 4, 4, 4, 4, 1]


def test_real_clock_smoke():
    wl = WorkloadSpec(kind="synth", packet_size=64, n_flows=8, packet_count=3000, seed=3)
    report = run_experiment(wl, base_config(n_workers=2, clock_mode="real",
                                            rules_text='alert tcp any any -> any any (content:"zq!x"; sid:1;)'))
    t = report.totals
    assert t.received == 3000
    assert t.received == t.analyzed + t.dropped
    assert t.allowed == t.analyzed - t.blocked
    engine = report.config["engine"]
    assert engine["ticks_per_us"] > 0 and engine["ticks_per_us_effective"] > 0


def test_real_clock_run_with_cost_model():
    """Real clock with the cost model on: workers sleep the paging stretch
    once the flow tables push the working set past the budget, and each of
    the five lifecycle crossings sleeps its cost."""
    wl = WorkloadSpec(kind="synth", packet_size=256, n_flows=64, packet_count=2000, seed=3)
    model = CostModel(epc_bytes=17 * 1024 * 1024, crossing_cost_us=500.0)
    report = run_experiment(wl, base_config(n_workers=2, clock_mode="real", rules_path=str(CORPUS_PATH),
                                            cost_model=model))
    t = report.totals
    assert t.received == 2000 == t.analyzed + t.dropped + t.residual
    assert any(iv.paging_pct > 0 for iv in report.intervals)
    assert report.elapsed_us >= 5 * 500


def test_real_clock_prices_each_crossing_once():
    """As in the sim run: the three set-up crossings, stop and shutdown each
    add their cost once, and elapsed time stays within the call's wall time."""
    wl = WorkloadSpec(kind="synth", packet_size=64, n_flows=4, packet_count=10, seed=9)
    model = CostModel(crossing_cost_us=50_000.0, warmup_us=0)
    t0 = time.monotonic()
    report = run_experiment(wl, base_config(clock_mode="real", cost_model=model))
    wall_us = (time.monotonic() - t0) * 1e6
    assert 5 * 50_000 <= report.elapsed_us <= wall_us


def test_real_clock_refuses_a_free_threaded_build(monkeypatch):
    monkeypatch.setattr(sys, "_is_gil_enabled", lambda: False, raising=False)
    threads = threading.active_count()
    wl = WorkloadSpec(kind="synth", packet_size=64, n_flows=8, packet_count=100, seed=3)
    with pytest.raises(ConfigError, match="interpreter lock"):
        run_experiment(wl, base_config(n_workers=2, clock_mode="real"))
    assert threading.active_count() == threads  # refused before any thread started
    report = run_experiment(wl, base_config(n_workers=2))  # one thread: the sim clock runs
    assert report.totals.analyzed == 100


def run_with_watchdog(fn, timeout_s: float):
    """``fn()`` on a daemon thread, so that a hang fails the test instead of
    blocking the suite."""
    out = {}

    def target():
        try:
            out["value"] = fn()
        except BaseException as exc:
            out["error"] = exc

    thread = threading.Thread(target=target, name="watched-run", daemon=True)
    thread.start()
    thread.join(timeout_s)
    if thread.is_alive():
        pytest.fail(f"run still going after {timeout_s} s")
    if "error" in out:
        raise out["error"]
    return out["value"]


DROP_INJECTED = 'drop tcp any any -> any any (msg:"inj"; content:"INJECTME"; sid:900;)'


# no shrinking: each shrink step of a hanging run would wait out the watchdog
@settings(max_examples=12, phases=[Phase.explicit, Phase.generate])
@given(
    n_workers=st.integers(1, 3),
    ring_capacity=st.sampled_from([1, 2, 4, 8, 16, 32, 64]),
    burst=st.integers(1, 32),
    frames=st.integers(100, 2000),
)
def test_inline_real_run_terminates_and_holds_no_slot(n_workers, ring_capacity, burst, frames):
    wl = WorkloadSpec(kind="synth", packet_size=64, n_flows=16, packet_count=frames, seed=frames,
                      attack_sid=900, attack_rate=0.05)
    config = base_config(n_workers=n_workers, clock_mode="real", inline=True, ring_capacity=ring_capacity,
                         burst_size=burst, rules_text=DROP_INJECTED)
    sink = CollectSink()
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)  # interleave the threads more finely than the default 5 ms
    try:
        # Engine.shutdown raises ConservationError if a pool slot is still held
        report = run_with_watchdog(lambda: run_experiment(wl, config, sink=sink), timeout_s=30)
    finally:
        sys.setswitchinterval(switch)
    t = report.totals
    assert t.received == frames
    assert len(sink.frames) == t.allowed
    assert sum(iv.received for iv in report.intervals) == t.received
    assert sum(iv.analyzed for iv in report.intervals) == t.analyzed


def test_real_run_expires_flows(monkeypatch):
    swept = []
    expire = FlowTable.expire_flows

    def counting(table, now_us, timeout_us=None):
        swept.append(now_us)
        return expire(table, now_us, timeout_us)

    monkeypatch.setattr(FlowTable, "expire_flows", counting)
    monkeypatch.setattr(runner, "INTERVAL_US", 1_000)
    wl = WorkloadSpec(kind="synth", packet_size=64, n_flows=8, packet_count=3000, seed=3)
    report = run_experiment(wl, base_config(n_workers=2, clock_mode="real"))
    assert report.totals.analyzed > 0
    assert swept


def test_smallflows_pcap_characteristics():
    path = os.environ.get("RINGIDS_SMALLFLOWS", "tests/data/smallFlows.pcap")
    if not os.path.exists(path):
        pytest.skip("smallFlows.pcap not available in this environment")
    frames = [f for f, _ in pcap_read(path)]
    assert len(frames) == 14_261
    descs = decode_all(frames)
    keys = {canonical_key(d.tuple)[0] for d in descs}
    assert len(keys) == 1209
    mean = sum(len(f) for f in frames) / len(frames)
    assert abs(mean - 646) < 25


# --- CLI ------------------------------------------------------------------


def test_cli_run_text_report(tmp_path, capsys):
    rc = cli_main([
        "run", "--synth", "64,16", "--count", "2000", "--seed", "7",
        "--rules", str(CORPUS_PATH), "--take-first", "30",
        "--alert-file", str(tmp_path / "alerts.txt"),
    ])
    out = capsys.readouterr().out
    assert rc == 0
    assert "received : 2000" in out


def test_cli_run_csv_report_file(tmp_path):
    out_file = tmp_path / "report.csv"
    rc = cli_main([
        "run", "--synth", "64,16", "--count", "1000", "--report", "csv",
        "--report-file", str(out_file), "--alert-file", str(tmp_path / "a.txt"),
    ])
    assert rc == 0
    text = out_file.read_text()
    assert text.startswith("row,index,start_s")
    assert "total," in text


def test_cli_inline_attack_alert_lines(tmp_path):
    rules = tmp_path / "r.rules"
    rules.write_text('alert tcp any any -> any any (msg:"hit"; content:"INJECTME"; sid:4;)\n')
    alerts = tmp_path / "alerts.txt"
    rc = cli_main([
        "run", "--synth", "64,4", "--count", "500", "--rules", str(rules),
        "--attack-sid", "4", "--attack-rate", "0.02",
        "--alert-file", str(alerts),
    ])
    assert rc == 0
    lines = alerts.read_text().strip().splitlines()
    assert len(lines) == 10
    assert all("[1:4:0] hit [**]" in ln for ln in lines)


@pytest.mark.parametrize(
    "args",
    [
        pytest.param(["--synth", "64", "--count", "10"], id="synth-without-flows"),
        pytest.param(["--burst", "0"], id="burst-0"),
        pytest.param(["--count", "-1"], id="count-negative"),
        pytest.param(["--duration", "0"], id="duration-0"),
        pytest.param(["--take-first", "-2", "--rules", str(CORPUS_PATH)], id="take-first-negative"),
        pytest.param(["--rate", "-5"], id="rate-negative"),
        pytest.param(["--threads", "0"], id="threads-0"),
        pytest.param(["--ring-capacity", "3"], id="ring-capacity-3"),
        pytest.param(["--cost-model", "on", "--epc-mib", "-1"], id="epc-negative"),
        pytest.param(["--cost-model", "on", "--epc-mib", "0"], id="epc-0"),
    ],
)
def test_cli_bad_config_exit_code(args, capsys):
    """Each config that would analyse nothing, use the wrong rules or crash
    mid-run is one ConfigError: exit code 1 and an ``error:`` line."""
    argv = args if args[0] == "--synth" else ["--synth", "64,4", "--count", "10", *args]
    rc = cli_main(["run", *argv])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error:") and "Traceback" not in err


def test_cli_rejects_removed_and_abbreviated_options(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for args in (["--alert", "fast"], ["--alert-f", "a.txt"]):
        with pytest.raises(SystemExit):
            cli_main(["run", "--synth", "64,4", "--count", "10", *args])
    assert not list(tmp_path.iterdir())


def test_cli_names_rejected_rules_on_stderr(tmp_path, capsys):
    rules = tmp_path / "r.rules"
    rules.write_bytes(
        b'alert tcp any any -> any any (content:"a\xffb"; sid:1;)\n'
        b'alert tcp any any -> any any (content:"ok"; sid:2;)\n'
    )
    rc = cli_main(["run", "--synth", "64,4", "--count", "10", "--rules", str(rules)])
    captured = capsys.readouterr()
    assert rc == 0
    err_lines = captured.err.splitlines()
    assert len(err_lines) == 1 and err_lines[0].startswith("rules: line 1: ")
    assert "received : 10" in captured.out


def test_cli_missing_rules_file(tmp_path, capsys):
    rc = cli_main(["run", "--synth", "64,4", "--count", "10", "--rules", str(tmp_path / "nope.rules")])
    assert rc == 1


def test_cli_genpcap(tmp_path, capsys):
    out = tmp_path / "gen.pcap"
    rc = cli_main(["genpcap", "--synth", "100,8", "--count", "300", str(out)])
    assert rc == 0
    assert len(list(pcap_read(out))) == 300


class CrcSink:
    """Forwarded frames as a crc32 sequence, plus the types the sink saw."""

    def __init__(self):
        self.crcs = []
        self.types = set()

    def write(self, frame) -> None:
        self.types.add(type(frame))
        self.crcs.append(zlib.crc32(frame))


def _digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


GOLDEN_SCHEDULES = {
    # paged, paced and bounded by duration: warm-up drops, pool exhaustion,
    # paging that grows with the flow table, blocks and alerts in 3 intervals
    "inline_priced_duration": (
        dict(packet_size=256, n_flows=48, duration_s=7.0, repeat=True, seed=7, attack_sid=30514, attack_rate=0.03),
        dict(n_workers=3, inline=True, ring_capacity=16, pool_capacity=20, rate_pps=700.0,
             cost_model=CostModel(epc_bytes=17 * 1024 * 1024, crossing_cost_us=5.0,
                                  warmup_us=500_000)),
        ("36bd0318f75cda89", "f8110c4d74707433", "6ce5c072f23d1dfb"),
    ),
    # unpaced source, packet count not a multiple of the burst: ring-full drops
    "passive_saturated": (
        dict(packet_size=512, n_flows=40, packet_count=3001, seed=3, attack_sid=30514, attack_rate=0.02),
        dict(n_workers=2, ring_capacity=16),
        ("0a98056f29ace076", "2dce8f540634761d", "4f53cda18c2baa0c"),
    ),
    # forwarding slower than acquisition, small pool and bursts
    "inline_saturated_small_pool": (
        dict(packet_size=64, n_flows=100, packet_count=2500, seed=5),
        dict(n_workers=2, inline=True, ring_capacity=8, pool_capacity=12, burst_size=5, useless=True,
             timing=TimingModel(useless_us=1.3)),
        ("4022db34bf18365b", "4f53cda18c2baa0c", "3e83d3d3cc5a707e"),
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_SCHEDULES))
def test_sim_schedule_matches_golden_digests(name, acquisition_kernel):
    """Digests of the report (totals, elapsed time, intervals), the alert
    lines and the forwarded-frame crc32 sequence, recorded from the sim
    driver before its per-frame loop was rewritten; any change to the
    schedule changes them. Frame decode and the flow hash give the same
    digests in C as in Python."""
    spec, engine, want = GOLDEN_SCHEDULES[name]
    alerts, sink = ListAlertSink(), CrcSink()
    report = run_experiment(WorkloadSpec(kind="synth", **spec),
                            base_config(rules_path=str(CORPUS_PATH), **engine), alert_sink=alerts, sink=sink)
    got = (_digest((report.totals, report.elapsed_us, report.intervals)), _digest(alerts.lines), _digest(sink.crcs))
    assert got == want
    assert sink.types <= {bytes}


@pytest.mark.parametrize("name", sorted(GOLDEN_SCHEDULES) + ["real_inline"])
def test_worker_time_never_decreases(name, monkeypatch):
    """Each worker is handed a non-decreasing ``now_us``: the sim schedule's
    local times on every golden config, the counter clock on a real run."""
    seen: dict[int, list[int]] = {}
    process = AnalysisWorker.process_packet

    def recording(worker, desc, now_us):
        seen.setdefault(id(worker), []).append(now_us)
        return process(worker, desc, now_us)

    monkeypatch.setattr(AnalysisWorker, "process_packet", recording)
    if name == "real_inline":
        wl = WorkloadSpec(kind="synth", packet_size=64, n_flows=16, packet_count=2000, seed=8,
                          attack_sid=900, attack_rate=0.05)
        config = base_config(n_workers=2, clock_mode="real", inline=True, rules_text=DROP_INJECTED)
        report = run_with_watchdog(lambda: run_experiment(wl, config), timeout_s=30)
    else:
        spec, engine, _ = GOLDEN_SCHEDULES[name]
        report = run_experiment(WorkloadSpec(kind="synth", **spec), base_config(rules_path=str(CORPUS_PATH), **engine))
    assert sum(len(times) for times in seen.values()) == report.totals.analyzed > 0
    for times in seen.values():
        assert all(a <= b for a, b in zip(times, times[1:]))
