"""Seeded "equal to the parent" sweep: one digest line per drawn sim config.

Each config is drawn from its own index, so the first N configs do not depend
on N. A synth config draws the mode (passive, inline or useless), 1-4
workers, rings of 1-64 slots, a default or a small pool, bursts of 1-40, the
cost model on or off, a paced or an unpaced source, a frame count or a
duration (some past the 30 s TCP timeout) and an attack rate. Every third
config instead replays a seeded mixed capture, which synth traffic never is:
handshakes and connections that start mid-stream, SYN data, SYN+FIN, FIN from
one side or both and RST, segments split, duplicated and swapped, sequence
numbers within 40 of 2**32 and UDP both ways, under the corpus rules plus
``SWEEP_RULES``, which read flow state.

A line holds the config id, the digests of the report, the alert lines and
the forwarded frames' crc32 sequence (as the golden schedule tests compute
them), the number of flows the tables expired, and the config itself. A line
that moves is a behaviour change, to be explained. Regenerate the committed
file with::

    PYTHONPATH=src python tests/sweep.py --n 80
"""

from __future__ import annotations

import argparse
import random
import tempfile
from pathlib import Path

from conftest import CORPUS_PATH, DATA_DIR, CrcSink, _digest, build_ipv4_udp_frame

from ringids.boundary import CostModel
from ringids.flow import FlowTable
from ringids.harness.pcapio import pcap_write
from ringids.harness.runner import EngineConfig, ListAlertSink, run_experiment
from ringids.harness.synth import WorkloadSpec, build_ipv4_tcp_frame
from ringids.packet import TCP_ACK, TCP_FIN, TCP_PSH, TCP_RST, TCP_SYN

DIGESTS_PATH = DATA_DIR / "sweep.digests"
N_CONFIGS = 80

SWEEP_RULES = """
alert tcp any any -> any any (msg: "sweep established"; flow: established; content: "EVILPATTERN"; sid: 9001; rev: 1;)
alert tcp any any -> any any (msg: "sweep to_server"; flow: to_server; content: "CMD "; sid: 9002; rev: 1;)
alert tcp any any -> any any (msg: "sweep to_client"; flow: to_client, established; content: "RESP "; sid: 9003; rev: 1;)
alert tcp any any -> any any (msg: "sweep stream"; flow: established, only_stream; content: "EVILPATTERN"; sid: 9004; rev: 1;)
alert tcp any any -> any 80 (msg: "sweep contentless to_server"; flow: to_server; sid: 9005; rev: 1;)
drop tcp any any -> any any (msg: "sweep drop"; content: "DROPME"; sid: 9006; rev: 1;)
alert udp any any -> any any (msg: "sweep udp established"; flow: established; content: "PING"; sid: 9007; rev: 1;)
"""

# pieces of mixed-capture payloads: the sweep rules' patterns and a
# heartbeat response that the corpus's only-stream rule 30514 reads
_TOKENS = (b"EVILPATTERN", b"CMD ", b"RESP ", b"DROPME", b"\x18\x03\x00\x40\x00")
_SERVER_PORTS = (80, 80, 443, 21, 8080)


def draw(i: int) -> tuple[dict, dict]:
    """Config ``i``: the workload and engine fields, plain values only (the
    cost model as its two coefficients), so the line can print them."""
    rng = random.Random(i)
    mixed = i % 3 == 2
    mode = rng.choice(("passive", "inline", "useless"))
    engine = dict(
        n_workers=rng.randint(1, 4),
        ring_capacity=1 << rng.randint(0, 6),
        burst_size=rng.randint(1, 40),
        inline=mode != "passive",
        useless=mode == "useless",
    )
    if rng.random() < 0.4:
        engine["pool_capacity"] = rng.randint(2, 40)
    if rng.random() < 0.4:
        epc = rng.choice((256 * 1024, 4 * 1024 * 1024, 17 * 1024 * 1024))
        rng.choice((0.0, 5.0))  # once a crossing price: still drawn, so that no later field moves
        engine["cost_model"] = (epc, rng.choice((0, 500_000)))
    long_run = rng.random() < 0.3  # slow and past the TCP timeout, so idle flows expire
    if long_run:
        engine["rate_pps"] = round(rng.uniform(1.0, 6.0), 1)
    elif rng.random() < 0.5:
        engine["rate_pps"] = round(rng.uniform(100.0, 5000.0), 1)
    if mixed:
        workload = dict(kind="pcap", seed=rng.getrandbits(32))
        if long_run:
            workload.update(repeat=True, duration_s=float(rng.randint(31, 70)))
        return workload, engine
    workload = dict(kind="synth", packet_size=rng.choice((64, 128, 256, 512, 1500)), n_flows=rng.randint(1, 300),
                    seed=rng.getrandbits(16))
    if long_run:
        workload["duration_s"] = float(rng.randint(31, 70))
    else:
        workload["packet_count"] = rng.randint(300, 3000)
    if rng.random() < 0.5:
        workload.update(attack_sid=30514, attack_rate=round(rng.uniform(0.01, 0.05), 3))
        if not long_run and workload["packet_count"] - 3 * workload["n_flows"] < 150:
            del workload["attack_sid"], workload["attack_rate"]  # too few data frames to carry it
    return workload, engine


def _payload(rng: random.Random) -> bytes:
    parts = [rng.randbytes(rng.randint(0, 30))]
    for _ in range(rng.randint(0, 2)):
        parts += [rng.choice(_TOKENS), rng.randbytes(rng.randint(0, 20))]
    return b"".join(parts) or b"x"


def _tcp_connection(rng: random.Random, client: tuple[int, int], server: tuple[int, int]) -> list[bytes]:
    """One TCP connection's frames, in the order it sends them."""
    isns = [rng.getrandbits(32) if rng.random() < 0.6 else 2**32 - rng.randint(1, 40) for _ in range(2)]
    nxt = list(isns)  # each side's next sequence number
    ends = (client, server)
    frames: list[bytes] = []

    def send(side: int, flags: int, seq: int, payload: bytes = b"") -> None:
        (src, sport), (dst, dport) = ends[side], ends[1 - side]
        frames.append(build_ipv4_tcp_frame(src, sport, dst, dport, flags, seq=seq, ack=nxt[1 - side],
                                           payload=payload))

    start = rng.choice(("handshake", "handshake", "midstream", "syn_data", "syn_fin"))
    if start != "midstream":
        data = _payload(rng) if start == "syn_data" else b""
        send(0, TCP_SYN | TCP_FIN if start == "syn_fin" else TCP_SYN, nxt[0], data)
        nxt[0] += 1 + len(data)
        send(1, TCP_SYN | TCP_ACK, nxt[1])
        nxt[1] += 1
        if rng.random() < 0.85:  # else the final ACK is lost
            send(0, TCP_ACK, nxt[0])
    for _ in range(rng.randint(1, 6)):
        side = int(rng.random() < 0.4)  # 1: the server sends
        message = _payload(rng)
        cuts = sorted(rng.sample(range(1, len(message)), min(rng.randint(0, 2), len(message) - 1)))
        segments = [(nxt[side] + a, message[a:b]) for a, b in zip([0] + cuts, cuts + [len(message)])]
        nxt[side] += len(message)
        if len(segments) > 1 and rng.random() < 0.3:
            k = rng.randrange(len(segments) - 1)
            segments[k], segments[k + 1] = segments[k + 1], segments[k]
        if rng.random() < 0.25:
            segments.insert(rng.randint(1, len(segments)), rng.choice(segments))  # a retransmission
        for seq, piece in segments:
            send(side, TCP_PSH | TCP_ACK, seq, piece)
    close = rng.choice(("none", "fin_client", "fin_server", "fin_both", "rst_client", "rst_server"))
    closer = int(close.endswith("server"))
    if close.startswith("fin"):
        for side in (0, 1) if close == "fin_both" else (closer,):
            send(side, TCP_FIN | TCP_ACK, nxt[side])
            nxt[side] += 1
    elif close.startswith("rst"):
        send(closer, TCP_RST, nxt[closer])
    return frames


def mixed_capture(seed: int) -> list[bytes]:
    """Frames of several TCP connections and UDP flows, interleaved."""
    rng = random.Random(seed)
    flows = []
    for _ in range(rng.randint(4, 12)):
        client = ((10 << 24) | rng.getrandbits(16), rng.randint(1024, 65535))
        server = ((192 << 24) | (168 << 16) | (1 << 8) | rng.randint(1, 20), rng.choice(_SERVER_PORTS))
        flows.append(_tcp_connection(rng, client, server))
    for _ in range(rng.randint(1, 3)):
        a = ((10 << 24) | rng.getrandbits(16), rng.randint(1024, 65535))
        b = ((172 << 24) | (16 << 16) | rng.randint(1, 20), 53)
        pairs = [(a, b) if rng.random() < 0.6 else (b, a) for _ in range(rng.randint(1, 6))]
        flows.append([build_ipv4_udp_frame(src[0], src[1], dst[0], dst[1], rng.choice((b"PING", b"data")))
                      for src, dst in pairs])
    frames = []
    while flows:
        flow = rng.choice(flows)
        frames.append(flow.pop(0))
        if not flow:
            flows.remove(flow)
    return frames


def run_config(i: int, workdir: Path) -> str:
    """Config ``i``'s digest line; a mixed capture is written under ``workdir``."""
    workload, engine = draw(i)
    text = " ".join(f"{k}={v}" for k, v in {**workload, **engine}.items())
    if workload["kind"] == "pcap":
        path = workdir / f"sweep-{i}.pcap"
        pcap_write(path, mixed_capture(workload.pop("seed")))
        workload["pcap_path"] = str(path)
        engine["rules_text"] = CORPUS_PATH.read_text() + SWEEP_RULES
    else:
        engine["rules_path"] = str(CORPUS_PATH)
    if "cost_model" in engine:
        epc, warmup = engine["cost_model"]
        engine["cost_model"] = CostModel(epc_bytes=epc, warmup_us=warmup)
    expired = 0
    expire = FlowTable.expire_flows

    def counting(table, now_us):
        nonlocal expired
        evicted = expire(table, now_us)
        expired += len(evicted)
        return evicted

    alerts, sink = ListAlertSink(), CrcSink()
    FlowTable.expire_flows = counting
    try:
        report = run_experiment(WorkloadSpec(**workload), EngineConfig(clock_mode="sim", **engine),
                                alert_sink=alerts, sink=sink)
    finally:
        FlowTable.expire_flows = expire
    report.validate()
    digests = (_digest((report.totals, report.elapsed_us, report.intervals)), _digest(alerts.lines),
               _digest(sink.crcs))
    return f"{i:03d} {' '.join(digests)} {expired} {text}"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=N_CONFIGS, help="number of configs")
    parser.add_argument("--out", type=Path, default=DIGESTS_PATH, help="file to write (default: the committed one)")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as workdir:
        lines = [run_config(i, Path(workdir)) for i in range(args.n)]
    args.out.write_text("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
