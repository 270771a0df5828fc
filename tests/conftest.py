"""Shared fixtures: rules corpus, the kernel set, random packet contexts, brute-force, phase-1 and
phase-2 oracles, and the run digests the golden schedule and sweep tests compare."""

import hashlib
import importlib.util
import random
import shlex
import shutil
import subprocess
import sys
import sysconfig
import threading
import zlib
from pathlib import Path

import pytest
from hypothesis import settings

from ringids import acquire, matching, packet
from ringids.detect import PacketContext, evaluate_rule, prefilter
from ringids.harness.synth import build_ipv4_frame
from ringids.flow import Flow, FlowState
from ringids.packet import Direction, FiveTuple, PacketPool, Proto, canonical_key
from ringids.rules import Content, load_ruleset

REPO_ROOT = Path(__file__).resolve().parent.parent
DATA_DIR = Path(__file__).parent / "data"
CORPUS_PATH = DATA_DIR / "corpus.rules"

HEARTBLEED_RULE = (
    'alert tcp $HOME_NET [21, 25, 443, 465, 636, 992, 993, 995, 2484] -> $EXTERNAL_NET any '
    '(msg: "OpenSSL SSLv3 large heartbeat response - possible ssl heartbleed attempt"; '
    'flow: to_client, established, only_stream; content: "|18 03 00|", depth 3; '
    'byte_test: 2,>,128,0,relative; metadata: policy balanced-ips drop, policy security-ips drop, '
    'ruleset community; service: ssl; reference: cve,2014-0160; classtype: attempted-recon; '
    'sid: 30514; rev: 9; )'
)


# Property tests draw the same examples on every run: a failure reproduces,
# and a slow shared host cannot trip a per-example deadline.
settings.register_profile("ringids", derandomize=True, deadline=None, max_examples=200, database=None)
settings.load_profile("ringids")


def pytest_report_header(config):
    return f"ringids scan kernel: {matching.kernel_name()}"


@pytest.fixture(autouse=True)
def no_pipeline_thread_left():
    """Fail a test that leaves an analysis worker or the counter clock
    running: a spinning leftover thread slows every test after it."""
    yield
    left = [t.name for t in threading.enumerate() if t.name.startswith("analysis-") or t.name == "clock-counter"]
    assert not left, f"pipeline threads still running after the test: {left}"


@pytest.fixture(scope="session")
def native_dfa(tmp_path_factory):
    """The compiled kernel module; built into a temporary directory when the
    package's own copy does not import. Skips only where no C compiler exists."""
    if matching.NATIVE_AVAILABLE:
        return matching._dfa
    cc = shlex.split(sysconfig.get_config_var("CC") or "cc")[0]
    if shutil.which(cc) is None:
        pytest.skip(f"no C compiler ({cc}) to build ringids._dfa")
    out = tmp_path_factory.mktemp("dfa_build")
    proc = subprocess.run(
        [sys.executable, "setup.py", "-q", "build_ext", "--build-lib", str(out), "--build-temp", str(out)],
        cwd=REPO_ROOT, capture_output=True, text=True, timeout=300,
    )
    built = sorted(out.glob("ringids/_dfa*" + sysconfig.get_config_var("EXT_SUFFIX")))
    if proc.returncode != 0 or not built:
        pytest.fail(f"building ringids._dfa failed (code {proc.returncode}):\n{proc.stdout}{proc.stderr}")
    spec = importlib.util.spec_from_file_location("ringids._dfa", built[0])
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(params=["pure-python", "native"])
def kernel(request, monkeypatch):
    """Run the test once per kernel set, as a build has both compiled twins or
    none: the scan kernel and the frame decoder are swapped together between
    the extension and their Python references."""
    if request.param == "native":
        dfa = request.getfixturevalue("native_dfa")
        decode = packet._bind_decoder(dfa)
    else:
        dfa, decode = None, packet._decode
    monkeypatch.setattr(matching, "_dfa", dfa)
    monkeypatch.setattr(packet, "decode", decode)
    monkeypatch.setattr(acquire, "decode", decode)
    assert matching.kernel_name() == request.param
    assert acquire.decode is packet.decode
    assert (packet.decode is not packet._decode) == (dfa is not None)
    return request.param


@pytest.fixture(scope="session")
def corpus_text():
    return CORPUS_PATH.read_text()


@pytest.fixture(scope="session")
def corpus_ruleset(corpus_text):
    return load_ruleset(corpus_text)


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


class CountingPool(PacketPool):
    """A pool that counts its writes; the zero-copy budget is one per packet.

    The compiled decoder looks ``store`` up on the pool object, so its writes
    are counted too.
    """

    def __init__(self, capacity: int):
        super().__init__(capacity)
        self.writes = 0

    def store(self, frame) -> int:
        slot = super().store(frame)
        self.writes += 1
        return slot


class CollectSink:
    """Frame sink that keeps a copy of every forwarded frame."""

    def __init__(self):
        self.frames: list[bytes] = []

    def write(self, frame) -> None:
        self.frames.append(bytes(frame))


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


def build_ipv4_udp_frame(src_ip, src_port, dst_ip, dst_port, payload: bytes = b"", pad_to: int = 0) -> bytes:
    udp = src_port.to_bytes(2, "big") + dst_port.to_bytes(2, "big") + (8 + len(payload)).to_bytes(2, "big") + b"\x00\x00"
    return build_ipv4_frame(src_ip, dst_ip, Proto.UDP, udp + payload, pad_to)


def build_ipv4_icmp_frame(src_ip, dst_ip, icmp_type: int = 8, payload: bytes = b"", pad_to: int = 0) -> bytes:
    return build_ipv4_frame(src_ip, dst_ip, Proto.ICMP, bytes([icmp_type, 0, 0, 0, 0, 0, 0, 0]) + payload, pad_to)


def reverse(t: FiveTuple) -> FiveTuple:
    """The 5-tuple of the other direction of ``t``'s connection."""
    proto, src_ip, src_port, dst_ip, dst_port = t
    return FiveTuple(proto, dst_ip, dst_port, src_ip, src_port)


def flipped(direction: Direction) -> Direction:
    return Direction.REVERSE if direction is Direction.FORWARD else Direction.FORWARD


def make_context(tuple_, payload: bytes, flow: Flow | None = None, direction=Direction.FORWARD,
                 stream: bytes | None = None) -> PacketContext:
    """Standalone context over a plain payload buffer (no pool)."""
    return PacketContext(tuple=tuple_, flow=flow, direction=direction, payload=payload, stream_bytes=stream)


def make_flow(tuple_, state=FlowState.ESTABLISHED, initiator=None):
    key, direction = canonical_key(tuple_)
    flow = Flow(key=key, last_seen_us=0, state=state)
    flow.initiator_direction = initiator if initiator is not None else direction
    flow.saw_established = state in (FlowState.ESTABLISHED, FlowState.CLOSING, FlowState.CLOSED)
    return flow


_RULE_PROTO = {Proto.TCP: "tcp", Proto.UDP: "udp", Proto.ICMP: "icmp"}


def header_matches(rule, t: FiveTuple) -> bool:
    """The rule's header admits the tuple, read off the parsed specs (no
    compiled containers); ``$VAR`` addresses resolve as unbound, to any."""
    if rule.proto != "ip" and rule.proto != _RULE_PROTO.get(t.proto):
        return False
    src, dst = rule.src.resolve(None), rule.dst.resolve(None)

    def one_way(a, a_port, b, b_port):
        return (
            src.matches(a) and dst.matches(b) and rule.src_ports.matches(a_port) and rule.dst_ports.matches(b_port)
        )

    return one_way(t.src_ip, t.src_port, t.dst_ip, t.dst_port) or (
        rule.direction == "<>" and one_way(t.dst_ip, t.dst_port, t.src_ip, t.src_port)
    )


def brute_force_matches(compiled, ctx) -> set[int]:
    """Check every rule's header and then its flow and options, no prefilter."""
    return {
        sid for sid, rule in compiled.rules.items() if header_matches(rule, ctx.tuple) and evaluate_rule(rule, ctx)
    }


def reference_match(rule, buf: bytes) -> bool:
    """Phase 2's payload options spelled out: whether some assignment of
    match positions satisfies every option in rule order. It tries every
    position of every content, so it may take exponential time, like
    ``naive_scan``. A content's window starts at its offset from the anchor
    (the end of the previous content match for a relative option, else the
    buffer start) and, given a depth, ends that many bytes past its start; a
    byte test reads at its offset from the same anchor."""
    options = rule.options

    def match(i: int, anchor: int | None) -> bool:
        if i == len(options):
            return True
        opt = options[i]
        origin = anchor if opt.relative and anchor is not None else 0
        if isinstance(opt, Content):
            pat = opt.pattern
            lo = origin + opt.offset
            hi = len(buf) if opt.depth is None else min(len(buf), lo + opt.depth)
            return lo >= 0 and any(
                buf[p : p + len(pat)] == pat and match(i + 1, p + len(pat)) for p in range(lo, hi - len(pat) + 1)
            )
        pos = origin + opt.offset
        if pos < 0 or pos + opt.nbytes > len(buf):
            return False
        value = int.from_bytes(buf[pos : pos + opt.nbytes], "big")
        holds = {">": value > opt.value, "<": value < opt.value, "=": value == opt.value}[opt.op]
        return holds and match(i + 1, anchor)

    return match(0, None)


def reference_candidates(compiled, ctx) -> set[int]:
    """Phase 1 spelled out: every rule whose header admits the tuple and that
    is contentless or has its fast pattern in its buffer, which is the stream
    bytes (none read as empty) for an only-stream rule and the payload for
    any other."""
    candidates = set()
    for sid, rule in compiled.rules.items():
        if not header_matches(rule, ctx.tuple):
            continue
        fast = rule.fast_pattern
        buf = (ctx.stream_bytes or b"") if rule.only_stream else ctx.payload
        if fast is None or fast in buf:
            candidates.add(sid)
    return candidates


def pipeline_matches(compiled, ctx) -> set[int]:
    return {sid for sid in prefilter(compiled, ctx) if evaluate_rule(compiled.rules[sid], ctx)}


def random_context(rng: random.Random, compiled, proto: Proto | None = None) -> PacketContext:
    """A randomized packet context; payloads sometimes carry rule patterns
    (possibly truncated into near-misses) so both phases get exercised, and
    addresses often fall in a network the rules name, so that address-bound
    headers match too. ``proto`` fixes the protocol; by default it is drawn,
    mostly TCP."""
    if proto is None:
        proto = rng.choice([Proto.TCP, Proto.TCP, Proto.TCP, Proto.UDP, Proto.ICMP])
    ports = (0, 0)
    if proto in (Proto.TCP, Proto.UDP):
        pool = [80, 443, 25, 53, 8080, 1337, 6667, rng.randrange(1, 65536)]
        ports = (rng.choice(pool), rng.choice(pool))
    nets = [net for rule in compiled.rules.values() for spec in (rule.src, rule.dst) for net in spec.nets]

    def address() -> int:
        if nets and rng.random() < 0.5:
            net, prefix = rng.choice(nets)
            host_bits = 32 - prefix
            return (net >> host_bits << host_bits) | rng.getrandbits(host_bits)
        return rng.getrandbits(32)

    t = FiveTuple(proto, address(), ports[0], address(), ports[1])

    payload = bytearray(rng.randbytes(rng.randrange(0, 160)))
    all_rules = list(compiled.rules.values())
    for _ in range(rng.randrange(0, 4)):
        rule = all_rules[rng.randrange(len(all_rules))]
        fast = rule.fast_pattern
        if fast is None:
            continue
        piece = fast if rng.random() < 0.7 else fast[: max(len(fast) - 1, 1)]
        pos = rng.randrange(0, len(payload) + 1)
        payload[pos : pos + len(piece)] = piece

    flow = None
    direction = Direction.FORWARD
    if rng.random() < 0.8:
        state = rng.choice(
            [FlowState.NEW, FlowState.ESTABLISHED, FlowState.ESTABLISHED, FlowState.CLOSING]
        )
        key, key_dir = canonical_key(t)
        flow = make_flow(t, state=state, initiator=rng.choice([key_dir, flipped(key_dir)]))
        direction = key_dir

    stream = None
    if proto is Proto.TCP and flow is not None and rng.random() < 0.5:
        stream = bytes(payload) if rng.random() < 0.5 else rng.randbytes(rng.randrange(1, 200))

    return make_context(t, bytes(payload), flow=flow, direction=direction, stream=stream)
