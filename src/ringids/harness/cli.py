"""Command-line entry points.

`ringids run` drives one experiment and prints the report; `ringids genpcap`
writes a synthetic workload to a capture file. Exit code 0 on a clean run,
1 on configuration or lifecycle errors.
"""

from __future__ import annotations

import argparse
import math
import sys

from ..boundary import WARMUP_US_DEFAULT, CostModel, OrderError
from ..rules import ParseError
from .pcapio import pcap_write
from .runner import (
    ConfigError,
    ConservationError,
    EngineConfig,
    FileAlertSink,
    run_experiment,
)
from .synth import WorkloadSpec, gen_synth


def _add_run_parser(sub):
    # no prefix matching: a removed option must fail, not turn into a longer one
    p = sub.add_parser("run", help="run one experiment and print statistics", allow_abbrev=False)
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--synth", metavar="SIZE,FLOWS", help="synthetic workload: packet size and flow count")
    src.add_argument("--pcap", metavar="FILE", help="replay a capture file")
    p.add_argument("--count", type=int, default=None, help="packet budget")
    p.add_argument("--duration", type=float, default=None, help="run length in seconds")
    p.add_argument("--repeat", action="store_true", help="restart the source when it ends")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--threads", type=int, default=1, help="number of analysis workers")
    p.add_argument("--rules", metavar="FILE", default=None)
    p.add_argument("--take-first", type=int, default=None, metavar="N", help="use only the first N rules")
    p.add_argument("--alert-file", metavar="FILE", default=None, help="write alert lines here instead of stdout")
    p.add_argument("--inline", action="store_true", help="inline (blocking) mode")
    p.add_argument("--useless", action="store_true", help="no analysis: fetch and allow")
    p.add_argument("--rate", type=float, default=0.0, metavar="PPS", help="offered load; 0 saturates")
    p.add_argument("--clock", choices=["sim", "real"], default="sim")
    p.add_argument("--ring-capacity", type=int, default=4096)
    p.add_argument("--burst", type=int, default=32)
    p.add_argument("--cost-model", choices=["on", "off"], default="off")
    p.add_argument("--epc-mib", type=float, default=96.0)
    p.add_argument("--paging-penalty", type=float, default=2.0)
    p.add_argument("--warmup-seconds", type=float, default=None)
    p.add_argument("--attack-sid", type=int, default=None, help="inject payloads matching this rule")
    p.add_argument("--attack-rate", type=float, default=0.0, help="fraction of packets carrying the attack")
    p.add_argument("--report", choices=["text", "csv"], default="text")
    p.add_argument("--report-file", metavar="FILE", default=None)
    return p


def _add_genpcap_parser(sub):
    p = sub.add_parser("genpcap", help="write a synthetic workload to a pcap file", allow_abbrev=False)
    p.add_argument("--synth", metavar="SIZE,FLOWS", required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("out", metavar="FILE")
    return p


def _parse_synth(arg: str) -> tuple[int, int]:
    try:
        size_s, flows_s = arg.split(",")
        return int(size_s), int(flows_s)
    except ValueError:
        raise ConfigError(f"--synth expects SIZE,FLOWS, got {arg!r}") from None


def _workload_from_args(args) -> WorkloadSpec:
    if getattr(args, "pcap", None):
        return WorkloadSpec(
            kind="pcap",
            pcap_path=args.pcap,
            repeat=args.repeat,
            duration_s=args.duration,
            packet_count=args.count,
            seed=args.seed,
        )
    size, flows = _parse_synth(args.synth)
    return WorkloadSpec(
        kind="synth",
        packet_size=size,
        n_flows=flows,
        repeat=args.repeat,
        duration_s=args.duration,
        packet_count=args.count,
        seed=args.seed,
        attack_sid=args.attack_sid,
        attack_rate=args.attack_rate,
    )


def _run(args) -> int:
    workload = _workload_from_args(args)
    cost_model = None
    if args.cost_model == "on":
        for flag, value in (("--epc-mib", args.epc_mib), ("--paging-penalty", args.paging_penalty),
                            ("--warmup-seconds", args.warmup_seconds)):
            if value is not None and not math.isfinite(value):  # int() and round() of one raise mid-conversion
                raise ConfigError(f"{flag} must be a finite number, not {value}")
        cost_model = CostModel(
            epc_bytes=int(args.epc_mib * 1024 * 1024),
            paging_penalty=args.paging_penalty,
            warmup_us=WARMUP_US_DEFAULT if args.warmup_seconds is None else round(args.warmup_seconds * 1_000_000),
        )
    config = EngineConfig(
        n_workers=args.threads,
        ring_capacity=args.ring_capacity,
        burst_size=args.burst,
        inline=args.inline,
        useless=args.useless,
        rules_path=args.rules,
        take_first=args.take_first,
        clock_mode=args.clock,
        rate_pps=args.rate,
        cost_model=cost_model,
    )
    alert_fh = open(args.alert_file, "w") if args.alert_file else sys.stdout
    try:
        report = run_experiment(workload, config, alert_sink=FileAlertSink(alert_fh))
    finally:
        if args.alert_file:
            alert_fh.close()
    for lineno, exc in report.rule_errors:
        print(f"rules: line {lineno}: {exc}", file=sys.stderr)
    rendered = report.to_csv() if args.report == "csv" else report.to_text()
    if args.report_file:
        with open(args.report_file, "w") as fh:
            fh.write(rendered if rendered.endswith("\n") else rendered + "\n")
    else:
        print(rendered)
    return 0


def _genpcap(args) -> int:
    size, flows = _parse_synth(args.synth)
    spec = WorkloadSpec(kind="synth", packet_size=size, n_flows=flows, packet_count=args.count, seed=args.seed)
    n = pcap_write(args.out, gen_synth(spec))
    print(f"wrote {n} frames to {args.out}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="ringids", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    _add_run_parser(sub)
    _add_genpcap_parser(sub)
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _run(args)
        return _genpcap(args)
    except (ConfigError, OrderError, ParseError, ConservationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
