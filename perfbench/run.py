"""ringids benchmark: wall-clock throughput of the simulated-clock pipeline.

Run from the repository root:

    python3 perfbench/run.py --workload fwd64 --seed 1 --seconds 60 --trace 0

The workload's frames are generated from the seed and written to a capture
before timing; each pass then replays the capture through the public
``run_experiment`` path. Passes repeat for ``--seconds`` (at least
MIN_PASSES), each after three timed set-ups. Every pass is checked against
the expected outcome; a pass that fails a check counts all its frames as
failed.

With ``--trace 0`` the result holds the end-to-end metrics: throughput is
that of the fastest pass and set-up time that of the fastest set-up. With
``--trace 1`` untraced and traced passes alternate and the result holds the
per-layer metrics plus the tracing overhead. The last line of stdout is the
result object; the line before it holds the environment, per-pass figures
and the modelled throughput, which is a TimingModel output and never a
measurement. Exit code 0 when a result was printed, 2 when the program to
measure is missing.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_build" / "perfbench"
MIN_PASSES = 3
SETUPS_PER_PASS = 3
HARD_LIMIT_S = 150.0  # stop adding passes past this, whatever MIN_PASSES says


@dataclass
class PassResult:
    traced: bool
    run_s: float = 0.0
    analysed: int = 0
    analysed_bits: float = 0.0
    modelled_pps: float = 0.0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    @property
    def wall_pps(self) -> float:
        return self.analysed / self.run_s if self.run_s else 0.0

    @property
    def wall_mbps(self) -> float:
        return self.analysed_bits / self.run_s / 1e6 if self.run_s else 0.0


def build_native(root: Path) -> str:
    """Build any extension setup.py defines, in place; none without Cython."""
    proc = subprocess.run(
        [sys.executable, "setup.py", "-q", "build_ext", "--inplace", "--build-temp", str(WORK / "build")],
        cwd=root, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        return f"failed with code {proc.returncode}"
    return "ok"


def git_commit(root: Path) -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"


def environment(seed: int, build: str) -> dict:
    from ringids import matching

    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "scan_kernel": matching.kernel_name(),
        "native_available": matching.NATIVE_AVAILABLE,
        "native_build": build,
        "commit": git_commit(ROOT),
        "seed": seed,
        "clock": "sim (single-threaded driver, wall-clock timed)",
    }


def check_pass(report, sink, alerts, expected, inline: bool) -> list[str]:
    """Output checks; the pool-slot check is Engine.shutdown's own, which raises."""
    from ringids.harness import ConservationError

    errors = []
    try:
        report.validate()
    except ConservationError as exc:
        errors.append(f"conservation: {exc}")
    t = report.totals
    if t.received != expected.frames:
        errors.append(f"received {t.received} of {expected.frames} frames")
    if t.alerts != sum(alerts.by_sid.values()):
        errors.append(f"report counts {t.alerts} alerts, sink saw {sum(alerts.by_sid.values())}")
    if alerts.by_sid != expected.alerts:
        errors.append(f"alerts by sid {dict(sorted(alerts.by_sid.items()))}, "
                      f"expected {dict(sorted(expected.alerts.items()))}")
    forwarded = (sink.frames, sink.bytes, sink.crc_sum)
    want = (expected.frames, expected.frame_bytes, expected.crc_sum) if inline else (0, 0, 0)
    if forwarded != want:
        errors.append(f"forwarded (frames, bytes, crc sum) {forwarded}, expected {want}")
    return errors


def run_pass(capture: Path, config, expected, inline: bool, tracer=None, quiet: bool = False) -> PassResult:
    from ringids.harness import WorkloadSpec, run_experiment

    from perfbench.probes import AlertCounter, FrameSink, Patches, PassProbe

    result = PassResult(traced=tracer is not None)
    patches = Patches()
    probe = PassProbe(tracer)
    sink, alerts = FrameSink(), AlertCounter()
    try:
        probe.install(patches)
        report = run_experiment(WorkloadSpec(kind="pcap", pcap_path=str(capture)), config,
                                alert_sink=alerts, sink=sink)
    except Exception as exc:  # a pass that raises fails whole; the run goes on
        if not quiet:
            traceback.print_exc(file=sys.stderr)
        result.failed = expected.frames
        result.errors.append(f"{type(exc).__name__}: {exc}")
        return result
    finally:
        patches.restore()
        gc.collect()  # free this pass's engine before the next one allocates
    result.run_s = probe.run_ns * 1e-9
    t = report.totals
    result.analysed = t.analyzed
    result.analysed_bits = report.mean_frame_bits * t.analyzed
    result.modelled_pps = report.pps
    result.errors = check_pass(report, sink, alerts, expected, inline)
    if result.errors:
        result.failed = expected.frames
    else:
        result.failed = t.dropped + t.residual + max(expected.frames - t.received, 0)
    return result


def measure_setup(config, capture: Path, repeats: int) -> list[float]:
    """Seconds of Engine.initialize + start_device, ``repeats`` times.

    The first two set-ups of a process pay page faults for the packet pool
    that later ones do not; the fastest set-up of a run is a warm one.
    """
    from ringids.harness import Engine, pcap_source

    from perfbench.probes import AlertCounter, FrameSink

    times = []
    for _ in range(repeats):
        engine = Engine(config, alert_sink=AlertCounter())
        source, sink = pcap_source(str(capture)), FrameSink()
        t0 = time.perf_counter()
        engine.initialize()
        engine.start_device(source, sink)
        times.append(time.perf_counter() - t0)
        del engine
        gc.collect()
    return times


def measure(workload, seed: int, seconds: float, trace: bool, build: str = "not run") -> tuple[dict, dict]:
    """Run one workload; returns (result, info)."""
    from ringids.harness import gen_synth, pcap_write
    from ringids.rules import load_ruleset_file

    from perfbench import metrics
    from perfbench.probes import Tracer
    from perfbench.workloads import RULES_PATH, expected_outcome

    rules_path = str(ROOT / RULES_PATH)
    ruleset = load_ruleset_file(rules_path)
    t0 = time.perf_counter()
    frames = list(gen_synth(workload.spec(seed), ruleset))
    gen_us = (time.perf_counter() - t0) / len(frames) * 1e6
    expected = expected_outcome(workload, frames, ruleset)
    WORK.mkdir(parents=True, exist_ok=True)
    capture = WORK / f"{workload.name}-{seed}-{os.getpid()}.pcap"
    pcap_write(capture, frames)
    del frames
    config = workload.engine_config(rules_path)
    tracer = Tracer() if trace else None
    min_passes = 2 * MIN_PASSES if trace else MIN_PASSES
    passes: list[PassResult] = []
    setup_times: list[float] = []
    cycles: list[float] = []  # seconds per set-up + pass iteration
    try:
        start = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - start
            # end near --seconds: start no pass that would run past it
            done = elapsed + max(cycles[-2:], default=0.0) > seconds
            if passes and done and (len(passes) >= min_passes or elapsed >= HARD_LIMIT_S):
                break
            setup_times += measure_setup(config, capture, SETUPS_PER_PASS)
            traced = tracer if (trace and len(passes) % 2 == 1) else None
            passes.append(run_pass(capture, config, expected, workload.inline, traced,
                                   quiet=any(p.errors for p in passes)))
            cycles.append(time.perf_counter() - start - elapsed)
    finally:
        capture.unlink(missing_ok=True)

    # Throughput is the fastest pass and set-up time the fastest set-up: other
    # tenants of the host only ever slow the program down, in phases of
    # seconds, so a run's median follows how long the run was slowed and the
    # fastest sample does not.
    untraced = [p for p in passes if not p.traced]
    traced_passes = [p for p in passes if p.traced]
    attempted = expected.frames * len(passes)
    failed = sum(p.failed for p in passes)
    e2e = {
        "wall_pps": max(p.wall_pps for p in untraced),
        "wall_mbps": max(p.wall_mbps for p in untraced),
        "setup_s": min(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "delivered_frac": 1.0 - failed / attempted,
    }
    if trace:
        values = metrics.per_layer_values(
            tracer, len(traced_passes), gen_us,
            traced_pps=max((p.wall_pps for p in traced_passes), default=0.0), untraced_pps=e2e["wall_pps"],
        )
        units = {name: unit for name, unit, _better, _moves in metrics.per_layer_specs()}
    else:
        values = e2e
        units = {name: unit for name, unit, _better, _bound in metrics.END_TO_END}
    result = {
        "correct": not any(p.errors for p in passes),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    info = {
        "workload": workload.name,
        "seconds": seconds,
        "trace": int(trace),
        "env": environment(seed, build),
        "passes": len(passes),
        "frames_per_pass": expected.frames,
        "fail_frac": failed / attempted,
        "end_to_end": e2e,
        "pass_wall_pps": [round(p.wall_pps, 1) for p in passes],
        "median_pass_wall_pps": statistics.median(p.wall_pps for p in untraced),
        "median_setup_s": statistics.median(setup_times),
        "setup_s_each": [round(t, 4) for t in setup_times],
        "modelled_pps": {
            "value": statistics.median(p.modelled_pps for p in passes),
            "note": "Report.pps under the sim clock: a TimingModel output, not a measurement",
        },
        "expected_alerts": {str(k): v for k, v in sorted(expected.alerts.items())},
        "errors": sorted({e for p in passes for e in p.errors})[:5],
    }
    if trace:
        info["layer_map"] = {name: moves for name, _unit, _better, moves in metrics.per_layer_specs()}
        info["spans_not_found"] = tracer.missing
    return result, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "ringids").is_dir() or not (ROOT / "setup.py").is_file():
        print(f"error: no ringids source tree under {ROOT}", file=sys.stderr)
        return 2
    build = build_native(ROOT)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.workloads import RULES_PATH, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if not (ROOT / RULES_PATH).is_file():
        print(f"error: ruleset {RULES_PATH} missing", file=sys.stderr)
        return 2
    result, info = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), build)
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
