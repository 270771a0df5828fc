"""Smoke tests: each workload at a tiny frame count, the output contract, and
the output checks. Run with ``python3 -m pytest perfbench/tests``."""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import metrics, run
from perfbench.workloads import RULES_PATH, WORKLOADS, expected_outcome
from ringids.harness import gen_synth, pcap_write
from ringids.rules import load_ruleset_file

ROOT = Path(__file__).resolve().parents[2]

# tiny variants with their own reference alerts, recorded like the full ones
TINY = {
    "fwd64": dict(frames=200, n_flows=16),
    "scan1500": dict(frames=100, n_flows=4, attack_rate=0.05, reference_alerts={100086: 45}),
}


def tiny(name):
    return dataclasses.replace(WORKLOADS[name], **TINY[name])


def units_of(result):
    return {name: m["unit"] for name, m in result["metrics"].items()}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_workload_runs_clean_and_reports_every_metric(name, trace):
    result, info = run.measure(tiny(name), seed=3, seconds=0, trace=trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, info["errors"]
    assert result["attempted"] == TINY[name]["frames"] * info["passes"]
    if trace:
        want = {n: u for n, u, _better, _moves in metrics.per_layer_specs()}
        assert set(info["layer_map"]) == set(want)
    else:
        want = {n: u for n, u, _better, _bound in metrics.END_TO_END}
        assert all(result["metrics"][n]["value"] > 0 for n in want)
    assert units_of(result) == want
    assert info["env"]["scan_kernel"] and info["env"]["seed"] == 3
    assert info["modelled_pps"]["value"] > 0


def test_attack_alerts_counted_per_injection():
    w = tiny("scan1500")
    ruleset = load_ruleset_file(str(ROOT / RULES_PATH))
    expected = expected_outcome(w, list(gen_synth(w.spec(5), ruleset)), ruleset)
    assert expected.alerts[30514] == 5  # ceil(0.05 * 100)


def _one_pass(tmp_path, w, frames, expected):
    capture = tmp_path / "frames.pcap"
    pcap_write(capture, frames)
    return run.run_pass(capture, w.engine_config(str(ROOT / RULES_PATH)), expected, w.inline, quiet=True)


def test_chance_content_match_is_expected_and_found(tmp_path):
    w = tiny("scan1500")
    ruleset = load_ruleset_file(str(ROOT / RULES_PATH))
    frames = list(gen_synth(w.spec(1), ruleset))
    data = bytearray(frames[-1])  # a data frame, not an attack one: payload from offset 54
    data[100:103] = b"\xde\x28\xba"  # sid 100092's pattern, any port, any direction
    frames[-1] = bytes(data)
    expected = expected_outcome(w, frames, ruleset)
    assert expected.alerts[100092] == 1
    result = _one_pass(tmp_path, w, frames, expected)
    assert result.errors == [] and result.failed == 0


def test_wrong_outcome_fails_the_whole_pass(tmp_path):
    w = tiny("fwd64")
    frames = list(gen_synth(w.spec(1)))
    expected = expected_outcome(w, frames, load_ruleset_file(str(ROOT / RULES_PATH)))
    expected.crc_sum += 1
    result = _one_pass(tmp_path, w, frames, expected)
    assert result.errors and result.failed == len(frames)


def test_benchmark_json_matches_definitions():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {n: w.why for n, w in WORKLOADS.items()}
    assert all(len(w["why"]) <= 200 for w in spec["workloads"])
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] == metrics.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        s[:3] for s in metrics.per_layer_specs()
    ]


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fwd64", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0 and proc.stdout == ""
