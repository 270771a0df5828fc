"""The paging cost model: its factor, the trusted footprint, and the checks on
its coefficients and on the CLI flags that set them."""

import itertools
import os

import pytest

from conftest import CORPUS_PATH, run_with_watchdog

from ringids.boundary import (
    MAX_MODEL_US,
    CostModel,
    paging_factor,
    ruleset_bytes,
    trusted_footprint,
)
from ringids.harness.cli import main as cli_main
from ringids.ring import ConfigError


def test_paging_factor_disabled_or_under_budget_is_one():
    on = CostModel()
    assert paging_factor(None, 10**12) == 1.0
    assert paging_factor(on, 50 * 2**20) == 1.0
    assert paging_factor(on, on.epc_bytes) == 1.0


def test_paging_factor_formula():
    model = CostModel(epc_bytes=96 * 2**20, paging_penalty=2.0)
    assert paging_factor(model, 192 * 2**20) == pytest.approx(3.0)


def test_paging_factor_monotone_and_continuous():
    model = CostModel(epc_bytes=96 * 2**20, paging_penalty=1.5)
    points = [0, 10 * 2**20, model.epc_bytes - 1, model.epc_bytes, model.epc_bytes + 1, 200 * 2**20, 10**10]
    factors = [paging_factor(model, p) for p in points]
    assert all(a <= b for a, b in itertools.pairwise(factors))
    # continuity at the budget: one extra byte moves the factor negligibly
    assert paging_factor(model, model.epc_bytes + 1) == pytest.approx(1.0, abs=1e-6)


def test_footprint_components():
    assert ruleset_bytes(3462) == 28 * 2**20
    assert ruleset_bytes(0) == 0
    base = trusted_footprint(0, 0)
    assert trusted_footprint(1000, 100) == base + 1000 + ruleset_bytes(100)


def test_negative_coefficients_rejected():
    with pytest.raises(ValueError):
        CostModel(paging_penalty=-1.0)


@pytest.mark.parametrize("field", ["paging_penalty"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_non_finite_coefficients_rejected(field, value):
    with pytest.raises(ValueError, match="finite"):
        CostModel(**{field: value})


@pytest.mark.parametrize("field, kind", [("warmup_us", int)])
def test_cost_model_times_are_at_most_one_day(field, kind):
    """One day, the longest ``--duration`` a report's interval rows are
    printed for, is accepted; one microsecond more is a ConfigError."""
    assert MAX_MODEL_US == 86_400 * 1_000_000
    assert getattr(CostModel(**{field: kind(MAX_MODEL_US)}), field) == MAX_MODEL_US
    with pytest.raises(ConfigError, match="one day"):
        CostModel(**{field: kind(MAX_MODEL_US + 1)})


@pytest.mark.parametrize("clock", ["sim", "real"])
def test_cli_rejects_a_warmup_past_one_day(clock, capsys):
    """Refused before the run on either clock: unbounded, the sim report
    would build about 3.3e29 interval rows, and the real clock's warm-up
    wait overflows a timestamp."""
    rc = run_with_watchdog(
        lambda: cli_main(["run", "--synth", "64,4", "--count", "10", "--clock", clock, "--cost-model", "on",
                          "--warmup-seconds", "1e30", "--alert-file", os.devnull]),
        timeout_s=30,
    )
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize(
    "flag, value",
    [("--paging-penalty", "nan"), ("--warmup-seconds", "nan"), ("--epc-mib", "inf"), ("--epc-mib", "nan")],
)
def test_cli_rejects_non_finite_cost_model_values(flag, value, capsys):
    rc = cli_main(["run", "--synth", "64,4", "--count", "10", "--cost-model", "on", flag, value,
                   "--alert-file", os.devnull])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith(f"error: {flag} must be a finite number") and err.count("\n") == 1


def test_cli_warmup_seconds_sets_the_warmup_window(capsys):
    """``--warmup-seconds 4`` keeps the engine paging itself in for the whole
    first 3 s interval, so every frame waits and is analysed in the next."""
    rc = cli_main(["run", "--synth", "256,16", "--count", "2000", "--rules", str(CORPUS_PATH),
                   "--cost-model", "on", "--warmup-seconds", "4", "--report", "csv", "--alert-file", os.devnull])
    assert rc == 0
    rows = {tuple(line.split(",")[:2]): line.split(",") for line in capsys.readouterr().out.splitlines()}
    header = rows[("row", "index")]
    first, second = (dict(zip(header, rows[("interval", str(i))])) for i in (0, 1))
    assert (first["received"], first["analyzed"], first["paging_pct"]) == ("2000", "0", "100.000")
    assert (second["analyzed"], second["paging_pct"]) == ("2000", "0.000")
