"""Lifecycle ordering and the paging cost model."""

import itertools
import os

import pytest

from conftest import CORPUS_PATH

from ringids.boundary import (
    CostModel,
    Lifecycle,
    LifecycleEvent,
    LifecycleState,
    OrderError,
    paging_factor,
    ruleset_bytes,
    trusted_footprint,
)
from ringids.harness.cli import main as cli_main

SEQUENCE = [
    LifecycleEvent.INITIALIZE,
    LifecycleEvent.START_DEVICE,
    LifecycleEvent.ACQUIRE,
    LifecycleEvent.STOP,
    LifecycleEvent.SHUTDOWN,
]


def test_happy_path_sequence():
    lc = Lifecycle()
    states = [lc.transition(e) for e in SEQUENCE]
    assert states == [
        LifecycleState.INITIALIZED,
        LifecycleState.DEVICE_STARTED,
        LifecycleState.RUNNING,
        LifecycleState.STOPPED,
        LifecycleState.SHUTDOWN,
    ]


def test_every_single_step_deviation_fails():
    # from every prefix of the correct sequence, any other next event errors
    for prefix_len in range(len(SEQUENCE) + 1):
        for wrong in LifecycleEvent:
            expected = SEQUENCE[prefix_len] if prefix_len < len(SEQUENCE) else None
            if wrong is expected:
                continue
            lc = Lifecycle()
            for e in SEQUENCE[:prefix_len]:
                lc.transition(e)
            with pytest.raises(OrderError):
                lc.transition(wrong)


def test_acquire_before_initialize_and_double_shutdown():
    lc = Lifecycle()
    with pytest.raises(OrderError):
        lc.transition(LifecycleEvent.ACQUIRE)
    for e in SEQUENCE:
        lc.transition(e)
    with pytest.raises(OrderError):
        lc.transition(LifecycleEvent.SHUTDOWN)


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
