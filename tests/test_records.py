"""Which iterations a run records, and the suboptimality each record carries.

A run observes every iteration once: the record taken on the stride, at the
horizon or at an early stop reuses the suboptimality the loop computed for
that iteration. The ``t`` sequences and final suboptimalities below were
recorded from the loop that took records from two call sites and recomputed
the suboptimality for each; the single observation must reproduce them, and
every recorded suboptimality must equal the one of the state the step
produced, bit for bit.
"""

from __future__ import annotations

import pytest
from _reference import column_mean

import netgrad.harness
from netgrad.harness import ExperimentConfig, run_experiment
from netgrad.objectives import global_suboptimality

_RUNS = (("dsgt", "metropolis"), ("ssdsgt", "metropolis"), ("assdsgt", "lazy-metropolis"))
_STEP_NAMES = {"dsgt": "dsgt_step", "ssdsgt": "ssdsgt_step", "assdsgt": "assdsgt_step"}

# Final-record suboptimality of each 30-iteration run below, per (algo, sigma).
_FINAL_SUBOPT = {
    ("dsgt", 0.0): "0x1.5a3c1774475f0p+0",
    ("dsgt", 1.0): "0x1.59ea14006d134p+0",
    ("ssdsgt", 0.0): "0x1.498a56c4299b6p+0",
    ("ssdsgt", 1.0): "0x1.48bc36e1eb2e0p+0",
    ("assdsgt", 0.0): "0x1.5c09a83df33dap+0",
    ("assdsgt", 1.0): "0x1.5bce81c40d3d1p+0",
}


def _run_capturing_suboptimality(monkeypatch, cfg):
    """Run ``cfg`` and map every state's ``t`` to its working-block suboptimality.

    The initial state is captured through ``init_state`` and every later one
    through the harness step name, as the loop looks both up per run.
    """
    seen: dict[int, float] = {}

    def capture(state, problem):
        seen[state.t] = global_suboptimality(problem, column_mean(state.x[: problem.m]))
        return state

    init, step = netgrad.harness.init_state, getattr(netgrad.harness, _STEP_NAMES[cfg.algo])
    monkeypatch.setattr(netgrad.harness, "init_state", lambda p, *a: capture(init(p, *a), p))
    monkeypatch.setattr(
        netgrad.harness, _STEP_NAMES[cfg.algo], lambda s, p, *a: capture(step(s, p, *a), p)
    )
    return run_experiment(cfg), seen


@pytest.mark.parametrize("algo, mixing", _RUNS)
@pytest.mark.parametrize("sigma", (0.0, 1.0))
@pytest.mark.parametrize("stride", (1, 7))
def test_records_fall_on_the_stride_and_carry_the_state_suboptimality(
    monkeypatch, algo, mixing, sigma, stride
):
    cfg = ExperimentConfig(
        topology="ring", agents=6, algo=algo, mixing=mixing, iters=30, sigma_bar=sigma,
        stride=stride, seed=3,
    )
    trace, seen = _run_capturing_suboptimality(monkeypatch, cfg)
    expected_t = list(range(31)) if stride == 1 else [0, 7, 14, 21, 28, 30]
    assert [r.t for r in trace.records] == expected_t
    assert sorted(seen) == list(range(31))
    for record in trace.records:
        assert record.subopt.hex() == seen[record.t].hex(), record.t
    assert trace.records[-1].subopt.hex() == _FINAL_SUBOPT[algo, sigma]


def test_an_early_stop_off_the_stride_is_recorded_once(monkeypatch):
    cfg = ExperimentConfig(
        topology="ring", agents=6, algo="ssdsgt", iters=3000, stride=7, eps_stop=0.1, x0_radius=1.0
    )
    trace, seen = _run_capturing_suboptimality(monkeypatch, cfg)
    assert trace.summary["stopped_early"] is True
    assert trace.summary["final_t"] == 774
    assert [r.t for r in trace.records] == [*range(0, 774, 7), 774]
    for record in trace.records:
        assert record.subopt.hex() == seen[record.t].hex(), record.t
    assert trace.summary["final_subopt"] == trace.records[-1].subopt <= 0.1
