"""What the per-iteration audits report, pinned to the values the loop gave
when every identity was checked through its own norms and dictionaries.

The expected messages, iterations and key sets below were recorded from
that loop; the batched loop must reproduce them exactly.
"""

from __future__ import annotations

import numpy as np
import pytest

import netgrad.harness
from netgrad.errors import InvariantViolation
from netgrad.harness import ExperimentConfig, run_experiment

_RUNS = (("dsgt", "metropolis"), ("ssdsgt", "metropolis"), ("assdsgt", "lazy-metropolis"))
_STEP_NAMES = {"dsgt": "dsgt_step", "ssdsgt": "ssdsgt_step", "assdsgt": "assdsgt_step"}


@pytest.mark.parametrize("algo, mixing", _RUNS)
def test_single_agent_runs_report_no_audit_ratios(algo, mixing):
    # With one agent every identity holds exactly, so no ratio leaves zero
    # and the summary names none of them.
    cfg = ExperimentConfig(topology="ring", agents=1, algo=algo, mixing=mixing, iters=50)
    assert run_experiment(cfg).summary["audit_max"] == {}


@pytest.mark.parametrize("algo, mixing", _RUNS)
def test_single_agent_noisy_runs_name_only_the_identities_that_moved(algo, mixing):
    # The two blocks of a one-agent momentum state stay equal, so the block
    # identities stay absent; the mean and tracker identities round off.
    cfg = ExperimentConfig(topology="ring", agents=1, algo=algo, mixing=mixing, iters=50, sigma_bar=1.0)
    assert set(run_experiment(cfg).summary["audit_max"]) == {"mean_dynamics", "tracker_mean"}


def _run_with_corrupted_step(monkeypatch, algo, mixing, corrupt):
    """Run 20 iterations with ``corrupt(state)`` applied after step 5."""
    name = _STEP_NAMES[algo]
    original = getattr(netgrad.harness, name)

    def corrupted(state, *args, **kwargs):
        new = original(state, *args, **kwargs)
        if new.t == 5:
            corrupt(new)
        return new

    monkeypatch.setattr(netgrad.harness, name, corrupted)
    cfg = ExperimentConfig(topology="ring", agents=6, algo=algo, mixing=mixing, iters=20)
    with pytest.raises(InvariantViolation) as caught:
        run_experiment(cfg)
    return str(caught.value), caught.value.iteration


_TRACKER_MESSAGES = {
    "dsgt": "iteration 5: identity 'tracker_mean' off by a relative 1.187e-01 (threshold 1e-07)",
    "ssdsgt": "iteration 5: identity 'tracker_mean' off by a relative 1.187e-01 (threshold 1e-07)",
    "assdsgt": "iteration 5: identity 'block_sum_s' off by a relative 1.187e-01 (threshold 1e-07)",
}


@pytest.mark.parametrize("algo, mixing", _RUNS)
def test_a_shifted_tracker_row_names_the_same_identity(monkeypatch, algo, mixing):
    def shift(state):
        state.s[1] += 1.0

    message, iteration = _run_with_corrupted_step(monkeypatch, algo, mixing, shift)
    assert (message, iteration) == (_TRACKER_MESSAGES[algo], 5)


@pytest.mark.parametrize("algo, mixing", _RUNS)
def test_a_nan_iterate_fails_the_mean_dynamics_first(monkeypatch, algo, mixing):
    def poison(state):
        state.x[1, 0] = np.nan

    message, iteration = _run_with_corrupted_step(monkeypatch, algo, mixing, poison)
    expected = "iteration 5: identity 'mean_dynamics' off by a relative nan (threshold 1e-07)"
    assert (message, iteration) == (expected, 5)
