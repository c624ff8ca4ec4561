"""Every check a caller's input can trip raises, and says what it rejected.

Each case here is a raise of the library that an input reaches: a
schedule's contraction or step, a start point, a gradient oracle's
arguments, a graph or a mixing matrix, a tuner's config, an averager read
too early, or a plot of nothing. The command line cases are in
``tests/test_cli.py``, and a hand-built schedule's in
``tests/test_algorithms.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from netgrad.algorithms import init_state, step_size, theory_schedule
from netgrad.diagnostics import WeightedAverager
from netgrad.errors import ConfigError, InvariantViolation
from netgrad.harness import ExperimentConfig, tune_dsgt_beta, tune_dsgt_step
from netgrad.objectives import exact_gradients, make_quadratic_suite, stochastic_gradient, stochastic_gradients
from netgrad.plotting import emit_plot
from netgrad.topology import Graph, MixingMatrix, build_graph, gossip_contraction


def _problem(sigma_bar: float = 0.0, m: int = 4, d: int = 2):
    return make_quadratic_suite(m, d, 1.0, 2.0, 1.0, np.random.default_rng(3), sigma_bar=sigma_bar)


@pytest.mark.parametrize(
    "tuner, overrides, field",
    [
        (tune_dsgt_step, dict(algo="ssdsgt"), "algo"),
        (tune_dsgt_step, dict(algo="dsgt", sigma_bar=1.0), "sigma_bar"),
        (tune_dsgt_beta, dict(algo="ssdsgt", sigma_bar=1.0), "algo"),
        (tune_dsgt_beta, dict(algo="dsgt"), "sigma_bar"),
    ],
    ids=["step-algo", "step-noisy", "beta-algo", "beta-noiseless"],
)
def test_a_tuner_names_the_field_its_config_cannot_have(tuner, overrides, field):
    with pytest.raises(ConfigError) as caught:
        tuner(ExperimentConfig(iters=20, **overrides))
    assert caught.value.field == field


@pytest.mark.parametrize("theta", [0.0, -0.5, 1.5, float("nan")])
def test_the_theory_schedule_rejects_a_contraction_outside_zero_one(theta):
    with pytest.raises(ValueError, match="contraction parameter"):
        theory_schedule("ssdsgt", "constant", theta, 2.0, 1.0)


@pytest.mark.parametrize("multiplier", [0.0, -1.0, float("nan")])
def test_the_theory_schedule_names_step_multiplier_for_a_step_outside_zero_inf(multiplier):
    with pytest.raises(ConfigError, match=r"the template eta0 is .*, outside \(0, inf\)") as caught:
        theory_schedule("ssdsgt", "constant", 0.5, 2.0, 1.0, multiplier)
    assert caught.value.field == "step_multiplier"


def test_a_step_size_before_iteration_zero_is_rejected():
    with pytest.raises(ValueError, match="nonnegative"):
        step_size(theory_schedule("ssdsgt", "constant", 0.5, 2.0, 1.0), -1)


@pytest.mark.parametrize("x0", [np.zeros(3), np.zeros((4, 2)), np.zeros(())])
def test_init_state_rejects_a_start_that_is_not_one_point(x0):
    with pytest.raises(ValueError, match=r"start point must have shape \(2,\)"):
        init_state(_problem(), x0, "ssdsgt")


def test_exact_gradients_reject_a_state_of_the_wrong_shape():
    with pytest.raises(ValueError, match=r"state must have shape \(4, 2\)"):
        exact_gradients(_problem(), np.zeros((3, 2)))


def test_stochastic_gradients_need_one_stream_per_agent():
    streams = [np.random.default_rng(k) for k in range(3)]
    with pytest.raises(ValueError, match="need 4 agent streams, got 3"):
        stochastic_gradients(_problem(sigma_bar=1.0), np.zeros((4, 2)), streams)


def test_a_noiseless_stochastic_gradient_is_the_exact_one_and_draws_nothing():
    problem = _problem()
    x = np.random.default_rng(9).standard_normal((4, 2))
    rng = np.random.default_rng(1)
    before = rng.bit_generator.state
    for agent in range(problem.m):
        got = stochastic_gradient(problem, agent, x[agent], rng)
        assert got.tobytes() == exact_gradients(problem, x)[agent].tobytes()
    assert rng.bit_generator.state == before


@pytest.mark.parametrize(
    "m, edges, message",
    [
        (0, frozenset(), "at least one agent"),
        (3, frozenset({(0, 1), (1, 3)}), r"edge \(1, 3\) invalid for m=3"),
        (3, frozenset({(0, 1), (-1, 2)}), r"edge \(-1, 2\) invalid"),
    ],
    ids=["no-agent", "past-the-end", "negative"],
)
def test_a_graph_rejects_no_agents_and_an_edge_out_of_range(m, edges, message):
    with pytest.raises(ValueError, match=message):
        Graph(m, edges)


@pytest.mark.parametrize(
    "entries, message",
    [
        (np.full((2, 3), 1.0 / 3.0), "must be square"),
        (np.array([[0.5, 0.5 + 1e-11], [0.5, 0.5]]), "asymmetry 1.000e-11 exceeds"),
        (np.array([[1.5, -0.5], [-0.5, 1.5]]), r"weights must lie in \[0, 1\]"),
    ],
    ids=["non-square", "asymmetric", "outside-unit-interval"],
)
def test_a_mixing_matrix_rejects_bad_entries(entries, message):
    with pytest.raises(ValueError, match=message):
        MixingMatrix(entries)


def test_the_gossip_family_needs_an_edge():
    with pytest.raises(ValueError, match="needs at least one edge"):
        gossip_contraction(build_graph("ring", 1))


def test_an_averager_has_no_average_before_its_first_push():
    with pytest.raises(ValueError, match="no values pushed yet"):
        WeightedAverager(mu=1.0).average


def test_an_invariant_violation_without_an_iteration_prints_its_message():
    assert str(InvariantViolation("x")) == "x"


def test_a_plot_of_no_traces_is_rejected(tmp_path):
    with pytest.raises(ValueError, match="at least one trace"):
        emit_plot([], tmp_path / "f.svg")
    assert not (tmp_path / "f.svg").exists()
