from __future__ import annotations

import numpy as np
import pytest

from netgrad.objectives import (
    exact_gradient,
    exact_gradients,
    global_suboptimality,
    global_value,
    make_quadratic_suite,
    stochastic_gradient,
    stochastic_gradients,
)


def _suite(m=4, d=3, mu=0.5, L=4.0, heterogeneity=1.0, seed=7, sigma_bar=0.0):
    rng = np.random.default_rng(seed)
    return make_quadratic_suite(m, d, mu, L, heterogeneity, rng, sigma_bar=sigma_bar)


def test_single_agent_scalar_suite_closes_in_form():
    problem = _suite(m=1, d=1, mu=1.0, L=1.0, heterogeneity=0.0)
    assert problem.quads.tolist() == [[[1.0]]]
    assert np.allclose(problem.x_star, -problem.cbar, atol=1e-15)


def test_minimizer_residual_is_tiny():
    problem = _suite()
    residual = problem.qbar @ problem.x_star + problem.cbar
    assert np.linalg.norm(residual) <= 1e-10


def test_pooled_spectrum_endpoints_are_pinned():
    problem = _suite()
    pooled = np.concatenate([np.linalg.eigvalsh(q) for q in problem.quads])
    assert pooled.min() >= problem.mu - 1e-9
    assert pooled.max() <= problem.L + 1e-9
    assert abs(pooled.min() - problem.mu) <= 1e-9
    assert abs(pooled.max() - problem.L) <= 1e-9


def test_zero_heterogeneity_makes_linears_identical():
    problem = _suite(heterogeneity=0.0)
    for row in problem.linears:
        assert np.allclose(row, problem.cbar, atol=1e-15)


def test_gradients_match_central_finite_differences():
    problem = _suite()
    rng = np.random.default_rng(19)
    h = 1e-4
    for _ in range(5):
        x = rng.standard_normal(problem.d)
        agent = int(rng.integers(problem.m))
        grad = exact_gradient(problem, agent, x)
        numeric = np.empty_like(grad)
        for j in range(problem.d):
            step = np.zeros(problem.d)
            step[j] = h
            q, c = problem.quads[agent], problem.linears[agent]

            def value(v):
                return 0.5 * v @ q @ v + c @ v

            numeric[j] = (value(x + step) - value(x - step)) / (2.0 * h)
        assert np.linalg.norm(numeric - grad) <= 1e-5 * max(1.0, np.linalg.norm(grad))


def test_mean_gradient_vanishes_at_minimizer():
    problem = _suite()
    grads = exact_gradients(problem, np.tile(problem.x_star, (problem.m, 1)))
    assert np.linalg.norm(grads.mean(axis=0)) <= 1e-10


def test_exact_gradients_agree_with_per_agent_route():
    problem = _suite()
    rng = np.random.default_rng(2)
    x = rng.standard_normal((problem.m, problem.d))
    stacked = exact_gradients(problem, x)
    for agent in range(problem.m):
        assert np.allclose(stacked[agent], exact_gradient(problem, agent, x[agent]), atol=1e-14)


def test_noiseless_oracle_is_bitwise_exact_and_draws_nothing():
    problem = _suite(sigma_bar=0.0)
    rng = np.random.default_rng(5)
    x = rng.standard_normal((problem.m, problem.d))
    streams = [np.random.default_rng(100 + k) for k in range(problem.m)]
    states_before = [g.bit_generator.state for g in streams]
    noisy = stochastic_gradients(problem, x, streams)
    assert np.array_equal(noisy, exact_gradients(problem, x))
    assert [g.bit_generator.state for g in streams] == states_before


def test_noise_is_unbiased_with_matched_variance():
    problem = _suite(sigma_bar=1.0)
    rng = np.random.default_rng(31)
    x = np.zeros(problem.d)
    exact = exact_gradient(problem, 0, x)
    draws = 100000
    noise = np.empty((draws, problem.d))
    for i in range(draws):
        noise[i] = stochastic_gradient(problem, 0, x, rng) - exact
    per_coord_tol = 3.0 * problem.sigma_bar / np.sqrt(problem.d * draws)
    assert np.abs(noise.mean(axis=0)).max() <= per_coord_tol
    energy = (noise**2).sum(axis=1).mean()
    assert 0.97 * problem.sigma_bar**2 <= energy <= 1.03 * problem.sigma_bar**2


def test_global_value_literal_point():
    problem = _suite(m=1, d=1, mu=1.0, L=1.0, heterogeneity=0.0)
    # strip the linear term by shifting to the minimizer plus two
    x = problem.x_star + 2.0
    assert abs(global_suboptimality(problem, x) - 2.0) < 1e-12


def test_suboptimality_two_routes_agree():
    problem = _suite()
    rng = np.random.default_rng(13)
    for _ in range(20):
        x = problem.x_star + rng.standard_normal(problem.d)
        direct = global_suboptimality(problem, x)
        literal = global_value(problem, x) - problem.f_star
        assert direct == pytest.approx(literal, rel=1e-12, abs=1e-12)


def test_suboptimality_dominates_strong_convexity_bound():
    problem = _suite()
    rng = np.random.default_rng(29)
    for _ in range(50):
        x = problem.x_star + rng.standard_normal(problem.d)
        gap = global_suboptimality(problem, x)
        dist = np.linalg.norm(x - problem.x_star) ** 2
        assert gap >= 0.5 * problem.mu * dist - 1e-9


def test_mean_gradient_error_obeys_smoothness_bound():
    # the gap between the gradient at the average and the average of the
    # per-agent gradients is at most (L / sqrt(m)) * consensus norm
    problem = _suite()
    rng = np.random.default_rng(41)
    for _ in range(50):
        x = rng.standard_normal((problem.m, problem.d))
        xbar = x.mean(axis=0)
        at_mean = problem.qbar @ xbar + problem.cbar
        averaged = exact_gradients(problem, x).mean(axis=0)
        consensus = np.linalg.norm(x - xbar)
        bound = problem.L / np.sqrt(problem.m) * consensus
        assert np.linalg.norm(at_mean - averaged) <= bound + 1e-9


def test_exact_gradient_rejects_bad_agent():
    problem = _suite()
    with pytest.raises(IndexError):
        exact_gradient(problem, problem.m, np.zeros(problem.d))


def test_suite_generation_is_deterministic():
    a = _suite(seed=77)
    b = _suite(seed=77)
    assert np.array_equal(a.quads, b.quads)
    assert np.array_equal(a.linears, b.linears)
    assert np.array_equal(a.x_star, b.x_star)


def test_problem_arrays_are_read_only():
    problem = _suite()
    with pytest.raises(ValueError):
        problem.quads[0, 0, 0] = 5.0


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(m=0, d=1, mu=1.0, L=2.0, heterogeneity=0.0),
        dict(m=2, d=1, mu=-1.0, L=2.0, heterogeneity=0.0),
        dict(m=2, d=1, mu=3.0, L=2.0, heterogeneity=0.0),
        dict(m=2, d=1, mu=1.0, L=2.0, heterogeneity=-0.5),
    ],
)
def test_suite_rejects_bad_parameters(kwargs):
    with pytest.raises(ValueError):
        make_quadratic_suite(rng=np.random.default_rng(0), **kwargs)
