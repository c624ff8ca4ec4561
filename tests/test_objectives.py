from __future__ import annotations

from dataclasses import fields, replace

import numpy as np
import pytest
from _reference import global_value

from netgrad.objectives import (
    NoiseModel,
    QuadraticProblem,
    exact_gradient,
    exact_gradients,
    global_suboptimality,
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
        literal = global_value(problem, x) - global_value(problem, problem.x_star)
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


def test_problem_names_the_first_agent_whose_curvature_escapes():
    problem = _suite(m=6)
    quads = problem.quads.copy()
    quads[3] = (problem.L + 1.0) * np.eye(problem.d)
    quads[5] = 0.5 * problem.mu * np.eye(problem.d)
    with pytest.raises(ValueError, match=r"^agent 3 eigenvalues \[5, 5\] escape \[0\.5, 4\.0\]$"):
        replace(problem, quads=quads)


def _edited(problem, name, index, value):
    array = getattr(problem, name).copy()
    array[index] = value
    return {name: array}


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda p: _edited(p, "linears", (1, 0), np.nan), r"^curvature and linear stacks need finite entries$"),
        (lambda p: _edited(p, "quads", (2, 0, 0), np.inf), r"^curvature and linear stacks need finite entries$"),
        (lambda p: {"L": np.inf}, r"^need 0 < mu <= L < inf, got mu=0\.5, L=inf$"),
        (lambda p: {"sigma_bar": np.nan}, r"^noise level must be finite and nonnegative, got nan$"),
        (
            lambda p: _edited(p, "quads", (3, 0, 1), p.quads[3, 0, 1] + 1e-3),
            r"^agent 3 curvature is asymmetric by 0\.001, past 4e-09$",
        ),
    ],
    ids=["nan-linear", "inf-curvature", "inf-L", "nan-sigma", "asymmetric"],
)
def test_problem_rejects_non_finite_inputs_and_asymmetric_curvatures(edit, message):
    problem = _suite()
    with pytest.raises(ValueError, match=message):
        replace(problem, **edit(problem))


def test_generated_curvatures_are_exactly_symmetric():
    quads = _suite(m=16, d=5).quads
    assert np.array_equal(quads, quads.transpose(0, 2, 1))


def test_problem_is_built_from_its_five_inputs():
    problem = _suite(sigma_bar=0.5)
    inputs = [f.name for f in fields(QuadraticProblem) if f.init]
    assert inputs == ["quads", "linears", "mu", "L", "sigma_bar"]
    assert (problem.m, problem.d, problem.noise) == (4, 3, NoiseModel(0.5))
    qbar, cbar = problem.quads.mean(axis=0), problem.linears.mean(axis=0)
    derived = dict(qbar=qbar, cbar=cbar, x_star=np.linalg.solve(qbar, -cbar))
    for name, value in derived.items():
        assert getattr(problem, name).tobytes() == value.tobytes()
        assert not getattr(problem, name).flags.writeable
    # A derived value cannot disagree with the inputs it comes from.
    with pytest.raises(ValueError, match="init=False"):
        replace(problem, noise=NoiseModel(0.0))
    assert replace(problem, sigma_bar=0.0).noise == NoiseModel(0.0)


@pytest.mark.parametrize(
    "quads, linears, message",
    [
        (np.ones((2, 2)), np.ones((2, 2)), r"^curvature stack has shape \(2, 2\)$"),
        (np.ones((2, 2, 3)), np.ones((2, 2)), r"^curvature stack has shape \(2, 2, 3\)$"),
        (np.ones((0, 2, 2)), np.ones((0, 2)), r"^need m >= 1 and d >= 1, got m=0, d=2$"),
        (np.ones((2, 0, 0)), np.ones((2, 0)), r"^need m >= 1 and d >= 1, got m=2, d=0$"),
        (np.eye(2)[None].repeat(3, axis=0), np.ones((3, 3)), r"^linear stack has shape \(3, 3\)$"),
    ],
)
def test_problem_rejects_bad_shapes(quads, linears, message):
    with pytest.raises(ValueError, match=message):
        QuadraticProblem(quads=quads, linears=linears, mu=1.0, L=1.0, sigma_bar=0.0)


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


def test_noise_scale_equals_the_numpy_square_root_quotient():
    # ``scale`` divides by ``math.sqrt(d)``. It and ``np.sqrt`` both round
    # the root correctly, so every quotient equals the numpy one bit for bit.
    for sigma in (1e-8, 0.3, 1.0, 2.5, 7.0, 1e8):
        model = NoiseModel(sigma)
        got = [model.scale(d).hex() for d in range(1, 5000)]
        assert got == [float(sigma / np.sqrt(d)).hex() for d in range(1, 5000)], sigma
