from __future__ import annotations

import math

import numpy as np
import pytest

from netgrad.topology import (
    AugmentedMixing,
    EdgeGossip,
    Graph,
    MixingMatrix,
    MOMENTUM_ENVELOPE,
    build_graph,
    chebyshev_augment,
    default_gamma,
    gossip_contraction,
    lazify,
    metropolis_mixing,
    random_edge_gossip,
)


def _ring(m: int):
    return metropolis_mixing(build_graph("ring", m))


def test_build_graph_complete_three():
    g = build_graph("complete", 3)
    assert g.m == 3
    assert g.edge_list() == [(0, 1), (0, 2), (1, 2)]
    assert g.degrees().tolist() == [2, 2, 2]


def test_build_graph_ring_four():
    g = build_graph("ring", 4)
    assert g.edge_list() == [(0, 1), (0, 3), (1, 2), (2, 3)]
    assert g.degrees().tolist() == [2, 2, 2, 2]


def test_build_graph_star_five():
    g = build_graph("star", 5)
    assert g.edge_list() == [(0, 1), (0, 2), (0, 3), (0, 4)]
    assert g.degrees().tolist() == [4, 1, 1, 1, 1]


def test_build_graph_grid_nine():
    g = build_graph("grid", 9)
    degrees = sorted(g.degrees().tolist())
    # four corners, four edge midpoints, one center
    assert degrees == [2, 2, 2, 2, 3, 3, 3, 3, 4]


@pytest.mark.parametrize(
    "kind, m",
    [("grid", 7), ("banana", 4), ("complete", 0)],
)
def test_build_graph_rejects_bad_requests(kind, m):
    with pytest.raises(ValueError):
        build_graph(kind, m)


def test_graph_requires_connectivity():
    with pytest.raises(ValueError):
        Graph(4, frozenset(((0, 1), (2, 3))))


def test_metropolis_ring_four_matrix():
    w = _ring(4)
    third = 1.0 / 3.0
    expected = np.array(
        [
            [third, third, 0.0, third],
            [third, third, third, 0.0],
            [0.0, third, third, third],
            [third, 0.0, third, third],
        ]
    )
    # diagonal entries absorb rounding, so only they may differ in the last ulp
    assert np.allclose(w.entries, expected, atol=1e-15)
    assert abs(w.lambda2 - third) < 1e-12
    assert abs(w.theta - 2.0 * third) < 1e-12
    assert not w.psd_flag


def test_metropolis_complete_two_matrix():
    w = metropolis_mixing(build_graph("complete", 2))
    assert w.entries.tolist() == [[0.5, 0.5], [0.5, 0.5]]
    assert w.theta == 1.0


def test_metropolis_ring_sixteen_gap():
    w = _ring(16)
    analytic = 1.0 / 3.0 + 2.0 / 3.0 * math.cos(2.0 * math.pi / 16.0)
    assert abs(w.lambda2 - 0.949253021674191) < 1e-12
    assert abs(w.lambda2 - analytic) < 1e-12


def test_metropolis_star_five_values():
    w = metropolis_mixing(build_graph("star", 5))
    assert abs(w.entries[0, 1] - 0.2) < 1e-15
    assert abs(w.entries[1, 1] - 0.8) < 1e-15
    assert abs(w.lambda2 - 0.8) < 1e-12


def test_lazify_halves_the_gap_and_turns_psd():
    w = _ring(4)
    lazy = lazify(w)
    assert lazy.psd_flag
    assert abs(lazy.lambda2 - (1.0 + w.lambda2) / 2.0) < 1e-12
    evals = np.linalg.eigvalsh(lazy.entries)
    assert evals.min() >= -1e-12


def test_spectral_gap_single_agent_convention():
    w = metropolis_mixing(build_graph("ring", 1))
    assert (w.lambda2, w.theta) == (0.0, 1.0)


def test_spectral_gap_rejects_non_doubly_stochastic():
    bad = np.array([[0.9, 0.0], [0.0, 0.9]])
    with pytest.raises(ValueError):
        MixingMatrix(entries=bad, lambda2=0.9, theta=0.1, psd_flag=True)


def test_apply_mixing_preserves_column_means():
    w = _ring(8)
    rng = np.random.default_rng(3)
    x = rng.standard_normal((8, 5))
    mixed = w.apply(x)
    assert np.abs(mixed.mean(axis=0) - x.mean(axis=0)).max() < 1e-12


def test_apply_mixing_rejects_shape_mismatch():
    w = _ring(8)
    with pytest.raises(ValueError):
        w.apply(np.zeros((7, 2)))


def test_mixing_contracts_consensus_error():
    # PSD lazy matrix: ||Pi W x|| <= lambda2 ||Pi x|| for every input
    lazy = lazify(_ring(8))
    rng = np.random.default_rng(11)
    for _ in range(100):
        x = rng.standard_normal((8, 3))
        centered = x - x.mean(axis=0)
        mixed = lazy.apply(x)
        centered_mixed = mixed - mixed.mean(axis=0)
        bound = lazy.lambda2 * np.linalg.norm(centered)
        assert np.linalg.norm(centered_mixed) <= bound * (1.0 + 1e-12)


def test_default_gamma_values():
    assert default_gamma(0.0) == 0.0
    assert abs(default_gamma(0.75) - 1.0 / 3.0) < 1e-15
    assert abs(default_gamma(1.0 / 3.0) - 0.10102051443364381) < 1e-15


def test_default_gamma_monotone_and_bounded():
    grid = np.linspace(0.0, 0.999, 200)
    values = [default_gamma(v) for v in grid]
    assert all(b > a for a, b in zip(values, values[1:]))
    assert all(0.0 <= v < 1.0 for v in values)


@pytest.mark.parametrize("lam", [-0.1, 1.0, 1.5])
def test_default_gamma_rejects_out_of_range(lam):
    with pytest.raises(ValueError):
        default_gamma(lam)


def test_chebyshev_augment_requires_psd_base():
    with pytest.raises(ValueError):
        chebyshev_augment(_ring(4), 0.2)


def test_chebyshev_augment_gamma_zero_reduces_to_base():
    lazy = lazify(_ring(4))
    aug = chebyshev_augment(lazy, 0.0)
    rng = np.random.default_rng(5)
    top = rng.standard_normal((4, 2))
    bot = rng.standard_normal((4, 2))
    mixed = aug.apply(np.vstack([top, bot]))
    assert np.array_equal(mixed[:4], lazy.entries @ top)
    assert np.array_equal(mixed[4:], top)


def test_chebyshev_augment_matches_matrix_form():
    lazy = lazify(_ring(8))
    aug = chebyshev_augment(lazy, default_gamma(lazy.lambda2))
    rng = np.random.default_rng(9)
    stacked = rng.standard_normal((16, 3))
    assert np.allclose(aug.apply(stacked), aug.as_matrix() @ stacked, atol=1e-13)


def test_chebyshev_contraction_bound_small_ring():
    lazy = lazify(_ring(8))
    aug = chebyshev_augment(lazy, default_gamma(lazy.lambda2))
    decay = 1.0 - aug.theta_tilde
    rng = np.random.default_rng(17)
    for _ in range(5):
        x = rng.standard_normal((8, 2))
        start = np.linalg.norm(x - x.mean(axis=0))
        z = np.vstack([x, x])
        for t in range(1, 101):
            z = aug.apply(z)
            centered = z - np.tile(z.reshape(2, 8, 2).mean(axis=(0, 1)), (16, 1))
            bound = math.sqrt(MOMENTUM_ENVELOPE) * decay**t * start
            assert np.linalg.norm(centered) <= bound * (1.0 + 1e-9)


def test_chebyshev_fit_frozen_ring_thirty_two():
    lazy = lazify(_ring(32))
    assert abs(lazy.lambda2 - 0.9935950934677437) < 1e-12
    gamma = default_gamma(lazy.lambda2)
    assert abs(gamma - 0.8517992814111414) < 1e-12
    aug = chebyshev_augment(lazy, gamma)
    assert abs(aug.theta_tilde - 0.06735118434617793) < 1e-12


def test_gossip_single_edge_matrix():
    path = Graph(3, frozenset(((0, 1), (1, 2))))
    rng = np.random.default_rng(0)
    draw = random_edge_gossip(path, rng)
    # the seeded stream picks edge (1, 2) first
    assert draw == EdgeGossip(1, 2)
    assert draw.apply(np.eye(3)).tolist() == [[1.0, 0.0, 0.0], [0.0, 0.5, 0.5], [0.0, 0.5, 0.5]]
    _, theta = gossip_contraction(path)
    assert abs(theta - (1.0 - math.sqrt(3.0) / 2.0)) < 1e-12


def _edge_matrix(m: int, i: int, j: int) -> np.ndarray:
    w = np.eye(m)
    w[i, i] = w[j, j] = w[i, j] = w[j, i] = 0.5
    return w


def _wide_rows(rng: np.random.Generator, m: int) -> np.ndarray:
    """Rows of mixed sign spanning magnitudes 1e-8 to 1e8."""
    return rng.standard_normal((m, 2)) * 10.0 ** rng.uniform(-8.0, 8.0, (m, 1))


@pytest.mark.parametrize("m", [3, 8])
def test_edge_gossip_equals_dense_single_edge_product_on_every_edge(m):
    rng = np.random.default_rng(m)
    for i, j in build_graph("ring", m).edge_list():
        x = _wide_rows(rng, m)
        assert EdgeGossip(i, j).apply(x).tobytes() == (_edge_matrix(m, i, j) @ x).tobytes()


def test_edge_gossip_equals_dense_product_on_large_ring_draws():
    m = 1024
    graph = build_graph("ring", m)
    rng = np.random.default_rng(31)
    for _ in range(50):
        draw = random_edge_gossip(graph, rng)
        x = _wide_rows(rng, m)
        dense = _edge_matrix(m, draw.i, draw.j) @ x
        assert draw.apply(x).tobytes() == dense.tobytes()


def test_gossip_family_gap_frozen_ring_eight():
    lam, theta = gossip_contraction(build_graph("ring", 8))
    assert abs(lam - 0.981523482983631) < 1e-12
    assert abs(theta - 0.018476517016368987) < 1e-12


def test_gossip_empirical_contraction_matches_family_gap():
    graph = build_graph("ring", 8)
    lam, _ = gossip_contraction(graph)
    rng = np.random.default_rng(23)
    x = rng.standard_normal((8, 1))
    x -= x.mean(axis=0)
    x /= np.linalg.norm(x)
    total = 0.0
    draws = 10000
    for _ in range(draws):
        mixed = random_edge_gossip(graph, rng).apply(x)
        centered = mixed - mixed.mean(axis=0)
        total += float(centered.ravel() @ centered.ravel())
    # single-edge averaging is idempotent, so the mean energy after one draw
    # is x' E[W] x <= lambda2 of the expected matrix
    assert total / draws <= lam + 0.02


def test_augmented_mixing_is_frozen():
    lazy = lazify(_ring(4))
    aug = chebyshev_augment(lazy, 0.1)
    assert isinstance(aug, AugmentedMixing)
    with pytest.raises(AttributeError):
        aug.gamma = 0.5
