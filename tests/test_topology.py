from __future__ import annotations

import json
import math

import numpy as np
import pytest
from _one_thread import run_one_thread
from _reference import augmented_matrix

from netgrad import topology
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
    assert sorted(g.edges) == [(0, 1), (0, 2), (1, 2)]
    assert g.degrees().tolist() == [2, 2, 2]


def test_build_graph_ring_four():
    g = build_graph("ring", 4)
    assert sorted(g.edges) == [(0, 1), (0, 3), (1, 2), (2, 3)]
    assert g.degrees().tolist() == [2, 2, 2, 2]


def test_graph_keeps_one_sorted_edge_order():
    # Every edge reader takes the graph's one sorted order, which the graph
    # computes once and keeps as a read-only array.
    g = build_graph("grid", 16)
    ends = g._edge_array
    assert ends.tolist() == [list(edge) for edge in sorted(g.edges)]
    assert not ends.flags.writeable
    assert g._edge_array is ends
    assert g.degrees().tolist() == [sum(node in edge for edge in g.edges) for node in range(16)]


def test_build_graph_star_five():
    g = build_graph("star", 5)
    assert sorted(g.edges) == [(0, 1), (0, 2), (0, 3), (0, 4)]
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
        MixingMatrix(entries=bad)


def test_non_contracting_matrix_raises_when_its_spectrum_is_read():
    w = MixingMatrix(np.eye(2))
    with pytest.raises(ValueError, match="does not contract"):
        w.theta


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
    assert np.allclose(aug.apply(stacked), augmented_matrix(aug) @ stacked, atol=1e-13)


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


def test_gossip_draws_index_the_sorted_edges_one_integer_each():
    graph = build_graph("grid", 16)
    order = sorted(graph.edges)
    rng, twin = np.random.default_rng(5), np.random.default_rng(5)
    for _ in range(200):
        draw = random_edge_gossip(graph, rng)
        assert (draw.i, draw.j) == order[int(twin.integers(len(order)))]
        assert type(draw.i) is int and type(draw.j) is int
    assert rng.bit_generator.state == twin.bit_generator.state


@pytest.mark.parametrize("i, j", [(-1, 0), (1, 1), (2, 1)])
def test_edge_gossip_needs_an_edge_with_its_ends_in_order(i, j):
    # (-1, 0) would average the last row with the first; (1, 1) is no edge.
    with pytest.raises(ValueError, match=rf"^an edge needs 0 <= i < j, got i={i}, j={j}$"):
        EdgeGossip(i, j)


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
    for i, j in sorted(build_graph("ring", m).edges):
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
    with pytest.raises(TypeError):  # derived from base and gamma, never given
        AugmentedMixing(base=lazy, gamma=0.1, theta_tilde=0.5)


@pytest.mark.parametrize(
    "base, gamma, message",
    [
        (_ring(5), 0.2, r"^augmented mixing requires a positive semidefinite base matrix$"),
        (lazify(_ring(5)), 1.5, r"^gamma must lie in \[0, 1\), got 1\.5$"),
        (lazify(_ring(5)), float("nan"), r"^gamma must lie in \[0, 1\), got nan$"),
    ],
    ids=["non-psd-base", "gamma-above-1", "nan-gamma"],
)
def test_augmented_mixing_checks_its_inputs_when_built(base, gamma, message):
    with pytest.raises(ValueError, match=message):
        AugmentedMixing(base=base, gamma=gamma)


# --- spectra: computed once per matrix, on first read, and unchanged ---


def _kind_sizes(kind: str, sizes=(1, 2, 3, 8, 16, 64, 256, 1024)) -> list[int]:
    if kind == "grid":
        return [m for m in sizes if math.isqrt(m) ** 2 == m]
    return list(sizes)


def _reference_spectrum(entries: np.ndarray) -> tuple[float, float, bool]:
    """``(lambda2, theta, psd_flag)`` straight from a fresh decomposition."""
    evals = np.linalg.eigvalsh(entries)
    if evals.size <= 1:
        return 0.0, 1.0, True
    lambda2 = min(max(float(np.max(np.abs(evals[:-1]))), 0.0), 1.0)
    return lambda2, 1.0 - lambda2, bool(evals[0] >= -1e-10)


@pytest.mark.parametrize("kind", ["ring", "grid", "star", "complete"])
def test_spectral_fields_equal_a_fresh_decomposition(kind):
    for m in _kind_sizes(kind, (1, 2, 3, 8, 16, 64, 256)):
        plain = metropolis_mixing(build_graph(kind, m))
        for w in (plain, lazify(plain)):
            assert (w.lambda2, w.theta, w.psd_flag) == _reference_spectrum(w.entries)
            assert w.eigenvalues.tobytes() == np.linalg.eigvalsh(w.entries).tobytes()


_SPECTRAL_FIELDS_SCRIPT = """
import json
from netgrad.topology import build_graph, chebyshev_augment, default_gamma, lazify, metropolis_mixing
w = metropolis_mixing(build_graph("ring", 16))
lazy = lazify(metropolis_mixing(build_graph("ring", 256)))
aug = chebyshev_augment(lazy, default_gamma(lazy.lambda2))
star = lazify(metropolis_mixing(build_graph("star", 64)))
print(json.dumps([
    [w.lambda2.hex(), w.theta.hex(), w.psd_flag],
    [lazy.lambda2.hex(), lazy.theta.hex(), lazy.psd_flag],
    [aug.gamma.hex(), aug.theta_tilde.hex()],
    [star.lambda2.hex(), chebyshev_augment(star, default_gamma(star.lambda2)).theta_tilde.hex()],
]))
"""


def test_spectral_fields_frozen_values():
    # The last bits of an m=256 spectrum depend on the BLAS thread count, so
    # the pinned bit patterns are those of one OpenBLAS thread, the count
    # perfbench fixes; a fresh process is the only way to set it.
    done = run_one_thread(_SPECTRAL_FIELDS_SCRIPT, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == [
        ["0x1.e6047df7708d8p-1", "0x1.9fb82088f7280p-5", False],
        ["0x1.fff2d758199afp-1", "0x1.a514fccca2000p-14", True],
        ["0x1.f5d775de3252bp-1", "0x1.332d1639ad3c0p-7"],
        ["0x1.fc0000000001dp-1", "0x1.30e07d9e8b938p-4"],
    ]


def _count_calls(monkeypatch, name: str) -> list[int]:
    """Count the calls to ``topology.<name>`` made from now on."""
    calls = [0]
    original = getattr(topology, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(topology, name, counted)
    return calls


def test_mixing_matrix_decomposes_once_on_first_read(monkeypatch):
    spectra = _count_calls(monkeypatch, "_symmetric_spectrum")
    base = _ring(8)
    lazy = lazify(base)
    assert spectra[0] == 0
    for _ in range(2):
        assert (lazy.lambda2, lazy.theta, lazy.psd_flag) == _reference_spectrum(lazy.entries)
    chebyshev_augment(lazy, default_gamma(lazy.lambda2))
    assert spectra[0] == 1
    assert "eigenvalues" not in vars(base)
    with pytest.raises(ValueError):
        lazy.eigenvalues[0] = 0.0


def test_mixing_entries_are_validated_once_per_matrix(monkeypatch):
    checks = _count_calls(monkeypatch, "_validate_mixing_entries")
    base = _ring(8)
    assert checks[0] == 1
    lazy = lazify(base)
    assert checks[0] == 2
    lazy.theta
    chebyshev_augment(lazy, 0.3)
    assert checks[0] == 2


def _reference_fitted_theta_tilde(base_evals: np.ndarray, gamma: float, horizon: int = 200) -> float:
    """The per-mode scalar loop the vectorized fit must reproduce bit for bit."""
    rest = base_evals[:-1] if base_evals.size > 1 else base_evals[:0]
    half_log_envelope = 0.5 * math.log(MOMENTUM_ENVELOPE)
    worst_rate = 0.0
    for lam in np.asarray(rest, dtype=np.float64):
        a, b = 1.0, 1.0
        for t in range(1, horizon + 1):
            a, b = lam * ((1.0 + gamma) * a - gamma * b), a
            r = math.hypot(a, b)
            if r <= 0.0:
                continue
            rate = math.exp((math.log(r) - half_log_envelope) / t)
            if rate > worst_rate:
                worst_rate = rate
    if worst_rate >= 1.0:
        raise ValueError(f"augmented chain does not contract within {horizon} steps (gamma={gamma})")
    return 1.0 - worst_rate


def _fit_outcome(fit, evals: np.ndarray, gamma: float) -> str:
    try:
        return fit(evals, gamma).hex()
    except ValueError:
        return "raises"


@pytest.mark.parametrize("kind", ["ring", "grid", "star", "complete"])
def test_fitted_theta_tilde_equals_the_scalar_loop_bit_for_bit(kind):
    for m in _kind_sizes(kind):
        lazy = lazify(metropolis_mixing(build_graph(kind, m)))
        evals = np.linalg.eigvalsh(lazy.entries)
        for gamma in (default_gamma(lazy.lambda2), 0.0, 0.3, 0.9, 0.99):
            expected = _reference_fitted_theta_tilde(evals, gamma)
            assert chebyshev_augment(lazy, gamma).theta_tilde.hex() == expected.hex(), (m, gamma)


@pytest.mark.parametrize("float_path_modes", [0, 10**6])
def test_fitted_theta_tilde_equals_the_scalar_loop_on_signed_spectra(monkeypatch, float_path_modes):
    # plain Metropolis spectra reach down towards -1, where strong momentum
    # makes the chain grow instead of contract; every mode count runs once
    # through the array recursion and once through the float one
    monkeypatch.setattr(topology, "_FLOAT_PATH_MODES", float_path_modes)
    outcomes = []
    for kind in ("ring", "grid", "star", "complete"):
        for m in _kind_sizes(kind, (2, 3, 8, 16, 64)):
            evals = metropolis_mixing(build_graph(kind, m)).eigenvalues
            for gamma in (0.0, 0.3, 0.5, 0.9, 0.99):
                expected = _fit_outcome(_reference_fitted_theta_tilde, evals, gamma)
                assert _fit_outcome(topology._fitted_theta_tilde, evals, gamma) == expected
                outcomes.append(expected)
    assert "raises" in outcomes


def test_fitted_theta_tilde_raises_when_the_chain_does_not_contract():
    evals = metropolis_mixing(build_graph("grid", 16)).eigenvalues
    with pytest.raises(ValueError, match="does not contract"):
        topology._fitted_theta_tilde(evals, 0.9)
