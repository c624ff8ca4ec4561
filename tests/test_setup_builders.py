"""The array-built set-up equals the loops it replaced, byte for byte.

``Graph.degrees``, ``metropolis_mixing`` and ``lazify`` once ran Python loops
over edges and rows, and the symmetry check formed ``W - W.T``. The loops
are kept below as the reference; every topology and size here must give the
same bytes, so no spectrum, step size or trace can move.
"""

from __future__ import annotations

import math
import tracemalloc
from functools import lru_cache

import numpy as np
import pytest

from netgrad import topology
from netgrad.harness import ExperimentConfig, prepare_run
from netgrad.topology import Graph, MixingMatrix, build_graph, lazify, metropolis_mixing

SIZES = (1, 2, 3, 4, 9, 16, 127, 128, 129, 256, 1024)
CASES = [
    (kind, m)
    for kind in ("ring", "grid", "star", "complete")
    for m in SIZES
    if kind != "grid" or math.isqrt(m) ** 2 == m
]


def _reference_degrees(graph: Graph) -> np.ndarray:
    deg = np.zeros(graph.m, dtype=np.int64)
    for i, j in graph.edges:
        deg[i] += 1
        deg[j] += 1
    return deg


def _reference_metropolis(graph: Graph) -> np.ndarray:
    m = graph.m
    deg = _reference_degrees(graph)
    w = np.zeros((m, m), dtype=np.float64)
    for i, j in graph.edge_list():
        weight = 1.0 / (1.0 + float(max(deg[i], deg[j])))
        w[i, j] = weight
        w[j, i] = weight
    off_row_sums = w.sum(axis=1)
    for i in range(m):
        w[i, i] = 1.0 - off_row_sums[i]
    return w


def _reference_lazy(entries: np.ndarray) -> np.ndarray:
    lazy = 0.5 * (np.eye(len(entries)) + entries)
    return 0.5 * (lazy + lazy.T)


@lru_cache(maxsize=None)
def _graph(kind: str, m: int) -> Graph:
    return build_graph(kind, m)


@lru_cache(maxsize=None)
def _reference(kind: str, m: int) -> np.ndarray:
    return _reference_metropolis(_graph(kind, m))


def _same_bytes(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("kind,m", CASES)
def test_builders_equal_the_reference_loops(kind, m):
    graph = _graph(kind, m)
    assert _same_bytes(graph.degrees(), _reference_degrees(graph))
    w = metropolis_mixing(graph)
    reference = _reference(kind, m)
    assert _same_bytes(w.entries, reference)
    assert w.asymmetry == 0.0
    assert _same_bytes(lazify(w).entries, _reference_lazy(reference))


def _perturbed_ring() -> np.ndarray:
    """A valid ring-16 matrix whose (0, 1) weight exceeds its mirror by ~1e-13."""
    entries = _reference("ring", 16).copy()
    entries[0, 1] += 1e-13
    entries[0, 0] -= 1e-13
    return entries


def _signed_zero_ring() -> np.ndarray:
    """Ring-16 Metropolis weights with every zero negative, one mirror left positive."""
    entries = _reference("ring", 16).copy()
    entries[entries == 0.0] = -0.0
    entries[5, 0] = 0.0
    return entries


@pytest.mark.parametrize("make", [_perturbed_ring, _signed_zero_ring])
def test_lazify_equals_the_reference_on_awkward_inputs(make):
    entries = make()
    w = MixingMatrix(entries)
    assert w.asymmetry == float(np.max(np.abs(entries - entries.T)))
    lazy = lazify(w)
    assert _same_bytes(lazy.entries, _reference_lazy(entries))
    assert lazy.asymmetry == 0.0


def test_the_perturbed_input_takes_the_symmetrising_branch():
    """``lazify`` symmetrises only a matrix with non-zero asymmetry; this one has it."""
    assert 5e-14 < MixingMatrix(_perturbed_ring()).asymmetry < 2e-13


@pytest.mark.parametrize("m", [1, 2, 5, 127, 128, 129, 255, 256, 257, 300])
def test_tiled_asymmetry_equals_the_whole_matrix_difference(m):
    rng = np.random.default_rng(m)
    w = rng.standard_normal((m, m))
    w += w.T
    w += rng.standard_normal((m, m)) * 1e-9
    assert topology._asymmetry(w) == float(np.max(np.abs(w - w.T)))
    exact = w + w.T
    assert topology._asymmetry(exact) == 0.0


@pytest.mark.filterwarnings("ignore:invalid value encountered in subtract")
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("at", [(0, 0), (3, 200)])
def test_tiled_asymmetry_propagates_a_non_finite_entry(value, at):
    w = np.zeros((300, 300))
    w[at] = value
    assert not math.isfinite(topology._asymmetry(w))


@pytest.mark.filterwarnings("ignore:invalid value encountered in subtract")
def test_non_finite_entries_are_rejected():
    with pytest.raises(ValueError, match="non-finite"):
        MixingMatrix(np.full((2, 2), np.nan))
    nan_entry = _reference("ring", 4).copy()
    nan_entry[0, 1] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        MixingMatrix(nan_entry)
    inf_entry = _reference("ring", 4).copy()
    inf_entry[2, 2] = np.inf
    with pytest.raises(ValueError, match="non-finite"):
        MixingMatrix(inf_entry)


@pytest.mark.parametrize(
    "algo,mixing,bound",
    [("assdsgt", "lazy-metropolis", 2.25), ("ssdsgt", "metropolis", 1.25)],
)
def test_large_ring_set_up_allocates_little_beyond_its_matrices(algo, mixing, bound):
    """Traced allocations of a ring-1024 ``prepare_run``, in units of one matrix.

    The lazy run holds the Metropolis matrix and its lazy matrix at once; the
    Metropolis run holds one. Everything else is tile-sized or smaller.
    """
    m = 1024
    cfg = ExperimentConfig(topology="ring", agents=m, algo=algo, mixing=mixing, iters=10)
    tracemalloc.start()
    try:
        prepare_run(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= bound * m * m * 8
