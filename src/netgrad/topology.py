"""Communication graphs, mixing operators, and spectral quantities.

This module builds the network side of the simulator: undirected communication
graphs, symmetric doubly stochastic mixing matrices (Metropolis weights and
their lazy variants), single-edge random gossip, and the momentum-augmented
mixing operator that accelerates consensus. Spectral quantities come from a
full symmetric eigendecomposition of small dense matrices.

Conventions:
    * Every mixing operator acts on row-stacked agent states through one
      method, ``apply(x)``: a :class:`MixingMatrix` returns ``W @ x`` for
      ``x`` of shape ``(m, d)``; an :class:`EdgeGossip` draw averages the two
      rows of its edge, bit for bit what the dense single-edge matrix gives,
      without forming it; an :class:`AugmentedMixing` acts on ``(2m, d)``
      duplicated block vectors.
    * The contraction parameter ``theta`` is ``1 - lambda2`` where ``lambda2``
      is the largest magnitude among the non-unit eigenvalues. For the random
      gossip family, ``lambda2`` and ``theta`` describe the expected one-step
      contraction of the whole family rather than a single draw; see
      :func:`gossip_contraction`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

__all__ = [
    "MOMENTUM_ENVELOPE",
    "Graph",
    "MixingMatrix",
    "EdgeGossip",
    "AugmentedMixing",
    "build_graph",
    "metropolis_mixing",
    "lazify",
    "random_edge_gossip",
    "gossip_contraction",
    "default_gamma",
    "chebyshev_augment",
]

#: Squared envelope constant for the momentum-augmented consensus bound: the
#: augmented chain started from a duplicated block vector satisfies
#: ``|augmented deviation at step t| <= sqrt(14) * (1 - theta_tilde)**t *
#: |initial base deviation|``.
MOMENTUM_ENVELOPE: float = 14.0

_ROW_SUM_TOL = 1e-10
_SYMMETRY_TOL = 1e-12
_PSD_TOL = 1e-10


@dataclass(frozen=True)
class Graph:
    """Undirected connected communication graph on ``m`` agents.

    Edges are stored as a frozenset of ``(i, j)`` tuples with ``i < j``.
    Construction validates index ranges, rejects self-loops, and requires
    connectivity.
    """

    m: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError(f"graph needs at least one agent, got m={self.m}")
        for i, j in self.edges:
            if not (0 <= i < j < self.m):
                raise ValueError(f"edge ({i}, {j}) invalid for m={self.m}")
        if not self._connected():
            raise ValueError("graph is not connected")

    def _connected(self) -> bool:
        if self.m == 1:
            return True
        adjacency: list[list[int]] = [[] for _ in range(self.m)]
        for i, j in self.edges:
            adjacency[i].append(j)
            adjacency[j].append(i)
        seen = {0}
        stack = [0]
        while stack:
            node = stack.pop()
            for other in adjacency[node]:
                if other not in seen:
                    seen.add(other)
                    stack.append(other)
        return len(seen) == self.m

    def degrees(self) -> np.ndarray:
        """Return the integer degree of every agent."""
        deg = np.zeros(self.m, dtype=np.int64)
        for i, j in self.edges:
            deg[i] += 1
            deg[j] += 1
        return deg

    def edge_list(self) -> list[tuple[int, int]]:
        """Return the edges in sorted order (deterministic indexing)."""
        return sorted(self.edges)


@dataclass(frozen=True)
class MixingMatrix:
    """Symmetric doubly stochastic mixing matrix with cached spectra.

    Attributes:
        entries: Dense ``(m, m)`` weight matrix, entries in ``[0, 1]``,
            exactly symmetric, rows and columns summing to one.
        lambda2: Largest magnitude among the non-unit eigenvalues. For a
            random gossip draw this is the family value
            ``sqrt(lambda2(E[W^T W]))`` shared by every draw.
        theta: Spectral gap ``1 - lambda2``; always in ``(0, 1]``.
        psd_flag: True when the matrix is positive semidefinite (up to a
            ``1e-10`` eigenvalue tolerance).
    """

    entries: np.ndarray
    lambda2: float
    theta: float
    psd_flag: bool

    def __post_init__(self) -> None:
        w = np.asarray(self.entries, dtype=np.float64)
        object.__setattr__(self, "entries", w)
        w.setflags(write=False)
        _validate_mixing_entries(w)
        if not (0.0 < self.theta <= 1.0):
            raise ValueError(f"spectral gap theta={self.theta} outside (0, 1]")

    @property
    def m(self) -> int:
        return self.entries.shape[0]

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Mix row-stacked agent states: returns ``W @ x``.

        Preserves the column means of ``x`` up to floating point roundoff
        because the weights are column stochastic.
        """
        return self.entries @ x


def _validate_mixing_entries(w: np.ndarray) -> None:
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ValueError(f"mixing matrix must be square, got shape {w.shape}")
    asym = float(np.max(np.abs(w - w.T))) if w.size else 0.0
    if asym > _SYMMETRY_TOL:
        raise ValueError(f"mixing matrix asymmetry {asym:.3e} exceeds {_SYMMETRY_TOL}")
    row_dev = float(np.max(np.abs(w.sum(axis=1) - 1.0)))
    if row_dev > _ROW_SUM_TOL:
        raise ValueError(f"row sums deviate from one by {row_dev:.3e}")
    if float(w.min()) < -1e-12 or float(w.max()) > 1.0 + 1e-12:
        raise ValueError("mixing weights must lie in [0, 1]")


def build_graph(kind: str, m: int) -> Graph:
    """Construct a named communication topology.

    Args:
        kind: One of ``ring``, ``grid``, ``star``, ``complete``. ``grid`` is
            the square lattice and requires ``m`` to be a perfect square.
        m: Number of agents, at least one.

    Returns:
        The connected :class:`Graph`.

    Raises:
        ValueError: Unknown kind, non-positive ``m``, or a grid size that is
            not a perfect square.
    """
    if m < 1:
        raise ValueError(f"need at least one agent, got m={m}")
    edges: set[tuple[int, int]] = set()
    if kind == "ring":
        for i in range(m):
            j = (i + 1) % m
            if i != j:
                edges.add((min(i, j), max(i, j)))
    elif kind == "complete":
        for i in range(m):
            for j in range(i + 1, m):
                edges.add((i, j))
    elif kind == "star":
        for i in range(1, m):
            edges.add((0, i))
    elif kind == "grid":
        side = math.isqrt(m)
        if side * side != m:
            raise ValueError(f"grid topology needs a perfect square, got m={m}")
        for r in range(side):
            for c in range(side):
                node = r * side + c
                if c + 1 < side:
                    edges.add((node, node + 1))
                if r + 1 < side:
                    edges.add((node, node + side))
    else:
        raise ValueError(f"unknown topology kind '{kind}'")
    return Graph(m=m, edges=frozenset(edges))


def _symmetric_spectrum(w: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a symmetric matrix."""
    return np.linalg.eigvalsh(w)


def _gap_from_spectrum(evals: np.ndarray) -> tuple[float, float]:
    """Second-largest magnitude and gap, dropping the single unit eigenvalue."""
    if evals.size <= 1:
        return 0.0, 1.0
    rest = evals[:-1]
    lambda2 = float(np.max(np.abs(rest)))
    lambda2 = min(max(lambda2, 0.0), 1.0)
    theta = 1.0 - lambda2
    return lambda2, theta


def _finalize(entries: np.ndarray) -> MixingMatrix:
    """Validate entries, compute spectra, and wrap in a MixingMatrix."""
    _validate_mixing_entries(entries)
    if entries.shape[0] == 1:
        return MixingMatrix(entries=entries, lambda2=0.0, theta=1.0, psd_flag=True)
    evals = _symmetric_spectrum(entries)
    lambda2, theta = _gap_from_spectrum(evals)
    if theta <= 0.0:
        raise ValueError("matrix does not contract: second eigenvalue magnitude is one")
    psd = bool(evals[0] >= -_PSD_TOL)
    return MixingMatrix(entries=entries, lambda2=lambda2, theta=theta, psd_flag=psd)


def metropolis_mixing(graph: Graph) -> MixingMatrix:
    """Metropolis-Hastings weights for a connected graph.

    Each edge ``(i, j)`` receives weight ``1 / (1 + max(deg_i, deg_j))`` and
    the diagonal absorbs the remainder, which yields an exactly symmetric
    doubly stochastic matrix.
    """
    m = graph.m
    deg = graph.degrees()
    w = np.zeros((m, m), dtype=np.float64)
    for i, j in graph.edge_list():
        weight = 1.0 / (1.0 + float(max(deg[i], deg[j])))
        w[i, j] = weight
        w[j, i] = weight
    off_row_sums = w.sum(axis=1)
    for i in range(m):
        w[i, i] = 1.0 - off_row_sums[i]
    return _finalize(w)


def lazify(w: MixingMatrix) -> MixingMatrix:
    """Return the lazy half-step matrix ``(I + W) / 2``.

    The result is positive semidefinite because every eigenvalue maps to
    ``(1 + eig) / 2`` and eigenvalues of a symmetric doubly stochastic matrix
    lie in ``[-1, 1]``.
    """
    m = w.m
    lazy = 0.5 * (np.eye(m) + w.entries)
    lazy = 0.5 * (lazy + lazy.T)
    return _finalize(lazy)


@lru_cache(maxsize=64)
def _gossip_family(graph: Graph) -> tuple[float, float]:
    """Family contraction parameters for single-edge gossip on ``graph``.

    Enumerates every edge exactly. A single gossip draw for edge ``(i, j)``
    is the projection ``I - (1/2)(e_i - e_j)(e_i - e_j)^T``; each draw is
    idempotent, so the expected squared-contraction matrix ``E[W^T W]``
    equals the plain edge average ``E[W]``. The family value is
    ``theta_eff = 1 - sqrt(lambda2(E[W^T W]))``.
    """
    m = graph.m
    edges = graph.edge_list()
    if not edges:
        raise ValueError("random gossip needs at least one edge")
    mean_w = np.eye(m)
    scale = 0.5 / len(edges)
    for i, j in edges:
        mean_w[i, i] -= scale
        mean_w[j, j] -= scale
        mean_w[i, j] += scale
        mean_w[j, i] += scale
    evals = _symmetric_spectrum(mean_w)
    lambda2_mean, _ = _gap_from_spectrum(evals)
    lambda2_eff = math.sqrt(max(lambda2_mean, 0.0))
    theta_eff = 1.0 - lambda2_eff
    if theta_eff <= 0.0:
        raise ValueError("gossip family does not contract on this graph")
    return lambda2_eff, theta_eff


def gossip_contraction(graph: Graph) -> tuple[float, float]:
    """Return ``(lambda2_eff, theta_eff)`` for the single-edge gossip family."""
    return _gossip_family(graph)


@dataclass(frozen=True)
class EdgeGossip:
    """One single-edge gossip draw: agents ``i`` and ``j`` average their states.

    Acts like the dense matrix ``W = I - (1/2)(e_i - e_j)(e_i - e_j)^T``
    without forming it. The draw alone does not contract (it fixes every
    agent off the edge); step-size rules use the family values from
    :func:`gossip_contraction`.
    """

    i: int
    j: int

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Return a copy of ``x`` with rows ``i`` and ``j`` replaced by their average.

        Written as ``0.5 * x[i] + 0.5 * x[j]`` so that it equals the dense
        product ``W @ x`` bit for bit on finite inputs above the subnormal
        range: halving them is exact, so both round the sum once.
        """
        out = x.copy()
        avg = 0.5 * x[self.i] + 0.5 * x[self.j]
        out[self.i] = avg
        out[self.j] = avg
        return out


@lru_cache(maxsize=64)
def _sorted_edges(graph: Graph) -> tuple[tuple[int, int], ...]:
    """The graph's edge list, sorted once per graph rather than once per draw."""
    return tuple(graph.edge_list())


def random_edge_gossip(graph: Graph, rng: np.random.Generator) -> EdgeGossip:
    """Draw one uniform single-edge gossip operator.

    Makes one ``rng.integers(len(edges))`` draw over the sorted edge list.
    """
    edges = _sorted_edges(graph)
    i, j = edges[int(rng.integers(len(edges)))]
    return EdgeGossip(i, j)


def default_gamma(lambda2: float) -> float:
    """Momentum weight for the augmented operator as a function of ``lambda2``.

    Uses ``gamma = (1 - sqrt(1 - lambda2)) / (1 + sqrt(1 - lambda2))``, the
    critical damping choice for the two-step consensus recursion. Increases
    monotonically from 0 at ``lambda2 = 0`` toward 1 as ``lambda2`` approaches
    one.

    Raises:
        ValueError: When ``lambda2`` is outside ``[0, 1)``.
    """
    if not (0.0 <= lambda2 < 1.0):
        raise ValueError(f"lambda2 must lie in [0, 1), got {lambda2}")
    root = math.sqrt(1.0 - lambda2)
    return (1.0 - root) / (1.0 + root)


def _fitted_theta_tilde(base_evals: np.ndarray, gamma: float, horizon: int = 200) -> float:
    """Fitted decay exponent of the augmented chain on duplicated inputs.

    Every eigenvector ``v`` of the base matrix with non-unit eigenvalue
    ``lam`` spawns a two-dimensional mode of the augmented operator driven by
    ``[[lam * (1 + gamma), -lam * gamma], [1, 0]]``. Starting that recursion
    from the duplicated initial pair ``(1, 1)`` reproduces the action on a
    duplicated block vector ``[x; x]``. The fitted exponent is the smallest
    decay rate such that the envelope
    ``sqrt(MOMENTUM_ENVELOPE) * (1 - theta_tilde)**t`` dominates the worst
    mode at every step ``t`` in ``1..horizon``.
    """
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
        raise ValueError(
            f"augmented chain does not contract within {horizon} steps (gamma={gamma})"
        )
    return 1.0 - worst_rate


@dataclass(frozen=True)
class AugmentedMixing:
    """Momentum-augmented mixing operator on duplicated agent states.

    Acts on ``(2m, d)`` block vectors ``[top; bottom]`` as::

        top'    = (1 + gamma) * (W @ top) - gamma * (W @ bottom)
        bottom' = top

    Duplicated constant blocks are fixed points, and when both block sums
    agree they stay equal under the map.

    Attributes:
        base: The positive semidefinite base matrix ``W``.
        gamma: Momentum weight in ``[0, 1)``.
        theta_tilde: Fitted contraction exponent of the augmented chain on
            duplicated inputs (see :func:`chebyshev_augment`).
    """

    base: MixingMatrix
    gamma: float
    theta_tilde: float = field(default=0.0)

    @property
    def m(self) -> int:
        return self.base.m

    def apply(self, x_aug: np.ndarray) -> np.ndarray:
        """Apply the operator to a ``(2m, d)`` stacked block vector."""
        m = self.base.m
        x_aug = np.asarray(x_aug, dtype=np.float64)
        if x_aug.shape[0] != 2 * m:
            raise ValueError(f"augmented state needs {2 * m} rows, got {x_aug.shape[0]}")
        top = x_aug[:m]
        bottom = x_aug[m:]
        mixed_top = self.base.entries @ top
        mixed_bottom = self.base.entries @ bottom
        new_top = (1.0 + self.gamma) * mixed_top - self.gamma * mixed_bottom
        return np.concatenate([new_top, top.copy()], axis=0)

    def as_matrix(self) -> np.ndarray:
        """Materialize the dense ``(2m, 2m)`` operator (diagnostics only)."""
        m = self.base.m
        w = self.base.entries
        out = np.zeros((2 * m, 2 * m))
        out[:m, :m] = (1.0 + self.gamma) * w
        out[:m, m:] = -self.gamma * w
        out[m:, :m] = np.eye(m)
        return out


def chebyshev_augment(w: MixingMatrix, gamma: float) -> AugmentedMixing:
    """Build the momentum-augmented operator for a positive semidefinite base.

    The fitted contraction exponent ``theta_tilde`` is computed eagerly from
    the eigenvalues of ``w`` so that schedules built on the augmented chain
    can use it directly. With ``gamma = 0`` the operator reduces to the base
    matrix acting on the top block while the bottom block trails one step.

    Raises:
        ValueError: When the base matrix is not flagged positive semidefinite
            or ``gamma`` lies outside ``[0, 1)``.
    """
    if not w.psd_flag:
        raise ValueError("augmented mixing requires a positive semidefinite base matrix")
    if not (0.0 <= gamma < 1.0):
        raise ValueError(f"gamma must lie in [0, 1), got {gamma}")
    evals = _symmetric_spectrum(w.entries)
    theta_tilde = _fitted_theta_tilde(evals, gamma)
    return AugmentedMixing(base=w, gamma=gamma, theta_tilde=theta_tilde)
