"""Communication graphs, mixing operators, and spectral quantities.

This module builds the network side of the simulator: undirected communication
graphs, symmetric doubly stochastic mixing matrices (Metropolis weights and
their lazy variants), single-edge random gossip, and the momentum-augmented
mixing operator that accelerates consensus. Spectral quantities come from a
full symmetric eigendecomposition of small dense matrices. Each matrix computes
its spectrum once, the first time its eigenvalues, ``lambda2``, ``theta`` or
``psd_flag`` are read, and keeps it: a run decomposes only the matrices it
reads, and the augmented operator reuses its base matrix's eigenvalues.

Everything else a matrix's set-up does costs a few passes over its entries,
so at large ``m`` the decomposition dominates: the Metropolis weights are
scattered from edge arrays, the symmetry check compares cache-sized tiles
with their mirrors rather than forming ``W - W.T``, and :func:`lazify` writes
``(I + W) / 2`` into its one output array.

Conventions:
    * Every mixing operator acts on row-stacked agent states through one
      method, ``apply(x)``: a :class:`MixingMatrix` returns ``W @ x`` for
      ``x`` of shape ``(m, d)``; an :class:`EdgeGossip` draw averages the two
      rows of its edge, bit for bit what the dense single-edge matrix gives,
      without forming it; an :class:`AugmentedMixing` acts on ``(2m, d)``
      duplicated block vectors. ``apply`` also takes leading batch axes,
      ``(..., rows, d)``, and mixes every slice as a separate call would, bit
      for bit, so an iteration mixes its iterate and tracker in one call.
    * The augmented ``apply`` can reuse one base product. Its new bottom
      block is a copy of the old top block, so when nothing is added to the
      momentum tracker in between (the snapshot coin did not fire), the next
      iteration's ``W @ bottom`` is the ``W @ top`` already computed from the
      same bits. The iteration carries that product in its state and passes
      it back as ``trailing``; three of the four ``(m, d)`` products remain.
    * The contraction parameter ``theta`` is ``1 - lambda2`` where ``lambda2``
      is the largest magnitude among the non-unit eigenvalues. For the random
      gossip family, ``lambda2`` and ``theta`` describe the expected one-step
      contraction of the whole family rather than a single draw; see
      :func:`gossip_contraction`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import chain

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
#: Side of the square tiles the symmetry check compares with their mirrors: a
#: tile, its mirror and the difference buffer (3 x 128 KiB) stay in cache.
_SYMMETRY_TILE = 128
#: Relative window around the numpy-located maximum in which the fit of
#: ``theta_tilde`` evaluates the exact ``math`` functions; far wider than the
#: last-bit differences between the numpy and ``math`` versions.
_FIT_WINDOW = 1e-9
#: Largest mode count the fit steps as Python floats rather than as arrays.
_FLOAT_PATH_MODES = 32
#: Steps of the augmented chain over which the fit of ``theta_tilde`` bounds every mode.
_FIT_HORIZON = 200


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

    @cached_property
    def _endpoints(self) -> np.ndarray:
        """The edges as an ``(edges, 2)`` index array, in set order."""
        count = 2 * len(self.edges)
        flat = np.fromiter(chain.from_iterable(self.edges), dtype=np.int64, count=count)
        flat.setflags(write=False)
        return flat.reshape(-1, 2)

    def degrees(self) -> np.ndarray:
        """Return the integer degree of every agent."""
        return np.bincount(self._endpoints.ravel(), minlength=self.m)

    def edge_list(self) -> list[tuple[int, int]]:
        """Return the edges in sorted order (deterministic indexing)."""
        return sorted(self.edges)


@dataclass(frozen=True)
class MixingMatrix:
    """Symmetric doubly stochastic mixing matrix with a spectrum computed on demand.

    Construction validates the entries, once. The spectral attributes come
    from one symmetric eigendecomposition, made the first time any of them is
    read and kept on the instance; reading one raises ``ValueError`` when the
    matrix does not contract.

    Attributes:
        entries: Dense ``(m, m)`` weight matrix, entries in ``[0, 1]``,
            symmetric, rows and columns summing to one.
        asymmetry: ``max |W - W.T|`` as the validation measured it: at most
            ``1e-12``, and exactly zero for the Metropolis weights.
        eigenvalues: Ascending eigenvalues (read-only).
        lambda2: Largest magnitude among the non-unit eigenvalues.
        theta: Spectral gap ``1 - lambda2``; always in ``(0, 1]``.
        psd_flag: True when the matrix is positive semidefinite (up to a
            ``1e-10`` eigenvalue tolerance).
    """

    entries: np.ndarray
    asymmetry: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        w = np.asarray(self.entries, dtype=np.float64)
        object.__setattr__(self, "entries", w)
        w.setflags(write=False)
        object.__setattr__(self, "asymmetry", _validate_mixing_entries(w))

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        evals = _symmetric_spectrum(self.entries)
        evals.setflags(write=False)
        return evals

    @cached_property
    def _gap(self) -> tuple[float, float]:
        lambda2, theta = _gap_from_spectrum(self.eigenvalues)
        if theta <= 0.0:
            raise ValueError("matrix does not contract: second eigenvalue magnitude is one")
        return lambda2, theta

    @property
    def lambda2(self) -> float:
        return self._gap[0]

    @property
    def theta(self) -> float:
        return self._gap[1]

    @property
    def psd_flag(self) -> bool:
        return bool(self.eigenvalues[0] >= -_PSD_TOL)

    @property
    def m(self) -> int:
        return self.entries.shape[0]

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Mix row-stacked agent states: returns ``W @ x``.

        ``x`` has shape ``(..., m, d)``; each slice is mixed as ``W @ x[k]``
        alone would be. Preserves the column means of ``x`` up to floating
        point roundoff because the weights are column stochastic.
        """
        return self.entries @ x


def _validate_mixing_entries(w: np.ndarray) -> float:
    """Check a candidate mixing matrix and return its asymmetry ``max |W - W.T|``.

    Every bound is written ``not value <= bound``, so a NaN fails it. A
    non-finite entry makes the asymmetry NaN or infinite (its own diagonal
    difference or its mirror difference is), which is reported as such.
    """
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ValueError(f"mixing matrix must be square, got shape {w.shape}")
    asym = _asymmetry(w) if w.size else 0.0
    if not math.isfinite(asym):
        raise ValueError("mixing matrix has non-finite entries")
    if not asym <= _SYMMETRY_TOL:
        raise ValueError(f"mixing matrix asymmetry {asym:.3e} exceeds {_SYMMETRY_TOL}")
    row_dev = float(np.abs(w.sum(axis=1) - 1.0).max())
    if not row_dev <= _ROW_SUM_TOL:
        raise ValueError(f"row sums deviate from one by {row_dev:.3e}")
    if not (float(w.min()) >= -1e-12 and float(w.max()) <= 1.0 + 1e-12):
        raise ValueError("mixing weights must lie in [0, 1]")
    return asym


def _asymmetry(w: np.ndarray) -> float:
    """``max |W - W.T|`` of a non-empty square matrix, one tile pair at a time.

    ``|a - b|`` equals ``|b - a|`` exactly, so only the tiles on and above the
    diagonal are compared with the transposes of their mirrors; the result is
    the value ``np.max(np.abs(w - w.T))`` gives, NaN included, without an
    ``(m, m)`` temporary or a transposed pass over the whole matrix.
    """
    m, tile = len(w), _SYMMETRY_TILE
    scratch = np.empty(min(m, tile) ** 2)
    peak = 0.0
    for a in range(0, m, tile):
        for b in range(a, m, tile):
            block = w[a : a + tile, b : b + tile]
            diff = scratch[: block.size].reshape(block.shape)
            np.subtract(block, w[b : b + tile, a : a + tile].T, out=diff)
            tile_peak = float(np.abs(diff, out=diff).max())
            if not tile_peak <= peak:  # larger, or NaN
                peak = tile_peak
                if math.isnan(peak):
                    return peak
    return peak


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


def metropolis_mixing(graph: Graph) -> MixingMatrix:
    """Metropolis-Hastings weights for a connected graph.

    Each edge ``(i, j)`` receives weight ``1 / (1 + max(deg_i, deg_j))`` and
    the diagonal absorbs the remainder, one minus the row's off-diagonal sum,
    which yields an exactly symmetric doubly stochastic matrix. The weights
    are scattered from the edge arrays in one step.
    """
    m = graph.m
    deg = graph.degrees()
    i, j = graph._endpoints.T
    weight = 1.0 / (1.0 + np.maximum(deg[i], deg[j]))
    w = np.zeros((m, m), dtype=np.float64)
    w[i, j] = weight
    w[j, i] = weight
    np.fill_diagonal(w, 1.0 - w.sum(axis=1))
    return MixingMatrix(w)


def lazify(w: MixingMatrix) -> MixingMatrix:
    """Return the lazy half-step matrix ``(I + W) / 2``.

    The result is positive semidefinite because every eigenvalue maps to
    ``(1 + eig) / 2`` and eigenvalues of a symmetric doubly stochastic matrix
    lie in ``[-1, 1]``. Reads only ``w.entries`` and ``w.asymmetry``, so
    ``w``'s own spectrum is never computed on its behalf.

    The sum is formed in the one output array: adding ``0.0`` to every entry
    and then ``1.0`` to the diagonal rounds as ``I + W`` does (it also turns
    ``-0.0`` into ``0.0``), and halving follows. Halving the symmetrised
    ``(lazy + lazy.T)`` returns the same bits when ``W`` is exactly symmetric,
    so that pass runs only when ``w.asymmetry`` is not zero.
    """
    entries = w.entries
    lazy = np.add(entries, 0.0)
    diagonal = lazy.reshape(-1)[:: len(entries) + 1]
    diagonal += 1.0
    lazy *= 0.5
    if w.asymmetry != 0.0:
        lazy = 0.5 * (lazy + lazy.T)
    return MixingMatrix(lazy)


@lru_cache(maxsize=64)
def gossip_contraction(graph: Graph) -> tuple[float, float]:
    """Return ``(lambda2_eff, theta_eff)`` for the single-edge gossip family.

    Enumerates every edge exactly. A single gossip draw for edge ``(i, j)``
    is the projection ``I - (1/2)(e_i - e_j)(e_i - e_j)^T``; each draw is
    idempotent, so the expected squared-contraction matrix ``E[W^T W]``
    equals the plain edge average ``E[W]``. The family value is
    ``theta_eff = 1 - sqrt(lambda2(E[W^T W]))``.

    ``E[W]`` is built from the edge arrays; the diagonal subtracts
    ``1 / (2 |E|)`` once per incident edge, in sorted-edge order, as a loop
    over the edges would.
    """
    edges = np.array(graph.edge_list(), dtype=np.int64).reshape(-1, 2)
    if not len(edges):
        raise ValueError("random gossip needs at least one edge")
    mean_w = np.eye(graph.m)
    scale = 0.5 / len(edges)
    i, j = edges.T
    mean_w[i, j] = scale
    mean_w[j, i] = scale
    ends = edges.ravel()
    np.subtract.at(mean_w, (ends, ends), scale)
    evals = _symmetric_spectrum(mean_w)
    lambda2_mean, _ = _gap_from_spectrum(evals)
    lambda2_eff = math.sqrt(max(lambda2_mean, 0.0))
    theta_eff = 1.0 - lambda2_eff
    if theta_eff <= 0.0:
        raise ValueError("gossip family does not contract on this graph")
    return lambda2_eff, theta_eff


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

        Rows are the second-to-last axis of ``x``, so leading batch axes are
        mixed slice by slice. Written as ``0.5 * x[i] + 0.5 * x[j]`` so that
        it equals the dense product ``W @ x`` bit for bit on finite inputs
        above the subnormal range: halving them is exact, so both round the
        sum once.
        """
        out = x.copy()
        avg = 0.5 * x[..., self.i, :] + 0.5 * x[..., self.j, :]
        out[..., self.i, :] = avg
        out[..., self.j, :] = avg
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


def _mode_paths(lams: np.ndarray, gamma: float, horizon: int) -> np.ndarray:
    """Values of every augmented mode at steps ``-1..horizon``, one column each.

    Row ``t + 1`` holds step ``t`` of the recursion
    ``a_t = lam * ((1 + gamma) * a_{t-1} - gamma * a_{t-2})`` from the
    duplicated start ``a_{-1} = a_0 = 1``. Up to ``_FLOAT_PATH_MODES`` modes
    step faster as Python floats than through one numpy call per operation;
    both round every operation to the same double.
    """
    grow = 1.0 + gamma
    modes = np.ones((horizon + 2, lams.size))
    if lams.size <= _FLOAT_PATH_MODES:
        for k, lam in enumerate(lams.tolist()):
            a = b = 1.0
            path = []
            for _ in range(horizon):
                a, b = lam * (grow * a - gamma * b), a
                path.append(a)
            modes[2:, k] = path
        return modes
    scratch = np.empty(lams.size)
    for t in range(1, horizon + 1):
        np.multiply(grow, modes[t], out=scratch)
        scratch -= gamma * modes[t - 1]
        np.multiply(lams, scratch, out=modes[t + 1])
    return modes


def _fitted_theta_tilde(base_evals: np.ndarray, gamma: float) -> float:
    """Fitted decay exponent of the augmented chain on duplicated inputs.

    Every eigenvector ``v`` of the base matrix with non-unit eigenvalue
    ``lam`` spawns a two-dimensional mode of the augmented operator driven by
    ``[[lam * (1 + gamma), -lam * gamma], [1, 0]]``. Starting that recursion
    from the duplicated initial pair ``(1, 1)`` reproduces the action on a
    duplicated block vector ``[x; x]``. The fitted exponent is the smallest
    decay rate such that the envelope
    ``sqrt(MOMENTUM_ENVELOPE) * (1 - theta_tilde)**t`` dominates the worst
    mode at every step ``t`` from 1 to :data:`_FIT_HORIZON`: one minus the
    largest ``exp((log |mode_t| - log sqrt(MOMENTUM_ENVELOPE)) / t)``.

    The modes come from :func:`_mode_paths`, with the same floating point
    operations a per-mode scalar recursion makes, so every value is exact.
    numpy's ``hypot``, ``log`` and ``exp`` may differ from the ``math``
    versions in the last bit, so they only locate the maximum: the ``math``
    functions are evaluated on the steps and modes within a relative
    ``_FIT_WINDOW`` of it, which always include the true maximum, and the fit
    equals the all-``math`` scalar loop bit for bit.
    """
    half_log_envelope = 0.5 * math.log(MOMENTUM_ENVELOPE)
    horizon = _FIT_HORIZON
    modes = _mode_paths(np.asarray(base_evals[:-1], dtype=np.float64), gamma, horizon)
    radii = np.hypot(modes[2:], modes[1:-1])
    peaks = radii.max(axis=1, initial=0.0)
    with np.errstate(divide="ignore"):
        rates = np.exp((np.log(peaks) - half_log_envelope) / np.arange(1, horizon + 1))
    near = (rates >= rates.max() * (1.0 - _FIT_WINDOW)) & (peaks > 0.0)
    worst_rate = 0.0
    for step in np.flatnonzero(near).tolist():
        t = step + 1
        for i in np.flatnonzero(radii[step] >= peaks[step] * (1.0 - _FIT_WINDOW)).tolist():
            r = math.hypot(modes[t + 1, i], modes[t, i])
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
    theta_tilde: float

    @property
    def m(self) -> int:
        return self.base.m

    @cached_property
    def _block_weights(self) -> np.ndarray:
        """``1 + gamma`` and ``-gamma``, shaped to scale the two flattened mixed blocks."""
        return np.array([[1.0 + self.gamma], [-self.gamma]])

    def apply(
        self,
        x_aug: np.ndarray,
        trailing: np.ndarray | None = None,
        products: np.ndarray | None = None,
    ) -> np.ndarray:
        """Apply the operator to ``(..., 2m, d)`` stacked block vectors.

        The blocks of every slice are mixed by one batched product with the
        base matrix; each slice comes out as a separate call would give it.
        The new top block is the sum of the two scaled mixed blocks, written
        to a fresh output, which rounds exactly as
        ``(1 + gamma) * (W @ top) - gamma * (W @ bottom)`` does: negating a
        product is exact, and subtracting is adding the negation.

        ``trailing``, when given, is ``W @ bottom`` of the last slice, already
        computed by an earlier product of a block with the same bits; it is
        used in place of that product, so only the other blocks are
        multiplied. A batched product gives each slice the bits a lone
        product would, so the reused bits are the ones the multiplication
        would give. ``products``, when given, is a C-contiguous array shaped
        like ``x_aug`` that receives the unscaled products ``W @ top`` and
        ``W @ bottom`` of every slice (``trailing`` copied into its slot); the
        output is a separate array, so a caller can hold a view of one
        product for a later call. Plain ``apply(x_aug)`` multiplies every
        block.
        """
        w = self.base.entries
        m = len(w)
        x_aug = np.asarray(x_aug, dtype=np.float64)
        shape = x_aug.shape
        if shape[-2] != 2 * m:
            raise ValueError(f"augmented state needs {2 * m} rows, got {shape[-2]}")
        if products is None:
            products = np.empty(shape)
        blocks, mixed = x_aug.reshape(-1, m, shape[-1]), products.reshape(-1, m, shape[-1])
        if trailing is None:
            np.matmul(w, blocks, out=mixed)
        else:
            np.matmul(w, blocks[:-1], out=mixed[:-1])
            mixed[-1] = trailing
        # Elementwise work on (batch, 2, m * d) views: fewer axes, less overhead.
        halves = (-1, 2, m * shape[-1])
        flat = mixed.reshape(halves) * self._block_weights
        top = flat[:, 0]
        top += flat[:, 1]
        flat[:, 1] = x_aug.reshape(halves)[:, 0]
        return flat.reshape(shape)

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
    the eigenvalues ``w`` keeps (decomposing ``w`` only if nothing has read
    its spectrum yet) so that schedules built on the augmented chain
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
    theta_tilde = _fitted_theta_tilde(w.eigenvalues, gamma)
    return AugmentedMixing(base=w, gamma=gamma, theta_tilde=theta_tilde)
