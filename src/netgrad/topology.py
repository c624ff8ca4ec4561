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
      method, ``apply(x, out=None)``: a :class:`MixingMatrix` returns
      ``W @ x`` for ``x`` of shape ``(m, d)``; an :class:`EdgeGossip` draw
      averages the two rows of its edge, bit for bit what the dense
      single-edge matrix gives, without forming it; an
      :class:`AugmentedMixing` acts on ``(2m, d)`` duplicated block vectors.
      ``apply`` also takes leading batch axes, ``(..., rows, d)``, and mixes
      every slice as a separate call would, bit for bit, so an iteration
      mixes its iterate and tracker in one call. ``out``, when given, is an
      array shaped like ``x`` that receives the result (and is returned);
      it must not overlap ``x``.
    * The augmented ``apply`` runs through an :class:`AugmentedWorkspace`:
      the input, the products, the scale weights and the two addends of the
      result, with every view of them built once. A caller that applies
      the operator on every step (the momentum iteration) builds one
      workspace per run, writes its input into the workspace and passes
      it; any other input is checked, converted and copied into a fresh
      workspace, so every apply runs the same tail: one product, one
      multiply, one copy and one add.
    * The augmented ``apply`` can carry one base product from a call to the
      next. Its new bottom block is a copy of the old top block, so on a
      chain ``z = aug.apply(z, ...)`` the next call's ``W @ bottom`` is the
      ``W @ top`` the last call computed from the same bits. With ``reuse``
      the operator takes that product from the workspace the two calls
      share, and three of the four ``(m, d)`` products remain. The caller
      only says whether the chain held: the iteration breaks it when the
      snapshot coin fires and adds a correction to the momentum tracker.
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

import numpy as np

__all__ = [
    "MOMENTUM_ENVELOPE",
    "Graph",
    "MixingMatrix",
    "EdgeGossip",
    "AugmentedMixing",
    "AugmentedWorkspace",
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
    connectivity. Every reader of the edges takes them in the one sorted
    order the graph computes once and keeps, as a read-only index array.
    """

    m: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError(f"graph needs at least one agent, got m={self.m}")
        adjacency: list[list[int]] = [[] for _ in range(self.m)]
        for i, j in self.edges:
            if not (0 <= i < j < self.m):
                raise ValueError(f"edge ({i}, {j}) invalid for m={self.m}")
            adjacency[i].append(j)
            adjacency[j].append(i)
        seen = {0}
        stack = [0]
        while stack:
            for other in adjacency[stack.pop()]:
                if other not in seen:
                    seen.add(other)
                    stack.append(other)
        if len(seen) != self.m:
            raise ValueError("graph is not connected")

    @cached_property
    def _edge_array(self) -> np.ndarray:
        """The edges as a read-only ``(edges, 2)`` array in sorted order.

        Sorting the keys ``i * m + j`` orders the pairs as ``sorted(edges)``
        does, at a fraction of its cost on dense graphs.
        """
        m = self.m
        keys = np.fromiter((i * m + j for i, j in self.edges), dtype=np.int64, count=len(self.edges))
        keys.sort()
        ends = np.stack(np.divmod(keys, m), axis=1)
        ends.setflags(write=False)
        return ends

    def degrees(self) -> np.ndarray:
        """Return the integer degree of every agent."""
        return np.bincount(self._edge_array.ravel(), minlength=self.m)


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

    def apply(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Mix row-stacked agent states: returns ``W @ x``, written to ``out`` when given.

        ``x`` has shape ``(..., m, d)``; each slice is mixed as ``W @ x[k]``
        alone would be. Preserves the column means of ``x`` up to floating
        point roundoff because the weights are column stochastic.
        """
        return np.matmul(self.entries, x, out=out)


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
    lambda2 = min(lambda2, 1.0)
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
    i, j = graph._edge_array.T
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

    The cache is keyed by the graph's value (``m`` and the edge set), not
    by the instance: every run builds a new :class:`Graph`, so only a cache
    shared across instances spares a later run on the same network (another
    seed or pass) the decomposition. A ring-1024 gossip run's set-up takes
    about 1 ms with the cache warm and 43 ms without it (2-core AMD EPYC,
    one OpenBLAS thread).
    """
    edges = graph._edge_array
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
    lambda2_eff = math.sqrt(lambda2_mean)
    theta_eff = 1.0 - lambda2_eff
    if theta_eff <= 0.0:
        raise ValueError("gossip family does not contract on this graph")
    return lambda2_eff, theta_eff


@dataclass(frozen=True)
class EdgeGossip:
    """One single-edge gossip draw: agents ``i < j`` average their states.

    Acts like the dense matrix ``W = I - (1/2)(e_i - e_j)(e_i - e_j)^T``
    without forming it. The draw alone does not contract (it fixes every
    agent off the edge); step-size rules use the family values from
    :func:`gossip_contraction`.
    """

    i: int
    j: int

    def __post_init__(self) -> None:
        if not 0 <= self.i < self.j:
            raise ValueError(f"an edge needs 0 <= i < j, got i={self.i}, j={self.j}")

    def apply(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Return ``x`` with rows ``i`` and ``j`` replaced by their average, in ``out`` when given.

        Rows are the second-to-last axis of ``x``, so leading batch axes are
        mixed slice by slice. Written as ``0.5 * x[i] + 0.5 * x[j]`` so that
        it equals the dense product ``W @ x`` bit for bit on finite inputs
        above the subnormal range: halving them is exact, so both round the
        sum once. The other rows are copied.
        """
        if out is None:
            out = x.copy()
        else:
            np.copyto(out, x)
        avg = 0.5 * x[..., self.i, :] + 0.5 * x[..., self.j, :]
        out[..., self.i, :] = avg
        out[..., self.j, :] = avg
        return out


def random_edge_gossip(graph: Graph, rng: np.random.Generator) -> EdgeGossip:
    """Draw one uniform single-edge gossip operator.

    Makes one ``rng.integers(len(edges))`` draw, an index into the graph's
    sorted edge array.
    """
    edges = graph._edge_array
    i, j = edges[int(rng.integers(len(edges)))].tolist()
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

    An operator is built from ``base`` and ``gamma`` alone; ``theta_tilde``
    is derived from them at construction and cannot be set.

    Attributes:
        base: The positive semidefinite base matrix ``W``.
        gamma: Momentum weight in ``[0, 1)``.
        theta_tilde: Fitted contraction exponent of the augmented chain on
            duplicated inputs, computed from the eigenvalues ``base`` keeps
            (decomposing it only if nothing has read its spectrum yet).

    Raises:
        ValueError: When ``base`` is not flagged positive semidefinite or
            ``gamma`` lies outside ``[0, 1)``.
    """

    base: MixingMatrix
    gamma: float
    theta_tilde: float = field(init=False)

    def __post_init__(self) -> None:
        if not self.base.psd_flag:
            raise ValueError("augmented mixing requires a positive semidefinite base matrix")
        if not (0.0 <= self.gamma < 1.0):
            raise ValueError(f"gamma must lie in [0, 1), got {self.gamma}")
        object.__setattr__(self, "theta_tilde", _fitted_theta_tilde(self.base.eigenvalues, self.gamma))

    @property
    def m(self) -> int:
        return self.base.m

    def apply(
        self,
        x_aug: np.ndarray,
        out: np.ndarray | None = None,
        workspace: AugmentedWorkspace | None = None,
        reuse: bool = False,
    ) -> np.ndarray:
        """Apply the operator to ``(..., 2m, d)`` stacked block vectors.

        The blocks of every slice are mixed by one batched product with the
        base matrix; each slice comes out as a separate call would give it.
        One multiply scales the products by ``1 + gamma`` (top) and
        ``-gamma`` (bottom) into the workspace's two addends, and one add of
        the addends writes the result to ``out`` (a fresh array when it is
        not given). The new top block rounds exactly as ``(1 + gamma) * (W @
        top) - gamma * (W @ bottom)`` does: negating a product is exact, and
        subtracting is adding the negation. The new bottom block is the old
        top block plus ``-0.0``, which is the old top block bit for bit.

        With a ``workspace`` (an :class:`AugmentedWorkspace` built for this
        operator), ``x_aug`` must be the workspace's ``input``, which the
        caller has written. ``reuse`` says that the last slice's bottom
        block has the bits of the last top block of the previous call with
        the same workspace, as it does on a chain ``z = aug.apply(z, ...)``:
        that call's last top product is copied to the last block, and only
        the other blocks are multiplied. A batched product gives each slice the
        bits a lone product would, so the copied bits are the ones the
        multiplication would give. Without a workspace, ``x_aug`` is
        checked, converted and copied into a fresh one, and every block is
        multiplied.
        """
        if workspace is None:
            if reuse:
                raise ValueError("a reused product needs the workspace of the call before")
            x_aug = np.asarray(x_aug, dtype=np.float64)
            if x_aug.ndim < 2 or x_aug.shape[-2] != 2 * self.m:
                raise ValueError(f"augmented state needs {2 * self.m} rows, got shape {x_aug.shape}")
            workspace = AugmentedWorkspace(self, x_aug.shape)
            workspace.input[...] = x_aug
        elif x_aug is not workspace.input or workspace.op is not self:
            raise ValueError("a workspace mixes only its own input, through the operator that built it")
        w = self.base.entries
        if reuse:
            workspace.last[...] = workspace.previous
            np.matmul(w, workspace.head_blocks, out=workspace.head)
        else:
            np.matmul(w, workspace.blocks, out=workspace.mixed)
        np.multiply(workspace.product_halves, workspace.weights, out=workspace.scaled)
        workspace.first_bottom[...] = workspace.input_top
        return np.add(workspace.first, workspace.second, out=out)


class AugmentedWorkspace:
    """The arrays and views of one chain of augmented applies, built once.

    ``input`` is the ``(..., 2m, d)`` array the caller writes before each
    :meth:`AugmentedMixing.apply`, and ``products`` receives the unscaled
    base products ``W @ top`` and ``W @ bottom`` of every slice; they
    persist between calls, so one workspace carries a product along one
    chain. ``first`` and ``second`` are the two addends of the result,
    shaped like the input: the top blocks of ``first`` and ``second`` take
    ``1 + gamma`` and ``-gamma`` times the top and bottom products, the
    bottom blocks of ``first`` a copy of the input's top blocks, and the
    bottom blocks of ``second`` hold ``-0.0`` for good.

    The other attributes are fixed views: ``blocks`` and ``mixed`` are
    ``input`` and ``products`` as ``(-1, m, d)`` blocks, ``head_blocks`` and
    ``head`` all but their last block, ``last`` the last product block and
    ``previous`` the one before it (the last slice's top product, which a
    chained call carries); ``product_halves`` and ``input_top`` are the
    products and the input's top blocks as ``(-1, 2, m * d)`` and
    ``(-1, m * d)`` views, ``weights`` the ``(-1, 2, m * d)`` scale of each
    product, ``scaled`` the addends' top blocks in the layout of
    ``product_halves``, and ``first_bottom`` the bottom blocks of ``first``.
    """

    __slots__ = (
        "op", "input", "products", "first", "second", "blocks", "mixed", "head_blocks", "head",
        "last", "previous", "product_halves", "input_top", "weights", "scaled", "first_bottom",
    )

    def __init__(self, op: AugmentedMixing, shape: tuple[int, ...]) -> None:
        m, d = op.m, shape[-1]
        self.op = op
        self.input = np.empty(shape)
        self.products = np.empty(shape)
        halves = (self.input.size // (2 * m * d), 2, m * d)
        addends = np.empty((2, *halves))
        addends[1, :, 1] = -0.0
        self.first, self.second = addends[0].reshape(shape), addends[1].reshape(shape)
        self.blocks = self.input.reshape(-1, m, d)
        self.mixed = self.products.reshape(-1, m, d)
        self.head_blocks, self.head = self.blocks[:-1], self.mixed[:-1]
        self.last, self.previous = self.mixed[-1], self.mixed[-2]
        self.product_halves = self.products.reshape(halves)
        self.input_top = self.input.reshape(halves)[:, 0]
        self.weights = np.empty(halves)
        self.weights[:, 0] = 1.0 + op.gamma
        self.weights[:, 1] = -op.gamma
        self.scaled = addends[:, :, 0].swapaxes(0, 1)
        self.first_bottom = addends[0, :, 1]


def chebyshev_augment(w: MixingMatrix, gamma: float) -> AugmentedMixing:
    """Build the momentum-augmented operator for a positive semidefinite base.

    The operator's fitted contraction exponent ``theta_tilde`` is computed
    at construction, so schedules built on the augmented chain can use it
    directly. With ``gamma = 0`` the operator reduces to the base matrix
    acting on the top block while the bottom block trails one step.

    Raises:
        ValueError: When the base matrix is not flagged positive semidefinite
            or ``gamma`` lies outside ``[0, 1)``.
    """
    return AugmentedMixing(base=w, gamma=gamma)
