"""Reference routes that only the tests use.

* The per-state step route the run's chunk buffer replaced: every step
  copies the stacked state, allocates its gradient rows, correction and
  products, draws its noise straight from the agent streams, mixes through
  the plain four-product augmented operator, and builds a new
  :class:`ReferenceState`. The buffer kernel must give every
  state of a run bit for bit as this route does.
* The dense augmented matrix, the objective value, the column mean, the
  vector norm, the consensus error, the snapshot gradient distance (through
  ``np.einsum`` and ``np.sum``) and the two Lyapunov combinations by their
  definitions, one value at a time, which the fused routes of the package
  are checked against.
* The trace CSV written through ``csv.writer``, one cell at a time, and
  read back through ``csv.reader`` and a per-row dict.
* The ``validate-mixing`` report built by its own chain of topology calls:
  graph, then Metropolis, then ``lazify`` or the gossip family, then the
  momentum operator. The command, which builds the network as a run does,
  must print these bytes.

Nothing here is imported by ``netgrad``.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

import numpy as np

from netgrad.algorithms import ALGORITHMS, Schedule
from netgrad.diagnostics import CSV_COLUMNS, IterRecord
from netgrad.objectives import QuadraticProblem
from netgrad.streams import StreamBundle
from netgrad.harness import ExperimentConfig
from netgrad.topology import (
    AugmentedMixing,
    EdgeGossip,
    MixingMatrix,
    build_graph,
    chebyshev_augment,
    default_gamma,
    gossip_contraction,
    lazify,
    metropolis_mixing,
)


@dataclass
class ReferenceState:
    """One state of the per-state route, as its own arrays.

    ``xs`` is the ``(2, blocks * m, d)`` stack of the iterate and the
    tracker; ``q`` and ``g_snap`` the snapshot point and rows; ``last_zeta``
    is the coin of the step that made it.
    """

    xs: np.ndarray
    q: np.ndarray
    g_snap: np.ndarray
    tau: int
    t: int
    last_zeta: int = 0

    @property
    def x(self) -> np.ndarray:
        return self.xs[0]

    @property
    def s(self) -> np.ndarray:
        return self.xs[1]

    @property
    def blocks(self) -> int:
        return len(self.x) // len(self.g_snap)


def reference_apply(op, x: np.ndarray) -> np.ndarray:
    """``op`` applied to ``x`` as a fresh array, every base product made."""
    if isinstance(op, MixingMatrix):
        return op.entries @ x
    if isinstance(op, EdgeGossip):
        out = x.copy()
        avg = 0.5 * x[..., op.i, :] + 0.5 * x[..., op.j, :]
        out[..., op.i, :] = avg
        out[..., op.j, :] = avg
        return out
    assert isinstance(op, AugmentedMixing)
    w = op.base.entries
    m, d = len(w), x.shape[-1]
    mixed = np.matmul(w, x.reshape(-1, m, d))
    halves = (-1, 2, m * d)
    flat = mixed.reshape(halves) * np.array([[1.0 + op.gamma], [-op.gamma]])
    top = flat[:, 0]
    top += flat[:, 1]
    flat[:, 1] = x.reshape(halves)[:, 0]
    return flat.reshape(x.shape)


def _gradients(problem: QuadraticProblem, x: np.ndarray, streams: StreamBundle | None) -> np.ndarray:
    grads = np.einsum("ijk,ik->ij", problem.quads, x) + problem.linears
    if problem.sigma_bar == 0.0:
        return grads
    # Straight from the agent streams, one draw per agent and call.
    noise = np.stack([rng.standard_normal(problem.d) for rng in streams.agents])
    grads += problem.noise.scale(problem.d) * noise
    return grads


def reference_init(problem: QuadraticProblem, x0: np.ndarray, algo: str, streams: StreamBundle | None) -> ReferenceState:
    """The start state: every agent at ``x0``, trackers at one gradient draw."""
    assert algo in ALGORITHMS
    x = np.tile(np.asarray(x0, dtype=np.float64), (problem.m, 1))
    g0 = _gradients(problem, x, streams)
    blocks = 2 if algo == "assdsgt" else 1
    return ReferenceState(xs=np.tile(np.stack([x, g0]), (1, blocks, 1)), q=x, g_snap=g0, tau=0, t=0)


def reference_ssdsgt_step(
    state: ReferenceState, problem: QuadraticProblem, op, sched: Schedule, streams: StreamBundle, eta: float
) -> ReferenceState:
    """One snapshot step (any block count) on copies of the state's arrays."""
    m = problem.m
    zeta = 1 if streams.coin_uniform() < sched.p else 0
    x = state.x
    g_x = _gradients(problem, x[:m], streams)
    correction = g_x - state.g_snap
    mixing = state.xs.copy()
    descent = mixing[0]
    for b in range(state.blocks):
        rows = slice(b * m, (b + 1) * m)
        np.add(mixing[1, rows], correction, out=descent[rows])
    descent *= eta
    np.subtract(x, descent, out=descent)
    xs_new = reference_apply(op, mixing)
    if not zeta:
        return ReferenceState(xs_new, state.q, state.g_snap, state.tau, state.t + 1, 0)
    s_new = xs_new[1]
    for b in range(state.blocks):
        s_new[b * m : (b + 1) * m] += correction
    return ReferenceState(xs_new, x[:m].copy(), g_x, state.t, state.t + 1, 1)


def reference_dsgt_step(
    state: ReferenceState, problem: QuadraticProblem, op, sched: Schedule, streams: StreamBundle, eta: float
) -> ReferenceState:
    """One plain tracking step on copies of the state's arrays."""
    mixing = state.xs.copy()
    mixing[0] -= eta * state.s
    xs_new = reference_apply(op, mixing)
    g_new = _gradients(problem, xs_new[0], streams)
    xs_new[1] += g_new - state.g_snap
    return ReferenceState(xs_new, xs_new[0], g_new, state.t + 1, state.t + 1, 0)


REFERENCE_STEPS = {"dsgt": reference_dsgt_step, "ssdsgt": reference_ssdsgt_step, "assdsgt": reference_ssdsgt_step}


def state_mismatches(got, want: ReferenceState) -> list[str]:
    """The fields of a package state that differ from a reference state, bits included."""
    bad = [name for name in ("xs", "q", "g_snap") if getattr(got, name).tobytes() != getattr(want, name).tobytes()]
    bad += [name for name in ("tau", "t", "last_zeta") if getattr(got, name) != getattr(want, name)]
    return bad


def snapshot_gradient_distance(problem: QuadraticProblem, q: np.ndarray) -> float:
    """``sum_i |Q_i (q_i - x*)|^2`` through the ``np.einsum`` wrapper and ``np.sum``."""
    delta = np.asarray(q, dtype=np.float64) - problem.x_star
    rows = np.einsum("ijk,ik->ij", problem.quads, delta)
    return float(np.sum(rows * rows))


def write_trace_csv(records, path) -> None:
    """Write trace records as CSV through ``csv.writer``, one cell at a time."""
    with open(path, "w", newline="\n", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for record in records:
            row = []
            for name in CSV_COLUMNS:
                value = getattr(record, name)
                if name in ("t", "zeta"):
                    row.append(str(int(value)))
                else:
                    row.append(f"{float(value):.17g}")
            writer.writerow(row)


def read_trace_csv(path) -> list[IterRecord]:
    """Read a well-formed trace CSV through ``csv.reader``, one row dict at a time."""
    with open(path, "r", newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        assert tuple(next(reader)) == CSV_COLUMNS
        rows = [dict(zip(CSV_COLUMNS, row)) for row in reader]
    return [
        IterRecord(**{name: int(cell) if name in ("t", "zeta") else float(cell) for name, cell in row.items()})
        for row in rows
    ]


def validate_mixing_report(topology: str, agents: int, mixing: str) -> str:
    """The ``validate-mixing`` stdout for these flags, built from the topology calls alone."""
    # Building the config raises the command's ConfigError for bad flags.
    ExperimentConfig(topology=topology, agents=agents, mixing=mixing)
    graph = build_graph(topology, agents)
    report: dict = {"topology": topology, "agents": agents, "mixing": mixing, "edges": len(graph.edges)}
    if mixing == "random-gossip":
        lambda2_eff, theta_eff = gossip_contraction(graph)
        report["lambda2"] = lambda2_eff
        report["theta"] = theta_eff
        report["note"] = "family values for the single-edge gossip draws"
    else:
        w = metropolis_mixing(graph)
        if mixing == "lazy-metropolis":
            w = lazify(w)
        report["lambda2"] = w.lambda2
        report["theta"] = w.theta
        report["psd"] = w.psd_flag
        report["row_sum_deviation"] = float(abs(w.entries.sum(axis=1) - 1.0).max())
        report["asymmetry"] = w.asymmetry
        if w.psd_flag:
            gamma = default_gamma(w.lambda2)
            report["gamma"] = gamma
            report["theta_tilde"] = chebyshev_augment(w, gamma).theta_tilde
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def augmented_matrix(aug: AugmentedMixing) -> np.ndarray:
    """The dense ``(2m, 2m)`` matrix of the augmented operator."""
    m = aug.base.m
    w = aug.base.entries
    out = np.zeros((2 * m, 2 * m))
    out[:m, :m] = (1.0 + aug.gamma) * w
    out[:m, m:] = -aug.gamma * w
    out[m:, :m] = np.eye(m)
    return out


def global_value(problem: QuadraticProblem, v: np.ndarray) -> float:
    """Network objective at the shared point ``v``: the agent average."""
    v = np.asarray(v, dtype=np.float64)
    quad_terms = 0.5 * np.einsum("j,ijk,k->i", v, problem.quads, v)
    linear_terms = problem.linears @ v
    return float(np.mean(quad_terms + linear_terms))


def column_mean(a: np.ndarray) -> np.ndarray:
    """Column mean of a 2-D array, ``np.add.reduce(a, axis=0) / rows``.

    This is the sum and division ``a.mean(axis=0)`` performs, so the bits are
    the same; the row count is a float, which gives the same quotient.
    """
    return np.add.reduce(a, axis=0) / float(len(a))


def vector_norm(v: np.ndarray) -> float:
    """Euclidean norm of a 1-D float vector, the square root of ``v . v`` as ``np.linalg.norm`` takes it."""
    return math.sqrt(float(v.dot(v)))


def consensus_error(x: np.ndarray, blocks: int = 1) -> float:
    """Squared Frobenius distance of row-stacked states from their row mean.

    With ``blocks=2`` the input stacks two equally sized blocks and the
    deviation is measured blockwise: each block is centered on its own mean
    and the squared distances are summed.
    """
    x = np.asarray(x, dtype=np.float64)
    if blocks == 1:
        centered = x - column_mean(x)
        return float(np.sum(centered * centered))
    if blocks == 2:
        if x.shape[0] % 2 != 0:
            raise ValueError(f"two-block input needs an even row count, got {x.shape[0]}")
        half = x.shape[0] // 2
        return consensus_error(x[:half]) + consensus_error(x[half:])
    raise ValueError(f"blocks must be 1 or 2, got {blocks}")


def lyapunov_psi(state, eta: float, theta: float, L: float, problem: QuadraticProblem) -> float:
    """Lyapunov combination for the snapshot iteration.

    ``|Px|^2 + (4 eta^2 / theta^2) |Ps|^2 +
    (2 eta / (L theta)) |grad at snapshot - grad at minimizer|^2``
    with exact gradients in the last term.
    """
    cx = consensus_error(state.x)
    cs = consensus_error(state.s)
    dist = snapshot_gradient_distance(problem, state.q)
    return cx + (4.0 * eta * eta / (theta * theta)) * cs + (2.0 * eta / (L * theta)) * dist


def lyapunov_psi_tilde(
    state, eta: float, theta_tilde: float, L: float, alpha: float, problem: QuadraticProblem
) -> float:
    """Lyapunov combination for the momentum-augmented (two-block) iteration.

    ``|P x|^2 + (12 alpha eta^2 / theta_tilde^2) |P s|^2 +
    (16 (1 + 8 alpha) eta^2 / theta_tilde^2) |grad at snapshot - grad at
    minimizer|^2`` where the projections act blockwise on the stacked state
    and ``alpha`` is the envelope constant of the augmented mixing chain.
    """
    cx = consensus_error(state.x, blocks=2)
    cs = consensus_error(state.s, blocks=2)
    dist = snapshot_gradient_distance(problem, state.q)
    tt2 = theta_tilde * theta_tilde
    return cx + (12.0 * alpha * eta * eta / tt2) * cs + (16.0 * (1.0 + 8.0 * alpha) * eta * eta / tt2) * dist
