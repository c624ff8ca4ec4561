"""A per-agent reference simulator reproduces every recorded column of a run.

The reference below is written straight from the update equations, with
per-agent Python loops over plain floats, and shares no code with
``netgrad.algorithms`` or ``netgrad.diagnostics``. From :func:`prepare_run`
it takes only the inputs of the equations: the problem, the mixing entries,
the momentum weight gamma, the contraction parameter (theta, or the fitted
theta_tilde of the momentum chain) and the schedule. It draws its coins,
gossip edges and gradient noise from a fresh :class:`StreamBundle` of the
run's seed one call at a time, in the order the equations consume them.

The states are compared too: every iteration's ``x``, ``s`` and ``q``,
taken from the run through the step name the harness looks up.

With ``w`` the mixing weights, ``eta`` the step at iteration ``t``,
``g_i`` a fresh gradient sample of agent ``i`` and ``h_i`` the stored one:

* DSGT (Pu & Nedic, "Distributed stochastic gradient tracking methods",
  Math. Prog. 2021): ``x_i+ = sum_j w_ij (x_j - eta s_j)``, then ``g_i`` is
  sampled at ``x_i+`` and ``s_i+ = sum_j w_ij s_j + g_i - h_i``; ``h_i``
  becomes ``g_i``, and the snapshot point is the iterate.
* SS-DSGT: a shared coin ``zeta = [u < p]``; ``g_i`` is sampled at ``x_i``;
  ``x_i+ = sum_j w_ij (x_j - eta (s_j + g_j - h_j))`` and
  ``s_i+ = sum_j w_ij s_j + zeta (g_i - h_i)``. When the coin fires the
  snapshot point becomes ``x_i`` and ``h_i`` becomes ``g_i``.
* ASS-DSGT: the SS-DSGT update on a duplicated state ``[top; bottom]``
  (gradients sampled at ``top``, the correction added to both blocks),
  mixed by ``top+ = (1 + gamma) W top - gamma W bottom`` and
  ``bottom+ = top``.

The recorded columns are the blockwise consensus errors of ``x`` and ``s``,
``sum_i |Q_i (q_i - x*)|^2`` at the snapshot points ``q``, the Lyapunov
combination ``psi`` (``psi_tilde`` with envelope 14 for two blocks), and the
squared distance and suboptimality of the working block's mean iterate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import pytest

from netgrad import harness
from netgrad.harness import ExperimentConfig, prepare_run, run_experiment
from netgrad.streams import StreamBundle

ITERS = 200
#: Relative tolerance on the float columns. The reference sums in a
#: different order than the vectorised kernel, so the columns agree to
#: rounding, not bit for bit; t, zeta and eta must match exactly. A consensus
#: error is measured against the uncentred squares it is taken from (and psi
#: against the same combination of them): on the complete graph of three
#: agents every row mixes to the same mean, so the error is rounding residue
#: with no digits of its own to compare.
REL_TOL = 1e-9
#: Envelope constant of the momentum chain in psi_tilde.
ALPHA = 14.0

_FLOAT_COLUMNS = ("consensus_x", "consensus_s", "snap_grad_dist", "psi", "mean_dist", "subopt")


@dataclass
class _State:
    x: list  # blocks of m rows of d floats; block 0 is the working block
    s: list
    q: list  # m snapshot points
    h: list  # m stored gradient samples


class _Reference:
    def __init__(self, cfg: ExperimentConfig) -> None:
        setup = prepare_run(cfg)
        problem, sched = setup.problem, setup.sched
        self.algo = cfg.algo
        self.m, self.d = problem.m, problem.d
        self.quads = problem.quads.tolist()
        self.linears = problem.linears.tolist()
        self.x_star = problem.x_star.tolist()
        self.noise = problem.sigma_bar / math.sqrt(problem.d)
        self.theta, self.L, self.mu = setup.theta, sched.L, sched.mu
        self.mode, self.eta0, self.beta, self.p = sched.mode, sched.eta0, sched.beta, sched.p
        self.gamma = None
        if setup.aug is not None:
            self.gamma = setup.aug.gamma
            self.w = setup.aug.base.entries.tolist()
        elif setup.w is not None:
            self.w = setup.w.entries.tolist()
        else:
            self.w = None
            self.edges = sorted(setup.graph.edges)
        streams = StreamBundle.from_seed(cfg.seed, problem.m)
        self.coin, self.gossip = streams.coin, streams.gossip
        self.agents = streams.agents if problem.sigma_bar > 0.0 else None
        self.x0 = setup.x0.tolist()

    def eta(self, t: int) -> float:
        if self.mode == "constant":
            return self.eta0
        return 6.0 * self.beta / (self.L + self.beta * self.mu * t)

    def sample(self, i: int, x: list) -> list:
        rows = zip(self.quads[i], self.linears[i])
        grad = [sum(a * b for a, b in zip(row, x)) + c for row, c in rows]
        if self.agents is None:
            return grad
        z = [float(v) for v in self.agents[i].standard_normal(self.d)]
        return [g + self.noise * v for g, v in zip(grad, z)]

    def weights(self) -> list:
        if self.w is not None:
            return self.w
        i, j = self.edges[int(self.gossip.integers(len(self.edges)))]
        w = [[1.0 if a == b else 0.0 for b in range(self.m)] for a in range(self.m)]
        w[i][i] = w[j][j] = w[i][j] = w[j][i] = 0.5
        return w

    def mix(self, w: list, blocks: list) -> list:
        """Mix each agent's rows with its neighbours', block by block."""

        def product(rows):
            d = range(self.d)
            return [[sum(wij * rows[j][k] for j, wij in enumerate(wi)) for k in d] for wi in w]

        if self.gamma is None:
            return [product(blocks[0])]
        top, bottom = product(blocks[0]), product(blocks[1])
        g = self.gamma
        new_top = [[(1.0 + g) * a - g * b for a, b in zip(ra, rb)] for ra, rb in zip(top, bottom)]
        return [new_top, [row[:] for row in blocks[0]]]

    def start(self) -> _State:
        x = [self.x0[:] for _ in range(self.m)]
        h = [self.sample(i, x[i]) for i in range(self.m)]
        blocks = 1 if self.gamma is None else 2
        return _State(
            x=[[row[:] for row in x] for _ in range(blocks)],
            s=[[row[:] for row in h] for _ in range(blocks)],
            q=x,
            h=h,
        )

    def step(self, st: _State, eta: float) -> tuple[_State, int]:
        w = self.weights()
        if self.algo == "dsgt":
            y = [[[a - eta * b for a, b in zip(xr, sr)] for xr, sr in zip(st.x[0], st.s[0])]]
            (x,) = self.mix(w, y)
            (s,) = self.mix(w, st.s)
            g = [self.sample(i, x[i]) for i in range(self.m)]
            s = [[a + (b - c) for a, b, c in zip(sr, gr, hr)] for sr, gr, hr in zip(s, g, st.h)]
            return _State(x=[x], s=[s], q=x, h=g), 0
        zeta = 1 if self.coin.random() < self.p else 0
        top = st.x[0]
        g = [self.sample(i, top[i]) for i in range(self.m)]
        corr = [[a - b for a, b in zip(gr, hr)] for gr, hr in zip(g, st.h)]
        y = [
            [[a - eta * (b + c) for a, b, c in zip(xr, sr, cr)] for xr, sr, cr in zip(xb, sb, corr)]
            for xb, sb in zip(st.x, st.s)
        ]
        x = self.mix(w, y)
        s = self.mix(w, st.s)
        if not zeta:
            return _State(x=x, s=s, q=st.q, h=st.h), 0
        s = [[[a + c for a, c in zip(sr, cr)] for sr, cr in zip(sb, corr)] for sb in s]
        return _State(x=x, s=s, q=[row[:] for row in top], h=g), 1

    def consensus(self, block: list) -> float:
        mean = [sum(row[k] for row in block) / self.m for k in range(self.d)]
        return sum((row[k] - mean[k]) ** 2 for row in block for k in range(self.d))

    def row(self, t: int, st: _State, eta: float, zeta: int) -> tuple[dict, dict]:
        """The recorded columns and the scale each float column is compared at."""
        cx = sum(self.consensus(block) for block in st.x)
        cs = sum(self.consensus(block) for block in st.s)
        x2 = sum(v * v for block in st.x for row in block for v in row)
        s2 = sum(v * v for block in st.s for row in block for v in row)
        dist = 0.0
        for i in range(self.m):
            delta = [a - b for a, b in zip(st.q[i], self.x_star)]
            dist += sum(sum(a * b for a, b in zip(qrow, delta)) ** 2 for qrow in self.quads[i])
        if len(st.x) == 1:
            ws, wd = 4.0 * eta**2 / self.theta**2, 2.0 * eta / (self.L * self.theta)
        else:
            tt2 = self.theta**2
            ws, wd = 12.0 * ALPHA * eta**2 / tt2, 16.0 * (1.0 + 8.0 * ALPHA) * eta**2 / tt2
        xbar = [sum(row[k] for row in st.x[0]) / self.m for k in range(self.d)]
        delta = [a - b for a, b in zip(xbar, self.x_star)]
        # The network objective is a quadratic with curvature mean_i Q_i and
        # minimizer x*, so f(xbar) - f* = (1/m) sum_i (1/2) delta^T Q_i delta.
        pairs = [(a, b) for a in range(self.d) for b in range(self.d)]
        subopt = sum(
            0.5 * sum(delta[a] * quad[a][b] * delta[b] for a, b in pairs) for quad in self.quads
        ) / self.m
        columns = dict(
            t=t, eta=eta, zeta=zeta, consensus_x=cx, consensus_s=cs, snap_grad_dist=dist,
            psi=cx + ws * cs + wd * dist, mean_dist=sum(v * v for v in delta), subopt=subopt,
        )
        scales = {name: abs(columns[name]) for name in _FLOAT_COLUMNS}
        scales.update(consensus_x=x2, consensus_s=s2, psi=x2 + ws * s2 + wd * dist)
        return columns, scales

    def run(self, iters: int) -> tuple[list[tuple[dict, dict]], list[_State]]:
        """The recorded columns (with their scales) and the state of every iteration."""
        st = self.start()
        rows, states = [self.row(0, st, self.eta(0), 0)], [st]
        for t in range(iters):
            st, zeta = self.step(st, self.eta(t))
            rows.append(self.row(t + 1, st, self.eta(t + 1), zeta))
            states.append(st)
        return rows, states


_PAIRS = (
    ("dsgt", "metropolis"),
    ("dsgt", "lazy-metropolis"),
    ("dsgt", "random-gossip"),
    ("ssdsgt", "metropolis"),
    ("ssdsgt", "lazy-metropolis"),
    ("ssdsgt", "random-gossip"),
    ("assdsgt", "lazy-metropolis"),
)


def _cases():
    for algo, mixing in _PAIRS:
        # A one-agent ring has no edge to gossip over; two agents have one.
        for m in (2, 3, 8) if mixing == "random-gossip" else (1, 3, 8):
            for sigma in (0.0, 1.0):
                name = f"{algo}-{mixing}-m{m}-sigma{sigma:g}"
                yield pytest.param(algo, mixing, m, sigma, id=name)


@pytest.mark.parametrize("algo, mixing, m, sigma", _cases())
def test_every_recorded_column_matches_the_per_agent_reference(algo, mixing, m, sigma):
    cfg = ExperimentConfig(
        topology="ring", agents=m, algo=algo, mixing=mixing, d=2, sigma_bar=sigma,
        iters=ITERS, stride=1, seed=11, problem_seed=4,
    )
    records = run_experiment(cfg).records
    expected, _ = _Reference(cfg).run(ITERS)
    assert len(records) == len(expected) == ITERS + 1
    for record, (want, scales) in zip(records, expected):
        assert (record.t, record.zeta, record.eta) == (want["t"], want["zeta"], want["eta"])
        for name in _FLOAT_COLUMNS:
            got = getattr(record, name)
            bound = REL_TOL * scales[name]
            assert abs(got - want[name]) <= bound, (record.t, name, got, want[name])


def _run_capturing_states(monkeypatch, cfg: ExperimentConfig) -> dict[int, tuple]:
    """Run ``cfg`` and keep a copy of ``x``, ``s`` and ``q`` of every state, by ``t``.

    The start comes through ``init_state`` and every later state through the
    step name, both looked up on the harness per run. A step writes into a
    buffer slot that a later chunk overwrites, so the arrays are copied.
    """
    seen: dict[int, tuple] = {}

    def capture(state):
        seen[state.t] = (state.x.copy(), state.s.copy(), state.q.copy())
        return state

    name = f"{cfg.algo}_step"
    init, step = harness.init_state, getattr(harness, name)
    monkeypatch.setattr(harness, "init_state", lambda *args: capture(init(*args)))
    monkeypatch.setattr(harness, name, lambda *args: capture(step(*args)))
    run_experiment(cfg)
    return seen


def _within(got: np.ndarray, want: list) -> bool:
    """``got`` equals the reference rows up to ``REL_TOL`` of their largest entry."""
    want = np.array(want, dtype=np.float64).reshape(got.shape)
    return float(np.max(np.abs(got - want))) <= REL_TOL * float(np.max(np.abs(want)))


@pytest.mark.parametrize("algo, mixing, m, sigma", _cases())
def test_every_state_matches_the_per_agent_reference(monkeypatch, algo, mixing, m, sigma):
    cfg = ExperimentConfig(
        topology="ring", agents=m, algo=algo, mixing=mixing, d=2, sigma_bar=sigma,
        iters=ITERS, stride=1, seed=11, problem_seed=4, x0_radius=1.0,
    )
    seen = _run_capturing_states(monkeypatch, cfg)
    _, states = _Reference(cfg).run(ITERS)
    assert sorted(seen) == list(range(ITERS + 1))
    for t, st in enumerate(states):
        x, s, q = seen[t]
        assert _within(x, st.x), (t, "x")
        assert _within(s, st.s), (t, "s")
        assert _within(q, st.q), (t, "q")
