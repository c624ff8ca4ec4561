"""The momentum step's reused trailing product changes no bit of a run.

When the snapshot coin does not fire, the augmented operator leaves the new
trailing tracker block equal to the old working block, so the next ``apply``
takes that block's product from the state instead of multiplying it again.
Each run here goes through the harness twice, once as it is and once with
the carried product cleared before every step (the four-product route), and
the states, records and summaries must agree bit for bit. A snapshot
probability of 0.3 makes both coin branches run many times.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from _one_thread import run_one_thread

from netgrad import algorithms, harness
from netgrad.algorithms import Schedule, init_state, ssdsgt_step, theory_schedule
from netgrad.harness import ExperimentConfig, prepare_run, run_experiment
from netgrad.objectives import make_quadratic_suite
from netgrad.streams import StreamBundle
from netgrad.topology import build_graph, metropolis_mixing, random_edge_gossip

SIZES = (1, 2, 3, 8, 16, 64, 256)
DIMS = (1, 2, 3, 5)
SIGMAS = (0.0, 1.0)
ITERS = 200
P = 0.3


def _traced_run(cfg: ExperimentConfig, sched: Schedule, clear: bool):
    """Run ``cfg`` through the harness, keeping every step's input and output state."""
    steps = []

    def step(state, *args):
        if clear:
            state = replace(state, trailing_product=None)
        new = algorithms.assdsgt_step(state, *args)
        steps.append((state, new))
        return new

    saved = harness.assdsgt_step
    harness.assdsgt_step = step
    try:
        trace = run_experiment(cfg, sched)
    finally:
        harness.assdsgt_step = saved
    return trace, steps


def reuse_mismatches(m: int, d: int, sigma: float) -> list[tuple]:
    """Every way the carried-product run departs from the four-product run."""
    cfg = ExperimentConfig(
        topology="ring", agents=m, mixing="lazy-metropolis", algo="assdsgt",
        d=d, sigma_bar=sigma, iters=ITERS, stride=1,
    )
    setup = prepare_run(cfg)
    sched = replace(setup.sched, p=P)
    trace, steps = _traced_run(cfg, sched, clear=False)
    reference, reference_steps = _traced_run(cfg, sched, clear=True)
    bad = []
    if repr(trace.records) != repr(reference.records):
        bad.append(("records", m, d, sigma))
    if repr(trace.summary) != repr(reference.summary):
        bad.append(("summary", m, d, sigma))
    w = setup.aug.base.entries
    fired = 0
    for (before, after), (_, expected) in zip(steps, reference_steps, strict=True):
        t = after.t
        for name in ("xs", "q", "g_snap"):
            if getattr(after, name).tobytes() != getattr(expected, name).tobytes():
                bad.append((name, m, d, sigma, t))
        if before.t == 0 and before.trailing_product is not None:
            bad.append(("carried at t = 0", m, d, sigma))
        fired += after.last_zeta
        if after.last_zeta:
            if after.trailing_product is not None:
                bad.append(("carried after a fired coin", m, d, sigma, t))
        elif after.trailing_product is None:
            bad.append(("not carried", m, d, sigma, t))
        elif after.trailing_product.tobytes() != (w @ before.s[:m]).tobytes():
            bad.append(("carried product", m, d, sigma, t))
    if not (ITERS // 10 <= fired <= ITERS - ITERS // 10):
        bad.append(("coin branches", m, d, sigma, fired))
    return bad


@pytest.mark.parametrize("m", SIZES)
def test_reused_product_equals_the_four_product_route(m):
    bad = [case for d in DIMS for sigma in SIGMAS for case in reuse_mismatches(m, d, sigma)]
    assert bad == []


def test_reused_product_equals_the_four_product_route_at_1024_agents():
    # The bits of an m=1024 product depend on the BLAS thread count; the
    # claim is made at one OpenBLAS thread. Noise does not touch the
    # products, so the noiseless run is enough here.
    script = "import test_trailing_reuse as t; print(t.reuse_mismatches(1024, 2, 0.0))"
    done = run_one_thread(script)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


@pytest.mark.parametrize("sigma", SIGMAS)
def test_one_block_states_carry_no_product(sigma):
    rng = np.random.default_rng(4)
    m, d = 6, 2
    problem = make_quadratic_suite(m, d, 1.0, 2.0, 1.0, rng, sigma_bar=sigma)
    graph = build_graph("ring", m)
    w = metropolis_mixing(graph)
    sched = replace(theory_schedule("ssdsgt", "constant", w.theta, problem.L, problem.mu), p=P)
    streams = StreamBundle.from_seed(0, m)
    for gossip in (False, True):
        state = init_state(problem, np.zeros(d), "ssdsgt", streams)
        assert state.trailing_product is None
        for _ in range(40):
            op = random_edge_gossip(graph, streams.gossip) if gossip else w
            state = ssdsgt_step(state, problem, op, sched, streams)
            assert state.trailing_product is None
