"""Every state a run writes into its chunk buffer equals the per-state route, bit for bit.

A run's steps write into the slots of one buffer, reuse its temporaries,
and let a momentum step take its trailing-block product from the step
before. ``tests/_reference.py`` keeps the route this replaced: every step
copies the stacked state, multiplies every base block, and builds a new
state. Each harness run here steps that reference chain in lockstep, on its
own streams of the same seed and with the operator the run drew, and every
state the run's step returns must equal the reference state field for
field. The state a step starts from must come out of it unchanged. A
snapshot probability of 0.3 makes both coin branches run many times, and
the chunk lengths put chunk boundaries everywhere.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from _one_thread import run_one_thread
from _reference import REFERENCE_STEPS, reference_init, state_mismatches

from netgrad import algorithms, harness
from netgrad.harness import ExperimentConfig, prepare_run, run_experiment
from netgrad.streams import StreamBundle
from netgrad.topology import random_edge_gossip

PAIRS = (
    ("dsgt", "metropolis"),
    ("dsgt", "lazy-metropolis"),
    ("dsgt", "random-gossip"),
    ("ssdsgt", "metropolis"),
    ("ssdsgt", "lazy-metropolis"),
    ("ssdsgt", "random-gossip"),
    ("assdsgt", "lazy-metropolis"),
)
SIZES = (1, 2, 3, 8, 16, 64, 256)
DIMS = (1, 2, 3, 5)
SIGMAS = (0.0, 1.0)
CHUNKS = (1, 2, 7, 64)
ITERS = 200
P = 0.3


def _held(state) -> list[bytes]:
    return [state.xs.tobytes(), state.q.tobytes(), state.g_snap.tobytes()]


def run_mismatches(cfg: ExperimentConfig, chunk: int = harness._OBSERVE_CHUNK) -> list[tuple]:
    """Run ``cfg`` beside the reference chain; every way a state departs from it."""
    setup = prepare_run(cfg)
    sched = setup.sched if cfg.algo == "dsgt" else replace(setup.sched, p=P)
    reference_streams = StreamBundle.from_seed(cfg.seed, cfg.agents)
    reference_step = REFERENCE_STEPS[cfg.algo]
    name = f"{cfg.algo}_step"
    init_state, step = harness.init_state, getattr(harness, name)
    bad: list[tuple] = []
    chain = []
    fired = []

    def init(problem, x0, algo, streams):
        state = init_state(problem, x0, algo, streams)
        chain.append(reference_init(problem, x0, algo, reference_streams))
        bad.extend(("start", field) for field in state_mismatches(state, chain[-1]))
        return state

    def lockstep(state, problem, op, sched, streams, eta):
        held = _held(state)
        new = step(state, problem, op, sched, streams, eta)
        if _held(state) != held:
            bad.append(("input written", state.t))
        chain[-1] = reference_step(chain[-1], problem, op, sched, reference_streams, eta)
        bad.extend((new.t, field) for field in state_mismatches(new, chain[-1]))
        fired.append(new.last_zeta)
        return new

    saved = (harness.init_state, step, harness._OBSERVE_CHUNK)
    harness.init_state, harness._OBSERVE_CHUNK = init, chunk
    setattr(harness, name, lockstep)
    try:
        trace = run_experiment(cfg, sched)
    finally:
        harness.init_state, _, harness._OBSERVE_CHUNK = saved
        setattr(harness, name, step)
    if len(fired) != cfg.iters or trace.summary["final_t"] != cfg.iters:
        bad.append(("steps", len(fired)))
    if cfg.algo != "dsgt" and not (cfg.iters // 10 <= sum(fired) <= cfg.iters - cfg.iters // 10):
        bad.append(("coin branches", sum(fired)))
    return bad


def _config(algo: str, mixing: str, m: int, d: int, sigma: float) -> ExperimentConfig:
    return ExperimentConfig(
        topology="ring", agents=m, algo=algo, mixing=mixing, d=d, sigma_bar=sigma,
        iters=ITERS, stride=1, seed=5, x0_radius=2.0,
    )


PAIR = pytest.mark.parametrize("algo, mixing", PAIRS, ids=[f"{a}-{b}" for a, b in PAIRS])


@PAIR
@pytest.mark.parametrize("sigma", SIGMAS)
@pytest.mark.parametrize("chunk", CHUNKS)
def test_every_state_of_a_run_equals_the_reference_at_every_chunk_length(algo, mixing, sigma, chunk):
    assert run_mismatches(_config(algo, mixing, 6, 2, sigma), chunk) == []


#: Every pair at every size; a gossip draw needs an edge, so two agents or more.
SIZED = [
    pytest.param(algo, mixing, m, id=f"{algo}-{mixing}-m{m}")
    for algo, mixing in PAIRS
    for m in SIZES
    if mixing != "random-gossip" or m > 1
]


@pytest.mark.parametrize("algo, mixing, m", SIZED)
def test_every_state_of_a_run_equals_the_reference_at_every_size(algo, mixing, m):
    bad = [case for d in DIMS for sigma in SIGMAS for case in run_mismatches(_config(algo, mixing, m, d, sigma))]
    assert bad == []


def test_every_state_of_a_run_equals_the_reference_at_1024_agents():
    # The bits of an m=1024 product depend on the BLAS thread count; the
    # claim is made at one OpenBLAS thread. Noise does not touch the
    # products, so noiseless runs are enough here.
    script = (
        "import test_buffer_reference as t; "
        "print([t.run_mismatches(t._config(a, b, 1024, 2, 0.0)) "
        "for a, b in (('assdsgt', 'lazy-metropolis'), ('ssdsgt', 'random-gossip'), ('dsgt', 'metropolis'))])"
    )
    done = run_one_thread(script)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[[], [], []]"


@PAIR
@pytest.mark.parametrize("sigma", SIGMAS)
def test_a_state_without_a_successor_steps_as_a_chunk_of_one(algo, mixing, sigma):
    # States from init_state, and the ones a step returns for them, have no
    # buffer slot after them: each step allocates one. The states a caller
    # holds never change, and stepping one state twice gives equal states.
    cfg = _config(algo, mixing, 6, 2, sigma)
    setup = prepare_run(cfg)
    sched = setup.sched if algo == "dsgt" else replace(setup.sched, p=P)
    step = {"dsgt": algorithms.dsgt_step, "ssdsgt": algorithms.ssdsgt_step, "assdsgt": algorithms.assdsgt_step}[algo]
    streams = StreamBundle.from_seed(cfg.seed, cfg.agents)
    twin_streams = StreamBundle.from_seed(cfg.seed, cfg.agents)
    reference_streams = StreamBundle.from_seed(cfg.seed, cfg.agents)
    state = algorithms.init_state(setup.problem, setup.x0, algo, streams)
    algorithms.init_state(setup.problem, setup.x0, algo, twin_streams)
    reference = reference_init(setup.problem, setup.x0, algo, reference_streams)
    held = []
    for _ in range(60):
        op = setup.aug or setup.w or random_edge_gossip(setup.graph, streams.gossip)
        random_edge_gossip(setup.graph, twin_streams.gossip)
        eta = algorithms.step_size(sched, state.t)
        twin = step(state, setup.problem, op, sched, twin_streams, eta)
        new = step(state, setup.problem, op, sched, streams, eta)
        reference = REFERENCE_STEPS[algo](reference, setup.problem, op, sched, reference_streams, eta)
        assert state_mismatches(new, reference) == [], new.t
        assert state_mismatches(twin, reference) == [], new.t
        assert new.successor is None and new.xs is not twin.xs
        held.append((state, _held(state)))
        state = new
    assert all(_held(old) == bits for old, bits in held)
