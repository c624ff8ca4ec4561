"""Block-served random draws: same values and order as per-call draws."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from netgrad.algorithms import assdsgt_step, dsgt_step, init_state, ssdsgt_step, theory_schedule
from netgrad.harness import ExperimentConfig, run_experiment, write_trace
from netgrad.objectives import make_quadratic_suite
from netgrad.streams import COIN_BLOCK, NOISE_BLOCK_DOUBLES, StreamBundle
from netgrad.topology import build_graph, chebyshev_augment, default_gamma, lazify, metropolis_mixing


@pytest.mark.parametrize("m", [1, 16])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_noise_rows_equal_per_call_draws(m, d):
    served = StreamBundle.from_seed(123, m)
    reference = StreamBundle.from_seed(123, m)
    k = NOISE_BLOCK_DOUBLES // (m * d)
    for _ in range(2 * k + 3):  # two refills and a partly used third block
        rows = served.noise_rows(d)
        expected = np.stack([rng.standard_normal(d) for rng in reference.agents])
        assert np.array_equal(rows, expected)


def test_coin_uniforms_equal_per_call_draws():
    served = StreamBundle.from_seed(5, 3)
    reference = StreamBundle.from_seed(5, 3)
    for _ in range(2 * COIN_BLOCK + 3):
        assert served.coin_uniform() == float(reference.coin.random())


def test_noise_rows_keep_their_dimension():
    streams = StreamBundle.from_seed(0, 2)
    streams.noise_rows(2)
    with pytest.raises(ValueError):
        streams.noise_rows(3)


@pytest.mark.parametrize("algo", ["dsgt", "ssdsgt", "assdsgt"])
def test_noiseless_runs_leave_the_noise_streams_alone(algo):
    m = 6
    problem = make_quadratic_suite(m, 2, 0.5, 4.0, 1.0, np.random.default_rng(1))
    w = lazify(metropolis_mixing(build_graph("ring", m)))
    sched = theory_schedule(algo, "constant", w.theta, problem.L, problem.mu)
    streams = StreamBundle.from_seed(9, m)
    before = [repr(rng.bit_generator.state) for rng in streams.agents]
    state = init_state(problem, np.ones(2), algo, streams)
    aug = chebyshev_augment(w, default_gamma(w.lambda2))
    for _ in range(20):
        if algo == "dsgt":
            state = dsgt_step(state, problem, w, sched, streams)
        elif algo == "ssdsgt":
            state = ssdsgt_step(state, problem, w, sched, streams)
        else:
            state = assdsgt_step(state, problem, aug, sched, streams)
    assert [repr(rng.bit_generator.state) for rng in streams.agents] == before
    assert streams._noise is None


# sha256 of the trace CSV and of the sorted JSON summary (audit maxima
# included) for ring m=6, sigma=1, 300 iterations, stride 7, seed 0, as
# produced by per-call draws before block serving existed.
FROZEN = {
    ("dsgt", "random-gossip"): (
        "8f5bb06f988e84f17d39f34c05ff5715edfa444fa0aeecbf6b8c592160ecf7ba",
        "e612e8f169dc11089a5c62a270f9779daaa5bc4b5af718cd12277f935d836191",
    ),
    ("dsgt", "metropolis"): (
        "cc822674c20dac18ae70082be53a42541b700498d28b2957dc23a2819ec7574e",
        "f28462c728819585e0fce492bfc433fb7ca61f1102b3b7538dfccda95ccc75c5",
    ),
    ("ssdsgt", "metropolis"): (
        "c03f2e19a5fd61aeb431908e27ac42b3111150d3463c1b394687ab6e46c01d74",
        "4f41128320b7236659ad01c46aca22bf15917c29a3af8df24021c883e60243df",
    ),
    ("assdsgt", "lazy-metropolis"): (
        "349b824ee95c29d8fcbe2975f6dbc02caa83f979863eb7171657c622077012b2",
        "a0cdaf268e77e2498316396aac6983987d4cdf8fc7bff0607d2fcc162765bbf8",
    ),
    ("ssdsgt", "random-gossip"): (
        "ccf38b1ce22513e5ecbb21d4142c709203b3a55e891beea3bd45a79b760457f0",
        "64b8bc57151399f93ee1d14d9905d2887ee7227a872e10239b819cc7417a9862",
    ),
}


@pytest.mark.parametrize("algo, mixing", sorted(FROZEN))
def test_noisy_runs_match_frozen_digests(algo, mixing, tmp_path: Path):
    cfg = ExperimentConfig(
        topology="ring", agents=6, algo=algo, mixing=mixing, sigma_bar=1.0, iters=300, stride=7
    )
    trace = run_experiment(cfg)
    path = tmp_path / "trace.csv"
    write_trace(trace, path)
    summary = json.dumps(trace.summary, sort_keys=True).encode()
    digests = (hashlib.sha256(path.read_bytes()).hexdigest(), hashlib.sha256(summary).hexdigest())
    assert digests == FROZEN[(algo, mixing)]
