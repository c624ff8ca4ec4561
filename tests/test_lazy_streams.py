"""Agent noise streams are spawned on first read, as the same streams."""

from __future__ import annotations

import numpy as np
import pytest

import netgrad.streams
from netgrad.harness import ExperimentConfig, run_experiment
from netgrad.streams import StreamBundle


def _eager_agents(seed: int, m: int) -> list[np.random.Generator]:
    """The agent streams as a bundle built them up front."""
    agents_parent = np.random.SeedSequence(seed).spawn(3)[2]
    return [np.random.Generator(np.random.Philox(s)) for s in agents_parent.spawn(m)]


@pytest.mark.parametrize("seed", [0, 7, 2**40 + 3])
@pytest.mark.parametrize("m", [1, 2, 16, 100])
def test_lazily_spawned_agents_equal_eager_ones(seed, m):
    streams = StreamBundle.from_seed(seed, m)
    streams.coin_uniform()  # other streams drawing first changes nothing
    lazy = streams.agents
    assert streams.agents is lazy
    states = [repr(g.bit_generator.state) for g in lazy]
    assert states == [repr(g.bit_generator.state) for g in _eager_agents(seed, m)]


def _count_generators(monkeypatch) -> list[int]:
    built = [0]
    original = netgrad.streams._generator

    def counted(seq):
        built[0] += 1
        return original(seq)

    monkeypatch.setattr(netgrad.streams, "_generator", counted)
    return built


@pytest.mark.parametrize("algo, mixing", [
    ("dsgt", "metropolis"), ("ssdsgt", "random-gossip"), ("assdsgt", "lazy-metropolis"),
])
def test_noiseless_runs_never_spawn_agent_streams(monkeypatch, algo, mixing):
    built = _count_generators(monkeypatch)
    cfg = ExperimentConfig(topology="ring", agents=64, algo=algo, mixing=mixing, iters=30)
    run_experiment(cfg)
    assert built[0] == 2  # the coin and gossip streams only


def test_noisy_runs_spawn_one_stream_per_agent(monkeypatch):
    built = _count_generators(monkeypatch)
    cfg = ExperimentConfig(topology="ring", agents=8, algo="ssdsgt", sigma_bar=1.0, iters=30)
    run_experiment(cfg)
    assert built[0] == 2 + 8
