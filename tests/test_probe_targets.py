"""The benchmark's layer probe still finds every name it wraps.

``perfbench/probe.py`` wraps package functions at the names their callers
look up. Renaming or inlining one of them silently drops a layer from traced
benchmark runs, so these checks import the probe as it is and exercise it.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import netgrad.harness
from netgrad.harness import ExperimentConfig

_PROBE_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "probe.py"


def _load_probe():
    name = "perfbench_probe"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, _PROBE_PATH)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module  # its dataclasses look their module up here
        spec.loader.exec_module(module)
    return sys.modules[name]


def test_every_probe_target_resolves():
    probe = _load_probe()
    for owner, name, layer in probe.OBSERVER_TARGETS + probe.LAYER_TARGETS:
        if isinstance(owner, type):
            # class attributes are read from the class body itself
            assert name in owner.__dict__, (owner.__name__, name, layer)
        else:
            assert callable(getattr(owner, name, None)), (owner.__name__, name, layer)


def test_traced_gossip_run_counts_one_draw_and_one_step_per_iteration():
    probe = _load_probe()
    cfg = ExperimentConfig(
        topology="ring", agents=6, algo="ssdsgt", mixing="random-gossip", iters=20
    )
    with probe.Probe(traced=True) as p:
        trace = netgrad.harness.run_experiment(cfg)
    assert trace.summary["final_t"] == 20
    assert p.stats["topology.random_edge_gossip"].calls == 20
    assert p.stats["algorithms.step"].calls == 20


# Calls per layer on a traced 20-iteration ring-6 run: one step per
# iteration and (stride 1) one record per state. The run observes its 21
# states in one chunk, so one batched audit and one batched suboptimality
# serve all of them. The batched step mixes the momentum state in one
# augmented apply per iteration, where the two-apply step made two. Each
# state's step size is computed once (21), the averager takes one push per
# event and one for the chunk's tail (22), and the start state and the
# stream bundle are built once: a run that bound one of these names at
# import time would drop its layer from traced runs.
_LAYER_CALLS = {
    "algorithms.step": 20,
    "algorithms.audit_identities": 1,
    "objectives.global_suboptimality": 1,
    "diagnostics.record_iteration": 21,
    "algorithms.step_size": 21,
    "diagnostics.averager_push": 22,
    "algorithms.init_state": 1,
    "streams.from_seed": 1,
}


def test_traced_runs_keep_their_layer_call_counts():
    probe = _load_probe()
    for algo, mixing in (("dsgt", "metropolis"), ("ssdsgt", "metropolis"), ("assdsgt", "lazy-metropolis")):
        for sigma in (0.0, 1.0):
            cfg = ExperimentConfig(
                topology="ring", agents=6, algo=algo, mixing=mixing, iters=20, sigma_bar=sigma
            )
            with probe.Probe(traced=True) as p:
                netgrad.harness.run_experiment(cfg)
            calls = {layer: p.stats[layer].calls for layer in _LAYER_CALLS}
            assert calls == _LAYER_CALLS, (algo, sigma)
            augmented = p.stats.get("topology.augmented_apply")
            assert (augmented.calls if augmented else 0) == (20 if algo == "assdsgt" else 0), algo


def test_traced_runs_observe_once_per_chunk(monkeypatch):
    # Chunks of 8 split the 21 states 8, 8, 5: three batched passes, and
    # three tail pushes to the averager.
    probe = _load_probe()
    monkeypatch.setattr(netgrad.harness, "_OBSERVE_CHUNK", 8)
    cfg = ExperimentConfig(topology="ring", agents=6, iters=20)
    with probe.Probe(traced=True) as p:
        netgrad.harness.run_experiment(cfg)
    calls = {layer: p.stats[layer].calls for layer in _LAYER_CALLS}
    assert calls == {
        **_LAYER_CALLS,
        "algorithms.audit_identities": 3,
        "objectives.global_suboptimality": 3,
        "diagnostics.averager_push": 24,
    }


def test_a_noisy_momentum_run_makes_one_augmented_apply_per_step():
    probe = _load_probe()
    cfg = ExperimentConfig(
        topology="ring", agents=6, algo="assdsgt", mixing="lazy-metropolis", sigma_bar=1.0, iters=20
    )
    with probe.Probe(traced=True) as p:
        trace = netgrad.harness.run_experiment(cfg)
    assert trace.summary["final_t"] == 20
    assert p.stats["algorithms.step"].calls == 20
    assert p.stats["topology.augmented_apply"].calls == 20
