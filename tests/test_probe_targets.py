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
# iteration, one audit and one suboptimality per observed iteration, and
# (stride 1) one record. The record reuses the loop's suboptimality, where it
# used to read it a second time (42 calls). The batched step mixes the
# momentum state in one augmented apply per iteration, where the two-apply
# step made two.
_LAYER_CALLS = {
    "algorithms.step": 20,
    "algorithms.audit_identities": 21,
    "objectives.global_suboptimality": 21,
    "diagnostics.record_iteration": 21,
}


def test_traced_runs_keep_their_layer_call_counts():
    probe = _load_probe()
    for algo, mixing in (("dsgt", "metropolis"), ("ssdsgt", "metropolis"), ("assdsgt", "lazy-metropolis")):
        cfg = ExperimentConfig(topology="ring", agents=6, algo=algo, mixing=mixing, iters=20)
        with probe.Probe(traced=True) as p:
            netgrad.harness.run_experiment(cfg)
        calls = {layer: p.stats[layer].calls for layer in _LAYER_CALLS}
        assert calls == _LAYER_CALLS, algo
        augmented = p.stats.get("topology.augmented_apply")
        assert (augmented.calls if augmented else 0) == (20 if algo == "assdsgt" else 0), algo
