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
