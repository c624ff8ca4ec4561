"""Outside-in instrumentation of the netgrad package.

The probe replaces public functions and methods of the ``netgrad`` modules at
the names their callers look up (a module global such as
``netgrad.harness.ssdsgt_step``, or a class attribute such as
``AugmentedMixing.apply``) with timing wrappers, and puts the originals back
when it is closed. No file of the package changes.

Every wrapper keeps, for its layer, the number of calls, the inclusive time
and the self time: inclusive time minus the inclusive time of wrapped calls
made from inside it. A call stack of child-time accumulators makes the self
times of all layers add up to the inclusive time of the outermost wrapper.

Two sets of wrappers exist:

* the run observer (always on): ``harness.prepare_run`` for the set-up time
  and ``harness.run_experiment`` for each run's config, trace and wall time.
  Both are called a few times per command, so the untraced measurement
  carries no per-iteration cost;
* the layer wrappers (traced passes only): every other entry of
  :data:`LAYER_TARGETS`, which are called once or more per iteration.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field
from typing import Any, Callable

import netgrad.algorithms
import netgrad.cli
import netgrad.diagnostics
import netgrad.harness
import netgrad.objectives
import netgrad.streams
import netgrad.topology

#: Names the run observer wraps: (owner, attribute, layer).
OBSERVER_TARGETS: tuple[tuple[Any, str, str], ...] = (
    (netgrad.cli, "run_experiment", "harness.loop"),
    (netgrad.harness, "run_experiment", "harness.loop"),
    (netgrad.harness, "prepare_run", "harness.prepare_run"),
)

#: Names the traced passes wrap in addition: (owner, attribute, layer).
#: Several names can feed one layer; each is wrapped where its caller looks
#: it up, so calls inside a module to its own functions stay unwrapped and
#: count as the caller's self time.
LAYER_TARGETS: tuple[tuple[Any, str, str], ...] = (
    (netgrad.cli, "main", "cli.main"),
    (netgrad.cli, "sweep_topology", "harness.sweep"),
    (netgrad.cli, "write_trace", "harness.write_trace"),
    (netgrad.cli, "read_trace", "harness.read_trace"),
    (netgrad.cli, "emit_plot", "plotting.emit_plot"),
    (netgrad.harness, "build_graph", "topology.setup"),
    (netgrad.harness, "metropolis_mixing", "topology.setup"),
    (netgrad.harness, "lazify", "topology.setup"),
    (netgrad.harness, "gossip_contraction", "topology.setup"),
    (netgrad.harness, "default_gamma", "topology.setup"),
    (netgrad.harness, "chebyshev_augment", "topology.setup"),
    (netgrad.harness, "make_quadratic_suite", "objectives.make_quadratic_suite"),
    (netgrad.harness, "init_state", "algorithms.init_state"),
    (netgrad.harness, "ssdsgt_step", "algorithms.step"),
    (netgrad.harness, "dsgt_step", "algorithms.step"),
    (netgrad.harness, "assdsgt_step", "algorithms.step"),
    (netgrad.harness, "step_size", "algorithms.step_size"),
    (netgrad.algorithms, "step_size", "algorithms.step_size"),
    (netgrad.harness, "audit_identities", "algorithms.audit_identities"),
    (netgrad.harness, "record_iteration", "diagnostics.record_iteration"),
    (netgrad.harness, "global_suboptimality", "objectives.global_suboptimality"),
    (netgrad.diagnostics, "global_suboptimality", "objectives.global_suboptimality"),
    (netgrad.harness, "random_edge_gossip", "topology.random_edge_gossip"),
    (netgrad.algorithms, "stochastic_gradients", "objectives.stochastic_gradients"),
    (netgrad.streams.StreamBundle, "from_seed", "streams.from_seed"),
    (netgrad.topology.AugmentedMixing, "apply", "topology.augmented_apply"),
    (netgrad.diagnostics.WeightedAverager, "push", "diagnostics.averager_push"),
    (netgrad.objectives.NoiseModel, "sample", "objectives.noise_sample"),
)


@dataclass
class LayerStat:
    """Calls, inclusive seconds and self seconds of one layer."""

    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


@dataclass
class ObservedRun:
    """One ``run_experiment`` call: its config, result and wall time.

    ``self_s`` holds the self seconds each layer gained during the call,
    which breaks a traced pass down by run (for example by algorithm).
    ``trace`` may be dropped once it has been checked; ``final_t`` stays.
    """

    command: int
    cfg: Any
    trace: Any
    final_t: int
    wall_s: float
    self_s: dict[str, float]


@dataclass
class Probe:
    """Wraps netgrad names, collects layer statistics and observed runs.

    Use as a context manager; leaving it restores every original.
    """

    traced: bool
    stats: dict[str, LayerStat] = field(default_factory=dict)
    runs: list[ObservedRun] = field(default_factory=list)
    command: int = 0
    _stack: list[float] = field(default_factory=lambda: [0.0])
    _saved: list[tuple[Any, str, Any]] = field(default_factory=list)

    def __enter__(self) -> "Probe":
        targets = OBSERVER_TARGETS + (LAYER_TARGETS if self.traced else ())
        try:
            for owner, name, layer in targets:
                self._install(owner, name, layer)
        except BaseException:
            self.close()
            raise
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def close(self) -> None:
        """Put every original back, newest first."""
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    @property
    def setup_s(self) -> float:
        """Inclusive seconds spent in ``harness.prepare_run`` this pass."""
        stat = self.stats.get("harness.prepare_run")
        return stat.total_s if stat else 0.0

    def _install(self, owner: Any, name: str, layer: str) -> None:
        if isinstance(owner, type):
            # Class attributes: keep the descriptor (plain function or
            # classmethod) so binding behaves exactly as before.
            original = owner.__dict__[name]
            if isinstance(original, classmethod):
                replacement: Any = classmethod(self._timed(layer, original.__func__))
            else:
                replacement = self._timed(layer, original)
        else:
            original = getattr(owner, name)
            replacement = self._timed(layer, original)
            if name == "run_experiment":
                replacement = self._observed(replacement)
        self._saved.append((owner, name, original))
        setattr(owner, name, replacement)

    def _timed(self, layer: str, fn: Callable) -> Callable:
        stats = self.stats
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = stack.pop()
                stack[-1] += elapsed
                stat = stats.get(layer)
                if stat is None:
                    stat = stats[layer] = LayerStat()
                stat.calls += 1
                stat.total_s += elapsed
                stat.self_s += elapsed - child

        return wrapper

    def _self_times(self) -> dict[str, float]:
        return {layer: stat.self_s for layer, stat in self.stats.items()}

    def _observed(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(cfg: Any, *args: Any, **kwargs: Any) -> Any:
            before = self._self_times()
            start = time.perf_counter()
            trace = fn(cfg, *args, **kwargs)
            wall = time.perf_counter() - start
            gained = {k: v - before.get(k, 0.0) for k, v in self._self_times().items()}
            self.runs.append(
                ObservedRun(self.command, cfg, trace, trace.summary["final_t"], wall, gained)
            )
            return trace

        return wrapper
