"""Decentralized gradient-tracking simulator.

A small library plus command line tool for simulating gradient-tracking
optimization over networks of agents: mixing operators (dense gossip
matrices, single-edge random gossip, the momentum-augmented operator) with
their spectral quantities, snapshot and momentum-accelerated tracking
iterations, Lyapunov-style diagnostics, and a deterministic experiment
harness with trace files and sweeps.
"""

from __future__ import annotations

from .algorithms import (
    ALGORITHMS,
    DsgtState,
    Schedule,
    SsState,
    assdsgt_step,
    audit_identities,
    dsgt_step,
    init_state,
    ssdsgt_step,
    step_size,
    theory_schedule,
)
from .diagnostics import (
    CSV_COLUMNS,
    IterRecord,
    WeightedAverager,
    consensus_error,
    lyapunov_psi,
    lyapunov_psi_tilde,
    record_iteration,
    snapshot_gradient_distance,
)
from .errors import ConfigError, InvariantViolation
from .harness import (
    ExperimentConfig,
    SweepResult,
    Trace,
    iterations_to_epsilon,
    load_config,
    prepare_run,
    read_trace,
    run_experiment,
    save_config,
    sweep_topology,
    write_trace,
)
from .objectives import (
    NoiseModel,
    QuadraticProblem,
    exact_gradient,
    exact_gradients,
    global_suboptimality,
    global_value,
    make_quadratic_suite,
    stochastic_gradient,
    stochastic_gradients,
)
from .plotting import emit_plot
from .streams import StreamBundle
from .topology import (
    MOMENTUM_ENVELOPE,
    AugmentedMixing,
    EdgeGossip,
    Graph,
    MixingMatrix,
    build_graph,
    chebyshev_augment,
    default_gamma,
    gossip_contraction,
    lazify,
    metropolis_mixing,
    random_edge_gossip,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "ALGORITHMS",
    "CSV_COLUMNS",
    "MOMENTUM_ENVELOPE",
    "AugmentedMixing",
    "ConfigError",
    "DsgtState",
    "EdgeGossip",
    "ExperimentConfig",
    "Graph",
    "InvariantViolation",
    "IterRecord",
    "MixingMatrix",
    "NoiseModel",
    "QuadraticProblem",
    "Schedule",
    "SsState",
    "StreamBundle",
    "SweepResult",
    "Trace",
    "WeightedAverager",
    "assdsgt_step",
    "audit_identities",
    "build_graph",
    "chebyshev_augment",
    "consensus_error",
    "default_gamma",
    "dsgt_step",
    "emit_plot",
    "exact_gradient",
    "exact_gradients",
    "global_suboptimality",
    "global_value",
    "gossip_contraction",
    "init_state",
    "iterations_to_epsilon",
    "lazify",
    "load_config",
    "lyapunov_psi",
    "lyapunov_psi_tilde",
    "make_quadratic_suite",
    "metropolis_mixing",
    "prepare_run",
    "random_edge_gossip",
    "read_trace",
    "record_iteration",
    "run_experiment",
    "save_config",
    "snapshot_gradient_distance",
    "ssdsgt_step",
    "step_size",
    "stochastic_gradient",
    "stochastic_gradients",
    "sweep_topology",
    "theory_schedule",
    "write_trace",
]
