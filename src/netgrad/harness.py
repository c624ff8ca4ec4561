"""Experiment configuration, deterministic runs, sweeps, and trace files.

A run is fully described by an :class:`ExperimentConfig`: topology, mixing
variant, algorithm, problem parameters, schedule selection, horizon, seeds,
and recording cadence. A config checks every field when it is built, so a
config that exists is valid and nothing downstream checks it again.
:func:`run_experiment` executes it deterministically through one private
``_Run`` (which steps and then observes a chunk of states at a time,
auditing the tracking identities as it goes) and returns a :class:`Trace`
that can be written to a CSV file and reloaded losslessly.

Randomness is split into four independent purposes: problem generation uses
``problem_seed``; the run seed fans out into the snapshot coin stream, the
gossip edge stream, and one gradient-noise stream per agent. Thread counts
never touch draw order, so repeated runs at one OpenBLAS thread count are
byte-identical. Across thread counts the last bits of large decompositions
and products can differ (ring-256 ``ssdsgt`` traces do); the benchmark and
its frozen digests run at one thread.
"""

from __future__ import annotations

import json
import math
import os
import typing
from dataclasses import asdict, dataclass, replace
from operator import attrgetter
from pathlib import Path

import numpy as np

from .algorithms import (
    _AUDITED,
    ALGORITHMS,
    Schedule,
    StateBuffer,
    assdsgt_step,
    audit_identities,
    dsgt_step,
    init_state,
    ssdsgt_step,
    state_means,
    step_size,
    theory_schedule,
)
from .diagnostics import (
    CSV_COLUMNS,
    IterRecord,
    WeightedAverager,
    record_iteration,
)
from .errors import ConfigError, InvariantViolation
from .objectives import QuadraticProblem, global_suboptimality, make_quadratic_suite
from .streams import StreamBundle
from .topology import (
    AugmentedMixing,
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

__all__ = [
    "TOPOLOGIES",
    "MIXINGS",
    "AUDIT_ABORT_TOL",
    "ExperimentConfig",
    "Trace",
    "RunSetup",
    "prepare_run",
    "run_experiment",
    "iterations_to_epsilon",
    "tune_dsgt_step",
    "tune_dsgt_beta",
    "SweepRow",
    "SweepResult",
    "sweep_topology",
    "write_trace",
    "read_trace",
    "save_config",
    "load_config",
]

TOPOLOGIES: tuple[str, ...] = ("ring", "grid", "star", "complete")
MIXINGS: tuple[str, ...] = ("metropolis", "lazy-metropolis", "random-gossip")

#: Runs abort when any audited identity ratio exceeds this threshold.
AUDIT_ABORT_TOL = 1e-7

#: Largest ``L`` a config may set: the curvature matrices, symmetrised sums
#: of products up to ``L`` in size, stay finite.
_MAX_L = 1e300
#: Largest ``L / mu`` a config may set. Float64 computes a curvature only to
#: about ``d * 2**-52 * L``, which is ``d * 2.2e-4 * mu`` at this bound; far
#: past it the smallest curvature, ``mu``, drowns in rounding and an agent's
#: matrix can come out indefinite or singular.
_MAX_CONDITION = 1e12

_SCHEDULE_MODES = ("auto", "constant", "decaying")
_DSGT_TUNINGS = ("matched", "tuned")


@dataclass(frozen=True)
class ExperimentConfig:
    """Complete description of one simulator run.

    Building a config, through the constructor, ``dataclasses.replace`` or
    :meth:`from_dict`, checks every field and raises :class:`ConfigError`
    naming the first offending one, so an invalid config never exists.

    Attributes:
        topology: Graph family, one of :data:`TOPOLOGIES`.
        agents: Number of agents (perfect square for ``grid``).
        mixing: Mixing variant, one of :data:`MIXINGS`. The momentum
            algorithm requires ``lazy-metropolis`` (a static positive
            semidefinite matrix).
        algo: Algorithm tag, one of
            :data:`~netgrad.algorithms.ALGORITHMS`.
        d: Decision dimension.
        mu: Strong convexity modulus.
        L: Smoothness constant.
        sigma_bar: Gradient noise level.
        heterogeneity: Spread of the per-agent linear terms.
        problem_seed: Seed for problem generation (and the start direction).
        schedule: ``auto`` picks ``constant`` for noiseless runs and
            ``decaying`` for noisy ones; the other values force a mode.
        step_multiplier: Scale on the template step size.
        dsgt_tuning: For the plain tracking baseline only: ``matched`` uses
            the squared-gap template, ``tuned`` searches for a good step.
        iters: Iteration horizon ``T``.
        seed: Run seed feeding the coin, gossip, and noise streams.
        stride: Recording cadence; iteration 0 and the final iteration are
            always recorded.
        x0_radius: When set, start all agents at ``x* + radius * u`` for a
            deterministic unit direction ``u`` drawn from the problem
            stream; when ``None``, start at the origin.
        eps_stop: Optional suboptimality target that ends the run early
            (the weighted-average suboptimality for noisy runs).
        avg_checkpoints: Iterations at which the running weighted-average
            suboptimality is stored into the summary (``wavg_at``), each in
            ``[0, iters]``; a run that stops early stores the ones it
            reached.
        label: Optional display label for plots.
        out: Optional default trace output path used by the command line.
    """

    topology: str = "ring"
    agents: int = 8
    mixing: str = "metropolis"
    algo: str = "ssdsgt"
    d: int = 2
    mu: float = 1.0
    L: float = 2.0
    sigma_bar: float = 0.0
    heterogeneity: float = 1.0
    problem_seed: int = 0
    schedule: str = "auto"
    step_multiplier: float = 1.0
    dsgt_tuning: str = "matched"
    iters: int = 1000
    seed: int = 0
    stride: int = 1
    x0_radius: float | None = None
    eps_stop: float | None = None
    avg_checkpoints: tuple[int, ...] = ()
    label: str | None = None
    out: str | None = None

    def __post_init__(self) -> None:
        """Raise :class:`ConfigError` naming the first offending field.

        Every field is checked against its type hint first (see
        :func:`_check_type`), and an integer in a float field is stored as a
        float, or rejected when float64 cannot hold it; then every field is
        checked against the rules of its value.
        """
        for name, (kind, nullable) in _FIELD_TYPES.items():
            value = getattr(self, name)
            try:
                _check_type(kind, nullable, value)
                if kind is float and _is_int(value):
                    object.__setattr__(self, name, float(value))
            except (TypeError, OverflowError) as exc:
                raise ConfigError(str(exc), name) from None
        self._validate_network()
        if self.d < 1:
            raise ConfigError(f"needs a positive integer, got {self.d!r}", "d")
        for name in _FLOAT_FIELDS:
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ConfigError(f"must be finite, got {value}", name)
        if not (self.mu > 0.0):
            raise ConfigError(f"must be positive, got {self.mu}", "mu")
        if not (self.L >= self.mu):
            raise ConfigError(f"must be at least mu={self.mu}, got {self.L}", "L")
        if self.L > _MAX_L:
            raise ConfigError(f"must be at most {_MAX_L:g}, got {self.L}", "L")
        if self.L > _MAX_CONDITION * self.mu:
            # The one of the two farther from 1 on a log scale is named.
            raise ConfigError(
                f"L/mu = {self.L / self.mu:.3g} is past {_MAX_CONDITION:g}, the conditioning "
                "float64 can hold",
                "mu" if self.mu * self.L < 1.0 else "L",
            )
        if self.sigma_bar < 0.0:
            raise ConfigError(f"must be nonnegative, got {self.sigma_bar}", "sigma_bar")
        if self.heterogeneity < 0.0:
            raise ConfigError(f"must be nonnegative, got {self.heterogeneity}", "heterogeneity")
        _require_choice(self.schedule, _SCHEDULE_MODES, "schedule")
        if not (self.step_multiplier > 0.0):
            raise ConfigError(f"must be positive, got {self.step_multiplier}", "step_multiplier")
        _require_choice(self.dsgt_tuning, _DSGT_TUNINGS, "dsgt_tuning")
        step_search = self.algo == "dsgt" and self.dsgt_tuning == "tuned" and self.sigma_bar == 0.0
        if step_search and self.mixing == "random-gossip":
            raise ConfigError(
                "the noiseless step search needs a static mixing matrix, got 'random-gossip'",
                "dsgt_tuning",
            )
        for name, least in (("problem_seed", 0), ("seed", 0), ("iters", 1), ("stride", 1)):
            value = getattr(self, name)
            if value < least:
                sign = "positive" if least else "nonnegative"
                raise ConfigError(f"needs a {sign} integer, got {value!r}", name)
        if self.x0_radius is not None and not (self.x0_radius >= 0.0):
            raise ConfigError(f"must be nonnegative, got {self.x0_radius}", "x0_radius")
        if self.eps_stop is not None and not (self.eps_stop > 0.0):
            raise ConfigError(f"must be positive, got {self.eps_stop}", "eps_stop")
        for value in self.avg_checkpoints:
            if not 0 <= value <= self.iters:
                raise ConfigError(
                    f"entries need to be integers in [0, iters={self.iters}], got {value!r}",
                    "avg_checkpoints",
                )

    def _validate_network(self) -> None:
        """The value rules of the network and algorithm fields, in :meth:`__post_init__`'s order."""
        _require_choice(self.topology, TOPOLOGIES, "topology")
        if self.agents < 1:
            raise ConfigError(f"needs a positive integer, got {self.agents!r}", "agents")
        if self.topology == "grid":
            side = math.isqrt(self.agents)
            if side * side != self.agents:
                raise ConfigError(
                    f"grid topology needs a perfect square, got {self.agents}", "agents"
                )
        _require_choice(self.mixing, MIXINGS, "mixing")
        if self.mixing == "random-gossip" and self.agents < 2:
            raise ConfigError(
                f"random gossip draws an edge, so it needs at least 2 agents, got {self.agents}",
                "agents",
            )
        _require_choice(self.algo, ALGORITHMS, "algo")
        if self.algo == "assdsgt" and self.mixing != "lazy-metropolis":
            raise ConfigError(
                "the momentum algorithm needs the static positive semidefinite "
                f"'lazy-metropolis' mixing, got '{self.mixing}'",
                "mixing",
            )

    def effective_schedule_mode(self) -> str:
        if self.schedule != "auto":
            return self.schedule
        return "constant" if self.sigma_bar == 0.0 else "decaying"

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        """Build a config from its JSON object.

        A JSON list becomes a tuple; every other value is passed on as it is,
        for the constructor to check.
        """
        if not isinstance(data, dict):
            raise ConfigError(f"configuration must be a JSON object, got {type(data).__name__}")
        kwargs: dict = {}
        for key, value in data.items():
            if key not in _FIELD_TYPES:
                raise ConfigError("unknown configuration field", key)
            if isinstance(value, list) and typing.get_origin(_FIELD_TYPES[key][0]) is tuple:
                value = tuple(value)
            kwargs[key] = value
        return cls(**kwargs)


def _field_type(hint: object) -> tuple[object, bool]:
    """A field's type hint as its type without ``None`` and whether it allows ``None``."""
    args = typing.get_args(hint)
    if type(None) not in args:
        return hint, False
    (kind,) = (arg for arg in args if arg is not type(None))
    return kind, True


#: Every :class:`ExperimentConfig` field, in declaration order, with its
#: :func:`_field_type`.
_FIELD_TYPES = {name: _field_type(hint) for name, hint in typing.get_type_hints(ExperimentConfig).items()}
#: Float fields of :class:`ExperimentConfig`; each must be finite when set.
_FLOAT_FIELDS = tuple(name for name, (kind, _) in _FIELD_TYPES.items() if kind is float)


def _require_choice(value: str, choices: tuple[str, ...], name: str) -> None:
    """Raise :class:`ConfigError` on field ``name`` unless ``value`` is one of ``choices``."""
    if value not in choices:
        raise ConfigError(f"must be one of {choices}, got '{value}'", name)


def _is_int(value: object) -> bool:
    """Whether ``value`` is an integer; a bool is not one."""
    return isinstance(value, int) and not isinstance(value, bool)


def _check_type(kind: object, nullable: bool, value: object) -> None:
    """Raise ``TypeError`` unless ``value`` fits a field of type ``kind``.

    Field types are ``int``, ``float``, ``str``, one of these ``| None``
    (``nullable``), or ``tuple[int, ...]``. A bool is not a number, and an
    int is fine in a float field. A tuple field needs a tuple: a list would
    leave the config unhashable and unequal to its saved copy, whose JSON
    list :meth:`ExperimentConfig.from_dict` turns into a tuple.
    """
    if nullable and value is None:
        return
    null = " or null" if nullable else ""
    if kind is int:
        if not _is_int(value):
            raise TypeError(f"expected an integer{null}, got {value!r}")
    elif kind is float:
        if not (_is_int(value) or isinstance(value, float)):
            raise TypeError(f"expected a number{null}, got {value!r}")
    elif kind is str:
        if not isinstance(value, str):
            raise TypeError(f"expected a string{null}, got {value!r}")
    # tuple[int, ...], the one remaining field type
    elif not isinstance(value, tuple):
        raise TypeError(f"expected a tuple of integers, got {value!r}")
    else:
        for item in value:
            if not _is_int(item):
                raise TypeError(f"expected integers, got {item!r}")


@dataclass
class Trace:
    """Result of one run: its config, records, and summary statistics."""

    config: ExperimentConfig
    records: list[IterRecord]
    summary: dict


@dataclass
class RunSetup:
    """Resolved ingredients of a run: problem, mixing, schedule, start point."""

    cfg: ExperimentConfig
    graph: Graph
    problem: QuadraticProblem
    w: MixingMatrix | None
    aug: AugmentedMixing | None
    theta: float
    sched: Schedule
    x0: np.ndarray


def _resolve_x0(cfg: ExperimentConfig, problem: QuadraticProblem, rng: np.random.Generator) -> np.ndarray:
    if cfg.x0_radius is None:
        return np.zeros(problem.d)
    direction = rng.standard_normal(problem.d)
    norm = float(np.linalg.norm(direction))
    if norm == 0.0:
        direction = np.zeros(problem.d)
        direction[0] = 1.0
        norm = 1.0
    return problem.x_star + (cfg.x0_radius / norm) * direction


class _Network(typing.NamedTuple):
    """A graph, its mixing matrix (``None`` for gossip) and the gap the network contracts by."""

    graph: Graph
    w: MixingMatrix | None
    lambda2: float
    theta: float

    def momentum(self) -> AugmentedMixing:
        """The momentum-augmented operator on the matrix, damped critically for its ``lambda2``."""
        assert self.w is not None
        return chebyshev_augment(self.w, default_gamma(self.lambda2))


def _network(cfg: ExperimentConfig) -> _Network:
    """The network a run, the decay tuner and ``validate-mixing`` all read.

    ``lambda2`` and ``theta`` are the matrix's, or the gossip family's. Only
    that one spectrum is computed: gossip builds no matrix, and a lazy
    network decomposes the lazy matrix, never its Metropolis base.
    """
    graph = build_graph(cfg.topology, cfg.agents)
    if cfg.mixing == "random-gossip":
        return _Network(graph, None, *gossip_contraction(graph))
    w = metropolis_mixing(graph)
    if cfg.mixing == "lazy-metropolis":
        w = lazify(w)
    return _Network(graph, w, w.lambda2, w.theta)


def prepare_run(cfg: ExperimentConfig) -> RunSetup:
    """Build every run ingredient of a config deterministically.

    The schedule is the config's template; :func:`run_experiment` may replace it.
    """
    net = _network(cfg)
    problem_rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(cfg.problem_seed)))
    problem = make_quadratic_suite(
        cfg.agents,
        cfg.d,
        cfg.mu,
        cfg.L,
        cfg.heterogeneity,
        problem_rng,
        sigma_bar=cfg.sigma_bar,
    )
    x0 = _resolve_x0(cfg, problem, problem_rng)
    aug = net.momentum() if cfg.algo == "assdsgt" else None
    theta = aug.theta_tilde if aug is not None else net.theta
    sched = theory_schedule(
        cfg.algo, cfg.effective_schedule_mode(), theta, cfg.L, cfg.mu, multiplier=cfg.step_multiplier
    )
    return RunSetup(
        cfg=cfg, graph=net.graph, problem=problem, w=net.w, aug=aug, theta=theta, sched=sched, x0=x0
    )


class _AuditTracker:
    """Normalizes identity residuals against running scale maxima, a chunk at a time.

    Every audited identity has a fixed column (:data:`_AUDITED` order). An
    identity whose ratio never leaves zero keeps a zero maximum and stays
    out of :meth:`summary`.
    """

    def __init__(self) -> None:
        self.scales = np.zeros(len(_AUDITED))
        self.max_ratio = np.zeros(len(_AUDITED))

    def fold(self, errors: np.ndarray, scales: np.ndarray, subopts: list[float]) -> tuple[int, str | None]:
        """Take a chunk's ``(K, 4)`` residuals; return its first failure.

        Each state's running scale is the largest scale seen so far, a NaN
        passed over as Python's ``max`` passes it (the carried scale is
        never NaN), and its ratio is the error over it. A state fails when
        a ratio is above :data:`AUDIT_ABORT_TOL` or NaN, or when its
        suboptimality is not finite, and its checks go in this order: mean
        dynamics, suboptimality, then the block sums and the tracker mean.
        The result is the index of the first failing state and its
        message, or ``(K, None)``. Nothing is folded into the maxima until
        :meth:`settle`.
        """
        running = np.fmax.accumulate(np.concatenate([self.scales[None], scales]), axis=0)[1:]
        # A zero error gives a zero ratio, as the running scale is never NaN.
        ratios = errors / np.maximum(running, 1e-300)
        self._ratios, self._running = ratios, running
        bad = np.empty((len(errors), 5), dtype=bool)
        # Written so that a NaN ratio (a non-finite state) also fails.
        np.logical_not(ratios[:, :1] <= AUDIT_ABORT_TOL, out=bad[:, :1])
        np.logical_not(np.isfinite(subopts), out=bad[:, 1])
        np.logical_not(ratios[:, 1:] <= AUDIT_ABORT_TOL, out=bad[:, 2:])
        index, check = divmod(int(bad.argmax()), 5)
        if not bad[index, check]:
            return len(errors), None
        if check == 1:
            return index, f"suboptimality of the average iterate is {subopts[index]}"
        column = check - (check > 1)
        return index, (
            f"identity '{_AUDITED[column]}' off by a relative {float(ratios[index, column]):.3e} "
            f"(threshold {AUDIT_ABORT_TOL:g})"
        )

    def settle(self, walked: int) -> None:
        """Fold in the ratios of the last chunk's first ``walked`` states and carry their scales."""
        self.max_ratio = np.maximum(self.max_ratio, self._ratios[:walked].max(axis=0))
        self.scales = self._running[walked - 1]

    def summary(self) -> dict[str, float]:
        """The largest ratio of every identity that was ever off, by name."""
        return {name: r for name, r in sorted(zip(_AUDITED, self.max_ratio.tolist())) if r > 0.0}


def run_experiment(
    cfg: ExperimentConfig,
    schedule_override: Schedule | None = None,
) -> Trace:
    """Run one experiment deterministically and return its trace.

    The run audits its tracking identities at every step, normalizing each
    residual by the running maximum of the magnitudes involved, and aborts
    with :class:`InvariantViolation` if any ratio exceeds
    :data:`AUDIT_ABORT_TOL` or is NaN. It also aborts, naming the iteration,
    when the suboptimality or a recorded diagnostic stops being finite.
    Iteration 0 and the final iteration are always
    recorded; intermediate iterations are recorded every ``stride`` steps.

    Args:
        cfg: The experiment description.
        schedule_override: Advanced hook replacing the template schedule
            (used by the step-size tuners). When the plain tracking baseline
            is configured with ``dsgt_tuning='tuned'`` and no override is
            given, a tuning search runs first and its winner is used.

    Returns:
        The completed :class:`Trace`.
    """
    sched = schedule_override or _tuned_schedule(cfg)
    setup = prepare_run(cfg)
    # A diverging state, or an overflowing start, overflows before the
    # finiteness checks see it; the checks report it with its iteration, so
    # numpy's warnings add nothing.
    with np.errstate(over="ignore", invalid="ignore"):
        run = _Run(setup if sched is None else replace(setup, sched=sched))
        while not run.observe_chunk(run.step_chunk()):
            pass
    return run.trace()


def _tuned_schedule(cfg: ExperimentConfig) -> Schedule | None:
    """The tuner's schedule for a tuned baseline config, else ``None``.

    Noiseless runs get the halving search toward ``cfg.eps_stop`` and noisy
    runs the decay-scale grid.
    """
    if cfg.algo != "dsgt" or cfg.dsgt_tuning != "tuned":
        return None
    if cfg.sigma_bar == 0.0:
        return tune_dsgt_step(cfg)
    return tune_dsgt_beta(cfg)


#: Most consecutive states a run observes in one batched pass.
_OBSERVE_CHUNK = 64
#: Bound on the doubles of a run's chunk buffer, its states and their
#: gradient rows (1 MiB); a chunk holds at least one step however large
#: ``m * d`` is. At m = 1024, d = 2 a momentum run observes 11 states a
#: chunk and a snapshot run 20.
_CHUNK_DOUBLES = 2**17


def _event_indices(start: int, count: int, cfg: ExperimentConfig, subopts: list[float]) -> list[int]:
    """The indices below ``count`` of the chunk states a run's walk visits, in order.

    The chunk's states are iterations ``start``, ``start + 1`` and on, with
    suboptimalities ``subopts``. Its events are the records (every
    ``stride``-th iteration and the horizon), the checkpoints and the early
    stop. A noiseless run stops at its first suboptimality at or under
    ``eps_stop``, found here, and the walk ends there. A noisy run with
    a target tests the running average, which only the walk knows, so every
    state is an event.
    """
    if cfg.eps_stop is not None and cfg.sigma_bar > 0.0:
        return list(range(count))
    end = start + count
    stride = cfg.stride
    ts = set(range(start + (-start) % stride, end, stride))
    ts.update(t for t in cfg.avg_checkpoints if start <= t < end)
    if start <= cfg.iters < end:
        ts.add(cfg.iters)
    if cfg.eps_stop is not None:
        # The walk ends at the first hit, so the later ones are never reached.
        hits = np.flatnonzero(np.less_equal(subopts[:count], cfg.eps_stop))
        if len(hits):
            ts.add(start + int(hits[0]))
    return [t - start for t in sorted(ts)]


def _seed_free(cfg: ExperimentConfig) -> bool:
    """Whether a run of ``cfg`` draws nothing from its run seed.

    The run seed feeds three streams (see :class:`~netgrad.streams.StreamBundle`),
    and each condition shuts one of them:

    * ``sigma_bar == 0``: a noiseless gradient is exact and reads no agent's
      noise stream;
    * ``algo == "dsgt"``: the plain baseline re-takes its snapshot at every
      iterate, so it flips no snapshot coin (the other two algorithms draw
      one every step);
    * a static mixing matrix: ``random-gossip`` draws an edge every step.

    Such a run gives the same trace for every seed, which
    ``tests/test_run_invariants.py::test_noiseless_dsgt_on_a_static_matrix_is_the_same_for_every_seed``
    pins; :func:`sweep_topology` runs such a cell once for all its seeds.
    """
    return cfg.sigma_bar == 0.0 and cfg.algo == "dsgt" and cfg.mixing != "random-gossip"


class _Run:
    """One prepared run: its chunk buffer and what it carries from one chunk to the next.

    :meth:`step_chunk` steps the run's states straight into the slots of its
    :class:`StateBuffer`, :data:`_OBSERVE_CHUNK` to a chunk (fewer when the
    buffer would pass :data:`_CHUNK_DOUBLES`). :meth:`observe_chunk` takes
    the chunk's state means, audits and suboptimalities in one batched pass
    each, folds the audit ratios to find the first failing state, and walks
    the event states before it in iteration order: records, checkpoints and
    the early stop (every state, for a noisy run with a target, whose stop
    test reads the running average), pushing the states up to each event to
    the averager in one segment. The first stop or violation ends the run
    and discards the states stepped past it, so a run's records, summary
    and failure do not depend on the chunk length. The hooks a run calls are
    module globals looked up as it goes, so wrappers on them see every call.
    """

    def __init__(self, setup: RunSetup) -> None:
        cfg = setup.cfg
        self.setup = setup
        self.streams = StreamBundle.from_seed(cfg.seed, setup.problem.m)
        self.step = {"dsgt": dsgt_step, "ssdsgt": ssdsgt_step, "assdsgt": assdsgt_step}[cfg.algo]
        # The one per-algorithm fact the buffer does not hold: a ``dsgt``
        # step moves the iterate mean by the gradient rows of the state
        # before it (slot offset 0), a snapshot step by its own (offset 1).
        self.moved = int(cfg.algo != "dsgt")
        self.static_op = setup.aug or setup.w
        state = init_state(setup.problem, setup.x0, cfg.algo, self.streams)
        slot_doubles = state.xs.size + state.g_snap.size
        self.size = max(1, min(_OBSERVE_CHUNK, _CHUNK_DOUBLES // slot_doubles - 1))
        self.buffer = StateBuffer(state, self.size, self.static_op)
        self.state = self.buffer.states[0]
        # Each state's step size is computed once, for the walk and for the
        # step from that state: ``etas[k]`` is slot k's.
        self.etas = [step_size(setup.sched, self.state.t)]
        # A decaying step never grows, so a finite start keeps it finite, and
        # it falls from a positive start no faster than 3 / (mu * t) with
        # mu <= 1e300, so it stays positive for 6e23 steps.
        if not (0.0 < self.etas[0] < math.inf):
            raise ConfigError(
                f"the step size is {self.etas[0]:g}, outside (0, inf) (L={cfg.L:g})", "step_multiplier"
            )
        # The slot of the chunk's first observed state: the first chunk
        # observes the run's start in slot 0 and steps one state less; a
        # later chunk's slot 0 holds the last state of the chunk before.
        self.lo = 0
        self.audits = _AuditTracker()
        self.averager = WeightedAverager(mu=cfg.mu)
        self.records: list[IterRecord] = []
        self.wavg_at: dict[str, float] = {}
        self.checkpoints = set(cfg.avg_checkpoints)
        self.stopped_early = False

    def step_chunk(self) -> int:
        """Step the chunk's states into the buffer; return how many were stepped."""
        setup, state, etas = self.setup, self.state, self.etas
        count = min(self.size - 1 + self.lo, setup.cfg.iters - state.t)
        step, static_op, graph = self.step, self.static_op, setup.graph
        problem, sched, streams = setup.problem, setup.sched, self.streams
        eta, push_eta = etas[-1], etas.append
        for _ in range(count):
            op = static_op or random_edge_gossip(graph, streams.gossip)
            state = step(state, problem, op, sched, streams, eta)
            eta = step_size(sched, state.t)
            push_eta(eta)
        self.state = state
        return count

    def observe_chunk(self, count: int) -> bool:
        """Observe the ``count`` states just stepped; return whether the run is over."""
        cfg, problem, buffer, lo = self.setup.cfg, self.setup.problem, self.buffer, self.lo
        averager, eps, noisy = self.averager, cfg.eps_stop, cfg.sigma_bar > 0.0
        means = state_means(buffer.xs[: count + 1], problem.m)
        moved = slice(self.moved, count + self.moved)
        errors, scales = audit_identities(
            means, buffer.grads[: count + 1], self.etas[:count], moved, buffer.snapshot_slots(count), lo == 0
        )
        subopts = global_suboptimality(problem, means[lo:, -2 * self.state.blocks])
        observed = self.etas[lo:]
        failed, failure = self.audits.fold(errors, scales, subopts)
        pushed = 0
        for index in _event_indices(buffer.states[lo].t, failed, cfg, subopts):
            averager.push(observed[pushed : index + 1], subopts[pushed : index + 1])
            pushed = index + 1
            current = buffer.states[lo + index]
            t = current.t
            if t in self.checkpoints:
                self.wavg_at[str(t)] = averager.average
            stop = eps is not None and (averager.average if noisy else subopts[index]) <= eps
            if stop or t % cfg.stride == 0 or t == cfg.iters:
                try:
                    self.records.append(
                        record_iteration(
                            current, problem, observed[index], self.setup.theta, means[lo + index],
                            subopts[index], averager.average,
                        )
                    )
                except ValueError as exc:  # a non-finite or negative diagnostic
                    raise InvariantViolation(str(exc), iteration=t) from None
            if stop:
                self.state, self.stopped_early = current, True
                self.audits.settle(pushed)
                return True
        if failure is not None:
            raise InvariantViolation(failure, iteration=buffer.states[lo + failed].t)
        averager.push(observed[pushed:], subopts[pushed:])
        self.audits.settle(len(subopts))
        if self.state.t == cfg.iters:
            return True
        self.state = buffer.restart(self.state)
        self.etas = self.etas[-1:]
        self.lo = 1
        return False

    def trace(self) -> Trace:
        """The finished run's trace: its config, records and summary."""
        setup, sched = self.setup, self.setup.sched
        summary = {
            "final_t": self.state.t,
            "final_subopt": self.records[-1].subopt,
            "final_wavg_subopt": self.averager.average,
            "stopped_early": self.stopped_early,
            "theta": setup.theta,
            "schedule_mode": sched.mode,
            "eta0": sched.eta0,
            "beta": sched.beta,
            "p": sched.p,
            "audit_max": self.audits.summary(),
            "wavg_at": self.wavg_at,
        }
        if setup.aug is not None:
            summary["gamma"] = setup.aug.gamma
            summary["theta_tilde"] = setup.aug.theta_tilde
            summary["base_theta"] = setup.aug.base.theta
        return Trace(config=setup.cfg, records=self.records, summary=summary)


def iterations_to_epsilon(trace: Trace, eps: float) -> int | None:
    """First recorded iteration whose accuracy metric is at or below ``eps``.

    Noiseless runs use the recorded suboptimality of the average iterate;
    noisy runs use the running weighted-average suboptimality. Returns
    ``None`` when the trace never reaches the target.

    Raises:
        ValueError: When a record of a noisy trace carries no weighted
            average, as the records :func:`read_trace` loads do not: the
            trace CSV has no such column.
    """
    if not eps > 0.0:  # NaN fails the comparison too
        raise ValueError(f"eps must be positive, got {eps}")
    noisy = trace.config.sigma_bar > 0.0
    for record in trace.records:
        value = record.wavg_subopt if noisy else record.subopt
        if value is None:
            raise ValueError(
                f"record t={record.t} of a noisy trace has no weighted-average "
                "suboptimality (wavg_subopt), the metric a noisy trace is measured by"
            )
        if value <= eps:
            return record.t
    return None


def _dsgt_system_radius(setup: RunSetup, eta: float) -> float:
    """Spectral radius of the linear map driving the noiseless baseline.

    The stacked (iterate, tracker) error evolves linearly for quadratic
    objectives; this assembles the dense system matrix and returns its
    spectral radius restricted to the algorithm's invariant subspace. The
    restriction matters: the map conserves the per-coordinate difference
    between the tracker total and the gradient total, which contributes unit
    eigenvalues the iteration never excites (it starts with the conserved
    quantity at zero). The tuner uses the restricted radius to skip divergent
    candidates and to budget probe runs.
    """
    problem = setup.problem
    assert setup.w is not None
    m, d = problem.m, problem.d
    eye = np.eye(m * d)
    wk = np.kron(setup.w.entries, np.eye(d))
    blocks = np.zeros((m * d, m * d))
    for i in range(m):
        blocks[i * d : (i + 1) * d, i * d : (i + 1) * d] = problem.quads[i]
    top = np.concatenate([wk, -eta * wk], axis=1)
    bottom = np.concatenate([blocks @ (wk - eye), wk - eta * (blocks @ wk)], axis=1)
    system = np.concatenate([top, bottom], axis=0)
    conserved = np.concatenate(
        [-np.concatenate(list(problem.quads), axis=1), np.tile(np.eye(d), (1, m))],
        axis=1,
    )
    kernel = np.linalg.svd(conserved)[2][d:].T
    restricted = kernel.T @ system @ kernel
    return float(np.max(np.abs(np.linalg.eigvals(restricted))))


def tune_dsgt_step(cfg: ExperimentConfig) -> Schedule:
    """Halving search for a good constant step for the noiseless baseline.

    Starting from ``1 / L`` the candidate step is halved repeatedly; each
    stable candidate (checked through the exact linear system radius) is
    probed with an early-stopping run, and the candidate reaching the target
    in the fewest iterations wins. The search ends after the counts worsen
    twice in a row.

    Args:
        cfg: Baseline configuration (``algo='dsgt'``, ``sigma_bar == 0``);
            its ``eps_stop`` is the suboptimality target, ``1e-6`` if unset.

    Returns:
        The run's template :class:`Schedule` (see :func:`prepare_run`), made
        constant at the winning step size.
    """
    if cfg.algo != "dsgt":
        raise ConfigError(f"step tuning applies to 'dsgt', got '{cfg.algo}'", "algo")
    if cfg.sigma_bar != 0.0:
        raise ConfigError("the halving search needs a noiseless run", "sigma_bar")
    if cfg.mixing == "random-gossip":
        # The stability check reads the system radius of a static matrix.
        raise ConfigError(
            "the halving search needs a static mixing matrix, got 'random-gossip'", "mixing"
        )
    target = cfg.eps_stop if cfg.eps_stop is not None else 1e-6
    setup = prepare_run(cfg)

    best_eta: float | None = None
    best_count: int | None = None
    worsened = 0
    eta = 1.0 / cfg.L
    for _ in range(40):
        radius = _dsgt_system_radius(setup, eta)
        if radius < 1.0 - 1e-12:
            # A zero radius (one agent at eta = 1 / L) settles in one step.
            margin = -math.log(radius) if radius > 0.0 else math.inf
            budget = min(cfg.iters, max(1000, int(80.0 / margin)))
            probe_cfg = replace(
                cfg,
                iters=budget,
                stride=max(1, budget // 50),
                eps_stop=target,
                avg_checkpoints=(),
            )
            trace = run_experiment(
                probe_cfg, schedule_override=replace(setup.sched, mode="constant", eta0=eta, beta=None)
            )
            count = iterations_to_epsilon(trace, target)
            if count is not None:
                if best_count is None or count < best_count:
                    best_eta, best_count = eta, count
                    worsened = 0
                else:
                    worsened += 1
                    if worsened >= 2:
                        break
        eta *= 0.5
    if best_eta is None:
        raise InvariantViolation(
            f"baseline step tuning found no stable step reaching {target:g} "
            f"within {cfg.iters} iterations",
            iteration=cfg.iters,
        )
    return replace(setup.sched, mode="constant", eta0=best_eta, beta=None)


#: Multipliers on the matched template ``beta`` that :func:`tune_dsgt_beta` tries.
_DSGT_BETA_GRID = (0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0)


def tune_dsgt_beta(cfg: ExperimentConfig) -> Schedule:
    """Grid search over decay scales for the noisy baseline.

    Each candidate of :data:`_DSGT_BETA_GRID` multiplies the matched
    template ``beta`` and runs the full horizon; the candidate with the
    smallest final weighted-average suboptimality wins. Candidates whose run
    diverges (it raises :class:`InvariantViolation` or ends with a
    non-finite score) are skipped.

    Raises:
        InvariantViolation: When every candidate diverges.
    """
    if cfg.algo != "dsgt":
        raise ConfigError(f"decay tuning applies to 'dsgt', got '{cfg.algo}'", "algo")
    if cfg.sigma_bar <= 0.0:
        raise ConfigError("the decay grid needs a noisy run", "sigma_bar")
    theta = _network(cfg).theta

    # No target: it would stop every candidate near it, and all would score alike.
    probe_cfg = replace(cfg, stride=max(1, cfg.iters // 50), eps_stop=None, avg_checkpoints=())
    best: tuple[float, Schedule] | None = None
    for multiplier in _DSGT_BETA_GRID:
        candidate = theory_schedule(cfg.algo, "decaying", theta, cfg.L, cfg.mu, multiplier=multiplier)
        try:
            trace = run_experiment(probe_cfg, schedule_override=candidate)
        except InvariantViolation:
            continue
        score = trace.summary["final_wavg_subopt"]
        if math.isfinite(score) and (best is None or score < best[0]):
            best = (score, candidate)
    if best is None:
        raise InvariantViolation(
            f"baseline decay tuning: every multiplier in {_DSGT_BETA_GRID} diverged",
            iteration=cfg.iters,
        )
    return best[1]


@dataclass(frozen=True)
class SweepRow:
    """One (algorithm, size) cell of a topology sweep.

    ``theta`` is the contraction parameter of the cell's own mixing matrix
    (the momentum variant reports its base matrix, not the accelerated
    operator), so exponent fits compare algorithms on a common axis.
    """

    algo: str
    m: int
    theta: float
    counts: tuple[int | None, ...]

    @property
    def mean_iters(self) -> float | None:
        reached = [c for c in self.counts if c is not None]
        if not reached or len(reached) != len(self.counts):
            return None
        return float(np.mean(reached))

    @property
    def std_iters(self) -> float:
        reached = [c for c in self.counts if c is not None]
        if len(reached) <= 1:
            return 0.0
        return float(np.std(reached))


@dataclass
class SweepResult:
    """All rows of a sweep plus per-algorithm scaling exponents.

    ``exponents[algo]`` is the least-squares slope of
    ``log(mean iterations)`` against ``log(1 / theta)`` across the swept
    sizes: how fast the iteration count grows as the network gets worse
    connected. An algorithm gets no exponent unless its rows with a
    positive mean span two distinct ``theta`` (see :data:`_SAME_THETA`).
    """

    eps: float
    rows: list[SweepRow]
    exponents: dict[str, float]

    def format_table(self) -> str:
        lines = [f"iterations to suboptimality {self.eps:g}"]
        header = f"{'algo':>8} {'m':>4} {'theta':>12} {'mean':>12} {'std':>10}  counts"
        lines.append(header)
        for row in self.rows:
            mean = f"{row.mean_iters:.1f}" if row.mean_iters is not None else "n/a"
            counts = ",".join("-" if c is None else str(c) for c in row.counts)
            lines.append(
                f"{row.algo:>8} {row.m:>4} {row.theta:>12.6g} {mean:>12} "
                f"{row.std_iters:>10.1f}  {counts}"
            )
        for algo in sorted(self.exponents):
            lines.append(f"exponent[{algo}] = {self.exponents[algo]:.3f}")
        return "\n".join(lines)

    def to_csv(self, path: str | os.PathLike) -> None:
        """Write the table as CSV with LF endings in one write; no cell needs quoting."""
        lines = ["algo,m,theta,mean_iters,std_iters,counts"]
        for row in self.rows:
            mean = "" if row.mean_iters is None else f"{row.mean_iters:.17g}"
            counts = ";".join("-" if c is None else str(c) for c in row.counts)
            lines.append(f"{row.algo},{row.m},{row.theta:.17g},{mean},{row.std_iters:.17g},{counts}")
        for algo in sorted(self.exponents):
            lines.append(f"exponent,{algo},{self.exponents[algo]:.17g},,,")
        _write_text(path, "\n".join(lines) + "\n")


def sweep_topology(
    base: ExperimentConfig,
    sizes: tuple[int, ...] | list[int],
    algos: tuple[str, ...] | list[str],
    eps: float,
    seeds: int = 5,
    workers: int = 1,
    multipliers: dict[str, float] | None = None,
) -> SweepResult:
    """Measure iterations-to-target across network sizes for several algorithms.

    For each algorithm and size, ``seeds`` run seeds (``base.seed`` upward)
    each get the first recorded iteration at or below ``eps`` of an
    early-stopping run. A cell whose runs draw nothing from the run seed
    (noiseless ``dsgt`` on a static matrix, see :func:`_seed_free`) runs
    once, on its first seed, and that count stands for every seed; the
    other cells run every seed. The momentum algorithm is switched to its
    required lazy mixing automatically, and the plain tracking baseline is
    tuned once per size, on the size's first seed, for fairness when
    ``base.dsgt_tuning`` is ``"tuned"``. Cells and seeds run serially;
    ``workers`` is accepted for compatibility and has no effect.

    ``multipliers`` maps an algorithm name to a constant factor applied to
    its template step size in every cell (others keep ``base``'s
    multiplier). A constant factor rescales iteration counts uniformly
    across sizes, so fitted exponents are unaffected; it exists to keep
    slow template schedules inside the iteration budget.
    """
    if not (math.isfinite(eps) and eps > 0.0):
        raise ConfigError(f"must be positive and finite, got {eps}", "eps")
    if seeds < 1:
        raise ConfigError(f"needs at least one seed, got {seeds}", "seeds")
    sizes = tuple(int(v) for v in sizes)
    algos = tuple(algos)
    if not sizes:
        raise ConfigError("needs at least one network size", "agents")
    if not algos:
        raise ConfigError("needs at least one algorithm", "algo")
    scale = {k: float(v) for k, v in (multipliers or {}).items()}
    for algo, value in scale.items():
        if algo not in ALGORITHMS:
            raise ConfigError(f"unknown algorithm '{algo}'", "multipliers")
        if not (math.isfinite(value) and value > 0.0):
            raise ConfigError(f"must be positive and finite, got {value}", "multipliers")

    def cell_config(algo: str, m: int, seed_index: int) -> ExperimentConfig:
        mixing = "lazy-metropolis" if algo == "assdsgt" else base.mixing
        # The early-stopping record lands exactly on the first iteration at or
        # below the target, so a coarse stride keeps memory flat without
        # costing count resolution.
        return replace(
            base,
            algo=algo,
            agents=m,
            mixing=mixing,
            seed=base.seed + seed_index,
            eps_stop=eps,
            stride=max(1, base.iters // 512),
            avg_checkpoints=(),
            step_multiplier=scale.get(algo, base.step_multiplier),
            label=None,
        )

    # Building a config checks it, so every cell is built before the first
    # run starts: a bad cell fails the sweep at once rather than after the
    # cells before it.
    cells = [[cell_config(algo, m, k) for k in range(seeds)] for algo in algos for m in sizes]

    rows: list[SweepRow] = []
    for runs in cells:
        sched = _tuned_schedule(runs[0])
        # Every seed of a seed-free cell would repeat its first run bit for bit.
        ran = runs[:1] if _seed_free(runs[0]) else runs
        traces = [run_experiment(cfg, schedule_override=sched) for cfg in ran]
        counts = tuple(iterations_to_epsilon(trace, eps) for trace in traces) * (len(runs) // len(ran))
        # Exponents compare algorithms on the network's own contraction
        # parameter, so the momentum cells report their base (pre-momentum)
        # gap rather than the accelerated schedule parameter.
        summary = traces[0].summary
        theta = summary.get("base_theta", summary["theta"])
        rows.append(SweepRow(algo=runs[0].algo, m=runs[0].agents, theta=theta, counts=counts))
    return SweepResult(eps=eps, rows=rows, exponents=_scaling_exponents(rows, algos))


#: Relative spread below which a sweep's ``theta`` values are one value.
#: Equal spectra come out of the eigensolver a few ulps apart (complete
#: graphs of 4 and 8 agents give 1 - 2**-53 and 1 - 2**-52), and a line
#: fitted through such points has a slope of rounding alone; the ``theta``
#: of distinct ring sizes up to 1024 agents differ by more than 1e-3.
_SAME_THETA = 1e-9


def _scaling_exponents(rows: list[SweepRow], algos: tuple[str, ...]) -> dict[str, float]:
    """The exponents of :class:`SweepResult`, for each algorithm whose rows span two ``theta``."""
    exponents: dict[str, float] = {}
    for algo in algos:
        points = [
            (row.theta, row.mean_iters)
            for row in rows
            if row.algo == algo and row.mean_iters is not None and row.mean_iters > 0
        ]
        thetas = [theta for theta, _ in points]
        if thetas and not math.isclose(min(thetas), max(thetas), rel_tol=_SAME_THETA):
            log_inv_theta = np.log([1.0 / theta for theta, _ in points])
            log_iters = np.log([mean for _, mean in points])
            exponents[algo] = float(np.polyfit(log_inv_theta, log_iters, 1)[0])
    return exponents


def _write_text(path: str | os.PathLike, text: str) -> None:
    """Leave exactly ``text``'s UTF-8 bytes at ``path``, as ``open(path, "w")`` would.

    The file is rewritten in place and never truncated to zero first: it is
    opened without ``O_TRUNC``, written in one call and cut at the end of
    the new bytes. On an ext4 root mounted with ``discard`` (2-core VM),
    ``open(path, "w")`` over a 60 KB file took about 68 ms, nearly all of it
    the truncation, and this route 0.003 ms. An existing file keeps its
    inode, mode and owner, hard links see the new bytes, and a symlink is
    written through. The cut runs in ``finally``, so a text that fails to
    encode or a failed write leaves a prefix of the new bytes, as ``"w"``
    does; a process killed between the write and the cut can leave the old
    file's tail after a shorter new text.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
    with open(fd, "wb") as handle:
        try:
            handle.write(text.encode("utf-8"))
        finally:
            handle.truncate()


#: The type of each :data:`CSV_COLUMNS` column, as :class:`IterRecord` declares it.
_TRACE_TYPES = tuple(typing.get_type_hints(IterRecord)[name] for name in CSV_COLUMNS)


def write_trace(trace: Trace, path: str | os.PathLike) -> None:
    """Write the trace records as a CSV file with LF endings.

    Floats carry 17 significant digits, enough to reload every value
    bit-for-bit. Every row is one ``%`` format of its fields (``%d`` for
    the columns :class:`IterRecord` types ``int``, ``%.17g`` for the
    others), and the file is written with one call. No cell can hold a
    delimiter, quote or line break, so the bytes are those ``csv.writer``
    gives for the same cells.
    """
    row = ",".join("%d" if kind is int else "%.17g" for kind in _TRACE_TYPES) + "\n"
    fields = attrgetter(*CSV_COLUMNS)
    text = ",".join(CSV_COLUMNS) + "\n" + "".join([row % fields(record) for record in trace.records])
    _write_text(path, text)


def read_trace(path: str | os.PathLike) -> list[IterRecord]:
    """Load trace records from a CSV file written by :func:`write_trace`.

    Each line's cells are converted with their columns' types in
    :class:`IterRecord`; no cell is ever quoted, so a quoted one does not parse.

    Raises:
        ConfigError: On a missing or empty file, wrong header, wrong cell
            count, unparsable cell or invalid value; the message names the
            line, and the column of an unparsable cell.
    """
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"trace file '{path}' does not exist")
    records: list[IterRecord] = []
    with open(path, "r", encoding="utf-8") as handle:
        # A line's cells, read one line at a time; a blank line has none.
        rows = ([] if line == "\n" else line.rstrip("\n").split(",") for line in handle)
        header = next(rows, None)
        if header is None:
            raise ConfigError(f"trace file '{path}' is empty")
        if tuple(header) != CSV_COLUMNS:
            raise ConfigError(f"trace file '{path}' line 1: header {header} does not match {list(CSV_COLUMNS)}")
        for line_no, row in enumerate(rows, start=2):
            if len(row) != len(CSV_COLUMNS):
                raise ConfigError(
                    f"trace file '{path}' line {line_no}: expected {len(CSV_COLUMNS)} cells, got {len(row)}"
                )
            values = []
            for name, kind, cell in zip(CSV_COLUMNS, _TRACE_TYPES, row):
                try:
                    values.append(kind(cell))
                except ValueError:
                    raise ConfigError(
                        f"trace file '{path}' line {line_no}, column '{name}': cannot parse {cell!r}"
                    ) from None
            try:
                records.append(IterRecord(*values))
            except ValueError as exc:  # a cell that parses but is not a valid value
                raise ConfigError(f"trace file '{path}' line {line_no}: {exc}") from None
    return records


def save_config(cfg: ExperimentConfig, path: str | os.PathLike) -> None:
    """Write the configuration as UTF-8 JSON."""
    _write_text(path, json.dumps(cfg.to_dict(), indent=2, sort_keys=True) + "\n")


def load_config(path: str | os.PathLike) -> ExperimentConfig:
    """Load a configuration from a UTF-8 JSON file.

    Raises:
        ConfigError: On a missing file, JSON syntax errors (with line and
            column), unknown fields, or invalid values.
    """
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file '{path}' does not exist")
    with open(path, "r", encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ConfigError(
                f"config file '{path}' line {exc.lineno} column {exc.colno}: {exc.msg}"
            ) from None
    return ExperimentConfig.from_dict(data)
