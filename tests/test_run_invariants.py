"""Metamorphic invariants between runs of one config.

The frozen digests pin traces at a few configs; these relations must hold at
every config, and a stale cache or a batching slip on the record path breaks
them:

* **stride**: runs at stride 7 and 50 record exactly the stride-1 records at
  their iterations, bit for bit, and end with the same summary;
* **horizon prefix**: a 250-iteration run records the first 251 records of a
  600-iteration run, for constant and decaying schedules;
* **early stop**: a run with ``eps_stop`` stops at the first stride-1 record
  whose metric (the weighted average for noisy runs) is at or under the
  target, whatever its stride, and its last record is that record;
* **chunk length**: a run observes its states in chunks of up to
  ``harness._OBSERVE_CHUNK``; a horizon, an early stop or a NaN state on
  either side of a chunk boundary gives the same trace bytes, summary or
  violation (message and iteration) at every chunk length, one included;
* **walk events**: the walk visits only records, checkpoints and the stop,
  so a record, a checkpoint and an early stop on one state, a noisy stop
  off the record grid, and a violation on a record state (from the audit,
  or from the record itself before a later audit failure) come out alike at
  every chunk length;
* **seed independence**: noiseless ``dsgt`` on a static matrix draws no
  coin, no edge and no noise, so every run seed gives the same trace bytes
  and summary.

Examples are drawn with ``derandomize=True``, so a failure reproduces.
"""

from __future__ import annotations

from dataclasses import astuple, replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from netgrad import harness
from netgrad.errors import InvariantViolation
from netgrad.harness import MIXINGS, ExperimentConfig, run_experiment, write_trace

#: The mixing variants each algorithm runs with. Every test takes each
#: algorithm in turn, so none is left to the draw.
ALGO_MIXINGS = {
    "ssdsgt": MIXINGS,
    "dsgt": MIXINGS,
    "assdsgt": ("lazy-metropolis",),
}
ALGOS = pytest.mark.parametrize("algo", sorted(ALGO_MIXINGS))
SIZES = {
    "ring": range(1, 13),
    "grid": (1, 4, 9),
    "star": range(1, 13),
    "complete": range(1, 13),
}

SETTINGS = settings(max_examples=10, deadline=None, derandomize=True, database=None)


@st.composite
def configs(draw, algo: str) -> ExperimentConfig:
    topology = draw(st.sampled_from(sorted(SIZES)))
    mixing = draw(st.sampled_from(ALGO_MIXINGS[algo]))
    # A gossip draw needs an edge.
    sizes = [m for m in SIZES[topology] if mixing != "random-gossip" or m >= 2]
    return ExperimentConfig(
        topology=topology,
        agents=draw(st.sampled_from(sizes)),
        mixing=mixing,
        algo=algo,
        d=draw(st.integers(1, 5)),
        sigma_bar=draw(st.sampled_from((0.0, 1.0))),
        problem_seed=draw(st.integers(0, 2**16)),
        seed=draw(st.integers(0, 2**16)),
        x0_radius=draw(st.sampled_from((None, 3.0))),
        iters=draw(st.integers(60, 240)),
    )


def _csv_bytes(trace, folder) -> bytes:
    path = folder / "trace.csv"
    write_trace(trace, path)
    return path.read_bytes()


def _bits(records) -> list[str]:
    """Every field of every record, floats by their exact repr."""
    return [repr(astuple(record)) for record in records]


@ALGOS
@SETTINGS
@given(data=st.data())
def test_strided_runs_record_the_stride_one_records(algo, data):
    cfg = data.draw(configs(algo))
    full = run_experiment(cfg)
    by_t = dict(zip((r.t for r in full.records), _bits(full.records)))
    for stride in (7, 50):
        trace = run_experiment(replace(cfg, stride=stride))
        ts = [r.t for r in trace.records]
        assert ts == sorted({*range(0, cfg.iters + 1, stride), cfg.iters})
        assert _bits(trace.records) == [by_t[t] for t in ts]
        assert repr(trace.summary) == repr(full.summary)


@ALGOS
@SETTINGS
@given(data=st.data(), schedule=st.sampled_from(("constant", "decaying")))
def test_a_shorter_horizon_records_a_prefix(algo, data, schedule):
    cfg = replace(data.draw(configs(algo)), schedule=schedule)
    short = run_experiment(replace(cfg, iters=250))
    long = run_experiment(replace(cfg, iters=600))
    assert len(short.records) == 251
    assert _bits(short.records) == _bits(long.records[:251])


@ALGOS
@SETTINGS
@given(data=st.data(), stride=st.sampled_from((1, 7, 50)), pick=st.floats(0.0, 1.0))
def test_early_stop_lands_on_the_first_stride_one_record_under_eps(algo, data, stride, pick):
    cfg = data.draw(configs(algo))
    full = run_experiment(cfg)
    noisy = cfg.sigma_bar > 0.0
    metric = [r.wavg_subopt if noisy else r.subopt for r in full.records]
    eps = metric[round(pick * (len(metric) - 1))]
    assume(eps > 0.0)
    first = next(r for r, value in zip(full.records, metric) if value <= eps)
    stopped = run_experiment(replace(cfg, stride=stride, eps_stop=eps))
    assert stopped.summary["stopped_early"]
    assert stopped.summary["final_t"] == first.t
    assert _bits(stopped.records[-1:]) == _bits([first])


@pytest.mark.parametrize("mixing", ("metropolis", "lazy-metropolis"))
@SETTINGS
@given(data=st.data(), other=st.integers(0, 2**16))
def test_noiseless_dsgt_on_a_static_matrix_is_the_same_for_every_seed(tmp_path_factory, mixing, data, other):
    cfg = replace(data.draw(configs("dsgt")), mixing=mixing, sigma_bar=0.0)
    assume(other != cfg.seed)
    folder = tmp_path_factory.mktemp("seeds")
    first, second = run_experiment(cfg), run_experiment(replace(cfg, seed=other))
    assert _csv_bytes(first, folder) == _csv_bytes(second, folder)
    assert repr(first.summary) == repr(second.summary)


#: Chunk lengths of the boundary tests: one state per pass (the reference),
#: two short chunks and the default.
CHUNKS = (1, 2, 7, harness._OBSERVE_CHUNK)
#: The iterations just before, at and just after each chunk length K (the
#: last state of the first chunk, the first and second of the next) and 2K.
#: The start, 0, cannot be a horizon, and no step makes it.
BOUNDARIES = sorted({t for k in CHUNKS for t in (k - 1, k, k + 1, 2 * k)} - {0})
#: One run per algorithm, a noisy gossip run among them. Each metric falls
#: strictly at every boundary, so an early stop can land on each.
BOUNDARY_RUNS = (
    ExperimentConfig(agents=6, algo="dsgt", mixing="metropolis", x0_radius=3.0, stride=3),
    ExperimentConfig(
        topology="star", agents=5, algo="ssdsgt", mixing="random-gossip", sigma_bar=1.0,
        x0_radius=3.0, stride=3,
    ),
    ExperimentConfig(agents=6, algo="assdsgt", mixing="lazy-metropolis", x0_radius=3.0, stride=3),
)
BOUNDARY = pytest.mark.parametrize("cfg", BOUNDARY_RUNS, ids=lambda cfg: cfg.algo)


def _outcome_at_every_chunk_length(monkeypatch, tmp_path, cfg: ExperimentConfig, chunks=CHUNKS) -> tuple:
    """Run ``cfg`` at every chunk length; assert one outcome and return it.

    The outcome is the trace file's bytes, the records and the summary, or
    the violation's message and iteration.
    """
    outcomes = []
    for chunk in chunks:
        monkeypatch.setattr(harness, "_OBSERVE_CHUNK", chunk)
        try:
            trace = run_experiment(cfg)
        except InvariantViolation as exc:
            outcomes.append(("violation", str(exc), exc.iteration))
            continue
        outcomes.append((_csv_bytes(trace, tmp_path), _bits(trace.records), repr(trace.summary)))
    assert outcomes == outcomes[:1] * len(chunks)
    return outcomes[0]


@BOUNDARY
def test_a_horizon_on_a_chunk_boundary_runs_alike_at_every_chunk_length(monkeypatch, tmp_path, cfg):
    for iters in BOUNDARIES:
        _, records, _ = _outcome_at_every_chunk_length(monkeypatch, tmp_path, replace(cfg, iters=iters))
        assert records[-1].startswith(f"({iters},")


@BOUNDARY
def test_an_early_stop_on_a_chunk_boundary_runs_alike_at_every_chunk_length(monkeypatch, tmp_path, cfg):
    cfg = replace(cfg, iters=200)
    full = run_experiment(replace(cfg, stride=1))
    metric = [r.wavg_subopt if cfg.sigma_bar > 0.0 else r.subopt for r in full.records]
    for stop in BOUNDARIES:
        eps = metric[stop]
        assert eps < min(metric[:stop])  # so the first stride-1 record at or under eps
        _, records, summary = _outcome_at_every_chunk_length(
            monkeypatch, tmp_path, replace(cfg, eps_stop=eps)
        )
        assert records[-1] == _bits(full.records[stop : stop + 1])[0]
        assert "'stopped_early': True" in summary


@BOUNDARY
def test_a_nan_on_a_chunk_boundary_fails_alike_at_every_chunk_length(monkeypatch, tmp_path, cfg):
    name = f"{cfg.algo}_step"
    step = getattr(harness, name)
    for at in BOUNDARIES:

        def poisoned(state, *args, at=at, **kwargs):
            new = step(state, *args, **kwargs)
            if new.t == at:
                new.x[1, 0] = np.nan
            return new

        monkeypatch.setattr(harness, name, poisoned)
        outcome = _outcome_at_every_chunk_length(monkeypatch, tmp_path, replace(cfg, iters=200))
        expected = f"iteration {at}: identity 'mean_dynamics' off by a relative nan (threshold 1e-07)"
        assert outcome == ("violation", expected, at)


#: Chunk lengths of the walk tests: one state per pass, a short chunk and the default.
WALK_CHUNKS = (1, 7, harness._OBSERVE_CHUNK)


@BOUNDARY
@pytest.mark.parametrize("stop", (42, 44))
def test_a_record_a_checkpoint_and_a_stop_on_one_state_walk_alike(monkeypatch, tmp_path, cfg, stop):
    # Stride 3 puts a record on 42 (the first state of a 7-chunk), not on 44.
    cfg = replace(cfg, iters=200, avg_checkpoints=(10, stop, 100))
    full = run_experiment(replace(cfg, stride=1))
    metric = [r.wavg_subopt if cfg.sigma_bar > 0.0 else r.subopt for r in full.records]
    eps = metric[stop]
    assert eps < min(metric[:stop])
    _, records, summary = _outcome_at_every_chunk_length(
        monkeypatch, tmp_path, replace(cfg, eps_stop=eps), WALK_CHUNKS
    )
    assert records[-1] == _bits(full.records[stop : stop + 1])[0]
    # The record before the stop is the last one on the stride-3 grid.
    assert records[-2].startswith(f"({39 if stop == 42 else 42},")
    wavg_at = {"10": full.records[10].wavg_subopt, str(stop): full.records[stop].wavg_subopt}
    assert f"'wavg_at': {wavg_at!r}" in summary
    assert f"'final_t': {stop}," in summary and "'stopped_early': True" in summary


def _poisoned_run(monkeypatch, tmp_path, cfg: ExperimentConfig, poison) -> tuple:
    name = f"{cfg.algo}_step"
    step = getattr(harness, name)

    def poisoned(state, *args, **kwargs):
        new = step(state, *args, **kwargs)
        poison(new)
        return new

    monkeypatch.setattr(harness, name, poisoned)
    return _outcome_at_every_chunk_length(monkeypatch, tmp_path, replace(cfg, iters=200), WALK_CHUNKS)


@BOUNDARY
def test_an_audit_failure_on_a_record_state_comes_before_its_record(monkeypatch, tmp_path, cfg):
    def poison(state):
        if state.t == 42:
            state.x[1, 0] = np.nan

    expected = "iteration 42: identity 'mean_dynamics' off by a relative nan (threshold 1e-07)"
    assert _poisoned_run(monkeypatch, tmp_path, cfg, poison) == ("violation", expected, 42)


@BOUNDARY
def test_a_record_failure_comes_before_a_later_audit_failure(monkeypatch, tmp_path, cfg):
    # A NaN snapshot point fails only the record of state 39; the NaN
    # iterate of state 41 fails its audit, later in the same chunk of 64.
    def poison(state):
        if state.t == 39:
            state.q = np.full_like(state.q, np.nan)
        if state.t == 41:
            state.x[1, 0] = np.nan

    outcome = _poisoned_run(monkeypatch, tmp_path, cfg, poison)
    assert outcome == ("violation", "iteration 39: snap_grad_dist is a finite squared quantity but is nan", 39)


@BOUNDARY
def test_a_failure_after_the_stop_is_never_reached(monkeypatch, tmp_path, cfg):
    # The stop at 42 and the NaN iterate at 44 share a chunk of 7 and of 64.
    full = run_experiment(replace(cfg, iters=200, stride=1))
    metric = [r.wavg_subopt if cfg.sigma_bar > 0.0 else r.subopt for r in full.records]

    def poison(state):
        if state.t == 44:
            state.x[1, 0] = np.nan

    _, records, summary = _poisoned_run(monkeypatch, tmp_path, replace(cfg, eps_stop=metric[42]), poison)
    assert records[-1] == _bits(full.records[42:43])[0]
    assert "'stopped_early': True" in summary
