from __future__ import annotations

import gc
import hashlib
import json
import os
import subprocess
import sys
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from _reference import read_trace_csv, write_trace_csv

from netgrad import harness, topology
from netgrad.diagnostics import CSV_COLUMNS, IterRecord
from netgrad.errors import ConfigError, InvariantViolation
from netgrad.harness import (
    ExperimentConfig,
    Trace,
    iterations_to_epsilon,
    load_config,
    prepare_run,
    read_trace,
    run_experiment,
    save_config,
    sweep_topology,
    tune_dsgt_beta,
    tune_dsgt_step,
    write_trace,
)


def _small_cfg(**overrides) -> ExperimentConfig:
    base = dict(
        topology="ring",
        agents=4,
        mixing="metropolis",
        algo="ssdsgt",
        d=2,
        mu=1.0,
        L=2.0,
        sigma_bar=0.0,
        heterogeneity=0.5,
        problem_seed=7,
        seed=1,
        iters=50,
        stride=1,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


#: The three ways to build a config: the constructor, ``replace`` of a valid
#: config and ``from_dict`` of its JSON object, each given ``_small_cfg``'s
#: fields with ``overrides``.
BUILDS = {
    "constructor": lambda overrides: _small_cfg(**overrides),
    "replace": lambda overrides: replace(_small_cfg(), **overrides),
    "from_dict": lambda overrides: ExperimentConfig.from_dict({**_small_cfg().to_dict(), **overrides}),
}


#: A value of the wrong type for each field kind (a bool is not a number),
#: with a value of the right type in its place.
MISTYPED = [
    ("agents", True, 1),
    ("iters", True, 1),
    ("seed", True, 1),
    ("d", True, 1),
    ("stride", True, 1),
    ("mu", True, 1),
    ("avg_checkpoints", (True,), (1,)),
    ("label", 5, "5"),
]


@pytest.mark.parametrize("build", BUILDS.values(), ids=BUILDS)
@pytest.mark.parametrize(
    "overrides, field",
    [
        (dict(topology="torus"), "topology"),
        (dict(agents=0), "agents"),
        (dict(mixing="max-degree"), "mixing"),
        (dict(algo="assdsgt"), "mixing"),
        (dict(algo="push-sum"), "algo"),
        (dict(d=0), "d"),
        (dict(mu=-1.0), "mu"),
        (dict(mu=3.0), "L"),
        (dict(sigma_bar=-0.5), "sigma_bar"),
        (dict(heterogeneity=-1.0), "heterogeneity"),
        (dict(schedule="warmup"), "schedule"),
        (dict(step_multiplier=0.0), "step_multiplier"),
        (dict(dsgt_tuning="greedy"), "dsgt_tuning"),
        (dict(iters=0), "iters"),
        (dict(stride=0), "stride"),
        (dict(x0_radius=-1.0), "x0_radius"),
        (dict(eps_stop=0.0), "eps_stop"),
        (dict(avg_checkpoints=(-3,)), "avg_checkpoints"),
        (dict(mu=float("inf"), L=float("inf")), "mu"),
        (dict(L=float("inf")), "L"),
        (dict(sigma_bar=float("nan")), "sigma_bar"),
        (dict(sigma_bar=float("inf")), "sigma_bar"),
        (dict(heterogeneity=float("nan")), "heterogeneity"),
        (dict(step_multiplier=float("inf")), "step_multiplier"),
        (dict(x0_radius=float("inf")), "x0_radius"),
        (dict(eps_stop=float("inf")), "eps_stop"),
        (dict(seed=-1), "seed"),
        (dict(problem_seed=-1), "problem_seed"),
        (dict(seed=1.5), "seed"),
        (dict(agents=1, mixing="random-gossip"), "agents"),
        # Float64 cannot hold these: curvature sums past L = 1e300 can
        # overflow, and past L/mu = 1e12 mu drowns in rounding (a curvature
        # of 0 against mu = 1; a singular one-agent average curvature). The
        # field named is the one farther from 1.
        (dict(mu=1e300, L=1e301), "L"),
        (dict(L=1e300, sigma_bar=1.0, agents=64), "L"),
        (dict(topology="grid", agents=1, mu=1e-300, schedule="decaying", iters=1), "mu"),
        (dict(mu=1e-13), "mu"),
        (dict(step_multiplier=1e-300, L=1e300, mu=1e-300, schedule="constant", algo="dsgt"), "L"),
        (dict(algo="dsgt", mixing="random-gossip", dsgt_tuning="tuned"), "dsgt_tuning"),
        *((dict([(name, wrong)]), name) for name, wrong, _ in MISTYPED),
        # An integer float64 cannot hold, in a float field.
        (dict(L=10**400), "L"),
    ],
)
def test_validate_names_the_offending_field(build, overrides, field):
    with pytest.raises(ConfigError) as excinfo:
        build(overrides)
    assert excinfo.value.field == field


@pytest.mark.parametrize(
    "overrides",
    [
        # The noisy decay grid reads no matrix, so tuned noisy gossip stays allowed.
        dict(algo="dsgt", mixing="random-gossip", dsgt_tuning="tuned", sigma_bar=1.0),
        dict(algo="dsgt", mixing="random-gossip", dsgt_tuning="matched"),
        dict(algo="ssdsgt", mixing="random-gossip", dsgt_tuning="tuned"),
    ],
)
def test_gossip_configs_the_tuners_can_serve_validate(overrides):
    _small_cfg(**overrides)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_an_overflowing_start_fails_at_iteration_zero_without_numpy_warnings():
    # The start point's gradients overflow inside numpy during set-up; the
    # run must report that as its own failure, not as a numpy warning.
    with pytest.raises(InvariantViolation) as caught:
        run_experiment(_small_cfg(x0_radius=1e308))
    assert str(caught.value).startswith("iteration 0: suboptimality of the average iterate is ")


def test_momentum_requires_lazy_mixing():
    _small_cfg(algo="assdsgt", mixing="lazy-metropolis")
    with pytest.raises(ConfigError):
        _small_cfg(algo="assdsgt", mixing="random-gossip")


def test_config_dict_round_trip():
    cfg = _small_cfg(
        sigma_bar=1.0,
        x0_radius=2.5,
        eps_stop=1e-4,
        avg_checkpoints=(10, 20),
        label="demo",
    )
    assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg


@pytest.mark.parametrize("name, wrong, right", MISTYPED)
def test_validate_and_the_config_sidecar_agree_on_field_types(tmp_path, name, wrong, right):
    # What the constructor accepts, save_config writes and load_config reads
    # back equal; what it rejects, load_config rejects too when a sidecar
    # holds it, naming the same field.
    path = tmp_path / "config.json"
    cfg = _small_cfg(**{name: right})
    save_config(cfg, path)
    assert load_config(path) == cfg
    path.write_text(json.dumps({**cfg.to_dict(), name: wrong}), encoding="utf-8")
    for load in (lambda: load_config(path), lambda: run_experiment(_small_cfg(**{name: wrong}))):
        with pytest.raises(ConfigError) as excinfo:
            load()
        assert excinfo.value.field == name


def test_from_dict_rejects_wrong_types_and_unknown_keys():
    payload = _small_cfg().to_dict()
    payload["agents"] = "8"
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(payload)
    payload = _small_cfg().to_dict()
    payload["agents"] = True
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(payload)
    payload = _small_cfg().to_dict()
    payload["workers"] = 4
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(payload)
    # one wrong-typed value per field kind; the error names the field
    for key, value in [
        ("seed", 1.5),
        ("mu", True),
        ("mu", "1"),
        ("eps_stop", False),
        ("eps_stop", "small"),
        ("algo", 3),
        ("label", 7),
        ("avg_checkpoints", 5),
        ("avg_checkpoints", [1, True]),
        ("avg_checkpoints", [1.0]),
    ]:
        payload = _small_cfg().to_dict()
        payload[key] = value
        with pytest.raises(ConfigError) as info:
            ExperimentConfig.from_dict(payload)
        assert info.value.field == key


def test_checkpoints_given_as_a_list_are_rejected_before_the_config_is_used():
    # A list would make the config unhashable and unequal to the copy that
    # save_config and load_config give back, whose checkpoints are a tuple.
    with pytest.raises(ConfigError) as info:
        _small_cfg(avg_checkpoints=[3])
    assert info.value.field == "avg_checkpoints"
    assert "tuple" in str(info.value)
    fixed = _small_cfg(avg_checkpoints=(3,))
    with pytest.raises(ConfigError):
        run_experiment(replace(fixed, avg_checkpoints=[3]))
    assert hash(fixed) == hash(_small_cfg(avg_checkpoints=(3,)))


def test_from_dict_widens_ints_and_tuples_checkpoints():
    payload = _small_cfg().to_dict()
    payload.update(mu=1, eps_stop=2, x0_radius=None, label=None, avg_checkpoints=[3, 5])
    cfg = ExperimentConfig.from_dict(payload)
    assert type(cfg.mu) is float and cfg.mu == 1.0
    assert type(cfg.eps_stop) is float and cfg.eps_stop == 2.0
    assert cfg.x0_radius is None and cfg.label is None
    assert cfg.avg_checkpoints == (3, 5)


#: Every float field of a config, each given an integer.
INT_FLOATS = dict(mu=1, L=2, sigma_bar=0, heterogeneity=1, step_multiplier=3, x0_radius=4, eps_stop=1)


@pytest.mark.parametrize("build", BUILDS.values(), ids=BUILDS)
def test_a_config_stores_an_integer_in_a_float_field_as_a_float(tmp_path, build):
    cfg = build(INT_FLOATS)
    assert {name: type(getattr(cfg, name)) for name in INT_FLOATS} == dict.fromkeys(INT_FLOATS, float)
    # So the config and its reload write one sidecar.
    path = tmp_path / "config.json"
    save_config(cfg, path)
    saved = path.read_bytes()
    assert b'"L": 2.0' in saved
    save_config(load_config(path), path)
    assert path.read_bytes() == saved


def test_a_trace_holds_the_config_of_its_run():
    cfg = _small_cfg(sigma_bar=0.5, iters=5)
    assert run_experiment(cfg).config == cfg


@settings(max_examples=40, deadline=None)
@given(
    agents=st.integers(2, 12),
    sigma=st.floats(0.0, 3.0),
    stride=st.integers(1, 7),
    radius=st.one_of(st.none(), st.floats(0.0, 10.0)),
    label=st.one_of(st.none(), st.text(min_size=1, max_size=12)),
)
def test_config_round_trip_property(agents, sigma, stride, radius, label):
    cfg = _small_cfg(agents=agents, sigma_bar=sigma, stride=stride, x0_radius=radius, label=label)
    assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg


def test_single_step_run_records_init_and_step():
    trace = run_experiment(_small_cfg(iters=1))
    assert [r.t for r in trace.records] == [0, 1]
    assert trace.summary["final_t"] == 1


def test_stride_row_count_includes_the_final_iteration():
    trace = run_experiment(_small_cfg(iters=10, stride=3))
    assert [r.t for r in trace.records] == [0, 3, 6, 9, 10]
    aligned = run_experiment(_small_cfg(iters=9, stride=3))
    assert [r.t for r in aligned.records] == [0, 3, 6, 9]


@pytest.mark.parametrize(
    "mixing, algo, matrices",
    [
        ("metropolis", "ssdsgt", 1),
        ("lazy-metropolis", "ssdsgt", 2),
        ("lazy-metropolis", "assdsgt", 2),
        ("random-gossip", "ssdsgt", 0),
    ],
)
def test_prepare_run_decomposes_one_spectrum_and_validates_each_matrix_once(
    monkeypatch, mixing, algo, matrices
):
    counts = {"_symmetric_spectrum": 0, "_validate_mixing_entries": 0}
    for name in counts:
        original = getattr(topology, name)

        def counted(*args, _name=name, _original=original):
            counts[_name] += 1
            return _original(*args)

        monkeypatch.setattr(topology, name, counted)
    topology.gossip_contraction.cache_clear()
    setup = prepare_run(_small_cfg(agents=16, mixing=mixing, algo=algo))
    assert counts == {"_symmetric_spectrum": 1, "_validate_mixing_entries": matrices}
    if setup.w is not None:  # the run's matrix keeps the spectrum set-up computed
        _ = (setup.w.lambda2, setup.w.theta, setup.w.psd_flag)
    assert counts["_symmetric_spectrum"] == 1


def test_an_equal_gossip_network_reuses_the_family_values_of_an_earlier_run(monkeypatch):
    # The gossip family cache is keyed by the graph's value: each run builds
    # a new Graph, and an equal one must not decompose its family again.
    topology.gossip_contraction.cache_clear()
    cfg = _small_cfg(agents=16, mixing="random-gossip")
    first = prepare_run(cfg)
    calls = []
    original = topology._symmetric_spectrum
    monkeypatch.setattr(topology, "_symmetric_spectrum", lambda w: calls.append(w) or original(w))
    second = prepare_run(cfg)
    assert calls == []
    assert second.graph is not first.graph and second.graph == first.graph
    assert second.theta == first.theta


def test_prepare_run_start_radius():
    setup = prepare_run(_small_cfg())
    assert np.array_equal(setup.x0, np.zeros(2))
    setup = prepare_run(_small_cfg(x0_radius=2.5))
    assert np.linalg.norm(setup.x0 - setup.problem.x_star) == pytest.approx(2.5, rel=1e-12)


def test_trace_round_trip_is_bitwise(tmp_path: Path):
    cfg = _small_cfg(sigma_bar=1.0, iters=40)
    trace = run_experiment(cfg)
    path = tmp_path / "trace.csv"
    write_trace(trace, path)
    loaded = read_trace(path)
    assert len(loaded) == len(trace.records)
    for original, parsed in zip(trace.records, loaded):
        assert parsed.t == original.t
        assert parsed.zeta == original.zeta
        for name in ("eta", "consensus_x", "consensus_s", "snap_grad_dist", "psi", "mean_dist", "subopt"):
            assert getattr(parsed, name) == getattr(original, name)


def test_trace_file_format_details(tmp_path: Path):
    trace = run_experiment(_small_cfg(iters=3))
    path = tmp_path / "trace.csv"
    write_trace(trace, path)
    raw = path.read_bytes()
    assert b"\r" not in raw
    assert raw.endswith(b"\n")
    header = raw.decode("utf-8").splitlines()[0]
    assert header == "t,eta,zeta,consensus_x,consensus_s,snap_grad_dist,psi,mean_dist,subopt"


def test_trace_writer_equals_the_csv_writer_route(tmp_path: Path):
    # Signed zeros, subnormals, huge values and long iteration counts write
    # the bytes csv.writer gives for the same cells.
    records = list(run_experiment(_small_cfg(sigma_bar=1.0, iters=30, stride=3)).records)
    extremes = (-0.0, 5e-324, 1e308, 0.1, 1.0, 123456789.0)
    for k, value in enumerate(extremes):
        records.append(
            IterRecord(
                t=10**6 + k * 99991, eta=value if value > 0.0 else 1e-3, zeta=k % 2,
                consensus_x=value, consensus_s=abs(value), snap_grad_dist=value, psi=value,
                mean_dist=value, subopt=value, wavg_subopt=None,
            )
        )
    trace = Trace(config={}, records=records, summary={})
    path, reference = tmp_path / "trace.csv", tmp_path / "reference.csv"
    write_trace(trace, path)
    write_trace_csv(records, reference)
    assert path.read_bytes() == reference.read_bytes()
    assert b"-0," in path.read_bytes() and b"4.9406564584124654e-324" in path.read_bytes()


def test_read_trace_reports_malformed_rows(tmp_path: Path):
    path = tmp_path / "bad.csv"
    good = run_experiment(_small_cfg(iters=2))
    write_trace(good, path)
    lines = path.read_text().splitlines()
    lines[2] = lines[2].rsplit(",", 1)[0]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ConfigError) as excinfo:
        read_trace(path)
    assert "line 3" in str(excinfo.value)

    lines[2] = lines[2] + ",not-a-number"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ConfigError):
        read_trace(path)


@pytest.mark.parametrize(
    "column, cell, message",
    [
        ("consensus_x", "nan", "consensus_x is a finite squared quantity but is nan"),
        ("zeta", "2", "zeta must be 0 or 1, got 2"),
    ],
)
def test_read_trace_names_file_and_line_of_an_invalid_value(tmp_path: Path, column, cell, message):
    path = tmp_path / "bad.csv"
    write_trace(run_experiment(_small_cfg(iters=2)), path)
    lines = path.read_text().splitlines()
    cells = lines[3].split(",")
    cells[lines[0].split(",").index(column)] = cell
    lines[3] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ConfigError) as excinfo:
        read_trace(path)
    assert str(excinfo.value) == f"trace file '{path}' line 4: {message}"


def test_read_trace_rejects_wrong_header(tmp_path: Path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ConfigError):
        read_trace(path)


@pytest.mark.parametrize("newline", ["\n", "\r\n"])
def test_read_trace_equals_the_csv_reader_route(tmp_path: Path, newline):
    # Traces from the writer and from the csv.writer route, with LF or CRLF
    # line ends, load into the records csv.reader and a row dict give.
    records = run_experiment(_small_cfg(sigma_bar=1.0, iters=30, stride=3)).records
    ours, reference = tmp_path / "trace.csv", tmp_path / "reference.csv"
    write_trace(Trace(config={}, records=records, summary={}), ours)
    write_trace_csv(records, reference)
    for path in (ours, reference):
        path.write_bytes(path.read_bytes().replace(b"\n", newline.encode()))
        loaded = read_trace(path)
        assert loaded == read_trace_csv(path)
        assert loaded == [replace(record, wavg_subopt=None) for record in records]


def test_read_trace_names_what_is_wrong(tmp_path: Path):
    path = tmp_path / "bad.csv"
    header = ",".join(CSV_COLUMNS)
    row = "1,0.5,0,1,1,1,1,1,1"

    def message(text: str | None) -> str:
        if text is not None:
            path.write_text(text)
        with pytest.raises(ConfigError) as excinfo:
            read_trace(path)
        return str(excinfo.value).removeprefix(f"trace file '{path}'")

    assert message(None) == " does not exist"
    assert message("") == " is empty"
    assert message("a,b\n") == f" line 1: header ['a', 'b'] does not match {list(CSV_COLUMNS)}"
    assert message("\n") == f" line 1: header [] does not match {list(CSV_COLUMNS)}"
    # A blank line has no cells, and a trailing comma makes one more.
    assert message(f"{header}\n{row}\n\n{row}\n") == " line 3: expected 9 cells, got 0"
    assert message(f"{header}\n{row},\n") == " line 2: expected 9 cells, got 10"
    assert message(f"{header}\n{row}\n1.5,0.5,0,1,1,1,1,1,1\n") == " line 3, column 't': cannot parse '1.5'"
    # No cell is ever quoted, so a quoted one does not parse.
    assert message(f'{header}\n1,"0.5",0,1,1,1,1,1,1\n') == " line 2, column 'eta': cannot parse '\"0.5\"'"
    assert message(f"{header}\n1,0.5,0,1,1,1,1,1,-1\n") == (
        " line 2: suboptimality -1.0 is not finite or below the -1e-12 floor"
    )


def test_config_file_round_trip(tmp_path: Path):
    cfg = _small_cfg(sigma_bar=1.0, avg_checkpoints=(5, 10), label="roundtrip")
    path = tmp_path / "config.json"
    save_config(cfg, path)
    assert load_config(path) == cfg


def test_load_config_reports_json_position(tmp_path: Path):
    path = tmp_path / "broken.json"
    path.write_text('{"topology": "ring",\n  "agents": }\n')
    with pytest.raises(ConfigError) as excinfo:
        load_config(path)
    assert "line 2" in str(excinfo.value)


def test_runs_are_bitwise_reproducible(tmp_path: Path):
    cfg = _small_cfg(sigma_bar=1.0, iters=60)
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    write_trace(run_experiment(cfg), first)
    write_trace(run_experiment(cfg), second)
    assert first.read_bytes() == second.read_bytes()


@pytest.mark.parametrize(
    "overrides, stopped_early",
    [
        (dict(iters=200), False),
        (dict(iters=400, eps_stop=1.0), True),
        (dict(iters=200, schedule="constant", step_multiplier=1e6), None),  # diverges
    ],
    ids=["full", "early-stop", "diverging"],
)
def test_a_run_frees_its_buffer_by_reference_counting(monkeypatch, overrides, stopped_early):
    # With the cycle collector off only reference counting frees the buffer,
    # so a reference cycle through the run or its states would keep it alive.
    buffers = []

    class RecordingBuffer(harness.StateBuffer):
        def __init__(self, *args):
            super().__init__(*args)
            buffers.append(weakref.ref(self))

    monkeypatch.setattr(harness, "StateBuffer", RecordingBuffer)
    gc.disable()
    try:
        try:
            outcome = run_experiment(_small_cfg(**overrides)).summary["stopped_early"]
        except InvariantViolation:
            outcome = None
        (buffer,) = buffers
        assert buffer() is None
    finally:
        gc.enable()
    assert outcome is stopped_early


@pytest.mark.parametrize(
    "algo, mixing, size",
    [("ssdsgt", "random-gossip", 20), ("assdsgt", "lazy-metropolis", 11), ("ssdsgt", "metropolis", 64)],
)
def test_the_chunk_buffer_bound_sets_the_states_a_chunk_observes(algo, mixing, size):
    # A ring-1024 state and its gradient rows hold 6144 doubles (10240 for
    # the momentum algorithm's stacked blocks); 2**17 of them fit 21 (12)
    # slots, one of which carries the chunk before. At m = 8 every chunk
    # holds the full 64 states.
    agents = 8 if mixing == "metropolis" else 1024
    cfg = ExperimentConfig(agents=agents, algo=algo, mixing=mixing, iters=200)
    assert harness._Run(prepare_run(cfg)).size == size


def test_early_stop_lands_on_first_crossing():
    cfg = _small_cfg(iters=5000, stride=100, eps_stop=1e-3, x0_radius=3.0)
    trace = run_experiment(cfg)
    assert trace.summary["stopped_early"]
    final = trace.records[-1]
    assert final.subopt <= 1e-3
    assert iterations_to_epsilon(trace, 1e-3) == trace.summary["final_t"]
    times = [r.t for r in trace.records]
    assert times == sorted(set(times))


def test_iterations_to_epsilon_none_when_unreached():
    trace = run_experiment(_small_cfg(iters=5, x0_radius=3.0))
    assert iterations_to_epsilon(trace, 1e-30) is None


@pytest.mark.parametrize("eps", [0.0, -1e-3, float("nan")])
def test_iterations_to_epsilon_rejects_a_target_that_is_not_positive(eps):
    trace = run_experiment(_small_cfg(iters=5, x0_radius=3.0))
    with pytest.raises(ValueError, match="eps must be positive"):
        iterations_to_epsilon(trace, eps)


def test_iterations_to_epsilon_does_not_switch_metric_on_a_reloaded_noisy_trace(tmp_path: Path):
    # The trace CSV has no weighted-average column. A noisy trace read back
    # from it cannot give its own metric, and the raw suboptimality is a
    # different one; a noiseless trace's metric is in the file.
    for sigma in (1.0, 0.0):
        trace = run_experiment(_small_cfg(sigma_bar=sigma, iters=40))
        path = tmp_path / f"trace-{sigma}.csv"
        write_trace(trace, path)
        reloaded = Trace(config=trace.config, records=read_trace(path), summary={})
        assert iterations_to_epsilon(trace, 1e3) == 0
        if sigma:
            with pytest.raises(ValueError, match="t=0 .* no weighted-average suboptimality"):
                iterations_to_epsilon(reloaded, 1e3)
        else:
            assert iterations_to_epsilon(reloaded, 1e-3) == iterations_to_epsilon(trace, 1e-3)


def test_noisy_stop_metric_uses_weighted_average():
    cfg = _small_cfg(sigma_bar=1.0, iters=300, stride=50, eps_stop=0.5, x0_radius=1.0)
    trace = run_experiment(cfg)
    if trace.summary["stopped_early"]:
        assert trace.records[-1].wavg_subopt <= 0.5


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_sweep_is_identical_across_worker_counts(tmp_path: Path):
    base = _small_cfg(iters=20000, x0_radius=3.0)
    serial = sweep_topology(base, (4, 8), ("ssdsgt",), eps=1e-3, seeds=2, workers=1)
    threaded = sweep_topology(base, (4, 8), ("ssdsgt",), eps=1e-3, seeds=2, workers=3)
    a, b = tmp_path / "serial.csv", tmp_path / "threaded.csv"
    serial.to_csv(a)
    threaded.to_csv(b)
    assert a.read_bytes() == b.read_bytes()
    assert _sha256(a) == "9b502360011a84cc57bd88968f343625eddab1e44ed5584cfd69235a964f6b43"
    assert "ssdsgt" in serial.format_table()
    assert serial.exponents.keys() == {"ssdsgt"}


# sha256 of tuned sweep tables and of tuned baseline traces (CSV and sorted
# JSON summary), as produced when the sweep tuned every baseline cell up front
# and could fan seeds out to worker threads.
def test_tuned_noiseless_sweep_matches_frozen_digest(tmp_path: Path):
    base = _small_cfg(iters=20000, x0_radius=3.0, dsgt_tuning="tuned")
    result = sweep_topology(base, (4, 8), ("dsgt", "ssdsgt"), eps=1e-5, seeds=2)
    path = tmp_path / "sweep.csv"
    result.to_csv(path)
    assert _sha256(path) == "f420ec9da3062e30241476cb3354b462562eb53ef4c5f94bd17ec280471f0bcd"


def test_tuned_noisy_sweep_matches_frozen_digest(tmp_path: Path):
    base = _small_cfg(sigma_bar=0.5, iters=400, x0_radius=1.0, dsgt_tuning="tuned")
    result = sweep_topology(base, (4, 8), ("dsgt",), eps=0.25, seeds=2)
    path = tmp_path / "sweep.csv"
    result.to_csv(path)
    assert all(None not in row.counts for row in result.rows)
    assert _sha256(path) == "8899895e29a2bfbfe8980e1d900a1fc1ea30eb4dec4279eea3eb489a6afb385e"


TUNED_RUNS = {
    "noiseless": (
        dict(agents=8, iters=20000, stride=7, x0_radius=3.0, eps_stop=1e-10),
        "d2e003eb2d9733665c282da94d3a7b8ef31de991949b9e8c508aff41601cca4d",
        "1c5bd804ee78fed38dbec137c407043e37f978ee658cd073d676bd0503ee7323",
    ),
    "noisy": (
        dict(sigma_bar=1.0, iters=200, stride=7),
        "b3b25aeaefc519cacf2a6c62c6a01eb4af5f3b9b53808095b52b779b7f8a8315",
        "ebc2960256ac08ca1016b72a724d79ef1a4f47c6cbc7ce1206096be5a738ea28",
    ),
}


@pytest.mark.parametrize("case", sorted(TUNED_RUNS))
def test_tuned_baseline_runs_match_frozen_digests(case, tmp_path: Path):
    overrides, *frozen = TUNED_RUNS[case]
    trace = run_experiment(_small_cfg(algo="dsgt", dsgt_tuning="tuned", **overrides))
    path = tmp_path / "trace.csv"
    write_trace(trace, path)
    summary = json.dumps(trace.summary, sort_keys=True).encode()
    assert [_sha256(path), hashlib.sha256(summary).hexdigest()] == frozen


@pytest.mark.parametrize("seeds", [1, 3])
def test_tuned_sweep_tunes_once_per_baseline_cell(seeds, monkeypatch):
    calls: list[tuple[int, int]] = []
    tuner = harness.tune_dsgt_step

    def counting(cfg, *args, **kwargs):
        calls.append((cfg.agents, cfg.seed))
        return tuner(cfg, *args, **kwargs)

    monkeypatch.setattr(harness, "tune_dsgt_step", counting)
    base = _small_cfg(iters=20000, x0_radius=3.0, dsgt_tuning="tuned")
    result = sweep_topology(base, (4, 8), ("dsgt", "ssdsgt"), eps=1e-3, seeds=seeds)
    assert calls == [(4, base.seed), (8, base.seed)]
    assert [len(row.counts) for row in result.rows] == [seeds] * 4


def _sweep_calls(monkeypatch) -> tuple[list, list]:
    """The configs a sweep passes to ``run_experiment`` and to the step tuner.

    The tuner's probe runs also call the harness's ``run_experiment``; they
    are not counted among the runs.
    """
    runs: list[ExperimentConfig] = []
    tunes: list[ExperimentConfig] = []
    tuning = [False]
    run, tune = harness.run_experiment, harness.tune_dsgt_step

    def counting_run(cfg, schedule_override=None):
        if not tuning[0]:
            runs.append(cfg)
        return run(cfg, schedule_override=schedule_override)

    def counting_tune(cfg):
        tunes.append(cfg)
        tuning[0] = True
        try:
            return tune(cfg)
        finally:
            tuning[0] = False

    monkeypatch.setattr(harness, "run_experiment", counting_run)
    monkeypatch.setattr(harness, "tune_dsgt_step", counting_tune)
    return runs, tunes


def _cell_count(base: ExperimentConfig, algo: str, m: int, seed: int, eps: float) -> int | None:
    """The count of one seed of a sweep cell, from a run of that seed's config alone."""
    mixing = "lazy-metropolis" if algo == "assdsgt" else base.mixing
    cfg = replace(
        base, algo=algo, agents=m, mixing=mixing, seed=seed, eps_stop=eps,
        stride=max(1, base.iters // 512),
    )
    return iterations_to_epsilon(run_experiment(cfg), eps)


@pytest.mark.parametrize("tuning", ["matched", "tuned"])
@pytest.mark.parametrize("mixing", ["metropolis", "lazy-metropolis"])
def test_a_seed_free_sweep_cell_runs_once_for_every_seed(monkeypatch, mixing, tuning):
    base = _small_cfg(iters=20000, x0_radius=3.0, mixing=mixing, dsgt_tuning=tuning, step_multiplier=64.0)
    with monkeypatch.context() as patch:
        runs, tunes = _sweep_calls(patch)
        result = sweep_topology(base, (4, 8), ("dsgt",), eps=1e-3, seeds=3)
    # One run per size, on the first seed, and one tuner call for a tuned cell.
    assert [(cfg.agents, cfg.seed) for cfg in runs] == [(4, base.seed), (8, base.seed)]
    tuned = [(cfg.agents, cfg.seed) for cfg in tunes]
    assert tuned == ([] if tuning == "matched" else [(4, base.seed), (8, base.seed)])
    # Each seed's count is the one its own run gives (a tuned run tunes on its own seed).
    for row in result.rows:
        assert row.counts == tuple(_cell_count(base, "dsgt", row.m, base.seed + k, 1e-3) for k in range(3))
        assert None not in row.counts


@pytest.mark.parametrize(
    "algo, overrides",
    [
        ("ssdsgt", dict()),
        ("assdsgt", dict()),
        ("dsgt", dict(sigma_bar=0.5, iters=400)),
        ("dsgt", dict(mixing="random-gossip")),
    ],
    ids=["ssdsgt", "assdsgt", "noisy-dsgt", "gossip-dsgt"],
)
def test_a_sweep_cell_that_draws_from_its_seed_runs_every_seed(monkeypatch, algo, overrides):
    base = _small_cfg(**{**dict(iters=4000, x0_radius=3.0, step_multiplier=8.0), **overrides})
    eps = 0.25 if base.sigma_bar > 0.0 else 1e-3
    with monkeypatch.context() as patch:
        runs, _ = _sweep_calls(patch)
        (row,) = sweep_topology(base, (4,), (algo,), eps=eps, seeds=3).rows
    assert [cfg.seed for cfg in runs] == [base.seed, base.seed + 1, base.seed + 2]
    assert row.counts == tuple(_cell_count(base, algo, 4, base.seed + k, eps) for k in range(3))


def test_sweep_single_size_has_no_exponent():
    base = _small_cfg(iters=4000, x0_radius=3.0)
    result = sweep_topology(base, (4,), ("ssdsgt",), eps=1e-3, seeds=1)
    assert result.exponents == {}
    assert len(result.rows) == 1


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "topology, sizes, algo",
    [
        # Equal spectra that the eigensolver returns a few ulps apart.
        ("complete", (4, 8), "ssdsgt"),
        ("complete", (3, 5), "assdsgt"),
        # theta = 1 at both sizes, so log(1 / theta) is 0 for every row.
        ("ring", (1, 2), "ssdsgt"),
        ("star", (4, 4), "ssdsgt"),
    ],
)
def test_a_sweep_whose_rows_share_one_theta_has_no_exponent(topology, sizes, algo):
    base = ExperimentConfig(topology=topology, iters=20000)
    result = sweep_topology(base, sizes, (algo,), eps=1e-3, seeds=1)
    first, second = (row.theta for row in result.rows)
    assert first == pytest.approx(second, rel=1e-12)
    assert result.exponents == {}
    assert "exponent" not in result.format_table()


def test_sweep_rejects_bad_arguments():
    base = _small_cfg()
    with pytest.raises(ConfigError):
        sweep_topology(base, (4,), ("ssdsgt",), eps=0.0)
    with pytest.raises(ConfigError):
        sweep_topology(base, (4,), ("sgd",), eps=1e-3)
    with pytest.raises(ConfigError):
        sweep_topology(base, (4,), ("ssdsgt",), eps=1e-3, seeds=0)
    with pytest.raises(ConfigError):
        sweep_topology(base, (4,), ("ssdsgt",), eps=1e-3, multipliers={"dsgt": -1.0})
    with pytest.raises(ConfigError):
        sweep_topology(base, (4,), ("ssdsgt",), eps=1e-3, multipliers={"sgd": 2.0})
    with pytest.raises(ConfigError, match="'agents'"):
        sweep_topology(base, (), ("ssdsgt",), eps=1e-3)
    with pytest.raises(ConfigError, match="'algo'"):
        sweep_topology(base, (4,), (), eps=1e-3)


@pytest.mark.parametrize(
    "kwargs, field",
    [
        (dict(eps=float("nan")), "eps"),
        (dict(eps=float("inf")), "eps"),
        (dict(eps=1e-3, multipliers={"ssdsgt": float("inf")}), "multipliers"),
        (dict(eps=1e-3, multipliers={"ssdsgt": float("nan")}), "multipliers"),
    ],
)
def test_sweep_names_a_non_finite_target_or_multiplier_by_its_own_name(kwargs, field):
    with pytest.raises(ConfigError) as excinfo:
        sweep_topology(_small_cfg(), (4,), ("ssdsgt",), **kwargs)
    assert excinfo.value.field == field


@pytest.mark.parametrize(
    "base, sizes, algos, field",
    [
        (dict(iters=200000), (16, 0), ("ssdsgt", "assdsgt"), "agents"),
        (dict(topology="grid"), (4, 9, 10), ("ssdsgt",), "agents"),
        (dict(), (4, 8), ("ssdsgt", "sgd"), "algo"),
        (dict(mixing="random-gossip", dsgt_tuning="tuned"), (4, 8), ("ssdsgt", "dsgt"), "dsgt_tuning"),
    ],
)
def test_sweep_checks_every_cell_before_running_any(monkeypatch, base, sizes, algos, field):
    calls: list[ExperimentConfig] = []

    def counting(cfg, schedule_override=None):
        calls.append(cfg)
        raise AssertionError("a cell ran before every cell was checked")

    monkeypatch.setattr(harness, "run_experiment", counting)
    with pytest.raises(ConfigError) as excinfo:
        sweep_topology(_small_cfg(**base), sizes, algos, eps=1e-6, seeds=2)
    assert excinfo.value.field == field
    assert calls == []


def test_tuned_baseline_step_reaches_target():
    cfg = _small_cfg(algo="dsgt", agents=8, iters=30000, x0_radius=3.0, dsgt_tuning="tuned")
    sched = tune_dsgt_step(replace(cfg, eps_stop=1e-5))
    assert sched.eta0 > 0.0
    trace = run_experiment(
        replace(cfg, eps_stop=1e-5, stride=500), schedule_override=sched
    )
    assert trace.summary["stopped_early"]


@pytest.mark.parametrize("schedule", ["auto", "decaying"])
def test_tuned_step_is_the_run_template_made_constant(schedule):
    cfg = _small_cfg(
        algo="dsgt", iters=3000, x0_radius=3.0, dsgt_tuning="tuned", eps_stop=1e-5, schedule=schedule
    )
    sched = tune_dsgt_step(cfg)
    assert sched == replace(prepare_run(cfg).sched, mode="constant", eta0=sched.eta0, beta=None)


def test_tuner_raises_when_budget_is_hopeless():
    cfg = _small_cfg(algo="dsgt", agents=8, iters=30, x0_radius=3.0, dsgt_tuning="tuned")
    with pytest.raises(InvariantViolation) as caught:
        tune_dsgt_step(replace(cfg, eps_stop=1e-12))
    # The search gave up at the horizon.
    assert caught.value.iteration == 30


def test_step_tuning_on_random_gossip_names_the_mixing_field():
    # The halving search reads the radius of a static matrix; a gossip config
    # that reaches it directly (matched tuning passes validation) is a config
    # problem, not a failed assertion.
    cfg = _small_cfg(algo="dsgt", mixing="random-gossip", iters=200)
    with pytest.raises(ConfigError) as excinfo:
        tune_dsgt_step(cfg)
    assert excinfo.value.field == "mixing"


def test_step_tuning_on_random_gossip_names_the_mixing_field_under_optimisation():
    # `python -O` strips asserts, so the check must not be one.
    script = (
        "from netgrad.errors import ConfigError\n"
        "from netgrad.harness import ExperimentConfig, tune_dsgt_step\n"
        "try:\n"
        "    tune_dsgt_step(ExperimentConfig(algo='dsgt', mixing='random-gossip', agents=4, iters=200))\n"
        "except ConfigError as exc:\n"
        "    print(exc.field)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "mixing"


def test_decay_tuner_runs_every_candidate_to_the_horizon_despite_a_target():
    # With its target, every candidate would stop near 0.3 and score about
    # the same; at the horizon this config picks a different beta.
    cfg = ExperimentConfig(
        topology="ring", agents=4, algo="dsgt", sigma_bar=0.5, iters=400, x0_radius=1.0,
        heterogeneity=0.5, problem_seed=4, eps_stop=0.3,
    )
    assert tune_dsgt_beta(cfg) == tune_dsgt_beta(replace(cfg, eps_stop=None))


def test_decay_tuner_skips_divergent_candidates(monkeypatch):
    cfg = _small_cfg(algo="dsgt", sigma_bar=1.0, iters=200)
    # A multiplier of 1e200 overflows within the first steps; the grid moves past it.
    monkeypatch.setattr(harness, "_DSGT_BETA_GRID", (1e200, 1.0))
    sched = tune_dsgt_beta(cfg)
    monkeypatch.setattr(harness, "_DSGT_BETA_GRID", (1.0,))
    assert sched == tune_dsgt_beta(cfg)
    monkeypatch.setattr(harness, "_DSGT_BETA_GRID", (1e200,))
    with pytest.raises(InvariantViolation) as caught:
        tune_dsgt_beta(cfg)
    assert caught.value.iteration == 200
