from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path
from xml.sax.saxutils import escape

import pytest
from _reference import validate_mixing_report

from netgrad import cli, harness
from netgrad.errors import ConfigError, InvariantViolation
from netgrad.harness import load_config
from netgrad.plotting import emit_plot


def _run_args(out: Path, extra: list[str] | None = None) -> list[str]:
    args = [
        "run",
        "--topology",
        "ring",
        "--agents",
        "4",
        "--algo",
        "ssdsgt",
        "--iters",
        "30",
        "--seed",
        "5",
        "--out",
        str(out),
    ]
    return args + (extra or [])


def test_run_writes_trace_sidecar_and_summary(tmp_path: Path, capsys):
    out = tmp_path / "demo.csv"
    assert cli.main(_run_args(out)) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["final_t"] == 30
    assert out.exists()
    sidecar = load_config(out.with_suffix(".csv.config.json"))
    assert sidecar.agents == 4
    assert sidecar.seed == 5


def test_run_accepts_config_file_with_flag_overrides(tmp_path: Path, capsys):
    out = tmp_path / "demo.csv"
    assert cli.main(_run_args(out)) == 0
    capsys.readouterr()
    config_path = out.with_suffix(".csv.config.json")
    out2 = tmp_path / "demo2.csv"
    code = cli.main(
        ["run", "--config", str(config_path), "--sigma", "1.0", "--out", str(out2)]
    )
    assert code == 0
    capsys.readouterr()
    reloaded = load_config(out2.with_suffix(".csv.config.json"))
    assert reloaded.sigma_bar == 1.0
    assert reloaded.agents == 4


def test_bad_configuration_exits_with_two(tmp_path: Path, capsys):
    code = cli.main(_run_args(tmp_path / "x.csv", ["--agents", "0"]))
    assert code == 2
    assert "agents" in capsys.readouterr().err


@pytest.mark.parametrize(
    "config, extra, field",
    [
        (None, ["--seed", "-1"], "seed"),
        (None, ["--sigma", "nan"], "sigma_bar"),
        (None, ["--step-multiplier", "inf"], "step_multiplier"),
        ('{"mu": Infinity, "L": Infinity}', [], "mu"),
        pytest.param(
            '{"L": 1e-300, "mu": 1e-300, "step_multiplier": 1e300}', [], "step_multiplier", id="overflowing-step"
        ),
        pytest.param('{"mu": 1' + "0" * 400 + "}", [], "mu", id="integer-past-float64"),
    ],
)
def test_non_finite_or_negative_values_exit_with_two(tmp_path: Path, capsys, config, extra, field):
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(config)
        extra = [*extra, "--config", str(path)]
    assert cli.main(_run_args(tmp_path / "x.csv", extra)) == 2
    assert f"config field '{field}'" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "validate-mixing"])
def test_one_agent_random_gossip_exits_with_two_naming_agents(tmp_path: Path, capsys, command):
    argv = ["--topology", "ring", "--agents", "1", "--mixing", "random-gossip"]
    if command == "run":
        argv += ["--iters", "5", "--out", str(tmp_path / "x.csv")]
    assert cli.main([command, *argv]) == 2
    assert "config field 'agents'" in capsys.readouterr().err


def test_unreadable_config_exits_with_two(tmp_path: Path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text("{nope}")
    assert cli.main(["run", "--config", str(bad)]) == 2
    capsys.readouterr()


def test_invariant_violation_exits_with_three(monkeypatch, tmp_path: Path, capsys):
    def explode(cfg, schedule_override=None):
        raise InvariantViolation("tracker identity broke", iteration=7)

    monkeypatch.setattr(cli, "run_experiment", explode)
    code = cli.main(_run_args(tmp_path / "x.csv"))
    assert code == 3
    assert "identity" in capsys.readouterr().err


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_diverging_run_exits_with_three_naming_the_iteration(tmp_path: Path, capsys):
    # Seed 0 overflows inside numpy before the finiteness checks fire, so any
    # RuntimeWarning that escapes the run fails the test.
    extra = ["--agents", "8", "--step-multiplier", "5e4", "--iters", "3000", "--seed", "0"]
    args = _run_args(tmp_path / "x.csv", extra)
    assert cli.main(args) == 3
    err = capsys.readouterr().err
    match = re.search(r"iteration (\d+)", err)
    assert match is not None and 0 < int(match.group(1)) < 3000
    assert not (tmp_path / "x.csv").exists()


def test_validate_mixing_reports_gap_fields(capsys):
    assert cli.main(["validate-mixing", "--topology", "ring", "--agents", "8"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["lambda2"] == pytest.approx(0.8047378541243649, rel=1e-12)
    assert payload["theta"] == pytest.approx(1.0 - 0.8047378541243649, rel=1e-9)
    assert payload["row_sum_deviation"] < 1e-12
    assert payload["asymmetry"] == 0.0


def test_validate_mixing_lazy_includes_momentum_fields(capsys):
    code = cli.main(
        ["validate-mixing", "--topology", "ring", "--agents", "8", "--mixing", "lazy-metropolis"]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["psd"] is True
    assert 0.0 < payload["gamma"] < 1.0
    assert 0.0 < payload["theta_tilde"] < 1.0


def test_validate_mixing_gossip_reports_family_gap(capsys):
    code = cli.main(
        ["validate-mixing", "--topology", "ring", "--agents", "8", "--mixing", "random-gossip"]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["theta"] == pytest.approx(0.018476517016368987, rel=1e-12)


@pytest.mark.parametrize("topology", ["ring", "star", "complete", "grid"])
@pytest.mark.parametrize("agents", [1, 4, 16])
@pytest.mark.parametrize("mixing", ["metropolis", "lazy-metropolis", "random-gossip"])
def test_validate_mixing_prints_the_reference_report_byte_for_byte(capsys, topology, agents, mixing):
    # One-agent gossip has no edge to draw: the reference's config error,
    # with exit code 2, is the expected outcome there.
    try:
        want = (0, validate_mixing_report(topology, agents, mixing), "")
    except ConfigError as exc:
        want = (2, "", f"configuration error: {exc}\n")
    argv = ["validate-mixing", "--topology", topology, "--agents", str(agents), "--mixing", mixing]
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == want


def test_package_runs_as_a_module():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    argv = [sys.executable, "-m", "netgrad", "validate-mixing", "--topology", "ring", "--agents", "4"]
    done = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["agents"] == 4


def test_plot_emits_wellformed_svg(tmp_path: Path, capsys):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    assert cli.main(_run_args(first, ["--label", "alpha"])) == 0
    assert cli.main(_run_args(second, ["--seed", "6"])) == 0
    capsys.readouterr()
    figure = tmp_path / "figure.svg"
    code = cli.main(["plot", str(first), str(second), "--out", str(figure)])
    assert code == 0
    root = ET.parse(figure).getroot()
    assert root.tag.endswith("svg")
    series = [el for el in root.iter() if el.get("class") == "series"]
    assert len(series) == 4
    legend = [el.text for el in root.iter() if el.get("class") == "legend"]
    assert legend == ["alpha", "ssdsgt m=4 metropolis"]


def test_plot_escapes_a_label_as_saxutils_does(tmp_path: Path):
    label = """a<b & "c" 'd'>"""
    cfg = harness.ExperimentConfig(topology="ring", agents=4, algo="ssdsgt", iters=30, seed=5, label=label)
    figure = tmp_path / "figure.svg"
    emit_plot([harness.run_experiment(cfg)], figure)
    (line,) = [line for line in figure.read_text(encoding="utf-8").splitlines() if 'class="legend"' in line]
    assert line.endswith(f'class="legend">{escape(label)}</text>')
    legend = [el.text for el in ET.parse(figure).getroot().iter() if el.get("class") == "legend"]
    assert legend == [label]


def test_plot_labels_a_sidecar_trace_by_its_config_and_a_bare_trace_by_its_stem(tmp_path: Path, capsys):
    with_sidecar, bare = tmp_path / "a.csv", tmp_path / "bare-run.csv"
    assert cli.main(_run_args(with_sidecar, ["--agents", "6"])) == 0
    assert cli.main(_run_args(bare)) == 0
    Path(str(bare) + ".config.json").unlink()
    figure = tmp_path / "figure.svg"
    assert cli.main(["plot", str(with_sidecar), str(bare), "--out", str(figure)]) == 0
    capsys.readouterr()
    legend = [el.text for el in ET.parse(figure).getroot().iter() if el.get("class") == "legend"]
    assert legend == ["ssdsgt m=6 metropolis", "bare-run"]


def test_plot_requires_at_least_one_trace(tmp_path: Path, capsys):
    code = cli.main(["plot", str(tmp_path / "missing.csv"), "--out", str(tmp_path / "f.svg")])
    assert code == 2
    capsys.readouterr()


def test_sweep_smoke_prints_table_and_writes_csv(tmp_path: Path, capsys):
    out = tmp_path / "sweep.csv"
    code = cli.main(
        [
            "sweep",
            "--agents",
            "4",
            "--algo",
            "ssdsgt",
            "--eps",
            "1e-3",
            "--iters",
            "20000",
            "--seeds",
            "1",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    table = capsys.readouterr().out
    assert "ssdsgt" in table
    assert out.exists()
    header = out.read_text().splitlines()[0]
    assert header.startswith("algo,")



def test_sweep_takes_dsgt_tuning_from_the_config_file(monkeypatch, tmp_path: Path, capsys):
    calls: list[int] = []
    tuner = harness.tune_dsgt_step

    def counting(cfg, *args, **kwargs):
        calls.append(cfg.agents)
        return tuner(cfg, *args, **kwargs)

    monkeypatch.setattr(harness, "tune_dsgt_step", counting)
    config = tmp_path / "base.json"
    config.write_text(json.dumps({"dsgt_tuning": "tuned", "x0_radius": 3.0, "problem_seed": 7}))
    argv = ["sweep", "--config", str(config), "--agents", "4,8", "--algo", "dsgt"]
    argv += ["--eps", "1e-3", "--iters", "2000", "--seeds", "2"]
    assert cli.main(argv) == 0
    assert calls == [4, 8]
    # The flag, when given, still overrides the file.
    assert cli.main(argv + ["--dsgt-tuning", "matched"]) == 0
    assert calls == [4, 8]
    capsys.readouterr()


@pytest.mark.parametrize(
    "agents, algo, field",
    [("", "ssdsgt", "agents"), (",", "ssdsgt", "agents"), ("4", ",", "algo"), ("4", "", "algo")],
)
def test_sweep_with_an_empty_axis_exits_with_two(agents, algo, field, capsys):
    assert cli.main(["sweep", "--agents", agents, "--algo", algo, "--iters", "10"]) == 2
    assert f"config field '{field}'" in capsys.readouterr().err


def _counting_runs(monkeypatch) -> list:
    """Count the runs a sweep starts; ``sweep_topology`` calls the harness's name."""
    calls: list = []
    run = harness.run_experiment

    def counting(cfg, schedule_override=None):
        calls.append(cfg)
        return run(cfg, schedule_override=schedule_override)

    monkeypatch.setattr(harness, "run_experiment", counting)
    return calls


@pytest.mark.parametrize(
    "argv, field",
    [
        (
            ["--agents", "16,0", "--algo", "ssdsgt,assdsgt", "--iters", "200000", "--eps", "1e-6"],
            "agents",
        ),
        (
            ["--agents", "4", "--algo", "dsgt", "--mixing", "random-gossip", "--dsgt-tuning", "tuned"],
            "dsgt_tuning",
        ),
    ],
)
def test_sweep_exits_two_before_any_cell_runs(monkeypatch, capsys, argv, field):
    calls = _counting_runs(monkeypatch)
    assert cli.main(["sweep", *argv, "--seeds", "2"]) == 2
    assert f"config field '{field}'" in capsys.readouterr().err
    assert calls == []


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--iters", "5", "--out"],
        ["sweep", "--agents", "4", "--algo", "ssdsgt", "--eps", "1e-3", "--seeds", "1", "--out"],
        ["plot", "--out"],
    ],
)
def test_an_unwritable_output_exits_two_naming_the_path(tmp_path: Path, monkeypatch, capsys, argv):
    if argv[0] == "plot":
        trace = tmp_path / "t.csv"
        assert cli.main(["run", "--iters", "5", "--out", str(trace)]) == 0
        argv = ["plot", str(trace), "--out"]
    target = tmp_path / "missing" / "x.out"
    calls = _counting_runs(monkeypatch)
    # `run` calls the name it imported into the cli module.
    monkeypatch.setattr(cli, "run_experiment", harness.run_experiment)
    reads: list = []
    monkeypatch.setattr(cli, "read_trace", lambda path: reads.append(path) or harness.read_trace(path))
    assert cli.main([*argv, str(target)]) == 2
    assert str(target) in capsys.readouterr().err
    # Checked before the first iteration, not after the runs, and before
    # `plot` reads a trace.
    assert calls == reads == []


def test_a_directory_at_the_sidecar_path_stops_run_before_it_runs(tmp_path: Path, monkeypatch, capsys):
    out = tmp_path / "t.csv"
    sidecar = tmp_path / "t.csv.config.json"
    sidecar.mkdir()
    calls = _counting_runs(monkeypatch)
    monkeypatch.setattr(cli, "run_experiment", harness.run_experiment)
    assert cli.main(_run_args(out)) == 2
    assert str(sidecar) in capsys.readouterr().err
    # No trace is left without its sidecar.
    assert calls == [] and not out.exists()


def test_an_unreadable_config_exits_two_naming_the_path(tmp_path: Path, capsys):
    assert cli.main(["run", "--config", str(tmp_path)]) == 2
    assert str(tmp_path) in capsys.readouterr().err


def test_plot_of_an_invalid_trace_value_exits_two_naming_file_and_line(tmp_path: Path, capsys):
    trace = tmp_path / "t.csv"
    assert cli.main(["run", "--iters", "5", "--out", str(trace)]) == 0
    lines = trace.read_text().splitlines()
    lines[2] = lines[2].replace(lines[2].split(",")[3], "nan", 1)
    trace.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert cli.main(["plot", str(trace), "--out", str(tmp_path / "f.svg")]) == 2
    err = capsys.readouterr().err
    assert f"trace file '{trace}' line 3: consensus_x" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["sweep", "--agents", "8,x", "--algo", "ssdsgt"], "config field 'agents': cannot parse sizes from '8,x'"),
        (["run", "--config", "{list}"], "configuration must be a JSON object, got list"),
        (["run", "--config", "{missing}"], "does not exist"),
        (["run", "--config", "{late}"], "config field 'avg_checkpoints': entries need to be integers in [0, iters=50]"),
        (["plot", "{header}", "--out", "{svg}"], "cannot plot a trace with no records"),
    ],
    ids=["sweep-size", "config-list", "config-missing", "checkpoint-past-horizon", "plot-header-only"],
)
def test_an_input_the_command_cannot_use_exits_two_saying_why(tmp_path: Path, capsys, argv, message):
    paths = {name: tmp_path / name for name in ("list", "missing", "late", "header", "svg")}
    paths["list"].write_text("[1, 2]")
    paths["late"].write_text('{"iters": 50, "avg_checkpoints": [10, 500], "sigma_bar": 0.5}')
    paths["header"].write_text(",".join(harness.CSV_COLUMNS) + "\n")
    assert cli.main([arg.format(**paths) for arg in argv]) == 2
    assert message in capsys.readouterr().err
    assert not paths["svg"].exists()


def test_a_plot_of_a_run_whose_every_value_is_zero_spans_the_default_decades(tmp_path: Path, capsys):
    # One agent started at the minimizer: every suboptimality and consensus
    # error is 0, so neither panel has a positive value to scale by.
    config, trace, figure = tmp_path / "zero.json", tmp_path / "t.csv", tmp_path / "f.svg"
    config.write_text('{"agents": 1, "x0_radius": 0.0, "iters": 10}')
    assert cli.main(["run", "--config", str(config), "--out", str(trace)]) == 0
    assert {record.subopt for record in harness.read_trace(trace)} == {0.0}
    assert cli.main(["plot", str(trace), "--out", str(figure)]) == 0
    capsys.readouterr()
    root = ET.parse(figure).getroot()
    assert [el.text for el in root.iter() if el.get("class") == "ylabel"] == ["0.1", "1", "10"] * 2
    assert len([el for el in root.iter() if el.get("class") == "series"]) == 2
