from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from netgrad import cli, harness
from netgrad.errors import InvariantViolation
from netgrad.harness import load_config


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
    ],
)
def test_non_finite_or_negative_values_exit_with_two(tmp_path: Path, capsys, config, extra, field):
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(config)
        extra = [*extra, "--config", str(path)]
    assert cli.main(_run_args(tmp_path / "x.csv", extra)) == 2
    assert f"config field '{field}'" in capsys.readouterr().err


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
