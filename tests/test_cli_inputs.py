"""Pins of what every command line input does to the config a run receives.

Each test drives ``cli.main`` with ``run_experiment`` and ``sweep_topology``
replaced in ``netgrad.cli`` by recorders, so no flag can change its field,
its value or its command without a test naming it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import typing
from pathlib import Path

import pytest

from netgrad import cli
from netgrad.harness import ExperimentConfig, SweepResult, Trace

DEFAULTS = ExperimentConfig().to_dict()


def _changed(cfg: ExperimentConfig) -> dict:
    """The fields of ``cfg`` that differ from the defaults."""
    return {k: v for k, v in cfg.to_dict().items() if DEFAULTS[k] != v}


def _sweep_base(cfg: ExperimentConfig) -> dict:
    """The changed fields of a sweep's base that reach its cells.

    Every cell takes ``eps_stop`` from the sweep's target ``eps``, so the
    base's own ``eps_stop`` is not an input of any run.
    """
    changed = _changed(cfg)
    changed.pop("eps_stop", None)
    return changed


@pytest.fixture
def recorded(monkeypatch):
    """Replace the run and sweep entry points; return the list of calls."""
    calls: list[dict] = []

    def fake_run(cfg, schedule_override=None):
        calls.append({"cfg": cfg})
        return Trace(config=cfg.to_dict(), records=[], summary={})

    def fake_sweep(base, sizes, algos, **kwargs):
        calls.append({"cfg": base, "sizes": list(sizes), "algos": list(algos), **kwargs})
        return SweepResult(eps=kwargs["eps"], rows=[], exponents={})

    monkeypatch.setattr(cli, "run_experiment", fake_run)
    monkeypatch.setattr(cli, "sweep_topology", fake_sweep)
    return calls


RUN_OVERRIDES = [
    (["--seed", "5"], {"seed": 5}),
    (["--topology", "star"], {"topology": "star"}),
    (["--agents", "9"], {"agents": 9}),
    (["--algo", "dsgt"], {"algo": "dsgt"}),
    (["--mixing", "lazy-metropolis"], {"mixing": "lazy-metropolis"}),
    (["--sigma", "0.5"], {"sigma_bar": 0.5}),
    (["--iters", "77"], {"iters": 77}),
    (["--stride", "3"], {"stride": 3}),
    (["--eps", "1e-4"], {"eps_stop": 1e-4}),
    (["--step-multiplier", "2.5"], {"step_multiplier": 2.5}),
    (["--label", "demo"], {"label": "demo"}),
    ([], {}),
]


@pytest.mark.parametrize("flags, fields", RUN_OVERRIDES)
def test_run_override_sets_its_field(recorded, capsys, flags, fields):
    assert cli.main(["run", *flags]) == 0
    capsys.readouterr()
    assert len(recorded) == 1
    assert _changed(recorded[0]["cfg"]) == fields


def test_run_out_is_a_path_not_a_config_override(recorded, tmp_path: Path, capsys):
    out = tmp_path / "t.csv"
    assert cli.main(["run", "--out", str(out)]) == 0
    assert json.loads(capsys.readouterr().out)["out"] == str(out)
    assert _changed(recorded[0]["cfg"]) == {}
    assert out.exists()


def test_run_flags_override_the_config_file(recorded, tmp_path: Path, capsys):
    config = tmp_path / "base.json"
    config.write_text(json.dumps({"agents": 4, "iters": 50, "dsgt_tuning": "tuned"}))
    assert cli.main(["run", "--config", str(config), "--iters", "60"]) == 0
    capsys.readouterr()
    assert _changed(recorded[0]["cfg"]) == {"agents": 4, "iters": 60, "dsgt_tuning": "tuned"}


SWEEP_OVERRIDES = [
    (["--topology", "star"], {"topology": "star"}),
    (["--mixing", "lazy-metropolis"], {"mixing": "lazy-metropolis"}),
    (["--sigma", "0.5"], {"sigma_bar": 0.5}),
    (["--iters", "77"], {"iters": 77}),
    (["--seed", "5"], {"seed": 5}),
    (["--dsgt-tuning", "tuned"], {"dsgt_tuning": "tuned"}),
    (["--dsgt-tuning", "matched"], {}),
    ([], {}),
]


@pytest.mark.parametrize("flags, fields", SWEEP_OVERRIDES)
def test_sweep_override_sets_its_base_field(recorded, capsys, flags, fields):
    assert cli.main(["sweep", "--agents", "4,8", "--algo", "ssdsgt,dsgt", *flags]) == 0
    capsys.readouterr()
    (call,) = recorded
    assert _sweep_base(call.pop("cfg")) == fields
    assert call == {
        "sizes": [4, 8],
        "algos": ["ssdsgt", "dsgt"],
        "eps": 1e-6,
        "seeds": 3,
        "workers": 1,
        "multipliers": None,
    }


def test_sweep_axis_flags_stay_off_the_base_config(recorded, capsys):
    argv = ["sweep", "--agents", "16", "--algo", "assdsgt", "--eps", "1e-3"]
    argv += ["--seeds", "2", "--workers", "4", "--dsgt-multiplier", "64"]
    assert cli.main(argv) == 0
    capsys.readouterr()
    (call,) = recorded
    assert _sweep_base(call.pop("cfg")) == {}
    assert call == {
        "sizes": [16],
        "algos": ["assdsgt"],
        "eps": 1e-3,
        "seeds": 2,
        "workers": 4,
        "multipliers": {"dsgt": 64.0},
    }


def test_sweep_dsgt_multiplier_of_one_is_passed_on(recorded, capsys):
    # A multiplier of 1 is a value like any other: it must override the
    # config's own step_multiplier in the dsgt cells, not read as "not given".
    argv = ["sweep", "--agents", "8", "--algo", "dsgt", "--dsgt-multiplier", "1"]
    assert cli.main(argv) == 0
    capsys.readouterr()
    (call,) = recorded
    assert call["multipliers"] == {"dsgt": 1.0}


@pytest.mark.parametrize("flag, expected", [([], "tuned"), (["--dsgt-tuning", "matched"], "matched")])
def test_sweep_dsgt_tuning_from_the_file_unless_the_flag_is_given(
    recorded, tmp_path: Path, capsys, flag, expected
):
    config = tmp_path / "base.json"
    config.write_text(json.dumps({"dsgt_tuning": "tuned", "problem_seed": 7}))
    argv = ["sweep", "--config", str(config), "--agents", "4", "--algo", "dsgt", *flag]
    assert cli.main(argv) == 0
    capsys.readouterr()
    (call,) = recorded
    cfg = call["cfg"]
    assert (cfg.dsgt_tuning, cfg.problem_seed) == (expected, 7)


#: The sidecar of ``run --topology ring --agents 4 --algo ssdsgt --iters 30
#: --seed 5 --label demo --out <path>``, byte for byte.
SIDECAR_SHA256 = "418d9cb273f82fac59d069677d85723676b205ff3162eb0b242dd5d773668e1b"


def test_run_sidecar_bytes(tmp_path: Path, capsys):
    out = tmp_path / "pin.csv"
    argv = ["run", "--topology", "ring", "--agents", "4", "--algo", "ssdsgt", "--iters", "30"]
    argv += ["--seed", "5", "--label", "demo", "--out", str(out)]
    assert cli.main(argv) == 0
    capsys.readouterr()
    sidecar = Path(str(out) + ".config.json").read_bytes()
    assert hashlib.sha256(sidecar).hexdigest() == SIDECAR_SHA256


HELP_FLAGS = {
    "run": "--agents --algo --config --eps --help --iters --label --mixing --out --seed "
    "--sigma --step-multiplier --stride --topology",
    "sweep": "--agents --algo --config --dsgt-multiplier --dsgt-tuning --eps --help --iters "
    "--mixing --out --seed --seeds --sigma --topology --workers",
    "plot": "--help --out",
    "validate-mixing": "--agents --help --mixing --topology",
}


@pytest.mark.parametrize("command", sorted(HELP_FLAGS))
def test_help_flag_set(command, capsys):
    with pytest.raises(SystemExit) as done:
        cli.main([command, "--help"])
    assert done.value.code == 0
    flags = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", capsys.readouterr().out))
    assert flags == set(HELP_FLAGS[command].split())


def test_run_config_file_out_is_the_default_trace_path(recorded, tmp_path: Path, capsys):
    out = tmp_path / "from-file.csv"
    config = tmp_path / "base.json"
    config.write_text(json.dumps({"out": str(out)}))
    assert cli.main(["run", "--config", str(config)]) == 0
    assert json.loads(capsys.readouterr().out)["out"] == str(out)
    assert _changed(recorded[0]["cfg"]) == {"out": str(out)}
    assert out.exists() and Path(str(out) + ".config.json").exists()


def test_every_override_flag_takes_its_config_field_type():
    # A flag's argparse type is its ExperimentConfig field's kind, the type
    # hint without its None.
    hints = typing.get_type_hints(ExperimentConfig)
    commands = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    typed = {}
    for command in ("run", "sweep", "validate-mixing"):
        for action in commands.choices[command]._actions:
            if action.dest in hints:
                kinds = [kind for kind in typing.get_args(hints[action.dest]) if kind is not type(None)]
                assert action.type is (kinds[0] if kinds else hints[action.dest]), (command, action.option_strings)
                typed[command] = typed.get(command, 0) + 1
    assert typed == {"run": 11, "sweep": 6, "validate-mixing": 3}
