"""The three benchmark workloads and the checks on their outputs.

Each workload is a list of ``netgrad`` command lines run in-process through
``netgrad.cli.main``, built from the workload seed (the run seed; the
problem seed stays fixed). The commands write into a scratch directory, and
the benchmark checks what they wrote: exit codes, finite values, audit
ratios, and sha256 digests that must repeat on every pass and, on the seed
named in ``digests.json``, equal the digests frozen there.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from netgrad.harness import AUDIT_ABORT_TOL


@dataclass(frozen=True)
class Command:
    """One ``netgrad`` command line and the files it writes that are checked."""

    argv: tuple[str, ...]
    outputs: tuple[str, ...] = ()


@dataclass(frozen=True)
class Workload:
    """A named list of commands built from the workload seed.

    ``inputs`` maps file names to the JSON the commands read; they are
    written once per benchmark run, before the first pass.
    """

    name: str
    commands: Callable[[int, Path], list[Command]]
    inputs: dict[str, dict]


# noisy-run: the README quick-start at ring m=16 with unit gradient noise and
# the decaying schedule (chosen by ``auto`` for noisy runs). A stride of 10
# gives recording and trace writing a visible share; the plot reads every
# trace back.
NOISY_ITERS = 4000


def _noisy_run(seed: int, out: Path) -> list[Command]:
    commands = []
    for algo, mixing in (("ssdsgt", "metropolis"), ("dsgt", "metropolis"), ("assdsgt", "lazy-metropolis")):
        name = f"{algo}.csv"
        argv = (
            "run", "--topology", "ring", "--agents", "16", "--algo", algo, "--mixing", mixing,
            "--sigma", "1.0", "--iters", str(NOISY_ITERS), "--stride", "10",
            "--seed", str(seed), "--out", str(out / name),
        )
        commands.append(Command(argv, (name,)))
    traces = [str(out / c.outputs[0]) for c in commands]
    commands.append(Command(("plot", *traces, "--out", str(out / "noisy.svg")), ("noisy.svg",)))
    return commands


# noiseless-sweep: the acceptance test's ring instance. The template step is
# scaled by 8 for the snapshot algorithms (and by 64 for dsgt, as in the
# acceptance sweep) so one sweep takes a few seconds; a constant factor
# rescales every count alike.
SWEEP_CONFIG = {
    "topology": "ring",
    "problem_seed": 7,
    "x0_radius": 5.0,
    "heterogeneity": 0.5,
    "dsgt_tuning": "matched",
    "step_multiplier": 8.0,
}


def _noiseless_sweep(seed: int, out: Path) -> list[Command]:
    argv = (
        "sweep", "--config", str(out / "sweep_config.json"), "--agents", "8,16",
        "--algo", "ssdsgt,dsgt,assdsgt", "--dsgt-multiplier", "64", "--seeds", "2",
        "--eps", "1e-3", "--iters", "200000", "--workers", "1",
        "--seed", str(seed), "--out", str(out / "sweep.csv"),
    )
    return [Command(argv, ("sweep.csv",))]


# large-network: ring m=1024, noiseless; one gossip run and one momentum run.
LARGE_ITERS = 200


def _large_network(seed: int, out: Path) -> list[Command]:
    commands = []
    for algo, mixing in (("ssdsgt", "random-gossip"), ("assdsgt", "lazy-metropolis")):
        name = f"{algo}-{mixing}.csv"
        argv = (
            "run", "--topology", "ring", "--agents", "1024", "--algo", algo, "--mixing", mixing,
            "--iters", str(LARGE_ITERS), "--stride", "10",
            "--seed", str(seed), "--out", str(out / name),
        )
        commands.append(Command(argv, (name,)))
    return commands


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("noisy-run", _noisy_run, {}),
        Workload("noiseless-sweep", _noiseless_sweep, {"sweep_config.json": SWEEP_CONFIG}),
        Workload("large-network", _large_network, {}),
    )
}


def _finite(value: Any) -> bool:
    """True when every number inside ``value`` (nested dicts, lists) is finite."""
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return True
    if isinstance(value, (int, float)):
        return math.isfinite(value)
    if isinstance(value, dict):
        return all(_finite(v) for v in value.values())
    if isinstance(value, (list, tuple)):
        return all(_finite(v) for v in value)
    return False


def check_trace(trace: Any) -> list[str]:
    """Problems with one in-memory run result: non-finite values or audits."""
    problems = []
    if not _finite(trace.summary):
        problems.append("summary holds a non-finite value")
    for name, ratio in trace.summary.get("audit_max", {}).items():
        if not ratio <= AUDIT_ABORT_TOL:
            problems.append(f"audit '{name}' ratio {ratio!r} exceeds {AUDIT_ABORT_TOL:g}")
    for record in trace.records:
        if not _finite(vars(record)):
            problems.append(f"trace record at t={record.t} holds a non-finite value")
            break
    return problems


def _csv_rows(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.reader(handle))


def _check_trace_csv(path: Path) -> list[str]:
    rows = _csv_rows(path)
    if len(rows) < 2:
        return [f"{path.name}: no records"]
    for line, row in enumerate(rows[1:], start=2):
        try:
            if not all(math.isfinite(float(cell)) for cell in row):
                return [f"{path.name} line {line}: non-finite value"]
        except ValueError:
            return [f"{path.name} line {line}: unparsable cell"]
    return []


def sweep_counts(path: Path) -> list[tuple[str, str, list[int | None]]]:
    """``(algo, m, counts)`` per cell of a sweep CSV; ``None`` for a miss."""
    cells = []
    for row in _csv_rows(path)[1:]:
        if row[0] != "exponent":
            counts = [None if c == "-" else int(c) for c in row[5].split(";")]
            cells.append((row[0], row[1], counts))
    return cells


def _check_sweep_csv(path: Path) -> list[str]:
    problems = []
    for row in _csv_rows(path)[1:]:
        numbers = row[2:5] if row[0] != "exponent" else row[2:3]
        try:
            if not all(math.isfinite(float(cell)) for cell in numbers):
                problems.append(f"{path.name}: non-finite value in row {row}")
        except ValueError:
            problems.append(f"{path.name}: unparsable or empty cell in row {row}")
    for algo, m, counts in sweep_counts(path):
        if None in counts:
            problems.append(f"{path.name}: {algo} m={m} missed the target on a seed")
    return problems


def _check_svg(path: Path) -> list[str]:
    try:
        root = ET.parse(path).getroot()
    except ET.ParseError as exc:
        return [f"{path.name}: not well-formed XML ({exc})"]
    if not root.tag.endswith("svg"):
        return [f"{path.name}: root element is {root.tag}"]
    return []


def check_output(path: Path) -> list[str]:
    """Problems with one written file, by kind."""
    if not path.is_file():
        return [f"{path.name}: not written"]
    if path.suffix == ".svg":
        return _check_svg(path)
    if path.name == "sweep.csv":
        return _check_sweep_csv(path)
    return _check_trace_csv(path)


def output_digests(out: Path, command: Command) -> dict[str, str]:
    """sha256 of each checked output of ``command``; sweeps add their counts."""
    digests = {}
    for name in command.outputs:
        path = out / name
        if not path.is_file():
            continue
        digests[name] = hashlib.sha256(path.read_bytes()).hexdigest()
        if name == "sweep.csv":
            counts = "\n".join(f"{a},{m},{c}" for a, m, c in sweep_counts(path))
            # The iteration counts alone, apart from the CSV's floats.
            digests["sweep.counts"] = hashlib.sha256(counts.encode()).hexdigest()
    return digests


def load_frozen(path: Path) -> tuple[int, dict[str, dict[str, str]]]:
    """The seed and per-workload digests frozen in ``digests.json``."""
    data = json.loads(path.read_text(encoding="utf-8"))
    return int(data["seed"]), data["workloads"]
