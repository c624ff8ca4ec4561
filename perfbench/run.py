"""Benchmark of the netgrad simulator: end-to-end metrics and per-layer tracing.

Run from the root of a netgrad source tree::

    python3 perfbench/run.py --workload noisy-run --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

The package is imported from ``src/`` of that tree; nothing is installed.
A run makes one warm-up pass of the workload, which is not measured and pays
the one-time library start-up (the first LAPACK call, OpenBLAS thread
start-up, lazy imports), then repeats the workload until ``--seconds`` is
used up and reports medians over the measured passes. ``setup_s`` therefore
excludes that first-call cost on every run; the traced run reports the
warm-up pass's set-up time as ``harness.prepare_run.cold_s``. Before each
pass every ``functools`` cache in the package is cleared, so each pass does
the set-up work a fresh ``netgrad`` process would do.

With ``--trace 0`` the metrics are the end-to-end ones of ``BENCHMARK.json``,
measured without layer wrappers. With ``--trace 1`` untraced and traced
passes alternate and the metrics are the per-layer ones: medians over the
traced passes, each counted per pass of the workload. The last line of
standard output is one JSON object: ``correct``, ``attempted`` and ``failed``
count ``netgrad`` commands (a command fails when it exits non-zero or an
output check fails), and ``metrics`` maps names to ``{"value", "unit"}``.
Set-up problems (no ``src/netgrad``, no ``BENCHMARK.json``) exit with code 2
before any result is printed; a failed output check exits with code 1.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import platform
import resource
import signal
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NPROC = len(os.sched_getaffinity(0))
BLAS_THREADS = 1


@dataclass
class Pass:
    """One execution of a workload's commands and what its checks found."""

    traced: bool
    verbs: list[str]
    codes: list[int]
    wall_s: float
    setup_s: float
    stats: dict
    runs: list
    failures: list[tuple[int, str]]
    digests: dict[str, str]
    sizes: dict[str, int]
    counts: list[int]

    @property
    def iters(self) -> int:
        return sum(run.final_t for run in self.runs)

    @property
    def commands(self) -> int:
        return len(self.verbs)

    @property
    def failed(self) -> int:
        return len({index for index, _ in self.failures})


def _clear_caches() -> None:
    """Empty every ``functools`` cache of the netgrad modules."""
    for name, module in list(sys.modules.items()):
        if name == "netgrad" or name.startswith("netgrad."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def run_pass(commands: list, out: Path, traced: bool, reference: dict | None, frozen: dict | None) -> Pass:
    """Run every command once through ``netgrad.cli.main`` and check outputs.

    ``reference`` holds the digests every pass must repeat; ``frozen`` the
    digests of ``digests.json`` when the seed is the frozen one.
    """
    import netgrad.cli
    import workloads
    from probe import Probe

    _clear_caches()
    logs = []
    codes = []
    with Probe(traced) as probe:
        start = time.perf_counter()
        for index, command in enumerate(commands):
            probe.command = index
            log = io.StringIO()
            with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
                codes.append(netgrad.cli.main(list(command.argv)))
            logs.append(log)
        wall = time.perf_counter() - start

    failures: list[tuple[int, str]] = []
    digests: dict[str, str] = {}
    sizes: dict[str, int] = {}
    counts: list[int] = []
    for index, (command, code) in enumerate(zip(commands, codes)):
        if code != 0:
            last = (logs[index].getvalue().strip().splitlines() or [""])[-1]
            failures.append((index, f"exit code {code}: {last}"))
        for name in command.outputs:
            path = out / name
            failures.extend((index, problem) for problem in workloads.check_output(path))
            if path.is_file():
                sizes[name] = path.stat().st_size
                if name == "sweep.csv":
                    counts += [c for _, _, cell in workloads.sweep_counts(path) for c in cell if c is not None]
        got = workloads.output_digests(out, command)
        digests.update(got)
        for key, value in got.items():
            if reference is not None and reference.get(key) != value:
                failures.append((index, f"{key}: digest differs from the warm-up pass"))
            if frozen is not None and frozen.get(key) != value:
                failures.append((index, f"{key}: digest {value} differs from digests.json"))
    for run in probe.runs:
        failures.extend((run.command, problem) for problem in workloads.check_trace(run.trace))
        run.trace = None  # keeps the process's peak memory independent of the pass count
    return Pass(
        traced, [c.argv[0] for c in commands], codes, wall, probe.setup_s, dict(probe.stats), list(probe.runs),
        failures, digests, sizes, counts,
    )


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> tuple[Pass, list[Pass]]:
    """The warm-up pass and the measured passes of one workload."""
    import workloads

    workload = workloads.WORKLOADS[name]
    frozen_seed, frozen_all = workloads.load_frozen(HERE / "digests.json")
    frozen = frozen_all.get(name, {}) if seed == frozen_seed else None
    with tempfile.TemporaryDirectory(prefix=".work-", dir=HERE) as tmp:
        out = Path(tmp)
        for file_name, content in workload.inputs.items():
            (out / file_name).write_text(json.dumps(content), encoding="utf-8")
        commands = workload.commands(seed, out)
        warm = run_pass(commands, out, False, None, frozen)
        passes: list[Pass] = []
        start = time.perf_counter()
        while True:
            passes.append(run_pass(commands, out, traced and len(passes) % 2 == 1, warm.digests, frozen))
            typical = statistics.median(p.wall_s for p in passes)
            if len(passes) >= (2 if traced else 1) and time.perf_counter() - start + typical > seconds:
                return warm, passes


# -- metrics -----------------------------------------------------------------


def end_to_end(passes: list[Pass]) -> dict[str, float]:
    """Medians over the measured passes; peak memory of the process."""
    return {
        "iters_per_s": statistics.median(p.iters / (p.wall_s - p.setup_s) for p in passes),
        "wall_s": statistics.median(p.wall_s for p in passes),
        "setup_s": statistics.median(p.setup_s for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def stream_draws(runs: list) -> dict[str, int]:
    """Random draws per stream, computed from each run's config and ``final_t``.

    Noise: one vector per agent at the start and per iteration (noisy runs).
    Coin: one uniform per iteration of the snapshot algorithms. Gossip: one
    edge per iteration of a ``random-gossip`` run.
    """
    noise = coin = gossip = 0
    for run in runs:
        cfg, final_t = run.cfg, run.final_t
        if cfg.sigma_bar > 0.0:
            noise += cfg.agents * (final_t + 1)
        if cfg.algo != "dsgt":
            coin += final_t
        if cfg.mixing == "random-gossip" and cfg.algo != "assdsgt":
            gossip += final_t
    return {"streams.noise_draws": noise, "streams.coin_draws": coin, "streams.gossip_draws": gossip}


def operator_kind(cfg: Any) -> str:
    if cfg.algo == "assdsgt":
        return "augmented"
    return "gossip" if cfg.mixing == "random-gossip" else "dense"


def mix_cost(kind: str, m: int, d: int) -> tuple[float, float]:
    """Computed (flops, bytes) of one iteration's mixing, as netgrad forms it.

    Every iteration mixes two ``(m, d)`` blocks. A dense product ``W @ x``
    costs ``2 m^2 d`` flops and moves ``8 (m^2 + 2 m d)`` bytes (read ``W``
    and ``x``, write the result). The augmented operator applies twice per
    iteration, each apply two products plus combining the ``(m, d)`` halves
    (3 flops and 7 doubles moved per entry). A gossip iteration also builds
    one dense identity-based ``m x m`` matrix and validates it, about ten
    passes over ``m^2`` doubles and six flops per entry. These are counts
    from array shapes, not measurements: cache effects are ignored.
    """
    product_flops = 2.0 * m * m * d
    product_bytes = 8.0 * (m * m + 2 * m * d)
    if kind == "augmented":
        per_apply_flops = 2 * product_flops + 3.0 * m * d
        per_apply_bytes = 2 * product_bytes + 8.0 * 7 * m * d
        return 2 * per_apply_flops, 2 * per_apply_bytes
    flops, moved = 2 * product_flops, 2 * product_bytes
    if kind == "gossip":
        flops += 6.0 * m * m
        moved += 8.0 * 10 * m * m
    return flops, moved


def mix_costs(runs: list) -> dict[str, float]:
    """Per-iteration mixing flops and bytes of each operator kind.

    Each is the iteration-weighted mean over the runs using that kind, and
    zero when no run does.
    """
    totals = {kind: [0.0, 0.0, 0] for kind in ("dense", "augmented", "gossip")}
    for run in runs:
        kind = operator_kind(run.cfg)
        flops, moved = mix_cost(kind, run.cfg.agents, run.cfg.d)
        entry = totals[kind]
        entry[0] += flops * run.final_t
        entry[1] += moved * run.final_t
        entry[2] += run.final_t
    values = {}
    for kind, (flops, moved, iters) in totals.items():
        values[f"topology.mix_flops.{kind}"] = flops / iters if iters else 0.0
        values[f"topology.mix_bytes.{kind}"] = moved / iters if iters else 0.0
    return values


def layer_values(p: Pass, layers: set[str]) -> dict[str, float]:
    """Every per-layer value of one traced pass."""
    values: dict[str, float] = {}
    for layer in layers:
        stat = p.stats.get(layer)
        values[f"{layer}.calls"] = stat.calls if stat else 0
        values[f"{layer}.self_s"] = stat.self_s if stat else 0.0
    values["trace.self_coverage"] = sum(s.self_s for s in p.stats.values()) / p.wall_s
    values["harness.runs"] = len(p.runs)
    values.update(stream_draws(p.runs))
    values.update(mix_costs(p.runs))
    cells: dict[tuple[str, int], float] = {}
    for run in p.runs:
        if p.verbs[run.command] == "sweep":
            key = (run.cfg.algo, run.cfg.agents)
            cells[key] = cells.get(key, 0.0) + run.wall_s
    cell_s = list(cells.values()) or [0.0]
    values["harness.sweep.cell_s.p50"] = statistics.median(cell_s)
    values["harness.sweep.cell_s.max"] = max(cell_s)
    values["harness.iters_to_eps"] = sum(p.counts)
    values["harness.trace_bytes"] = sum(
        size for name, size in p.sizes.items() if name.endswith(".csv") and name != "sweep.csv"
    )
    values["plotting.svg_bytes"] = sum(size for name, size in p.sizes.items() if name.endswith(".svg"))
    values["errors.invariant_violations"] = p.codes.count(3)  # the CLI's exit code for them
    values["errors.output_mismatches"] = len(p.failures)
    return values


def per_layer(warm: Pass, passes: list[Pass]) -> dict[str, float]:
    """Medians of the traced passes' layer values, plus tracing overhead."""
    from probe import LAYER_TARGETS, OBSERVER_TARGETS

    traced = [p for p in passes if p.traced]
    plain = [p for p in passes if not p.traced]
    layers = {layer for _, _, layer in OBSERVER_TARGETS + LAYER_TARGETS}
    each = [layer_values(p, layers) for p in traced]
    values = {key: statistics.median(v[key] for v in each) for key in each[0]}
    values["harness.prepare_run.cold_s"] = warm.setup_s
    values["trace.overhead"] = statistics.median(p.wall_s for p in traced) / statistics.median(
        p.wall_s for p in plain
    )
    return values


def self_time_shares(p: Pass, limit: int = 6) -> list[str]:
    """Report lines: the largest self times of a traced pass, overall and per algorithm."""
    lines = []
    groups: dict[str, dict[str, float]] = {"whole pass": {k: s.self_s for k, s in p.stats.items()}}
    for run in p.runs:
        group = groups.setdefault(f"{run.cfg.algo} runs", {})
        for layer, seconds in run.self_s.items():
            group[layer] = group.get(layer, 0.0) + seconds
    for title, times in groups.items():
        total = sum(times.values())
        top = sorted(times.items(), key=lambda kv: -kv[1])[:limit]
        shares = ", ".join(f"{layer} {seconds / total:.0%}" for layer, seconds in top)
        lines.append(f"  self-time shares, {title}: {shares}")
    return lines


# -- provenance ----------------------------------------------------------------


def _openblas() -> dict[str, Any]:
    """Runtime OpenBLAS configuration and thread count, when it can be read."""
    path = None
    with open("/proc/self/maps", encoding="utf-8") as maps:
        for line in maps:
            fields = line.split()
            if len(fields) >= 6 and "openblas" in Path(fields[-1]).name.lower():
                path = fields[-1]
                break
    if path is None:
        return {}
    lib = ctypes.CDLL(path)
    for prefix in ("scipy_openblas_", "openblas_"):
        for suffix in ("64_", ""):
            config = getattr(lib, f"{prefix}get_config{suffix}", None)
            threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
            if config is not None and threads is not None:
                config.restype = ctypes.c_char_p
                threads.restype = ctypes.c_int
                return {"openblas": config().decode(), "blas_threads": threads()}
    return {}


def _git_commit() -> str | None:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(seed: int) -> dict[str, Any]:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        **_openblas(),
        "nproc": NPROC,
        "commit": _git_commit(),
        "seed": seed,
    }


# -- command line --------------------------------------------------------------


def _load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def _result(passes: list[Pass], warm: Pass, metrics: dict[str, float], spec_metrics: list[dict]) -> dict:
    every = [warm, *passes]
    attempted = sum(p.commands for p in every)
    failed = sum(p.failed for p in every)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in spec_metrics},
    }


def bench(name: str, seed: int, seconds: float, traced: bool, spec: dict) -> dict:
    """Run one workload and print its report; returns its result object."""
    started = time.perf_counter()
    warm, passes = run_workload(name, seed, seconds, traced)
    if traced:
        values, spec_metrics = per_layer(warm, passes), spec["per_layer"]
    else:
        values, spec_metrics = end_to_end(passes), spec["end_to_end"]
    result = _result(passes, warm, values, spec_metrics)
    print(
        f"workload {name}, seed {seed}: {len(passes)} measured passes after one warm-up pass, "
        f"{time.perf_counter() - started:.1f} s"
    )
    for metric, entry in result["metrics"].items():
        print(f"  {metric:<42} {entry['value']:>14.6g} {entry['unit']}")
    print(
        f"  {'failed_frac':<42} {result['failed'] / result['attempted']:>14.6g} frac "
        f"({result['failed']} of {result['attempted']} commands)"
    )
    if traced:
        for line in self_time_shares(next(p for p in passes if p.traced)):
            print(line)
    seen: dict[tuple[int, str], int] = {}
    for p in [warm, *passes]:
        for failure in p.failures:
            seen[failure] = seen.get(failure, 0) + 1
    for (index, problem), times in seen.items():
        print(f"check failed ({name}, command {index}, {times} passes): {problem}", file=sys.stderr)
    return result


def _terminate(signum: int, frame: object) -> None:
    # Unwind normally so the scratch directory is removed.
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    try:
        spec = _load_spec()
    except (OSError, ValueError) as exc:
        print(f"cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*names, "all"])
    parser.add_argument(
        "--seed", type=int, default=0, help="workload seed (the run seed); 0 is frozen in digests.json"
    )
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"], help="measuring time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer run")
    args = parser.parse_args(argv)

    # At m=1024 the bits of the spectra and products depend on the BLAS
    # thread count, so it is fixed (at most nproc) to keep the frozen digests
    # independent of the machine's core count. Set before numpy loads.
    os.environ["OPENBLAS_NUM_THREADS"] = str(BLAS_THREADS)
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import netgrad
    except ImportError as exc:
        print(f"cannot import netgrad from {src}: {exc}", file=sys.stderr)
        return 2
    if not Path(netgrad.__file__).resolve().is_relative_to(src.resolve()):
        print(f"netgrad was imported from {netgrad.__file__}, not from {src}", file=sys.stderr)
        return 2

    print(json.dumps({"provenance": provenance(args.seed)}))
    todo = names if args.workload == "all" else [args.workload]
    results = {name: bench(name, args.seed, args.seconds, bool(args.trace), spec) for name in todo}
    if len(results) == 1:
        final = results[todo[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
