"""Command line interface for the decentralized gradient-tracking simulator.

Usage:
    netgrad run [--config cfg.json] [--out trace.csv] [overrides...]
    netgrad sweep --agents 8,16,32 --algo ssdsgt,dsgt [--eps 1e-6] [...]
    netgrad plot --out figure.svg trace1.csv [trace2.csv ...]
    netgrad validate-mixing --topology ring --agents 16 [--mixing metropolis]

Exit codes:
    0  success
    2  configuration problem (bad flag, malformed config file or trace,
       invalid value; a sweep checks every cell's config before it runs
       any), or a file that cannot be read or written, naming the path
    3  runtime invariant violation inside a run (a broken tracking identity
       or a non-finite value), naming the iteration
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
from dataclasses import fields, replace
from pathlib import Path

from .errors import ConfigError, InvariantViolation
from .harness import (
    _FIELD_TYPES,
    ExperimentConfig,
    Trace,
    _network,
    load_config,
    read_trace,
    run_experiment,
    save_config,
    sweep_topology,
    write_trace,
)
from .plotting import emit_plot

__all__ = ["main", "build_parser"]


#: Every config override flag, declared once: flag -> (the
#: :class:`ExperimentConfig` field it sets, its help). Its type is the
#: field's. ``run`` takes all but ``--dsgt-tuning``; ``sweep`` takes
#: :data:`_SWEEP_OVERRIDES`; ``validate-mixing`` takes ``--topology``,
#: ``--agents`` and ``--mixing``.
_OVERRIDES: dict[str, tuple[str, str]] = {
    "--seed": ("seed", "run seed (a sweep's first seed)"),
    "--topology": ("topology", "graph family (ring, grid, star, complete)"),
    "--agents": ("agents", "number of agents"),
    "--algo": ("algo", "algorithm tag (dsgt, ssdsgt, assdsgt)"),
    "--mixing": ("mixing", "mixing variant (a sweep's momentum cells use lazy-metropolis)"),
    "--sigma": ("sigma_bar", "gradient noise level"),
    "--iters": ("iters", "iteration horizon (a sweep's cap per run)"),
    "--stride": ("stride", "recording stride"),
    "--eps": ("eps_stop", "early-stop suboptimality target"),
    "--step-multiplier": ("step_multiplier", "scale on the template step size"),
    "--label": ("label", "display label used in plots"),
    "--dsgt-tuning": (
        "dsgt_tuning",
        "step selection for the plain tracking baseline, matched or tuned "
        "(default: the config file's dsgt_tuning, else matched)",
    ),
}
_SWEEP_OVERRIDES = ("--topology", "--mixing", "--sigma", "--iters", "--seed", "--dsgt-tuning")


def _add_override(parser: argparse.ArgumentParser, flag: str, **options: object) -> None:
    """Declare ``flag`` from its :data:`_OVERRIDES` entry, typed as its field, with extra options."""
    dest, text = _OVERRIDES[flag]
    parser.add_argument(flag, dest=dest, type=_FIELD_TYPES[dest][0], help=text, **options)


def _add_run_inputs(parser: argparse.ArgumentParser, overrides: tuple[str, ...], out: str) -> None:
    parser.add_argument("--config", help="JSON configuration file (a sweep's base run)")
    # Not a config override: its dest keeps it off the config's `out` field.
    parser.add_argument("--out", dest="out_path", help=out)
    for flag in overrides:
        _add_override(parser, flag)


def _run_config(args: argparse.Namespace) -> ExperimentConfig:
    """The config file (or the defaults) with every override flag that was given."""
    cfg = load_config(args.config) if args.config else ExperimentConfig()
    given = {f.name: getattr(args, f.name, None) for f in fields(cfg)}
    return replace(cfg, **{name: value for name, value in given.items() if value is not None})


def _check_writable(path: str | None) -> None:
    """Fail before any run when ``path`` cannot be created as a file.

    A run's result is written only after its last iteration, so a missing
    or unwritable directory (or a directory in the file's place) is caught
    here, before the work that would be lost, and reported with the path.
    Every file a command writes is checked before it writes the first.
    """
    if not path:
        return
    folder = Path(path).parent
    if Path(path).is_dir() or not folder.is_dir() or not os.access(folder, os.W_OK):
        raise OSError(errno.ENOENT, "cannot create a file at this path", str(path))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netgrad",
        description="Decentralized gradient-tracking simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute one experiment and write its trace")
    run_flags = tuple(flag for flag in _OVERRIDES if flag != "--dsgt-tuning")
    _add_run_inputs(run_p, run_flags, "trace CSV output path")

    sweep_p = sub.add_parser("sweep", help="iterations-to-target across network sizes")
    sweep_p.add_argument(
        "--agents", dest="sizes", required=True, help="comma-separated sizes, e.g. 8,16,32"
    )
    sweep_p.add_argument("--algo", dest="algos", required=True, help="comma-separated algorithm tags")
    sweep_p.add_argument("--eps", type=float, default=1e-6, help="suboptimality target")
    sweep_p.add_argument("--seeds", type=int, default=3, help="runs per cell")
    sweep_p.add_argument(
        "--workers", type=int, default=1, help="accepted; has no effect (sweeps run serially)"
    )
    sweep_p.add_argument(
        "--dsgt-multiplier",
        type=float,
        default=None,
        help="constant factor on the matched baseline step (exponent-neutral)",
    )
    _add_run_inputs(sweep_p, _SWEEP_OVERRIDES, "sweep table CSV output path")

    plot_p = sub.add_parser("plot", help="render trace CSVs as a self-contained SVG")
    plot_p.add_argument("traces", nargs="+", help="trace CSV files")
    plot_p.add_argument("--out", required=True, help="SVG output path")

    validate_p = sub.add_parser("validate-mixing", help="report mixing matrix diagnostics")
    _add_override(validate_p, "--topology", required=True)
    _add_override(validate_p, "--agents", required=True)
    _add_override(validate_p, "--mixing", default="metropolis")

    return parser


def cmd_run(args: argparse.Namespace) -> int:
    cfg = _run_config(args)
    out = args.out_path if args.out_path is not None else cfg.out
    sidecar = str(out) + ".config.json" if out else None
    _check_writable(out)
    _check_writable(sidecar)
    trace = run_experiment(cfg)
    if out:
        write_trace(trace, out)
        save_config(cfg, sidecar)
    payload = {"records": len(trace.records), "out": out, **trace.summary}
    json.dump(payload, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    try:
        sizes = [int(part) for part in args.sizes.split(",") if part]
    except ValueError:
        raise ConfigError(f"cannot parse sizes from '{args.sizes}'", "agents") from None
    algos = [part.strip() for part in args.algos.split(",") if part.strip()]
    multipliers = None if args.dsgt_multiplier is None else {"dsgt": args.dsgt_multiplier}
    _check_writable(args.out_path)
    result = sweep_topology(
        _run_config(args),
        sizes,
        algos,
        eps=args.eps,
        seeds=args.seeds,
        workers=args.workers,
        multipliers=multipliers,
    )
    print(result.format_table())
    if args.out_path:
        result.to_csv(args.out_path)
    return 0


def cmd_plot(args: argparse.Namespace) -> int:
    _check_writable(args.out)
    traces: list[Trace] = []
    for path in args.traces:
        records = read_trace(path)
        sidecar = Path(str(path) + ".config.json")
        config = load_config(sidecar) if sidecar.exists() else ExperimentConfig(label=Path(path).stem)
        traces.append(Trace(config=config, records=records, summary={}))
    emit_plot(traces, args.out)
    print(f"wrote {args.out}")
    return 0


def cmd_validate_mixing(args: argparse.Namespace) -> int:
    """Report the network ``run`` builds for these three flags."""
    # Building the config checks the three flags as a run would.
    net = _network(ExperimentConfig(topology=args.topology, agents=args.agents, mixing=args.mixing))
    report: dict = {
        "topology": args.topology,
        "agents": args.agents,
        "mixing": args.mixing,
        "edges": len(net.graph.edges),
        "lambda2": net.lambda2,
        "theta": net.theta,
    }
    if net.w is None:
        report["note"] = "family values for the single-edge gossip draws"
    else:
        report["psd"] = net.w.psd_flag
        report["row_sum_deviation"] = float(abs(net.w.entries.sum(axis=1) - 1.0).max())
        report["asymmetry"] = net.w.asymmetry
        if net.w.psd_flag:
            aug = net.momentum()
            report["gamma"] = aug.gamma
            report["theta_tilde"] = aug.theta_tilde
    json.dump(report, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "run": cmd_run,
        "sweep": cmd_sweep,
        "plot": cmd_plot,
        "validate-mixing": cmd_validate_mixing,
    }
    try:
        return handlers[args.command](args)
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:  # ConfigError among them
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
