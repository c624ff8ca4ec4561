"""Command line interface for the decentralized gradient-tracking simulator.

Usage:
    netgrad run [--config cfg.json] [--out trace.csv] [overrides...]
    netgrad sweep --agents 8,16,32 --algo ssdsgt,dsgt [--eps 1e-6] [...]
    netgrad plot --out figure.svg trace1.csv [trace2.csv ...]
    netgrad validate-mixing --topology ring --agents 16 [--mixing metropolis]

Exit codes:
    0  success
    2  configuration problem (bad flag, malformed config file, invalid value)
    3  runtime invariant violation inside a run (a broken tracking identity
       or a non-finite value), naming the iteration
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from .errors import ConfigError, InvariantViolation
from .harness import (
    ExperimentConfig,
    Trace,
    load_config,
    prepare_run,
    read_trace,
    run_experiment,
    save_config,
    sweep_topology,
    write_trace,
)
from .plotting import emit_plot
from .topology import build_graph, chebyshev_augment, default_gamma, gossip_contraction, lazify, metropolis_mixing

__all__ = ["main", "build_parser"]


def _add_override_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, help="run seed")
    parser.add_argument("--topology", help="graph family (ring, grid, star, complete)")
    parser.add_argument("--agents", type=int, help="number of agents")
    parser.add_argument("--algo", help="algorithm tag (dsgt, ssdsgt, assdsgt)")
    parser.add_argument("--mixing", help="mixing variant")
    parser.add_argument("--sigma", type=float, help="gradient noise level")
    parser.add_argument("--iters", type=int, help="iteration horizon")
    parser.add_argument("--stride", type=int, help="recording stride")
    parser.add_argument("--eps", type=float, help="early-stop suboptimality target")
    parser.add_argument("--step-multiplier", type=float, help="scale on the template step size")
    parser.add_argument("--label", help="display label used in plots")


def _apply_overrides(cfg: ExperimentConfig, args: argparse.Namespace) -> ExperimentConfig:
    updates: dict = {}
    mapping = {
        "seed": "seed",
        "topology": "topology",
        "agents": "agents",
        "algo": "algo",
        "mixing": "mixing",
        "sigma": "sigma_bar",
        "iters": "iters",
        "stride": "stride",
        "eps": "eps_stop",
        "step_multiplier": "step_multiplier",
        "label": "label",
    }
    for flag, field_name in mapping.items():
        value = getattr(args, flag, None)
        if value is not None:
            updates[field_name] = value
    if updates:
        cfg = replace(cfg, **updates)
    cfg.validate()
    return cfg


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netgrad",
        description="Decentralized gradient-tracking simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute one experiment and write its trace")
    run_p.add_argument("--config", help="JSON configuration file")
    run_p.add_argument("--out", help="trace CSV output path")
    _add_override_flags(run_p)

    sweep_p = sub.add_parser("sweep", help="iterations-to-target across network sizes")
    sweep_p.add_argument("--agents", required=True, help="comma-separated sizes, e.g. 8,16,32")
    sweep_p.add_argument("--algo", required=True, help="comma-separated algorithm tags")
    sweep_p.add_argument("--eps", type=float, default=1e-6, help="suboptimality target")
    sweep_p.add_argument("--seeds", type=int, default=3, help="runs per cell")
    sweep_p.add_argument(
        "--workers", type=int, default=1, help="accepted; has no effect (sweeps run serially)"
    )
    sweep_p.add_argument("--config", help="JSON configuration file for the base run")
    sweep_p.add_argument("--out", help="sweep table CSV output path")
    sweep_p.add_argument("--topology", help="graph family")
    sweep_p.add_argument("--mixing", help="mixing variant for the non-momentum algorithms")
    sweep_p.add_argument("--sigma", type=float, help="gradient noise level")
    sweep_p.add_argument("--iters", type=int, help="iteration cap per run")
    sweep_p.add_argument("--seed", type=int, help="base run seed")
    sweep_p.add_argument(
        "--dsgt-tuning",
        choices=("matched", "tuned"),
        help="step selection for the plain tracking baseline "
        "(default: the config file's dsgt_tuning, else matched)",
    )
    sweep_p.add_argument(
        "--dsgt-multiplier",
        type=float,
        default=1.0,
        help="constant factor on the matched baseline step (exponent-neutral)",
    )

    plot_p = sub.add_parser("plot", help="render trace CSVs as a self-contained SVG")
    plot_p.add_argument("traces", nargs="+", help="trace CSV files")
    plot_p.add_argument("--out", required=True, help="SVG output path")

    validate_p = sub.add_parser("validate-mixing", help="report mixing matrix diagnostics")
    validate_p.add_argument("--topology", required=True, help="graph family")
    validate_p.add_argument("--agents", type=int, required=True, help="number of agents")
    validate_p.add_argument("--mixing", default="metropolis", help="mixing variant")

    return parser


def cmd_run(args: argparse.Namespace) -> int:
    cfg = load_config(args.config) if args.config else ExperimentConfig()
    cfg = _apply_overrides(cfg, args)
    trace = run_experiment(cfg)
    out = args.out if args.out is not None else cfg.out
    if out:
        write_trace(trace, out)
        save_config(cfg, str(out) + ".config.json")
    payload = {"records": len(trace.records), "out": out, **trace.summary}
    json.dump(payload, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    try:
        sizes = [int(part) for part in args.agents.split(",") if part]
    except ValueError:
        raise ConfigError(f"cannot parse sizes from '{args.agents}'", "agents") from None
    algos = [part.strip() for part in args.algo.split(",") if part.strip()]
    # The sweep owns the size and algorithm axes; keep the list-valued flags
    # away from the scalar config fields of the same name.
    args.agents = None
    args.algo = None
    base = load_config(args.config) if args.config else ExperimentConfig()
    base = _apply_overrides(base, args)
    if args.dsgt_tuning is not None:
        base = replace(base, dsgt_tuning=args.dsgt_tuning)
    multipliers = {"dsgt": args.dsgt_multiplier} if args.dsgt_multiplier != 1.0 else None
    result = sweep_topology(
        base,
        sizes,
        algos,
        eps=args.eps,
        seeds=args.seeds,
        workers=args.workers,
        multipliers=multipliers,
    )
    print(result.format_table())
    if args.out:
        result.to_csv(args.out)
    return 0


def cmd_plot(args: argparse.Namespace) -> int:
    traces: list[Trace] = []
    for path in args.traces:
        records = read_trace(path)
        sidecar = Path(str(path) + ".config.json")
        if sidecar.exists():
            config = load_config(sidecar).to_dict()
        else:
            config = {"label": Path(path).stem}
        traces.append(Trace(config=config, records=records, summary={}))
    emit_plot(traces, args.out)
    print(f"wrote {args.out}")
    return 0


def cmd_validate_mixing(args: argparse.Namespace) -> int:
    ExperimentConfig(topology=args.topology, agents=args.agents, mixing=args.mixing).validate()
    graph = build_graph(args.topology, args.agents)
    report: dict = {
        "topology": args.topology,
        "agents": args.agents,
        "mixing": args.mixing,
        "edges": len(graph.edges),
    }
    if args.mixing == "random-gossip":
        lambda2_eff, theta_eff = gossip_contraction(graph)
        report["lambda2"] = lambda2_eff
        report["theta"] = theta_eff
        report["note"] = "family values for the single-edge gossip draws"
    else:
        w = metropolis_mixing(graph)
        if args.mixing == "lazy-metropolis":
            w = lazify(w)
        entries = w.entries
        report["lambda2"] = w.lambda2
        report["theta"] = w.theta
        report["psd"] = w.psd_flag
        report["row_sum_deviation"] = float(abs(entries.sum(axis=1) - 1.0).max())
        report["asymmetry"] = w.asymmetry
        if w.psd_flag:
            gamma = default_gamma(w.lambda2)
            aug = chebyshev_augment(w, gamma)
            report["gamma"] = gamma
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
    except (ConfigError, ValueError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
