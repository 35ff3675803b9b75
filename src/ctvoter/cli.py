"""Command-line entry point.

Subcommands: simulate, index, consensus, coexistence, sweep, urn. Exit codes:
0 success, 1 validation/usage error, 2 I/O error. Every randomized subcommand
either takes --seed or generates one and prints it, so runs are replayable.
"""

from __future__ import annotations

import argparse
import json
import secrets
import sys
from pathlib import Path

from . import dynamics, experiments, graphs, statics, urn


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; 2 is reserved for I/O errors
    def error(self, message):
        raise UsageError(message)


def _add_graph_flags(p):
    p.add_argument("--graph", help="graph spec: path:N, cycle:N, complete:N, torus:WxH")
    p.add_argument("--graph-file", help="edge-list file (header 'N M', lines 'i j')")


def _resolve_graph(args) -> graphs.Graph:
    if args.graph and args.graph_file:
        raise UsageError("give either --graph or --graph-file, not both")
    if args.graph:
        return graphs.parse_graph_spec(args.graph)
    if args.graph_file:
        text = Path(args.graph_file).read_text()
        return graphs.load_graph(text)
    raise UsageError("a graph is required (--graph or --graph-file)")


def _check_eps(value: float) -> float:
    if not 0.0 <= value <= 1.0:
        raise UsageError("epsilon out of range")
    return value


def _check_batch(args) -> None:
    if args.reps < 1:
        raise UsageError("--reps must be >= 1")
    if args.workers < 1:
        raise UsageError("--workers must be >= 1")


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    seed = secrets.randbits(63)
    print(f"seed={seed}")
    return seed


def _out_dir(args) -> Path | None:
    if args.out is None:
        return None
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _emit_report(report, out: Path | None) -> None:
    doc = experiments.report_to_json(report)
    sys.stdout.write(doc)
    if out is not None:
        (out / "report.json").write_text(doc)
        (out / "records.csv").write_text(experiments.records_to_csv(report.records))


def build_parser() -> _Parser:
    parser = _Parser(prog="ctvoter", description=__doc__)
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("simulate", help="one seeded run, emits the run report")
    _add_graph_flags(p)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--to-absorption", action="store_true")
    p.add_argument("--t-max", type=float)
    p.add_argument("--max-events", type=int)
    p.add_argument("--out")

    p = sub.add_parser("index", help="coexistence bounds and witnesses")
    _add_graph_flags(p)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--out")

    p = sub.add_parser("consensus", help="consensus-probability experiment (eps > 1/2)")
    _add_graph_flags(p)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--reps", type=int, default=100)
    p.add_argument("--seed", type=int)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out")

    p = sub.add_parser("coexistence", help="opinion-retention experiment on a path")
    _add_graph_flags(p)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--reps", type=int, default=100)
    p.add_argument("--seed", type=int)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out")

    p = sub.add_parser("sweep", help="threshold sweep on a torus, optional snapshots")
    _add_graph_flags(p)
    p.add_argument("--eps-grid", required=True, help="comma-separated thresholds")
    p.add_argument("--t-max", type=float, required=True)
    p.add_argument("--reps", type=int, default=1)
    p.add_argument("--seed", type=int)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out")
    p.add_argument("--snapshot", action="store_true")

    p = sub.add_parser("urn", help="box game: strategy S or random play")
    p.add_argument("--strategy", choices=["S", "random"], default="S")
    p.add_argument("--balls", type=int, required=True, help="balls per box j != 0 at start")
    p.add_argument("--boxes", type=int, required=True, help="J; boxes are labelled 0..J")
    p.add_argument("--seed", type=int)

    return parser


def _cmd_simulate(args) -> int:
    g = _resolve_graph(args)
    eps = _check_eps(args.eps)
    seed = _resolve_seed(args)
    t_max = args.t_max
    if args.to_absorption and t_max is not None:
        raise UsageError("--to-absorption conflicts with --t-max")
    init, report = experiments.run_replicate(
        g, eps, seed, t_max=t_max, max_events=args.max_events
    )
    doc = json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n"
    sys.stdout.write(doc)
    out = _out_dir(args)
    if out is not None:
        (out / "report.json").write_text(doc)
        (out / "final_opinions.csv").write_text(dynamics.opinions_to_csv(report.final_opinions))
    return 0


def _cmd_index(args) -> int:
    g = _resolve_graph(args)
    eps = _check_eps(args.eps)
    bounds = statics.index_bounds(g, eps)
    doc = json.dumps(bounds.to_dict(), sort_keys=True, indent=2) + "\n"
    sys.stdout.write(doc)
    out = _out_dir(args)
    if out is not None:
        (out / "report.json").write_text(doc)
        if bounds.witness_lower is not None:
            (out / "witness_lower.csv").write_text(
                dynamics.opinions_to_csv(bounds.witness_lower)
            )
    return 0


def _cmd_consensus(args) -> int:
    _check_batch(args)
    g = _resolve_graph(args)
    eps = _check_eps(args.eps)
    seed = _resolve_seed(args)
    report = experiments.consensus_experiment(g, eps, args.reps, seed, workers=args.workers)
    _emit_report(report, _out_dir(args))
    return 0


def _cmd_coexistence(args) -> int:
    _check_batch(args)
    g = _resolve_graph(args)
    if g.n_edges != g.n_vertices - 1 or any(g.degree(v) > 2 for v in range(g.n_vertices)):
        raise UsageError("coexistence experiment runs on a path graph")
    eps = _check_eps(args.eps)
    seed = _resolve_seed(args)
    report = experiments.coexistence_experiment(
        g.n_vertices, eps, args.reps, seed, workers=args.workers
    )
    _emit_report(report, _out_dir(args))
    return 0


def _snapshot_name(eps: float) -> str:
    return f"snapshot_{eps:g}.pgm"


def _cmd_sweep(args) -> int:
    _check_batch(args)
    if args.snapshot and args.out is None:
        raise UsageError("--snapshot requires --out")
    if args.graph_file:
        raise UsageError("sweep runs on a generated torus (--graph torus:WxH)")
    if not args.graph or not args.graph.startswith("torus:"):
        raise UsageError("sweep requires --graph torus:WxH")
    _, (width, height) = graphs._split_graph_spec(args.graph)
    # written so that NaN fails too; inf is allowed and means no limit
    if not args.t_max >= 0:
        raise UsageError("--t-max must be >= 0")
    try:
        grid = [float(x) for x in args.eps_grid.split(",") if x.strip()]
    except ValueError:
        raise UsageError(f"bad --eps-grid {args.eps_grid!r}") from None
    if not grid:
        raise UsageError("empty --eps-grid")
    for eps in grid:
        _check_eps(eps)
    if len(set(grid)) != len(grid):
        raise UsageError(f"duplicate threshold in --eps-grid {args.eps_grid!r}")
    if args.snapshot and len({_snapshot_name(eps) for eps in grid}) != len(grid):
        raise UsageError(f"thresholds in --eps-grid {args.eps_grid!r} share a snapshot file name")
    seed = _resolve_seed(args)
    report, snapshots = experiments.sweep_experiment(
        width, height, grid, args.t_max, args.reps, seed, workers=args.workers
    )
    out = _out_dir(args)
    _emit_report(report, out)
    if args.snapshot:
        for eps, config in snapshots.items():
            experiments.write_snapshot(config, width, height, out / _snapshot_name(eps))
    return 0


def _cmd_urn(args) -> int:
    if args.balls < 0:
        raise UsageError("--balls must be >= 0")
    if args.strategy == "S":
        steps, _ = urn.play_strategy_S(args.balls, args.boxes)
    else:
        seed = _resolve_seed(args)
        start = urn.uniform_start(args.balls, args.boxes + 1)
        _, steps = urn.play_random(start, seed)
    print(f"steps={steps}")
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "index": _cmd_index,
    "consensus": _cmd_consensus,
    "coexistence": _cmd_coexistence,
    "sweep": _cmd_sweep,
    "urn": _cmd_urn,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_usage(sys.stderr)
            return 1
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
