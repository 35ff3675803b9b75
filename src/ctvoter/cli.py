"""Command-line entry point.

Subcommands: simulate, index, consensus, coexistence, sweep, urn. Exit codes:
0 success, 1 validation/usage error, 2 I/O error, an event kernel that cannot
be built or loaded included. Every randomized subcommand either takes --seed
or generates one and prints it, so runs are replayable.
"""

from __future__ import annotations

import argparse
import functools
import secrets
import sys
from pathlib import Path

from . import dynamics, experiments, graphs, statics, urn
from .common import check_epsilon, check_seed, strict_json


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


def _driver_sizes(args, form: str) -> tuple[int, ...]:
    """Sizes of --graph for a driver that builds its own graph of form path:N or torus:WxH."""
    if not args.graph or not args.graph.startswith(form.partition(":")[0] + ":"):
        raise UsageError(f"{args.command} requires --graph {form}")
    return graphs._split_graph_spec(args.graph)[1]


def _add_batch_flags(p, reps: int) -> None:
    p.add_argument("--reps", type=int, default=reps)
    p.add_argument("--seed", type=int)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out")


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


def _emit(args, doc: str, name: str, to_csv, data) -> Path | None:
    """Print the JSON document doc and, under --out, write it to report.json
    and to_csv(data) to name, the command's data file; the output directory,
    or None without --out."""
    sys.stdout.write(doc)
    if args.out is None:
        return None
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.json").write_text(doc)
    (out / name).write_text(to_csv(data))
    return out


@functools.cache
def build_parser() -> _Parser:
    """The parser of every subcommand, built once per process: parsing
    leaves it as it was, whether the arguments are accepted or not."""
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
    p.add_argument("--eps", required=True, help="a threshold or comma-separated thresholds")
    _add_batch_flags(p, reps=100)

    p = sub.add_parser("coexistence", help="opinion-retention experiment on a path")
    p.add_argument("--graph", help="graph spec: path:N")
    p.add_argument("--eps", required=True, help="a threshold or comma-separated thresholds")
    _add_batch_flags(p, reps=100)

    p = sub.add_parser("sweep", help="threshold sweep on a torus, optional snapshots")
    p.add_argument("--graph", help="graph spec: torus:WxH")
    p.add_argument("--eps-grid", required=True, help="comma-separated thresholds")
    p.add_argument("--t-max", type=float, required=True)
    _add_batch_flags(p, reps=1)
    p.add_argument("--snapshot", action="store_true")

    p = sub.add_parser("urn", help="box game: strategy S or random play")
    p.add_argument("--strategy", choices=["S", "random"], default="S")
    p.add_argument("--balls", type=int, required=True, help="balls per box j != 0 at start")
    p.add_argument("--boxes", type=int, required=True, help="J; boxes are labelled 0..J")
    p.add_argument("--seed", type=int)

    return parser


def _cmd_simulate(args) -> int:
    if args.to_absorption and args.t_max is not None:
        raise UsageError("--to-absorption conflicts with --t-max")
    # checks --eps, --t-max and --max-events; run_replicate builds its own
    dynamics.SimParams(args.eps, 0, t_max=args.t_max, max_events=args.max_events)
    g = _resolve_graph(args)
    seed = _resolve_seed(args)
    init, report = experiments.run_replicate(
        g, args.eps, seed, t_max=args.t_max, max_events=args.max_events
    )
    doc = strict_json(report.to_dict())
    _emit(args, doc, "final_opinions.csv", dynamics.opinions_to_csv, report.final_opinions)
    return 0


def _cmd_index(args) -> int:
    eps = check_epsilon(args.eps)
    g = _resolve_graph(args)
    bounds = statics.index_bounds(g, eps)
    doc = strict_json(bounds.to_dict())
    _emit(args, doc, "witness_lower.csv", dynamics.opinions_to_csv, bounds.witness_lower)
    return 0


def _parse_thresholds(flag: str, text: str) -> list[float]:
    """The thresholds of a comma-separated list, each checked, none repeated
    (0 and -0 are one); empty entries are skipped."""
    try:
        grid = [float(x) for x in text.split(",") if x.strip()]
    except ValueError:
        raise UsageError(f"bad {flag} {text!r}") from None
    if not grid:
        raise UsageError(f"empty {flag}")
    for eps in grid:
        check_epsilon(eps)
    if len(set(grid)) != len(grid):
        raise UsageError(f"duplicate threshold in {flag} {text!r}")
    return grid


def _cmd_consensus(args) -> int:
    _check_batch(args)
    grid = _parse_thresholds("--eps", args.eps)
    if min(grid) <= 0.5:
        raise UsageError("consensus experiment requires epsilon > 1/2")
    eps = grid[0] if len(grid) == 1 else grid  # one threshold reports flat
    g = _resolve_graph(args)
    seed = _resolve_seed(args)
    report = experiments.consensus_experiment(g, eps, args.reps, seed, workers=args.workers)
    doc = experiments.report_to_json(report)
    _emit(args, doc, "records.csv", experiments.records_to_csv, report.records)
    return 0


def _cmd_coexistence(args) -> int:
    _check_batch(args)
    grid = _parse_thresholds("--eps", args.eps)
    eps = grid[0] if len(grid) == 1 else grid  # one threshold reports flat
    (n,) = _driver_sizes(args, "path:N")
    seed = _resolve_seed(args)
    report = experiments.coexistence_experiment(n, eps, args.reps, seed, workers=args.workers)
    doc = experiments.report_to_json(report)
    _emit(args, doc, "records.csv", experiments.records_to_csv, report.records)
    return 0


def _snapshot_name(eps: float) -> str:
    return f"snapshot_{eps:g}.pgm"


def _cmd_sweep(args) -> int:
    _check_batch(args)
    if args.snapshot and args.out is None:
        raise UsageError("--snapshot requires --out")
    width, height = _driver_sizes(args, "torus:WxH")
    # written so that NaN fails too; inf is allowed and means no limit
    if not args.t_max >= 0:
        raise UsageError("--t-max must be >= 0")
    grid = _parse_thresholds("--eps-grid", args.eps_grid)
    if args.snapshot and len({_snapshot_name(eps) for eps in grid}) != len(grid):
        raise UsageError(f"thresholds in --eps-grid {args.eps_grid!r} share a snapshot file name")
    seed = _resolve_seed(args)
    report, snapshots = experiments.sweep_experiment(
        width, height, grid, args.t_max, args.reps, seed, workers=args.workers
    )
    doc = experiments.report_to_json(report)
    out = _emit(args, doc, "records.csv", experiments.records_to_csv, report.records)
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
        # a given seed is checked before any graph is read or built
        if getattr(args, "seed", None) is not None:
            check_seed(args.seed)
        return _COMMANDS[args.command](args)
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
