"""The benchmark's workloads: inputs made from a seed, and checks on outputs.

A workload is one command (or one library driver) run on inputs that depend
only on the workload, the seed and the size (full, or tiny for the smoke
mode). Every execution of a workload within a run uses the same inputs.
The checks read only what the execution wrote, plus recomputations through
ctvoter's public functions, so the program is judged from outside.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from pathlib import Path

from ctvoter import dynamics, experiments, graphs
from ctvoter.common import ceil_recip, spawn_seed

DEFAULT_SEED = 1
PINNED_FILE = Path(__file__).with_name("pinned.json")


class Checks:
    """Tally of output checks: each expect() is one check attempted."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok


def digests(out: Path) -> dict[str, str]:
    """SHA-256 of every file under out, keyed by its path relative to out."""
    return {
        p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*"))
        if p.is_file()
    }


def bytes_written(out: Path) -> int:
    return sum(p.stat().st_size for p in out.rglob("*") if p.is_file())


def pinned_key(name: str, smoke: bool) -> str:
    return f"{name}@smoke" if smoke else name


def load_pinned() -> dict:
    return json.loads(PINNED_FILE.read_text()) if PINNED_FILE.exists() else {}


def _read_records_csv(path: Path) -> list[list[str]]:
    lines = path.read_text().splitlines()
    return [line.split(",") for line in lines[1:]] if lines else []


def _csv_matches_records(rows, recs) -> bool:
    def cell(value):
        return "" if value is None else str(int(value) if isinstance(value, bool) else value)

    keys = ("replicate", "seed", "nu", "absorbed", "consensus", "theta_inf_zero", "events")
    return len(rows) == len(recs) and all(
        row == [cell(rec[k]) for k in keys] for row, rec in zip(rows, recs)
    )


def _report_work(plan, out: Path) -> tuple[int, int]:
    """(events, replicates) of a CLI experiment's report.json."""
    recs = json.loads((out / "report.json").read_text())["records"]
    return sum(r["events"] for r in recs), len(recs)


def _check_absorbed_replicate(checks, g, eps, rec, t_max=None) -> None:
    """Recompute one absorbed replicate and check its final state and record."""
    _, report = experiments.run_replicate(g, eps, rec["seed"], t_max=t_max)
    tag = f"replicate {rec['replicate']}"
    checks.expect(report.absorbed, f"{tag}: recomputation is not absorbed")
    checks.expect(
        dynamics.is_absorbing(g, report.final_opinions, eps), f"{tag}: final state not absorbing"
    )
    checks.expect(
        dynamics.count_opinions(report.final_opinions) == rec["nu"], f"{tag}: nu differs"
    )
    checks.expect(report.events == rec["events"], f"{tag}: event count differs")
    if rec["theta_inf_zero"] is not None:
        zero = dynamics.extremist_count(report.final_opinions, eps) == 0
        checks.expect(zero == rec["theta_inf_zero"], f"{tag}: theta_inf_zero differs")


class Sweep:
    name = "sweep-torus64"
    why = (
        "paper's lattice sweep on torus:64x64 over 4 thresholds: the event loop does almost "
        "all the work on a degree-4 graph whose active set never drains"
    )
    sizes = {
        False: dict(side=64, grid=(0.2, 1 / 3, 0.5, 1.0), t_max=50.0, reps=2),
        True: dict(side=8, grid=(0.2, 0.5), t_max=5.0, reps=2),
    }
    pool_workers = 2
    aliases = {"work_per_s": "events_per_s", "items_per_s": "replicates_per_s"}

    def plan(self, seed, smoke, run_dir: Path, workers=1) -> dict:
        """The timed plan is serial; the traced run adds one pool_workers execution."""
        s = self.sizes[smoke]
        argv = [
            "sweep", "--graph", f"torus:{s['side']}x{s['side']}",
            "--eps-grid", ",".join(repr(e) for e in s["grid"]),
            "--t-max", str(s["t_max"]), "--reps", str(s["reps"]),
            "--workers", str(workers),
            "--seed", str(seed), "--snapshot", "--out", str(run_dir / "out"),
        ]
        return {"mode": "cli", "argvs": [argv], "seed": seed, **s}

    def check(self, plan, out: Path, child: dict, checks: Checks, first: bool) -> None:
        doc = json.loads((out / "report.json").read_text())
        recs = doc["records"]
        side, grid, reps = plan["side"], plan["grid"], plan["reps"]
        checks.expect(len(recs) == len(grid) * reps, "sweep: record count")
        checks.expect(
            _csv_matches_records(_read_records_csv(out / "records.csv"), recs),
            "sweep: records.csv differs from report.json",
        )
        for rec in recs:
            checks.expect(
                rec["seed"] == spawn_seed(plan["seed"], rec["replicate"]), "sweep: replicate seed"
            )
            checks.expect(1 <= rec["nu"] <= side * side, "sweep: nu out of range")
        per_eps = doc["aggregates"]["per_epsilon"]
        header = f"P5\n{side} {side}\n255\n".encode("ascii")
        for k, eps in enumerate(grid):
            block = recs[k * reps : (k + 1) * reps]
            agg = per_eps.get(repr(eps), {})
            checks.expect(
                agg.get("absorbed_count") == sum(r["absorbed"] for r in block),
                f"sweep: absorbed_count at eps={eps}",
            )
            checks.expect(
                math.isclose(agg.get("mean_nu", -1), sum(r["nu"] for r in block) / reps),
                f"sweep: mean_nu at eps={eps}",
            )
            pgm = (out / f"snapshot_{eps:g}.pgm").read_bytes()
            checks.expect(
                pgm.startswith(header) and len(pgm) == len(header) + side * side,
                f"sweep: snapshot at eps={eps}",
            )
        if first:
            g = graphs.torus_graph(side, side)
            for k, eps in enumerate(grid):
                for rec in recs[k * reps : (k + 1) * reps]:
                    if rec["absorbed"]:
                        _check_absorbed_replicate(checks, g, eps, rec, t_max=plan["t_max"])

    work = staticmethod(_report_work)


class Consensus:
    name = "consensus-path20"
    why = (
        "2000 short runs to absorption on path:20 at eps=0.75: per-replicate set-up and "
        "import are a large share, so a kernel-only gain shows less here"
    )
    sizes = {
        False: dict(n=20, eps=0.75, reps=2000),
        True: dict(n=20, eps=0.75, reps=40),
    }
    pool_workers = 1
    aliases = {"work_per_s": "events_per_s", "items_per_s": "replicates_per_s"}

    def plan(self, seed, smoke, run_dir: Path) -> dict:
        s = self.sizes[smoke]
        argv = [
            "consensus", "--graph", f"path:{s['n']}", "--eps", repr(s["eps"]),
            "--reps", str(s["reps"]), "--workers", "1",
            "--seed", str(seed), "--out", str(run_dir / "out"),
        ]
        return {"mode": "cli", "argvs": [argv], "seed": seed, **s}

    def check(self, plan, out: Path, child: dict, checks: Checks, first: bool) -> None:
        doc = json.loads((out / "report.json").read_text())
        recs, reps = doc["records"], plan["reps"]
        checks.expect(len(recs) == reps, "consensus: record count")
        checks.expect(
            doc["aggregates"]["theta_in_0N_count"] == reps, "consensus: theta_in_0N_count != reps"
        )
        checks.expect(
            _csv_matches_records(_read_records_csv(out / "records.csv"), recs),
            "consensus: records.csv differs from report.json",
        )
        for i, rec in enumerate(recs):
            checks.expect(
                rec["replicate"] == i and rec["seed"] == spawn_seed(plan["seed"], i),
                f"consensus: replicate {i} seed",
            )
            checks.expect(rec["absorbed"], f"consensus: replicate {i} not absorbed")
            checks.expect(rec["consensus"] == (rec["nu"] == 1), f"consensus: replicate {i} flag")
        if first:
            g = graphs.path_graph(plan["n"])
            for rec in recs:
                _check_absorbed_replicate(checks, g, plan["eps"], rec)

    work = staticmethod(_report_work)


class Coupled:
    name = "coupled-path20k"
    why = (
        "edge-type census on path:20000 at eps=0.02 to absorption: the census dominates and "
        "the event loop is small, so a kernel-only gain should not show"
    )
    sizes = {
        False: dict(n=20000, eps=0.02, reps=10),
        True: dict(n=300, eps=0.02, reps=3),
    }
    pool_workers = 1
    aliases = {"work_per_s": "events_per_s", "items_per_s": "replicates_per_s"}

    def plan(self, seed, smoke, run_dir: Path) -> dict:
        return {"mode": "coupled", "seed": seed, "out": str(run_dir / "out"), **self.sizes[smoke]}

    def check(self, plan, out: Path, child: dict, checks: Checks, first: bool) -> None:
        n, eps = plan["n"], plan["eps"]
        header = "time,event_index," + ",".join(f"X{j}" for j in range(ceil_recip(eps) + 1))
        events = []
        for i in range(plan["reps"]):
            lines = (out / f"census_{i}.csv").read_text().splitlines()
            checks.expect(lines[0] == header + ",boundary", f"coupled: census {i} header")
            last = -1
            for line in lines[1:]:
                cells = line.split(",")
                idx = int(cells[1])
                checks.expect(
                    sum(int(c) for c in cells[2:]) == n - 1, f"coupled: census {i} total != edges"
                )
                checks.expect(idx > last, f"coupled: census {i} event index not increasing")
                last = idx
            events.append(last)
        for what, ok in child.get("checks", []):
            checks.expect(ok, f"coupled: {what}")
        if first:
            g = graphs.path_graph(n)
            for i in range(plan["reps"]):
                rep_seed = spawn_seed(plan["seed"], i)
                _, report = experiments.run_replicate(g, eps, rep_seed)
                checks.expect(report.events == events[i], f"coupled: replicate {i} events differ")
                checks.expect(
                    report.absorbed and dynamics.is_absorbing(g, report.final_opinions, eps),
                    f"coupled: replicate {i} plain run not absorbing",
                )

    def work(self, plan, out: Path) -> tuple[int, int]:
        events = 0
        for i in range(plan["reps"]):
            last = (out / f"census_{i}.csv").read_text().splitlines()[-1]
            events += int(last.split(",")[1])
        return events, plan["reps"]


def _index_graph_edges(spec: str) -> tuple[int, list[tuple[int, int]]]:
    """Edge lists built here, independently of ctvoter's generators."""
    kind, _, size = spec.partition(":")
    if kind == "petersen":
        edges = [(i, (i + 1) % 5) for i in range(5)]
        edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
        edges += [(i, 5 + i) for i in range(5)]
        return 10, edges
    if kind == "torus":
        w, h = (int(x) for x in size.split("x"))
        edges = []
        for y in range(h):
            for x in range(w):
                edges.append((y * w + x, y * w + (x + 1) % w))
                edges.append((y * w + x, ((y + 1) % h) * w + x))
        return w * h, edges
    n = int(size)
    if kind == "path":
        return n, [(i, i + 1) for i in range(n - 1)]
    if kind == "cycle":
        return n, [(i, (i + 1) % n) for i in range(n)]
    if kind == "complete":
        return n, [(i, j) for i in range(n) for j in range(i + 1, n)]
    raise ValueError(f"unknown graph {spec!r}")


class Index:
    name = "index-smallgraphs"
    why = (
        "52 statics queries (13 small graphs x 4 eps) in one process: the only workload for "
        "statics and the colouring/clique code; no RNG and no event loop"
    )
    sizes = {
        False: dict(
            graphs=[f"cycle:{n}" for n in range(5, 13)]
            + ["path:8", "complete:8", "torus:3x3", "torus:4x4", "petersen"],
            eps=(0.2, 0.3, 0.5, 0.6),
        ),
        True: dict(graphs=["cycle:5", "path:4", "petersen"], eps=(0.3, 0.6)),
    }
    pool_workers = 1
    aliases = {"work_per_s": "queries_per_s"}

    def plan(self, seed, smoke, run_dir: Path) -> dict:
        """One query per (graph, eps); the seed relabels each graph's vertices."""
        s = self.sizes[smoke]
        rng = random.Random(seed)
        inputs = run_dir / "inputs"
        inputs.mkdir(parents=True, exist_ok=True)
        argvs, queries = [], []
        for spec in s["graphs"]:
            n, edges = _index_graph_edges(spec)
            perm = list(range(n))
            rng.shuffle(perm)
            path = inputs / f"{spec.replace(':', '-')}.txt"
            lines = [f"{n} {len(edges)}"] + [f"{perm[i]} {perm[j]}" for i, j in edges]
            path.write_text("\n".join(lines) + "\n")
            for eps in s["eps"]:
                qdir = f"{spec.replace(':', '-')}_{eps!r}"
                argvs.append(
                    ["index", "--graph-file", str(path), "--eps", repr(eps),
                     "--out", str(run_dir / "out" / qdir)]
                )
                queries.append([str(path), eps, qdir])
        return {"mode": "cli", "argvs": argvs, "queries": queries, "seed": seed}

    def check(self, plan, out: Path, child: dict, checks: Checks, first: bool) -> None:
        for path, eps, qdir in plan["queries"]:
            g = graphs.load_graph(Path(path).read_text())
            doc = json.loads((out / qdir / "report.json").read_text())
            lower, upper, exact = doc["lower"], doc["upper"], doc["exact"]
            checks.expect(lower <= upper, f"index {qdir}: lower > upper")
            if exact is not None:
                checks.expect(lower <= exact <= upper, f"index {qdir}: exact outside bounds")
            witness = dynamics.opinions_from_csv((out / qdir / "witness_lower.csv").read_text())
            checks.expect(len(witness) == g.n_vertices, f"index {qdir}: witness length")
            checks.expect(
                dynamics.is_absorbing(g, witness, eps), f"index {qdir}: witness not absorbing"
            )
            checks.expect(
                dynamics.count_opinions(witness) == lower,
                f"index {qdir}: witness opinions != lower",
            )

    def work(self, plan, out: Path) -> tuple[int, int]:
        return len(plan["queries"]), len(plan["queries"])

    @staticmethod
    def tight_frac(plan, out: Path) -> float:
        docs = [json.loads((out / q / "report.json").read_text()) for _, _, q in plan["queries"]]
        return sum(d["lower"] == d["upper"] for d in docs) / len(docs)


WORKLOADS = {w.name: w for w in (Sweep(), Consensus(), Coupled(), Index())}
