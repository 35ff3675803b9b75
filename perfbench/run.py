"""Benchmark for ctvoter: end-to-end and per-layer metrics of four workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all           # every workload in turn
    python3 perfbench/run.py --workload all --smoke   # tiny sizes, same checks

A run repeats executions of one workload, each a fresh interpreter running
perfbench/child.py on inputs made from --seed, until --seconds have passed
(closed loop, one execution at a time; the sweep itself uses 2 workers).
Every execution's outputs are checked; at the default seed they must also
match the SHA-256 digests in pinned.json, which pin.py makes from a serial
run. The last line printed is one JSON object:

    {"correct": ..., "attempted": checks, "failed": failed checks, "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
each the median over the run's executions. With --trace 1 the run alternates
untraced and traced serial executions and reports the per-layer metrics,
derived from the traced executions' spans (see METRICS.md).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import socket
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".perfbench_out"
EXECUTION_TIMEOUT_S = 150
# Times of probe()'s two parts at the reference speed. On a 2-vCPU cloud host
# shared with other tenants, speed drifted by up to 1.5x over minutes, so each
# time the benchmark reports is the measured time scaled by the reference over
# the mean of the probes taken just before and just after the execution: set-up
# by the interpreter-and-numpy start, everything else by the Python loop.
REFERENCE_LOOP_S = 0.010
REFERENCE_START_S = 0.200


def _import_workloads():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    if str(HERE) not in sys.path:
        sys.path.insert(0, str(HERE))
    import workloads

    return workloads


def metric_specs() -> dict[str, dict]:
    """End-to-end and per-layer metric specs from BENCHMARK.json, by name."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        "end_to_end": {m["name"]: m for m in doc["end_to_end"]},
        "per_layer": {m["name"]: m for m in doc["per_layer"]},
    }


def probe(tmpdir: Path) -> tuple[float, float]:
    """Current speed, independent of ctvoter: (loop time, interpreter start time).

    The loop time is the median of five runs of a fixed pure-Python loop; the
    start time is the wall time of one `python -c "import numpy"`.
    """
    times = []
    for _ in range(5):
        start = time.perf_counter()
        rng = random.Random(12345)
        slots = [0.0] * 1024
        for _ in range(20000):
            j = rng.randrange(1024)
            slots[j] = slots[(j + 1) & 1023] + rng.random()
        times.append(time.perf_counter() - start)
    start = time.perf_counter()
    env = dict(os.environ, TMPDIR=str(tmpdir))
    subprocess.run([sys.executable, "-c", "import numpy"], cwd=ROOT, env=env, check=True)
    return statistics.median(times), time.perf_counter() - start


def environment(seed: int) -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            models = (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
            cpu = next(models, cpu)
    except OSError:
        pass
    sha = dirty = None
    if (ROOT / ".git").exists():
        def git(*args):
            return subprocess.run(
                ["git", "-C", str(ROOT), *args], capture_output=True, text=True, check=False
            ).stdout.strip()

        sha = git("rev-parse", "HEAD") or None
        dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
    return {
        "host": socket.gethostname(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": sha,
        "git_dirty": dirty,
        "seed": seed,
    }


class Run:
    """One benchmark run of one workload: executions, checks and samples."""

    def __init__(self, wl, workload, seed, smoke, out_root: Path, pinned: dict | None):
        """pinned: digests to hold default-seed outputs to, or None to skip that check."""
        self.wl, self.workload, self.seed, self.smoke = wl, workload, seed, smoke
        self.dir = out_root / workload.name
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        (self.dir / "tmp").mkdir()
        self.pinned = pinned
        self.checks = wl.Checks()
        self.first_digests = None
        self.executions = 0
        self.last_probe = probe(self.dir / "tmp")

    def execute(self, plan: dict, trace: bool) -> dict | None:
        """Run one execution; check its outputs; return its stamps, or None if it failed."""
        out = self.dir / "out"
        shutil.rmtree(out, ignore_errors=True)
        child_plan = dict(
            plan,
            src=str(SRC),
            trace=trace,
            result=str(self.dir / "child_result.json"),
            trace_file=str(self.dir / "trace.json"),
        )
        plan_path = self.dir / "plan.json"
        plan_path.write_text(json.dumps(child_plan))
        Path(child_plan["result"]).unlink(missing_ok=True)
        env = dict(os.environ, TMPDIR=str(self.dir / "tmp"))
        self.executions += 1
        t_launch = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), str(plan_path)],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            cwd=ROOT,
            env=env,
        )
        try:
            _, err = proc.communicate(timeout=EXECUTION_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            _, err = proc.communicate()
        before, self.last_probe = self.last_probe, probe(self.dir / "tmp")
        name = self.workload.name
        exited = f"{name}: execution exited {proc.returncode}"
        if not self.checks.expect(proc.returncode == 0, exited):
            sys.stderr.write(err.decode(errors="replace")[-2000:])
            return None
        child = json.loads(Path(child_plan["result"]).read_text())
        if not self.checks.expect(all(rc == 0 for rc in child["rcs"]), f"{name}: CLI exit codes"):
            return None
        first = self.first_digests is None
        try:
            self.workload.check(plan, out, child, self.checks, first)
            work, items = self.workload.work(plan, out)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            self.checks.expect(False, f"{name}: unreadable output: {exc!r}")
            return None
        digests = self.wl.digests(out)
        if first:
            self.first_digests = digests
            if self.seed == self.wl.DEFAULT_SEED and self.pinned is not None:
                self._check_pinned(digests)
        else:
            self.checks.expect(
                digests == self.first_digests, f"{name}: outputs differ from the first execution"
            )
        wall = child["t_end"] - t_launch
        setup = child["t_graph"] - t_launch
        return {
            "wall_s": wall,
            "setup_s": setup,
            "scale": REFERENCE_LOOP_S / ((before[0] + self.last_probe[0]) / 2),
            "setup_scale": REFERENCE_START_S / ((before[1] + self.last_probe[1]) / 2),
            "work": work,
            "items": items,
            "rss_kb": child["rss_kb"],
            "pool": child["pool"],
            "out": out,
        }

    def _check_pinned(self, digests: dict) -> None:
        key = self.wl.pinned_key(self.workload.name, self.smoke)
        pins = self.pinned.get(key)
        if not self.checks.expect(pins is not None, f"{key}: no pinned digests"):
            return
        for path in sorted(set(pins) | set(digests)):
            self.checks.expect(
                digests.get(path) == pins.get(path), f"{key}: {path} differs from pinned digest"
            )


def end_to_end(sample: dict, scale: float, setup_scale: float) -> dict[str, float]:
    """End-to-end metrics of one execution: set-up time multiplied by
    setup_scale, the time after set-up by scale, and wall time their sum."""
    setup = sample["setup_s"] * setup_scale
    compute = (sample["wall_s"] - sample["setup_s"]) * scale
    return {
        "wall_s": setup + compute,
        "setup_s": setup,
        "work_per_s": sample["work"] / compute,
        "items_per_s": sample["items"] / compute,
        "peak_rss_mb": sample["rss_kb"] / 1024,
    }


def scaled(metrics: dict, specs: dict, scale: float) -> dict[str, float]:
    """Multiply the metrics whose unit is a time by scale."""
    return {k: v * scale if specs[k]["unit"] in ("s", "ns") else v for k, v in metrics.items()}


def layer_metrics(trace_file: Path, sample: dict, workload, plan) -> dict[str, float]:
    """Per-layer metrics of one traced execution, derived from its spans."""
    from tracing import SpanSummary
    from workloads import bytes_written

    s = SpanSummary(json.loads(trace_file.read_text())["spans"])
    kernels = ("dynamics.simulate", "edge_process.simulate_coupled")
    sim_self = s.self_s("dynamics.simulate")
    fixed = s.self_s("dynamics.simulate", "fixed")
    events = s.attr_sum("dynamics.simulate", "events")
    coupled_self = s.self_s("edge_process.simulate_coupled")
    coupled_events = s.attr_sum("edge_process.simulate_coupled", "events")
    coupled_loop = coupled_self - s.self_s("edge_process.simulate_coupled", "coupled0")
    plain_loop = s.self_s("dynamics.simulate", "plain") - s.self_s("dynamics.simulate", "plain0")
    census_s = s.total_s("edge_process.census")
    coupled_total = s.total_s("edge_process.simulate_coupled")
    tight = workload.tight_frac(plan, sample["out"]) if hasattr(workload, "tight_frac") else 0.0
    return {
        "dynamics.simulate_self_s": sim_self,
        "dynamics.ns_per_event": (sim_self - fixed) / events * 1e9 if events else 0.0,
        "dynamics.events": events,
        "dynamics.trace_points": s.attr_sum("dynamics.simulate", "trace_points"),
        "dynamics.fixed_cost_s": fixed,
        "dynamics.random_initial_s": s.self_s("dynamics.random_initial"),
        "dynamics.count_opinions_s": s.self_s("dynamics.count_opinions"),
        "dynamics.extremist_count_s": s.self_s("dynamics.extremist_count"),
        "dynamics.stop.absorbed": sum(s.attr_count(k, "stop", "absorbed") for k in kernels),
        "dynamics.stop.t_max": sum(s.attr_count(k, "stop", "t_max") for k in kernels),
        "dynamics.stop.max_events": sum(s.attr_count(k, "stop", "max_events") for k in kernels),
        "graphs.is_connected_s": s.self_s("graphs.is_connected"),
        "edge_process.simulate_coupled_self_s": coupled_self,
        "edge_process.ns_per_event": coupled_loop / coupled_events * 1e9 if coupled_events else 0.0,
        "edge_process.events": coupled_events,
        "edge_process.census_s": census_s,
        "edge_process.census_calls": s.calls("edge_process.census"),
        "edge_process.census_share": census_s / coupled_total if coupled_total else 0.0,
        "edge_process.overhead_ratio": coupled_loop / plain_loop if plain_loop > 0 else 0.0,
        "experiments.run_replicate_s.p50": s.quantile("experiments.run_replicate", 0.5),
        "experiments.run_replicate_s.p99": s.quantile("experiments.run_replicate", 0.99),
        "experiments.run_replicate_s.n": s.calls("experiments.run_replicate"),
        "experiments.driver_self_s": sum(
            s.self_s(n)
            for n in ("experiments.driver", "experiments.replicate", "experiments.run_replicate")
        ),
        "experiments.report_to_json_s": s.total_s("experiments.report_to_json"),
        "experiments.records_to_csv_s": s.total_s("experiments.records_to_csv"),
        "experiments.write_snapshot_s": s.total_s("experiments.write_snapshot"),
        "experiments.bytes_written": bytes_written(sample["out"]),
        "statics.index_bounds_s.p50": s.quantile("statics.index_bounds", 0.5),
        "statics.index_bounds_s.max": s.quantile("statics.index_bounds", 1.0),
        "statics.index_bounds_s.n": s.calls("statics.index_bounds"),
        "statics.brute_force_index_s": s.total_s("statics.brute_force_index"),
        "statics.tight_frac": tight,
        "graphs.clique_peel_s": s.total_s("graphs.clique_peel"),
        "graphs.enumerate_peels_s": s.total_s("graphs.enumerate_peels"),
        "graphs.chromatic_number_exact_s": s.total_s("graphs.chromatic_number_exact"),
        "cli.self_s": s.self_s("cli.main"),
    }


def pool_efficiency(samples: list[dict]) -> float:
    effs = [
        s["pool"]["busy_s"] / (s["pool"]["workers"] * s["pool"]["batch_s"])
        for s in samples
        if s["pool"]["batch_s"] > 0
    ]
    return median(effs)


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def medians(rows: list[dict]) -> dict[str, float]:
    return {k: median([row[k] for row in rows]) for k in (rows[0] if rows else {})}


def run_workload(name, seed, seconds, trace, smoke=False, out_root=OUT_ROOT, pinned=None) -> dict:
    """One benchmark run; returns the result document (metrics, checks, samples).

    "metrics" holds the medians over executions with times scaled to the
    reference speed; "raw" holds the same medians unscaled.
    """
    wl = _import_workloads()
    workload = wl.WORKLOADS[name]
    specs = metric_specs()["per_layer"]
    pinned = wl.load_pinned() if pinned is None else pinned
    run = Run(wl, workload, seed, smoke, Path(out_root), pinned)
    plan = workload.plan(seed, smoke, run.dir)
    deadline = time.monotonic() + seconds
    rows, raw_rows = [], []
    if not trace:
        while run.executions == 0 or time.monotonic() < deadline:
            sample = run.execute(plan, trace=False)
            if sample is not None:
                rows.append(end_to_end(sample, sample["scale"], sample["setup_scale"]))
                raw_rows.append(end_to_end(sample, 1.0, 1.0))
    else:
        # one pooled execution, for pool efficiency and serial/parallel byte identity
        pooled = []
        if workload.pool_workers > 1:
            pool_plan = workload.plan(seed, smoke, run.dir, workers=workload.pool_workers)
            sample = run.execute(pool_plan, trace=False)
            pooled = [sample] if sample is not None else []
        untraced, pairs = [], 0
        while pairs == 0 or time.monotonic() < deadline:
            pairs += 1
            plain = run.execute(plan, trace=False)
            traced = run.execute(plan, trace=True)
            if plain is None or traced is None:
                continue
            untraced.append(plain)
            layers = layer_metrics(run.dir / "trace.json", traced, workload, plan)
            layers["trace.wall_s"] = traced["wall_s"]
            layers["trace.untraced_wall_s"] = plain["wall_s"]
            layers["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
            raw_rows.append(layers)
            rows.append(scaled(layers, specs, (traced["scale"] + plain["scale"]) / 2))
        efficiency = pool_efficiency(pooled or untraced)
        for row in rows + raw_rows:
            row["experiments.pool_efficiency"] = efficiency
    checks = run.checks
    ok_runs = bool(rows)
    return {
        "workload": name,
        "trace": bool(trace),
        "smoke": smoke,
        "correct": ok_runs and not checks.failures,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "failures": checks.failures[:50],
        "executions": run.executions,
        "samples": len(rows),
        "metrics": medians(rows),
        "raw": medians(raw_rows),
        "values": {k: [row[k] for row in rows] for k in (rows[0] if rows else {})},
        "environment": environment(seed),
    }


def _print_result(doc: dict, specs: dict) -> dict:
    """Print one workload's metrics by name with units; return them in output form."""
    name, n = doc["workload"], doc["samples"]
    kind = "per_layer" if doc["trace"] else "end_to_end"
    wanted = specs[kind]
    missing = set(wanted) ^ set(doc["metrics"])
    if doc["metrics"] and missing:
        raise RuntimeError(f"metrics and BENCHMARK.json disagree on {sorted(missing)}")
    out = {}
    for metric, spec in wanted.items():
        value = doc["metrics"].get(metric)
        if value is None:
            continue
        out[metric] = {"value": value, "unit": spec["unit"]}
        print(f"{name} {metric} = {value:.6g} {spec['unit']} (median of {n})")
    if not doc["trace"]:
        for metric, alias in _import_workloads().WORKLOADS[name].aliases.items():
            print(f"{name} {alias} = {doc['metrics'][metric]:.6g} 1/s (as {metric})")
    frac = doc["failed"] / doc["attempted"] if doc["attempted"] else 1.0
    print(f"{name} failed_frac = {frac:.6g} ({doc['failed']} of {doc['attempted']} checks)")
    for failure in doc["failures"][:10]:
        print(f"check failed: {failure}", file=sys.stderr)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, same checks")
    args = parser.parse_args(argv)

    if not (SRC / "ctvoter" / "__init__.py").is_file():
        print(f"error: no ctvoter sources under {SRC}", file=sys.stderr)
        return 2
    wl = _import_workloads()
    names = list(wl.WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in wl.WORKLOADS for n in names):
        known = ", ".join(wl.WORKLOADS)
        print(f"error: unknown workload {args.workload!r}; one of {known}, all", file=sys.stderr)
        return 2
    seed = wl.DEFAULT_SEED if args.seed is None else args.seed
    specs = metric_specs()

    docs = []
    for name in names:
        doc = run_workload(name, seed, args.seconds, args.trace, smoke=args.smoke)
        (OUT_ROOT / name / "result.json").write_text(json.dumps(doc, indent=1, default=str))
        docs.append(doc)
    if not all(d["metrics"] for d in docs):
        print("error: no execution of the workload succeeded", file=sys.stderr)
        return 1
    print("env " + json.dumps(docs[0]["environment"], sort_keys=True))
    metrics = {}
    for doc in docs:
        for metric, value in _print_result(doc, specs).items():
            metrics[metric if len(docs) == 1 else f"{doc['workload']}.{metric}"] = value
    summary = {
        "correct": all(d["correct"] for d in docs),
        "attempted": sum(d["attempted"] for d in docs),
        "failed": sum(d["failed"] for d in docs),
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
