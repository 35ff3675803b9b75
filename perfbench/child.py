"""One execution of a benchmark workload, in a fresh interpreter.

Usage: python3 perfbench/child.py PLAN_JSON

run.py writes the plan and starts this script once per execution, so every
execution pays interpreter start-up and the numpy import as a CLI user does.
The script imports ctvoter from the checkout's src/, runs the planned CLI
calls (or the coupled-process driver) and writes a result file holding
monotonic-clock stamps (the same clock as the parent's launch stamp), peak
RSS and, for the coupled workload, its absorbing-state checks.

With "trace" set in the plan it also wraps ctvoter's module-level names in
spans (tracing.Tracer), and after the timed part replays each kernel call
with max_events=0, and the coupled calls through the plain kernel, so the
loop's cost per event can be told apart from its fixed cost. The spans are
written to the plan's trace file at exit.
"""

from __future__ import annotations

import dataclasses
import json
import resource
import sys
import time
from pathlib import Path


def _stop_reason(report, params) -> str:
    if report.absorbed:
        return "absorbed"
    if params.t_max is not None and report.time == params.t_max:
        return "t_max"
    return "max_events"


def _kernel_attrs(kernel_calls, tracer):
    def attrs(args, kwargs, result):
        report = getattr(result, "report", result)
        if tracer.phase == "main":
            kernel_calls.append(args[:3])
        return {
            "events": report.events,
            "trace_points": len(report.opinion_trace),
            "stop": _stop_reason(report, args[2]),
        }

    return attrs


def install_tracer(tracer, kernel_calls) -> None:
    """Rebind the module-level names callers look up to span wrappers."""
    from ctvoter import cli, dynamics, edge_process, experiments, graphs, statics

    kernel = _kernel_attrs(kernel_calls, tracer)
    by_replicate = {"replicate_of": lambda args: args[0][2]}
    patches = [
        (cli, "main", "cli.main", {}),
        (graphs, "parse_graph_spec", "graphs.build", {}),
        (graphs, "load_graph", "graphs.build", {}),
        (experiments, "torus_graph", "graphs.build", {}),
        (experiments, "consensus_experiment", "experiments.driver", {}),
        (experiments, "sweep_experiment", "experiments.driver", {}),
        (experiments, "_replicate_worker", "experiments.replicate", by_replicate),
        (experiments, "run_replicate", "experiments.run_replicate", {}),
        (experiments, "report_to_json", "experiments.report_to_json", {}),
        (experiments, "records_to_csv", "experiments.records_to_csv", {}),
        (experiments, "write_snapshot", "experiments.write_snapshot", {}),
        (experiments, "random_initial", "dynamics.random_initial", {}),
        (dynamics, "random_initial", "dynamics.random_initial", {}),
        (experiments, "simulate", "dynamics.simulate", {"attrs_of": kernel}),
        (dynamics, "simulate", "dynamics.simulate", {"attrs_of": kernel}),
        (experiments, "count_opinions", "dynamics.count_opinions", {}),
        (experiments, "extremist_count", "dynamics.extremist_count", {}),
        (dynamics, "extremist_count", "dynamics.extremist_count", {}),
        (edge_process, "extremist_count", "dynamics.extremist_count", {}),
        (experiments, "is_connected", "graphs.is_connected", {}),
        (dynamics, "is_connected", "graphs.is_connected", {}),
        (edge_process, "is_connected", "graphs.is_connected", {}),
        (edge_process, "simulate_coupled", "edge_process.simulate_coupled", {"attrs_of": kernel}),
        (edge_process, "census", "edge_process.census", {}),
        (statics, "index_bounds", "statics.index_bounds", {}),
        (statics, "brute_force_index", "statics.brute_force_index", {}),
        (statics, "clique_peel", "graphs.clique_peel", {}),
        (statics, "enumerate_peels", "graphs.enumerate_peels", {}),
        (statics, "chromatic_number_exact", "graphs.chromatic_number_exact", {}),
    ]
    for module, attr, name, kwargs in patches:
        tracer.patch(module, attr, name, **kwargs)


def main() -> int:
    plan = json.loads(Path(sys.argv[1]).read_text())
    src = Path(plan["src"]).resolve()
    sys.path.insert(0, str(src))
    import ctvoter
    from ctvoter import cli, dynamics, edge_process, experiments, graphs
    from ctvoter.common import spawn_seed

    if src not in Path(ctvoter.__file__).resolve().parents:
        print(f"ctvoter imported from {ctvoter.__file__}, not from {src}", file=sys.stderr)
        return 3

    graph_built: list[float] = []

    def mark_graph_built(build):
        def built(*args, **kwargs):
            g = build(*args, **kwargs)
            if not graph_built:
                graph_built.append(time.monotonic())
            return g

        return built

    builders = ((graphs, "parse_graph_spec"), (graphs, "load_graph"), (experiments, "torus_graph"))
    for module, attr in builders:
        setattr(module, attr, mark_graph_built(getattr(module, attr)))

    # pool efficiency inputs: summed replicate wall times against the batch wall
    pool = {"busy_s": 0.0, "batch_s": 0.0, "workers": 1}
    run_batch = experiments._run_batch

    def timed_batch(tasks, workers):
        start = time.perf_counter()
        results = run_batch(tasks, workers)
        pool["batch_s"] += time.perf_counter() - start
        pool["busy_s"] += sum(rec.wall_time for rec, _ in results)
        pool["workers"] = max(1, workers)
        return results

    experiments._run_batch = timed_batch

    tracer = kernel_calls = None
    if plan["trace"]:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from tracing import Tracer

        tracer, kernel_calls = Tracer(), []
        install_tracer(tracer, kernel_calls)

    rcs, checks, finals = [], [], []
    if plan["mode"] == "cli":
        argvs = plan["argvs"]
        for k, argv in enumerate(argvs):
            if tracer is not None:
                tracer.replicate = k if len(argvs) > 1 else None
            rcs.append(cli.main(argv))
    else:
        out = Path(plan["out"])
        out.mkdir(parents=True, exist_ok=True)
        g = graphs.path_graph(plan["n"])
        graph_built.append(time.monotonic())
        for i in range(plan["reps"]):
            if tracer is not None:
                tracer.replicate = i
            rep_seed = spawn_seed(plan["seed"], i)
            init = dynamics.random_initial(g, spawn_seed(rep_seed, 0))
            params = dynamics.SimParams(plan["eps"], spawn_seed(rep_seed, 1))
            result = edge_process.simulate_coupled(g, init, params)
            csv = edge_process.census_trace_to_csv(result.census_trace)
            (out / f"census_{i}.csv").write_text(csv)
            finals.append((result.report.absorbed, result.report.final_opinions))
    t_end = time.monotonic()
    rss_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )

    for i, (absorbed, final) in enumerate(finals):
        checks.append([f"replicate {i} absorbed", absorbed])
        checks.append(
            [f"replicate {i} final state absorbing", dynamics.is_absorbing(g, final, plan["eps"])]
        )

    if tracer is not None:
        tracer.replicate = None
        zero = [
            (g, init, dataclasses.replace(params, max_events=0)) for g, init, params in kernel_calls
        ]
        if plan["mode"] == "cli":
            tracer.phase = "fixed"
            for call in zero:
                experiments.simulate(*call)
        else:
            for phase, kernel, args in (
                ("coupled0", edge_process.simulate_coupled, zero),
                ("plain", dynamics.simulate, kernel_calls),
                ("plain0", dynamics.simulate, zero),
            ):
                tracer.phase = phase
                for call in args:
                    kernel(*call)
        Path(plan["trace_file"]).write_text(json.dumps({"spans": tracer.spans}))

    result = {
        "t_graph": graph_built[0] if graph_built else None,
        "t_end": t_end,
        "rss_kb": rss_kb,
        "rcs": rcs,
        "pool": pool,
        "checks": checks,
    }
    Path(plan["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
