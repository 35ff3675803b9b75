"""Golden outputs: SHA-256 digests of runs, experiments and bounds, pinned per case.

A digest changes only if some output byte changes: the plain run's report
JSON, the coupled run's final weights, or its census-trace CSV; an experiment
driver's report JSON, records CSV or sweep snapshots (serial and parallel);
or the index_bounds JSON of a graph family. Any change to the event kernel,
its drawing order, the weight rule, the replicate driver or the static bounds
must leave them as is.
"""

import hashlib
import json

import pytest

from ctvoter import (
    coexistence_experiment,
    consensus_experiment,
    cycle_graph,
    degree_bound_check,
    index_bounds,
    parse_graph_spec,
    path_graph,
    simulate,
    simulate_coupled,
    sweep_experiment,
    write_snapshot,
)
from ctvoter.edge_process import census_trace_to_csv
from ctvoter.experiments import records_to_csv, report_to_json

from conftest import GOLDEN_CASES, golden_run, petersen_graph, small_graph_family

# (report JSON, final weights bytes, census CSV) per GOLDEN_CASES entry
DIGESTS = (
    (
        "92b84f7b1b72ac5cfab6a28f662c9f561e0821a1134e0e6dfaa3b8a9c13ea119",
        "d061b7fc7a42ad732f24d71ee4231bda558d088a30eab3091518e75a74e3f5b1",
        "b6a58a9bfdae9e045dace626953cb0858c92fea8c015f1d958fa413adeedc637",
    ),
    (
        "f337aa987e00870247c353aa77a4abdffe1b404d42556bf0fb92d6ac2e66c587",
        "7869dfb6e60c20103042ef2778953388243ddfdcf98d680b2a9c182d1445dade",
        "28a44e6fbc8c22feb70fa8e5f159a898834b1c2973de9b0d56b615fc918db368",
    ),
    (
        "fb93c72f145a08251e3d22b94138169b370fb8455448a6b689112db3ab28fa8d",
        "be5b0d615d145ec6022e972e0a186d94c6808e4e1ac857267a2efb76f40e4877",
        "b4896e06d33c5ab4b64d4b45c06d1241930ed74a1245f1d22e1ddb16d669b0ea",
    ),
    (
        "c569734c3adb2943292175bc7f26a6f46497a5da434f36768001b2d504e47b9d",
        "cf19cc44d2b0fde4ab1449b1f1aab4c2eb9a5728bfa2d268dd0db6ac7191e581",
        "459755a6280ca81857c1c3cb3219a7b3120fb0bb74de697576bab00f820a404c",
    ),
    (
        "d4a7399914948148d8ec0445cc8917aa3701ad332b727535adb30bd0609a7d5b",
        "7a12e561363385e9dfeeab326368731c030ed4b374e7f5897ac819159d2884c5",
        "73ee329df40ae03a9aeb106ba1e51b49abf2fd7e3d553c8d8c0f430e59c641ae",
    ),
    (
        "7b6037be0c80f0108fc24cd00b8f3dc9fcfd4937ca4dc4fe2c8a6042ea6aee6e",
        "15bd50e5197593b6c5f2ba5d298d0d24add8fc53909e6bc78ec19a0bf635f68e",
        "b8c8659dd77db58d25eadba60cc3bff99d48c7814047183d61647acaa7392549",
    ),
    (
        "8400e4c0e67f830f51aac77cfa4785724708fc0a6b7067871102ec4d4bec5e8f",
        "063b72c43daad713fe890fd2f92114248d5371cfca6e26d668853df6cb53c171",
        "02415ceeba0e521dac30e8f6e4b21b6131b6fc49a1c3bb1201e107ddd3f209bc",
    ),
)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize(
    "case, digests", list(zip(GOLDEN_CASES, DIGESTS)), ids=[c[0] for c in GOLDEN_CASES]
)
def test_golden_digests(case, digests):
    g, init, params = golden_run(case)
    report = simulate(g, init, params)
    coupled = simulate_coupled(g, init, params)
    assert (
        _sha(json.dumps(report.to_dict(), sort_keys=True).encode()),
        _sha(coupled.weights.tobytes()),
        _sha(census_trace_to_csv(coupled.census_trace).encode()),
    ) == digests


# Experiment drivers: (report JSON, records CSV) digests per driver call.
DRIVER_CASES = {
    "consensus": lambda: consensus_experiment(path_graph(12), 0.7, 30, master_seed=5),
    "coexistence": lambda: coexistence_experiment(30, 0.05, 20, master_seed=6),
    "degree_bound": lambda: degree_bound_check(cycle_graph(10), 0.1, 30, master_seed=7),
}
DRIVER_DIGESTS = {
    "consensus": (
        "63595aa8f18df0df763c3421a6485eb297dc974597ab0ac57ec2935326356d65",
        "9f664ead6e17606cd0a476cedd964410eab41bc9574a058b97126c4a1eed1a51",
    ),
    "coexistence": (
        "d9793f74c9709ddf53a36a367201748c49046155bd0cfc94e0944dd4aeaa75ff",
        "c48cfe5a440e2a6a72d59e95c91ba4a929532d87aa29388ad3ef878fe633baef",
    ),
    "degree_bound": (
        "ebab297b7187b4b90836c077cca13cf2c3c71ba1e3b05cd2114895ffdf3f3323",
        "ca9b6c73a2e246e57f84c51daccabd4de612830e0a991b4a49d7554799ae0ab2",
    ),
}


@pytest.mark.parametrize("name", sorted(DRIVER_CASES))
def test_driver_digests(name):
    report = DRIVER_CASES[name]()
    assert (
        _sha(report_to_json(report).encode()),
        _sha(records_to_csv(report.records).encode()),
    ) == DRIVER_DIGESTS[name]


# sweep on torus:8x6: (report JSON, records CSV, snapshot PGMs in grid order)
SWEEP_GRID = (0.0, 0.2, 1 / 3, 0.5, 1.0)
SWEEP_DIGESTS = (
    "09c1a5d70903334bede222c80eb0eef95931cbbfcdacffed818e85fcae05bf0b",
    "75c01e8fbbdc5aeb34f9cf57f537b5e71263b89d0be0edeef2b86387bb5169ba",
    "0d9df85cd4da330fc483ed8913fb9e8215ff1be0a6ed41db16e25298688e109b",
)


@pytest.mark.parametrize("workers", [1, 2])
def test_sweep_digests(tmp_path, workers):
    report, snapshots = sweep_experiment(8, 6, SWEEP_GRID, 20.0, 3, 111, workers=workers)
    pgm = b""
    for k, eps in enumerate(SWEEP_GRID):
        path = tmp_path / f"{k}.pgm"
        write_snapshot(snapshots[eps], 8, 6, path)
        pgm += path.read_bytes()
    assert (
        _sha(report_to_json(report).encode()),
        _sha(records_to_csv(report.records).encode()),
        _sha(pgm),
    ) == SWEEP_DIGESTS


# index_bounds over small graphs (brute force and peel enumeration), the
# Petersen graph, and graphs past the exact colouring and peel limits
def _index_family():
    family = small_graph_family() + [("petersen", petersen_graph())]
    for spec in ("cycle:13", "cycle:20", "torus:3x5", "torus:5x5", "complete:18"):
        family.append((spec, parse_graph_spec(spec)))
    return family


INDEX_DIGESTS = {
    0.0: "18743e46e11867acac256e049b7b39fcff5470e1a9bb3b6ef000dfbb5d2a8ae5",
    1 / 3: "1765e62616c3935bcd4d6f23c01463babadf2fb2778458956db838883965ebef",
    0.6: "b3db71f12c7425c3874c76c0eab271a4cfac1e51ed01fdf35ac7262567d2a56b",
    1.0: "6b8554d7120bbbf99016fb93621c8ec6f07756333f8baa5c4c7dc1a5640b7997",
}


@pytest.mark.parametrize("eps", sorted(INDEX_DIGESTS))
def test_index_bounds_digests(eps):
    doc = {name: index_bounds(g, eps).to_dict() for name, g in _index_family()}
    assert _sha(json.dumps(doc, sort_keys=True).encode()) == INDEX_DIGESTS[eps]
