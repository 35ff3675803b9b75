"""Golden outputs: SHA-256 digests of plain and coupled runs, pinned per case.

A digest changes only if some output byte changes: the plain run's report
JSON, the coupled run's final weights, or its census-trace CSV. Any change to
the event kernel, its drawing order or the weight rule must leave them as is.
"""

import hashlib
import json

import pytest

from ctvoter import simulate, simulate_coupled
from ctvoter.edge_process import census_trace_to_csv

from conftest import GOLDEN_CASES, golden_run

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
    "case, digests", zip(GOLDEN_CASES, DIGESTS), ids=[c[0] for c in GOLDEN_CASES]
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
