import dataclasses
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctvoter import experiments
from ctvoter import (
    SimParams,
    brute_force_index,
    census,
    classify_edge,
    clique_upper_bound,
    coexistence_experiment,
    coloring_construction,
    complete_graph,
    complete_index,
    consensus_experiment,
    cycle_graph,
    degree_bound_check,
    extremist_count,
    greedy_coloring,
    index_lower_bound,
    is_absorbing,
    make_graph,
    path_graph,
    replay,
    spawn_seed,
    sweep_experiment,
    torus_graph,
    write_snapshot,
)
from ctvoter.common import spawn_seeds, strict_json
from ctvoter.experiments import (
    mean_and_radius,
    records_to_csv,
    report_to_doc,
    report_to_json,
    run_replicate,
)

from conftest import random_connected_graph


@pytest.mark.parametrize("eps", [-0.1, 1.5, math.nan, math.inf], ids=repr)
def test_epsilon_range_rule_everywhere(eps):
    g = path_graph(3)
    calls = [
        lambda: SimParams(eps, 1),
        lambda: replay(g, [0.1, 0.2, 0.3], eps, []),
        lambda: index_lower_bound(g, eps),
        lambda: clique_upper_bound(g, eps),
        lambda: brute_force_index(g, eps),
        lambda: coexistence_experiment(3, eps, 2, 1),
        lambda: degree_bound_check(g, eps, 2, 1),
        lambda: census([0.1], eps),
        lambda: classify_edge(0.1, eps),
        lambda: complete_index(3, eps),
        lambda: coloring_construction(g, greedy_coloring(g), eps),
        lambda: is_absorbing(g, [0.1, 0.2, 0.3], eps),
        lambda: extremist_count([0.1, 0.2, 0.9], eps),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=r"epsilon out of range \[0, 1\]"):
            call()


class TestSeedSplitting:
    def test_spawn_is_stable(self):
        # documented values: the splitting rule is part of the report contract
        assert spawn_seed(0, 0) == spawn_seed(0, 0)
        assert spawn_seed(0, 0) != spawn_seed(0, 1)
        assert spawn_seed(1, 0) != spawn_seed(0, 0)
        assert all(0 <= spawn_seed(s, i) < 2**64 for s in (0, 7, 2**63) for i in range(3))

    @pytest.mark.parametrize("master", [0, 1, 2**64 - 1])
    @pytest.mark.parametrize("first", [0, 2**63 - 5, 2**63, 2**64 - 5])
    def test_spawn_seeds_is_spawn_seed_in_one_pass(self, master, first):
        # the ranges cross 2**63, where int64 would overflow, and 2**64
        seeds = spawn_seeds(master, first, 10).tolist()
        assert seeds == [spawn_seed(master, i) for i in range(first, first + 10)]
        assert all(type(seed) is int for seed in seeds)
        assert spawn_seeds(master, first, 0).tolist() == []

    def test_run_replicate_deterministic(self):
        g = path_graph(12)
        a_init, a = run_replicate(g, 0.8, 55)
        b_init, b = run_replicate(g, 0.8, 55)
        assert np.array_equal(a_init, b_init)
        assert np.array_equal(a.final_opinions, b.final_opinions)

    @pytest.mark.parametrize(
        "g, kwargs, error",
        [
            (path_graph(3), {"eps": 1.5}, ValueError),
            (path_graph(3), {"t_max": -1.0}, ValueError),
            (path_graph(3), {"max_events": 2.5}, TypeError),
            (make_graph(4, [(0, 1), (2, 3)]), {}, ValueError),
            (path_graph(3), {"rep_seed": -1}, ValueError),
            (path_graph(3), {"rep_seed": 2**64}, ValueError),
        ],
        ids=["eps", "t_max", "max_events", "disconnected", "seed_negative", "seed_2_64"],
    )
    def test_run_replicate_checks_before_the_initial_draw(self, monkeypatch, g, kwargs, error):
        def no_draw(*args):
            pytest.fail("initial opinions drawn before the parameters were checked")

        monkeypatch.setattr(experiments, "random_initial", no_draw)
        kwargs = {"eps": 0.5, "rep_seed": 3, **kwargs}
        with pytest.raises(error):
            run_replicate(g, **kwargs)


class TestConsensusExperiment:
    def test_rejects_low_eps(self):
        with pytest.raises(ValueError):
            consensus_experiment(path_graph(5), 0.5, 10, 1)

    def test_eps_one_always_consensus(self):
        rep = consensus_experiment(path_graph(20), 1.0, 100, master_seed=17)
        assert rep.aggregates["consensus_freq"] == 1.0
        assert rep.aggregates["theta_in_0N_count"] == 100

    def test_extremist_outcome_all_or_nothing(self):
        rep = consensus_experiment(path_graph(12), 0.75, 150, master_seed=23)
        assert rep.aggregates["theta_in_0N_count"] == 150
        theta = rep.aggregates["theta_zero_freq"]
        margin = 3 * math.sqrt(0.25 / 150)
        assert abs(theta - 0.5) < margin + 0.05
        assert rep.aggregates["consensus_freq"] >= rep.aggregates["theorem_lower_bound"] - margin

    def test_records_complete(self):
        rep = consensus_experiment(path_graph(8), 0.9, 12, master_seed=3)
        assert [r.replicate for r in rep.records] == list(range(12))
        assert all(r.absorbed for r in rep.records)
        assert all(r.seed == spawn_seed(3, r.replicate) for r in rep.records)

    def test_record_fields_are_python_values(self):
        # the kernel's columns and the uint64 seeds are read back as ints and bools
        rep = consensus_experiment(path_graph(8), 0.9, 5, master_seed=2**64 - 1)
        types = {(type(r.seed), type(r.nu), type(r.events), type(r.consensus)) for r in rep.records}
        assert types == {(int, int, int, bool)}
        json.dumps(report_to_doc(rep))


    def test_rejects_low_eps_in_a_grid_before_any_run(self, monkeypatch):
        monkeypatch.setattr(experiments, "_run_grid", lambda *args: pytest.fail("runs started"))
        with pytest.raises(ValueError, match="epsilon > 1/2"):
            consensus_experiment(path_graph(5), (0.8, 0.5), 10, 1)

    # the theorem's bound through one batch per graph: two thresholds, REPS
    # replicates each, seeds and the gate (5 standard errors of the binomial
    # law at p = 2 eps - 1) fixed before the first run
    BOUND_GRID = (0.6, 0.8)
    BOUND_REPS = 4000
    BOUND_CASES = {
        "complete:8": (lambda: complete_graph(8), 171),
        "cycle:12": (lambda: cycle_graph(12), 172),
        "torus:4x4": (lambda: torus_graph(4, 4), 173),
        # a triangle with a pendant path and a pendant star: degrees 1 to 3
        "irregular:8": (
            lambda: make_graph(8, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (4, 6), (4, 7)]),
            174,
        ),
    }

    @pytest.mark.parametrize("case", BOUND_CASES)
    def test_extremists_die_out_at_rate_two_eps_minus_one(self, case):
        """Over uniform initial opinions P(theta_inf = 0) = 2 eps - 1 exactly
        on any connected graph (test_law.py derives it), and consensus
        contains that event."""
        build, seed = self.BOUND_CASES[case]
        rep = consensus_experiment(build(), self.BOUND_GRID, self.BOUND_REPS, master_seed=seed)
        assert len(rep.records) == len(self.BOUND_GRID) * self.BOUND_REPS
        for eps in self.BOUND_GRID:
            agg = rep.aggregates["per_epsilon"][repr(eps)]
            p = 2 * eps - 1
            se = math.sqrt(p * (1 - p) / self.BOUND_REPS)
            assert agg["theorem_lower_bound"] == p
            assert agg["theta_in_0N_count"] == self.BOUND_REPS
            assert abs(agg["theta_zero_freq"] - p) < 5 * se, (eps, agg["theta_zero_freq"], se)
            assert agg["consensus_freq"] >= p - 5 * se, (eps, agg["consensus_freq"], se)


def timeless(records):
    """records with their wall times, which no run repeats, set to 0."""
    return [dataclasses.replace(rec, wall_time=0.0) for rec in records]


class TestThresholdGrids:
    """A driver given a sequence of thresholds runs them in one batch:
    threshold k holds replicates k * reps + r, and its block reports as a run
    of that threshold alone would, under per_epsilon."""

    DRIVERS = {
        "consensus": (lambda eps: consensus_experiment(path_graph(6), eps, 4, 11), (0.9, 0.6)),
        "coexistence": (lambda eps: coexistence_experiment(9, eps, 4, 11), (0.1, 0.0, 0.3)),
        "degree_bound": (lambda eps: degree_bound_check(cycle_graph(7), eps, 4, 11), (0.2, 0.05)),
    }

    @pytest.mark.parametrize("name", DRIVERS)
    def test_blocks_and_per_epsilon(self, monkeypatch, name):
        run, grid = self.DRIVERS[name]
        calls = []
        run_grid = experiments._run_grid

        def counted(*args):
            calls.append(args[1])
            return run_grid(*args)

        monkeypatch.setattr(experiments, "_run_grid", counted)
        report = run(grid)
        assert calls == [grid]
        assert report.spec.epsilon_grid == grid
        indices = range(4 * len(grid))
        assert [rec.replicate for rec in report.records] == list(indices)
        assert [rec.seed for rec in report.records] == [spawn_seed(11, i) for i in indices]
        assert list(report.aggregates) == ["per_epsilon"]
        assert list(report.aggregates["per_epsilon"]) == [repr(eps) for eps in grid]
        single = run(grid[0])
        assert single.spec.epsilon_grid == grid[:1]
        assert timeless(report.records[:4]) == timeless(single.records)
        assert report.aggregates["per_epsilon"][repr(grid[0])] == single.aggregates
        # a one-element sequence is a grid: per_epsilon, as sweep reports it
        one = run(grid[:1])
        assert timeless(one.records) == timeless(single.records)
        assert one.aggregates == {"per_epsilon": {repr(grid[0]): single.aggregates}}


class TestCoexistenceExperiment:
    def test_eps_zero_keeps_everything(self):
        rep = coexistence_experiment(100, 0.0, 10, master_seed=8)
        assert all(r.nu == 100 for r in rep.records)
        assert rep.aggregates["violation_freq"] == 0.0

    def test_small_eps_retains_fraction(self):
        rep = coexistence_experiment(400, 0.01, 20, master_seed=14)
        threshold = rep.aggregates["violation_threshold"]
        assert threshold == pytest.approx((1 - 0.12) * 400)
        assert rep.aggregates["min_nu"] >= threshold
        assert rep.aggregates["violation_freq"] == 0.0


class TestSweepExperiment:
    def test_counts_and_snapshots(self):
        report, snaps = sweep_experiment(4, 4, [0.0, 1.0], t_max=40.0, reps=3, master_seed=5)
        assert len(report.records) == 6
        per = report.aggregates["per_epsilon"]
        assert per[repr(0.0)]["mean_nu"] == 16.0
        assert per[repr(1.0)]["mean_nu"] < 16.0
        assert set(snaps) == {0.0, 1.0}
        assert snaps[0.0].shape == (16,)

    @pytest.mark.parametrize("grid", [(0.5, 0.5), (0.0, -0.0), (0.2, 1.0, 0.2)], ids=repr)
    def test_rejects_repeated_threshold(self, monkeypatch, grid):
        def no_build(*args):
            pytest.fail("torus built before the grid was checked")

        monkeypatch.setattr(experiments, "torus_graph", no_build)
        with pytest.raises(ValueError, match="duplicate threshold"):
            sweep_experiment(3, 3, grid, t_max=1.0, reps=2, master_seed=1)

    @pytest.mark.parametrize(
        "bad, message",
        [
            ({"eps_grid": (0.5, 1.5)}, "epsilon"),
            ({"t_max": -1.0}, "t_max"),
            ({"t_max": math.nan}, "t_max"),
            ({"reps": 0}, "reps"),
            ({"workers": 0}, "workers"),
            ({"master_seed": -1}, "seed"),
            ({"master_seed": 2**64}, "seed"),
        ],
        ids=["eps", "t_max", "t_max_nan", "reps", "workers", "seed_negative", "seed_2_64"],
    )
    def test_checks_before_building_the_torus(self, monkeypatch, bad, message):
        def no_build(*args):
            pytest.fail("torus built before the grid was checked")

        monkeypatch.setattr(experiments, "torus_graph", no_build)
        args = {"eps_grid": (0.5,), "t_max": 5.0, "reps": 1, "master_seed": 1, **bad}
        with pytest.raises(ValueError, match=message):
            sweep_experiment(300, 300, **args)

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_seeds_at_the_ends_of_the_range_run(self, seed):
        report, _ = sweep_experiment(3, 3, (0.5,), t_max=5.0, reps=2, master_seed=seed)
        assert [rec.replicate for rec in report.records] == [0, 1]
        _, run = run_replicate(path_graph(5), 0.75, seed)
        assert run.absorbed

    def test_serial_parallel_identical(self):
        a, _ = sweep_experiment(3, 3, [0.5, 1.0], t_max=20.0, reps=4, master_seed=9, workers=1)
        b, _ = sweep_experiment(3, 3, [0.5, 1.0], t_max=20.0, reps=4, master_seed=9, workers=2)
        assert report_to_json(a) == report_to_json(b)
        assert records_to_csv(a.records) == records_to_csv(b.records)


class TestDegreeBoundCheck:
    def test_union_bound_holds(self):
        g = path_graph(100)
        rep = degree_bound_check(g, 0.001, 500, master_seed=31)
        bound = rep.aggregates["union_bound"]
        assert bound == pytest.approx(2 * 0.001 * 99)
        freq = rep.aggregates["initial_nonabsorbing_freq"]
        assert freq <= bound + rep.aggregates["initial_nonabsorbing_radius"]

    def test_eps_zero_initial_always_absorbing(self):
        rep = degree_bound_check(path_graph(30), 0.0, 20, master_seed=2)
        assert rep.aggregates["initial_nonabsorbing_freq"] == 0.0

    def test_fraction_recorded_without_assertion(self):
        g = random_connected_graph(30, seed=6)
        rep = degree_bound_check(g, 0.3, 10, master_seed=4)
        assert 0.0 < rep.aggregates["nu_fraction_mean"] <= 1.0


class TestInitialExtremists:
    def test_mean_initial_extremist_count(self):
        # mean theta_0 over 10^4 seeds sits at 2*(1-eps)*N within 3 sigma
        import math

        from ctvoter import extremist_count, random_initial

        n, eps, reps = 100, 0.75, 10_000
        g = path_graph(n)
        counts = [
            extremist_count(random_initial(g, spawn_seed(515, i)), eps) for i in range(reps)
        ]
        expected = 2 * (1 - eps) * n
        margin = 3 * float(np.std(counts, ddof=1)) / math.sqrt(reps)
        assert abs(float(np.mean(counts)) - expected) <= margin


def _per_pixel_snapshot(config, width: int, height: int, path) -> None:
    """The per-pixel writer write_snapshot replaced, kept as its oracle:
    int(opinion * 255 + 0.5) for each pixel, in Python floats."""
    values = [float(v) for v in config]
    if width * height != len(values):
        raise ValueError(f"{width}x{height} does not match {len(values)} opinions")
    header = f"P5\n{width} {height}\n255\n".encode("ascii")
    pixels = bytes(int(v * 255 + 0.5) for v in values)
    with open(path, "wb") as fh:
        fh.write(header + pixels)


def _snapshot_bytes(writer, config, width, height, directory):
    """The file writer writes, or None where it raises ValueError or OverflowError."""
    path = Path(directory) / "snapshot.pgm"
    path.unlink(missing_ok=True)
    try:
        writer(config, width, height, path)
    except (ValueError, OverflowError):
        return None
    return path.read_bytes()


def _agrees_with_the_per_pixel_writer(config, width, height, directory):
    expected = _snapshot_bytes(_per_pixel_snapshot, config, width, height, directory)
    if expected is None:
        with pytest.raises(ValueError):
            write_snapshot(config, width, height, Path(directory) / "snapshot.pgm")
    else:
        assert _snapshot_bytes(write_snapshot, config, width, height, directory) == expected


class TestSnapshots:
    # pixels at the edges of the round-half-up rule and of 0..255
    EDGES = (0.0, 1.0, 0.5 / 255, -0.5 / 255, -1.4 / 255, 255.49 / 255, float(np.nextafter(1, 2)))

    @pytest.mark.parametrize("value", EDGES, ids=repr)
    def test_edge_values_match_the_per_pixel_writer(self, tmp_path, value):
        for config in ([value], [0.25, value, 0.75, value]):
            _agrees_with_the_per_pixel_writer(config, len(config), 1, tmp_path)
            assert _snapshot_bytes(write_snapshot, config, len(config), 1, tmp_path) is not None

    @settings(max_examples=200, deadline=None)
    @given(
        values=st.lists(
            st.floats(-2 / 255, 256 / 255) | st.sampled_from([math.nan, math.inf, -math.inf]),
            min_size=1,
            max_size=12,
        ),
        height=st.integers(1, 3),
        array=st.booleans(),
    )
    def test_matches_the_per_pixel_writer(self, values, height, array):
        """The same bytes as the per-pixel writer, or ValueError exactly where
        it raised ValueError (a pixel outside 0..255, NaN, a size mismatch)
        or OverflowError (an infinite opinion)."""
        config = np.array(values) if array else values
        width = max(1, len(values) // height)
        with tempfile.TemporaryDirectory() as directory:
            _agrees_with_the_per_pixel_writer(config, width, height, directory)

    def test_black_and_white(self, tmp_path):
        p = tmp_path / "black.pgm"
        write_snapshot([0.0] * 6, 3, 2, p)
        data = p.read_bytes()
        assert data.startswith(b"P5\n3 2\n255\n")
        assert data[-6:] == bytes([0] * 6)
        write_snapshot([1.0] * 6, 3, 2, p)
        assert p.read_bytes()[-6:] == bytes([255] * 6)

    def test_round_half_up(self, tmp_path):
        p = tmp_path / "gray.pgm"
        write_snapshot([0.5], 1, 1, p)
        assert p.read_bytes()[-1] == 128  # 127.5 rounds up

    def test_dimension_mismatch(self, tmp_path):
        with pytest.raises(ValueError):
            write_snapshot([0.5] * 5, 2, 2, tmp_path / "bad.pgm")


class TestReportDocuments:
    def test_doc_fields_and_csv(self):
        rep = consensus_experiment(path_graph(6), 0.8, 5, master_seed=12)
        doc = report_to_doc(rep)
        assert set(doc) == {"spec", "records", "aggregates"}
        assert len(doc["records"]) == 5
        assert "wall_time" not in doc["records"][0]
        text = records_to_csv(rep.records)
        lines = text.splitlines()
        assert lines[0] == "replicate,seed,nu,absorbed,consensus,theta_inf_zero,events"
        assert len(lines) == 6

    def test_aggregates_recomputable(self):
        rep = consensus_experiment(path_graph(6), 0.8, 30, master_seed=12)
        doc = report_to_doc(rep)
        consensus = [r["consensus"] for r in doc["records"]]
        mean, _ = mean_and_radius([1.0 if c else 0.0 for c in consensus])
        assert mean == rep.aggregates["consensus_freq"]

    def test_json_stable(self):
        rep = coexistence_experiment(30, 0.05, 4, master_seed=1)
        assert report_to_json(rep) == report_to_json(rep)
        json.loads(report_to_json(rep))

    def test_json_is_the_documents_strict_json(self):
        """report_to_json writes the records through its own template; its
        bytes are those of strict_json over report_to_doc, for every value a
        record field takes, a single replicate's infinite radius and no
        records at all."""
        sweep, _ = experiments.sweep_experiment(4, 4, (0.3, 0.6), 0.5, 3, 4)
        reports = [
            consensus_experiment(path_graph(4), 0.75, 40, master_seed=3),
            consensus_experiment(path_graph(2), 0.75, 1, master_seed=1),
            coexistence_experiment(12, 0.1, 3, master_seed=2),
            sweep,
            experiments.ExperimentReport(sweep.spec, [], sweep.aggregates),
        ]
        seen = set()
        for rep in reports:
            assert report_to_json(rep) == strict_json(report_to_doc(rep))
            for rec in rep.records:
                seen |= {("absorbed", rec.absorbed), ("consensus", rec.consensus)}
                seen.add(("theta_inf_zero", rec.theta_inf_zero))
        assert {(k, v) for k in ("absorbed", "consensus") for v in (False, True)} <= seen
        assert {("theta_inf_zero", v) for v in (False, True, None)} <= seen
