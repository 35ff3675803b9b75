import json

import pytest

from ctvoter import cli, experiments, graphs, spawn_seed
from ctvoter.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def no_compute(monkeypatch):
    """Fail the test if any replicate batch starts: validation comes first."""

    def fail(tasks, workers):
        pytest.fail("replicates ran before the arguments were validated")

    monkeypatch.setattr(experiments, "_run_batch", fail)


class TestDispatch:
    def test_help_exits_zero_and_lists_subcommands(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for name in ("simulate", "index", "consensus", "coexistence", "sweep", "urn"):
            assert name in out

    def test_no_command_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, )
        assert code == 1

    def test_unknown_flag_rejected(self, capsys):
        code, _, err = run_cli(capsys, "urn", "--strategy", "S", "--balls", "1", "--boxes", "3", "--bogus")
        assert code == 1

    def test_unknown_subcommand_rejected(self, capsys):
        code, _, _ = run_cli(capsys, "frobnicate")
        assert code == 1

    def test_parser_built_once_and_kept_by_a_usage_error(self, capsys):
        cli.build_parser.cache_clear()
        good = (
            ["simulate", "--graph", "path:5", "--eps", "0.5", "--seed", "3", "--t-max", "2"],
            ["consensus", "--graph", "path:4", "--eps", "0.8", "--reps", "3", "--seed", "1"],
            ["urn", "--balls", "2", "--boxes", "3"],
        )
        bad = (
            ["urn", "--strategy", "S", "--balls", "1", "--boxes", "3", "--bogus"],
            ["simulate", "--graph", "path:5", "--eps", "x"],
            ["consensus", "--graph", "path:4", "--reps", "3"],
            ["sweep", "--graph", "torus:3x3", "--eps-grid", "0.5", "--t-max", "5", "--reps", "0"],
        )
        for argv in bad:
            assert run_cli(capsys, *argv)[0] == 1
        assert run_cli(capsys, *good[2])[0] == 0
        assert cli.build_parser.cache_info().misses == 1
        fresh = cli.build_parser.__wrapped__()
        for argv in good:
            assert cli.build_parser().parse_args(argv) == fresh.parse_args(argv)

    @pytest.mark.parametrize("strategy", ["S", "random"])
    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_urn_refuses_a_seed_out_of_range(self, capsys, strategy, seed):
        code, out, err = run_cli(
            capsys, "urn", "--strategy", strategy, "--balls", "2", "--boxes", "3", "--seed", seed
        )
        assert code == 1
        assert "seed must lie in [0, 2**64)" in err
        assert out == ""

    @pytest.mark.parametrize("seed", ["0", str(2**64 - 1)])
    def test_seeds_at_the_ends_of_the_range_run(self, capsys, seed):
        for argv in (
            ["simulate", "--graph", "path:6", "--eps", "0.75", "--to-absorption"],
            ["coexistence", "--graph", "path:6", "--eps", "0.1", "--reps", "2"],
            ["urn", "--strategy", "random", "--balls", "2", "--boxes", "3"],
        ):
            code, out, _ = run_cli(capsys, *argv, "--seed", seed)
            assert code == 0 and out


class TestSimulate:
    def test_path_run_to_absorption(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--graph", "path:100", "--eps", "0.75",
            "--seed", "7", "--to-absorption",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["absorbed"] is True
        assert len(doc["final_opinions"]) == 100

    def test_eps_validation(self, capsys, tmp_path):
        gfile = tmp_path / "g.txt"
        gfile.write_text("3 2\n0 1\n1 2\n")
        code, _, err = run_cli(capsys, "index", "--graph-file", str(gfile), "--eps", "1.5")
        assert code == 1
        assert "epsilon out of range" in err

    def test_nan_eps_rejected(self, capsys):
        code, _, err = run_cli(capsys, "index", "--graph", "path:3", "--eps", "nan")
        assert code == 1
        assert "epsilon out of range" in err

    def test_nan_t_max_rejected(self, capsys, tmp_path):
        out_dir = tmp_path / "run"
        code, _, err = run_cli(
            capsys, "simulate", "--graph", "path:20", "--eps", "0.6",
            "--seed", "3", "--t-max", "nan", "--out", str(out_dir),
        )
        assert code == 1
        assert "t_max" in err
        assert not out_dir.exists()

    def test_missing_graph_file_is_io_error(self, capsys):
        code, _, _ = run_cli(capsys, "simulate", "--graph-file", "/nonexistent/g.txt",
                             "--eps", "0.5", "--seed", "1")
        assert code == 2

    def test_seed_generated_and_printed(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--graph", "path:5", "--eps", "0.2")
        assert code == 0
        assert "seed=" in out

    def test_writes_outputs(self, capsys, tmp_path):
        out_dir = tmp_path / "run"
        code, _, _ = run_cli(
            capsys, "simulate", "--graph", "path:20", "--eps", "0.6",
            "--seed", "3", "--out", str(out_dir),
        )
        assert code == 0
        assert (out_dir / "report.json").exists()
        assert (out_dir / "final_opinions.csv").exists()


class TestIndex:
    def test_bounds_output(self, capsys):
        code, out, _ = run_cli(capsys, "index", "--graph", "cycle:5", "--eps", "0.6")
        assert code == 0
        doc = json.loads(out)
        assert (doc["lower"], doc["exact"], doc["upper"]) == (3, 4, 5)


class TestUrn:
    def test_strategy_steps(self, capsys):
        code, out, _ = run_cli(capsys, "urn", "--strategy", "S", "--balls", "5", "--boxes", "6")
        assert code == 0
        assert out.strip() == "steps=15"

    def test_random_bounded(self, capsys):
        code, out, _ = run_cli(
            capsys, "urn", "--strategy", "random", "--balls", "4", "--boxes", "5", "--seed", "2",
        )
        assert code == 0
        steps = int(out.strip().split("=")[1])
        assert 0 <= steps <= 12


class TestExperimentCommands:
    def test_consensus(self, capsys, tmp_path):
        out_dir = tmp_path / "cons"
        code, out, _ = run_cli(
            capsys, "consensus", "--graph", "path:8", "--eps", "0.8",
            "--reps", "10", "--seed", "5", "--out", str(out_dir),
        )
        assert code == 0
        assert (out_dir / "report.json").exists()
        assert (out_dir / "records.csv").exists()

    def test_coexistence_requires_path(self, capsys):
        code, _, err = run_cli(
            capsys, "coexistence", "--graph", "cycle:10", "--eps", "0.1",
            "--reps", "2", "--seed", "1",
        )
        assert code == 1
        assert "path" in err

    def test_single_replicate_report_is_strict_json(self, capsys, tmp_path):
        """One replicate has an infinite radius, which report.json writes as null."""

        def refuse(token):
            raise ValueError(f"non-standard JSON token {token}")

        out_dir = tmp_path / "coex"
        code, out, _ = run_cli(
            capsys, "coexistence", "--graph", "path:1", "--eps", "0.5",
            "--reps", "1", "--seed", "1", "--out", str(out_dir),
        )
        assert code == 0
        for text in (out, (out_dir / "report.json").read_text()):
            aggregates = json.loads(text, parse_constant=refuse)["aggregates"]
            assert aggregates["mean_nu_radius"] is None
            assert aggregates["violation_radius"] is None

    def test_coexistence_bounds_are_clamped_on_short_paths(self, capsys):
        """3 exp(-eps N) is reported as at most 1 and (1 - 12 eps) N as at
        least 0: on path:10 they would read 1.82 and 1.10, 4.0 and -2.0."""
        code, out, _ = run_cli(
            capsys, "coexistence", "--graph", "path:10", "--eps", "0.05,0.1",
            "--reps", "3", "--seed", "1",
        )
        assert code == 0
        per_eps = json.loads(out)["aggregates"]["per_epsilon"]
        assert [per_eps[e]["violation_bound"] for e in ("0.05", "0.1")] == [1.0, 1.0]
        thresholds = [per_eps[e]["violation_threshold"] for e in ("0.05", "0.1")]
        assert thresholds == [pytest.approx(4.0), 0.0]

    def test_sweep_with_snapshots(self, capsys, tmp_path):
        out_dir = tmp_path / "sweep"
        code, _, _ = run_cli(
            capsys, "sweep", "--graph", "torus:3x3", "--eps-grid", "0.5,1",
            "--t-max", "5", "--reps", "2", "--seed", "4",
            "--out", str(out_dir), "--snapshot",
        )
        assert code == 0
        assert (out_dir / "report.json").exists()
        assert (out_dir / "snapshot_0.5.pgm").exists()
        assert (out_dir / "snapshot_1.pgm").exists()

    def test_byte_identical_outputs_per_seed(self, capsys, tmp_path):
        dirs = []
        for name in ("a", "b"):
            out_dir = tmp_path / name
            code, _, _ = run_cli(
                capsys, "sweep", "--graph", "torus:3x3", "--eps-grid", "0.5,1",
                "--t-max", "5", "--reps", "2", "--seed", "4",
                "--out", str(out_dir), "--snapshot",
            )
            assert code == 0
            dirs.append(out_dir)
        for fname in ("report.json", "records.csv", "snapshot_0.5.pgm", "snapshot_1.pgm"):
            assert (dirs[0] / fname).read_bytes() == (dirs[1] / fname).read_bytes()

    @pytest.mark.parametrize("command, graph", [
        ("consensus", ["--graph", "path:8", "--eps", "0.8"]),
        ("coexistence", ["--graph", "path:8", "--eps", "0.1"]),
        ("sweep", ["--graph", "torus:3x3", "--eps-grid", "0.5", "--t-max", "5"]),
    ], ids=["consensus", "coexistence", "sweep"])
    @pytest.mark.parametrize("flag, value", [("--reps", "0"), ("--workers", "-1")])
    def test_batch_sizes_validated(
        self, capsys, tmp_path, no_compute, command, graph, flag, value
    ):
        out_dir = tmp_path / "out"
        code, _, err = run_cli(
            capsys, command, *graph, "--seed", "1", flag, value, "--out", str(out_dir),
        )
        assert code == 1
        assert flag in err
        assert not out_dir.exists()

    def test_sweep_snapshot_requires_out(self, capsys, no_compute):
        code, out, err = run_cli(
            capsys, "sweep", "--graph", "torus:3x3", "--eps-grid", "0.5,1",
            "--t-max", "5", "--seed", "4", "--snapshot",
        )
        assert code == 1
        assert "--out" in err
        assert out == ""

    def test_sweep_rejects_duplicate_thresholds(self, capsys, tmp_path, no_compute):
        code, _, err = run_cli(
            capsys, "sweep", "--graph", "torus:3x3", "--eps-grid", "0.5,1,0.50",
            "--t-max", "5", "--seed", "4", "--out", str(tmp_path / "sweep"),
        )
        assert code == 1
        assert "duplicate" in err

    def test_sweep_rejects_shared_snapshot_names(self, capsys, tmp_path, no_compute):
        # distinct thresholds, but {eps:g} formats both as 0.333333
        code, _, err = run_cli(
            capsys, "sweep", "--graph", "torus:3x3",
            "--eps-grid", "0.3333333,0.3333333333333333", "--t-max", "5", "--seed", "4",
            "--out", str(tmp_path / "sweep"), "--snapshot",
        )
        assert code == 1
        assert "snapshot file name" in err

    @pytest.mark.parametrize("t_max", ["-1", "nan"])
    def test_sweep_rejects_bad_t_max_before_building(
        self, capsys, monkeypatch, no_compute, t_max
    ):
        def fail(width, height):
            pytest.fail("the torus was built before --t-max was validated")

        monkeypatch.setattr(experiments, "torus_graph", fail)
        code, out, err = run_cli(
            capsys, "sweep", "--graph", "torus:3x3", "--eps-grid", "0.5,1",
            "--t-max", t_max, "--seed", "4",
        )
        assert code == 1
        assert "--t-max" in err
        assert out == ""

    def test_sweep_rejects_bad_torus_spec(self, capsys, no_compute):
        for spec in ("torus:3", "torus:3x", "torus:ax3", "path:9"):
            code, _, err = run_cli(
                capsys, "sweep", "--graph", spec, "--eps-grid", "0.5", "--t-max", "5",
                "--seed", "4",
            )
            assert code == 1
            assert spec in err or "torus:WxH" in err


class TestThresholdLists:
    """consensus and coexistence read --eps as one threshold or a
    comma-separated list; a list runs as one batch, threshold k holding
    replicates k * reps + r, with its aggregates under per_epsilon."""

    CASES = {
        "consensus": (["consensus", "--graph", "path:6"], ["0.6", "0.8"], 5),
        "coexistence": (["coexistence", "--graph", "path:10"], ["0.05", "0.1"], 3),
    }

    def run(self, capsys, out_dir, command, eps, *flags):
        head, _, reps = self.CASES[command]
        argv = [*head, "--eps", eps, "--reps", str(reps), "--seed", "1", *flags]
        code, out, err = run_cli(capsys, *argv, "--out", str(out_dir))
        assert code == 0, err
        return out, (out_dir / "records.csv").read_text().splitlines()

    @pytest.mark.parametrize("command", CASES)
    def test_list_is_one_batch_of_blocks(self, capsys, tmp_path, monkeypatch, command):
        _, grid, reps = self.CASES[command]
        batches = []
        run_batch = experiments._run_batch

        def counted(cells, workers):
            batches.append(cells)
            return run_batch(cells, workers)

        monkeypatch.setattr(experiments, "_run_batch", counted)
        out, rows = self.run(capsys, tmp_path / "grid", command, ",".join(grid))
        assert len(batches) == 1
        doc = json.loads(out)
        count = len(grid) * reps
        assert doc["spec"]["epsilon_grid"] == [float(eps) for eps in grid]
        assert [rec["replicate"] for rec in doc["records"]] == list(range(count))
        assert [rec["seed"] for rec in doc["records"]] == [spawn_seed(1, i) for i in range(count)]
        assert len(rows) == 1 + count
        per_eps = doc["aggregates"]["per_epsilon"]
        assert list(per_eps) == [repr(float(eps)) for eps in grid]
        single_out, single_rows = self.run(capsys, tmp_path / "single", command, grid[0])
        single = json.loads(single_out)
        assert doc["records"][:reps] == single["records"]
        assert rows[: 1 + reps] == single_rows
        assert per_eps[repr(float(grid[0]))] == single["aggregates"]
        assert "per_epsilon" not in single["aggregates"]

    @pytest.mark.parametrize("command", CASES)
    def test_list_output_serial_equals_parallel(self, capsys, tmp_path, command):
        _, grid, _ = self.CASES[command]
        outs = [
            self.run(capsys, tmp_path / name, command, ",".join(grid), "--workers", workers)[0]
            for name, workers in (("serial", "1"), ("parallel", "2"))
        ]
        assert outs[0] == outs[1]
        for fname in ("report.json", "records.csv"):
            serial, parallel = (tmp_path / name / fname for name in ("serial", "parallel"))
            assert serial.read_bytes() == parallel.read_bytes()


class TestFlagsBeforeGraph:
    @pytest.fixture
    def no_graph(self, monkeypatch, no_compute):
        """Fail the test if a graph is built or read."""

        def fail(*args):
            pytest.fail("a graph was built or read before the flags were checked")

        builders = (
            (graphs, "parse_graph_spec"),
            (graphs, "load_graph"),
            (experiments, "path_graph"),
            (experiments, "torus_graph"),
        )
        for module, name in builders:
            monkeypatch.setattr(module, name, fail)

    @pytest.mark.parametrize("command, flags, message, graph", [
        pytest.param(
            command, flags, message, graph, id=f"{command}-{' '.join(flags)}-{message}-{name}"
        )
        for command, flags, message in (
            ("simulate", ["--eps", "1.5"], "epsilon out of range"),
            ("simulate", ["--eps", "nan"], "epsilon out of range"),
            ("simulate", ["--eps", "0.5", "--t-max", "-1"], "t_max"),
            ("simulate", ["--eps", "0.5", "--max-events", "-1"], "max_events"),
            ("index", ["--eps", "1.5"], "epsilon out of range"),
            ("index", ["--eps", "nan"], "epsilon out of range"),
            ("consensus", ["--eps", "1.5"], "epsilon out of range"),
            ("consensus", ["--eps", "nan"], "epsilon out of range"),
            ("consensus", ["--eps", "0.4"], "epsilon > 1/2"),
            ("coexistence", ["--eps", "1.5"], "epsilon out of range"),
            ("coexistence", ["--eps", "nan"], "epsilon out of range"),
            ("consensus", ["--eps", "0.6,0.8,0.60"], "duplicate threshold in --eps"),
            ("consensus", ["--eps", " , "], "empty --eps"),
            ("consensus", ["--eps", "0.8,0.5"], "epsilon > 1/2"),
            ("consensus", ["--eps", "0.8,x"], "bad --eps"),
            ("coexistence", ["--eps", "0,0.1,-0"], "duplicate threshold in --eps"),
            ("coexistence", ["--eps", ","], "empty --eps"),
            ("coexistence", ["--eps", "0.1,1.5"], "epsilon out of range"),
            *(
                (command, [*flags, "--seed", seed], "seed must lie in")
                for seed in ("-1", str(2**64))
                for command, flags in (
                    ("simulate", ["--eps", "0.5"]),
                    ("consensus", ["--eps", "0.75"]),
                    ("coexistence", ["--eps", "0.1"]),
                    ("sweep", ["--eps-grid", "0.5", "--t-max", "5"]),
                )
            ),
        )
        for name, graph in (
            ("spec", ["--graph", "path:400000"]),
            ("missing_file", ["--graph-file", "/nonexistent/g.txt"]),
        )
        # coexistence and sweep take no --graph-file: test_drivers_take_only_their_size_spec
        if command not in ("coexistence", "sweep") or name == "spec"
    ])
    def test_bad_flag_exits_before_any_graph(
        self, capsys, no_graph, graph, command, flags, message
    ):
        seed = [] if command == "index" else ["--seed", "1"]
        code, out, err = run_cli(capsys, command, *graph, *seed, *flags)
        assert code == 1
        assert message in err
        assert out == ""

    @pytest.mark.parametrize("argv, message", [
        (["coexistence", "--graph-file", "{path}", "--eps", "0.1"], "--graph-file"),
        (["sweep", "--graph-file", "{path}", "--eps-grid", "0.5", "--t-max", "5"], "--graph-file"),
        (["coexistence", "--graph", "cycle:10", "--eps", "0.1"], "path:N"),
        (["coexistence", "--graph", "complete:2", "--eps", "0.1"], "path:N"),
    ], ids=[
        "coexistence-graph-file", "sweep-graph-file", "coexistence-cycle", "coexistence-complete"
    ])
    def test_drivers_take_only_their_size_spec(self, capsys, tmp_path, no_graph, argv, message):
        """coexistence and sweep build their own path or torus from the sizes
        of --graph path:N or torus:WxH: a graph file, even a valid path, or
        another kind of graph exits 1 before a graph is read or built."""
        gfile = tmp_path / "g.txt"
        gfile.write_text("3 2\n0 1\n1 2\n")
        argv = [a.format(path=gfile) for a in argv]
        code, out, err = run_cli(capsys, *argv, "--reps", "2", "--seed", "1")
        assert code == 1
        assert message in err
        assert out == ""

    def test_coexistence_builds_the_path_once(self, capsys, monkeypatch):
        built, build = [], graphs.path_graph

        def counted(n):
            built.append(n)
            return build(n)

        def fail(*args):
            pytest.fail("coexistence parsed or read a graph")

        monkeypatch.setattr(graphs, "parse_graph_spec", fail)
        monkeypatch.setattr(graphs, "load_graph", fail)
        monkeypatch.setattr(graphs, "path_graph", counted)
        monkeypatch.setattr(experiments, "path_graph", counted)
        code, _, _ = run_cli(
            capsys, "coexistence", "--graph", "path:8", "--eps", "0.1", "--reps", "2", "--seed", "1"
        )
        assert code == 0
        assert built == [8]
