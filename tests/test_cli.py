import json

import pytest

from ctvoter import experiments
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
