"""CLI tests: every subcommand runs and prints what it promises."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_known_subcommands(self):
        parser = build_parser()
        for command in ("profile", "paradigms", "dataset", "split-sweep", "train",
                        "pipeline"):
            args = parser.parse_args([command])
            assert callable(args.func)


class TestProfile:
    def test_summary(self, capsys):
        assert main(["profile", "--backbone", "mobilenet_v3_small"]) == 0
        out = capsys.readouterr().out
        assert "params" in out and "Z_b" in out

    def test_layers_flag(self, capsys):
        assert main(["profile", "--backbone", "vgg_tiny", "--layers",
                     "--input-size", "32"]) == 0
        out = capsys.readouterr().out
        assert "layer0.conv" in out

    def test_table4_flag(self, capsys):
        assert main(["profile", "--backbone", "efficientnet_b0", "--table4"]) == 0
        assert "Zb size (MB)" in capsys.readouterr().out


class TestParadigms:
    def test_comparison_printed(self, capsys):
        assert main(["paradigms", "--backbone", "mobilenet_v3_small",
                     "--tasks", "2", "--input-size", "224"]) == 0
        out = capsys.readouterr().out
        assert "LoC" in out and "RoC" in out and "SC" in out

    def test_degraded_bandwidth(self, capsys):
        assert main(["paradigms", "--backbone", "mobilenet_v3_small",
                     "--tasks", "2", "--input-size", "224",
                     "--bandwidth-mbps", "10"]) == 0
        assert "SC" in capsys.readouterr().out


class TestDataset:
    def test_summary(self, capsys):
        assert main(["dataset", "--name", "faces", "--samples", "30"]) == 0
        out = capsys.readouterr().out
        assert "age" in out and "entropy" in out

    def test_unknown_dataset(self, capsys):
        assert main(["dataset", "--name", "imagenet"]) == 2

    def test_export_grid(self, tmp_path, capsys):
        path = tmp_path / "grid.ppm"
        assert main(["dataset", "--name", "shapes3d", "--samples", "8",
                     "--export", str(path), "--grid", "8"]) == 0
        assert path.exists()


class TestSplitSweep:
    def test_sweep_marks_optimum(self, capsys):
        assert main(["split-sweep", "--backbone", "mobilenet_v3_small",
                     "--input-size", "224"]) == 0
        out = capsys.readouterr().out
        assert "<- optimal" in out
        assert "input (RoC)" in out


class TestPipeline:
    def test_throughput_report_printed(self, capsys):
        assert main(["pipeline", "--backbone", "mobilenet_v3_tiny",
                     "--batches", "2", "--batch-size", "8", "--epochs", "0"]) == 0
        out = capsys.readouterr().out
        assert "planned engine" in out
        assert "pipelined makespan" in out
        assert "critical path" in out
        assert "arena preallocated" in out

    def test_removed_num_workers_flag_is_rejected(self, capsys):
        for command in ("pipeline", "serve"):
            with pytest.raises(SystemExit):
                main([command, "--num-workers", "2"])
        assert "unrecognized arguments: --num-workers" in capsys.readouterr().err

    def test_rejects_degenerate_arguments(self, capsys):
        assert main(["pipeline", "--batches", "0"]) == 2
        assert main(["pipeline", "--bandwidth-mbps", "0"]) == 2

    def test_wire_flag(self, capsys):
        assert main(["pipeline", "--batches", "2", "--batch-size", "4",
                     "--epochs", "0", "--wire", "float16"]) == 0
        out = capsys.readouterr().out
        assert "wire=float16" in out
        assert "batches/s" in out


class TestPlanDescribe:
    def test_batch_last_geometry_prints_the_batch_plan(self, capsys):
        assert main(["plan", "describe", "--batch-size", "4"]) == 0
        out = capsys.readouterr().out
        assert "ExecutionPlan(batch=(4, 3, 32, 32)" in out
        assert "executes as" not in out

    def test_hires_geometry_prints_how_the_batch_executes(self, capsys):
        assert main(["plan", "describe", "--input-size", "224",
                     "--batch-size", "2"]) == 0
        edge, server = capsys.readouterr().out.split("# server half")
        assert "executes as 2 x batch-1 plan on " in edge
        assert "ExecutionPlan(batch=(1, 3, 224, 224)" in edge
        assert "executes as" not in server and "ExecutionPlan(batch=(2, " in server


class TestTrain:
    def test_quick_training_run(self, capsys):
        assert main(["train", "--backbone", "mobilenet_v3_tiny",
                     "--samples", "90", "--epochs", "1"]) == 0
        out = capsys.readouterr().out
        assert "test scale" in out and "test shape" in out


class TestAttest:
    def test_verify_quick_tier_matches(self, capsys):
        assert main(["attest", "verify"]) == 0
        out = capsys.readouterr().out
        assert "all attestations match" in out
        assert "host-gated tier" in out  # hires goldens named as skipped

    def test_verify_single_scenario(self, capsys):
        assert main(["attest", "verify", "--scenario", "vgg_quick_32px"]) == 0
        assert "ok       vgg_quick_32px" in capsys.readouterr().out

    def test_record_refuses_overwrite_without_update(self, capsys):
        assert main(["attest", "record", "--scenario", "vgg_quick_32px"]) == 0
        assert "exists" in capsys.readouterr().out

    def test_unknown_scenario_is_a_usage_error(self, capsys):
        assert main(["attest", "verify", "--scenario", "no_such_scenario"]) == 2
