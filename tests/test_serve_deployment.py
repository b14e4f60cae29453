"""Deployment facade: capability parity with the old surface, lifecycle
(resource reclamation), auto split, CLI subcommand."""

import threading

import numpy as np
import pytest

from repro import nn
from repro.cli import main
from repro.nn.tensor import Tensor
from repro.serve import Deployment, DeploymentSpec, SpecError, deploy


def _engine_threads():
    return {
        thread
        for thread in threading.enumerate()
        if thread.name.startswith("repro-engine") and thread.is_alive()
    }


def _batcher_threads():
    return {
        thread
        for thread in threading.enumerate()
        if thread.name.startswith("repro-serve-batcher") and thread.is_alive()
    }


class TestCapabilityParity:
    """repro.deploy covers everything the old hand-wired surface did."""

    def test_infer_matches_monolith(self, tiny_trained_net, shapes3d_small):
        images = shapes3d_small.images[:6]
        with deploy(DeploymentSpec(model=tiny_trained_net)) as deployment:
            logits = deployment.infer(images)
            with nn.no_grad():
                full = tiny_trained_net(Tensor(images))
            for name in tiny_trained_net.task_names:
                np.testing.assert_allclose(
                    logits[name], full[name].data, atol=1e-5
                )
            assert len(deployment.traces) == 1
            assert deployment.traces[0].batch_size == 6

    def test_intermediate_split(self, tiny_trained_net, shapes3d_small):
        images = shapes3d_small.images[:4]
        spec = DeploymentSpec(model=tiny_trained_net, split_index=3)
        with deploy(spec) as deployment:
            assert deployment.split_index == 3
            logits = deployment.infer(images)
            with nn.no_grad():
                full = tiny_trained_net(Tensor(images))
            for name in tiny_trained_net.task_names:
                np.testing.assert_allclose(logits[name], full[name].data, atol=1e-4)

    @pytest.mark.parametrize("wire", ["float16", "quant8"])
    def test_wire_formats(self, tiny_trained_net, shapes3d_small, wire):
        images = shapes3d_small.images[:8]
        with deploy(DeploymentSpec(model=tiny_trained_net, wire=wire)) as deployment:
            logits = deployment.infer(images)
            with nn.no_grad():
                full = tiny_trained_net(Tensor(images))
            for name in tiny_trained_net.task_names:
                agreement = (
                    logits[name].argmax(1) == full[name].data.argmax(1)
                ).mean()
                assert agreement > 0.85

    def test_stream_reports_throughput(self, tiny_trained_net, shapes3d_small):
        batches = [shapes3d_small.images[i : i + 4] for i in range(0, 12, 4)]
        with deploy(DeploymentSpec(model=tiny_trained_net)) as deployment:
            results, report = deployment.stream(batches)
            assert len(results) == 3
            assert report.batches == 3 and report.images == 12
            assert report.batches_per_second > 0
            assert len(deployment.traces) == 3

    def test_auto_split_resolves_to_valid_stage(self):
        spec = DeploymentSpec(
            model="mobilenet_v3_tiny",
            tasks=(("scale", 8),),
            split_index="auto",
            channel="lte_uplink",
        )
        with deploy(spec) as deployment:
            stages = len(list(deployment.net.backbone.stages))
            assert 1 <= deployment.split_index <= stages
            images = np.zeros((2, 3, 32, 32), dtype=np.float32)
            assert set(deployment.infer(images)) == {"scale"}

    def test_named_model_builds_heads_from_tasks(self):
        spec = DeploymentSpec(
            model="vgg_tiny", tasks=(("left", 3), ("right", 5)), seed=9
        )
        with deploy(spec) as deployment:
            assert deployment.task_names == ("left", "right")
            out = deployment.infer(np.zeros((2, 3, 32, 32), dtype=np.float32))
            assert out["left"].shape == (2, 3)
            assert out["right"].shape == (2, 5)

    def test_deploy_kwargs_shorthand(self):
        with deploy(model="vgg_tiny", tasks=(("a", 2),)) as deployment:
            assert isinstance(deployment, Deployment)
            assert deployment.spec.model == "vgg_tiny"

    def test_deploy_overrides_respec(self, tiny_trained_net):
        spec = DeploymentSpec(model=tiny_trained_net)
        with deploy(spec, wire="float16") as deployment:
            assert deployment.spec.wire == "float16"

    def test_out_of_range_split_rejected_with_clear_message(self, tiny_trained_net):
        with pytest.raises(SpecError, match=r"valid: 1\.\."):
            deploy(DeploymentSpec(model=tiny_trained_net, split_index=99))


class TestLifecycle:
    """The resource-leak satellite: pools and dispatcher threads reclaimed."""

    def test_threads_reclaimed_on_close(self, tiny_trained_net):
        before = _engine_threads()
        deployment = deploy(DeploymentSpec(model=tiny_trained_net))
        images = np.zeros((6, 3, 32, 32), dtype=np.float32)
        deployment.infer(images)
        # 32px is below the engine's per-image rule: one batch-last plan,
        # no fan-out thread (the hires side: tests/test_engine_fanout.py).
        assert _engine_threads() == before
        deployment.submit(images[0]).result(timeout=60)
        assert _batcher_threads()
        deployment.close()
        assert not (_engine_threads() - before), "engine threads leaked past close()"
        assert not _batcher_threads(), "batcher dispatcher leaked past close()"

    def test_closed_deployment_rejects_work(self, tiny_trained_net):
        deployment = deploy(DeploymentSpec(model=tiny_trained_net))
        deployment.close()
        deployment.close()  # idempotent
        assert deployment.closed
        with pytest.raises(RuntimeError, match="closed"):
            deployment.infer(np.zeros((1, 3, 32, 32), dtype=np.float32))
        with pytest.raises(RuntimeError, match="closed"):
            deployment.submit(np.zeros((3, 32, 32), dtype=np.float32))

    def test_close_resolves_outstanding_submits(self, tiny_trained_net):
        deployment = deploy(
            DeploymentSpec(model=tiny_trained_net, max_queue_delay_ms=20.0)
        )
        futures = [
            deployment.submit(np.zeros((3, 32, 32), dtype=np.float32))
            for _ in range(5)
        ]
        deployment.close()
        for future in futures:
            assert set(future.result(timeout=10)) == set(
                tiny_trained_net.task_names
            )

    def test_close_safe_under_concurrent_callers(self, tiny_trained_net):
        """Racing close() callers all block until the one drain finishes;
        pending submits resolve, threads are reclaimed exactly once."""
        deployment = deploy(
            DeploymentSpec(model=tiny_trained_net, max_queue_delay_ms=20.0)
        )
        futures = [
            deployment.submit(np.zeros((3, 32, 32), dtype=np.float32))
            for _ in range(5)
        ]
        errors = []

        def closer():
            try:
                deployment.close()
            except BaseException as error:  # pragma: no cover
                errors.append(error)

        threads = [threading.Thread(target=closer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        assert not errors
        assert deployment.closed
        for future in futures:
            assert future.done(), "racing close() stranded a future"
        assert not _batcher_threads(), "batcher thread leaked past close()"

    def test_trace_history_is_bounded(self, tiny_trained_net):
        with deploy(DeploymentSpec(model=tiny_trained_net)) as deployment:
            deployment.pipeline.MAX_TRACES = 5  # instance override
            images = np.zeros((1, 3, 32, 32), dtype=np.float32)
            for _ in range(12):
                deployment.infer(images)
            assert len(deployment.traces) == 5  # oldest traces dropped

    def test_warmup_prepares_plans(self, tiny_trained_net):
        with deploy(DeploymentSpec(model=tiny_trained_net)) as deployment:
            deployment.warmup([1, 4])
            assert not deployment.traces  # warmup is untraced
            stats = deployment.pipeline.edge.plan_stats
            assert stats is not None and stats.num_plans >= 2


def test_deployment_still_reexports_the_runtime_data_types():
    from repro.deployment import InferenceTrace, SimulatedLink, ThroughputReport
    from repro.serve import runtime as serve_runtime

    assert InferenceTrace is serve_runtime.InferenceTrace
    assert SimulatedLink is serve_runtime.SimulatedLink
    assert ThroughputReport is serve_runtime.ThroughputReport


class TestServeCli:
    def test_serve_subcommand_runs(self, capsys):
        assert main([
            "serve", "--backbone", "mobilenet_v3_tiny", "--clients", "1,2",
            "--requests", "2", "--max-batch-size", "2", "--max-delay-ms", "1",
        ]) == 0
        out = capsys.readouterr().out
        assert "sequential" in out
        assert "submit" in out
        assert "best concurrent throughput vs sequential" in out

    def test_serve_json_artifact(self, tmp_path, capsys):
        path = tmp_path / "serve.json"
        assert main([
            "serve", "--clients", "2", "--requests", "2",
            "--max-batch-size", "2", "--max-delay-ms", "1",
            "--json", str(path),
        ]) == 0
        import json

        data = json.loads(path.read_text())
        assert data["sequential"]["throughput_rps"] > 0
        assert data["concurrent"][0]["clients"] == 2

    def test_serve_rejects_degenerate_arguments(self, capsys):
        assert main(["serve", "--clients", "zero"]) == 2
        assert main(["serve", "--clients", "0"]) == 2
        assert main(["serve", "--requests", "0"]) == 2
        assert main(["serve", "--split-index", "nope"]) == 2
        assert main(["serve", "--backbone", "resnet50"]) == 2
        assert main(["serve", "--replicas", "0"]) == 2
        assert main(["serve", "--worker-faults", "boom=1"]) == 2

    def test_serve_replica_cluster_with_chaos(self, tmp_path, capsys):
        """--replicas spins up the cluster bench; --worker-faults injects
        a real SIGKILL and the JSON artifact carries the plan digest."""
        path = tmp_path / "cluster.json"
        assert main([
            "serve", "--backbone", "mobilenet_v3_tiny", "--clients", "1",
            "--requests", "8", "--max-batch-size", "2", "--max-delay-ms", "1",
            "--replicas", "2", "--worker-faults", "at=1,seed=3",
            "--json", str(path),
        ]) == 0
        out = capsys.readouterr().out
        assert "cluster bench" in out
        assert "replica" in out
        import json

        from repro.serve import WorkerFaultPlan

        data = json.loads(path.read_text())
        assert data["replicas"] == 2
        assert data["completed"] == 8
        assert data["worker_fault_digest"] == WorkerFaultPlan.from_string(
            "at=1,seed=3"
        ).digest()
        assert data["report"]["kills_injected"] == 1
        batching = data["report"]["batching"]
        assert batching["submitted"] == batching["shed"] + batching["requests"]

    def test_serve_sigterm_drains_and_exits_zero(self, tmp_path):
        """The drain satellite, end to end: SIGTERM mid-run stops
        admissions, flushes the queue, and exits 0 with the drain notice
        — not a traceback, not a non-zero exit."""
        import os
        import signal
        import subprocess
        import sys
        import time

        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = src + (os.pathsep + existing if existing else "")
        proc = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro.cli", "serve",
             "--backbone", "mobilenet_v3_tiny", "--clients", "1",
             "--requests", "100000", "--max-batch-size", "2",
             "--max-delay-ms", "1"],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            env=env,
            text=True,
        )
        try:
            # Wait for the bench banner so the drain handlers are
            # installed before the signal lands.
            deadline = time.monotonic() + 60
            banner = ""
            while time.monotonic() < deadline:
                line = proc.stdout.readline()
                banner += line
                if "serving bench" in line:
                    break
            assert "serving bench" in banner, banner
            time.sleep(1.0)  # let some requests get in flight
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0, out
        assert "graceful drain complete" in out

    def test_parser_knows_serve(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["serve"])
        assert callable(args.func)
