"""Runnable split-pipeline tests: numerical equality with the monolith,
trace accounting, wire-format effects, overlapped streaming execution."""

import numpy as np
import pytest

from repro import nn
from repro.core.architecture import EdgeModel
from repro.deployment import GIGABIT_ETHERNET, LTE_UPLINK, WireFormat
from repro.nn.tensor import Tensor
from repro.serve import (
    EdgeRuntime,
    ServerRuntime,
    SimulatedLink,
    SplitPipeline,
    ThroughputReport,
)


@pytest.fixture()
def pipeline(tiny_trained_net):
    return SplitPipeline.from_net(
        tiny_trained_net, GIGABIT_ETHERNET, input_size=32
    )


class TestEquality:
    def test_pipeline_matches_monolith(self, pipeline, tiny_trained_net, shapes3d_small):
        tiny_trained_net.eval()
        images = shapes3d_small.images[:6]
        split_logits = pipeline.infer(images)
        with nn.no_grad():
            full = tiny_trained_net(Tensor(images))
        for name in tiny_trained_net.task_names:
            np.testing.assert_allclose(
                split_logits[name], full[name].data, atol=1e-5
            )

    def test_intermediate_split_matches(self, tiny_trained_net, shapes3d_small):
        tiny_trained_net.eval()
        pipeline = SplitPipeline.from_net(
            tiny_trained_net, GIGABIT_ETHERNET, split_index=3, input_size=32
        )
        images = shapes3d_small.images[:4]
        split_logits = pipeline.infer(images)
        with nn.no_grad():
            full = tiny_trained_net(Tensor(images))
        for name in tiny_trained_net.task_names:
            np.testing.assert_allclose(split_logits[name], full[name].data, atol=1e-4)

    def test_float16_wire_close_but_lossy(self, tiny_trained_net, shapes3d_small):
        tiny_trained_net.eval()
        pipeline = SplitPipeline.from_net(
            tiny_trained_net, GIGABIT_ETHERNET, input_size=32,
            wire_format=WireFormat("float16"),
        )
        images = shapes3d_small.images[:4]
        split_logits = pipeline.infer(images)
        with nn.no_grad():
            full = tiny_trained_net(Tensor(images))
        for name in tiny_trained_net.task_names:
            np.testing.assert_allclose(split_logits[name], full[name].data, atol=0.05)

    def test_predictions_survive_quant8(self, tiny_trained_net, shapes3d_small):
        tiny_trained_net.eval()
        pipeline = SplitPipeline.from_net(
            tiny_trained_net, GIGABIT_ETHERNET, input_size=32,
            wire_format=WireFormat("quant8"),
        )
        images = shapes3d_small.images[:32]
        split_logits = pipeline.infer(images)
        with nn.no_grad():
            full = tiny_trained_net(Tensor(images))
        for name in tiny_trained_net.task_names:
            agreement = (
                split_logits[name].argmax(1) == full[name].data.argmax(1)
            ).mean()
            assert agreement > 0.9


class TestTraces:
    def test_trace_recorded_per_call(self, pipeline, shapes3d_small):
        pipeline.infer(shapes3d_small.images[:4])
        pipeline.infer(shapes3d_small.images[4:8])
        assert len(pipeline.traces) == 2
        assert pipeline.traces[0].batch_size == 4

    def test_payload_accounting(self, pipeline, shapes3d_small):
        pipeline.infer(shapes3d_small.images[:4])
        trace = pipeline.traces[0]
        assert trace.payload_bytes == pipeline.link.bytes_sent
        assert pipeline.link.messages_sent == 1
        assert trace.total_seconds >= trace.transfer_seconds

    def test_transfer_time_scales_with_channel(self, tiny_trained_net, shapes3d_small):
        fast = SplitPipeline.from_net(tiny_trained_net, GIGABIT_ETHERNET, input_size=32)
        slow = SplitPipeline.from_net(tiny_trained_net, LTE_UPLINK, input_size=32)
        fast.infer(shapes3d_small.images[:4])
        slow.infer(shapes3d_small.images[:4])
        assert slow.traces[0].transfer_seconds > fast.traces[0].transfer_seconds

    def test_totals(self, pipeline, shapes3d_small):
        for start in range(0, 12, 4):
            pipeline.infer(shapes3d_small.images[start : start + 4])
        assert pipeline.total_seconds() > 0
        assert pipeline.total_transfer_seconds() > 0
        assert pipeline.mean_payload_bytes() > 0

    def test_empty_pipeline_mean_payload(self, pipeline):
        # Regression: must return 0.0 (not nan / numpy warning) on no traces.
        value = pipeline.mean_payload_bytes()
        assert isinstance(value, float)
        assert value == 0.0

    def test_mean_payload_is_plain_average(self, pipeline, shapes3d_small):
        pipeline.infer(shapes3d_small.images[:4])
        pipeline.infer(shapes3d_small.images[4:8])
        sizes = [t.payload_bytes for t in pipeline.traces]
        assert pipeline.mean_payload_bytes() == sum(sizes) / len(sizes)

    def test_warmup_records_no_trace(self, pipeline, shapes3d_small):
        pipeline.warmup(shapes3d_small.images[:4])
        assert pipeline.traces == []
        assert pipeline.link.messages_sent == 0


class TestStreaming:
    def test_stream_matches_sequential(self, tiny_trained_net, shapes3d_small):
        tiny_trained_net.eval()
        batches = [shapes3d_small.images[s : s + 4] for s in (0, 4, 8)]
        streamed = SplitPipeline.from_net(tiny_trained_net, GIGABIT_ETHERNET, input_size=32)
        sequential = SplitPipeline.from_net(tiny_trained_net, GIGABIT_ETHERNET, input_size=32)
        results, report = streamed.infer_stream(batches)
        assert len(results) == 3
        for batch, streamed_logits in zip(batches, results):
            expected = sequential.infer(batch)
            for name in tiny_trained_net.task_names:
                np.testing.assert_allclose(
                    streamed_logits[name], expected[name], atol=1e-5
                )

    def test_stream_traces_in_order(self, pipeline, shapes3d_small):
        batches = [shapes3d_small.images[s : s + 4] for s in (0, 4, 8)]
        _, report = pipeline.infer_stream(batches)
        assert [t.batch_size for t in pipeline.traces] == [4, 4, 4]
        assert pipeline.link.messages_sent == 3
        assert report.batches == 3
        assert report.images == 12

    def test_report_accounting(self, pipeline, shapes3d_small):
        batches = [shapes3d_small.images[s : s + 4] for s in (0, 4, 8, 12)]
        _, report = pipeline.infer_stream(batches)
        edge = sum(t.edge_seconds for t in pipeline.traces)
        transfer = sum(t.transfer_seconds for t in pipeline.traces)
        server = sum(t.server_seconds for t in pipeline.traces)
        assert report.edge_seconds == pytest.approx(edge)
        assert report.serial_seconds == pytest.approx(edge + transfer + server)
        # Overlap wins on multi-batch runs; the makespan still covers the
        # busiest stage entirely.
        assert report.pipelined_seconds < report.serial_seconds
        assert report.pipelined_seconds >= max(edge, transfer, server)
        assert report.overlap_speedup > 1.0
        assert report.batches_per_second > 0
        assert report.critical_stage in ("edge", "transfer", "server")
        util = report.stage_utilisation
        assert set(util) == {"edge", "transfer", "server"}
        assert all(0.0 <= value <= 1.0 for value in util.values())

    def test_empty_stream(self, pipeline):
        results, report = pipeline.infer_stream([])
        assert results == []
        assert report.batches == 0
        assert report.serial_seconds == 0.0
        assert report.batches_per_second == 0.0
        assert report.stage_utilisation["edge"] == 0.0

    def test_schedule_overlaps_stages(self):
        # Deterministic schedule check: 3 batches, each stage busy 1s.
        report = ThroughputReport.from_stage_times(
            [1, 1, 1], [1.0, 1.0, 1.0], [1.0, 1.0, 1.0], [1.0, 1.0, 1.0], 0.0
        )
        assert report.serial_seconds == pytest.approx(9.0)
        # Pipeline fills: makespan = 3 (first batch) + 2 stalls per stage.
        assert report.pipelined_seconds == pytest.approx(5.0)
        assert report.overlap_speedup == pytest.approx(9.0 / 5.0)



class _BatchMean(nn.Module):
    """Collapses the batch, so the planner refuses the half it ends."""

    def forward(self, x):
        return x.mean(axis=0, keepdims=True)


class TestUnplannableHalf:
    def test_still_serves_through_the_session(self, tiny_trained_net, shapes3d_small):
        # The one fork the runtimes keep: a half the planner refuses runs
        # through the executor's fused session, picked by the executor.
        tiny_trained_net.eval()
        edge_model, server_model = tiny_trained_net.split(None, input_size=32)
        edge_model = EdgeModel([edge_model.stages, _BatchMean()])
        pipeline = SplitPipeline(
            EdgeRuntime(edge_model),
            SimulatedLink(GIGABIT_ETHERNET),
            ServerRuntime(server_model, tiny_trained_net.task_names),
        )
        images = shapes3d_small.images[:4]
        with pipeline:
            results, report = pipeline.infer_stream([images])
            with nn.no_grad():
                reference = server_model(edge_model(Tensor(images)))
            for name in tiny_trained_net.task_names:
                np.testing.assert_allclose(
                    results[0][name], reference[name].data, atol=1e-4
                )
            assert pipeline.edge.planned is False and pipeline.server.planned
            assert report.arena_bytes == pipeline.server.plan_stats.arena_bytes > 0
            assert pipeline.edge.plan_provenance(images.shape) == (
                "planned optimize=True\n" + pipeline.edge.session.session.describe()
            )
            z_b, _ = pipeline.edge.forward(images)
            assert pipeline.edge.output_shape(images.shape) == z_b.shape
