"""Property tests for the arena-planned execution engine (repro.nn.engine).

The engine's contract: a planned executor produces the same outputs as
the unplanned compiled session within 1e-6, for every backbone, split
index and batch size — while performing zero large allocations per
steady-state batch.  (How a batch executes — batch-last plan or per-image
fan-out — is tests/test_engine_fanout.py.)
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import data, nn
from repro.core import MTLSplitNet
from repro.deployment import GIGABIT_ETHERNET
from repro.serve import SplitPipeline
from repro.nn import engine, fuse

_ATOL = 1e-6
_BACKBONES = ("mobilenet_v3_tiny", "vgg_tiny", "efficientnet_tiny")


@pytest.fixture(scope="module")
def images():
    return data.make_shapes3d(32, tasks=("scale", "shape"), seed=11).images


@pytest.fixture(scope="module", params=_BACKBONES)
def split_net(request):
    tasks = data.make_shapes3d(4, tasks=("scale", "shape"), seed=11).tasks
    net = MTLSplitNet.from_tasks(request.param, list(tasks), 32, seed=23)
    net.eval()
    return net


def _assert_outputs_match(lhs, rhs, atol=_ATOL):
    if isinstance(rhs, dict):
        assert set(lhs) == set(rhs)
        for name in rhs:
            np.testing.assert_allclose(lhs[name], rhs[name], atol=atol)
    else:
        np.testing.assert_allclose(lhs, rhs, atol=atol)


class TestPlannedMatchesUnplanned:
    """The acceptance property: planned ≡ unplanned compiled within 1e-6."""

    def test_edge_and_server_halves(self, split_net, images):
        n_stages = len(list(split_net.backbone.stages))
        for split_index in (1, max(1, n_stages // 2), n_stages):
            edge, server = split_net.split(split_index, input_size=32)
            edge_session = edge.compile_for_inference()
            server_session = server.compile_for_inference()
            x = images[:8]
            z_ref = edge_session.run(x)
            out_ref = server_session.run(z_ref)

            edge_planned = engine.PlannedExecutor(edge_session)
            server_planned = engine.PlannedExecutor(server_session)
            _assert_outputs_match(edge_planned.run(x), z_ref)
            _assert_outputs_match(server_planned.run(z_ref), out_ref)

    @pytest.mark.parametrize("batch_size", [1, 2, 5, 16])
    def test_batch_sizes(self, split_net, images, batch_size):
        session = split_net.compile_for_inference()
        executor = engine.PlannedExecutor(session)
        x = images[:batch_size]
        _assert_outputs_match(executor.run(x), session.run(x))

    @settings(max_examples=12, deadline=None)
    @given(
        batch=st.integers(1, 12),
        split_fraction=st.floats(0.1, 1.0),
    )
    def test_property_random_batch_split(self, batch, split_fraction):
        # Module-scoped fixtures don't mix with hypothesis; build once here.
        net = _PROPERTY_NET
        n_stages = len(list(net.backbone.stages))
        split_index = max(1, min(n_stages, round(split_fraction * n_stages)))
        edge, _ = net.split(split_index, input_size=32)
        session = edge.compile_for_inference()
        executor = engine.PlannedExecutor(session)
        x = _PROPERTY_IMAGES[:batch]
        np.testing.assert_allclose(executor.run(x), session.run(x), atol=_ATOL)

    def test_same_executor_handles_shape_changes(self, split_net, images):
        session = split_net.compile_for_inference()
        executor = engine.PlannedExecutor(session)
        for batch in (4, 7, 4, 1):
            x = images[:batch]
            _assert_outputs_match(executor.run(x), session.run(x))


_PROPERTY_NET = None
_PROPERTY_IMAGES = None


def setup_module(module):
    global _PROPERTY_NET, _PROPERTY_IMAGES
    dataset = data.make_shapes3d(16, tasks=("scale", "shape"), seed=11)
    net = MTLSplitNet.from_tasks("mobilenet_v3_tiny", list(dataset.tasks), 32, seed=29)
    net.eval()
    _PROPERTY_NET = net
    _PROPERTY_IMAGES = dataset.images


class TestArena:
    def test_blocks_are_reused(self):
        arena = engine.BufferArena()
        bid_a, a = arena.acquire((4, 8))
        arena.release(bid_a)
        bid_b, b = arena.acquire((2, 16))  # same element count: same block
        assert bid_a == bid_b
        assert arena.num_blocks == 1
        bid_c, _ = arena.acquire((2, 16))  # block busy: a second one appears
        assert bid_c != bid_b
        assert arena.num_blocks == 2

    def test_smallest_sufficient_block_wins(self):
        arena = engine.BufferArena()
        bid_big, _ = arena.acquire((100,))
        bid_small, _ = arena.acquire((10,))
        arena.release(bid_big)
        arena.release(bid_small)
        bid, view = arena.acquire((8,))
        assert bid == bid_small
        assert view.size == 8

    def test_zero_steady_state_allocs_for_planned_net(self, split_net, images):
        edge, _ = split_net.split(None, input_size=32)
        executor = engine.PlannedExecutor(edge.compile_for_inference())
        executor.run(images[:8])
        stats = executor.stats
        assert stats.steady_state_allocs == 0
        assert stats.fallback_ops == 0
        assert stats.arena_bytes > 0
        # Liveness reuse must beat naive one-buffer-per-op allocation.
        assert stats.arena_bytes < stats.requested_bytes

    def test_arena_stable_across_runs(self, split_net, images):
        edge, _ = split_net.split(None, input_size=32)
        executor = engine.PlannedExecutor(edge.compile_for_inference())
        executor.run(images[:8])
        bytes_after_first = executor.stats.arena_bytes
        for _ in range(3):
            executor.run(images[:8])
        assert executor.stats.arena_bytes == bytes_after_first

    def test_plan_rejects_wrong_shape(self, split_net, images):
        edge, _ = split_net.split(None, input_size=32)
        plan = engine.ExecutionPlan(edge.compile_for_inference(), (4, 3, 32, 32))
        with pytest.raises(ValueError, match="batch shape"):
            plan.run(images[:6])


class TestLoweringCoverage:
    """Planner coverage for op types the backbones do not all exercise."""

    def _roundtrip(self, module, x, atol=_ATOL):
        module.eval()
        session = module.compile_for_inference()
        executor = engine.PlannedExecutor(session)
        np.testing.assert_allclose(executor.run(x), session.run(x), atol=atol)
        return executor

    def test_fallback_op_matches(self, rng):
        module = nn.Sequential(
            nn.Conv2d(3, 6, 3, padding=1, rng=rng),
            nn.GroupNorm(2, 6),  # no lowering rule: FallbackOp
            nn.ReLU(),
        )
        x = rng.normal(size=(4, 3, 8, 8)).astype(np.float32)
        executor = self._roundtrip(module, x)
        assert executor.stats.fallback_ops > 0
        assert executor.stats.steady_state_allocs > 0

    @pytest.mark.parametrize("slope", [0.3, 1, 2.0])
    def test_leaky_relu_slope_preserved(self, rng, slope):
        # slope=1 (an int) regression: closure introspection once silently
        # fell back to 0.01 when the slope was not a Python float.
        module = nn.Sequential(nn.Linear(6, 6, rng=rng), nn.LeakyReLU(slope))
        x = rng.normal(size=(5, 6)).astype(np.float32)
        self._roundtrip(module, x)

    @pytest.mark.parametrize(
        "module_factory,shape",
        [
            (lambda rng: nn.MaxPool2d(3, 2), (3, 4, 9, 9)),
            (lambda rng: nn.AvgPool2d(2), (3, 4, 8, 8)),
            (lambda rng: nn.AdaptiveAvgPool2d(2), (3, 4, 8, 8)),
            (lambda rng: nn.AdaptiveAvgPool2d(1), (3, 4, 8, 8)),
            (lambda rng: nn.Sequential(nn.BatchNorm2d(4), nn.GELU()), (3, 4, 6, 6)),
            (lambda rng: nn.Sequential(nn.Flatten(), nn.Linear(64, 3, rng=rng)), (3, 4, 4, 4)),
        ],
    )
    def test_layer_equivalence(self, rng, module_factory, shape):
        module = module_factory(rng)
        x = rng.normal(size=shape).astype(np.float32)
        self._roundtrip(module, x)

    def test_strided_pointwise_conv(self, rng):
        # 1x1 kernel with stride 2: not the pointwise GEMM fast path.
        module = nn.Conv2d(4, 6, 1, stride=2, rng=rng)
        x = rng.normal(size=(3, 4, 8, 8)).astype(np.float32)
        self._roundtrip(module, x)

    def test_grouped_conv(self, rng):
        module = nn.Conv2d(8, 4, 3, padding=1, groups=2, rng=rng)
        x = rng.normal(size=(2, 8, 6, 6)).astype(np.float32)
        executor = self._roundtrip(module, x)
        assert executor.stats.sparse_ops == 1

    def test_silu_hard_swish_chain(self, rng):
        module = nn.Sequential(
            nn.Conv2d(3, 5, 3, padding=1, rng=rng), nn.SiLU(), nn.HardSwish()
        )
        x = rng.normal(size=(2, 3, 8, 8)).astype(np.float32)
        self._roundtrip(module, x)


class TestPlannedExecutor:
    def test_copy_outputs_isolates_results(self, split_net, images):
        session = split_net.compile_for_inference()
        executor = engine.PlannedExecutor(session, copy_outputs=True)
        first = executor.run(images[:4])
        snapshot = {name: logits.copy() for name, logits in first.items()}
        executor.run(images[4:8])
        for name in first:
            np.testing.assert_array_equal(first[name], snapshot[name])

    def test_without_copy_outputs_buffers_are_reused(self, split_net, images):
        edge, _ = split_net.split(None, input_size=32)
        executor = engine.PlannedExecutor(edge.compile_for_inference())
        first = executor.run(images[:4])
        second = executor.run(images[4:8])
        assert first is second  # same plan-owned buffer, by design

    def test_plan_cache_is_bounded(self, split_net, images):
        edge, _ = split_net.split(None, input_size=32)
        executor = engine.PlannedExecutor(
            edge.compile_for_inference(), max_plans=2
        )
        for batch in (1, 2, 3, 4):
            executor.run(images[:batch])
        assert len(executor._prepared) <= 2

    def test_compile_for_inference_plan_flag(self, split_net, images):
        executor = split_net.compile_for_inference(
            sample_input=images[:4], plan=True, fan_out=2
        )
        assert isinstance(executor, engine.PlannedExecutor)
        assert executor.num_ops == split_net.compile_for_inference().num_ops
        assert "PlannedExecutor" in executor.describe()

    def test_stats_aggregate_over_plans(self, split_net, images):
        edge, _ = split_net.split(None, input_size=32)
        executor = engine.PlannedExecutor(edge.compile_for_inference())
        executor.run(images[:8])
        executor.run(images[:3])
        stats = executor.stats
        assert stats.num_plans == 2
        assert 0.0 <= stats.reuse_ratio < 1.0


class TestRuntimeIntegration:
    def test_runtime_reports_plan_accounting(self, split_net, images):
        pipeline = SplitPipeline.from_net(
            split_net, GIGABIT_ETHERNET, input_size=32
        )
        batches = [images[:4], images[4:8]]
        _, report = pipeline.infer_stream(batches)
        assert report.arena_bytes > 0
        assert report.steady_state_allocs == 0
        assert pipeline.edge.planned and pipeline.server.planned
        # Every counter PlanStats and the report share arrives summed.
        merged = pipeline.edge.plan_stats.merged(pipeline.server.plan_stats)
        for name in ("arena_bytes", "fused_steps", "elided_copies",
                     "aliased_views", "spmm_row_blocks"):
            assert getattr(report, name) == getattr(merged, name)
        assert report.fused_steps > 0

    def test_conv_index_caches_are_batch_independent(self, split_net, images):
        edge, _ = split_net.split(None, input_size=32)
        session = edge.compile_for_inference()
        session.run(images[:8])
        session.run(images[:3])  # ragged batch must reuse the same tables
        for op in session._walk():
            if isinstance(op, fuse.ConvOp):
                assert len(op._im2col_idx) <= 1
                assert len(op._dw_offsets) <= 1
