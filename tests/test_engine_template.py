"""Batch-polymorphic plan templates (repro.nn.engine.PlanTemplate).

The contract: tracing, lowering and the shared passes run once per input
geometry; instantiating the template for a batch size yields exactly the
plan a full-batch trace would have — same shapes, same ``describe()``
bytes, same outputs — and never writes into the template.
"""

import numpy as np
import pytest

from repro import data, nn
from repro.core import MTLSplitNet
from repro.nn import fuse
from repro.nn.engine import (
    ExecutionPlan,
    PlannedExecutor,
    PlanStats,
    PlanTemplate,
    Unplannable,
    run_passes,
)
from repro.nn.engine import ir as plan_ir

_BACKBONES = ("mobilenet_v3_tiny", "vgg_tiny", "efficientnet_tiny")
_BATCHES = range(1, 13)


@pytest.fixture(scope="module", params=_BACKBONES)
def halves(request):
    """``{half: (session, per-image input shape)}`` at the paper cut."""
    tasks = data.make_shapes3d(4, tasks=("scale", "shape"), seed=11).tasks
    net = MTLSplitNet.from_tasks(request.param, list(tasks), 32, seed=23)
    net.eval()
    edge, server = net.split(None, input_size=32)
    edge_session = edge.compile_for_inference()
    z_shape = edge_session.run(np.zeros((1, 3, 32, 32), dtype=np.float32)).shape[1:]
    return request.param, {
        "edge": (edge_session, (3, 32, 32)),
        "server": (server.compile_for_inference(), tuple(z_shape)),
    }


def _values(outputs):
    return list(outputs.values()) if isinstance(outputs, dict) else [outputs]


@pytest.fixture
def trace_calls(monkeypatch):
    """Count fused-op forwards (what a shape trace costs) per op class."""
    calls = []
    for cls in (fuse.ConvOp, fuse.LinearOp):
        original = cls.__call__

        def spy(self, x, _original=original):
            calls.append((id(self), x.shape[0]))
            return _original(self, x)

        monkeypatch.setattr(cls, "__call__", spy)
    return calls


class TestInstantiateEqualsFullBatchTrace:
    @pytest.mark.parametrize("half", ["edge", "server"])
    @pytest.mark.parametrize("optimize", [True, False])
    def test_shapes_text_and_outputs(self, halves, half, optimize, monkeypatch):
        session, image_shape = halves[1][half]
        template = PlanTemplate(session, image_shape, optimize=optimize)
        rng = np.random.default_rng(5)
        for batch in _BATCHES:
            ir = template.instantiate(batch)
            # A real fused forward at this batch, through the same lowering
            # and (when optimizing) the whole pass pipeline in one go.
            with monkeypatch.context() as patch:
                patch.setattr(plan_ir, "TRACE_BATCH", batch)
                traced = plan_ir.lower_template(session, image_shape)
            if optimize:
                run_passes(traced, PlanStats())
            assert [v.row_shape for v in ir.values] == [
                v.row_shape for v in traced.values
            ]
            assert ir.describe() == traced.describe()

            shape = (batch,) + image_shape
            x = rng.standard_normal(shape).astype(np.float32)
            first = ExecutionPlan(session, shape, template=template)
            second = ExecutionPlan(session, shape, template=template)
            assert first.ir.describe() == second.ir.describe()
            reference = _values(session.run(x))
            for got, again, want in zip(
                _values(first.run(x)), _values(second.run(x)), reference
            ):
                np.testing.assert_array_equal(got, again)
                np.testing.assert_allclose(got, want, atol=1e-6)


class TestTemplateIsSharedAndImmutable:
    @pytest.mark.parametrize("half", ["edge", "server"])
    def test_twelve_batch_sizes_trace_once(self, halves, half, trace_calls):
        session, image_shape = halves[1][half]
        executor = PlannedExecutor(session)
        for batch in _BATCHES:
            executor.run(np.zeros((batch,) + image_shape, dtype=np.float32))
        assert trace_calls, "the spy saw no trace at all"
        ops = [op for op, _ in trace_calls]
        assert len(ops) == len(set(ops)), "an op was traced more than once"
        assert {n for _, n in trace_calls} == {plan_ir.TRACE_BATCH}

    @pytest.mark.parametrize("optimize", [True, False])
    def test_binding_never_writes_into_the_template(self, halves, optimize):
        # l2_bytes forces block_spmm (row_blocks + a pass mark) and the
        # unoptimized binder realiases residual adds: both must land on
        # the rebatched copy only.
        session, image_shape = halves[1]["edge"]
        template = PlanTemplate(session, image_shape, optimize=optimize)
        before = template.ir.describe()
        fresh = template.instantiate(3).describe()
        plan = ExecutionPlan(
            session, (3,) + image_shape, l2_bytes=1 << 14, template=template
        )
        plan.run(np.zeros((3,) + image_shape, dtype=np.float32))
        assert template.ir.describe() == before
        assert template.instantiate(3).describe() == fresh
        assert not any("row_blocks" in s.attrs for s in template.ir.steps)
        if optimize and plan.stats.sparse_ops:  # VGG has no CSR step to block
            assert plan.stats.spmm_row_blocks > 0

    def test_fan_out_lanes_share_one_template(self, halves, trace_calls):
        session, image_shape = halves[1]["edge"]
        # l2_bytes=1 forces the per-image regime at this small geometry.
        with PlannedExecutor(session, fan_out=2, l2_bytes=1) as executor:
            x = np.random.default_rng(2).standard_normal((8,) + image_shape)
            np.testing.assert_allclose(
                executor.run(x), session.run(x.astype(np.float32)), atol=1e-6
            )
            (template,) = executor._templates.values()
            (first, second) = template.lanes
        traced = [op for op, n in trace_calls if n == plan_ir.TRACE_BATCH]
        assert len(traced) == len(set(traced))
        for a, b in zip(first.ir.steps, second.ir.steps):
            assert a is not b and a.attrs is not b.attrs
            assert a.attrs.get("weight") is b.attrs.get("weight")

    def test_templates_are_bounded_by_max_plans(self, rng):
        session = nn.Conv2d(3, 4, 3, padding=1, rng=rng).compile_for_inference()
        executor = PlannedExecutor(session, max_plans=2)
        for size in (6, 8, 10):
            executor.run(np.zeros((1, 3, size, size), dtype=np.float32))
        assert list(executor._templates) == [(3, 8, 8), (3, 10, 10)]


class _BatchMean(nn.Module):
    """Collapses the batch: its output's leading dim is 1, not ``n``."""

    def forward(self, x):
        return x.mean(axis=0, keepdims=True)


class TestUnusualSessions:
    def test_fallback_op_plans_from_the_template(self, rng):
        module = nn.Sequential(
            nn.Conv2d(3, 6, 3, padding=1, rng=rng), nn.GroupNorm(2, 6), nn.ReLU()
        )
        module.eval()
        session = module.compile_for_inference()
        executor = PlannedExecutor(session)
        for batch in (1, 4, 5):
            x = rng.normal(size=(batch, 3, 8, 8)).astype(np.float32)
            np.testing.assert_allclose(executor.run(x), session.run(x), atol=1e-6)
        assert executor.planned and executor.stats.fallback_ops > 0

    def test_leading_dim_not_batch_is_unplannable(self, rng):
        module = nn.Sequential(nn.Linear(4, 4, rng=rng), _BatchMean())
        module.eval()
        session = module.compile_for_inference()
        with pytest.raises(Unplannable, match="leading dim is not the batch"):
            PlanTemplate(session, (4,))
        executor = PlannedExecutor(session)
        x = rng.normal(size=(5, 4)).astype(np.float32)
        np.testing.assert_array_equal(executor.run(x), session.run(x))
        assert not executor.planned
