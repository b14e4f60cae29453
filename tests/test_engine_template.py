"""Batch-polymorphic plan templates (repro.nn.engine.PlanTemplate).

The contract: tracing, lowering and the shared passes run once per input
geometry; instantiating the template for a batch size yields exactly the
plan a full-batch trace would have — same shapes, same ``describe()``
bytes (pinned against digests recorded on the pre-template code), same
outputs — and never writes into the template.
"""

import hashlib

import numpy as np
import pytest

from repro import data, nn
from repro.core import MTLSplitNet
from repro.nn import fuse
from repro.nn.engine import ExecutionPlan, PlannedExecutor, PlanTemplate, Unplannable
from repro.nn.engine import ir as plan_ir

_BACKBONES = ("mobilenet_v3_tiny", "vgg_tiny", "efficientnet_tiny")
_BATCHES = range(1, 13)

#: sha256(PlanIR.describe())[:16] of (backbone, half, batch, optimize),
#: recorded at the parent commit (full-batch trace, ``probe=False``).
_PARENT_DIGESTS = {
    ("mobilenet_v3_tiny", "edge", 3, True): "9115a9ae39ca8ca6",
    ("mobilenet_v3_tiny", "edge", 7, False): "4833dc58b4c63701",
    ("mobilenet_v3_tiny", "edge", 12, True): "f5da45bde670d302",
    ("mobilenet_v3_tiny", "server", 3, True): "9bbfcc0e94002cc9",
    ("mobilenet_v3_tiny", "server", 7, False): "9afc551b39a3dc76",
    ("mobilenet_v3_tiny", "server", 12, True): "5e5234feaf8d8c28",
    ("vgg_tiny", "edge", 3, True): "b33f971e1f0450e5",
    ("vgg_tiny", "edge", 7, False): "64bca8948267c19b",
    ("vgg_tiny", "edge", 12, True): "bd4e46b796e2433d",
    ("vgg_tiny", "server", 3, True): "2e4bb02af7051b04",
    ("vgg_tiny", "server", 7, False): "fe11540b3a53fda8",
    ("vgg_tiny", "server", 12, True): "843af183edb8f181",
    ("efficientnet_tiny", "edge", 3, True): "9c21672ae7db4242",
    ("efficientnet_tiny", "edge", 7, False): "a9aaa5ab7618eb3f",
    ("efficientnet_tiny", "edge", 12, True): "67ef5f52b1c95858",
    ("efficientnet_tiny", "server", 3, True): "f915ec82f62fa691",
    ("efficientnet_tiny", "server", 7, False): "718899d545cee6f5",
    ("efficientnet_tiny", "server", 12, True): "02b3b5d73c5e8f28",
}


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
        backbone, sessions = halves
        session, image_shape = sessions[half]
        template = PlanTemplate(session, image_shape, optimize=optimize)
        rng = np.random.default_rng(5)
        for batch in _BATCHES:
            ir = template.instantiate(batch, probe=False)
            # A real fused forward at this batch, through the same lowering.
            with monkeypatch.context() as patch:
                patch.setattr(plan_ir, "TRACE_BATCH", batch)
                traced = plan_ir.lower_template(session, image_shape)
            assert [v.row_shape for v in ir.values] == [
                v.row_shape for v in traced.values
            ]
            digest = _PARENT_DIGESTS.get((backbone, half, batch, optimize))
            if digest is not None:
                text = ir.describe().encode()
                assert hashlib.sha256(text).hexdigest()[:16] == digest

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
        fresh = template.instantiate(3, probe=False).describe()
        plan = ExecutionPlan(
            session, (3,) + image_shape, l2_bytes=1 << 14, template=template
        )
        plan.run(np.zeros((3,) + image_shape, dtype=np.float32))
        assert template.ir.describe() == before
        assert template.instantiate(3, probe=False).describe() == fresh
        assert not any("row_blocks" in s.attrs for s in template.ir.steps)
        if optimize:
            assert plan.stats.spmm_row_blocks > 0

    def test_worker_shards_share_one_template(self, halves, trace_calls):
        session, image_shape = halves[1]["edge"]
        with PlannedExecutor(session, num_workers=2) as executor:
            x = np.random.default_rng(2).standard_normal((8,) + image_shape)
            np.testing.assert_allclose(
                executor.run(x), session.run(x.astype(np.float32)), atol=1e-6
            )
            (prepared,) = executor._prepared.values()
            (first, second) = (plan for _, plan in prepared.parts)
            assert len(executor._templates) == 1
        traced = [op for op, n in trace_calls if n == plan_ir.TRACE_BATCH]
        assert len(traced) == len(set(traced))
        for a, b in zip(first.ir.steps, second.ir.steps):
            assert a is not b and a.attrs is not b.attrs
            for key in ("weight", "matrix", "gather"):
                assert a.attrs.get(key) is b.attrs.get(key)

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
