"""The row-vector depthwise kernel and the copy-based im2col.

Both replace a ``csr_matvecs(n_vecs=batch)`` run and both must be
*structurally* bit-identical to what they replace: the rows kernel does
the per-plane CSR's products in the per-plane CSR's order, the copies
move the values the 0/1 gather matrix moved.  These tests pin that on
raw bytes against per-plane CSR and a naive im2col, with the scratch
pre-filled with NaN (the binder hands in recycled arena memory), and pin
the plan plumbing around them: geometry-decided rewriting, the on-demand
CSR of the reference path, one construction per geometry,
and the steady-state invariants across the quick matrix.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import data
from repro.core import MTLSplitNet
from repro.nn.engine import ExecutionPlan, PlannedExecutor, kernels
from repro.scenarios import scenario_matrix


class _ConvOp:
    """Minimal stand-in for a fused conv op (depthwise unless ``c_in``)."""

    def __init__(self, c_out, k, stride, pad, rng, c_in=None):
        self.c_out = c_out
        self.c_in_g = c_in or 1
        self.groups = 1 if c_in else c_out
        self.kh = self.kw = k
        self.sh = self.sw = stride
        self.ph, self.pw = pad
        self.weight = rng.standard_normal((c_out, self.c_in_g, k, k)).astype(np.float32)

    def out_size(self, h, w):
        return (
            (h + 2 * self.ph - self.kh) // self.sh + 1,
            (w + 2 * self.pw - self.kw) // self.sw + 1,
        )


_GEOMETRY = dict(
    channels=st.integers(1, 9),
    h=st.integers(2, 11),
    w=st.integers(2, 11),
    k=st.sampled_from((3, 5)),
    stride=st.sampled_from((1, 2)),
    pad=st.tuples(st.integers(0, 3), st.integers(0, 3)),
    batch=st.integers(1, 12),
    seed=st.integers(0, 2**16),
)


class TestRowsKernel:
    @settings(max_examples=120, deadline=None)
    @given(group=st.integers(1, 10), **_GEOMETRY)
    def test_bytes_equal_per_plane_csr(
        self, channels, h, w, k, stride, pad, batch, seed, group
    ):
        rng = np.random.default_rng(seed)
        op = _ConvOp(channels, k, stride, pad, rng)
        ho, wo = op.out_size(h, w)
        if ho < 1 or wo < 1:
            return
        x = rng.standard_normal((channels, h, w, batch)).astype(np.float32)
        bias = rng.standard_normal((channels, 1)).astype(np.float32)
        want = np.empty((channels, ho, wo, batch), dtype=np.float32)
        want.reshape(channels, -1)[:] = bias
        matrix = kernels.weight_csr(op, channels, h, w, ho, wo)
        assert matrix.nnz == channels * kernels.valid_taps(op, h, w, ho, wo)
        kernels.spmm_accumulate(
            matrix, x.reshape(-1, batch), want.reshape(-1, batch)
        )

        rows = kernels.DepthwiseRows(op, channels, h, w, ho, wo)
        slab = np.full(
            rows.slab_shape(min(group, channels), batch), np.nan, dtype=np.float32
        )
        got = np.empty_like(want)
        got.reshape(channels, -1)[:] = bias
        run = rows.bind(x, got, slab)
        run()
        np.testing.assert_array_equal(got, want)
        assert got.tobytes() == want.tobytes()  # no negative zeros went in
        slab.fill(np.nan)  # a later step scribbled on the shared scratch
        got.reshape(channels, -1)[:] = bias
        run()
        assert got.tobytes() == want.tobytes()

    def test_only_a_negative_zero_accumulator_can_change_sign(self):
        # All products are -0.0 (w < 0, x = +0.0) and the bias is -0.0:
        # per-plane CSR leaves -0.0, a padded column tap with w > 0 adds
        # +0.0.  Equal as numbers — the one case the bytes may differ.
        op = _ConvOp(1, 3, 1, (1, 1), np.random.default_rng(0))
        op.weight[:] = -1.0
        op.weight[0, 0, :, 0] = 1.0  # left column: padded at j == 0
        x = np.zeros((1, 3, 3, 1), dtype=np.float32)
        want = np.full((1, 3, 3, 1), -0.0, dtype=np.float32)
        got = want.copy()
        kernels.spmm_accumulate(
            kernels.weight_csr(op, 1, 3, 3, 3, 3), x.reshape(-1, 1), want.reshape(-1, 1)
        )
        rows = kernels.DepthwiseRows(op, 1, 3, 3, 3, 3)
        rows.bind(x, got, np.empty(rows.slab_shape(1, 1), dtype=np.float32))()
        np.testing.assert_array_equal(got, want)
        assert np.signbit(want[0, :, 0]).all() and not np.signbit(got[0, :, 0]).any()


class TestCopyIm2col:
    @settings(max_examples=80, deadline=None)
    @given(dtype=st.sampled_from((np.float32, np.int32)), **_GEOMETRY)
    def test_bytes_equal_naive_im2col(
        self, channels, h, w, k, stride, pad, batch, seed, dtype
    ):
        rng = np.random.default_rng(seed)
        op = _ConvOp(4, k, stride, pad, rng, c_in=channels)
        ho, wo = op.out_size(h, w)
        if ho < 1 or wo < 1:
            return
        x = (rng.standard_normal((channels, h, w, batch)) * 50).astype(dtype)
        padded = np.zeros((channels, h + 2 * op.ph, w + 2 * op.pw, batch), dtype=dtype)
        padded[:, op.ph : op.ph + h, op.pw : op.pw + w] = x
        want = np.empty((channels, k, k, ho, wo, batch), dtype=dtype)
        for ki in range(k):
            for kj in range(k):
                want[:, ki, kj] = padded[
                    :,
                    ki : ki + (ho - 1) * stride + 1 : stride,
                    kj : kj + (wo - 1) * stride + 1 : stride,
                ]
        got = np.full(want.shape, 7 if dtype is np.int32 else np.nan, dtype=dtype)
        kernels.im2col_copies(op, channels, h, w, ho, wo).bind(x, got)()
        assert got.tobytes() == want.tobytes()


def _session(backbone):
    tasks = data.make_shapes3d(4, tasks=("scale", "shape"), seed=7).tasks
    net = MTLSplitNet.from_tasks(backbone, list(tasks), 32, seed=31)
    net.eval()
    return net.compile_for_inference()


@pytest.fixture(scope="module")
def mobilenet_session():
    images = data.make_shapes3d(16, tasks=("scale", "shape"), seed=11).images
    return _session("mobilenet_v3_tiny"), images


class TestPlanPlumbing:
    def test_disabling_the_pass_is_the_per_plane_csr_baseline(self, mobilenet_session):
        session, images = mobilenet_session
        x = images[:4]
        plan = ExecutionPlan(session, x.shape)
        baseline = ExecutionPlan(session, x.shape, disabled_passes=("block_depthwise",))
        assert plan.stats.depthwise_rows_ops > 0
        assert "block_depthwise->rows(x" in plan.describe()
        assert baseline.stats.depthwise_rows_ops == 0
        assert not any("dw_rows" in s.attrs for s in baseline.ir.steps)
        got, want = plan.run(x), baseline.run(x)
        for name in want:
            assert got[name].tobytes() == want[name].tobytes()

    def test_rewriting_is_decided_by_geometry_and_batch(self, mobilenet_session):
        session, _ = mobilenet_session

        def rewritten(batch):
            ir = PlannedExecutor(session).plan_ir((batch, 3, 32, 32))
            return [
                ir.values[s.output].row_shape[2:] for s in ir.steps
                if "dw_rows" in s.attrs
            ]

        # Only the 16x16 plane is large enough at 32px; per-plane CSR
        # catches up once its n_vecs (the batch) is long enough.
        assert rewritten(1) == rewritten(12) == [(16, 16)]
        assert rewritten(16) == []

    def test_twelve_batch_sizes_build_each_construction_once(
        self, mobilenet_session, monkeypatch
    ):
        images = mobilenet_session[1]
        session = _session("mobilenet_v3_tiny")  # nothing cached on its ops yet
        built = []
        for name in ("DepthwiseRows", "im2col_copies", "weight_csr"):
            original = getattr(kernels, name)

            def spy(op, *geometry, _name=name, _original=original):
                built.append((_name, id(op)) + geometry)
                return _original(op, *geometry)

            monkeypatch.setattr(kernels, name, spy)
        executor = PlannedExecutor(session, max_plans=4)
        for batch in range(1, 13):
            executor.run(images[:batch])
        assert {name for name, *_ in built} == {
            "DepthwiseRows", "im2col_copies", "weight_csr"
        }
        assert len(built) == len(set(built))


class TestSteadyStateRegression:
    """Optimized plans across the quick-tier matrix: zero steady-state
    allocations *and* zero runtime operand repacks (the layout pass must
    have canonicalised every GEMM operand at plan time)."""

    def test_quick_matrix_zero_allocs_zero_bind_repacks(self):
        tasks = data.make_shapes3d(4, tasks=("scale", "shape"), seed=7).tasks
        for scenario in scenario_matrix("quick"):
            net = MTLSplitNet.from_tasks(
                scenario.backbone, list(tasks), scenario.input_size, seed=31
            )
            net.eval()
            executor = PlannedExecutor(net.compile_for_inference())
            rng = np.random.default_rng(3)
            # Batch 4 so the rows kernel is in the plans being checked.
            x = rng.standard_normal(
                (4, 3, scenario.input_size, scenario.input_size)
            ).astype(np.float32)
            executor.run(x)
            executor.run(x)
            stats = executor.stats
            assert stats.steady_state_allocs == 0, scenario.name
            assert stats.bind_repacks == 0, scenario.name
            assert stats.layout_repacks > 0, scenario.name

    def test_noncontiguous_input_matches_contiguous(self):
        executor = PlannedExecutor(_session("vgg_tiny"), copy_outputs=True)
        base = np.random.default_rng(5).standard_normal((4, 3, 32, 64))
        strided = base.astype(np.float32)[..., ::2]  # non-contiguous (4, 3, 32, 32)
        assert not strided.flags["C_CONTIGUOUS"]
        expected = executor.run(np.ascontiguousarray(strided))
        got = executor.run(strided)
        for name in expected:
            np.testing.assert_array_equal(got[name], expected[name])
