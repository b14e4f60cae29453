"""Property tests for the depthwise rewrites (group-CSR + stencil).

The pass's contract has two tiers: the block-diagonal group kernel is
*structurally* bit-identical to the per-plane CSR (zero-copy data view,
same entry order, same ``csr_matvecs`` accumulation), while the
padded-slab stencil must *measure* bit-identical on the probe input
before ``block_depthwise`` may select it — and the probe records an
honest loser table either way.  These tests pin both tiers, plus the
steady-state regression the layout-repack pass is responsible for:
optimized plans bind with zero runtime operand copies across the whole
quick-tier scenario matrix.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import data
from repro.core import MTLSplitNet
from repro.nn.engine import ExecutionPlan, PlannedExecutor, kernels, passes
from repro.nn.engine.kernels import (
    DepthwiseStencil,
    pack_depthwise_groups,
    spmm_depthwise_groups,
)
from repro.scenarios import scenario_matrix


class _DepthwiseOp:
    """Minimal stand-in for a fused depthwise conv op (square geometry)."""

    def __init__(self, channels, k, stride, rng):
        self.c_out = channels
        self.c_in_g = 1
        self.groups = channels
        self.kh = self.kw = k
        self.sh = self.sw = stride
        self.ph = self.pw = k // 2
        self.weight = rng.standard_normal((channels, 1, k, k)).astype(np.float32)


def _geometry(op, size):
    ho = (size + 2 * op.ph - op.kh) // op.sh + 1
    return size, size, ho, ho


def _csr_reference(op, h, w, ho, wo, batch, rng):
    matrix = kernels.weight_csr(op, op.c_out, h, w, ho, wo)
    x2 = rng.standard_normal((matrix.shape[1], batch)).astype(np.float32)
    y_ref = np.zeros((matrix.shape[0], batch), dtype=np.float32)
    kernels.spmm_accumulate(matrix, x2, y_ref)
    return matrix, x2, y_ref


class TestGroupBlockedBitIdentity:
    """Block-diagonal plane groups reproduce the whole-CSR sums exactly."""

    @settings(max_examples=40, deadline=None)
    @given(
        channels=st.integers(1, 12),
        size=st.integers(2, 10),
        k=st.sampled_from((3, 5)),
        stride=st.sampled_from((1, 2)),
        batch=st.integers(1, 4),
        planes=st.integers(1, 14),
        seed=st.integers(0, 2**16),
    )
    def test_bit_identity_across_group_sizes(
        self, channels, size, k, stride, batch, planes, seed
    ):
        rng = np.random.default_rng(seed)
        op = _DepthwiseOp(channels, k, stride, rng)
        h, w, ho, wo = _geometry(op, size)
        matrix, x2, y_ref = _csr_reference(op, h, w, ho, wo, batch, rng)
        groups = pack_depthwise_groups(matrix, channels, h * w, ho * wo, planes)
        y = np.zeros_like(y_ref)
        spmm_depthwise_groups(groups, x2, y)
        np.testing.assert_array_equal(y, y_ref)

    def test_groups_cover_all_planes_and_share_data(self):
        rng = np.random.default_rng(0)
        op = _DepthwiseOp(7, 3, 1, rng)
        h, w, ho, wo = _geometry(op, 6)
        matrix, _, _ = _csr_reference(op, h, w, ho, wo, 1, rng)
        groups = pack_depthwise_groups(matrix, 7, h * w, ho * wo, 3)
        assert [(g.row_lo, g.row_hi) for g in groups] == [
            (0, 3 * ho * wo), (3 * ho * wo, 6 * ho * wo), (6 * ho * wo, 7 * ho * wo)
        ]
        # data is a zero-copy view of the cached matrix: same entries, same order
        assert all(np.shares_memory(g.data, matrix.data) for g in groups)


class TestStencilEquivalence:
    """The padded-slab stencil matches CSR within float32 on random nets
    and exactly on a fixed probe-style input (the condition the pass
    requires before it may select the stencil kernel)."""

    @settings(max_examples=40, deadline=None)
    @given(
        channels=st.integers(1, 10),
        size=st.integers(2, 10),
        k=st.sampled_from((3, 5)),
        stride=st.sampled_from((1, 2)),
        batch=st.integers(1, 4),
        group=st.integers(1, 12),
        seed=st.integers(0, 2**16),
    )
    def test_matches_csr(self, channels, size, k, stride, batch, group, seed):
        rng = np.random.default_rng(seed)
        op = _DepthwiseOp(channels, k, stride, rng)
        h, w, ho, wo = _geometry(op, size)
        _, x2, y_ref = _csr_reference(op, h, w, ho, wo, batch, rng)
        stencil = DepthwiseStencil(op, h, w, ho, wo, group)
        pad_shape, mul_shape = stencil.scratch_shapes(batch)
        # scratch borders arrive holding arena garbage; run() must re-zero
        pad = np.full(pad_shape, np.nan, dtype=np.float32)
        mul = np.full(mul_shape, np.nan, dtype=np.float32)
        y = np.zeros_like(y_ref)
        stencil.run(
            x2.reshape(channels, h, w, batch),
            y.reshape(channels, ho, wo, batch),
            pad,
            mul,
        )
        np.testing.assert_allclose(y, y_ref, atol=1e-6, rtol=0)

    def test_probe_style_input_is_bit_identical(self):
        rng = np.random.default_rng(0xD3)
        op = _DepthwiseOp(8, 3, 1, rng)
        h, w, ho, wo = _geometry(op, 14)
        _, x2, y_ref = _csr_reference(op, h, w, ho, wo, 2, rng)
        stencil = DepthwiseStencil(op, h, w, ho, wo, 4)
        pad_shape, mul_shape = stencil.scratch_shapes(2)
        pad = np.zeros(pad_shape, dtype=np.float32)
        mul = np.empty(mul_shape, dtype=np.float32)
        y = np.zeros_like(y_ref)
        stencil.run(
            x2.reshape(8, h, w, 2), y.reshape(8, ho, wo, 2), pad, mul
        )
        np.testing.assert_array_equal(y, y_ref)


class TestProbeSelection:
    """Forced probes record honest loser tables and never change results."""

    @pytest.fixture(scope="class")
    def probe_setup(self):
        tasks = data.make_shapes3d(4, tasks=("scale", "shape"), seed=7).tasks
        net = MTLSplitNet.from_tasks("mobilenet_v3_tiny", list(tasks), 32, seed=31)
        net.eval()
        session = net.compile_for_inference()
        x = data.make_shapes3d(8, tasks=("scale", "shape"), seed=11).images[:4]
        return session, x

    def test_forced_probe_records_and_preserves_results(
        self, probe_setup, monkeypatch
    ):
        session, x = probe_setup
        monkeypatch.setattr(passes, "DW_PROBE_MIN_BYTES", 0)
        plan = ExecutionPlan(session, x.shape)
        baseline = ExecutionPlan(
            session, x.shape, disabled_passes=("block_depthwise",)
        )
        assert plan.stats.depthwise_probes > 0
        probed = [s for s in plan.ir.steps if "dw_probe" in s.attrs]
        assert probed
        for step in probed:
            rec = step.attrs["dw_probe"]
            assert set(rec["times_ms"]) == {"csr", "group_csr", "stencil"}
            assert rec["winner"] in rec["times_ms"]
            # block-diagonal slicing is structurally exact, always eligible
            assert rec["group_csr_exact"] is True
            assert rec["planes_per_group"]["group_csr"] >= 1
        text = plan.describe()
        assert "probe: winner=" in text
        # whatever kernel won, the plan's results are bit-identical to the
        # per-plane CSR plan (the pass's eligibility gate)
        lhs, rhs = plan.run(x), baseline.run(x)
        assert set(lhs) == set(rhs)
        for name in rhs:
            np.testing.assert_array_equal(lhs[name], rhs[name])

    def test_evicted_plan_rebuilds_with_the_recorded_winner(
        self, probe_setup, monkeypatch
    ):
        session, x = probe_setup
        monkeypatch.setattr(passes, "DW_PROBE_MIN_BYTES", 0)
        executor = PlannedExecutor(session, max_plans=1)

        def depthwise(plan):
            return [
                (s.attrs.get("dw_kernel"), s.attrs["dw_probe"])
                for s in plan.ir.steps if "dw_probe" in s.attrs
            ]

        executor.run(x)
        (first,) = (plan for _, plan in executor._prepared[x.shape].parts)
        timed = first.stats.depthwise_probes
        assert timed > 0 and len(depthwise(first)) == timed

        expected = {name: out.copy() for name, out in executor.run(x).items()}
        executor.run(x[:3])  # max_plans=1: evicts the batch-4 plan
        assert x.shape not in executor._prepared

        def no_second_timing(*args, **kwargs):
            raise AssertionError("a rebuilt plan re-timed its depthwise kernels")

        monkeypatch.setattr(passes, "_probe_depthwise", no_second_timing)
        rebuilt_out = executor.run(x)
        (rebuilt,) = (plan for _, plan in executor._prepared[x.shape].parts)
        assert rebuilt is not first
        assert rebuilt.stats.depthwise_probes == 0  # reused, not a fresh timing
        for (kernel, record), (kernel2, record2) in zip(
            depthwise(first), depthwise(rebuilt), strict=True
        ):
            assert kernel == kernel2 and record is record2
        for name in expected:
            np.testing.assert_array_equal(rebuilt_out[name], expected[name])

    def test_probe_disabled_for_provenance(self, probe_setup, monkeypatch):
        session, x = probe_setup
        monkeypatch.setattr(passes, "DW_PROBE_MIN_BYTES", 0)
        plan = ExecutionPlan(session, x.shape, probe=False)
        assert plan.stats.depthwise_probes == 0
        assert not any("dw_probe" in s.attrs for s in plan.ir.steps)


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
            session = net.compile_for_inference()
            executor = PlannedExecutor(session)
            rng = np.random.default_rng(3)
            x = rng.standard_normal(
                (scenario.batch_size, 3, scenario.input_size, scenario.input_size)
            ).astype(np.float32)
            executor.run(x)
            executor.run(x)
            stats = executor.stats
            assert stats.steady_state_allocs == 0, scenario.name
            assert stats.bind_repacks == 0, scenario.name
            assert stats.layout_repacks > 0, scenario.name

    def test_noncontiguous_input_matches_contiguous(self):
        tasks = data.make_shapes3d(4, tasks=("scale", "shape"), seed=7).tasks
        net = MTLSplitNet.from_tasks("vgg_tiny", list(tasks), 32, seed=31)
        net.eval()
        session = net.compile_for_inference()
        executor = PlannedExecutor(session)
        rng = np.random.default_rng(5)
        base = rng.standard_normal((4, 3, 32, 64)).astype(np.float32)
        strided = base[..., ::2]  # non-contiguous view, shape (4, 3, 32, 32)
        assert not strided.flags["C_CONTIGUOUS"]
        expected = executor.run(np.ascontiguousarray(strided))
        got = executor.run(strided)
        for name in expected:
            np.testing.assert_array_equal(got[name], expected[name])
