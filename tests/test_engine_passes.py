"""Property tests for the plan-IR optimizer (repro.nn.engine.passes).

The optimizer's contract: rewritten plans are *semantically invisible* —
optimized ≡ unoptimized ≡ the fused session within 1e-6 across
backbones, split points and batch sizes — while the engine's existing
guarantees (zero steady-state allocations, bounded plan cache) survive
every rewrite, and the passes actually fire where the acceptance
criteria say they must (fused epilogues and elided copies on VGG-style
and residual backbones).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import data, nn
from repro.core import MTLSplitNet
from repro.nn import fuse
from repro.nn.engine import ExecutionPlan, PlannedExecutor

_ATOL = 1e-6
_BACKBONES = ("mobilenet_v3_tiny", "vgg_tiny", "efficientnet_tiny")


@pytest.fixture(scope="module")
def images():
    return data.make_shapes3d(32, tasks=("scale", "shape"), seed=7).images


@pytest.fixture(scope="module", params=_BACKBONES)
def split_net(request):
    tasks = data.make_shapes3d(4, tasks=("scale", "shape"), seed=7).tasks
    net = MTLSplitNet.from_tasks(request.param, list(tasks), 32, seed=31)
    net.eval()
    return net


def _assert_outputs_match(lhs, rhs, atol=_ATOL):
    if isinstance(rhs, dict):
        assert set(lhs) == set(rhs)
        for name in rhs:
            np.testing.assert_allclose(lhs[name], rhs[name], atol=atol)
    else:
        np.testing.assert_allclose(lhs, rhs, atol=atol)


class TestOptimizedEquivalence:
    """optimized ≡ unoptimized ≡ session, and the engine contract holds."""

    def test_full_net_optimized_matches_unoptimized_and_session(
        self, split_net, images
    ):
        session = split_net.compile_for_inference()
        x = images[:8]
        reference = session.run(x)
        optimized = PlannedExecutor(session)
        unoptimized = PlannedExecutor(session, optimize=False)
        _assert_outputs_match(optimized.run(x), reference)
        _assert_outputs_match(unoptimized.run(x), reference)
        _assert_outputs_match(optimized.run(x), unoptimized.run(x))

    @pytest.mark.parametrize("batch", [1, 3, 16])
    def test_split_halves_and_batch_sizes(self, split_net, images, batch):
        n_stages = len(list(split_net.backbone.stages))
        for split_index in (1, n_stages):
            edge, server = split_net.split(split_index, input_size=32)
            edge_session = edge.compile_for_inference()
            server_session = server.compile_for_inference()
            x = images[:batch]
            z = edge_session.run(x)
            _assert_outputs_match(PlannedExecutor(edge_session).run(x), z)
            _assert_outputs_match(
                PlannedExecutor(server_session).run(z), server_session.run(z)
            )

    @settings(max_examples=10, deadline=None)
    @given(batch=st.integers(1, 12), split_fraction=st.floats(0.1, 1.0))
    def test_property_random_batch_and_split(self, batch, split_fraction):
        net = _PROPERTY_NET
        n_stages = len(list(net.backbone.stages))
        split_index = max(1, min(n_stages, round(split_fraction * n_stages)))
        edge, _ = net.split(split_index, input_size=32)
        session = edge.compile_for_inference()
        x = _PROPERTY_IMAGES[:batch]
        reference = session.run(x)
        np.testing.assert_allclose(
            PlannedExecutor(session).run(x), reference, atol=_ATOL
        )
        np.testing.assert_allclose(
            PlannedExecutor(session, optimize=False).run(x), reference, atol=_ATOL
        )

    def test_zero_steady_state_allocs_survive_rewrites(self, split_net, images):
        edge, _ = split_net.split(None, input_size=32)
        executor = PlannedExecutor(edge.compile_for_inference())
        executor.run(images[:8])
        stats = executor.stats
        assert stats.steady_state_allocs == 0
        assert stats.fallback_ops == 0
        assert stats.arena_bytes > 0
        assert stats.arena_bytes < stats.requested_bytes

    def test_passes_fire_on_every_backbone(self, split_net, images):
        """Acceptance: ≥1 fused epilogue and ≥1 elided copy, VGG + residual."""
        executor = PlannedExecutor(split_net.compile_for_inference())
        executor.run(images[:4])
        stats = executor.stats
        assert stats.fused_steps >= 1
        assert stats.elided_copies + stats.aliased_views >= 1

    def test_describe_shows_fusion_and_elision(self, split_net, images):
        edge, _ = split_net.split(None, input_size=32)
        plan = ExecutionPlan(edge.compile_for_inference(), (4, 3, 32, 32))
        described = plan.describe()
        assert "fused epilogue" in described
        assert "+bias" in described or "+relu" in described or "+hard_swish" in described
        assert "elided" in described


class TestEdgeCases:
    """Residual joins, squeeze-excite, reshape aliasing, standalone acts."""

    def _check(self, module, x, **plan_kwargs):
        module.eval()
        session = module.compile_for_inference()
        reference = session.run(x)
        optimized = PlannedExecutor(session, **plan_kwargs)
        np.testing.assert_allclose(optimized.run(x), reference, atol=_ATOL)
        unoptimized = PlannedExecutor(session, optimize=False)
        np.testing.assert_allclose(unoptimized.run(x), reference, atol=_ATOL)
        return optimized

    def test_residual_join_fuses_into_epilogue(self, split_net, images):
        # The residual add must fold into the producing GEMM without
        # corrupting the skip buffer (its liveness spans the inner chain).
        if "mobilenet" not in type(split_net.backbone).__name__.lower():
            session = split_net.compile_for_inference()
            has_residual = any(
                isinstance(op, fuse.ResidualOp) for op in session._walk()
            )
            if not has_residual:
                pytest.skip("backbone has no residual blocks")
        executor = PlannedExecutor(split_net.compile_for_inference())
        _assert_outputs_match(
            executor.run(images[:8]),
            split_net.compile_for_inference().run(images[:8]),
        )

    def test_stacked_residuals_in_place_add_liveness(self, rng):
        # Regression: the in-place residual add takes over the inner
        # buffer's storage at bind time; the binder must extend that
        # block's liveness to the output's readers, or the arena frees
        # it mid-program and hands it to the next same-size value (the
        # following block's depthwise conv, which then zero-fills its
        # own live input).  Hit hardest with identity-expand blocks.
        from repro.models.blocks import InvertedResidualBlock
        from repro.models.specs import InvertedResidual

        module = nn.Sequential(
            InvertedResidualBlock(
                16, InvertedResidual(32, 16, 3, 1, False, "relu"), rng=rng
            ),
            InvertedResidualBlock(  # identity expand: inner starts depthwise
                16, InvertedResidual(16, 16, 3, 1, False, "relu"), rng=rng
            ),
        )
        x = rng.normal(size=(4, 16, 8, 8)).astype(np.float32)
        self._check(module, x)

    def test_squeeze_excite_mean_gemm(self, rng):
        # SE pooling runs as a GEMM after kernel selection; equivalence
        # must hold bit-tight on the gate path.
        from repro.models.blocks import SqueezeExciteBlock

        module = nn.Sequential(
            nn.Conv2d(8, 8, 1, rng=rng),
            SqueezeExciteBlock(8, reduced=2, rng=rng),
        )
        x = rng.normal(size=(5, 8, 6, 6)).astype(np.float32)
        self._check(module, x)

    def test_reshape_alias_chain(self, rng):
        # flatten -> linear: the view must stay a storage alias (no copy)
        # while the GEMM reads through the aliased shape.
        module = nn.Sequential(
            nn.Conv2d(3, 4, 3, padding=1, rng=rng),
            nn.Flatten(),
            nn.Linear(4 * 6 * 6, 5, rng=rng),
        )
        x = rng.normal(size=(4, 3, 6, 6)).astype(np.float32)
        executor = self._check(module, x)
        assert executor.stats.aliased_views >= 1

    def test_standalone_act_elides_copy(self, rng):
        # conv+relu fuses; the trailing ReLU6 lowers to a standalone
        # ActOp whose copy the optimizer elides (sole reader -> in place).
        module = nn.Sequential(
            nn.Conv2d(3, 6, 3, padding=1, rng=rng), nn.ReLU(), nn.ReLU6()
        )
        x = rng.normal(size=(4, 3, 8, 8)).astype(np.float32)
        executor = self._check(module, x)
        assert executor.stats.elided_copies >= 1

    def test_affine_after_fused_act_joins_epilogue(self, rng):
        # conv+relu followed by BN: fuse-level folding is blocked by the
        # activation, so the plan-level pass must fuse the affine into
        # the epilogue (bit-exact) instead.
        module = nn.Sequential(
            nn.Conv2d(3, 6, 3, padding=1, rng=rng),
            nn.ReLU(),
            nn.BatchNorm2d(6),
        )
        x = rng.normal(size=(4, 3, 8, 8)).astype(np.float32)
        executor = self._check(module, x)
        assert executor.stats.fused_steps >= 1

    def test_exact_affine_fold_into_bias(self, rng):
        # A pure-shift affine (scale of all ones) folds exactly into the
        # producer's bias stream — the "fold where exact" branch.
        conv = fuse.ConvOp(
            rng.normal(size=(4, 3, 1, 1)).astype(np.float32),
            rng.normal(size=4).astype(np.float32),
            stride=1, padding=0,
        )
        affine = fuse.AffineOp(
            np.ones(4, dtype=np.float32),
            rng.normal(size=4).astype(np.float32),
            view=(1, -1, 1, 1),
        )
        session = fuse.InferenceSession([conv, affine])
        x = rng.normal(size=(3, 3, 5, 5)).astype(np.float32)
        plan = ExecutionPlan(session, x.shape)
        np.testing.assert_allclose(plan.run(x), session.run(x), atol=_ATOL)
        assert plan.stats.folded_affines == 1

    def test_blocked_spmm_equivalence(self, split_net, images):
        # Force row blocking with a tiny L2 budget; outputs must be
        # bit-identical (blocking never changes per-row sums).
        edge, _ = split_net.split(None, input_size=32)
        session = edge.compile_for_inference()
        blocked = ExecutionPlan(session, (6, 3, 32, 32), l2_bytes=1 << 14)
        whole = ExecutionPlan(session, (6, 3, 32, 32))
        x = images[:6]
        np.testing.assert_array_equal(blocked.run(x).copy(), whole.run(x))
        if blocked.stats.sparse_ops:
            assert blocked.stats.blocked_spmm_ops >= 1
            assert blocked.stats.spmm_row_blocks > blocked.stats.blocked_spmm_ops

    def test_fallback_op_still_counts_allocs(self, rng):
        module = nn.Sequential(
            nn.Conv2d(3, 6, 3, padding=1, rng=rng),
            nn.GroupNorm(2, 6),  # no lowering rule: FallbackOp
            nn.ReLU(),
        )
        x = rng.normal(size=(4, 3, 8, 8)).astype(np.float32)
        executor = self._check(module, x)
        assert executor.stats.fallback_ops > 0
        assert executor.stats.steady_state_allocs > 0


class TestPlanCacheLRU:
    def test_lru_keeps_recently_used_shapes(self, split_net, images):
        edge, _ = split_net.split(None, input_size=32)
        executor = PlannedExecutor(edge.compile_for_inference(), max_plans=2)
        executor.run(images[:2])   # shape A
        executor.run(images[:3])   # shape B
        executor.run(images[:2])   # touch A -> B is now least recent
        executor.run(images[:4])   # shape C evicts B, not A
        shapes = {shape[0] for shape in executor._prepared}
        assert shapes == {2, 4}

    def test_max_plans_validated(self, split_net):
        with pytest.raises(ValueError, match="max_plans"):
            PlannedExecutor(split_net.compile_for_inference(), max_plans=0)

    def test_spec_threads_cache_limit_to_executors(self):
        import repro
        from repro.serve import DeploymentSpec

        spec = DeploymentSpec(
            model="vgg_tiny", tasks=(("scale", 8),), max_cached_plans=3
        )
        assert spec.to_dict()["max_cached_plans"] == 3
        assert DeploymentSpec.from_dict(spec.to_dict()) == spec
        with repro.deploy(spec) as deployment:
            assert deployment.pipeline.edge.session.max_plans == 3
            assert deployment.pipeline.server.session.max_plans == 3

    def test_spec_rejects_bad_cache_limit(self):
        from repro.serve import DeploymentSpec, SpecError

        with pytest.raises(SpecError, match="max_cached_plans"):
            DeploymentSpec(
                model="vgg_tiny", tasks=(("scale", 8),), max_cached_plans=0
            )

    def test_spec_optimize_false_binds_reference_plan(self, images):
        import repro
        from repro.serve import DeploymentSpec

        spec = DeploymentSpec(
            model="mobilenet_v3_tiny",
            tasks=(("scale", 8), ("shape", 4)),
            optimize=False,
        )
        with repro.deploy(spec) as deployment:
            deployment.infer(images[:4])
            stats = deployment.pipeline.edge.plan_stats
            assert stats.fused_steps == 0
            assert stats.elided_copies == 0


_PROPERTY_NET = None
_PROPERTY_IMAGES = None


def setup_module(module):
    global _PROPERTY_NET, _PROPERTY_IMAGES
    dataset = data.make_shapes3d(16, tasks=("scale", "shape"), seed=7)
    net = MTLSplitNet.from_tasks("mobilenet_v3_tiny", list(dataset.tasks), 32, seed=37)
    net.eval()
    _PROPERTY_NET = net
    _PROPERTY_IMAGES = dataset.images
