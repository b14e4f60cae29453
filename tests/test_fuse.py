"""Property tests for the fused inference compiler (repro.nn.fuse).

The compiler's contract: compiled outputs match the eval-mode ``Tensor``
forward within 1e-4, for every lowering rule — per-layer BN-fold
identities, activation fusion, the pooling/SE/residual composites, and
whole-net ``MTLSplitNet`` equivalence across split indices and wire
formats.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import nn
from repro.deployment import GIGABIT_ETHERNET, WireFormat
from repro.deployment.wire import decode_tensor, encode_tensor
from repro.serve import SplitPipeline
from repro.nn import fuse
from repro.nn.tensor import Tensor


def _eval_forward(module, x):
    module.eval()
    with nn.no_grad():
        out = module(Tensor(x))
    if isinstance(out, dict):
        return {k: v.data for k, v in out.items()}
    return out.data


def _randomise_bn(bn, rng):
    """Give batch-norm non-trivial folded parameters."""
    bn.weight.data[...] = rng.uniform(0.5, 1.5, bn.num_features)
    bn.bias.data[...] = rng.uniform(-0.5, 0.5, bn.num_features)
    bn._buffers["running_mean"][...] = rng.uniform(-1.0, 1.0, bn.num_features)
    bn._buffers["running_var"][...] = rng.uniform(0.2, 2.0, bn.num_features)


class TestBNFoldIdentities:
    @pytest.mark.parametrize("activation", ["relu", "relu6", "hard_swish", "silu", "gelu"])
    @pytest.mark.parametrize("stride,padding", [(1, 1), (2, 0)])
    def test_conv_bn_act_chain(self, rng, activation, stride, padding):
        conv = nn.Conv2d(4, 6, 3, stride=stride, padding=padding, bias=False, rng=rng)
        bn = nn.BatchNorm2d(6)
        _randomise_bn(bn, rng)
        chain = nn.Sequential(conv, bn, nn.resolve_activation(activation))
        x = rng.normal(size=(3, 4, 8, 8)).astype(np.float32)
        session = chain.compile_for_inference(sample_input=x, atol=1e-4)
        np.testing.assert_allclose(session.run(x), _eval_forward(chain, x), atol=1e-4)
        # BN and the activation must have been folded into the conv op.
        assert len(session.ops) == 1
        assert session.ops[0].describe() == f"conv2d(bn-folded)+{activation}"

    def test_conv_with_bias_bn_fold(self, rng):
        conv = nn.Conv2d(3, 5, 3, padding=1, bias=True, rng=rng)
        bn = nn.BatchNorm2d(5)
        _randomise_bn(bn, rng)
        chain = nn.Sequential(conv, bn)
        x = rng.normal(size=(2, 3, 6, 6)).astype(np.float32)
        np.testing.assert_allclose(
            chain.compile_for_inference().run(x), _eval_forward(chain, x), atol=1e-4
        )

    def test_depthwise_conv_bn_fold(self, rng):
        conv = nn.Conv2d(6, 6, 3, padding=1, groups=6, bias=False, rng=rng)
        bn = nn.BatchNorm2d(6)
        _randomise_bn(bn, rng)
        chain = nn.Sequential(conv, bn, nn.ReLU())
        x = rng.normal(size=(2, 6, 8, 8)).astype(np.float32)
        np.testing.assert_allclose(
            chain.compile_for_inference().run(x), _eval_forward(chain, x), atol=1e-4
        )

    def test_grouped_conv(self, rng):
        conv = nn.Conv2d(8, 4, 3, padding=1, groups=2, rng=rng)
        x = rng.normal(size=(2, 8, 6, 6)).astype(np.float32)
        np.testing.assert_allclose(
            conv.compile_for_inference().run(x), _eval_forward(conv, x), atol=1e-4
        )

    def test_linear_bn1d_fold(self, rng):
        linear = nn.Linear(10, 7, rng=rng)
        bn = nn.BatchNorm1d(7)
        _randomise_bn(bn, rng)
        chain = nn.Sequential(linear, bn, nn.ReLU())
        x = rng.normal(size=(5, 10)).astype(np.float32)
        session = chain.compile_for_inference(sample_input=x)
        np.testing.assert_allclose(session.run(x), _eval_forward(chain, x), atol=1e-4)
        assert len(session.ops) == 1
        assert session.ops[0].describe() == "linear(bn-folded)+relu"

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        eps=st.sampled_from([1e-5, 1e-3]),
        bias=st.booleans(),
    )
    def test_fold_identity_property(self, seed, eps, bias):
        """Folding BN into a conv is exact for arbitrary BN statistics."""
        rng = np.random.default_rng(seed)
        conv = nn.Conv2d(3, 4, 3, padding=1, bias=bias, rng=rng)
        bn = nn.BatchNorm2d(4, eps=eps)
        _randomise_bn(bn, rng)
        chain = nn.Sequential(conv, bn)
        x = rng.normal(size=(2, 3, 5, 5)).astype(np.float32)
        np.testing.assert_allclose(
            chain.compile_for_inference().run(x), _eval_forward(chain, x), atol=1e-4
        )


class TestLoweringCoverage:
    def test_standalone_bn_runs_as_affine(self, rng):
        bn = nn.BatchNorm2d(3)
        _randomise_bn(bn, rng)
        x = rng.normal(size=(2, 3, 4, 4)).astype(np.float32)
        session = bn.compile_for_inference()
        assert isinstance(session.ops[0], fuse.AffineOp)
        np.testing.assert_allclose(session.run(x), _eval_forward(bn, x), atol=1e-5)

    @pytest.mark.parametrize(
        "module,shape",
        [
            (nn.MaxPool2d(2), (2, 3, 8, 8)),
            (nn.MaxPool2d(3, 2), (2, 3, 9, 9)),
            (nn.AvgPool2d(2), (2, 3, 8, 8)),
            (nn.AvgPool2d(3, 2), (2, 3, 9, 9)),
            (nn.AdaptiveAvgPool2d(1), (2, 3, 8, 8)),
            (nn.AdaptiveAvgPool2d(2), (2, 3, 8, 8)),
            (nn.Flatten(), (2, 3, 4, 4)),
            (nn.Sequential(nn.Identity(), nn.ReLU()), (2, 5)),
            (nn.LeakyReLU(0.1), (2, 5)),
            (nn.Sigmoid(), (2, 5)),
            (nn.Tanh(), (2, 5)),
            (nn.HardSigmoid(), (2, 5)),
        ],
    )
    def test_layer_equivalence(self, rng, module, shape):
        x = rng.normal(size=shape).astype(np.float32)
        np.testing.assert_allclose(
            module.compile_for_inference().run(x), _eval_forward(module, x), atol=1e-5
        )

    def test_dropout_inert_in_compiled_eval(self, rng):
        chain = nn.Sequential(nn.Linear(6, 6, rng=rng), nn.Dropout(0.5, rng=rng))
        x = rng.normal(size=(4, 6)).astype(np.float32)
        np.testing.assert_allclose(
            chain.compile_for_inference().run(x), _eval_forward(chain, x), atol=1e-5
        )

    def test_unknown_module_falls_back(self, rng):
        norm = nn.GroupNorm(2, 6)
        x = rng.normal(size=(2, 6, 4, 4)).astype(np.float32)
        session = norm.compile_for_inference()
        assert "fallback:GroupNorm" in session.describe()
        np.testing.assert_allclose(session.run(x), _eval_forward(norm, x), atol=1e-5)

    def test_activation_does_not_mutate_input(self, rng):
        relu = nn.ReLU()
        x = rng.normal(size=(3, 4)).astype(np.float32)
        x_copy = x.copy()
        relu.compile_for_inference().run(x)
        np.testing.assert_array_equal(x, x_copy)

    def test_session_snapshots_weights(self, rng):
        linear = nn.Linear(4, 3, rng=rng)
        x = rng.normal(size=(2, 4)).astype(np.float32)
        session = linear.compile_for_inference()
        before = session.run(x).copy()
        linear.weight.data[...] += 1.0
        np.testing.assert_array_equal(session.run(x), before)

    def test_session_snapshots_conv_weights(self, rng):
        # Regression: ConvOp must copy (not alias) the parameter array, so
        # in-place optimiser updates cannot leak into a compiled session.
        conv = nn.Conv2d(4, 4, 3, padding=1, groups=4, bias=False, rng=rng)
        x = rng.normal(size=(2, 4, 6, 6)).astype(np.float32)
        session = conv.compile_for_inference()
        before = session.run(x).copy()
        conv.weight.data[...] -= 0.5
        np.testing.assert_array_equal(session.run(x), before)

    def test_squeeze_excite_exotic_activation_falls_back(self, rng):
        from repro.models.blocks import SqueezeExciteBlock

        block = SqueezeExciteBlock(8, 4, bottleneck_act="leaky_relu", rng=rng)
        x = rng.normal(size=(2, 8, 4, 4)).astype(np.float32)
        session = block.compile_for_inference()
        assert "fallback:SqueezeExciteBlock" in session.describe()
        np.testing.assert_allclose(session.run(x), _eval_forward(block, x), atol=1e-5)

    def test_verify_session_raises_on_divergence(self, rng):
        linear = nn.Linear(4, 3, rng=rng)
        session = linear.compile_for_inference()
        session.ops[0].bias += 1.0  # corrupt the compiled parameters
        with pytest.raises(AssertionError):
            fuse.verify_session(linear, session, rng.normal(size=(2, 4)))


class TestWholeNetEquivalence:
    def test_compiled_net_matches_eval(self, tiny_trained_net, shapes3d_small):
        tiny_trained_net.eval()
        x = shapes3d_small.images[:8]
        reference = _eval_forward(tiny_trained_net, x)
        session = tiny_trained_net.compile_for_inference(sample_input=x, atol=1e-4)
        outputs = session.run(x)
        assert set(outputs) == set(tiny_trained_net.task_names)
        for name in tiny_trained_net.task_names:
            np.testing.assert_allclose(outputs[name], reference[name], atol=1e-4)

    @pytest.mark.parametrize("split_index", [2, None])
    def test_split_halves_compile_consistently(
        self, tiny_trained_net, shapes3d_small, split_index
    ):
        tiny_trained_net.eval()
        x = shapes3d_small.images[:6]
        reference = _eval_forward(tiny_trained_net, x)
        edge, server = tiny_trained_net.split(split_index, input_size=32)
        z = edge.compile_for_inference(sample_input=x, atol=1e-4).run(x)
        outputs = server.compile_for_inference(sample_input=z, atol=1e-4).run(z)
        for name in tiny_trained_net.task_names:
            np.testing.assert_allclose(outputs[name], reference[name], atol=1e-4)

    @pytest.mark.parametrize("wire", ["float32", "float16", "quant8"])
    @pytest.mark.parametrize("split_index", [3, None])
    def test_compiled_pipeline_matches_uncompiled(
        self, tiny_trained_net, shapes3d_small, wire, split_index
    ):
        """The served pipeline agrees, for every wire format, with the
        eval-mode halves joined by the same codec."""
        tiny_trained_net.eval()
        x = shapes3d_small.images[:6]
        fmt = WireFormat(wire)
        pipeline = SplitPipeline.from_net(
            tiny_trained_net, GIGABIT_ETHERNET, split_index=split_index,
            input_size=32, wire_format=fmt,
        )
        edge, server = tiny_trained_net.split(split_index, input_size=32)
        z_b = decode_tensor(encode_tensor(_eval_forward(edge, x), fmt))
        reference = _eval_forward(server, z_b)
        with pipeline:
            outputs = pipeline.infer(x)
        for name in tiny_trained_net.task_names:
            np.testing.assert_allclose(outputs[name], reference[name], atol=1e-4)

    def test_describe_reports_folded_ops(self, tiny_trained_net):
        session = tiny_trained_net.compile_for_inference()
        text = session.describe()
        assert "conv2d(bn-folded)" in text
        assert "[scale]" in text and "[shape]" in text
        # No standalone batch-norm survives fusion in this architecture.
        assert "affine" not in text
