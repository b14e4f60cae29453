"""Eval-mode inference compiler: BN folding, activation fusion, flat op lists.

Training needs the autograd graph; deployment does not.  The edge half of
the split pipeline spends its time in eval-mode forward passes, yet each
pass still built backward closures, wrapped every intermediate in a
:class:`~repro.nn.tensor.Tensor`, and re-normalised with batch-norm
statistics that are constants at inference time.  This module removes all
of that: :func:`compile_module` lowers a module tree into a flat list of
numpy-only ops, folds eval-mode batch normalisation into the preceding
convolution / linear weights, fuses elementwise activations into their
producer (applied in place on freshly allocated outputs), and executes
convolutions through :func:`repro.nn.functional.cached_einsum` contraction
plans.

The result is an :class:`InferenceSession` whose outputs match the
eval-mode ``Tensor`` forward within ``1e-4`` — the guarantee the property
tests assert — while skipping every graph-construction cost.

Module types without a registered lowering rule degrade gracefully to a
:class:`FallbackOp` that round-trips through the normal ``no_grad``
forward, so compilation never changes behaviour, only speed.
"""

from __future__ import annotations

import math
import time as _time
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Type, Union

import numpy as np

from . import activations as A
from . import layers as L
from .functional import _pair, cached_einsum, conv_output_size
from .module import Identity, Module, Sequential
from .tensor import Tensor, no_grad

__all__ = [
    "InferenceSession",
    "compile_module",
    "compile_ops",
    "lower_module",
    "optimise_ops",
    "register_lowerer",
    "register_chain",
    "verify_session",
    "ConvOp",
    "LinearOp",
    "AffineOp",
    "ActOp",
    "ResidualOp",
    "SqueezeExciteOp",
    "FallbackOp",
]


# ---------------------------------------------------------------------------
# In-place activation kernels (operate on arrays the producing op owns)
# ---------------------------------------------------------------------------
def _relu_(y: np.ndarray) -> np.ndarray:
    return np.maximum(y, 0.0, out=y)


def _relu6_(y: np.ndarray) -> np.ndarray:
    return np.clip(y, 0.0, 6.0, out=y)


def _sigmoid_(y: np.ndarray) -> np.ndarray:
    np.clip(y, -60.0, 60.0, out=y)  # exp stays finite in float32
    np.negative(y, out=y)
    np.exp(y, out=y)
    y += 1.0
    return np.reciprocal(y, out=y)


def _hard_sigmoid_(y: np.ndarray) -> np.ndarray:
    y += 3.0
    np.clip(y, 0.0, 6.0, out=y)
    y *= 1.0 / 6.0
    return y


def _silu_(y: np.ndarray) -> np.ndarray:
    y *= _sigmoid_(y.copy())
    return y


def _hard_swish_(y: np.ndarray) -> np.ndarray:
    gate = y + 3.0
    np.clip(gate, 0.0, 6.0, out=gate)
    gate *= 1.0 / 6.0
    y *= gate
    return y


def _tanh_(y: np.ndarray) -> np.ndarray:
    return np.tanh(y, out=y)


def _gelu_(y: np.ndarray) -> np.ndarray:
    inner = y * y * y
    inner *= 0.044715
    inner += y
    inner *= math.sqrt(2.0 / math.pi)
    np.tanh(inner, out=inner)
    inner += 1.0
    inner *= 0.5
    y *= inner
    return y


def _leaky_relu_kernel(negative_slope: float) -> Callable[[np.ndarray], np.ndarray]:
    negative_slope = float(negative_slope)

    def kernel(y: np.ndarray) -> np.ndarray:
        np.multiply(y, negative_slope, out=y, where=y < 0)
        return y

    # The planning engine re-expresses the kernel allocation-free and
    # needs the slope back; expose it rather than forcing closure digs.
    kernel.negative_slope = negative_slope
    return kernel


_ACT_KERNELS: Dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "relu": _relu_,
    "relu6": _relu6_,
    "sigmoid": _sigmoid_,
    "hard_sigmoid": _hard_sigmoid_,
    "silu": _silu_,
    "hard_swish": _hard_swish_,
    "tanh": _tanh_,
    "gelu": _gelu_,
}


# ---------------------------------------------------------------------------
# Ops — each is a callable ndarray -> ndarray owning its parameters
# ---------------------------------------------------------------------------
class _Op:
    """Base inference op.  ``act`` (when set) runs in place on the output."""

    name = "op"
    fusable = False  # can absorb a trailing AffineOp / ActOp

    def __init__(self):
        self.act: Optional[Callable[[np.ndarray], np.ndarray]] = None
        self.act_name: Optional[str] = None

    def fold_affine(self, scale: np.ndarray, shift: np.ndarray) -> bool:
        return False

    def fuse_activation(self, name: str, kernel: Callable[[np.ndarray], np.ndarray]) -> bool:
        if not self.fusable or self.act is not None:
            return False
        self.act = kernel
        self.act_name = name
        return True

    def __call__(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def describe(self) -> str:
        label = self.name
        if self.act_name:
            label += f"+{self.act_name}"
        return label


class ConvOp(_Op):
    """Fused 2-D convolution (grouped/depthwise included) on raw arrays.

    Execution is shape-specialised at call time:

    * pointwise (1x1, unpadded, ungrouped) → one broadcast GEMM;
    * depthwise (groups == channels)       → kernel-offset accumulation
      over strided views (kh*kw fused elementwise passes, no im2col);
    * general ungrouped                    → im2col + GEMM;
    * anything else                        → grouped einsum with a cached
      contraction plan.
    """

    name = "conv2d"
    fusable = True

    def __init__(self, weight, bias, stride, padding, groups: int = 1):
        super().__init__()
        self.sh, self.sw = _pair(stride)
        self.ph, self.pw = _pair(padding)
        self.groups = int(groups)
        # Snapshot (not alias) the weights: optimisers update parameters in
        # place, and the session must keep serving the compiled state.
        self.weight = np.array(weight, dtype=np.float32, order="C", copy=True)
        self.c_out, self.c_in_g, self.kh, self.kw = self.weight.shape
        self.bias = (
            np.asarray(bias, dtype=np.float32).reshape(1, -1, 1, 1).copy()
            if bias is not None
            else None
        )
        self._flat_wt: Optional[np.ndarray] = None
        self._w_g: Optional[np.ndarray] = None
        self._kernel_choice: Dict[Tuple[int, ...], Callable] = {}
        self._im2col_idx: Dict[Tuple[int, ...], Optional[np.ndarray]] = {}
        self._dw_offsets: Dict[Tuple[int, ...], list] = {}

    def fold_affine(self, scale: np.ndarray, shift: np.ndarray) -> bool:
        if self.act is not None:
            return False
        scale = scale.reshape(-1).astype(np.float32)
        shift = shift.reshape(-1).astype(np.float32)
        self.weight = np.ascontiguousarray(self.weight * scale.reshape(-1, 1, 1, 1))
        folded = shift if self.bias is None else self.bias.reshape(-1) * scale + shift
        self.bias = folded.reshape(1, -1, 1, 1).copy()
        self._flat_wt = None
        self._w_g = None
        self._dw_offsets.clear()  # holds snapshots of the pre-fold weights
        self.name = "conv2d(bn-folded)"
        return True

    # -- cached weight layouts -----------------------------------------
    def _flat_weight_t(self) -> np.ndarray:
        # (c_in*kh*kw, c_out) for the GEMM paths.
        if self._flat_wt is None:
            self._flat_wt = np.ascontiguousarray(
                self.weight.reshape(self.c_out, -1).T
            )
        return self._flat_wt

    def _grouped_weight(self) -> np.ndarray:
        if self._w_g is None:
            g = self.groups
            self._w_g = np.ascontiguousarray(
                self.weight.reshape(g, self.c_out // g, -1, self.kh, self.kw)
            )
        return self._w_g

    # -- execution ------------------------------------------------------
    def __call__(self, x: np.ndarray) -> np.ndarray:
        n, c_in, h, w = x.shape
        ho = conv_output_size(h, self.kh, self.sh, self.ph)
        wo = conv_output_size(w, self.kw, self.sw, self.pw)
        if self.kh == 1 and self.kw == 1 and self.groups == 1 and not (self.ph or self.pw):
            out = self._pointwise(x, n, c_in, ho, wo)
        else:
            x_pad = (
                np.pad(x, ((0, 0), (0, 0), (self.ph, self.ph), (self.pw, self.pw)))
                if (self.ph or self.pw)
                else x
            )
            if self.groups == c_in and self.c_in_g == 1 and self.c_out == self.groups:
                out = self._tuned(
                    x_pad, n, c_in, ho, wo,
                    self._depthwise_offsets, self._depthwise_einsum,
                )
            elif self.groups == 1:
                out = self._tuned(x_pad, n, c_in, ho, wo, self._im2col, self._grouped)
            else:
                out = self._grouped(x_pad, n, c_in, ho, wo)
        if self.bias is not None:
            out += self.bias
        if self.act is not None:
            out = self.act(out)
        return out

    def _pointwise(self, x, n, c_in, ho, wo):
        if self.sh > 1 or self.sw > 1:
            x = np.ascontiguousarray(x[:, :, :: self.sh, :: self.sw])
        y = self._flat_weight_t().T @ x.reshape(n, c_in, ho * wo)
        return y.reshape(n, self.c_out, ho, wo)

    # -- cached gather/offset indices (keyed by padded input shape) ----
    def _depthwise_offset_table(self, pad_shape, ho, wo):
        """Per-geometry list of (channel weight column, h-slice, w-slice).

        The kernel-offset loop re-derived its strided slices and weight
        views on every call; the table is built once per input geometry
        (batch-independent, so ragged final batches share it).
        """
        key = pad_shape[1:]
        table = self._dw_offsets.get(key)
        if table is None:
            w_chan = self.weight.reshape(self.c_out, self.kh, self.kw)
            eh = (ho - 1) * self.sh + 1
            ew = (wo - 1) * self.sw + 1
            table = [
                (
                    np.ascontiguousarray(w_chan[None, :, i, j, None, None]),
                    slice(i, i + eh, self.sh),
                    slice(j, j + ew, self.sw),
                )
                for i in range(self.kh)
                for j in range(self.kw)
            ]
            self._dw_offsets[key] = table
        return table

    # Above this size a gather-index table would cost more memory than it
    # saves time; the sliding-window path handles those shapes instead.
    _IM2COL_IDX_MAX_ELEMS = 2_000_000

    def _im2col_index(self, pad_shape, ho, wo) -> Optional[np.ndarray]:
        """Flat gather indices (ho*wo, c_in*kh*kw) into the padded input.

        Cached per input geometry (batch-independent): one fancy-index
        gather then replaces the strided window materialisation on every
        subsequent call.
        """
        key = pad_shape[1:]
        if key in self._im2col_idx:
            return self._im2col_idx[key]
        c_in, hp, wp = key
        nelems = ho * wo * c_in * self.kh * self.kw
        if nelems > self._IM2COL_IDX_MAX_ELEMS:
            self._im2col_idx[key] = None
            return None
        oi = (np.arange(ho) * self.sh).reshape(-1, 1, 1, 1, 1)
        oj = (np.arange(wo) * self.sw).reshape(1, -1, 1, 1, 1)
        ci = np.arange(c_in).reshape(1, 1, -1, 1, 1)
        ki = np.arange(self.kh).reshape(1, 1, 1, -1, 1)
        kj = np.arange(self.kw).reshape(1, 1, 1, 1, -1)
        idx = ((ci * hp + oi + ki) * wp + oj + kj).reshape(
            ho * wo, c_in * self.kh * self.kw
        )
        idx = np.ascontiguousarray(idx, dtype=np.intp)
        self._im2col_idx[key] = idx
        return idx

    def _depthwise_offsets(self, x_pad, n, c_in, ho, wo):
        out = np.zeros((n, self.c_out, ho, wo), dtype=np.float32)
        for w_col, h_slice, w_slice in self._depthwise_offset_table(
            x_pad.shape, ho, wo
        ):
            out += x_pad[:, :, h_slice, w_slice] * w_col
        return out

    def _depthwise_einsum(self, x_pad, n, c_in, ho, wo):
        windows = np.lib.stride_tricks.sliding_window_view(
            x_pad, (self.kh, self.kw), axis=(-2, -1)
        )[:, :, :: self.sh, :: self.sw, :, :]
        w_chan = self.weight.reshape(self.c_out, self.kh, self.kw)
        return cached_einsum("nchwij,cij->nchw", windows, w_chan)

    def _tuned(self, x_pad, n, c_in, ho, wo, first, second):
        """Auto-tune between two equivalent kernels for this input shape.

        Which path wins depends on the channel/spatial mix (GEMM-style
        kernels pay layout copies, strided kernels pay per-offset numpy
        dispatch), so the first call per shape times both and the winner
        is cached.
        """
        choice = self._kernel_choice.get(x_pad.shape)
        if choice is None:
            # Warm both once so one-time setup (weight layout copies,
            # einsum contraction plans) does not bias the timed race.
            first(x_pad, n, c_in, ho, wo)
            second(x_pad, n, c_in, ho, wo)
            t0 = _time.perf_counter()
            out = first(x_pad, n, c_in, ho, wo)
            t1 = _time.perf_counter()
            second(x_pad, n, c_in, ho, wo)
            t2 = _time.perf_counter()
            self._kernel_choice[x_pad.shape] = first if (t1 - t0) <= (t2 - t1) else second
            return out
        return choice(x_pad, n, c_in, ho, wo)

    def _im2col(self, x_pad, n, c_in, ho, wo):
        idx = self._im2col_index(x_pad.shape, ho, wo)
        if idx is not None:
            cols = x_pad.reshape(n, -1)[:, idx].reshape(
                n * ho * wo, c_in * self.kh * self.kw
            )
        else:  # shape too large for an index table: strided window copy
            windows = np.lib.stride_tricks.sliding_window_view(
                x_pad, (self.kh, self.kw), axis=(-2, -1)
            )[:, :, :: self.sh, :: self.sw, :, :]
            cols = np.ascontiguousarray(windows.transpose(0, 2, 3, 1, 4, 5)).reshape(
                n * ho * wo, c_in * self.kh * self.kw
            )
        y = cols @ self._flat_weight_t()
        return np.ascontiguousarray(
            y.reshape(n, ho, wo, self.c_out).transpose(0, 3, 1, 2)
        )

    def _grouped(self, x_pad, n, c_in, ho, wo):
        g = self.groups
        windows = np.lib.stride_tricks.sliding_window_view(
            x_pad, (self.kh, self.kw), axis=(-2, -1)
        )[:, :, :: self.sh, :: self.sw, :, :]
        win_g = windows.reshape(n, g, c_in // g, ho, wo, self.kh, self.kw)
        out = cached_einsum("ngchwij,gocij->ngohw", win_g, self._grouped_weight())
        return out.reshape(n, self.c_out, ho, wo)


class LinearOp(_Op):
    """Fused affine map ``x @ W.T + b``."""

    name = "linear"
    fusable = True

    def __init__(self, weight, bias):
        super().__init__()
        # Store the transpose contiguously so the GEMM needs no copy.
        self.wt = np.ascontiguousarray(np.asarray(weight, dtype=np.float32).T)
        self.bias = np.asarray(bias, dtype=np.float32).copy() if bias is not None else None

    def fold_affine(self, scale: np.ndarray, shift: np.ndarray) -> bool:
        if self.act is not None:
            return False
        scale = scale.reshape(-1).astype(np.float32)
        shift = shift.reshape(-1).astype(np.float32)
        self.wt = np.ascontiguousarray(self.wt * scale)
        self.bias = shift if self.bias is None else self.bias * scale + shift
        self.name = "linear(bn-folded)"
        return True

    def __call__(self, x: np.ndarray) -> np.ndarray:
        out = x @ self.wt
        if self.bias is not None:
            out += self.bias
        if self.act is not None:
            out = self.act(out)
        return out


class AffineOp(_Op):
    """Per-channel ``x * scale + shift`` — eval-mode batch norm.

    Usually folded into the preceding conv/linear by :func:`optimise_ops`;
    runs standalone when no foldable producer precedes it.
    """

    name = "affine"
    fusable = True

    def __init__(self, scale: np.ndarray, shift: np.ndarray, view: Tuple[int, ...]):
        super().__init__()
        self.scale = np.array(scale, dtype=np.float32, copy=True).reshape(view)
        self.shift = np.array(shift, dtype=np.float32, copy=True).reshape(view)

    @classmethod
    def from_batch_norm(cls, bn: "L._BatchNorm") -> "AffineOp":
        inv = 1.0 / np.sqrt(bn._buffers["running_var"] + bn.eps)
        scale = bn.weight.data * inv
        shift = bn.bias.data - bn._buffers["running_mean"] * scale
        view = (1, -1, 1, 1) if isinstance(bn, L.BatchNorm2d) else (1, -1)
        return cls(scale, shift, view)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        out = x * self.scale
        out += self.shift
        if self.act is not None:
            out = self.act(out)
        return out


class ActOp(_Op):
    """Standalone elementwise activation (copies; the input may be shared)."""

    def __init__(self, act_name: str, kernel: Callable[[np.ndarray], np.ndarray]):
        super().__init__()
        self.name = act_name
        self.kernel = kernel

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.kernel(x.copy())


class MaxPoolOp(_Op):
    name = "max_pool2d"
    fusable = True

    def __init__(self, kernel_size, stride=None):
        super().__init__()
        self.kh, self.kw = _pair(kernel_size)
        self.sh, self.sw = _pair(stride) if stride is not None else (self.kh, self.kw)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        h, w = x.shape[-2:]
        kh, kw, sh, sw = self.kh, self.kw, self.sh, self.sw
        # Running elementwise maximum over the kh*kw kernel offsets: far
        # faster than any windowed reduction (numpy reduces strided
        # window views an order of magnitude slower than fused maximum).
        ho = conv_output_size(h, kh, sh, 0)
        wo = conv_output_size(w, kw, sw, 0)
        eh = (ho - 1) * sh + 1
        ew = (wo - 1) * sw + 1
        out = x[:, :, 0:eh:sh, 0:ew:sw].copy()
        for i in range(kh):
            for j in range(kw):
                if i == 0 and j == 0:
                    continue
                np.maximum(out, x[:, :, i : i + eh : sh, j : j + ew : sw], out=out)
        if self.act is not None:
            out = self.act(out)
        return out


class AvgPoolOp(_Op):
    name = "avg_pool2d"
    fusable = True

    def __init__(self, kernel_size=None, stride=None, adaptive_output=None):
        super().__init__()
        self.adaptive_output = _pair(adaptive_output) if adaptive_output is not None else None
        if kernel_size is not None:
            self.kh, self.kw = _pair(kernel_size)
            self.sh, self.sw = _pair(stride) if stride is not None else (self.kh, self.kw)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        if self.adaptive_output is not None:
            oh, ow = self.adaptive_output
            h, w = x.shape[-2:]
            if (oh, ow) == (1, 1):
                out = x.mean(axis=(2, 3), keepdims=True)
                return self.act(out) if self.act is not None else out
            if h % oh or w % ow:
                raise ValueError(
                    f"adaptive_avg_pool2d needs divisible sizes, got {(h, w)} -> {(oh, ow)}"
                )
            kh, kw = h // oh, w // ow
            sh, sw = kh, kw
        else:
            kh, kw, sh, sw = self.kh, self.kw, self.sh, self.sw
        h, w = x.shape[-2:]
        ho = conv_output_size(h, kh, sh, 0)
        wo = conv_output_size(w, kw, sw, 0)
        eh = (ho - 1) * sh + 1
        ew = (wo - 1) * sw + 1
        out = x[:, :, 0:eh:sh, 0:ew:sw].astype(np.float32)
        for i in range(kh):
            for j in range(kw):
                if i == 0 and j == 0:
                    continue
                out += x[:, :, i : i + eh : sh, j : j + ew : sw]
        out *= 1.0 / (kh * kw)
        if self.act is not None:
            out = self.act(out)
        return out


class GlobalAvgPoolOp(_Op):
    name = "global_avg_pool2d"
    fusable = True

    def __call__(self, x: np.ndarray) -> np.ndarray:
        out = x.mean(axis=(2, 3), keepdims=True, dtype=np.float32)
        if self.act is not None:
            out = self.act(out)
        return out


class FlattenOp(_Op):
    name = "flatten"

    def __init__(self, start_dim: int = 1):
        super().__init__()
        self.start_dim = start_dim

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return x.reshape(x.shape[: self.start_dim] + (-1,))


class ReshapeOp(_Op):
    """Restore a trailing feature shape (undoes the wire flattening)."""

    name = "reshape"

    def __init__(self, feature_shape: Tuple[int, ...]):
        super().__init__()
        self.feature_shape = tuple(feature_shape)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return x.reshape((x.shape[0],) + self.feature_shape)


class ResidualOp(_Op):
    """Skip connection: run the inner program, add the input back."""

    name = "residual"

    def __init__(self, inner: Sequence[_Op]):
        super().__init__()
        self.inner = list(inner)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        out = x
        for op in self.inner:
            out = op(out)
        # In-place accumulate only into storage this op's program owns.
        if out is x or out.base is not None:
            return out + x
        out += x
        return out

    def describe(self) -> str:
        return "residual[" + " -> ".join(op.describe() for op in self.inner) + "]"


class SqueezeExciteOp(_Op):
    """Squeeze-and-excite gating collapsed to two small GEMMs.

    The 1x1 convolutions of the SE block operate on a (N, C, 1, 1) tensor,
    so they are plain matrix products on the pooled channel vector.
    """

    name = "squeeze_excite"

    def __init__(self, reduce_w, reduce_b, expand_w, expand_b, bottleneck: str, gate: str):
        super().__init__()
        self.reduce_wt = np.ascontiguousarray(
            np.asarray(reduce_w, dtype=np.float32).reshape(reduce_w.shape[0], -1).T
        )
        self.reduce_b = np.asarray(reduce_b, dtype=np.float32).copy()
        self.expand_wt = np.ascontiguousarray(
            np.asarray(expand_w, dtype=np.float32).reshape(expand_w.shape[0], -1).T
        )
        self.expand_b = np.asarray(expand_b, dtype=np.float32).copy()
        self.bottleneck_name = bottleneck
        self.gate_name = gate
        self.bottleneck = _ACT_KERNELS[bottleneck]
        self.gate = _ACT_KERNELS[gate]

    def __call__(self, x: np.ndarray) -> np.ndarray:
        pooled = x.mean(axis=(2, 3), dtype=np.float32)
        hidden = pooled @ self.reduce_wt
        hidden += self.reduce_b
        hidden = self.bottleneck(hidden)
        gate = hidden @ self.expand_wt
        gate += self.expand_b
        gate = self.gate(gate)
        return x * gate[:, :, None, None]

    def describe(self) -> str:
        return f"squeeze_excite({self.bottleneck_name}/{self.gate_name})"


class FallbackOp(_Op):
    """Safety net: run an uncompilable module through its normal forward."""

    def __init__(self, module: Module):
        super().__init__()
        self.module = module
        self.name = f"fallback:{type(module).__name__}"

    def __call__(self, x: np.ndarray):
        with no_grad():
            out = self.module(Tensor(x))
        if isinstance(out, dict):
            return {name: value.data for name, value in out.items()}
        return out.data


# ---------------------------------------------------------------------------
# Lowering registry
# ---------------------------------------------------------------------------
_Lowered = Union[List[_Op], "InferenceSession"]
_LOWERERS: Dict[Type[Module], Callable[[Module], _Lowered]] = {}


def register_lowerer(cls: Type[Module]):
    """Class decorator registering a lowering rule for ``cls``.

    The rule receives the module and returns either a list of ops or a
    complete :class:`InferenceSession` (for multi-output architectures).
    """

    def decorate(fn: Callable[[Module], _Lowered]):
        _LOWERERS[cls] = fn
        return fn

    return decorate


def register_chain(cls: Type[Module], children: Callable[[Module], Sequence[Module]]) -> None:
    """Register ``cls`` as a straight chain of the modules ``children`` yields."""

    def lower(module: Module) -> List[_Op]:
        ops: List[_Op] = []
        for child in children(module):
            ops.extend(lower_module(child))
        return ops

    _LOWERERS[cls] = lower


def lower_module(module: Module) -> List[_Op]:
    """Lower one module to raw (un-optimised) ops; unknown types fall back."""
    for klass in type(module).__mro__:
        fn = _LOWERERS.get(klass)
        if fn is not None:
            lowered = fn(module)
            if isinstance(lowered, InferenceSession):
                raise TypeError(
                    f"{type(module).__name__} compiles to a full session and "
                    "cannot be embedded inside another program"
                )
            return lowered
    return [FallbackOp(module)]


def optimise_ops(ops: Sequence[_Op]) -> List[_Op]:
    """Peephole pass: fold affine (BN) into producers, fuse activations."""
    out: List[_Op] = []
    for op in ops:
        if isinstance(op, AffineOp) and op.act is None and out:
            if out[-1].fold_affine(op.scale, op.shift):
                continue
        if isinstance(op, ActOp) and out:
            if out[-1].fuse_activation(op.name, op.kernel):
                continue
        out.append(op)
    return out


def compile_ops(module: Module) -> List[_Op]:
    """Lower ``module`` and run the fusion pass; always returns an op list."""
    return optimise_ops(lower_module(module))


def compile_module(module: Module) -> "InferenceSession":
    """Compile any module into an :class:`InferenceSession`.

    Architectures with a registered session builder (e.g. multi-head nets)
    return their dedicated session; everything else becomes a single
    flat program.
    """
    for klass in type(module).__mro__:
        fn = _LOWERERS.get(klass)
        if fn is not None:
            lowered = fn(module)
            if isinstance(lowered, InferenceSession):
                return lowered
            return InferenceSession(optimise_ops(lowered))
    return InferenceSession([FallbackOp(module)])


# ---------------------------------------------------------------------------
# The session
# ---------------------------------------------------------------------------
class InferenceSession:
    """A compiled, autograd-free forward pass.

    ``ops`` is the trunk program; ``heads`` (optional) maps output names to
    branch programs run on the trunk output, giving the multi-task
    ``{name: logits}`` dictionary the uncompiled nets return.
    """

    def __init__(
        self,
        ops: Sequence[_Op],
        heads: Optional[Dict[str, Sequence[_Op]]] = None,
    ):
        self.ops = list(ops)
        self.heads = {name: list(prog) for name, prog in heads.items()} if heads else None

    # -- execution ------------------------------------------------------
    def run(self, x: np.ndarray):
        x = np.ascontiguousarray(np.asarray(x, dtype=np.float32))
        for op in self.ops:
            x = op(x)
        if self.heads is None:
            return x
        outputs = {}
        for name, program in self.heads.items():
            y = x
            for op in program:
                y = op(y)
            outputs[name] = y
        return outputs

    __call__ = run

    # -- lifecycle ------------------------------------------------------
    def close(self) -> None:
        """Release execution resources.

        A plain session owns nothing beyond its op list (cached buffers
        are reclaimed by the garbage collector), so this is a no-op; it
        exists so callers can close any session-shaped executor —
        including :class:`~repro.nn.engine.PlannedExecutor`, whose
        ``close`` stops worker threads — without type-switching.
        """

    def __enter__(self) -> "InferenceSession":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    def _walk(self):
        programs = [self.ops] + (list(self.heads.values()) if self.heads else [])
        stack = [op for program in programs for op in program]
        while stack:
            op = stack.pop()
            yield op
            if isinstance(op, ResidualOp):
                stack.extend(op.inner)

    # -- introspection --------------------------------------------------
    @property
    def num_ops(self) -> int:
        return sum(1 for _ in self._walk())

    def describe(self) -> str:
        lines = [op.describe() for op in self.ops]
        if self.heads:
            for name, program in self.heads.items():
                chain = " -> ".join(op.describe() for op in program) or "identity"
                lines.append(f"[{name}] {chain}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        heads = f", heads={list(self.heads)}" if self.heads else ""
        return f"InferenceSession(ops={len(self.ops)}{heads})"


def verify_session(
    module: Module,
    session: InferenceSession,
    sample_input: np.ndarray,
    atol: float = 1e-4,
) -> None:
    """Assert the compiled session matches the eval-mode forward.

    Raises ``AssertionError`` with the offending output name when the
    divergence exceeds ``atol``; used by ``compile_for_inference`` when a
    sample batch is provided.
    """
    # Restore per-module flags exactly: a blanket train(mode) would clobber
    # the state of sub-modules shared with other wrappers (e.g. split halves).
    modes = [(m, m.training) for _, m in module.named_modules()]
    module.eval()
    try:
        with no_grad():
            reference = module(Tensor(np.asarray(sample_input, dtype=np.float32)))
        compiled = session.run(sample_input)
        if isinstance(reference, dict):
            for name, ref in reference.items():
                np.testing.assert_allclose(
                    compiled[name], ref.data, atol=atol,
                    err_msg=f"compiled output {name!r} diverged from eval forward",
                )
        else:
            np.testing.assert_allclose(
                compiled, reference.data, atol=atol,
                err_msg="compiled output diverged from eval forward",
            )
    finally:
        for m, flag in modes:
            object.__setattr__(m, "training", flag)


# ---------------------------------------------------------------------------
# Built-in lowering rules for the nn substrate
# ---------------------------------------------------------------------------
@register_lowerer(Sequential)
def _lower_sequential(module: Sequential) -> List[_Op]:
    ops: List[_Op] = []
    for child in module:
        ops.extend(lower_module(child))
    return ops


@register_lowerer(Identity)
def _lower_identity(module: Identity) -> List[_Op]:
    return []


@register_lowerer(L.Dropout)
def _lower_dropout(module: L.Dropout) -> List[_Op]:
    return []  # inert in eval mode


@register_lowerer(L.Conv2d)
def _lower_conv(module: L.Conv2d) -> List[_Op]:
    bias = module.bias.data if module.bias is not None else None
    return [
        ConvOp(module.weight.data, bias, module.stride, module.padding, module.groups)
    ]


@register_lowerer(L.Linear)
def _lower_linear(module: L.Linear) -> List[_Op]:
    bias = module.bias.data if module.bias is not None else None
    return [LinearOp(module.weight.data, bias)]


@register_lowerer(L._BatchNorm)
def _lower_batch_norm(module: "L._BatchNorm") -> List[_Op]:
    return [AffineOp.from_batch_norm(module)]


@register_lowerer(L.MaxPool2d)
def _lower_max_pool(module: L.MaxPool2d) -> List[_Op]:
    return [MaxPoolOp(module.kernel_size, module.stride)]


@register_lowerer(L.AvgPool2d)
def _lower_avg_pool(module: L.AvgPool2d) -> List[_Op]:
    return [AvgPoolOp(module.kernel_size, module.stride)]


@register_lowerer(L.AdaptiveAvgPool2d)
def _lower_adaptive_avg_pool(module: L.AdaptiveAvgPool2d) -> List[_Op]:
    return [AvgPoolOp(adaptive_output=module.output_size)]


@register_lowerer(L.Flatten)
def _lower_flatten(module: L.Flatten) -> List[_Op]:
    return [FlattenOp(module.start_dim)]


def _act_rule(cls: Type[Module], act_name: str) -> None:
    _LOWERERS[cls] = lambda module: [ActOp(act_name, _ACT_KERNELS[act_name])]


_act_rule(A.ReLU, "relu")
_act_rule(A.ReLU6, "relu6")
_act_rule(A.Sigmoid, "sigmoid")
_act_rule(A.HardSigmoid, "hard_sigmoid")
_act_rule(A.SiLU, "silu")
_act_rule(A.HardSwish, "hard_swish")
_act_rule(A.Tanh, "tanh")
_act_rule(A.GELU, "gelu")


@register_lowerer(A.LeakyReLU)
def _lower_leaky_relu(module: A.LeakyReLU) -> List[_Op]:
    return [ActOp("leaky_relu", _leaky_relu_kernel(module.negative_slope))]
