"""quant8 compute tier: int8 operands, int32 accumulation, fused requant.

The float engine keeps every activation in float32; this module overlays
a *compute* tier on a bound :class:`~.executor.ExecutionPlan` that runs
the GEMM/SpMM producers (pointwise convs, linears, depthwise convs,
im2col convs) with symmetric int8 operands and exact int32 accumulation:

* **weights** are quantized at plan time, per output channel
  (``scale = max|W_c| / 127``, zero point 0 — symmetric quantization is
  required so the CSR's dropped padding entries stay exactly zero);
* **activations** use one per-tensor scale, calibrated on the first
  batch the plan serves (the calibration batch itself runs the float
  plan and returns bit-exact float results);
* each quantized step computes ``acc = Wq @ Xq`` in int32 (numpy's
  int32 matmul / scipy's int32 ``csr_matvecs`` — both exact), then
  dequantizes with the per-channel multiplier ``s_x * s_w`` and applies
  the step's float epilogue;
* where a quantized step's *only* consumer is the next quantized step
  and its epilogue is a bias and/or relu, the hand-off runs entirely in
  integers — bias folded to int32, relu on the accumulator, and a
  **fused requantization epilogue** rescales straight into the
  consumer's int8 input buffer, skipping the float round-trip
  (``PlanStats.quant_chains`` counts these).

Accumulator safety: ``|acc| <= 127^2 * K`` for dot length ``K``; steps
where that bound could reach int32 range keep their float closure (none
of the repo's backbones come near it, but the guard is cheap).

Mirroring the PR 2 wire-codec fix, quantization *rejects* NaN/Inf
instead of silently saturating: calibration and every quantized run
validate the input batch and raise :class:`QuantizationError`.

Accuracy is measured, never assumed: ``benchmarks/test_bench_edge_quant8.py``
records quant8-vs-float32 latency and max |accuracy delta| per scenario
into ``BENCH_edge_quant8.json`` (see docs/benchmarking.md for the
policy — deltas are recorded and bounded in CI, latency is reported
honestly either way).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

import numpy as np

from . import kernels

try:
    from scipy.sparse import _sparsetools
except ImportError:  # pragma: no cover - scipy-less hosts use float fallback
    _sparsetools = None

__all__ = [
    "QuantizationError",
    "QuantizedPlan",
    "symmetric_scale",
    "quantize_int8",
    "dequantize",
    "requantize",
]

#: Largest magnitude representable in symmetric int8.
QMAX = 127

#: int32 accumulator headroom: dot products longer than this could
#: overflow ``127^2 * K`` past int32 range and keep their float kernel.
_MAX_DOT_LENGTH = (2**31 - 1) // (QMAX * QMAX) // 2


class QuantizationError(ValueError):
    """Raised when a tensor cannot be quantized (NaN/Inf, bad scale)."""


# ---------------------------------------------------------------------------
# Pure helpers (property-tested directly)
# ---------------------------------------------------------------------------
def symmetric_scale(amax: float) -> float:
    """Per-tensor/per-channel scale mapping ``[-amax, amax]`` onto int8.

    Rejects non-finite ranges; floors degenerate (all-zero) ranges so
    the inverse scale stays finite.
    """
    amax = float(amax)
    if not np.isfinite(amax) or amax < 0.0:
        raise QuantizationError(f"cannot derive a scale from amax={amax!r}")
    return max(amax, 1e-12) / QMAX


def quantize_int8(x: np.ndarray, scale: float) -> np.ndarray:
    """Symmetric quantization to int32-held int8 values (round-to-even).

    Values beyond ``127 * scale`` saturate at the int8 edges; NaN/Inf
    raise instead of saturating (mirroring the wire codec's policy).
    """
    x = np.asarray(x, dtype=np.float32)
    if not np.all(np.isfinite(x)):
        raise QuantizationError("refusing to quantize NaN/Inf values")
    if not np.isfinite(scale) or scale <= 0.0:
        raise QuantizationError(f"invalid quantization scale {scale!r}")
    q = np.rint(x / np.float32(scale))
    return np.clip(q, -QMAX, QMAX).astype(np.int32)

def dequantize(q: np.ndarray, scale: float) -> np.ndarray:
    """Inverse of :func:`quantize_int8` (exact for representable values)."""
    return np.asarray(q, dtype=np.float32) * np.float32(scale)


def requantize(acc: np.ndarray, multiplier) -> np.ndarray:
    """Rescale an int32 accumulator into the int8 range of the next step.

    ``multiplier`` is ``s_x * s_w / s_next`` (scalar or per-channel
    column); the result is int32-held int8 values.
    """
    scaled = np.asarray(acc, dtype=np.float32) * np.asarray(
        multiplier, dtype=np.float32
    )
    return np.clip(np.rint(scaled), -QMAX, QMAX).astype(np.int32)


def _per_channel_scales(weight2d: np.ndarray) -> np.ndarray:
    """(c_out, 1) symmetric scales, floored like :func:`symmetric_scale`."""
    amax = np.max(np.abs(weight2d), axis=1, keepdims=True)
    if not np.all(np.isfinite(amax)):
        raise QuantizationError("non-finite weights cannot be quantized")
    return np.maximum(amax, 1e-12).astype(np.float32) / QMAX


# ---------------------------------------------------------------------------
# Plan-time weight quantization per record kind
# ---------------------------------------------------------------------------
def _quantize_gemm_weights(weight: np.ndarray):
    sw = _per_channel_scales(weight)
    wq = np.clip(np.rint(weight / sw), -QMAX, QMAX).astype(np.int32)
    return {"wq": wq, "sw": sw}


def _quantize_csr_weights(matrix, channels: int):
    rows = matrix.shape[0]
    plane = rows // channels
    entry_row = np.repeat(
        np.arange(rows, dtype=np.int64), np.diff(matrix.indptr)
    )
    entry_channel = entry_row // plane
    sw = np.zeros(channels, dtype=np.float32)
    np.maximum.at(sw, entry_channel, np.abs(matrix.data))
    if not np.all(np.isfinite(sw)):
        raise QuantizationError("non-finite weights cannot be quantized")
    sw = np.maximum(sw, 1e-12) / QMAX
    dataq = np.clip(
        np.rint(matrix.data / sw[entry_channel]), -QMAX, QMAX
    ).astype(np.int32)
    return {
        "indptr": matrix.indptr,
        "indices": matrix.indices,
        "dataq": dataq,
        "sw": sw.reshape(-1, 1),
        "max_row_nnz": int(np.max(np.diff(matrix.indptr), initial=0)),
    }


# ---------------------------------------------------------------------------
# The overlay
# ---------------------------------------------------------------------------
class QuantizedPlan:
    """int8/int32 execution overlay on a bound float :class:`ExecutionPlan`.

    Weights are quantized immediately (plan time).  Activation scales
    need data, so the **first** batch runs the float plan while per-step
    input ranges are captured — that batch's results are bit-exact
    float32 — and the quantized closures are compiled from the captured
    ranges; every later batch runs the mixed int/float step list.  The
    overlay reuses the float plan's arena, input/output views and
    non-producer closures, and preallocates its int buffers once, so
    steady state stays allocation-free.
    """

    def __init__(self, plan):
        if _sparsetools is None:
            raise QuantizationError("quant8 compute requires scipy")
        self.plan = plan
        self.batch_shape = plan.batch_shape
        self._records: Dict[int, Dict] = {}
        self._weights: Dict[int, Dict] = {}
        self._fns: Optional[List[Callable[[], None]]] = None
        for index, rec in plan._records.items():
            if rec["x2"].size == 0 or rec["y2"].size == 0:
                continue
            if rec["kind"] == "gemm":
                if rec["weight"].shape[1] > _MAX_DOT_LENGTH:
                    continue  # int32 headroom guard: keep the float kernel
                self._weights[index] = _quantize_gemm_weights(rec["weight"])
            elif rec["kind"] == "spmm":
                # The int tier runs per-plane CSR whatever kernel the float
                # step bound, so the matrix is fetched (or built) here.
                op = rec["conv"][0]
                payload = _quantize_csr_weights(
                    kernels.conv_matrix(*rec["conv"]), op.c_out
                )
                if payload["max_row_nnz"] > _MAX_DOT_LENGTH:
                    continue
                self._weights[index] = payload
            elif rec["kind"] == "gather_gemm":
                if rec["weight"].shape[1] > _MAX_DOT_LENGTH:
                    continue
                self._weights[index] = _quantize_gemm_weights(rec["weight"])
            else:  # pragma: no cover - no other record kinds exist
                continue
            self._records[index] = rec
        plan.stats.quant_steps = len(self._records)

    # -- delegation (PlannedExecutor pokes these on its sample plan) ----
    @property
    def stats(self):
        return self.plan.stats

    @property
    def _outputs(self):
        return self.plan._outputs

    @property
    def ir(self):
        return self.plan.ir

    @property
    def arena(self):
        return self.plan.arena

    @property
    def calibrated(self) -> bool:
        return self._fns is not None

    # -- execution ------------------------------------------------------
    def run(self, x: np.ndarray, out=None):
        plan = self.plan
        x = np.asarray(x, dtype=np.float32)
        if tuple(x.shape) != plan.batch_shape:
            raise ValueError(
                f"plan compiled for batch shape {plan.batch_shape}, "
                f"got {tuple(x.shape)}"
            )
        if not np.all(np.isfinite(x)):
            raise QuantizationError(
                "quant8 compute rejects NaN/Inf inputs (wire-codec policy)"
            )
        if self._fns is None:
            return self._calibrate(x, out)
        np.copyto(plan._in_view, x)
        for fn in self._fns:
            fn()
        return plan._collect(out)

    __call__ = run

    def _calibrate(self, x: np.ndarray, out):
        """First batch: run float, capture ranges, compile the int tier."""
        plan = self.plan
        np.copyto(plan._in_view, x)
        rec_by_fn = {
            rec["fn_index"]: index for index, rec in self._records.items()
        }
        amax_in: Dict[int, float] = {}
        for fn_index, fn in enumerate(plan._step_fns):
            index = rec_by_fn.get(fn_index)
            if index is not None:
                amax_in[index] = float(np.max(np.abs(self._records[index]["x2"])))
            fn()
        for index, amax in amax_in.items():
            if not np.isfinite(amax):
                raise QuantizationError(
                    "non-finite activations during quant8 calibration"
                )
        self._compile(amax_in)
        return plan._collect(out)

    # -- compilation ----------------------------------------------------
    def _compile(self, amax_in: Dict[int, float]) -> None:
        plan = self.plan
        chains = self._find_chains()
        states: Dict[int, Dict] = {}
        for index, rec in self._records.items():
            x2 = rec["x2"]
            states[index] = {
                "sx": symmetric_scale(amax_in[index]),
                "xf": np.empty(x2.shape, dtype=np.float32),
                "xq": np.empty(x2.shape, dtype=np.int32),
                "acc": np.empty(rec["y2"].shape, dtype=np.int32),
                "pre_quantized": False,
            }
        fns = list(plan._step_fns)
        chained = 0
        for index in sorted(self._records):
            consumer = chains.get(index)
            if consumer is not None:
                states[consumer]["pre_quantized"] = True
                chained += 1
            fns[self._records[index]["fn_index"]] = self._compile_record(
                index, states, consumer
            )
        self._fns = fns
        plan.stats.quant_chains = chained

    def _find_chains(self) -> Dict[int, int]:
        """Map record index -> consumer record index for int8 hand-offs.

        A hand-off is legal when the producer's epilogue is at most
        bias + relu, its output is not a plan output, and its *only*
        reader is the consumer record's first input — then no float
        value is ever observed between the two steps.
        """
        ir = self.plan.ir
        by_ir_index = {
            rec["ir_index"]: index for index, rec in self._records.items()
        }
        chains: Dict[int, int] = {}
        for index, rec in self._records.items():
            if not self._int_epilogue(rec["epi"]):
                continue
            root = ir.root(rec["step"].output)
            if any(ir.root(vid) == root for vid in ir.outputs.values()):
                continue
            readers = [
                (k, s)
                for k, s in enumerate(ir.steps)
                if k > rec["ir_index"]
                and any(ir.root(vid) == root for vid in s.reads())
            ]
            if len(readers) != 1:
                continue
            reader_ir, reader_step = readers[0]
            consumer = by_ir_index.get(reader_ir)
            if consumer is None or ir.root(reader_step.inputs[0]) != root:
                continue
            chains[index] = consumer
        return chains

    @staticmethod
    def _int_epilogue(epi) -> bool:
        """True when the epilogue runs exactly on int32 (bias and/or relu)."""
        if len(epi) > 2:
            return False
        for position, entry in enumerate(epi):
            if entry[0] == "bias" and position == 0:
                continue
            if entry[0] == "act" and entry[1] == "relu":
                continue
            return False
        return True

    def _compile_record(
        self, index: int, states: Dict[int, Dict], consumer: Optional[int]
    ) -> Callable[[], None]:
        rec = self._records[index]
        state = states[index]
        payload = self._weights[index]
        kind = rec["kind"]
        sx = np.float32(state["sx"])
        inv_sx = np.float32(1.0 / state["sx"])
        x2, y2 = rec["x2"], rec["y2"]
        xf, xq, acc = state["xf"], state["xq"], state["acc"]
        sw = payload["sw"]  # (c_out, 1) scales
        channels = sw.shape[0]
        accc = acc.reshape(channels, -1)  # per-channel view of the acc
        m = (sw * sx).astype(np.float32)  # dequant multiplier

        if state["pre_quantized"]:
            quantize_in = None
        else:

            def quantize_in():
                np.multiply(x2, inv_sx, out=xf)
                np.rint(xf, out=xf)
                np.clip(xf, -float(QMAX), float(QMAX), out=xf)
                np.copyto(xq, xf, casting="unsafe")

        if kind == "gemm":
            wq = payload["wq"]

            def accumulate(wq=wq, xq=xq, acc=acc):
                np.matmul(wq, xq, out=acc)

        elif kind == "spmm":
            indptr, indices, dataq = (
                payload["indptr"], payload["indices"], payload["dataq"]
            )
            rows, n_vecs = y2.shape
            cols = x2.shape[0]
            xq_flat, acc_flat = xq.reshape(-1), acc.reshape(-1)

            def accumulate():
                acc.fill(0)
                _sparsetools.csr_matvecs(
                    rows, cols, n_vecs, indptr, indices, dataq, xq_flat, acc_flat
                )

        else:  # gather_gemm: the float step's copy plan over int32 buffers
            wq = payload["wq"]
            colsq = np.empty(rec["cols_shape"], dtype=np.int32)
            colsq2 = colsq.reshape(wq.shape[1], -1)
            gather = rec["im2col"].bind(xq, colsq)

            def accumulate():
                gather()
                np.matmul(wq, colsq2, out=acc)

        if consumer is not None:
            # Fused requantization epilogue: bias and relu run on the
            # int32 accumulator, then one rescale writes the consumer's
            # int8 input directly — no float tensor in between.
            epi = rec["epi"]
            bias = next((e[1] for e in epi if e[0] == "bias"), None)
            relu = any(e[0] == "act" for e in epi)
            bq = None
            if bias is not None:
                bq = np.clip(
                    np.rint(bias / m), -(2**30), 2**30
                ).astype(np.int32)
            next_state = states[consumer]
            mj = (m / np.float32(next_state["sx"])).astype(np.float32)
            xq_next = next_state["xq"].reshape(accc.shape)
            rf = np.empty(accc.shape, dtype=np.float32)

            def run():
                if quantize_in is not None:
                    quantize_in()
                accumulate()
                if bq is not None:
                    np.add(accc, bq, out=accc)
                if relu:
                    np.maximum(acc, 0, out=acc)
                np.multiply(accc, mj, out=rf)
                np.rint(rf, out=rf)
                np.clip(rf, -float(QMAX), float(QMAX), out=rf)
                np.copyto(xq_next, rf, casting="unsafe")

            return run

        # General path: dequantize per channel, run the float epilogue.
        y2c = y2.reshape(channels, -1)
        epi_ops = self._compile_epilogue(rec)

        def run():
            if quantize_in is not None:
                quantize_in()
            accumulate()
            np.multiply(accc, m, out=y2c)
            for op in epi_ops:
                op()

        return run

    def _compile_epilogue(self, rec) -> List[Callable[[], None]]:
        """Float epilogue closures over the record's full output view."""
        out = rec["out"]
        ops: List[Callable[[], None]] = []
        for entry in rec["epi"]:
            if entry[0] == "bias":
                bias = entry[1]
                y2 = out.reshape(bias.shape[0], -1)
                ops.append(lambda y=y2, b=bias: np.add(y, b, out=y))
            elif entry[0] == "affine":
                scale, shift = entry[1], entry[2]
                y2 = out.reshape(scale.shape[0], -1)

                def run_affine(y=y2, s=scale, b=shift):
                    np.multiply(y, s, out=y)
                    np.add(y, b, out=y)

                ops.append(run_affine)
            elif entry[0] == "act":
                name, slope = entry[1], entry[2]
                scratch = (
                    np.empty(out.shape, dtype=np.float32)
                    if kernels.act_needs_scratch(name)
                    else None
                )
                ops.append(
                    lambda y=out, s=scratch, nm=name, sl=slope: kernels.apply_act(
                        nm, y, s, sl
                    )
                )
            elif entry[0] == "add":
                skip = entry[1]
                ops.append(lambda y=out, s=skip: np.add(y, s, out=y))
        return ops

    # -- introspection --------------------------------------------------
    def describe(self) -> str:
        state = "calibrated" if self.calibrated else "pending first batch"
        stats = self.plan.stats
        header = (
            f"quant8 overlay: {stats.quant_steps} int step(s), "
            f"{stats.quant_chains} fused requant chain(s), "
            f"activation scales {state}"
        )
        return f"{header}\n{self.plan.describe()}"

    def __repr__(self) -> str:
        return f"QuantizedPlan({self.plan!r}, steps={len(self._records)})"
