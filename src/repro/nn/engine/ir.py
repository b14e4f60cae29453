"""Plan-IR: the typed step graph between lowering and buffer binding.

The engine compiles a fused :class:`~repro.nn.fuse.InferenceSession` in
three phases:

1. **lowering** (:func:`lower_template`) — a one-time shape trace at a
   tiny batch (only ``row_shape[0]`` depends on the batch;
   :meth:`PlanIR.rebatch` rescales it) walks the fused op list and emits a
   :class:`PlanIR`: a straight-line list of
   typed :class:`Step` nodes over SSA-style :class:`ValueInfo` operands.
   Every structural fact a rewrite needs is explicit — the op kind, which
   value each step reads and defines, whether a step runs in place on its
   input's storage, and which values merely alias another value's storage
   (flatten/reshape views);
2. **optimization** (:mod:`repro.nn.engine.passes`) — rewrites of the step
   graph: epilogue fusion, affine folding, copy elision, kernel selection
   and SpMM row blocking.  Passes run *before* any buffer exists, so the
   arena's liveness analysis sees the optimized program;
3. **binding** (:mod:`repro.nn.engine.executor`) — the surviving steps are
   bound to arena buffers and compiled into closures.

Step kinds
----------
``conv_gemm``        pointwise convolution as one contiguous GEMM
``conv_spmm``        grouped/depthwise convolution (per-plane CSR, or the
                     row-vector depthwise kernel after ``block_depthwise``)
``conv_gather_gemm`` dense-kernel convolution: copy-based im2col + GEMM
``conv_rowwise``     scipy-less fallback (row layout round trip)
``gemm``             linear layer
``bias``             per-channel bias add, in place on the producer
``act``              activation; in place when ``in_place`` is set
``affine``           per-channel scale+shift (unfolded batch norm)
``residual_add``     skip-connection add
``view``             flatten/reshape — storage alias, no runtime work
``copy``             explicit materialisation (identity head outputs)
``max_pool`` / ``avg_pool`` / ``global_avg_pool``  pooling kernels
``squeeze_excite``   SE gating block
``fallback``         uncompilable module run through its eval forward
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import fuse
from ..fuse import (
    ActOp,
    AffineOp,
    AvgPoolOp,
    ConvOp,
    FallbackOp,
    FlattenOp,
    GlobalAvgPoolOp,
    InferenceSession,
    LinearOp,
    MaxPoolOp,
    ReshapeOp,
    ResidualOp,
    SqueezeExciteOp,
    _Op,
)
from .kernels import HAVE_SPARSE, valid_taps

__all__ = [
    "PlanIR",
    "Step",
    "ValueInfo",
    "Unplannable",
    "TRACE_BATCH",
    "lower_session",
    "lower_template",
    "conv_geometry",
    "estimate_step_cost",
]

#: Batch size of the one shape trace behind every plan of an input
#: geometry.  Two rather than one, so a traced value whose leading dim is
#: not the batch (a constant ``(1, ...)`` row) is caught, not mis-scaled.
TRACE_BATCH = 2


class Unplannable(Exception):
    """Raised at build time when a program cannot be statically planned."""


class ValueInfo:
    """One SSA value: a row-shaped intermediate of the program.

    ``alias_of`` names the value whose storage this one shares (views and
    in-place results); ``None`` means the value owns fresh storage.  The
    *root* of an alias chain is the value the arena actually allocates.
    """

    __slots__ = ("vid", "row_shape", "alias_of")

    def __init__(self, vid: int, row_shape: Tuple[int, ...], alias_of: Optional[int]):
        self.vid = vid
        self.row_shape = tuple(row_shape)
        self.alias_of = alias_of

    def __repr__(self) -> str:
        alias = f" -> v{self.alias_of}" if self.alias_of is not None else ""
        return f"v{self.vid}{list(self.row_shape)}{alias}"


#: Epilogue entries are ordered tuples applied in sequence on the step's
#: output while it is still cache-hot:  ``("bias", array)``,
#: ``("act", name, slope)``, ``("affine", scale, shift)``, ``("add", vid)``.
Epilogue = List[Tuple]


# ---------------------------------------------------------------------------
# Byte-stable plan dump helpers (digest material — determinism rules apply)
# ---------------------------------------------------------------------------
#: Attr keys that must never reach the digested plan dump: ``kernel`` is
#: a bound callable with no stable repr, and ``label`` already heads the
#: line.
_DIGEST_SUPPRESSED_ATTRS = frozenset({"kernel", "label"})


def _content_digest(array: np.ndarray) -> str:
    # Lazy import: repro.serve depends on repro.nn at import time, so the
    # shared canonicalizer is pulled in at first call, never at import.
    from ...serve.cache.keys import tensor_digest

    return tensor_digest(array)[:12]


def _array_summary(array: np.ndarray) -> str:
    return f"{array.dtype.str}{list(array.shape)}#{_content_digest(array)}"


def _attr_summary(value: Any) -> str:
    """Render one attr value deterministically for the plan dump."""
    if isinstance(value, np.ndarray):
        return _array_summary(value)
    if isinstance(value, np.generic):
        return repr(value.item())
    if isinstance(value, dict):
        items = sorted(value.items(), key=lambda kv: str(kv[0]))
        return "{" + ",".join(f"{k}:{_attr_summary(v)}" for k, v in items) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_attr_summary(v) for v in value) + "]"
    if isinstance(value, (bool, int, float, str)) or value is None:
        return repr(value)
    if hasattr(value, "lo") and hasattr(value, "hi"):
        return f"{type(value).__name__}[{int(value.lo)}:{int(value.hi)}]"
    if callable(value):
        return "<fn>"
    return f"<{type(value).__name__}>"


def _epilogue_summary(entry: Tuple) -> str:
    tag = entry[0]
    if tag == "bias":
        return f"bias#{_content_digest(entry[1])}"
    if tag == "act":
        return f"act:{entry[1]}:{entry[2]!r}"
    if tag == "affine":
        return f"affine#{_content_digest(entry[1])}#{_content_digest(entry[2])}"
    if tag == "add":
        return f"add:v{entry[1]}"
    return tag


@dataclass(eq=False)
class Step:
    """One typed node of the step graph.

    ``eq=False``: steps are identity objects (their ``attrs`` hold numpy
    arrays, which have no well-defined ``==``).
    """

    kind: str
    op: Optional[_Op]
    inputs: Tuple[int, ...]
    output: int
    attrs: Dict[str, Any] = field(default_factory=dict)
    epilogue: Epilogue = field(default_factory=list)
    in_place: bool = False  # output shares the first input's storage

    def reads(self) -> Tuple[int, ...]:
        """Every value this step consumes (inputs + epilogue skip adds)."""
        extra = tuple(entry[1] for entry in self.epilogue if entry[0] == "add")
        return self.inputs + extra

    def describe(self) -> str:
        label = self.attrs.get("label", self.kind)
        for entry in self.epilogue:
            if entry[0] == "act":
                label += f"+{entry[1]}"
            elif entry[0] == "add":
                label += "+residual"
            else:
                label += f"+{entry[0]}"
        return label


class PlanIR:
    """The typed step graph for one batch shape, before buffers exist."""

    def __init__(self, batch_shape: Tuple[int, ...]):
        self.batch_shape = tuple(int(s) for s in batch_shape)
        self.batch = self.batch_shape[0]
        self.values: List[ValueInfo] = []
        self.steps: List[Step] = []
        self.input: int = -1
        self.outputs: Dict[Optional[str], int] = {}
        #: The geometry is in the hires regime (``passes.runs_per_image``):
        #: a batch executes as per-image runs of the batch-1 program.
        self.per_image = False

    # -- values --------------------------------------------------------
    def new_value(self, row_shape, alias_of: Optional[int] = None) -> int:
        vid = len(self.values)
        root = None if alias_of is None else self.root(alias_of)
        self.values.append(ValueInfo(vid, row_shape, root))
        return vid

    def root(self, vid: int) -> int:
        """The storage-owning ancestor of ``vid``."""
        value = self.values[vid]
        while value.alias_of is not None:
            value = self.values[value.alias_of]
        return value.vid

    def realias(self, vid: int, target: int) -> None:
        """Make ``vid`` share ``target``'s storage (used by rewrites)."""
        self.values[vid].alias_of = self.root(target)

    # -- construction --------------------------------------------------
    def emit(self, step: Step) -> int:
        self.steps.append(step)
        return step.output

    def rebatch(self, batch: int) -> "PlanIR":
        """This program at another batch size (only a value's leading dim
        depends on it).  Values, steps and their ``attrs``/``epilogue``
        containers are fresh — passes and the binder's :meth:`realias` never
        write into ``self`` — while the arrays and CSRs inside are shared."""
        batch = int(batch)
        ir = PlanIR((batch,) + self.batch_shape[1:])
        ir.values = [
            ValueInfo(v.vid, (batch,) + v.row_shape[1:], v.alias_of)
            for v in self.values
        ]
        # Spelled out, not dataclasses.replace: this runs per step on every
        # bind of a new batch size, and replace() costs 3x the constructor.
        ir.steps = [
            Step(
                step.kind, step.op, step.inputs, step.output,
                dict(step.attrs), list(step.epilogue), step.in_place,
            )
            for step in self.steps
        ]
        ir.input = self.input
        ir.outputs = dict(self.outputs)
        ir.per_image = self.per_image
        return ir

    # -- introspection -------------------------------------------------
    def describe(self) -> str:
        """A byte-stable text dump of the plan.

        This string is digest material: the serve cache's provenance
        keys and the :mod:`repro.attest` golden registry both hash it,
        so it must be a pure function of the plan's *structure and
        weights* — attrs render in sorted key order, arrays render as
        ``dtype[shape]#content-digest``, and callables are suppressed.
        Nothing in a plan is measured, so two processes lowering the
        same session must produce identical bytes.
        """
        lines = [
            f"plan-ir batch={list(self.batch_shape)}"
            + (" per-image" if self.per_image else "")
        ]
        outs = " ".join(
            f"{name if name is not None else '_'}=v{vid}"
            for name, vid in sorted(
                self.outputs.items(), key=lambda kv: (kv[0] is not None, kv[0] or "")
            )
        )
        lines.append(f"outputs: {outs}")
        for index, step in enumerate(self.steps):
            out = self.values[step.output]
            alias = "~" if out.alias_of is not None else ""
            ins = ",".join(f"v{vid}" for vid in step.inputs)
            head = (
                f"s{index:03d} {step.kind} {step.attrs.get('label', step.kind)} "
                f"in={ins or '-'} out=v{step.output}{list(out.row_shape)}{alias}"
            )
            parts = [head]
            if step.epilogue:
                parts.append("epi=[" + ",".join(
                    _epilogue_summary(entry) for entry in step.epilogue
                ) + "]")
            attrs = " ".join(
                f"{key}={_attr_summary(value)}"
                for key, value in sorted(step.attrs.items())
                if key not in _DIGEST_SUPPRESSED_ATTRS
            )
            if attrs:
                parts.append(attrs)
            lines.append(" | ".join(parts))
        return "\n".join(lines)


def conv_geometry(ir: "PlanIR", step: "Step") -> Tuple[int, int, int, int, int]:
    """``(c_in, h, w, ho, wo)`` of a conv step, read off its values — the
    key of the constructions :func:`kernels.conv_csr_cached` shares."""
    c_in, h, w = ir.values[step.inputs[0]].row_shape[1:]
    _, ho, wo = ir.values[step.output].row_shape[1:]
    return c_in, h, w, ho, wo


# ---------------------------------------------------------------------------
# Per-step cost estimates (for plan describe; not used for any decision)
# ---------------------------------------------------------------------------
def _elems(row_shape: Tuple[int, ...], batch: int) -> int:
    n = batch
    for s in row_shape[1:]:
        n *= s
    return n


def estimate_step_cost(ir: "PlanIR", step: "Step") -> Tuple[int, int]:
    """Rough (flops, bytes-moved) estimate for one bound step.

    Estimates only — multiply-add counted as 2 flops, epilogue entries
    as one pass over the output each, per-plane CSRs charged their byte
    size (counted from the geometry: the matrix itself is only built
    where it runs), slab and column buffers one write and one read.
    Good enough to rank steps in ``repro plan describe``; never used to
    pick kernels (``block_depthwise`` decides from the geometry alone).
    """
    n = ir.batch
    out_e = _elems(ir.values[step.output].row_shape, n)
    in_e = (
        _elems(ir.values[step.inputs[0]].row_shape, n) if step.inputs else 0
    )
    flops = 0
    nbytes = (in_e + out_e) * 4
    kind = step.kind
    if kind in ("conv_gemm", "gemm"):
        weight = step.attrs["weight"]
        flops = 2 * weight.shape[0] * weight.shape[1] * (out_e // weight.shape[0])
        nbytes += weight.nbytes
    elif kind == "conv_spmm":
        op = step.op
        c_in, h, w, ho, wo = conv_geometry(ir, step)
        nnz = op.c_out * op.c_in_g * valid_taps(op, h, w, ho, wo)
        flops = 2 * nnz * n
        if "dw_rows" in step.attrs:
            nbytes += 2 * c_in * op.kw * h * wo * n * 4
        else:
            nbytes += nnz * 8 + (op.c_out * ho * wo + 1) * 4
    elif kind == "conv_gather_gemm":
        weight = step.attrs["weight"]
        plane_e = out_e // weight.shape[0]
        flops = 2 * weight.shape[0] * weight.shape[1] * plane_e
        nbytes += weight.nbytes + 2 * weight.shape[1] * plane_e * 4
    elif kind in ("max_pool", "avg_pool"):
        flops = out_e * step.attrs["kh"] * step.attrs["kw"]
    elif kind == "global_avg_pool":
        flops = in_e
    elif kind == "squeeze_excite":
        op = step.op
        c = op.reduce_wt.shape[0]
        reduced = op.reduce_wt.shape[1]
        flops = in_e + 2 * 2 * c * reduced * n + in_e
    elif kind in ("bias", "act", "affine", "residual_add", "copy"):
        flops = out_e
    elif kind == "view":
        nbytes = 0
    for entry in step.epilogue:
        flops += out_e
        nbytes += out_e * 4
    return flops, nbytes


# ---------------------------------------------------------------------------
# Shape tracing (runs the fused ops once on zeros; exact for fallbacks too)
# ---------------------------------------------------------------------------
def _trace_shapes(session: InferenceSession, batch_shape: Tuple[int, ...]):
    """Record every op's output shape via a dry run on zeros."""
    shapes: Dict[int, Tuple[int, ...]] = {}

    def trace(ops, x):
        for op in ops:
            if isinstance(op, ResidualOp):
                y = trace(op.inner, x) + x
            else:
                y = op(x)
            if isinstance(y, dict):
                raise Unplannable(
                    f"op {op.describe()!r} returns a dict; only session heads may"
                )
            if y.shape[:1] != batch_shape[:1]:
                raise Unplannable(
                    f"op {op.describe()!r} yields shape {tuple(y.shape)}: "
                    "its leading dim is not the batch"
                )
            shapes[id(op)] = tuple(y.shape)
            x = y
        return x

    trunk_out = trace(session.ops, np.zeros(batch_shape, dtype=np.float32))
    if session.heads is not None:
        for program in session.heads.values():
            trace(program, trunk_out)
    return shapes


# ---------------------------------------------------------------------------
# Lowering: fused ops -> typed steps
# ---------------------------------------------------------------------------
def _leaky_slope(op: _Op) -> float:
    """Recover ``negative_slope`` from a lowered leaky-relu kernel."""
    kernel = getattr(op, "kernel", None) or op.act
    slope = getattr(kernel, "negative_slope", None)
    if slope is None:
        raise Unplannable(f"leaky_relu kernel on {op.describe()!r} has no slope")
    return float(slope)


def _emit_fused_act(ir: PlanIR, op: _Op, value: int) -> int:
    """Emit the op's fused activation (if any), in place on ``value``."""
    if op.act_name is None:
        return value
    slope = _leaky_slope(op) if op.act_name == "leaky_relu" else 0.0
    out = ir.new_value(ir.values[value].row_shape, alias_of=value)
    ir.emit(
        Step(
            "act",
            op,
            (value,),
            out,
            attrs={"name": op.act_name, "slope": slope, "label": f"act:{op.act_name}"},
            in_place=True,
        )
    )
    return out


def _lower_conv(ir: PlanIR, op: ConvOp, value: int, out_row) -> int:
    c_in = ir.values[value].row_shape[1]
    c_out = out_row[1]
    # The plan text must pin what the weights alone do not: neither the
    # per-plane CSR nor the copy plan is built (or hashed) at lowering.
    window = (op.sh, op.sw, op.ph, op.pw)
    pointwise = (
        op.kh == 1 and op.kw == 1 and op.groups == 1
        and not (op.ph or op.pw) and op.sh == 1 and op.sw == 1
    )
    bias = (
        np.ascontiguousarray(op.bias.reshape(-1, 1)) if op.bias is not None else None
    )
    if pointwise:
        out = ir.new_value(out_row)
        weight = np.ascontiguousarray(op.weight.reshape(c_out, c_in))
        ir.emit(
            Step(
                "conv_gemm", op, (value,), out,
                attrs={"weight": weight, "label": "conv:gemm"},
            )
        )
    elif not HAVE_SPARSE:
        # scipy-less fallback: the fused op applies its own bias and
        # activation in row layout, so return without bias/act steps.
        out = ir.new_value(out_row)
        ir.emit(
            Step("conv_rowwise", op, (value,), out, attrs={"label": "conv:rowwise"})
        )
        return out
    elif op.groups > 1:
        out = ir.new_value(out_row)
        ir.emit(
            Step(
                "conv_spmm", op, (value,), out,
                attrs={"weight": op.weight, "window": window, "label": "conv:spmm"},
            )
        )
    else:
        out = ir.new_value(out_row)
        weight = np.ascontiguousarray(op.weight.reshape(c_out, -1))
        ir.emit(
            Step(
                "conv_gather_gemm", op, (value,), out,
                attrs={
                    "weight": weight,
                    "window": (op.kh, op.kw) + window,
                    "label": "conv:gather+gemm",
                },
            )
        )
    if bias is not None:
        biased = ir.new_value(out_row, alias_of=out)
        ir.emit(
            Step(
                "bias", op, (out,), biased,
                attrs={"bias": bias, "label": "conv:bias"}, in_place=True,
            )
        )
        out = biased
    return _emit_fused_act(ir, op, out)


def _lower_linear(ir: PlanIR, op: LinearOp, value: int, out_row) -> int:
    out = ir.new_value(out_row)
    # Natural layout: the transposed (f_out, f_in) *view* of the stored
    # weight.  The repack_layouts pass folds the transpose into a
    # C-contiguous stored weight at plan time; unoptimized plans pay one
    # bind-time copy (counted as a bind_repack), never a runtime one.
    weight = op.wt.T  # (f_out, f_in)
    ir.emit(
        Step("gemm", op, (value,), out, attrs={"weight": weight, "label": "linear:gemm"})
    )
    if op.bias is not None:
        bias = np.ascontiguousarray(np.asarray(op.bias, dtype=np.float32).reshape(-1, 1))
        biased = ir.new_value(out_row, alias_of=out)
        ir.emit(
            Step(
                "bias", op, (out,), biased,
                attrs={"bias": bias, "label": "linear:bias"}, in_place=True,
            )
        )
        out = biased
    return _emit_fused_act(ir, op, out)


def _lower_affine(ir: PlanIR, op: AffineOp, value: int, out_row) -> int:
    out = ir.new_value(out_row)
    channels = op.scale.size
    ir.emit(
        Step(
            "affine", op, (value,), out,
            attrs={
                "scale": np.ascontiguousarray(op.scale.reshape(channels, 1)),
                "shift": np.ascontiguousarray(op.shift.reshape(channels, 1)),
                "label": "affine",
            },
        )
    )
    return _emit_fused_act(ir, op, out)


def _lower_act_op(ir: PlanIR, op: ActOp, value: int, out_row) -> int:
    # Standalone activation: out-of-place (the input may be shared); the
    # copy-elision pass rewrites this in place when it is the sole reader.
    out = ir.new_value(out_row)
    slope = _leaky_slope(op) if op.name == "leaky_relu" else 0.0
    known = op.name in fuse._ACT_KERNELS or op.name == "leaky_relu"
    ir.emit(
        Step(
            "act", op, (value,), out,
            attrs={
                "name": op.name,
                "slope": slope,
                "kernel": None if known else op.kernel,
                "label": f"act:{op.name}",
            },
            in_place=False,
        )
    )
    return out


def _lower_max_pool(ir: PlanIR, op: MaxPoolOp, value: int, out_row) -> int:
    out = ir.new_value(out_row)
    ir.emit(
        Step(
            "max_pool", op, (value,), out,
            attrs={
                "kh": op.kh, "kw": op.kw, "sh": op.sh, "sw": op.sw,
                "label": "max_pool",
            },
        )
    )
    return _emit_fused_act(ir, op, out)


def _lower_avg_pool(ir: PlanIR, op: AvgPoolOp, value: int, out_row) -> int:
    c, h, w = ir.values[value].row_shape[1:]
    _, ho, wo = out_row[1:]
    if op.adaptive_output is not None:
        kh, kw = h // ho, w // wo
        sh, sw = kh, kw
    else:
        kh, kw, sh, sw = op.kh, op.kw, op.sh, op.sw
    out = ir.new_value(out_row)
    if (ho, wo) == (1, 1) and (kh, kw) == (h, w):
        ir.emit(
            Step("global_avg_pool", op, (value,), out, attrs={"label": "avg_pool:global"})
        )
    else:
        ir.emit(
            Step(
                "avg_pool", op, (value,), out,
                attrs={"kh": kh, "kw": kw, "sh": sh, "sw": sw, "label": "avg_pool"},
            )
        )
    return _emit_fused_act(ir, op, out)


def _lower_global_avg_pool(ir: PlanIR, op: GlobalAvgPoolOp, value: int, out_row) -> int:
    out = ir.new_value(out_row)
    ir.emit(
        Step("global_avg_pool", op, (value,), out, attrs={"label": "global_avg_pool"})
    )
    return _emit_fused_act(ir, op, out)


def _lower_squeeze_excite(ir: PlanIR, op: SqueezeExciteOp, value: int, out_row) -> int:
    out = ir.new_value(out_row)
    ir.emit(Step("squeeze_excite", op, (value,), out, attrs={"label": "squeeze_excite"}))
    return _emit_fused_act(ir, op, out)


def _lower_fallback(ir: PlanIR, op: FallbackOp, value: int, out_row) -> int:
    out = ir.new_value(out_row)
    ir.emit(Step("fallback", op, (value,), out, attrs={"label": op.name}))
    return out


def _lower_view(ir: PlanIR, op: _Op, value: int, out_row, label: str) -> int:
    out = ir.new_value(out_row, alias_of=value)
    ir.emit(Step("view", op, (value,), out, attrs={"label": label}, in_place=True))
    return out


def _lower_residual(ir: PlanIR, op: ResidualOp, value: int, out_row, shapes) -> int:
    inner = _lower_program(ir, op.inner, value, shapes)
    out = ir.new_value(out_row)
    ir.emit(
        Step("residual_add", op, (inner, value), out, attrs={"label": "residual:add"})
    )
    return out


def _lower_op(ir: PlanIR, op: _Op, value: int, shapes) -> int:
    out_row = shapes[id(op)]
    if isinstance(op, ResidualOp):
        return _lower_residual(ir, op, value, out_row, shapes)
    if isinstance(op, ConvOp):
        return _lower_conv(ir, op, value, out_row)
    if isinstance(op, LinearOp):
        return _lower_linear(ir, op, value, out_row)
    if isinstance(op, AffineOp):
        return _lower_affine(ir, op, value, out_row)
    if isinstance(op, ActOp):
        return _lower_act_op(ir, op, value, out_row)
    if isinstance(op, MaxPoolOp):
        return _lower_max_pool(ir, op, value, out_row)
    if isinstance(op, AvgPoolOp):
        return _lower_avg_pool(ir, op, value, out_row)
    if isinstance(op, GlobalAvgPoolOp):
        return _lower_global_avg_pool(ir, op, value, out_row)
    if isinstance(op, SqueezeExciteOp):
        return _lower_squeeze_excite(ir, op, value, out_row)
    if isinstance(op, FlattenOp):
        if op.start_dim != 1:
            raise Unplannable(f"flatten(start_dim={op.start_dim}) is not plannable")
        return _lower_view(ir, op, value, out_row, "view:flatten")
    if isinstance(op, ReshapeOp):
        return _lower_view(ir, op, value, out_row, "view:reshape")
    if isinstance(op, FallbackOp):
        return _lower_fallback(ir, op, value, out_row)
    raise Unplannable(f"no lowering for op {op.describe()!r}")


def _lower_program(ir: PlanIR, ops: Sequence[_Op], value: int, shapes) -> int:
    for op in ops:
        value = _lower_op(ir, op, value, shapes)
    return value


def lower_template(session: InferenceSession, image_shape: Tuple[int, ...]) -> PlanIR:
    """Trace and lower once per input geometry, at :data:`TRACE_BATCH`."""
    ir = PlanIR((TRACE_BATCH,) + tuple(image_shape))
    shapes = _trace_shapes(session, ir.batch_shape)
    ir.input = ir.new_value(ir.batch_shape)
    trunk = _lower_program(ir, session.ops, ir.input, shapes)
    if session.heads is None:
        ir.outputs[None] = trunk
        return ir
    for name, program in session.heads.items():
        head = _lower_program(ir, program, trunk, shapes)
        if ir.root(head) == ir.root(trunk):
            # Identity head: materialise a private output buffer so every
            # head hands back distinct storage.
            copy = ir.new_value(ir.values[head].row_shape)
            ir.emit(
                Step("copy", None, (head,), copy, attrs={"label": f"head[{name}]:copy"})
            )
            head = copy
        ir.outputs[name] = head
    return ir


def lower_session(session: InferenceSession, batch_shape: Tuple[int, ...]) -> PlanIR:
    """Lower a fused session into an (un-optimized) :class:`PlanIR`."""
    return lower_template(session, batch_shape[1:]).rebatch(batch_shape[0])
