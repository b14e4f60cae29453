"""Buffer binding and execution of optimized plan-IR programs.

The binder walks the (optimized) step graph in order, resolves every
value to a view over a :class:`BufferArena` block using liveness computed
on the *rewritten* program, and compiles each step into a closure over
those views.  A :class:`PlanTemplate` holds the batch-independent part
(trace, lowering, shared passes); :class:`ExecutionPlan` binds a copy of
it per batch shape; :class:`PlannedExecutor` caches both (bounded LRU) and,
where the template's geometry rule says so, runs a batch as per-image
batch-1 plans fanned out over a persistent :class:`_WorkerPool`.
"""

from __future__ import annotations

import dataclasses
import math
import queue
import sys
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..fuse import InferenceSession
from . import kernels
from .ir import (
    PlanIR,
    Step,
    Unplannable,
    conv_geometry,
    estimate_step_cost,
    lower_template,
)
from .kernels import apply_act, mean_weights, spmm_blocks
from .passes import (
    L2_BUDGET_BYTES,
    run_batch_passes,
    run_shared_passes,
    runs_per_image,
)

__all__ = [
    "BufferArena",
    "ExecutionPlan",
    "PlanStats",
    "PlanTemplate",
    "PlannedExecutor",
]


# ---------------------------------------------------------------------------
# The arena
# ---------------------------------------------------------------------------
class _Block:
    __slots__ = ("data", "free")

    def __init__(self, nelems: int):
        self.data = np.empty(nelems, dtype=np.float32)
        self.free = False


class BufferArena:
    """Pool of float32 blocks with liveness-based reuse at plan time.

    ``acquire`` is only ever called while a plan is being *built*: it
    returns a view over a free block large enough for the request (or
    grows the arena by one block).  ``release`` marks a block reusable for
    ops later in the program.  After planning, the arena is frozen — the
    compiled steps hold views into its blocks and steady-state execution
    allocates nothing.
    """

    def __init__(self):
        self._blocks: List[_Block] = []
        self.requested_bytes = 0

    def acquire(self, shape: Tuple[int, ...]) -> Tuple[int, np.ndarray]:
        nelems = max(1, int(math.prod(shape)))
        self.requested_bytes += nelems * 4
        best = None
        for index, block in enumerate(self._blocks):
            if block.free and block.data.size >= nelems:
                if best is None or block.data.size < self._blocks[best].data.size:
                    best = index
        if best is None:
            self._blocks.append(_Block(nelems))
            best = len(self._blocks) - 1
        block = self._blocks[best]
        block.free = False
        return best, block.data[:nelems].reshape(shape)

    def release(self, block_id: int) -> None:
        self._blocks[block_id].free = True

    @property
    def nbytes(self) -> int:
        return sum(block.data.nbytes for block in self._blocks)

    @property
    def num_blocks(self) -> int:
        return len(self._blocks)


@dataclass
class PlanStats:
    """Accounting for one plan (or the aggregate of an executor's plans)."""

    arena_bytes: int = 0
    arena_blocks: int = 0
    requested_bytes: int = 0
    steady_state_allocs: int = 0  # per-run allocations planning could not remove
    num_steps: int = 0
    sparse_ops: int = 0
    gemm_ops: int = 0
    fallback_ops: int = 0
    num_plans: int = 0
    # -- optimizer accounting ------------------------------------------
    fused_steps: int = 0  # bias/act/affine/residual steps absorbed into epilogues
    elided_copies: int = 0  # activations rewritten to run in place (no copy)
    aliased_views: int = 0  # flatten/reshape certified zero-copy (also true unoptimized)
    folded_affines: int = 0  # affines folded exactly into producer bias
    blocked_spmm_ops: int = 0  # SpMM steps running as L2-sized row blocks
    spmm_row_blocks: int = 0  # total row blocks across blocked SpMMs
    layout_repacks: int = 0  # operands canonicalized at plan time (repack pass)
    bind_repacks: int = 0  # operands the *binder* still had to copy (0 when optimized)
    depthwise_rows_ops: int = 0  # depthwise steps running the row-vector kernel

    @property
    def reuse_ratio(self) -> float:
        """Fraction of buffer demand the arena served from reused blocks."""
        if not self.requested_bytes:
            return 0.0
        return 1.0 - self.arena_bytes / self.requested_bytes

    def merged(self, other: "PlanStats") -> "PlanStats":
        """Field-driven sum — a new counter is one line."""
        return PlanStats(**{
            spec.name: getattr(self, spec.name) + getattr(other, spec.name)
            for spec in dataclasses.fields(self)
        })


# ---------------------------------------------------------------------------
# Bound values
# ---------------------------------------------------------------------------
class _Value:
    """A bound intermediate: column-major storage plus its row shape."""

    __slots__ = ("array", "row_shape", "block_id")

    def __init__(self, array: np.ndarray, row_shape: Tuple[int, ...], block_id: Optional[int]):
        self.array = array  # shape row_shape[1:] + (batch,)
        self.row_shape = tuple(row_shape)
        self.block_id = block_id


def _col_shape(row_shape: Tuple[int, ...]) -> Tuple[int, ...]:
    return tuple(row_shape[1:]) + (row_shape[0],)


# ---------------------------------------------------------------------------
# Worker pool (persistent daemon threads, spawned on first use).  Thread k
# always runs thunk k, so a fan-out lane's plan and arena stay with one
# thread, and the caller only waits: when it ran a lane itself, Linux
# kept stacking the worker it had just woken onto its own core (224px,
# two lanes: 14 ms for seconds on end, 8.5 ms once the balancer moved
# one).  Lanes overlap only as far as their kernels release the GIL:
# np.matmul(out=), csr_matvecs and the strided copies do (1.8-1.96x on
# two cores), scipy's f2py sgemm wrapper does not — which is why
# per-image plans never bind kernels.beta_gemm.
# ---------------------------------------------------------------------------
class _WorkerPool:
    def __init__(self):
        self._lock = threading.Lock()  # enqueueing vs. close()
        self._workers: List[Tuple[threading.Thread, "queue.SimpleQueue"]] = []

    @staticmethod
    def _loop(tasks: "queue.SimpleQueue") -> None:
        while True:
            task = tasks.get()
            if task is None:  # shutdown sentinel from close()
                return
            fn, done, errors = task
            try:
                fn()
            except BaseException as error:  # surfaced by run_all
                errors.append(error)
            finally:
                done.release()

    def run_all(self, thunks: Sequence[Callable[[], None]]) -> None:
        """Run ``thunks`` concurrently, one per thread, and wait for all."""
        done = threading.Semaphore(0)
        errors: List[BaseException] = []
        with self._lock:
            while len(self._workers) < len(thunks):
                tasks: "queue.SimpleQueue" = queue.SimpleQueue()
                thread = threading.Thread(
                    target=self._loop, args=(tasks,), daemon=True,
                    name=f"repro-engine-{len(self._workers)}",
                )
                thread.start()
                self._workers.append((thread, tasks))
            for fn, (_, tasks) in zip(thunks, self._workers):
                tasks.put((fn, done, errors))
        for _ in thunks:
            done.acquire()
        if errors:
            raise errors[0]

    def close(self) -> None:
        """Stop the worker threads and wait for them: a thread still
        inside a step finishes it first, so none outlives ``close()``.
        Idempotent; a later ``run_all`` starts fresh threads."""
        with self._lock:
            workers, self._workers = self._workers, []
            for _, tasks in workers:
                tasks.put(None)
        for thread, _ in workers:
            thread.join()


# ---------------------------------------------------------------------------
# The binder: IR -> arena-bound closures
# ---------------------------------------------------------------------------
class _Binder:
    def __init__(self, ir: PlanIR, arena: BufferArena, stats: PlanStats):
        self.ir = ir
        self.arena = arena
        self.stats = stats
        self.batch = ir.batch
        self.bindings: Dict[int, _Value] = {}
        self.steps: List[Tuple[str, Callable[[], None]]] = []
        self.last_read: Dict[int, int] = {}
        self.protected = {ir.root(ir.input)}
        for vid in ir.outputs.values():
            self.protected.add(ir.root(vid))
        for index, step in enumerate(ir.steps):
            for vid in step.reads():
                self.last_read[ir.root(vid)] = index

    # -- value plumbing -------------------------------------------------
    def define(self, vid: int) -> np.ndarray:
        root = self.ir.root(vid)
        if root not in self.bindings:
            row_shape = self.ir.values[root].row_shape
            block_id, array = self.arena.acquire(_col_shape(row_shape))
            self.bindings[root] = _Value(array, row_shape, block_id)
        return self.resolve(vid)

    def resolve(self, vid: int) -> np.ndarray:
        root = self.ir.root(vid)
        bound = self.bindings[root]
        row_shape = self.ir.values[vid].row_shape
        if row_shape == bound.row_shape:
            return bound.array
        return bound.array.reshape(_col_shape(row_shape))

    def scratch(self, shape: Tuple[int, ...]) -> Tuple[int, np.ndarray]:
        return self.arena.acquire(shape)

    def _canon(self, arr: Optional[np.ndarray]) -> Optional[np.ndarray]:
        """C-contiguous float32 view of a weight-like operand.

        After the repack_layouts pass this is a no-op; when it still has
        to copy (unoptimized plans, or a pass regression) the copy is
        plan-time-only but counted as a ``bind_repack`` so tests can
        assert optimized plans never need one.
        """
        if arr is None or (arr.flags.c_contiguous and arr.dtype == np.float32):
            return arr
        self.stats.bind_repacks += 1
        return np.ascontiguousarray(arr, dtype=np.float32)

    def emit(self, label: str, fn: Callable[[], None]) -> None:
        self.steps.append((label, fn))
        self.stats.num_steps += 1

    def _release_dead(self, index: int, step: Step) -> None:
        for vid in step.reads():
            root = self.ir.root(vid)
            if (
                root not in self.protected
                and root in self.bindings
                and self.last_read.get(root) == index
            ):
                bound = self.bindings[root]
                if bound.block_id is not None:
                    self.arena.release(bound.block_id)

    # -- epilogue -------------------------------------------------------
    def _bind_epilogue(
        self, step: Step, out: np.ndarray, skip_first: int = 0
    ) -> List[Callable[[], None]]:
        """Compile the epilogue entries (minus the first ``skip_first``,
        which the main kernel already absorbed) into in-place closures."""
        ops: List[Callable[[], None]] = []
        entries = step.epilogue[skip_first:]
        for entry in entries:
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
                scratch = None
                sid = None
                if kernels.act_needs_scratch(name):
                    sid, scratch = self.scratch(out.shape)
                ops.append(
                    lambda y=out, s=scratch, nm=name, sl=slope: apply_act(nm, y, s, sl)
                )
                if sid is not None:
                    self.arena.release(sid)
            elif entry[0] == "add":
                skip = self.resolve(entry[1])
                ops.append(lambda y=out, s=skip: np.add(y, s, out=y))
        return ops

    @staticmethod
    def _chain(main: Callable[[], None], ops: List[Callable[[], None]]):
        if not ops:
            return main
        if len(ops) == 1:
            tail = ops[0]

            def run_one(main=main, tail=tail):
                main()
                tail()

            return run_one

        def run_chain(main=main, ops=tuple(ops)):
            main()
            for op in ops:
                op()

        return run_chain

    # -- per-kind binding ----------------------------------------------
    def bind(self) -> None:
        for index, step in enumerate(self.ir.steps):
            handler = getattr(self, f"_bind_{step.kind}", None)
            if handler is None:
                raise Unplannable(f"no binding for step kind {step.kind!r}")
            self._index = index
            handler(step)
            self._release_dead(index, step)

    def _bind_view(self, step: Step) -> None:
        pass  # pure alias: no runtime work, no buffer

    def _bind_conv_gemm(self, step: Step) -> None:
        x = self.resolve(step.inputs[0])
        out = self.define(step.output)
        weight = self._canon(step.attrs["weight"])
        c_out, c_in = weight.shape
        x2 = x.reshape(c_in, -1)
        y2 = out.reshape(c_out, -1)
        beta = bool(step.attrs.get("beta_gemm") and step.epilogue)
        folded_add = (
            beta
            and len(step.epilogue) >= 2
            and step.epilogue[1][0] == "add"
        )
        if folded_add:
            # conv -> bias -> residual add: seed the output with
            # ``skip + bias`` in one pass, then accumulate the GEMM onto
            # it — two whole-tensor passes become one.
            skip2 = self.resolve(step.epilogue[1][1]).reshape(c_out, -1)
            bias = step.epilogue[0][1]

            def main(W=weight, x=x2, y=y2, b=bias, s=skip2):
                np.add(s, b, out=y)
                kernels.beta_gemm(W, x, y)

        elif beta:
            bias = step.epilogue[0][1]

            def main(W=weight, x=x2, y=y2, b=bias):
                np.copyto(y, b)  # row-constant fill, then sgemm(beta=1)
                kernels.beta_gemm(W, x, y)

        else:

            def main(W=weight, x=x2, y=y2):
                np.matmul(W, x, out=y)

        self.emit(
            step.describe(),
            self._chain(
                main,
                self._bind_epilogue(
                    step, out, skip_first=2 if folded_add else (1 if beta else 0)
                ),
            ),
        )
        self.stats.gemm_ops += 1

    _bind_gemm = _bind_conv_gemm  # linear layers bind identically

    def _bind_conv_spmm(self, step: Step) -> None:
        x = self.resolve(step.inputs[0])
        out = self.define(step.output)
        n = self.batch
        x2 = x.reshape(-1, n)
        y2 = out.reshape(-1, n)
        geometry = conv_geometry(self.ir, step)
        prefill = bool(step.attrs.get("bias_prefill") and step.epilogue)
        if prefill:
            bias = step.epilogue[0][1]
            c = bias.shape[0]
            yc = y2.reshape(c, -1)  # 2-D row-constant broadcast fills fast

            def fill(y=yc, b=bias):
                np.copyto(y, b)

        else:

            def fill(y=y2):
                y.fill(0.0)

        if "dw_rows" in step.attrs:
            rows = kernels.conv_csr_cached(
                step.op, "rows", kernels.DepthwiseRows, *geometry
            )
            slab_id, slab = self.scratch(rows.slab_shape(step.attrs["dw_rows"], n))
            conv = rows.bind(x, out, slab)
            self.arena.release(slab_id)

            def main(fill=fill, conv=conv):
                fill()
                conv()

        elif "row_blocks" in step.attrs:

            def main(b=step.attrs["row_blocks"], x=x2, y=y2, fill=fill):
                fill()
                spmm_blocks(b, x, y)

        else:

            def main(m=kernels.conv_matrix(step.op, *geometry), x=x2, y=y2, fill=fill):
                fill()
                kernels.spmm_accumulate(m, x, y)

        self.emit(
            step.describe(),
            self._chain(
                main, self._bind_epilogue(step, out, skip_first=1 if prefill else 0)
            ),
        )
        self.stats.sparse_ops += 1

    def _bind_conv_gather_gemm(self, step: Step) -> None:
        x = self.resolve(step.inputs[0])
        out = self.define(step.output)
        n = self.batch
        op = step.op
        weight = self._canon(step.attrs["weight"])
        c_out, ckk = weight.shape
        c_in, _, _, ho, wo = geometry = conv_geometry(self.ir, step)
        y2 = out.reshape(c_out, -1)
        # im2col is data movement, not a pass decision: optimized and
        # reference plans bind the same copies (borders re-zeroed per run,
        # the column buffer is recycled arena scratch).
        im2col = kernels.conv_csr_cached(op, "im2col", kernels.im2col_copies, *geometry)
        cid, cols = self.scratch((c_in, op.kh, op.kw, ho, wo, n))
        gather = im2col.bind(x, cols)
        cols2 = cols.reshape(ckk, -1)
        beta = bool(step.attrs.get("beta_gemm") and step.epilogue)
        if beta:

            def main(gather=gather, W=weight, c=cols2, y=y2, b=step.epilogue[0][1]):
                gather()
                np.copyto(y, b)
                kernels.beta_gemm(W, c, y)

        else:

            def main(gather=gather, W=weight, c=cols2, y=y2):
                gather()
                np.matmul(W, c, out=y)

        self.emit(
            step.describe(),
            self._chain(
                main, self._bind_epilogue(step, out, skip_first=1 if beta else 0)
            ),
        )
        self.stats.gemm_ops += 1
        self.arena.release(cid)

    def _bind_conv_rowwise(self, step: Step) -> None:
        # scipy-less fallback: run the fused kernel in row layout (the op
        # applies its own bias and activation).
        x = self.resolve(step.inputs[0])
        out = self.define(step.output)
        row_shape = self.ir.values[step.inputs[0]].row_shape
        op = step.op

        def main(op=op, x=x, y=out, shape=row_shape):
            row = np.ascontiguousarray(np.moveaxis(x, -1, 0)).reshape(shape)
            np.copyto(y, np.moveaxis(op(row), 0, -1))

        self.emit(step.describe(), main)
        self.stats.fallback_ops += 1
        self.stats.steady_state_allocs += 2

    def _bind_bias(self, step: Step) -> None:
        out = self.define(step.output)
        bias = self._canon(step.attrs["bias"])
        y2 = out.reshape(bias.shape[0], -1)
        self.emit(step.describe(), lambda y=y2, b=bias: np.add(y, b, out=y))

    def _bind_affine(self, step: Step) -> None:
        x = self.resolve(step.inputs[0])
        out = self.define(step.output)
        scale = self._canon(step.attrs["scale"])
        shift = self._canon(step.attrs["shift"])
        channels = scale.shape[0]
        x2 = x.reshape(channels, -1)
        y2 = out.reshape(channels, -1)

        def main(x=x2, y=y2, s=scale, b=shift):
            np.multiply(x, s, out=y)
            np.add(y, b, out=y)

        self.emit(
            step.describe(), self._chain(main, self._bind_epilogue(step, out))
        )

    def _bind_act(self, step: Step) -> None:
        x = self.resolve(step.inputs[0])
        out = self.define(step.output)
        name = step.attrs["name"]
        custom = step.attrs.get("kernel")
        if custom is not None:

            def main(x=x, y=out, k=custom):
                np.copyto(y, x)
                np.copyto(y, k(y))

            self.emit(step.describe(), main)
            return
        slope = step.attrs.get("slope", 0.0)
        scratch = None
        sid = None
        if kernels.act_needs_scratch(name):
            sid, scratch = self.scratch(out.shape)
        if step.in_place:

            def main(y=out, s=scratch, nm=name, sl=slope):
                apply_act(nm, y, s, sl)

        else:

            def main(x=x, y=out, s=scratch, nm=name, sl=slope):
                np.copyto(y, x)
                apply_act(nm, y, s, sl)

        self.emit(step.describe(), main)
        if sid is not None:
            self.arena.release(sid)

    def _bind_max_pool(self, step: Step) -> None:
        x = self.resolve(step.inputs[0])
        out = self.define(step.output)
        _, ho, wo = self.ir.values[step.output].row_shape[1:]
        kh, kw = step.attrs["kh"], step.attrs["kw"]
        sh, sw = step.attrs["sh"], step.attrs["sw"]
        eh, ew = (ho - 1) * sh + 1, (wo - 1) * sw + 1

        def main(x=x, y=out):
            np.copyto(y, x[:, 0:eh:sh, 0:ew:sw, :])
            for i in range(kh):
                for j in range(kw):
                    if i == 0 and j == 0:
                        continue
                    np.maximum(y, x[:, i : i + eh : sh, j : j + ew : sw, :], out=y)

        self.emit(
            step.describe(), self._chain(main, self._bind_epilogue(step, out))
        )

    def _bind_avg_pool(self, step: Step) -> None:
        x = self.resolve(step.inputs[0])
        out = self.define(step.output)
        _, ho, wo = self.ir.values[step.output].row_shape[1:]
        kh, kw = step.attrs["kh"], step.attrs["kw"]
        sh, sw = step.attrs["sh"], step.attrs["sw"]
        eh, ew = (ho - 1) * sh + 1, (wo - 1) * sw + 1
        inv = 1.0 / (kh * kw)

        def main(x=x, y=out):
            np.copyto(y, x[:, 0:eh:sh, 0:ew:sw, :])
            for i in range(kh):
                for j in range(kw):
                    if i == 0 and j == 0:
                        continue
                    y += x[:, i : i + eh : sh, j : j + ew : sw, :]
            y *= inv

        self.emit(
            step.describe(), self._chain(main, self._bind_epilogue(step, out))
        )

    def _bind_global_avg_pool(self, step: Step) -> None:
        x = self.resolve(step.inputs[0])
        out = self.define(step.output)
        c, h, w = self.ir.values[step.inputs[0]].row_shape[1:]
        n = self.batch
        x3 = x.reshape(c, h * w, n)
        # Canonical kernel: the axis mean as a GEMM.  Both the optimized
        # and unoptimized binders take this path so plans stay bit-exact
        # across the optimizer (np.mean over the middle axis of a column
        # tensor is also an order of magnitude slower than BLAS here).
        weights = mean_weights(h * w)
        y3 = out.reshape(c, 1, n)
        main = lambda W=weights, x=x3, y=y3: np.matmul(W, x, out=y)  # noqa: E731
        self.emit(
            step.describe(), self._chain(main, self._bind_epilogue(step, out))
        )

    def _bind_squeeze_excite(self, step: Step) -> None:
        op = step.op
        x = self.resolve(step.inputs[0])
        out = self.define(step.output)
        c, h, w = self.ir.values[step.inputs[0]].row_shape[1:]
        n = self.batch
        # The repack pass stages the transposed weights C-contiguously on
        # the step; unoptimized plans canonicalize here (counted).
        reduce_w = step.attrs.get("reduce_w")
        if reduce_w is None:
            reduce_w = self._canon(op.reduce_wt.T)  # (reduced, c)
            expand_w = self._canon(op.expand_wt.T)  # (c, reduced)
            reduce_b = self._canon(op.reduce_b.reshape(-1, 1))
            expand_b = self._canon(op.expand_b.reshape(-1, 1))
        else:
            expand_w = step.attrs["expand_w"]
            reduce_b = step.attrs["reduce_b"]
            expand_b = step.attrs["expand_b"]
        reduced = reduce_w.shape[0]
        pid, pooled = self.scratch((c, n))
        hid, hidden = self.scratch((reduced, n))
        gid, gate = self.scratch((c, n))
        needs_scratch = (
            op.bottleneck_name in kernels.SCRATCH_ACTS
            or op.gate_name in kernels.SCRATCH_ACTS
        )
        sid, scratch = (
            self.scratch((max(reduced, c), n)) if needs_scratch else (None, None)
        )
        x3 = x.reshape(c, h * w, n)
        y3 = out.reshape(c, h * w, n)
        bottleneck, gate_name = op.bottleneck_name, op.gate_name
        # Canonical GEMM mean (see _bind_global_avg_pool): keeping the
        # kernel choice pass-independent keeps optimized and unoptimized
        # plans bit-identical.
        weights = mean_weights(h * w)
        pooled3 = pooled.reshape(c, 1, n)

        def main(
            x=x3, y=y3, pooled=pooled, hidden=hidden, gate=gate, scratch=scratch
        ):
            np.matmul(weights, x, out=pooled3)
            np.matmul(reduce_w, pooled, out=hidden)
            hidden += reduce_b
            apply_act(
                bottleneck,
                hidden,
                None if scratch is None else scratch[: hidden.shape[0]],
            )
            np.matmul(expand_w, hidden, out=gate)
            gate += expand_b
            apply_act(
                gate_name,
                gate,
                None if scratch is None else scratch[: gate.shape[0]],
            )
            np.multiply(x, gate[:, None, :], out=y)

        self.emit(
            step.describe(), self._chain(main, self._bind_epilogue(step, out))
        )
        self.stats.gemm_ops += 2
        for block_id in (pid, hid, gid, sid):
            if block_id is not None:
                self.arena.release(block_id)

    def _bind_residual_add(self, step: Step) -> None:
        inner_vid, skip_vid = step.inputs
        inner_root = self.ir.root(inner_vid)
        skip_root = self.ir.root(skip_vid)
        inner = self.resolve(inner_vid)
        skip = self.resolve(skip_vid)
        index = self._index
        in_place = (
            inner_root != skip_root
            and inner_root not in self.protected
            and self.last_read.get(inner_root) == index
        )
        if in_place:
            # The output takes over inner's storage, so inner's block
            # inherits the output's liveness and protection — the
            # precomputed last_read/protected predate this realias, and
            # without the merge the block would be freed at this step
            # and handed to a later value while downstream steps still
            # read the sum through the alias.
            out_root = self.ir.root(step.output)
            self.ir.realias(step.output, inner_vid)
            self.last_read[inner_root] = max(
                self.last_read.get(inner_root, index),
                self.last_read.get(out_root, index),
            )
            if out_root in self.protected:
                self.protected.add(inner_root)
            out = self.resolve(step.output)
            self.emit(
                step.describe(), lambda y=out, s=skip: np.add(y, s, out=y)
            )
        else:
            out = self.define(step.output)
            self.emit(
                step.describe(),
                lambda a=inner, b=skip, y=out: np.add(a, b, out=y),
            )

    def _bind_copy(self, step: Step) -> None:
        x = self.resolve(step.inputs[0])
        out = self.define(step.output)
        self.emit(step.describe(), lambda x=x, y=out: np.copyto(y, x))

    def _bind_fallback(self, step: Step) -> None:
        x = self.resolve(step.inputs[0])
        out = self.define(step.output)
        row_shape = self.ir.values[step.inputs[0]].row_shape
        op = step.op

        def main(op=op, x=x, y=out, shape=row_shape):
            row = np.ascontiguousarray(np.moveaxis(x, -1, 0)).reshape(shape)
            result = op(row)
            np.copyto(y, np.moveaxis(np.asarray(result, dtype=np.float32), 0, -1))

        self.emit(step.describe(), main)
        self.stats.fallback_ops += 1
        self.stats.steady_state_allocs += 2


# ---------------------------------------------------------------------------
# PlanTemplate
# ---------------------------------------------------------------------------
class PlanTemplate:
    """What no batch size changes about a session's plans at one input
    geometry: one shape trace, one lowering and the shared passes, whose
    counters live on ``stats`` and whose repacked weights every plan
    shares — and how a batch executes there: ``per_image`` is
    :func:`~repro.nn.engine.passes.runs_per_image` on the lowered
    program, decided before the passes because per-image plans select
    GIL-releasing GEMMs.  :meth:`instantiate` never writes to ``ir``.
    """

    def __init__(
        self, session: InferenceSession, image_shape: Tuple[int, ...],
        optimize: bool = True, disabled_passes: Tuple[str, ...] = (),
        l2_bytes: int = L2_BUDGET_BYTES,
    ):
        self.optimize = bool(optimize)
        self.disabled = tuple(disabled_passes)
        self.l2_bytes = int(l2_bytes)
        self.stats = PlanStats()
        self.ir = lower_template(session, image_shape)
        self.ir.per_image = runs_per_image(self.ir, self.l2_bytes)
        if self.optimize:
            run_shared_passes(self.ir, self.stats, self.disabled)
        #: The executor's bound batch-1 plans, one per fan-out thread
        #: (kept here so they live and die with the geometry's template).
        self.lanes: List["ExecutionPlan"] = []

    @property
    def per_image(self) -> bool:
        return self.ir.per_image

    def instantiate(
        self, batch: int, stats: Optional[PlanStats] = None,
        l2_bytes: Optional[int] = None,
    ) -> PlanIR:
        """The optimized IR at ``batch``, ready to bind — a pure function
        of the template, ``batch`` and ``l2_bytes`` (default: the
        template's), so the text provenance digests hash is the text of
        the plan that runs."""
        ir = self.ir.rebatch(batch)
        if self.optimize:
            run_batch_passes(
                ir, PlanStats() if stats is None else stats,
                l2_bytes=self.l2_bytes if l2_bytes is None else l2_bytes,
                disabled=self.disabled,
            )
        return ir


# ---------------------------------------------------------------------------
# ExecutionPlan
# ---------------------------------------------------------------------------
class ExecutionPlan:
    """A compiled session bound to one batch shape, arena and step list.

    The :class:`PlanTemplate` (``template``, else a private one) is
    instantiated for the batch and the binder compiles the result
    against a private :class:`BufferArena`.  ``run`` executes the bound
    steps and writes results either into caller-provided output arrays
    (``out=``) or into plan-owned row-major result buffers (valid until
    the next ``run``).
    """

    def __init__(
        self,
        session: InferenceSession,
        batch_shape: Tuple[int, ...],
        optimize: bool = True,
        l2_bytes: Optional[int] = None,
        disabled_passes: Tuple[str, ...] = (),
        template: Optional[PlanTemplate] = None,
    ):
        self.session = session
        self.batch_shape = tuple(int(s) for s in batch_shape)
        if template is None:
            template = PlanTemplate(
                session, self.batch_shape[1:], optimize, disabled_passes,
                L2_BUDGET_BYTES if l2_bytes is None else l2_bytes,
            )
        self.optimized = template.optimize
        self.arena = BufferArena()
        self.stats = template.stats.merged(PlanStats(num_plans=1))
        self.ir = template.instantiate(
            self.batch_shape[0], self.stats, l2_bytes=l2_bytes
        )

        binder = _Binder(self.ir, self.arena, self.stats)
        in_array = binder.define(self.ir.input)
        binder.bind()
        self._steps = binder.steps
        self._step_fns = [fn for _, fn in binder.steps]
        self._in_view = np.moveaxis(in_array, -1, 0)  # row-shaped strided view

        self._outputs: Dict[Optional[str], _Value] = {}
        for name, vid in self.ir.outputs.items():
            array = binder.resolve(vid)
            self._outputs[name] = _Value(
                array, self.ir.values[vid].row_shape, None
            )
        self.stats.arena_bytes = self.arena.nbytes
        self.stats.arena_blocks = self.arena.num_blocks
        self.stats.requested_bytes = self.arena.requested_bytes
        # Row-shaped views of the column outputs (the final transpose reads
        # through these); the row-major result buffers are created lazily —
        # fan-out lanes inside an executor mostly run with ``out=``.
        self._results: Optional[Dict[Optional[str], np.ndarray]] = None
        self._out_views = {
            name: np.moveaxis(val.array, -1, 0)
            for name, val in self._outputs.items()
        }

    # -- execution ------------------------------------------------------
    def run(self, x: np.ndarray, out=None):
        x = np.asarray(x, dtype=np.float32)
        if tuple(x.shape) != self.batch_shape:
            raise ValueError(
                f"plan compiled for batch shape {self.batch_shape}, got {tuple(x.shape)}"
            )
        np.copyto(self._in_view, x)
        for fn in self._step_fns:
            fn()
        return self._collect(out)

    __call__ = run

    def _collect(self, out):
        """Copy arena output views into ``out`` (or cached result arrays)."""
        if out is None:
            if self._results is None:
                self._results = {
                    name: np.empty(val.row_shape, dtype=np.float32)
                    for name, val in self._outputs.items()
                }
            out = self._results if None not in self._outputs else self._results[None]
        if None in self._outputs:
            np.copyto(out, self._out_views[None])
            return out
        outputs = {}
        for name, view in self._out_views.items():
            np.copyto(out[name], view)
            outputs[name] = out[name]
        return outputs

    def describe(self) -> str:
        stats = self.stats
        lines = [
            f"ExecutionPlan(batch={self.batch_shape}, "
            f"arena={self.arena.nbytes / 1024:.0f} KiB in {self.arena.num_blocks} "
            f"blocks, reuse={stats.reuse_ratio:.0%})",
            f"optimizer: {'on' if self.optimized else 'off'} — "
            f"{stats.fused_steps} fused epilogue step(s), "
            f"{stats.elided_copies} copy(ies) elided (in-place acts), "
            f"{stats.aliased_views} view(s) aliased, "
            f"{stats.folded_affines} affine(s) folded exactly, "
            f"{stats.layout_repacks} operand(s) repacked, "
            f"{stats.depthwise_rows_ops} depthwise step(s) on row vectors, "
            f"{stats.blocked_spmm_ops} blocked SpMM(s) "
            f"({stats.spmm_row_blocks} row blocks)",
        ]
        for step in self.ir.steps:
            label = step.describe()
            if step.kind == "view":
                lines.append(f"{label} (zero-copy alias)")
                continue
            flops, nbytes = estimate_step_cost(self.ir, step)
            passes = step.attrs.get("passes") or []
            provenance = ",".join(passes) if passes else "lower"
            if "dw_rows" in step.attrs:
                provenance += f"->rows(x{step.attrs['dw_rows']} planes)"
            note = " (copy elided, in place)" if step.attrs.get("elided") else ""
            lines.append(
                f"{label}{note}  "
                f"[~{flops / 1e6:.1f} MFLOP, {nbytes / 2**20:.2f} MiB | {provenance}]"
            )
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"ExecutionPlan(batch={self.batch_shape}, steps={len(self._steps)}, "
            f"arena_bytes={self.arena.nbytes})"
        )


# ---------------------------------------------------------------------------
# PlannedExecutor
# ---------------------------------------------------------------------------
class _PreparedBatch:
    __slots__ = ("parts", "lanes", "outputs")

    def __init__(self, parts, width, outputs):
        self.parts = parts  # list of (slice, ExecutionPlan), in row order
        # What each thread runs: part i belongs to lane i % width.
        self.lanes = [parts[lane::width] for lane in range(width)]
        self.outputs = outputs  # None | ndarray | dict name -> ndarray


class PlannedExecutor:
    """Plan-cached executor with the ``InferenceSession`` API.

    One :class:`ExecutionPlan` (with its own arena) is built lazily for
    each observed batch shape and reused afterwards, so steady-state
    traffic with stable batch sizes runs allocation-free.  The per-shape
    cache is a bounded LRU (``max_plans``): a long-running deployment
    serving many input shapes evicts its least-recently-used plans
    instead of growing arena memory without limit.  Plans of one input
    geometry rebind its :class:`PlanTemplate` (same bound) instead of
    tracing and lowering again.

    How a batch of ``N`` executes is the template's geometry rule
    (``PlanTemplate.per_image``), never a setting: below it, one
    batch-last plan; in the hires regime, ``N`` runs of the batch-1 plan
    — image ``i`` on lane ``i % width``, each lane a bound plan owned by
    one persistent thread, ``width = min(N, fan_out)``.  An image's
    result then depends on neither its batch nor the host's core count:
    ``fan_out`` only chooses how many threads run the same plans.  It is
    an internal argument (:func:`~repro.nn.engine.threads.fan_out_width`
    in a deployment, which pins BLAS first; 1 for a bare executor), as
    is ``l2_bytes``, the budget behind the rule and the blocking passes.

    Outputs are executor-owned buffers overwritten by the next ``run``;
    pass ``copy_outputs=True`` to hand back private copies instead (the
    server runtime does, because callers keep its logits).
    """

    def __init__(
        self,
        session: InferenceSession,
        copy_outputs: bool = False,
        max_plans: int = 8,
        optimize: bool = True,
        fan_out: int = 1,
        l2_bytes: int = L2_BUDGET_BYTES,
    ):
        if fan_out < 1:
            raise ValueError(f"fan_out must be >= 1, got {fan_out}")
        if max_plans < 1:
            raise ValueError(f"max_plans must be >= 1, got {max_plans}")
        self.session = session
        self.copy_outputs = copy_outputs
        self.max_plans = int(max_plans)
        self.optimize = bool(optimize)
        self.fan_out = int(fan_out)
        self.l2_bytes = int(l2_bytes)
        self._prepared: "OrderedDict[Tuple[int, ...], _PreparedBatch]" = OrderedDict()
        self._templates: "OrderedDict[Tuple[int, ...], PlanTemplate]" = OrderedDict()
        self._template_lock = threading.Lock()
        self._pool = _WorkerPool()
        self._unplannable = False

    # -- plan management ------------------------------------------------
    def _template(self, image_shape: Tuple[int, ...]) -> PlanTemplate:
        """The (LRU-cached) template all plans of one input geometry share.
        Locked: provenance digests read it off the serving thread."""
        with self._template_lock:
            template = self._templates.get(image_shape)
            if template is None:
                template = PlanTemplate(
                    self.session, image_shape, self.optimize, l2_bytes=self.l2_bytes
                )
                if len(self._templates) >= self.max_plans:
                    self._templates.popitem(last=False)
                self._templates[image_shape] = template
            else:
                self._templates.move_to_end(image_shape)
            return template

    def plan_ir(self, batch_shape: Tuple[int, ...]) -> PlanIR:
        """The IR every image of a ``batch_shape`` batch runs through —
        the batch-1 program in the per-image regime — as pure IR work, no
        arena.  Raises ``Unplannable``."""
        template = self._template(tuple(int(s) for s in batch_shape[1:]))
        return template.instantiate(1 if template.per_image else batch_shape[0])

    def _prepare(self, shape: Tuple[int, ...]) -> _PreparedBatch:
        prepared = self._prepared.get(shape)
        if prepared is not None:
            self._prepared.move_to_end(shape)  # LRU touch
            return prepared
        n = shape[0]
        template = self._template(tuple(shape[1:]))
        width = 1
        if template.per_image:
            width, lanes = min(n, self.fan_out), template.lanes
            while len(lanes) < width:
                lanes.append(
                    ExecutionPlan(self.session, (1,) + shape[1:], template=template)
                )
            parts = [(slice(i, i + 1), lanes[i % width]) for i in range(n)]
        else:
            parts = [(slice(0, n), ExecutionPlan(self.session, shape, template=template))]
        sample = parts[0][1]
        if len(parts) == 1:
            outputs = None  # a single plan returns its own result buffers
        elif None in sample._outputs:
            outputs = np.empty(
                (n,) + sample._outputs[None].row_shape[1:], dtype=np.float32
            )
        else:
            outputs = {
                name: np.empty((n,) + val.row_shape[1:], dtype=np.float32)
                for name, val in sample._outputs.items()
            }
        prepared = _PreparedBatch(parts, width, outputs)
        if len(self._prepared) >= self.max_plans:
            self._prepared.popitem(last=False)  # evict least recently used
        self._prepared[shape] = prepared
        return prepared

    # -- execution ------------------------------------------------------
    @staticmethod
    def _run_lane(lane, x: np.ndarray, outputs) -> None:
        for rows, plan in lane:
            if isinstance(outputs, dict):
                out = {name: arr[rows] for name, arr in outputs.items()}
            else:
                out = outputs[rows]
            plan.run(x[rows], out=out)

    def run(self, x: np.ndarray):
        # No ascontiguousarray here: it silently re-copied every strided
        # input batch in steady state (an allocation the counter never
        # saw).  The plans copy into their arena input views with
        # np.copyto, which handles any stride layout.
        x = np.asarray(x, dtype=np.float32)
        if self._unplannable or (x.ndim and x.shape[0] == 0):
            return self.session.run(x)
        try:
            prepared = self._prepare(tuple(x.shape))
        except Unplannable:
            self._unplannable = True
            return self.session.run(x)
        result = prepared.outputs
        if result is None:
            result = prepared.parts[0][1].run(x)
        elif len(prepared.lanes) == 1:
            self._run_lane(prepared.lanes[0], x, result)
        else:
            self._pool.run_all([
                lambda lane=lane: self._run_lane(lane, x, result)
                for lane in prepared.lanes
            ])
        if self.copy_outputs:
            if isinstance(result, dict):
                return {name: arr.copy() for name, arr in result.items()}
            return result.copy()
        return result

    __call__ = run

    def close(self) -> None:
        """Stop the fan-out threads and wait for them.  Idempotent; the
        executor keeps working afterwards (a fan-out run starts new ones)."""
        self._pool.close()

    def __enter__(self) -> "PlannedExecutor":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - interpreter-shutdown timing
        # Not at shutdown: daemon threads are frozen then and never join.
        pool = self.__dict__.get("_pool")
        if pool is not None and not sys.is_finalizing():
            pool.close()

    # -- introspection --------------------------------------------------
    @property
    def planned(self) -> bool:
        return not self._unplannable

    @property
    def stats(self) -> PlanStats:
        plans = {
            id(plan): plan
            for prepared in self._prepared.values()
            for _, plan in prepared.parts
        }
        total = PlanStats()
        for plan in plans.values():
            total = total.merged(plan.stats)
        return total

    @property
    def num_ops(self) -> int:
        return self.session.num_ops

    def describe(self) -> str:
        header = (
            f"PlannedExecutor(fan_out={self.fan_out}, "
            f"plans={self.stats.num_plans}, optimize={self.optimize})"
        )
        return "\n".join([header, self.session.describe()])

    def __repr__(self) -> str:
        return (
            f"PlannedExecutor(fan_out={self.fan_out}, "
            f"shapes={list(self._prepared)}, session={self.session!r})"
        )
