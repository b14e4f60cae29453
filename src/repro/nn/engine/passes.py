"""Optimizer passes over the plan-IR.

Each pass rewrites the typed step graph *before* buffers are bound, so
the arena's liveness analysis runs on the optimized program.  The
pipeline (:func:`run_passes`) is:

1. :func:`elide_copies` — flatten/reshape views stay storage aliases and
   standalone activations whose input has no other reader run in place,
   so whole-tensor copies disappear from the program;
2. :func:`fuse_epilogues` — chains of ``bias`` / ``act`` / ``affine`` /
   ``residual_add`` steps collapse into their producing GEMM/SpMM/pool
   step's *epilogue*: one bound closure applies them on the output while
   it is still cache-hot, instead of separate whole-tensor passes.
   Affines fold into the producer's bias where that is exact (scale of
   all ones); otherwise they become a fused scale/shift epilogue entry,
   which is bit-identical to the standalone step;
3. :func:`select_kernels` — flips kernel implementations to the forms
   measured faster on the benchmark hosts: axis means as GEMMs, GEMM
   biases folded into ``sgemm(beta=1)`` accumulators (bit-exact; not in
   per-image plans, whose GEMMs must release the GIL), and SpMM outputs
   pre-filled with the bias so the separate bias pass vanishes into the
   accumulate;
4. :func:`block_spmm` — partitions the per-plane CSR of grouped and
   depthwise convolutions into row blocks sized to the L2 budget
   (aligned to output planes) so each ``csr_matvecs`` call streams a
   bounded working set, and pre-packs the block index structures at
   plan time.

Between kernel selection and SpMM blocking two further passes run:
:func:`repack_layouts` canonicalizes every weight-like operand to
C-contiguous float32 at plan time (folding lowering's transposed views
into the stored weight) so GEMMs always hit the BLAS fast path without
bind- or run-time ``ascontiguousarray`` copies, and
:func:`block_depthwise` moves depthwise SpMMs onto the row-vector kernel
(:class:`kernels.DepthwiseRows`, bit-identical to per-plane CSR) where
the step's geometry and batch say it wins — a pure function of the plan,
nothing is timed.  Before any of them, :func:`runs_per_image` reads off
the lowered program whether the geometry is in the *hires regime*, where
a batch executes as per-image runs of the batch-1 plan.

Passes mutate the IR in place, record what they did on the stats
object (``fused_steps``, ``elided_copies``, ``folded_affines``,
``layout_repacks``, ``depthwise_rows_ops``, ``blocked_spmm_ops``,
``spmm_row_blocks``) and append their name to the rewritten step's
``attrs["passes"]`` so ``repro plan describe`` can attribute every
kernel decision.
"""

from __future__ import annotations

import numpy as np

from . import kernels
from .ir import PlanIR, conv_geometry
from .kernels import pack_row_blocks

__all__ = [
    "L2_BUDGET_BYTES",
    "DW_ROWS_MIN_PLANE",
    "DW_ROWS_MAX_BATCH_STRIDE",
    "runs_per_image",
    "run_passes",
    "run_shared_passes",
    "run_batch_passes",
    "elide_copies",
    "fuse_epilogues",
    "select_kernels",
    "repack_layouts",
    "block_depthwise",
    "block_spmm",
]

#: Default working-set budget for one SpMM row block.  Sized below a
#: typical 1–2 MiB L2 so block output + matrix slice + touched input
#: planes stay resident while ``csr_matvecs`` streams the rows.
L2_BUDGET_BYTES = 1 << 20

#: Depthwise steps keep per-plane CSR unless their output plane has more
#: pixels than this.  Steps on 8x8 and 4x4 planes are 0.03-0.1 ms: the
#: kernel alone still measures 1.1-2.6x on 8x8 at stride 1, but every
#: rewritten step adds a bind and a slab, and with them in the plan a
#: 32px plan-churn cycle (bind + first run, batch 1..12) reads 22.6 ms
#: instead of 22.2 and the arena grows 40 % at batch <= 4.  The sweep
#: behind both constants is in docs/benchmarking.md ("PR 14").
DW_ROWS_MIN_PLANE = 64

#: ... and unless ``batch * column stride`` stays below this.  Per-plane
#: CSR amortises its per-non-zero cost over the batch (``n_vecs = n``)
#: while the slab gather grows with it, and a strided gather moves
#: ``4n``-byte records that numpy only copies fast up to 16 bytes: on
#: planes above 64 pixels the rows kernel measures 1.1-7.1x below the
#: line and 0.5-1.4x at and above it.
DW_ROWS_MAX_BATCH_STRIDE = 16


def runs_per_image(ir: PlanIR, l2_bytes: int = L2_BUDGET_BYTES) -> bool:
    """The hires regime: some step's working set for *one* image — the
    values it reads plus the one it writes — exceeds the L2 budget.

    There the batch-last ``(C, H, W, N)`` layout stops paying: no step
    is small enough for a batch to amortise its call overhead, while the
    ``N``-strided copies and reductions get slower than ``N`` contiguous
    ones (224px, batch 2: 13.9 ms against 2 x 6.9 ms at batch 1).  So a
    batch there executes as per-image runs of the batch-1 plan, which
    the executor can also spread over the cores.  Like
    :func:`block_depthwise`'s rule this reads the geometry alone; the
    crossover sweep behind it is in docs/benchmarking.md ("PR 16").
    """

    def image_bytes(vid: int) -> int:
        return 4 * int(np.prod(ir.values[vid].row_shape[1:], dtype=np.int64))

    return any(
        sum(map(image_bytes, step.reads())) + image_bytes(step.output) > l2_bytes
        for step in ir.steps
        if step.kind != "view"
    )


def _mark(step, name: str) -> None:
    """Record that pass ``name`` rewrote ``step`` (for plan describe)."""
    passes = step.attrs.get("passes", [])
    if name not in passes:
        # A fresh list: a rebatched step shares its template's containers.
        step.attrs["passes"] = passes + [name]

#: Step kinds that may start an epilogue chain (they own their output
#: buffer and write it exactly once).
_PRODUCERS = frozenset(
    {
        "conv_gemm",
        "conv_spmm",
        "conv_gather_gemm",
        "gemm",
        "affine",
        "max_pool",
        "avg_pool",
        "global_avg_pool",
        "squeeze_excite",
    }
)


def _read_after(ir: PlanIR, index: int, root: int) -> bool:
    """Does any step after ``index`` (or a plan output) read ``root``?"""
    for step in ir.steps[index + 1 :]:
        if any(ir.root(vid) == root for vid in step.reads()):
            return True
    return any(ir.root(vid) == root for vid in ir.outputs.values())


# ---------------------------------------------------------------------------
# Pass 1: copy elision
# ---------------------------------------------------------------------------
def elide_copies(ir: PlanIR, stats) -> None:
    """Turn view steps and last-reader activations into storage aliases.

    Two distinct counters: ``aliased_views`` certifies flatten/reshape
    steps as zero-copy aliases (a structural property the unoptimized
    binder shares — not an optimizer win); ``elided_copies`` counts only
    the *rewrites* this pass performs, i.e. out-of-place activations
    converted to run in place because nothing downstream reads their
    pre-activation input.
    """
    for index, step in enumerate(ir.steps):
        if step.kind == "view":
            stats.aliased_views += 1
        elif (
            step.kind == "act"
            and not step.in_place
            and step.attrs.get("kernel") is None
            and not _read_after(ir, index, ir.root(step.inputs[0]))
        ):
            # Nothing downstream reads the pre-activation value (through
            # any alias), so the copy-then-activate collapses in place.
            step.in_place = True
            step.attrs["elided"] = True
            ir.realias(step.output, step.inputs[0])
            stats.elided_copies += 1
            _mark(step, "elide_copies")


# ---------------------------------------------------------------------------
# Pass 2: epilogue fusion (+ exact affine folding)
# ---------------------------------------------------------------------------
def fuse_epilogues(ir: PlanIR, stats) -> None:
    """Collapse bias/act/affine/residual-add chains into their producer."""
    new_steps = []
    index = 0
    steps = ir.steps
    while index < len(steps):
        step = steps[index]
        new_steps.append(step)
        index += 1
        if step.kind not in _PRODUCERS:
            continue
        current = step.output
        while index < len(steps):
            nxt = steps[index]
            if nxt.kind == "bias" and nxt.inputs == (current,):
                step.epilogue.append(("bias", nxt.attrs["bias"]))
            elif (
                nxt.kind == "act"
                and nxt.in_place
                and nxt.inputs == (current,)
                and nxt.attrs.get("kernel") is None
            ):
                step.epilogue.append(("act", nxt.attrs["name"], nxt.attrs["slope"]))
            elif nxt.kind == "affine" and nxt.inputs == (current,) and not _read_after(
                ir, index, ir.root(current)
            ):
                scale, shift = nxt.attrs["scale"], nxt.attrs["shift"]
                if np.all(scale == 1.0):
                    # Exact fold: a pure shift merges into the bias stream.
                    step.epilogue.append(("bias", shift))
                    stats.folded_affines += 1
                else:
                    step.epilogue.append(("affine", scale, shift))
                ir.realias(nxt.output, current)
            elif (
                nxt.kind == "residual_add"
                and nxt.inputs[0] == current
                and ir.root(nxt.inputs[1]) != ir.root(current)
                and not _read_after(ir, index, ir.root(current))
            ):
                step.epilogue.append(("add", nxt.inputs[1]))
                ir.realias(nxt.output, current)
            else:
                break
            current = nxt.output
            stats.fused_steps += 1
            _mark(step, "fuse_epilogues")
            index += 1
    ir.steps = new_steps


# ---------------------------------------------------------------------------
# Pass 3: kernel selection
# ---------------------------------------------------------------------------
def select_kernels(ir: PlanIR, stats) -> None:
    """Pick the kernel forms measured faster on slow-strided-numpy hosts."""
    for step in ir.steps:
        # Axis means as GEMMs used to be selected here for the pool /
        # squeeze-excite kinds; the GEMM mean is now the canonical kernel
        # in both binders (executor._bind_global_avg_pool) because the
        # np.mean fallback was not bit-identical to the BLAS reduction
        # and broke the optimized ≡ unoptimized attestation gate.
        if (
            step.kind in ("conv_gemm", "gemm", "conv_gather_gemm")
            and kernels.HAVE_BLAS
            and not ir.per_image
            and step.epilogue
            and step.epilogue[0][0] == "bias"
        ):
            # Pre-fill the output with the bias and run sgemm(beta=1):
            # the bias add happens inside the GEMM accumulator —
            # bit-identical to matmul + add, minus a whole-tensor pass.
            # Not for per-image plans: scipy's sgemm wrapper holds the
            # GIL (two threads on a (64,16)@(16,6272) GEMM: 0.97x), and
            # those plans run side by side; matmul(out=) releases it.
            step.attrs["beta_gemm"] = True
            _mark(step, "select_kernels")
        if (
            step.kind == "conv_spmm"
            and step.epilogue
            and step.epilogue[0][0] == "bias"
        ):
            # csr_matvecs accumulates: pre-filling the output with the
            # bias folds the bias pass into the SpMM for free.
            step.attrs["bias_prefill"] = True
            _mark(step, "select_kernels")


# ---------------------------------------------------------------------------
# Pass 4: plan-time weight-layout repacks
# ---------------------------------------------------------------------------
#: Step attrs holding weight-like operand arrays the binder feeds to
#: GEMM/bias/affine kernels.
_REPACK_ATTRS = ("weight", "bias", "scale", "shift")


def _needs_repack(arr) -> bool:
    return isinstance(arr, np.ndarray) and not (
        arr.flags.c_contiguous and arr.dtype == np.float32
    )


def repack_layouts(ir: PlanIR, stats) -> None:
    """Canonicalize weight-like operands to C-contiguous float32.

    Lowering stores operands in their *natural* layout — e.g. a linear
    layer's weight is the transposed view ``op.wt.T`` (Fortran-
    contiguous).  ``sgemm``'s fast path and ``beta_gemm``'s in-place
    transpose trick both need C-contiguity, so without this pass the
    binder has to ``ascontiguousarray``-copy on every bind (and the
    squeeze-excite binder used to re-copy its four weights per plan).
    Repacking once at plan time folds the transpose into the stored
    weight; the binder counts any copy it still has to make as a
    ``bind_repack`` — optimized plans assert that count is zero.
    """
    for step in ir.steps:
        repacked = []
        for name in _REPACK_ATTRS:
            arr = step.attrs.get(name)
            if _needs_repack(arr):
                step.attrs[name] = np.ascontiguousarray(arr, dtype=np.float32)
                repacked.append(name)
        for index, entry in enumerate(step.epilogue):
            if entry[0] == "bias" and _needs_repack(entry[1]):
                step.epilogue[index] = (
                    "bias", np.ascontiguousarray(entry[1], dtype=np.float32)
                )
                repacked.append("epilogue.bias")
            elif entry[0] == "affine" and (
                _needs_repack(entry[1]) or _needs_repack(entry[2])
            ):
                step.epilogue[index] = (
                    "affine",
                    np.ascontiguousarray(entry[1], dtype=np.float32),
                    np.ascontiguousarray(entry[2], dtype=np.float32),
                )
                repacked.append("epilogue.affine")
        if step.kind == "squeeze_excite" and "reduce_w" not in step.attrs:
            op = step.op
            step.attrs["reduce_w"] = np.ascontiguousarray(
                op.reduce_wt.T, dtype=np.float32
            )
            step.attrs["expand_w"] = np.ascontiguousarray(
                op.expand_wt.T, dtype=np.float32
            )
            step.attrs["reduce_b"] = np.ascontiguousarray(
                op.reduce_b.reshape(-1, 1), dtype=np.float32
            )
            step.attrs["expand_b"] = np.ascontiguousarray(
                op.expand_b.reshape(-1, 1), dtype=np.float32
            )
            repacked.append("se_weights")
        if repacked:
            step.attrs["repacked"] = repacked
            stats.layout_repacks += len(repacked)
            _mark(step, "repack_layouts")


# ---------------------------------------------------------------------------
# Pass 5: row-vector depthwise (decided by geometry)
# ---------------------------------------------------------------------------
def block_depthwise(
    ir: PlanIR, stats, batch: int, l2_bytes: int = L2_BUDGET_BYTES
) -> None:
    """Move depthwise SpMMs onto the row-vector kernel where it wins.

    Runs before :func:`block_spmm`, which skips the rewritten steps: the
    plane groups chosen here (evened out, so no runt group) already keep
    one group's slab and output L2-resident.
    """
    for step in ir.steps:
        if step.kind != "conv_spmm":
            continue
        op = step.op
        if op.c_in_g != 1 or op.groups != op.c_out:
            continue  # grouped but not depthwise
        channels, h, w, ho, wo = conv_geometry(ir, step)
        if ho * wo <= DW_ROWS_MIN_PLANE or batch * op.sw >= DW_ROWS_MAX_BATCH_STRIDE:
            continue
        fit = l2_bytes // ((op.kw * h * wo + ho * wo) * batch * 4)
        groups = -(-channels // max(1, min(channels, fit)))
        step.attrs["dw_rows"] = -(-channels // groups)  # planes per group
        stats.depthwise_rows_ops += 1
        _mark(step, "block_depthwise")


# ---------------------------------------------------------------------------
# Pass 6: cache-blocked SpMM
# ---------------------------------------------------------------------------
def block_spmm(
    ir: PlanIR, stats, batch: int, l2_bytes: int = L2_BUDGET_BYTES
) -> None:
    """Partition large per-plane-CSR steps into pre-packed, L2-sized row
    blocks.  Matrices whose whole working set fits the budget are left
    unblocked; so are steps :func:`block_depthwise` rewrote."""
    for step in ir.steps:
        if step.kind != "conv_spmm" or "dw_rows" in step.attrs:
            continue
        matrix = kernels.conv_matrix(step.op, *conv_geometry(ir, step))
        align = max(1, matrix.shape[0] // step.op.c_out)
        rows = matrix.shape[0]
        out_bytes = rows * batch * 4
        in_bytes = matrix.shape[1] * batch * 4
        matrix_bytes = matrix.data.nbytes + matrix.indices.nbytes
        footprint = out_bytes + in_bytes + matrix_bytes
        blocks_needed = -(-footprint // max(1, l2_bytes))
        if blocks_needed <= 1 or rows <= align:
            continue
        rows_per_block = max(align, -(-rows // blocks_needed) // align * align)
        blocks = pack_row_blocks(matrix, rows_per_block, align=align)
        if len(blocks) <= 1:
            continue
        step.attrs["row_blocks"] = blocks
        stats.blocked_spmm_ops += 1
        stats.spmm_row_blocks += len(blocks)
        _mark(step, "block_spmm")


# ---------------------------------------------------------------------------
# The pipeline
# ---------------------------------------------------------------------------
_SHARED_PASSES = (elide_copies, fuse_epilogues, select_kernels, repack_layouts)


def run_shared_passes(ir: PlanIR, stats, disabled: tuple = ()) -> PlanIR:
    """The four passes that never look at the batch: once per template."""
    for fn in _SHARED_PASSES:
        if fn.__name__ not in disabled:
            fn(ir, stats)
    return ir


def run_batch_passes(
    ir: PlanIR, stats, l2_bytes: int = L2_BUDGET_BYTES, disabled: tuple = ()
) -> PlanIR:
    """The two passes that size their work to ``ir.batch``, per plan."""
    if "block_depthwise" not in disabled:
        block_depthwise(ir, stats, ir.batch, l2_bytes)
    if "block_spmm" not in disabled:
        block_spmm(ir, stats, ir.batch, l2_bytes)
    return ir


def run_passes(
    ir: PlanIR,
    stats,
    l2_bytes: int = L2_BUDGET_BYTES,
    probe: bool = True,
    disabled: tuple = (),
) -> PlanIR:
    """Run the full pass pipeline in order; returns the (mutated) IR.

    The result is a pure function of ``(ir, l2_bytes, disabled)``.
    ``probe`` is accepted and ignored: it used to switch off a
    timing-based depthwise probe that no longer exists.  ``disabled``
    names passes to skip by function name; benchmarks use it to build
    honest "this pass off" baselines in the same process.
    """
    del probe
    run_shared_passes(ir, stats, disabled)
    return run_batch_passes(ir, stats, l2_bytes=l2_bytes, disabled=disabled)
