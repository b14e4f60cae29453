"""Arena-planned, multicore execution engine for compiled inference.

:mod:`repro.nn.fuse` removed the autograd graph from deployment forward
passes; this package removes the remaining steady-state costs and then
optimizes what is left.  Compilation is a three-phase pipeline:

1. **lowering** (:mod:`~repro.nn.engine.ir`) — a dry shape trace, once
   per input geometry, turns the fused op list into a *plan-IR*: a typed
   step graph (op kind, input/output values, weight references) in column-major
   ``(features..., batch)`` layout, where pointwise convolutions, linear
   layers and squeeze-excite gates are contiguous GEMMs, grouped and
   depthwise convolutions are CSR matrices run through ``scipy.sparse``'s
   C kernels (padding baked into the matrix), and dense-kernel
   convolutions are a copy-based im2col plus one GEMM;
2. **optimization** (:mod:`~repro.nn.engine.passes`) — rewrites of the
   step graph before any buffer exists: *epilogue fusion* collapses
   bias/activation/affine/residual-add chains into their producing
   GEMM/SpMM step (folding affines into the bias where exact), *copy
   elision* turns flatten/reshape views and sole-reader activations into
   storage aliases, *kernel selection* flips reductions to GEMM form and
   pre-fills SpMM outputs with the bias, *layout repacking* canonicalises
   every GEMM operand to C-contiguous float32 at plan time (transpose
   folded into the stored weight, so sgemm always takes the BLAS fast
   path with zero runtime copies), *depthwise rewriting* moves depthwise
   steps whose geometry says so from per-plane CSR onto a row-vector
   kernel (bit-identical, decided without timing anything), and *SpMM
   row blocking* partitions large CSR matrices into pre-packed, L2-sized
   row blocks.  The first four run once on the :class:`PlanTemplate`
   every batch size of a geometry shares; only the last two (and the
   binding below) run per batch size;
3. **binding** (:mod:`~repro.nn.engine.executor`) — liveness analysis on
   the *optimized* graph assigns every value to a
   :class:`BufferArena` block, so steady-state inference reuses a small
   set of preallocated buffers and performs **zero large allocations**
   per batch (``PlanStats.steady_state_allocs`` counts the exceptions,
   e.g. fallback ops).

:class:`PlannedExecutor` wraps plans behind the ``InferenceSession.run``
API and caches plans per observed batch shape in a bounded LRU.  How a
batch executes is a geometry rule on the template
(:func:`~repro.nn.engine.passes.runs_per_image`): one batch-last plan, or
— where a single image already overflows the L2 budget — per-image runs
of the batch-1 plan fanned out over the cores
(:mod:`~repro.nn.engine.threads`: BLAS pinned to one thread, one engine
thread per core).

Optimized plans match the unoptimized plan bit for bit and the fused
session (the lowering front-end, kept as the test reference and as the
fallback for programs the planner refuses) within 1e-6 — the property
the engine tests assert across backbones, split indices, batch sizes and
fan-out widths.
"""

from .executor import (
    BufferArena,
    ExecutionPlan,
    PlanStats,
    PlanTemplate,
    PlannedExecutor,
)
from .ir import PlanIR, Step, Unplannable, estimate_step_cost, lower_session
from .passes import L2_BUDGET_BYTES, run_passes
from .threads import blas_threads, fan_out_width, pin_blas_threads

__all__ = [
    "BufferArena",
    "ExecutionPlan",
    "PlanIR",
    "PlanStats",
    "PlanTemplate",
    "PlannedExecutor",
    "Step",
    "Unplannable",
    "lower_session",
    "run_passes",
    "L2_BUDGET_BYTES",
    "estimate_step_cost",
    "blas_threads",
    "fan_out_width",
    "pin_blas_threads",
]
