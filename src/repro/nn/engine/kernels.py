"""Numeric kernels backing the planned engine's bound steps.

Everything here operates on caller-owned storage — the binder hands in
arena views and the kernels write results with ``out=`` / in place, so
steady-state execution allocates nothing.  The module also owns the
plan-time constructions: CSR lowering of convolutions, L2-sized row
blocking of those matrices, the strided-copy plans that unroll a conv's
kernel taps (im2col as data movement, :class:`TapCopies`), the
row-vector depthwise kernel built on them (:class:`DepthwiseRows`), and
the tiny mean-weight vectors that turn axis reductions into GEMMs.

Two kernel families exist for the operations the optimizer tunes:

* **reference** — the straight-line forms PR 2 shipped (``np.mean``
  reductions, ``np.clip``-based activations, zero-fill + accumulate
  SpMM).  Unoptimized plans bind these, which is what makes
  ``optimize=False`` an honest same-host baseline;
* **selected** — the forms the kernel-selection pass enables where they
  measure faster on slow-strided-numpy hosts: axis means as GEMMs with a
  precomputed ``1/n`` row vector (the reduction runs in BLAS), clip
  chains as ``minimum``/``maximum`` pairs, and bias pre-filled into the
  SpMM output so ``csr_matvecs`` accumulates straight onto it and the
  separate whole-tensor bias pass disappears.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from .. import fuse

try:  # scipy ships in the supported environments; degrade gracefully without
    from scipy import sparse as _sparse
    from scipy.sparse import _sparsetools
    from scipy.linalg import blas as _blas
except ImportError:  # pragma: no cover - exercised only on scipy-less hosts
    _sparse = None
    _sparsetools = None
    _blas = None

HAVE_SPARSE = _sparse is not None
HAVE_BLAS = _blas is not None

__all__ = [
    "HAVE_BLAS",
    "HAVE_SPARSE",
    "spmm_accumulate",
    "spmm_blocks",
    "pack_row_blocks",
    "weight_csr",
    "conv_csr_cached",
    "conv_matrix",
    "valid_taps",
    "TapCopies",
    "im2col_copies",
    "DepthwiseRows",
    "mean_weights",
    "beta_gemm",
    "apply_act",
    "SCRATCH_ACTS",
]


def beta_gemm(weight: np.ndarray, x2d: np.ndarray, out2d: np.ndarray) -> None:
    """``out2d = weight @ x2d + out2d`` through BLAS ``sgemm(beta=1)``.

    ``out2d`` arrives pre-filled with the bias, so the bias add happens
    inside the GEMM's accumulator instead of as a separate whole-tensor
    pass.  All three arrays are C-contiguous; their transposes are
    Fortran-contiguous views, so ``overwrite_c=1`` updates ``out2d`` in
    place with no copies.  Bit-identical to ``matmul`` + bias add (the
    same BLAS dot kernel runs either way).
    """
    _blas.sgemm(1.0, x2d.T, weight.T, beta=1.0, c=out2d.T, overwrite_c=1)


# ---------------------------------------------------------------------------
# Zero-allocation sparse matmul (+ row-blocked variant)
# ---------------------------------------------------------------------------
def spmm_accumulate(matrix, x2d: np.ndarray, out2d: np.ndarray) -> None:
    """``out2d += matrix @ x2d`` into caller-owned (pre-filled) storage.

    ``scipy.sparse`` has no ``out=`` interface, but its C kernel
    ``csr_matvecs`` accumulates ``Y += A @ X`` — which is also what lets
    the bias-prefill epilogue fold the bias pass into the SpMM.
    """
    _sparsetools.csr_matvecs(
        matrix.shape[0],
        matrix.shape[1],
        x2d.shape[1],
        matrix.indptr,
        matrix.indices,
        matrix.data,
        x2d.reshape(-1),
        out2d.reshape(-1),
    )


class RowBlock:
    """One pre-packed row range of a CSR matrix.

    ``indptr`` is rebased to the block (small copy at plan time);
    ``indices``/``data`` are zero-copy views into the parent matrix, so
    blocking costs a few hundred bytes per block, not a second matrix.
    """

    __slots__ = ("lo", "hi", "indptr", "indices", "data", "n_cols")

    def __init__(self, matrix, lo: int, hi: int):
        self.lo = lo
        self.hi = hi
        start, end = int(matrix.indptr[lo]), int(matrix.indptr[hi])
        self.indptr = np.ascontiguousarray(matrix.indptr[lo : hi + 1] - start)
        self.indices = matrix.indices[start:end]
        self.data = matrix.data[start:end]
        self.n_cols = matrix.shape[1]

    def run(self, x_flat: np.ndarray, out2d: np.ndarray) -> None:
        """Accumulate this block's rows into ``out2d[lo:hi]`` (pre-filled)."""
        _sparsetools.csr_matvecs(
            self.hi - self.lo,
            self.n_cols,
            out2d.shape[1],
            self.indptr,
            self.indices,
            self.data,
            x_flat,
            out2d[self.lo : self.hi].reshape(-1),
        )


def pack_row_blocks(
    matrix, rows_per_block: int, align: int = 1
) -> List[RowBlock]:
    """Split ``matrix`` into pre-packed row blocks of ``rows_per_block``.

    ``align`` keeps block boundaries on multiples of a row-group size
    (one output plane of a convolution), so a block never splits a
    channel's spatial rows.
    """
    rows = matrix.shape[0]
    step = max(align, (rows_per_block // align) * align)
    blocks = []
    for lo in range(0, rows, step):
        blocks.append(RowBlock(matrix, lo, min(rows, lo + step)))
    return blocks


def spmm_blocks(
    blocks: List[RowBlock], x2d: np.ndarray, out2d: np.ndarray
) -> None:
    """Row-blocked ``out2d[...] = A @ x2d`` (``out2d`` already pre-filled)."""
    x_flat = x2d.reshape(-1)
    for block in blocks:
        block.run(x_flat, out2d)


# ---------------------------------------------------------------------------
# Sparse lowering of convolutions (plan-time, cached per geometry)
# ---------------------------------------------------------------------------
def weight_csr(op, c_in: int, h: int, w: int, ho: int, wo: int):
    """CSR of the full linear map (c_out*ho*wo, c_in*h*w), weights inlined.

    Entries that would read padding are simply dropped (they multiply
    implicit zeros), so the matrix consumes the *unpadded* input and no
    padded copy of the activation is ever materialised.
    """
    cig, kh, kw = op.c_in_g, op.kh, op.kw
    cog = op.c_out // op.groups
    o = np.arange(op.c_out).reshape(-1, 1, 1, 1, 1, 1)
    oi = np.arange(ho).reshape(1, -1, 1, 1, 1, 1)
    oj = np.arange(wo).reshape(1, 1, -1, 1, 1, 1)
    q = np.arange(cig).reshape(1, 1, 1, -1, 1, 1)
    ki = np.arange(kh).reshape(1, 1, 1, 1, -1, 1)
    kj = np.arange(kw).reshape(1, 1, 1, 1, 1, -1)
    in_i = oi * op.sh + ki - op.ph
    in_j = oj * op.sw + kj - op.pw
    ci = (o // cog) * cig + q
    shape6 = (op.c_out, ho, wo, cig, kh, kw)
    valid = np.broadcast_to(
        (in_i >= 0) & (in_i < h) & (in_j >= 0) & (in_j < w), shape6
    )
    rows = np.broadcast_to((o * ho + oi) * wo + oj, shape6)[valid]
    cols = np.broadcast_to((ci * h + in_i) * w + in_j, shape6)[valid]
    data = np.broadcast_to(op.weight[:, None, None, :, :, :], shape6)[valid]
    matrix = _sparse.csr_matrix(
        (data.astype(np.float32), (rows, cols)),
        shape=(op.c_out * ho * wo, c_in * h * w),
        dtype=np.float32,
    )
    matrix.sort_indices()
    return matrix


def conv_csr_cached(op, kind: str, builder, c_in, h, w, ho, wo):
    """Build (or fetch) one of a conv's plan-time constructions (its CSR,
    row CSR or copy plan).  They are independent of the batch size, so
    worker shards and re-plans for new batch sizes share one per input
    geometry."""
    cache = getattr(op, "_engine_csr_cache", None)
    if cache is None:
        cache = {}
        op._engine_csr_cache = cache
    key = (kind, h, w)
    built = cache.get(key)
    if built is None:
        built = builder(op, c_in, h, w, ho, wo)
        cache[key] = built
    return built


def conv_matrix(op, c_in, h, w, ho, wo):
    """The conv's whole-linear-map CSR, built on first use: lowering does
    not need it, only the steps that run per-plane CSR do."""
    return conv_csr_cached(op, "weight", weight_csr, c_in, h, w, ho, wo)


# ---------------------------------------------------------------------------
# im2col as data movement + the row-vector depthwise kernel built on it
# ---------------------------------------------------------------------------
def _tap_span(tap: int, stride: int, pad: int, size: int, out: int):
    """``(lo, hi, first)``: outputs ``lo..hi-1`` read inside the input
    through kernel tap ``tap``, and output ``lo`` reads input ``first``."""
    lo = min(out, max(0, -((tap - pad) // stride)))
    hi = max(lo, min(out, (size - 1 + pad - tap) // stride + 1))
    return lo, hi, lo * stride + tap - pad


def valid_taps(op, h: int, w: int, ho: int, wo: int) -> int:
    """(output pixel, kernel tap) pairs of one plane that read inside the
    input — :func:`weight_csr`'s entry count per channel pair."""

    def along(kernel, stride, pad, size, out):
        spans = (_tap_span(tap, stride, pad, size, out) for tap in range(kernel))
        return sum(hi - lo for lo, hi, _ in spans)

    return along(op.kh, op.sh, op.ph, h, ho) * along(op.kw, op.sw, op.pw, w, wo)


def _records(array: np.ndarray) -> np.ndarray:
    """View ``(..., n)`` storage as ``(...)`` opaque ``n``-element records.

    A strided gather then moves one ``4n``-byte pixel per element instead
    of running an ``n``-float inner loop per pixel (10x faster at
    ``n = 2``).
    """
    record = np.dtype((np.void, array.itemsize * array.shape[-1]))
    return array.view(record)[..., 0]


class TapCopies:
    """A conv's kernel taps unrolled by strided copies — im2col without
    the 0/1 gather matrix.

    ``dst[c, ki, kj, i, j] = src[c, i*sh + ki - ph, j*sw + kj - pw]``
    (zero outside the input) for ``src`` of ``(C, h, w, n)`` and ``dst`` of
    ``(C, kh, kw, ho, wo, n)``: one copy per tap plus the thin borders the
    padding leaves.  The plan holds index tuples only — it depends on the
    geometry, not on ``C`` or the batch — so :meth:`bind` just slices.
    """

    __slots__ = ("copies", "borders")

    def __init__(self, kh, kw, sh, sw, ph, pw, h, w, ho, wo):
        rows = [_tap_span(ki, sh, ph, h, ho) for ki in range(kh)]
        cols = [_tap_span(kj, sw, pw, w, wo) for kj in range(kw)]
        every = slice(None)
        self.copies = [
            (
                (every, ki, kj, slice(ilo, ihi), slice(jlo, jhi)),
                (
                    every,
                    slice(i0, i0 + (ihi - ilo - 1) * sh + 1, sh),
                    slice(j0, j0 + (jhi - jlo - 1) * sw + 1, sw),
                ),
            )
            for ki, (ilo, ihi, i0) in enumerate(rows)
            for kj, (jlo, jhi, j0) in enumerate(cols)
            if ihi > ilo and jhi > jlo
        ]
        self.borders = []
        for ki, (ilo, ihi, _) in enumerate(rows):
            for edge in (slice(0, ilo), slice(ihi, ho)):
                if edge.stop > edge.start:
                    self.borders.append((every, ki, every, edge))
        for kj, (jlo, jhi, _) in enumerate(cols):
            for edge in (slice(0, jlo), slice(jhi, wo)):
                if edge.stop > edge.start:
                    self.borders.append((every, every, kj, every, edge))

    def bind(self, src: np.ndarray, dst: np.ndarray, zero_borders: bool = True):
        """A closure filling caller-owned ``dst`` from ``src``.  ``dst`` is
        scratch that may hold garbage, so the borders are re-zeroed on
        every run unless the caller knows an earlier bind keeps them."""
        src_r, dst_r = _records(src), _records(dst)
        copies = [(dst_r[d], src_r[s]) for d, s in self.copies]
        borders = [dst[b] for b in self.borders] if zero_borders else ()

        def run():
            for border in borders:
                border.fill(0)
            for target, source in copies:
                np.copyto(target, source)

        return run


def im2col_copies(op, c_in, h, w, ho, wo) -> TapCopies:
    """The copy plan filling a dense conv's ``(c_in*kh*kw, ho*wo*n)``
    column buffer (a :func:`conv_csr_cached` builder)."""
    return TapCopies(op.kh, op.kw, op.sh, op.sw, op.ph, op.pw, h, w, ho, wo)


class DepthwiseRows:
    """Depthwise conv as a CSR over whole output *rows*.

    Per-plane CSR runs ``csr_matvecs`` with ``n_vecs = batch``: one
    ``axpy`` of length ``n`` per non-zero, ~1.2 ns per MAC at ``n = 2``.
    Here the input is first gathered into ``kw`` column variants — a slab
    ``(g, 1, kw, h, wo, n)`` per plane group, variant ``kj`` holding the
    zero-padded columns ``kj, kj+sw, ...`` (:class:`TapCopies` with one
    row tap) — and then a tiny CSR whose rows are output rows ``(c, i)``
    and whose entries point at slab rows goes through the same
    ``csr_matvecs`` with ``n_vecs = wo*n``, accumulating straight into
    the pre-filled output.

    Same products, same tap order ``(ki, kj)`` and the same rounded
    multiply-then-add as :func:`weight_csr`'s sorted rows, so results are
    ``np.array_equal``.  Taps on padded *rows* are dropped like the CSR
    drops them; taps on padded *columns* add ``w * 0``, which can only
    turn an accumulator that is exactly ``-0.0`` into ``+0.0`` — for
    inputs and biases without negative zeros the bytes are equal too.

    The index arrays are written for channel *slots*: a group of ``g``
    planes uses their first ``g`` slots with its own slice of ``data``,
    so one instance serves every group size and batch.
    """

    __slots__ = (
        "channels", "ho", "wo", "kw", "h", "entries", "indptr", "indices",
        "data", "taps",
    )

    def __init__(self, op, c_in, h, w, ho, wo):
        c, kh, kw = op.c_out, op.kh, op.kw
        self.channels, self.ho, self.wo, self.kw, self.h = c, ho, wo, kw, h
        i = np.arange(ho).reshape(-1, 1, 1)
        ki = np.arange(kh).reshape(1, -1, 1)
        kj = np.arange(kw).reshape(1, 1, -1)
        in_i = i * op.sh + ki - op.ph
        valid = np.broadcast_to((in_i >= 0) & (in_i < h), (ho, kh, kw))
        slab_row = np.broadcast_to(kj * h + in_i, (ho, kh, kw))[valid]
        self.entries = slab_row.size  # per channel
        slot = np.arange(c).reshape(-1, 1) * (kw * h)
        self.indices = np.ascontiguousarray(slot + slab_row, dtype=np.int32).reshape(-1)
        weight = np.broadcast_to(op.weight.reshape(c, 1, kh, kw), (c, ho, kh, kw))
        self.data = np.ascontiguousarray(weight[:, valid], dtype=np.float32).reshape(-1)
        per_row = np.tile(valid.reshape(ho, -1).sum(axis=1), c)
        self.indptr = np.concatenate(([0], np.cumsum(per_row))).astype(np.int32)
        self.taps = TapCopies(1, kw, 1, op.sw, 0, op.pw, h, w, h, wo)

    def slab_shape(self, group: int, batch: int):
        return (group, 1, self.kw, self.h, self.wo, batch)

    def bind(self, x: np.ndarray, y: np.ndarray, slab: np.ndarray):
        """A closure running ``y += conv(x)`` plane group by plane group.

        ``x`` is ``(c, h, w, n)``, ``y`` is ``(c, ho, wo, n)`` and arrives
        pre-filled (bias or zero); ``slab`` is caller-owned scratch of
        :meth:`slab_shape` whose leading dim is the group size.
        """
        group, n = slab.shape[0], x.shape[-1]
        ho, entries, slab_rows = self.ho, self.entries, self.kw * self.h
        calls = []
        for p0 in range(0, self.channels, group):
            p1 = min(self.channels, p0 + group)
            g = p1 - p0
            gather = self.taps.bind(x[p0:p1], slab[:g], zero_borders=p0 == 0)
            calls.append((gather, (
                g * ho, g * slab_rows, self.wo * n,
                self.indptr[: g * ho + 1], self.indices[: g * entries],
                self.data[p0 * entries : p1 * entries],
                slab[:g].reshape(-1), y[p0:p1].reshape(-1),
            )))

        def run():
            for gather, args in calls:
                gather()
                _sparsetools.csr_matvecs(*args)

        return run


# ---------------------------------------------------------------------------
# Axis means as GEMMs
# ---------------------------------------------------------------------------
def mean_weights(count: int) -> np.ndarray:
    """A ``(1, count)`` row of ``1/count`` — ``W @ x`` averages axis -2.

    ``np.mean`` over the middle axis of a ``(c, s, n)`` column tensor is
    a strided reduction numpy runs an order of magnitude slower than
    BLAS on the benchmark hosts; a dot with this vector is the same
    arithmetic in GEMM form.
    """
    return np.full((1, count), 1.0 / count, dtype=np.float32)


# ---------------------------------------------------------------------------
# In-place activations with explicit scratch (the fuse kernels for silu /
# hard_swish / gelu / leaky_relu allocate temporaries; the planned engine
# may not)
# ---------------------------------------------------------------------------
#: Activations whose allocation-free form needs a scratch buffer.
SCRATCH_ACTS = frozenset({"silu", "hard_swish", "gelu", "leaky_relu"})


def apply_act(
    name: str,
    y: np.ndarray,
    scratch: Optional[np.ndarray],
    slope: float = 0.0,
) -> None:
    """Run activation ``name`` in place on ``y`` using ``scratch`` if needed."""
    if name == "silu":
        np.copyto(scratch, y)
        fuse._sigmoid_(scratch)
        y *= scratch
    elif name == "hard_swish":
        np.add(y, 3.0, out=scratch)
        np.clip(scratch, 0.0, 6.0, out=scratch)
        scratch *= 1.0 / 6.0
        y *= scratch
    elif name == "gelu":
        np.multiply(y, y, out=scratch)
        scratch *= y
        scratch *= 0.044715
        scratch += y
        scratch *= 0.7978845608028654  # sqrt(2/pi)
        np.tanh(scratch, out=scratch)
        scratch += 1.0
        scratch *= 0.5
        y *= scratch
    elif name == "leaky_relu":
        # leaky(y) = max(y, 0) + slope * min(y, 0), allocation-free.
        np.maximum(y, 0.0, out=scratch)
        np.minimum(y, 0.0, out=y)
        y *= slope
        y += scratch
    else:
        fuse._ACT_KERNELS[name](y)


def act_needs_scratch(name: str) -> bool:
    return name in SCRATCH_ACTS
