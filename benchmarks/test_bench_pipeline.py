"""Fig. 1, executed — measured end-to-end split pipeline.

The architecture diagram of the paper as a runnable system: edge half →
serialised ``Z_b`` → channel → server half (task heads).  This benchmark
measures real forward-pass times of the two halves on this machine,
models the transfer with the channel, and verifies the split changes no
predictions.
"""

from __future__ import annotations

import time
from statistics import median

import numpy as np

from repro import data, nn
from repro.core import MTLSplitNet, MultiTaskTrainer, TrainConfig
from repro.deployment import GIGABIT_ETHERNET, LTE_UPLINK, WireFormat
from repro.nn.engine import ExecutionPlan
from repro.serve import SplitPipeline
from repro.nn.tensor import Tensor

from _bench_utils import emit, pipeline_stamp

_BATCHES = 8
_BATCH_SIZE = 16

# The hires scenario point the rows kernel targets: whole backbone on the
# edge at 224px, batch 2 (the mobilenetv3_hires_224px config) — which a
# deployment executes as two runs of the batch-1 plan (PR 16), so that
# is the plan measured here.
_HIRES_PX = 224
_HIRES_BATCH = 2
_HIRES_BACKBONE = "mobilenet_v3_tiny"
# The CI gate on the rows-vs-per-plane-CSR ratio: a ratio measured round
# by round inside one process, never an absolute latency.  The recorded
# per-round minimum (2.6x over 9 rounds on the 2-core host at batch 1;
# 1.7-1.8x when this still measured the batch-2 plan) is its noise
# bound; 1.5x leaves room for hosts where csr_matvecs fares better.
_HIRES_MIN_RATIO = 1.5


def build_net():
    dataset = data.make_shapes3d(320, tasks=("scale", "shape"), seed=41)
    net = MTLSplitNet.from_tasks("mobilenet_v3_tiny", list(dataset.tasks), 32, seed=41)
    MultiTaskTrainer(TrainConfig(epochs=1, batch_size=64, seed=41)).fit(net, dataset)
    net.eval()
    return net, dataset


def _stream_interleaved(net, batches, rounds=9):
    """A/B the optimized pipeline against the unoptimized one, interleaved.

    Host speed drifts *within* a session (the same code has measured 2x
    apart minutes apart on the CI container), so the baseline and the
    optimized pipeline must alternate round by round — measuring one
    after the other lets a speed shift between the two blocks invert
    the comparison.  The order flips every round (A/B, B/A, ...) to
    cancel short-scale drift, and min-of-rounds keeps each side's
    fastest-regime number so the ratio compares like with like.
    """
    baseline = SplitPipeline.from_net(
        net, GIGABIT_ETHERNET, input_size=32, optimize=False
    )
    pipeline = SplitPipeline.from_net(
        net, GIGABIT_ETHERNET, input_size=32, optimize=True
    )
    baseline.warmup(batches[0])
    pipeline.warmup(batches[0])
    base_edge = edge = None
    base_outputs = outputs = report = None

    def run_baseline():
        nonlocal base_edge, base_outputs
        baseline.traces.clear()
        base_outputs, _ = baseline.infer_stream(batches)
        round_base = sum(t.edge_seconds for t in baseline.traces)
        base_edge = round_base if base_edge is None else min(base_edge, round_base)

    def run_optimized():
        nonlocal edge, outputs, report
        pipeline.traces.clear()
        outputs, report = pipeline.infer_stream(batches)
        round_edge = sum(t.edge_seconds for t in pipeline.traces)
        edge = round_edge if edge is None else min(edge, round_edge)

    for round_index in range(rounds):
        if round_index % 2 == 0:
            run_baseline()
            run_optimized()
        else:
            run_optimized()
            run_baseline()
    baseline.close()
    return pipeline, outputs, report, edge, base_edge, base_outputs


def _hires_depthwise_ab(rounds=9, batches=3):
    """Interleaved A/B of the rows depthwise kernel at the hires tier.

    At the quick tier's batch 16 ``block_depthwise`` keeps per-plane CSR,
    so the pipeline measurement above cannot see the kernel.  This
    measures the edge half (the whole backbone — where every depthwise
    conv lives) at the hires scenario point against the same plan built
    with ``disabled_passes=("block_depthwise",)`` — per-plane CSR, L2 row
    blocking included — and requires the two to agree bit for bit.  Each
    round times both plans back to back, order alternating, and yields
    one ratio: host drift between rounds cannot invert the comparison,
    and the spread of the per-round ratios is the noise bound.
    """
    tasks = data.make_shapes3d(4, tasks=("scale", "shape"), seed=7).tasks
    net = MTLSplitNet.from_tasks(_HIRES_BACKBONE, list(tasks), _HIRES_PX, seed=31)
    net.eval()
    n_stages = len(list(net.backbone.stages))
    edge, _ = net.split(n_stages, input_size=_HIRES_PX)
    session = edge.compile_for_inference()

    shape = (1, 3, _HIRES_PX, _HIRES_PX)  # the per-image plan every lane binds
    rng = np.random.default_rng(17)
    xs = [
        rng.standard_normal(shape).astype(np.float32)
        for _ in range(batches * _HIRES_BATCH)
    ]

    plan = ExecutionPlan(session, shape)
    baseline = ExecutionPlan(session, shape, disabled_passes=("block_depthwise",))
    for x in xs:
        np.testing.assert_array_equal(plan.run(x).copy(), baseline.run(x))

    def timed(p):
        t0 = time.perf_counter()
        for x in xs:
            p.run(x)
        return time.perf_counter() - t0

    timed(plan), timed(baseline)  # warmup
    rows_s, csr_s = [], []
    for round_index in range(rounds):
        order = (plan, baseline) if round_index % 2 == 0 else (baseline, plan)
        for p in order:
            (rows_s if p is plan else csr_s).append(timed(p))
    ratios = [csr / rows for csr, rows in zip(csr_s, rows_s)]

    return {
        "hires_backbone": _HIRES_BACKBONE,
        "hires_input_size": _HIRES_PX,
        "hires_batch_size": _HIRES_BATCH,
        "hires_rounds": rounds,
        "hires_edge_ms": min(rows_s) * 1e3 / batches,
        "hires_edge_ms_per_plane_csr": min(csr_s) * 1e3 / batches,
        "hires_rows_vs_csr_ratio_min": min(ratios),
        "hires_rows_vs_csr_ratio_median": median(ratios),
        "hires_rows_vs_csr_ratio_max": max(ratios),
        "hires_depthwise_rows_ops": plan.stats.depthwise_rows_ops,
        "hires_baseline_spmm_row_blocks": baseline.stats.spmm_row_blocks,
    }


def test_pipeline_end_to_end(benchmark, results_dir):
    net, dataset = build_net()
    images = dataset.images[: _BATCHES * _BATCH_SIZE]
    batches = [
        images[start : start + _BATCH_SIZE]
        for start in range(0, len(images), _BATCH_SIZE)
    ]

    def run():
        # Same-run baseline: the identical pipeline with the plan-IR
        # optimizer passes disabled (PR 2's straight-line lowering and
        # reference kernels), interleaved round by round with the
        # optimized pipeline.  Host speed drifts between sessions *and*
        # within them, so a speedup claim is only meaningful against a
        # baseline measured in the same process, interleaved.
        return _stream_interleaved(net, batches)

    pipeline, outputs, report, edge, base_edge, base_outputs = benchmark.pedantic(
        run, rounds=1, iterations=1
    )

    # Predictions match the monolith (fused/compiled halves, atol 1e-4)
    # and the unoptimized plan (the optimizer changes no semantics).
    with nn.no_grad():
        full = net(Tensor(images[:_BATCH_SIZE]))
    for name in net.task_names:
        np.testing.assert_allclose(outputs[0][name], full[name].data, atol=1e-4)
        np.testing.assert_allclose(outputs[0][name], base_outputs[0][name], atol=1e-4)

    # The engine contract the optimizer must preserve: planning removed
    # every steady-state allocation, and the passes actually fired.
    assert report.steady_state_allocs == 0
    assert report.fused_steps > 0
    # elided_copies counts only real rewrites (in-place acts); views are
    # aliases in the baseline too, so they are reported separately.
    assert report.elided_copies + report.aliased_views > 0

    # Hires tier: rows kernel vs per-plane CSR, gated as a same-run ratio.
    hires = _hires_depthwise_ab()
    assert hires["hires_depthwise_rows_ops"] > 0
    assert hires["hires_rows_vs_csr_ratio_median"] >= _HIRES_MIN_RATIO, hires

    transfer = pipeline.total_transfer_seconds()
    server = sum(t.server_seconds for t in pipeline.traces)
    speedup = base_edge / edge if edge else 0.0
    text = (
        f"{_BATCHES} batches x {_BATCH_SIZE} images, mobilenet_v3_tiny @32px, "
        f"{GIGABIT_ETHERNET.name}, planned engine "
        f"({report.arena_bytes / 1024:.0f} KiB arena, "
        f"{report.steady_state_allocs} allocs/batch, "
        f"{report.fused_steps} fused epilogues, "
        f"{report.elided_copies} elided copies, "
        f"{report.aliased_views} aliased views), overlapped stages\n"
        f"  edge compute:   {edge * 1e3:8.2f} ms (measured; unoptimized "
        f"same-run baseline {base_edge * 1e3:.2f} ms -> {speedup:.2f}x)\n"
        f"  Z_b transfer:   {transfer * 1e3:8.2f} ms (modelled, "
        f"{pipeline.mean_payload_bytes() / 1024:.1f} KiB/batch)\n"
        f"  server compute: {server * 1e3:8.2f} ms (measured)\n"
        f"  serial total:   {pipeline.total_seconds() * 1e3:8.2f} ms\n"
        f"  pipelined:      {report.pipelined_seconds * 1e3:8.2f} ms "
        f"({report.overlap_speedup:.2f}x overlap, "
        f"{report.batches_per_second:.1f} batches/s, "
        f"critical stage: {report.critical_stage})\n"
        f"  hires edge ({hires['hires_backbone']} @{_HIRES_PX}px b{_HIRES_BATCH}, "
        f"{hires['hires_depthwise_rows_ops']} depthwise step(s) on row vectors): "
        f"{hires['hires_edge_ms']:.2f} ms/batch vs per-plane CSR "
        f"{hires['hires_edge_ms_per_plane_csr']:.2f} ms/batch, same-run ratio "
        f"{hires['hires_rows_vs_csr_ratio_median']:.2f}x median "
        f"[{hires['hires_rows_vs_csr_ratio_min']:.2f}, "
        f"{hires['hires_rows_vs_csr_ratio_max']:.2f}] over "
        f"{hires['hires_rounds']} interleaved rounds"
    )
    emit(
        results_dir,
        "pipeline_end_to_end",
        text,
        data={
            "edge_ms": edge * 1e3,
            "edge_ms_baseline_unoptimized": base_edge * 1e3,
            "edge_speedup_vs_unoptimized": speedup,
            "transfer_ms": transfer * 1e3,
            "server_ms": server * 1e3,
            "serial_ms": pipeline.total_seconds() * 1e3,
            "pipelined_ms": report.pipelined_seconds * 1e3,
            "batches_per_second": report.batches_per_second,
            "images_per_second": report.images_per_second,
            "critical_stage": report.critical_stage,
            "payload_bytes_per_batch": pipeline.mean_payload_bytes(),
            "arena_bytes": report.arena_bytes,
            "steady_state_allocs": report.steady_state_allocs,
            "fused_steps": report.fused_steps,
            "elided_copies": report.elided_copies,
            "aliased_views": report.aliased_views,
            "spmm_row_blocks": report.spmm_row_blocks,
            **hires,
            # In-memory trained net, so no DeploymentSpec: spec_digest is
            # empty by contract (docs/benchmarking.md).
            **pipeline_stamp(pipeline, (_BATCH_SIZE, 3, 32, 32)),
        },
    )
    assert pipeline.link.messages_sent == _BATCHES * 9  # 9 timed rounds; warmup is not charged
    # Overlap must beat strictly serial execution on multi-batch runs.
    assert report.pipelined_seconds < report.serial_seconds


def test_pipeline_split_point_sweep(benchmark, results_dir):
    """Payload size and edge share across every possible cut (ablation).

    The paper cuts at the backbone/heads boundary; this sweep shows that
    boundary is where the payload is smallest — the architecture-based
    rationale of Sbai et al. [24] applied to our backbone.
    """
    net, dataset = build_net()
    images = dataset.images[:_BATCH_SIZE]
    n_stages = len(list(net.backbone.stages))

    def run():
        rows = []
        for index in range(1, n_stages + 1):
            pipeline = SplitPipeline.from_net(
                net, LTE_UPLINK, split_index=index, input_size=32
            )
            pipeline.infer(images)
            trace = pipeline.traces[0]
            rows.append((index, trace.payload_bytes, trace.transfer_seconds))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    lines = [f"{'split after stage':>18}{'payload (KiB)':>16}{'transfer (ms)':>16}"]
    for index, payload, transfer in rows:
        lines.append(f"{index:>18}{payload / 1024:>16.1f}{transfer * 1e3:>16.2f}")
    emit(results_dir, "pipeline_split_sweep", "\n".join(lines))

    payloads = {index: payload for index, payload, _ in rows}
    # The minimum-payload cut sits in the deep half of the backbone.  It is
    # NOT necessarily the very last stage: MobileNetV3 ends with a 1x1 conv
    # that *expands* channels (24 -> 64 here), so the cut just before that
    # expansion transmits less — the same effect the Neurosurgeon ablation
    # measures at full scale.
    min_index = min(payloads, key=payloads.get)
    assert min_index > n_stages // 2
    assert payloads[n_stages] < payloads[1]


def test_pipeline_wire_formats(benchmark, results_dir):
    net, dataset = build_net()
    images = dataset.images[:_BATCH_SIZE]

    def run():
        rows = []
        for fmt in ("float32", "float16", "quant8"):
            pipeline = SplitPipeline.from_net(
                net, LTE_UPLINK, input_size=32, wire_format=WireFormat(fmt)
            )
            logits = pipeline.infer(images)
            rows.append((fmt, pipeline.traces[0].payload_bytes, logits))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    base = rows[0][2]
    lines = []
    for fmt, payload, logits in rows:
        agreement = min(
            float((logits[t].argmax(1) == base[t].argmax(1)).mean())
            for t in net.task_names
        )
        lines.append(
            f"wire {fmt:>8}: payload {payload / 1024:7.1f} KiB, "
            f"prediction agreement vs float32 {agreement:.0%}"
        )
    emit(results_dir, "pipeline_wire_formats", "\n".join(lines))
    assert rows[2][1] < rows[0][1] / 3
