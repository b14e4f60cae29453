"""The scenario matrix, measured — quick 32px through hires 224px.

Sweeps every scenario in the curated `repro.scenarios` registry through
a real deployment and records per-scenario engine accounting to
``BENCH_scenario_matrix.json``.  The 224px hires tier is where the
depthwise stacks run the row-vector kernel on every step
(`depthwise_rows_ops`; at 32px b16 per-plane CSR is kept, see
`passes.block_depthwise`), and where the arena sizing operates in the
regime it was built for.  `spmm_row_blocks` is what is left of L2 row
blocking: per-plane-CSR steps too large for the budget.

Honesty rules (see docs/benchmarking.md):

* every scenario's `optimize=False` baseline is re-measured in the same
  run, interleaved round by round with the optimized pipeline (host
  speed drifts within sessions; block-wise A/B has measured inverted
  ratios here before);
* the artifact stamps `cpu_count` + numpy/scipy versions via
  ``host_record()`` — cross-session latency deltas are meaningless.
"""

from __future__ import annotations

import time

import numpy as np

from repro.nn.engine.passes import L2_BUDGET_BYTES
from repro.scenarios import scenario_matrix
from repro.serve import deploy

from _bench_utils import combined_stamp, emit, provenance_stamp

_ROUNDS = 3  # interleaved A/B rounds per scenario (min-of-rounds kept)
_WAKE_SECONDS = 1.5


def _wake_blas_threads():
    """Keep multi-threaded BLAS busy before anything is timed.

    On the 2-core bench host the first ~1 s of threaded GEMMs in a
    process can run 15 ms apiece instead of 0.3 ms (the second core is
    slow to come up; `deployment.settle_ms` in benchmarks/e2e records the
    same thing).  Since plan building got cheap the first scenario's
    rounds used to land inside that window — one side read 0.1x.
    """
    a = np.ones((64, 64), dtype=np.float32)
    b = np.ones((64, 4096), dtype=np.float32)
    deadline = time.perf_counter() + _WAKE_SECONDS
    while time.perf_counter() < deadline:
        a @ b


def _assert_optimizer_preserves_semantics(scenario):
    """Optimized ≡ unoptimized on this scenario's workload, float32 wire.

    Deliberately *not* checked on the scenario's own wire: the engine's
    contract is 1e-6 equivalence, and quant8 can turn a sub-1e-6 edge
    difference landing on a quantization-bin boundary into a full quant
    step downstream — a flaky failure that would indict the optimizer
    for something the wire did.  The float32 wire carries the engine
    outputs exactly, so this checks the contract the passes actually
    make (the timed runs below still use the scenario's declared wire).
    """
    batch = scenario.make_batches(1)[0]
    optimized = deploy(scenario.deployment_spec(wire="float32"))
    baseline = deploy(scenario.deployment_spec(wire="float32", optimize=False))
    try:
        opt_out = optimized.infer(batch)
        base_out = baseline.infer(batch)
        for task in opt_out:
            np.testing.assert_allclose(opt_out[task], base_out[task], atol=1e-4)
    finally:
        optimized.close()
        baseline.close()


def _measure_scenario(scenario):
    """Interleaved optimized-vs-baseline measurement for one scenario."""
    traffic = scenario.make_batches()
    optimized = deploy(scenario.deployment_spec())
    baseline = deploy(scenario.deployment_spec(optimize=False))
    try:
        optimized.warmup([scenario.batch_size])
        baseline.warmup([scenario.batch_size])

        edge = base_edge = report = None

        def run_optimized():
            nonlocal edge, report
            optimized.pipeline.traces.clear()
            _, round_report = optimized.stream(traffic)
            round_edge = sum(t.edge_seconds for t in optimized.traces)
            if edge is None or round_edge < edge:
                # Keep the report from the min-edge round so every field
                # in the artifact row shares one provenance (the fastest
                # regime), not whichever round happened to run last.
                edge, report = round_edge, round_report

        def run_baseline():
            nonlocal base_edge
            baseline.pipeline.traces.clear()
            baseline.stream(traffic)
            round_base = sum(t.edge_seconds for t in baseline.traces)
            base_edge = round_base if base_edge is None else min(base_edge, round_base)

        for round_index in range(_ROUNDS):
            if round_index % 2 == 0:  # flip order to cancel short-scale drift
                run_baseline()
                run_optimized()
            else:
                run_optimized()
                run_baseline()

        payload = optimized.pipeline.mean_payload_bytes()
        row = {
            "tier": scenario.tier,
            "backbone": scenario.backbone,
            "input_size": scenario.input_size,
            "batch_size": scenario.batch_size,
            "batches": scenario.batches,
            "wire": scenario.wire,
            "split_index": scenario.split_index,
            "resolved_split": optimized.split_index,
            "edge_ms": edge * 1e3,
            "edge_ms_baseline_unoptimized": base_edge * 1e3,
            "edge_speedup_vs_unoptimized": base_edge / edge if edge else 0.0,
            "payload_bytes_per_batch": payload,
            "images_per_second": report.images_per_second,
            "arena_bytes": report.arena_bytes,
            "steady_state_allocs": report.steady_state_allocs,
            "fused_steps": report.fused_steps,
            "elided_copies": report.elided_copies,
            "aliased_views": report.aliased_views,
            "spmm_row_blocks": report.spmm_row_blocks,
            "depthwise_rows_ops": optimized.pipeline.edge.plan_stats.depthwise_rows_ops,
            **provenance_stamp(optimized),
        }
        return row
    finally:
        optimized.close()
        baseline.close()


def test_scenario_matrix(benchmark, results_dir):
    scenarios = scenario_matrix()

    def run():
        _wake_blas_threads()
        rows = {}
        for s in scenarios:
            _assert_optimizer_preserves_semantics(s)
            rows[s.name] = _measure_scenario(s)
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)

    # -- the engine contract, matrix-wide ------------------------------
    for name, row in rows.items():
        assert row["steady_state_allocs"] == 0, name
        assert row["fused_steps"] > 0, name

    # -- coverage: at least one 224px scenario per backbone family -----
    hires = {n: r for n, r in rows.items() if r["input_size"] >= 224}
    hires_backbones = {r["backbone"] for r in hires.values()}
    for family_backbone in ("mobilenet_v3_tiny", "efficientnet_tiny", "vgg_tiny"):
        assert family_backbone in hires_backbones, (
            f"no 224px scenario for {family_backbone}"
        )

    # -- the depthwise families run the rows kernel at 224px -----------
    for name, row in hires.items():
        if not row["backbone"].startswith("vgg"):
            assert row["depthwise_rows_ops"] > 0, name

    # -- render + artifact ---------------------------------------------
    lines = [
        f"{'scenario':<28}{'edge ms':>9}{'base ms':>9}{'x':>6}"
        f"{'arena KiB':>11}{'dw rows':>8}{'KiB/batch':>11}"
    ]
    for name, row in rows.items():
        lines.append(
            f"{name:<28}{row['edge_ms']:>9.2f}"
            f"{row['edge_ms_baseline_unoptimized']:>9.2f}"
            f"{row['edge_speedup_vs_unoptimized']:>6.2f}"
            f"{row['arena_bytes'] / 1024:>11.0f}{row['depthwise_rows_ops']:>8}"
            f"{row['payload_bytes_per_batch'] / 1024:>11.1f}"
        )
    lines.append(
        f"(baselines re-measured interleaved in this run; "
        f"L2 budget {L2_BUDGET_BYTES} B; min over {_ROUNDS} rounds)"
    )
    emit(
        results_dir,
        "scenario_matrix",
        "\n".join(lines),
        data={
            "l2_budget_bytes": L2_BUDGET_BYTES,
            "rounds": _ROUNDS,
            "scenarios": rows,
            # Matrix-wide fold of the per-row digests: any scenario's
            # program changing changes the artifact's headline digests.
            **combined_stamp(rows),
        },
    )
