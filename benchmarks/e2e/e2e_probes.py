"""Per-layer metrics: wrappers for the traced pass and offline probes.

Every probe reaches its layer through a public attribute of a live
deployment and reports ``None`` when that attribute is gone, so a later
restructuring of the program changes which numbers are available, never
whether the benchmark runs.  Layer names are the repository's modules:
``deployment`` (``serve/deployment.py``), ``batching``, ``runtime``,
``engine`` (``nn/engine``), ``wire`` (``deployment/wire.py``), ``cache``,
``cluster``.
"""

from __future__ import annotations

from statistics import median
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

from e2e_measure import OK, SHED, Call, OpenLog, deploy
from e2e_trace import Span, Tracer, clock, covered, match_fifo, percentile, self_times
from e2e_workloads import Workload

#: Z_b arrays / payloads kept from the traced window for the codec replay.
CAPTURED = 32

Metrics = Dict[str, Optional[float]]


def guarded(probe: Callable[..., Metrics], *args) -> Metrics:
    """Run one probe; a target that no longer exists yields no metrics."""
    try:
        return probe(*args)
    except (AttributeError, ImportError, KeyError, TypeError):
        return {}


# ----------------------------------------------------------------------
# Wrappers for the traced pass
# ----------------------------------------------------------------------
def install(tracer: Tracer, dep, workload: Workload, captured: List[Any]) -> None:
    if getattr(dep, "pipeline", None) is None:
        return          # a cluster's pipelines live in the replica processes

    def capture(args, payload):
        if len(captured) < CAPTURED:
            captured.append((np.array(args[0], copy=True), payload))

    tracer.wrap(dep, "pipeline.infer", "pipeline.infer")
    tracer.wrap(dep, "pipeline.edge.forward", "edge.forward")
    tracer.wrap(dep, "pipeline.edge.session.run", "engine.run")
    tracer.wrap(dep, "pipeline.edge.encode", "edge.encode", capture=capture)
    # Deployment.stream sends on the bare link; infer goes through the
    # retrying wrapper around it.
    link = "pipeline.link.send" if workload.kind == "stream" else "pipeline.resilient.send"
    tracer.wrap(dep, link, "link.send")
    tracer.wrap(dep, "pipeline.server.infer", "server.infer")


def _p50(spans: Sequence[Span], name: str, scale: float) -> Optional[float]:
    durations = [(s.end - s.start) * scale for s in spans if s.name == name]
    return percentile(durations, 50.0)


def span_metrics(spans: Sequence[Span], root: str) -> Metrics:
    """Medians per named span, and the self time of the ``root`` spans
    (``pipeline.infer`` calls, or the harness's own ``stream.call``)."""
    out: Metrics = {
        "runtime.pipeline_infer_ms_p50": _p50(spans, "pipeline.infer", 1e3),
        "runtime.edge_forward_ms_p50": _p50(spans, "edge.forward", 1e3),
        "runtime.edge_encode_ms_p50": _p50(spans, "edge.encode", 1e3),
        "runtime.link_send_us_p50": _p50(spans, "link.send", 1e6),
        "runtime.server_infer_ms_p50": _p50(spans, "server.infer", 1e3),
        "engine.run_ms_p50": _p50(spans, "engine.run", 1e3),
    }
    if root == "pipeline.infer":
        own = self_times(spans)
        selves = [own[s.id] * 1e3 for s in spans if s.name == root]
    else:
        # Stream calls overlap a server thread: what no named span on
        # any thread covers, per batch of the call.
        selves = [
            (s.end - s.start - _coverage(s, spans)) * 1e3 / max(s.n, 1)
            for s in spans if s.name == root
        ]
    out["runtime.pipeline_self_ms_p50"] = percentile(selves, 50.0)
    return out


def _coverage(root: Span, spans: Sequence[Span]) -> float:
    inside = [
        (s.start, s.end) for s in spans
        if s.id != root.id and s.start >= root.start and s.end <= root.end
    ]
    return covered(root.start, root.end, inside)


def closed_attribution(spans: Sequence[Span], root: str) -> Optional[float]:
    """Share of the closed-loop calls' time that named spans cover."""
    roots = [s for s in spans if s.name == root]
    total = sum(s.end - s.start for s in roots)
    if not total:
        return None
    return 100.0 * sum(_coverage(s, spans) for s in roots) / total


def achieved_gflops(spans: Sequence[Span], flops_per_image: Optional[float]) -> Optional[float]:
    runs = [s for s in spans if s.name == "engine.run"]
    busy = sum(s.end - s.start for s in runs)
    if not busy or not flops_per_image:
        return None
    return flops_per_image * sum(s.n for s in runs) / busy / 1e9


def queue_metrics(
    spans: Sequence[Span], log: OpenLog, after: int, window: np.ndarray
) -> Metrics:
    """Queue wait, resolve time and attribution per request.

    ``after`` is the first request sent once the wrappers were in (the
    deployment was idle then), so accepted requests from there on and
    ``pipeline.infer`` spans pair up in FIFO order.
    """
    batches = sorted((s for s in spans if s.name == "pipeline.infer"), key=lambda s: s.start)
    indices = np.arange(after, len(log.status))
    accepted = indices[(log.status[indices] != SHED) & ~log.hit[indices]]
    pairs = match_fifo([b.n for b in batches], accepted.tolist())
    if pairs is None:
        return {}
    children: Dict[int, float] = {}         # batch root id -> time in its direct children
    for span in spans:
        if span.parent >= 0:
            children[span.parent] = children.get(span.parent, 0.0) + span.end - span.start
    in_window = set(window.tolist())
    waits, resolves, named, total = [], [], 0.0, 0.0
    for request, index in pairs:
        if request not in in_window or log.status[request] != OK:
            continue
        batch = batches[index]
        wait = batch.start - log.sent[request]
        resolve = log.done[request] - batch.end
        waits.append(wait * 1e3)
        resolves.append(resolve * 1e6)
        named += wait + children.get(batch.id, 0.0) + resolve
        total += log.done[request] - log.due[request]
    return {
        "batching.queue_wait_ms_p50": percentile(waits, 50.0),
        "batching.queue_wait_ms_p95": percentile(waits, 95.0),
        "batching.resolve_us_p50": percentile(resolves, 50.0),
        "trace.attributed_pct": 100.0 * named / total if total else None,
    }


def submit_metrics(log: OpenLog, window: np.ndarray, cached: bool) -> Metrics:
    """Caller time inside ``submit``; with a cache in the path, split by
    whether the future was already resolved when it returned (a hit at
    admission)."""
    cost = (log.ret[window] - log.sent[window]) * 1e6
    out: Metrics = {"batching.submit_call_us_p50": percentile(cost.tolist(), 50.0)}
    if cached:
        status, hit = log.status[window], log.hit[window]
        out["cache.hit_submit_us_p50"] = percentile(cost[hit].tolist(), 50.0)
        out["cache.miss_submit_us_p50"] = percentile(
            cost[~hit & (status != SHED)].tolist(), 50.0)
    return out


# ----------------------------------------------------------------------
# Counts from public stats objects
# ----------------------------------------------------------------------
def batching_counts(start: Dict[str, float], end: Dict[str, float]) -> Metrics:
    batches = end["batches"] - start["batches"]
    images = end["images"] - start["images"]
    return {
        "batching.batches": batches,
        "batching.mean_batch_size": images / batches if batches else None,
    }


def engine_counts(dep) -> Metrics:
    if getattr(dep, "pipeline", None) is None:
        totals = dep.report().aggregate
        return {
            "engine.arena_bytes": totals.arena_bytes,
            "engine.steady_state_allocs": totals.steady_state_allocs,
            "engine.fused_steps": totals.fused_steps,
        }
    stats = [dep.pipeline.edge.plan_stats, dep.pipeline.server.plan_stats]
    stats = [s for s in stats if s is not None]
    return {
        "engine.arena_bytes": sum(s.arena_bytes for s in stats),
        "engine.steady_state_allocs": sum(s.steady_state_allocs for s in stats),
        "engine.num_steps": sum(s.num_steps for s in stats),
        "engine.fused_steps": sum(s.fused_steps for s in stats),
    }


def engine_estimates(dep, size: int) -> Metrics:
    """Estimated edge FLOPs and bytes moved per image - computed from
    the lowered, optimized plan IR at batch 1, not measured."""
    from repro.nn.engine import PlanStats, estimate_step_cost, lower_session, run_passes

    ir = lower_session(dep.pipeline.edge.session.session, (1, 3, size, size))
    run_passes(ir, PlanStats(), probe=False)
    costs = [estimate_step_cost(ir, step) for step in ir.steps]
    return {
        "engine.est_flops_per_image": sum(flops for flops, _ in costs),
        "engine.est_bytes_per_image": sum(nbytes for _, nbytes in costs),
    }


def cache_counts(dep) -> Metrics:
    tiers = dep.cache_stats()
    response, feature = tiers.get("response", {}), tiers.get("feature", {})
    lookups = response.get("hits", 0) + response.get("misses", 0)
    return {
        "cache.response_hits": response.get("hits"),
        "cache.response_misses": response.get("misses"),
        "cache.feature_hits": feature.get("hits"),
        "cache.evictions": response.get("evictions", 0) + feature.get("evictions", 0),
        "cache.coalesced": response.get("coalesced"),
        "cache.hit_ratio": response["hits"] / lookups if lookups else None,
    }


# ----------------------------------------------------------------------
# Offline probes (outside every timed window)
# ----------------------------------------------------------------------
def timed(fn: Callable, *args) -> float:
    start = clock()
    fn(*args)
    return clock() - start


def settle_ms(workload: Workload, batch: np.ndarray, budget_s: float) -> Metrics:
    """Time after ``warmup()`` until a 5-call rolling median of ``infer``
    is within 1.5x the steady value (0 when it starts out steady)."""
    dep = deploy(workload.spec, replicas=1, cache=None)
    try:
        dep.warmup(range(1, workload.max_batch_size + 1))
        origin = clock()
        starts, costs = [], []
        while clock() - origin < budget_s:
            starts.append(clock() - origin)
            costs.append(timed(dep.infer, batch))
    finally:
        dep.close()
    steady = median(costs[-max(len(costs) // 5, 1):])
    for index in range(max(len(costs) - 4, 1)):
        if median(costs[index:index + 5]) <= 1.5 * steady:
            return {"deployment.settle_ms": starts[index] * 1e3}
    return {"deployment.settle_ms": budget_s * 1e3}


def plan_build_ms(workload: Workload, images: np.ndarray) -> Metrics:
    """Cold-shape minus warm-shape ``infer`` per batch size, on a fresh
    deployment: what building and lowering one plan pair costs."""
    dep = deploy(workload.spec, replicas=1, cache=None)
    try:
        builds = []
        for size in range(1, min(workload.max_batch_size, len(images)) + 1):
            batch = images[:size]
            cold = timed(dep.infer, batch)
            warm = median([timed(dep.infer, batch) for _ in range(3)])
            builds.append((cold - warm) * 1e3)
    finally:
        dep.close()
    return {"engine.plan_build_ms_p50": median(builds)}


def wire_replay(captured: Sequence[Any], wire: str) -> Metrics:
    from repro.deployment.wire import WireFormat, decode_tensor, encode_tensor

    if not captured:
        return {}
    wire_format = WireFormat(wire)
    encode = [median([timed(encode_tensor, z, wire_format) for _ in range(5)]) for z, _ in captured]
    decode = [median([timed(decode_tensor, p) for _ in range(5)]) for _, p in captured]
    return {
        "wire.encode_ms_p50": median(encode) * 1e3,
        "wire.decode_ms_p50": median(decode) * 1e3,
    }


def key_for_us(dep, images: Sequence[np.ndarray]) -> Metrics:
    cache = dep.cache.response
    return {"cache.key_for_us_p50": median([timed(cache.key_for, x) for x in images]) * 1e6}


def cluster_counts(dep) -> Metrics:
    report = dep.report()
    dispatch = [r["p50_ms"] for r in report.per_replica if r.get("p50_ms") is not None]
    return {
        "cluster.replica_batch_ms_p50": median(dispatch) if dispatch else None,
        "cluster.restarts": report.aggregate.worker_restarts,
        "cluster.failovers": report.aggregate.failovers,
    }


def cluster_roundtrip(dep, batch: np.ndarray, rounds: int) -> Metrics:
    """Synchronous round trips through the router, against the time the
    replicas report spending inside their own pipelines for them."""
    before = dep.report().aggregate
    trip = median([timed(dep.infer, batch) * 1e3 for _ in range(rounds)])
    after = dep.report().aggregate
    inside = (
        (after.edge_seconds + after.server_seconds)
        - (before.edge_seconds + before.server_seconds)
    ) * 1e3 / max(after.batches - before.batches, 1)
    return {
        "cluster.infer_roundtrip_ms_p50": trip,
        "cluster.ipc_overhead_ms_p50": trip - inside,
    }


def closed_overhead_pct(untraced: Sequence[Call], traced: Sequence[Call]) -> Optional[float]:
    def rate(calls: Sequence[Call]) -> float:
        return sum(c.images for c in calls) / (calls[-1].end - calls[0].start)

    if not untraced or not traced:
        return None
    return 100.0 * (rate(untraced) / rate(traced) - 1.0)
