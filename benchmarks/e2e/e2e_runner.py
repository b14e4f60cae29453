"""One workload, start to finish, in this process.

``WorkloadRun.run()`` is the whole protocol: three timed set-up cycles,
the output gate, one continuous schedule (discarded warm-up, then the
window - and in the traced pass a second half with wrappers installed),
the sampled output check, the ledger, the offline probes and the process
hygiene check.  It returns the full result dict that ``run.py`` prints
and writes.
"""

from __future__ import annotations

from pathlib import Path
from statistics import median
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

import e2e_measure as m
import e2e_probes as probes
from e2e_trace import Tracer
from e2e_workloads import (
    GATE_IMAGES, SAMPLED, WARM_SECONDS, WORKLOADS, make_images, open_traffic,
    rng_for, stream_batches,
)

Phases = List[Tuple[str, float]]


def phase_plan(seconds: float, trace: bool, smoke: bool) -> Tuple[Phases, Optional[int]]:
    """Phases of one continuous run and the index the wrappers go in at.

    The first phase is sent and discarded (it covers the slow regime
    that can follow a zeros warm-up); the window follows with no idle
    gap.  The traced pass spends half of the window untraced, so the
    tracing overhead is measured inside one process.
    """
    warm = 0.3 if smoke else WARM_SECONDS
    if not trace:
        return [("warm", warm), ("timed", seconds)], None
    rewarm = 0.2 if smoke else 1.0
    return [("warm", warm), ("untraced", seconds / 2), ("rewarm", rewarm),
            ("traced", seconds / 2)], 2


class WorkloadRun:
    def __init__(self, name: str, seed: int, seconds: float, trace: bool, smoke: bool,
                 layer_units: Dict[str, str], spans_dir: Path, root: Path):
        self.workload = WORKLOADS[name]
        self.seed, self.seconds, self.trace, self.smoke = seed, seconds, trace, smoke
        self.layer_units, self.spans_dir, self.root = layer_units, spans_dir, root
        self.rng = rng_for(name, seed)
        self.gate_images = make_images(self.rng, GATE_IMAGES, self.workload.input_size)
        self.first_chunk = self.gate_images[:self.workload.max_batch_size]
        self.plan, self.traced_from = phase_plan(seconds, trace, smoke)
        self.main = "untraced" if trace else "timed"
        self.tracer = Tracer() if trace else None
        self.captured: List[Any] = []
        self.notes: List[str] = []
        self.layers: probes.Metrics = {}
        self.end_to_end: Dict[str, Any] = {}
        self.dep = None
        self.attempted = self.failed = self.wrong = 0
        self.ledger_ok = self.invalid = False
        # dep.traces indices and batching counters at both ends of each phase
        self.marks: Dict[Tuple[str, int], Dict[str, float]] = {}

    # -- helpers -------------------------------------------------------
    @property
    def clustered(self) -> bool:
        return self.workload.spec.get("replicas", 1) > 1

    @property
    def cached(self) -> bool:
        return bool(self.workload.spec.get("cache"))

    def counters(self) -> Dict[str, float]:
        stats = self.dep.batching_stats
        return {"batches": stats.batches, "images": stats.images,
                "traces": len(getattr(self.dep, "traces", ()))}

    def install(self) -> None:
        probes.install(self.tracer, self.dep, self.workload, self.captured)

    def probe(self, fn: Callable[..., probes.Metrics], *args) -> None:
        self.layers.update(probes.guarded(fn, *args))

    # -- the protocol --------------------------------------------------
    def run(self) -> Dict[str, Any]:
        # Set-up: fresh deploy -> warmup -> first checked result, three
        # times over; the last deployment serves the run.
        cycles = 1 if (self.smoke or self.trace) else 3
        setups, closes, firsts = [], [], []
        for _ in range(cycles):
            if self.dep is not None:
                closes.append(probes.timed(self.dep.close))
            self.dep, first, times = m.setup_cycle(self.workload, self.first_chunk)
            setups.append(times)
            firsts.append(first)
        try:
            gate_ok = m.run_gate(self.workload, self.dep, firsts, self.gate_images, self.notes)
            if self.workload.open_loop:
                self.open_loop()
            else:
                self.closed_loop()
            window_traces = self.window_traces()
            self.end_to_end.update({
                "wire_bytes_per_image": m.metric(
                    m.wire_bytes_per_image(window_traces), "B", len(window_traces)),
                "peak_rss_mb": m.metric(m.peak_rss_mib(self.replica_pids()), "MiB"),
                "setup_s": m.metric(median([t.total for t in setups]), "s", cycles),
            })
            self.count_probes(setups, window_traces)
            if self.trace:
                self.traced_probes()
        finally:
            closes.append(probes.timed(self.dep.close))
        self.layers["deployment.close_ms"] = median(closes) * 1e3
        if self.trace:
            self.offline_probes(setups[-1].total)
        stray = m.leftovers()
        if stray:
            self.notes.append("outlived their deployment: " + ", ".join(stray))
        return {
            "workload": self.workload.name, "seed": self.seed, "seconds": self.seconds,
            "trace": self.trace, "smoke": self.smoke, "warm_seconds": self.plan[0][1],
            "correct": bool(gate_ok and self.ledger_ok and self.wrong == 0 and not stray),
            "invalid": bool(self.invalid),
            "attempted": int(self.attempted), "failed": int(self.failed),
            "end_to_end": self.end_to_end,
            # The untraced pass lists only what it measured (counts).
            "per_layer": {
                key: m.metric(self.layers.get(key), unit)
                for key, unit in self.layer_units.items()
                if self.trace or self.layers.get(key) is not None
            },
            "notes": self.notes,
            "host": m.host_stamp(self.root),
        }

    # -- open loop -----------------------------------------------------
    def open_loop(self) -> None:
        workload, dep, notes = self.workload, self.dep, self.notes
        bounds = np.cumsum([0.0] + [seconds for _, seconds in self.plan])
        edge = {label: (float(bounds[i]), float(bounds[i + 1]))
                for i, (label, _) in enumerate(self.plan)}
        traffic = open_traffic(workload, self.rng, [seconds for _, seconds in self.plan])
        window = m.open_window(traffic, *edge[self.main])
        # Four candidates per sampled slot: under overload a quarter of
        # the requests is shed at the door and has no output to check.
        keep = self.rng.choice(window, size=min(4 * SAMPLED, len(window)), replace=False)
        log = m.drive_open(
            dep, traffic, bounds.tolist(), self.counters, keep=keep,
            barrier_at=edge["rewarm"][0] if self.trace else None, on_barrier=self.install,
        )
        if self.tracer is not None:
            self.tracer.uninstall()
        for label, (low, high) in edge.items():
            self.marks[(label, 0)], self.marks[(label, 1)] = log.marks[low], log.marks[high]

        # Sequential batch-1 reference; with a cache in the path it must
        # come from a cache-less twin or it would only read back the cache.
        reference = m.deploy(workload.spec, cache=None) if self.cached else dep
        try:
            self.wrong = m.check_sampled(log, traffic.image_for, reference.infer, notes)
        finally:
            if reference is not dep:
                reference.close()
        self.ledger_ok = m.check_ledger(dep, log, notes)
        self.end_to_end = m.open_end_to_end(log, window, notes, workload.name)

        status = log.status[window]
        ok = window[status == m.OK]
        refused = int(np.sum(status == m.SHED)) if workload.sheds else 0
        self.attempted = len(window)
        self.failed = len(window) - len(ok) - refused
        late = (log.sent[window] - log.due[window]) * 1e3
        self.layers.update({
            "loadgen.sent": len(window),
            "loadgen.late_p99_ms": float(np.percentile(late, 99)),
            "loadgen.late_max_ms": float(late.max()),
            "loadgen.p99_ms": (
                float(np.percentile((log.done[ok] - log.due[ok]) * 1e3, 99)) if len(ok) else None),
            "loadgen.fail_share": 1.0 - len(ok) / len(window),
        })
        self.invalid = not workload.sheds and float(np.percentile(late, 95)) > m.LATE_LIMIT_MS
        if self.invalid:
            notes.append(f"invalid: generator ran late (p95 > {m.LATE_LIMIT_MS:g} ms)")

        # Counts and the generator's own stamps cost nothing, so both
        # passes report them: over the traced half when there is one.
        label = "traced" if self.trace else self.main
        layer_window = m.open_window(traffic, *edge[label])
        self.layers.update(probes.submit_metrics(log, layer_window, self.cached))
        self.layers.update(probes.batching_counts(self.marks[(label, 0)], self.marks[(label, 1)]))
        self.layers.update({
            "batching.shed": int(np.sum(log.status[layer_window] == m.SHED)),
            "batching.expired": int(np.sum(log.status[layer_window] == m.EXPIRED)),
            "cache.duplicate_share": (
                float(np.mean(traffic.duplicate[layer_window])) if self.cached else None),
        })
        if not self.trace:
            return

        spans = self.tracer.spans
        self.layers.update(probes.span_metrics(spans, "pipeline.infer"))
        first_traced = int(np.searchsorted(traffic.due, edge["rewarm"][0]))
        self.layers.update(probes.queue_metrics(spans, log, first_traced, layer_window))
        traced_p50 = m.open_end_to_end(log, layer_window, [], workload.name)["p50_ms"]["value"]
        untraced_p50 = self.end_to_end["p50_ms"]["value"]
        if traced_p50 and untraced_p50:
            self.layers["trace.overhead_p50_pct"] = 100.0 * (traced_p50 / untraced_p50 - 1.0)
        if self.cached:
            self.probe(probes.key_for_us, dep, [traffic.image_for(i) for i in range(SAMPLED)])

    # -- closed loop ---------------------------------------------------
    def closed_loop(self) -> None:
        workload, dep, tracer, notes = self.workload, self.dep, self.tracer, self.notes
        if workload.kind == "stream":
            batches = stream_batches(workload, self.rng)
            # quant8 quantises per batch, so the sequential reference is
            # the same batch through infer, not its images one by one.
            wants = [dep.infer(batch) for batch in batches]
            images_per_call = sum(len(batch) for batch in batches)
            root = span_root = "stream.call"

            def call(index: int, traced: bool):
                if traced:
                    outputs, _ = tracer.call(root, dep.stream, batches, n=len(batches))
                else:
                    outputs, _ = dep.stream(batches)
                return images_per_call, outputs

            def delta(one: m.Call) -> float:
                return max(m.max_abs_delta(got, want) for got, want in zip(one.output, wants))
        else:
            pool = make_images(self.rng, workload.pool, workload.input_size)
            sizes = workload.churn_sizes
            batch_keys = [
                (np.arange(sizes[k % len(sizes)]) + 7 * k) % workload.pool
                for k in range(8 * len(sizes))
            ]
            batches = [pool[keys] for keys in batch_keys]
            root, span_root = "infer.call", "pipeline.infer"
            rows: Dict[int, Dict[str, np.ndarray]] = {}

            def call(index: int, traced: bool):
                batch = batches[index % len(batches)]
                if traced:
                    return len(batch), tracer.call(root, dep.infer, batch, n=len(batch))
                return len(batch), dep.infer(batch)

            def delta(one: m.Call) -> float:
                keys = batch_keys[one.index % len(batches)]
                for key in keys:
                    if key not in rows:
                        rows[key] = dep.infer(pool[key:key + 1])
                want = {task: np.concatenate([rows[key][task] for key in keys])
                        for task in one.output}
                return m.max_abs_delta(one.output, want)

        calls = m.drive_closed(call, self.plan, self.counters, self.marks,
                               self.traced_from, self.install)
        if tracer is not None:
            tracer.uninstall()
        window = [c for c in calls if c.phase == self.main]
        picked = [window[i] for i in
                  self.rng.choice(len(window), min(SAMPLED, len(window)), replace=False)]
        deltas = [delta(one) for one in picked]
        self.wrong = sum(d > m.SAMPLE_TOLERANCE for d in deltas)
        notes.append(f"sampled: {len(picked)} calls vs sequential reference, max-abs "
                     f"{max(deltas):.3g} (<= {m.SAMPLE_TOLERANCE:g}), {self.wrong} wrong")
        self.ledger_ok = dep.batching_stats.submitted == 0
        notes.append(f"ledger: {len(window)} calls sent = {len(window)} returned; "
                     f"batcher untouched: {self.ledger_ok}")
        self.attempted, self.failed = len(window), self.wrong
        self.end_to_end = m.closed_end_to_end(window, len(window) - self.wrong, notes, workload.name)
        self.layers.update({"loadgen.sent": len(window),
                            "loadgen.fail_share": self.wrong / len(window)})
        if self.trace:
            traced = [c for c in calls if c.phase == "traced"]
            self.layers.update(probes.span_metrics(tracer.spans, span_root))
            self.layers["trace.attributed_pct"] = probes.closed_attribution(tracer.spans, root)
            self.layers["trace.overhead_p50_pct"] = probes.closed_overhead_pct(window, traced)

    # -- numbers that do not depend on the loop kind -------------------
    def window_traces(self) -> Sequence[Any]:
        """``InferenceTrace`` records of the batches the window ran."""
        traces = getattr(self.dep, "traces", None)
        if traces is not None:
            low, high = (int(self.marks[(self.main, side)]["traces"]) for side in (0, 1))
            return traces[low:high]
        # A cluster keeps its traces inside the replicas: read the
        # payload size off a single-process twin of the same spec.
        twin = m.deploy(self.workload.spec, replicas=1)
        try:
            twin.infer(self.first_chunk)
            return list(twin.traces)
        finally:
            twin.close()

    def replica_pids(self) -> List[int]:
        if not self.clustered:
            return []
        return [r["pid"] for r in self.dep.report().per_replica if r.get("pid")]

    def count_probes(self, setups: Sequence[m.SetupTimes], window_traces: Sequence[Any]) -> None:
        """What both passes report: the set-up parts and the counts the
        deployment's public stats objects hold."""
        self.layers.update({
            "deployment.build_ms": median([t.build for t in setups]) * 1e3,
            "deployment.warmup_ms": median([t.warmup for t in setups]) * 1e3,
            "deployment.first_infer_ms": median([t.first_infer for t in setups]) * 1e3,
        })
        if window_traces:
            self.layers.update({
                "runtime.modelled_transfer_ms": (
                    median([t.transfer_seconds for t in window_traces]) * 1e3),
                "wire.payload_bytes": median([t.payload_bytes for t in window_traces]),
            })
        self.probe(probes.engine_counts, self.dep)
        if self.cached:
            self.probe(probes.cache_counts, self.dep)
        if self.clustered:
            self.probe(probes.cluster_counts, self.dep)

    def traced_probes(self) -> None:
        """Timed probes on the run's own deployment, after its window."""
        workload, dep, spans = self.workload, self.dep, self.tracer.spans
        self.layers["trace.spans"] = len(spans)
        self.probe(probes.wire_replay, self.captured, workload.spec["wire"])
        if self.clustered:
            self.probe(probes.cluster_roundtrip, dep, self.first_chunk, 8 if self.smoke else 32)
        else:
            self.probe(probes.engine_estimates, dep, workload.input_size)
        self.layers["engine.achieved_gflops"] = probes.achieved_gflops(
            spans, self.layers.get("engine.est_flops_per_image"))

    def offline_probes(self, setup_seconds: float) -> None:
        """Probes on fresh deployments, after the run's own is closed."""
        self.spans_dir.mkdir(parents=True, exist_ok=True)
        self.tracer.write_jsonl(
            self.spans_dir / f"{self.workload.name}-seed{self.seed}.spans.jsonl")
        if self.tracer.missing:
            self.notes.append("probe targets gone: " + ", ".join(self.tracer.missing))
        if self.smoke and setup_seconds > 0.5:
            # The smoke run checks plumbing within seconds: two more
            # deployments of a slow-to-build spec are not worth it there.
            self.notes.append("smoke: settle/plan-build probes skipped (set-up > 0.5 s)")
            return
        self.probe(probes.settle_ms, self.workload, self.first_chunk, 0.3 if self.smoke else 1.5)
        self.probe(probes.plan_build_ms, self.workload, self.gate_images)
