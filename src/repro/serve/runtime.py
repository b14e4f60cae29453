"""Split-computing pipeline runtime (paper Fig. 1, executed).

This module is the execution layer under :mod:`repro.serve`: the
:class:`EdgeRuntime` runs the edge half and serialises ``Z_b`` payloads, a
:class:`SimulatedLink` accounts their transfer time, and the
:class:`ServerRuntime` decodes them and runs the task heads.  The
pipeline's outputs are numerically identical to the monolithic network
when the float32 wire format is used — the property the integration tests
assert — and the accumulated timing gives a measured (not merely
modelled) view of where inference time goes.

Both runtimes execute one way: the half is lowered by the fused inference
compiler (:mod:`repro.nn.fuse` — batch-norm folded into conv weights,
activations fused, no autograd graph) and run by the arena-planned
execution engine (:mod:`repro.nn.engine`): a static per-batch-shape plan
with preallocated buffers and sparse-lowered convolutions — or, at hires
geometries, per-image plans fanned out over the cores (the engine's
geometry rule decides, see ``docs/architecture.md``).  A half the planner refuses
(``Unplannable``) runs through the fused session instead — a fallback the
executor takes on its own, not a mode a caller selects.

:meth:`SplitPipeline.infer_stream` additionally *overlaps* the stages:
a double-buffered server worker consumes payloads while the edge computes
the next batch, and the accompanying :class:`ThroughputReport` schedules
the modelled transfer into the gap — so multi-batch wall time sits below
the serial sum of per-stage times, the way a real deployment's would.

Every runtime object here owns resources (planned executors hold worker
thread pools): call :meth:`close` — or use the objects as context
managers — to reclaim them.  The high-level entry point is
:func:`repro.serve.deploy`, which wires all of this from one declarative
:class:`~repro.serve.spec.DeploymentSpec`; prefer it over assembling
runtimes by hand.
"""

from __future__ import annotations

import dataclasses
import queue
import threading
import time
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..core.architecture import EdgeModel, MTLSplitNet, ServerModel
from ..deployment.channel import NetworkChannel
from ..deployment.wire import WireFormat, decode_tensor, encode_tensor
from ..nn.engine import PlanStats, PlannedExecutor, Unplannable
from .faults import (
    FALLBACK_MODES,
    ChannelDownError,
    FaultPlan,
    FaultStats,
    ResilientLink,
)

__all__ = [
    "InferenceTrace",
    "EdgeRuntime",
    "ServerRuntime",
    "SimulatedLink",
    "SplitPipeline",
    "ThroughputReport",
]


@dataclass
class InferenceTrace:
    """Timing and payload record for one pipeline invocation."""

    batch_size: int
    payload_bytes: int
    edge_seconds: float
    transfer_seconds: float
    server_seconds: float

    @property
    def total_seconds(self) -> float:
        return self.edge_seconds + self.transfer_seconds + self.server_seconds


class _RuntimeBase:
    """Lifecycle + plan introspection shared by the two stage runtimes.

    A runtime's session is a :class:`~repro.nn.engine.PlannedExecutor`
    whose fan-out pool keeps daemon threads alive once a hires batch
    ran; :meth:`close` stops and joins them.  Runtimes are context managers so deployments can scope the
    resources: ``with EdgeRuntime(model) as edge: ...``.
    """

    session: PlannedExecutor

    @property
    def planned(self) -> bool:
        """False once the planner refused this half (``Unplannable``) and
        the executor fell back to its fused session."""
        return self.session.planned

    @property
    def plan_stats(self) -> PlanStats:
        return self.session.stats

    def plan_provenance(self, batch_shape: Tuple[int, ...]) -> str:
        """Deterministic text describing exactly how this half computes.

        The plan half of the serve-cache provenance digest and the
        :mod:`repro.attest` plan digest: the *optimized plan IR* lowered
        for ``batch_shape`` — so an optimizer pass change or an
        ``optimize`` flag flip changes the digest and retires every
        cached entry — or, for a half the planner refuses, the fused
        session description.  No arena is allocated:
        :meth:`~repro.nn.engine.PlannedExecutor.plan_ir` is pure IR work
        on the executor's shared plan template.
        """
        try:
            body = self.session.plan_ir(batch_shape).describe()
        except Unplannable:
            body = self.session.session.describe()
        return f"planned optimize={self.session.optimize}\n{body}"

    def close(self) -> None:
        """Release session resources (worker threads, cached plans)."""
        self.session.close()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()


class EdgeRuntime(_RuntimeBase):
    """Runs the edge half and serialises ``Z_b`` for transmission.

    The half executes through a :class:`~repro.nn.engine.PlannedExecutor`
    — a static, arena-backed execution plan per batch shape, or per-image
    plans on up to ``fan_out`` threads where the engine's geometry rule
    says so (``fan_out`` is the deployment's measured width, not a knob).
    Executor-owned outputs are safe here because every ``Z_b`` is
    serialised to bytes before the next batch.
    """

    def __init__(
        self,
        model: EdgeModel,
        wire_format: WireFormat = WireFormat(),
        optimize: bool = True,
        max_cached_plans: int = 8,
        fan_out: int = 1,
    ):
        self.model = model
        self.wire_format = wire_format
        self.model.eval()
        self.session = model.compile_for_inference(
            plan=True, fan_out=fan_out, copy_outputs=False,
            optimize=optimize, max_plans=max_cached_plans,
        )

    def forward(self, images: np.ndarray) -> Tuple[np.ndarray, float]:
        """Return ``(Z_b, edge_compute_seconds)`` — the raw activation
        at the cut, *before* wire encoding.

        The returned array may be an executor-owned buffer that the next
        ``forward`` overwrites; callers that keep rows (the split-point
        feature cache) must copy them out before the next batch runs.
        """
        start = time.perf_counter()
        z_b = self.session.run(images)
        return z_b, time.perf_counter() - start

    def encode(self, z_b: np.ndarray) -> bytes:
        """Serialise an activation for the wire (the codec half of
        :meth:`infer`)."""
        return encode_tensor(z_b, self.wire_format)

    def output_shape(self, batch_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        """The shape of ``Z_b`` for ``batch_shape`` inputs.

        Read off the plan template (no forward, no arena); a half the
        planner refuses runs one zeros forward through its fallback
        session.  Used to lower the *server* half's plan for provenance
        digests without running real traffic.
        """
        try:
            ir = self.session.plan_ir(batch_shape)
            # plan_ir is the batch-1 program at per-image geometries.
            return (batch_shape[0],) + ir.values[ir.outputs[None]].row_shape[1:]
        except Unplannable:
            z_b, _ = self.forward(np.zeros(batch_shape, dtype=np.float32))
            return tuple(z_b.shape)

    def infer(self, images: np.ndarray) -> Tuple[bytes, float]:
        """Return ``(payload, edge_compute_seconds)`` for a batch."""
        start = time.perf_counter()
        z_b, _ = self.forward(images)
        payload = self.encode(z_b)
        return payload, time.perf_counter() - start


class ServerRuntime(_RuntimeBase):
    """Decodes ``Z_b`` payloads and runs the remaining stages + heads.

    The planned executor here copies its outputs out of the arena
    (``copy_outputs=True``): the per-task logits are handed back to the
    caller and must stay valid across batches.
    """

    def __init__(
        self,
        model: ServerModel,
        task_names: Tuple[str, ...],
        optimize: bool = True,
        max_cached_plans: int = 8,
        fan_out: int = 1,
    ):
        self.model = model
        self.task_names = task_names
        self.model.eval()
        self.session = model.compile_for_inference(
            plan=True, fan_out=fan_out, copy_outputs=True,
            optimize=optimize, max_plans=max_cached_plans,
        )

    def infer(self, payload: bytes) -> Tuple[Dict[str, np.ndarray], float]:
        """Return ``(per-task logits, server_compute_seconds)``."""
        start = time.perf_counter()
        outputs = self.session.run(decode_tensor(payload))
        logits = {name: outputs[name] for name in self.task_names}
        return logits, time.perf_counter() - start


class SimulatedLink:
    """Accounts transfer time for payloads using a channel model.

    The transfer is simulated (no wall-clock sleep): the link records the
    modelled seconds so pipeline traces stay fast to produce while still
    reflecting the channel.
    """

    def __init__(self, channel: NetworkChannel):
        self.channel = channel
        self.bytes_sent = 0
        self.messages_sent = 0

    def send(self, payload: bytes) -> float:
        """Return the modelled transfer time for ``payload``."""
        self.bytes_sent += len(payload)
        self.messages_sent += 1
        return self.channel.transfer_seconds(len(payload))


@dataclass
class ThroughputReport:
    """Stage accounting for a multi-batch (optionally overlapped) run.

    ``serial_seconds`` is what strictly sequential edge → transfer →
    server execution would cost; ``pipelined_seconds`` is the makespan of
    the overlapped schedule (edge computes batch *i+1* while batch *i*
    is in flight and batch *i−1* is on the server); ``wall_seconds`` is
    the measured wall time of the double-buffered run (transfer is
    modelled, not slept, so it does not appear in the wall clock).

    The report also carries the plan engine's allocation accounting:
    ``arena_bytes`` (preallocated buffer arenas across both stages) and
    ``steady_state_allocs`` (per-batch allocations planning could not
    remove — zero for fully planned programs) — plus the
    optimizer accounting: ``fused_steps`` (bias/act/affine/residual
    steps absorbed into GEMM/SpMM epilogues), ``elided_copies``
    (activations rewritten to run in place), ``aliased_views``
    (flatten/reshape certified zero-copy — equally true of the
    unoptimized binder) and ``spmm_row_blocks`` (L2-sized row blocks
    across blocked SpMMs).

    The robustness counters account what the run *survived* (see
    ``docs/robustness.md``): ``shed`` (requests rejected by admission
    control or dropped because the channel was down with no fallback),
    ``deadline_misses`` (requests expired in queue), ``retries``
    (split-channel re-sends), ``fallback_batches``/``fallback_seconds``
    (work executed degraded, off the split path), ``link_down_events``
    and ``recoveries`` (degradation state-machine transitions —
    a positive ``recoveries`` is the observable proof the pipeline
    returned to split mode), and ``server_crashes`` (server-stage crash
    windows absorbed by local fallback).
    """

    batches: int
    images: int
    wall_seconds: float
    edge_seconds: float
    transfer_seconds: float
    server_seconds: float
    pipelined_seconds: float
    arena_bytes: int = 0
    steady_state_allocs: int = 0
    fused_steps: int = 0
    elided_copies: int = 0
    aliased_views: int = 0
    spmm_row_blocks: int = 0
    shed: int = 0
    deadline_misses: int = 0
    retries: int = 0
    fallback_batches: int = 0
    fallback_seconds: float = 0.0
    link_down_events: int = 0
    recoveries: int = 0
    server_crashes: int = 0
    # Serve-cache accounting, per tier (all zero without a CachePolicy;
    # see repro.serve.cache and docs/caching.md).  Hits/misses/evictions
    # are deltas for the run that produced this report; *_bytes is the
    # tier's occupancy gauge when the report was cut.
    response_hits: int = 0
    response_misses: int = 0
    response_evictions: int = 0
    response_bytes: int = 0
    feature_hits: int = 0
    feature_misses: int = 0
    feature_evictions: int = 0
    feature_bytes: int = 0
    # Cluster accounting (all zero for single-process deployments; see
    # repro.serve.cluster): how many worker processes served the run and
    # what the supervisor had to absorb while it ran.
    replicas: int = 1
    worker_crashes: int = 0
    worker_restarts: int = 0
    failovers: int = 0
    # Provenance stamps (see repro.attest and docs/benchmarking.md):
    # SHA-256 of the deployment spec and of the optimized plan-IR text,
    # so any perf artifact built from this report is traceable to exact
    # numerics.  Empty when the deployment has no stable provenance
    # (in-memory models) or the report predates stamping.
    spec_digest: str = ""
    plan_digest: str = ""

    @property
    def serial_seconds(self) -> float:
        return self.edge_seconds + self.transfer_seconds + self.server_seconds

    @property
    def offered(self) -> int:
        """Images offered to the run: completed + shed + expired."""
        return self.images + self.shed + self.deadline_misses

    @property
    def shed_rate(self) -> float:
        """Fraction of offered images rejected by admission control or
        dropped for lack of a fallback path."""
        return self.shed / self.offered if self.offered else 0.0

    @property
    def batches_per_second(self) -> float:
        return self.batches / self.pipelined_seconds if self.pipelined_seconds else 0.0

    @property
    def images_per_second(self) -> float:
        return self.images / self.pipelined_seconds if self.pipelined_seconds else 0.0

    @property
    def overlap_speedup(self) -> float:
        """Serial time over pipelined makespan (>1 when overlap helps)."""
        return self.serial_seconds / self.pipelined_seconds if self.pipelined_seconds else 1.0

    @property
    def stage_utilisation(self) -> Dict[str, float]:
        """Fraction of the pipelined makespan each stage is busy."""
        if not self.pipelined_seconds:
            return {"edge": 0.0, "transfer": 0.0, "server": 0.0}
        return {
            "edge": self.edge_seconds / self.pipelined_seconds,
            "transfer": self.transfer_seconds / self.pipelined_seconds,
            "server": self.server_seconds / self.pipelined_seconds,
        }

    @property
    def critical_stage(self) -> str:
        """The stage the pipeline is bound by (highest busy time)."""
        busy = {
            "edge": self.edge_seconds,
            "transfer": self.transfer_seconds,
            "server": self.server_seconds,
        }
        return max(busy, key=busy.get)

    @classmethod
    def from_stage_times(
        cls,
        batch_sizes: Sequence[int],
        edge: Sequence[float],
        transfer: Sequence[float],
        server: Sequence[float],
        wall_seconds: float,
        **counters: object,
    ) -> "ThroughputReport":
        """Build a report, scheduling the three stages as a pipeline.

        Each stage processes batches in order and holds one batch at a
        time; batch *i* enters a stage once both the previous stage has
        produced it and the stage finished batch *i−1*.  Keyword
        ``counters`` set the remaining report fields by name (engine,
        robustness and per-tier cache accounting).
        """
        edge_done = transfer_done = server_done = 0.0
        for e, t, s in zip(edge, transfer, server):
            edge_done = edge_done + e
            transfer_done = max(edge_done, transfer_done) + t
            server_done = max(transfer_done, server_done) + s
        return cls(
            batches=len(batch_sizes),
            images=int(sum(batch_sizes)),
            wall_seconds=wall_seconds,
            edge_seconds=float(sum(edge)),
            transfer_seconds=float(sum(transfer)),
            server_seconds=float(sum(server)),
            pipelined_seconds=server_done,
            **counters,
        )

    @classmethod
    def aggregate(
        cls,
        per_replica: Sequence["ThroughputReport"],
        wall_seconds: float,
        **overrides,
    ) -> "ThroughputReport":
        """Merge per-replica reports into one cluster-wide report.

        Counts and busy seconds sum across replicas; the cluster's
        ``pipelined_seconds`` is the shared wall clock (replicas run
        concurrently, so summing their makespans would be dishonest).
        ``overrides`` patch cluster-level fields (``replicas``,
        ``worker_crashes``, ``shed``, ...) the workers cannot see.

        The merge is *field-driven*, not a hand-maintained list: numeric
        counters sum, string stamps (the spec/plan provenance digests)
        keep their unanimous value and clear to ``""`` when replicas
        disagree, and fields added later aggregate without edits here —
        a worker's counter can never be silently dropped on the way up.
        """
        special = {"wall_seconds", "pipelined_seconds", "replicas"}
        merged_values = {}
        for spec in dataclasses.fields(cls):
            if spec.name in special:
                continue
            values = [getattr(r, spec.name) for r in per_replica]
            if not values:
                merged_values[spec.name] = (
                    spec.default if spec.default is not dataclasses.MISSING else 0
                )
            elif isinstance(values[0], str):
                merged_values[spec.name] = (
                    values[0] if all(v == values[0] for v in values) else ""
                )
            else:
                merged_values[spec.name] = sum(values)
        merged = cls(
            wall_seconds=wall_seconds,
            pipelined_seconds=wall_seconds,
            replicas=len(per_replica),
            **merged_values,
        )
        for name, value in overrides.items():
            if not hasattr(merged, name):
                raise TypeError(f"ThroughputReport has no field {name!r}")
            setattr(merged, name, value)
        return merged


class SplitPipeline:
    """End-to-end MTL-Split deployment: edge → link → server.

    Build one with :meth:`from_net`; call :meth:`infer` per batch (or
    :meth:`infer_stream` for overlapped multi-batch execution) and read
    the accumulated :attr:`traces`.  The pipeline owns its runtimes'
    resources: :meth:`close` (or exiting the pipeline's context) reclaims
    the planned executors' worker threads.

    With a :class:`~repro.serve.faults.FaultPlan` attached the pipeline
    becomes overload/fault-aware: sends go through a
    :class:`~repro.serve.faults.ResilientLink` (bounded retries,
    exponential backoff), and when the link is declared down the pipeline
    *degrades* instead of failing — ``fallback="edge"`` executes both
    halves locally (results bit-identical to the split path, since the
    same sessions and wire codec run), ``fallback="cloud"`` ships the raw
    input over the wire, ``fallback="none"`` sheds.  While degraded,
    every ``probe_every``-th request first probes the channel; a
    successful probe restores split mode.  All of it is visible in the
    :class:`ThroughputReport` robustness counters.
    """

    #: Trace retention cap.  The serving front-end keeps one pipeline
    #: open indefinitely and every ``infer`` appends a trace; without a
    #: bound the list grows with request count forever.  Oldest traces
    #: are dropped past the cap; set to ``None`` (class or instance) for
    #: offline analysis runs that want every trace.
    MAX_TRACES: Optional[int] = 100_000

    def __init__(
        self,
        edge: EdgeRuntime,
        link: SimulatedLink,
        server: ServerRuntime,
        faults: Optional[FaultPlan] = None,
        fallback: str = "edge",
        max_retries: int = 2,
        retry_backoff_s: float = 0.01,
        probe_every: int = 8,
    ):
        if fallback not in FALLBACK_MODES:
            raise ValueError(
                f"fallback must be one of {FALLBACK_MODES}, got {fallback!r}"
            )
        if not isinstance(probe_every, int) or probe_every < 1:
            raise ValueError(f"probe_every must be a positive int, got {probe_every!r}")
        self.edge = edge
        self.link = link
        self.server = server
        self.resilient = ResilientLink(
            link, plan=faults, max_retries=max_retries,
            backoff_seconds=retry_backoff_s,
        )
        self.fallback = fallback
        self.probe_every = probe_every
        # Optional split-point FeatureCache (repro.serve.cache), attached
        # by the Deployment after it computes the provenance digest.  Set,
        # the split path memoizes per-row edge activations at the cut;
        # None keeps the pre-cache behaviour byte-for-byte.
        self.feature_cache = None
        self.fallback_batches = 0
        self.fallback_seconds = 0.0
        self._down_requests = 0  # requests seen since the last probe
        self._server_calls = 0   # server-stage invocation index (crash windows)
        self.traces: List[InferenceTrace] = []

    @property
    def fault_stats(self) -> FaultStats:
        """The resilient link's lifetime fault counters."""
        return self.resilient.stats

    @property
    def degraded(self) -> bool:
        """Whether the pipeline is currently off the split path."""
        return self.resilient.is_down

    def _record_trace(self, trace: InferenceTrace) -> None:
        self.traces.append(trace)
        cap = self.MAX_TRACES
        if cap is not None and len(self.traces) > cap:
            del self.traces[: len(self.traces) - cap]

    @classmethod
    def from_net(
        cls,
        net: MTLSplitNet,
        channel: NetworkChannel,
        split_index: Optional[int] = None,
        input_size: int = 32,
        wire_format: WireFormat = WireFormat(),
        optimize: bool = True,
        max_cached_plans: int = 8,
        faults: Optional[FaultPlan] = None,
        fallback: str = "edge",
        max_retries: int = 2,
        retry_backoff_s: float = 0.01,
        probe_every: int = 8,
        fan_out: int = 1,
    ) -> "SplitPipeline":
        """Split ``net`` and wire the halves through a simulated channel.

        Both halves run through the arena-backed execution engine;
        ``optimize`` runs the plan-IR optimizer passes and
        ``max_cached_plans`` bounds each stage's per-shape plan cache
        (see :mod:`repro.nn.engine`); ``fan_out`` is how many threads a
        stage's per-image plans may use (a :class:`Deployment` passes
        :func:`~repro.nn.engine.fan_out_width` after pinning BLAS; leave
        it at 1 otherwise).  ``faults`` attaches a
        deterministic :class:`~repro.serve.faults.FaultPlan` to the wire;
        ``fallback``/``max_retries``/``retry_backoff_s``/``probe_every``
        configure the degradation state machine (class docstring).
        """
        edge_model, server_model = net.split(split_index, input_size=input_size)
        return cls(
            EdgeRuntime(
                edge_model, wire_format, optimize=optimize,
                max_cached_plans=max_cached_plans, fan_out=fan_out,
            ),
            SimulatedLink(channel),
            ServerRuntime(
                server_model, net.task_names, optimize=optimize,
                max_cached_plans=max_cached_plans, fan_out=fan_out,
            ),
            faults=faults,
            fallback=fallback,
            max_retries=max_retries,
            retry_backoff_s=retry_backoff_s,
            probe_every=probe_every,
        )

    # -- lifecycle -----------------------------------------------------
    def close(self) -> None:
        """Release both stages' executor resources (idempotent)."""
        self.edge.close()
        self.server.close()

    def __enter__(self) -> "SplitPipeline":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    def _plan_accounting(self) -> Dict[str, int]:
        """Engine accounting summed over both stages: every counter
        :class:`~repro.nn.engine.PlanStats` and the report both name."""
        stats = self.edge.plan_stats.merged(self.server.plan_stats)
        shared = {spec.name for spec in dataclasses.fields(ThroughputReport)}
        return {
            spec.name: getattr(stats, spec.name)
            for spec in dataclasses.fields(stats)
            if spec.name in shared
        }

    def warmup(self, images: np.ndarray) -> "SplitPipeline":
        """Prime both halves (plan build and arena for this batch shape).

        Runs one untraced end-to-end pass so that serving-time traces
        measure steady-state latency, the way a deployed engine would be
        exercised before accepting traffic.  The link is not charged.
        """
        payload, _ = self.edge.infer(images)
        self.server.infer(payload)
        return self

    def _edge_payload(self, images: np.ndarray) -> Tuple[bytes, float]:
        """The edge stage, through the split-point feature cache if one
        is attached.

        Per-row memoization at the cut: each image row is digested, hit
        rows reuse their cached activation, miss rows run the edge half
        as one sub-batch and populate the cache, and the reassembled
        ``Z_b`` (original row order) is encoded **once** as a whole
        batch — so the wire codec sees exactly the array a cache-less
        run would encode, and ``quant8``'s per-batch quantisation stays
        consistent.  A fully-hit batch skips edge compute entirely and
        pays only the codec here (+ wire + server head downstream).
        """
        cache = self.feature_cache
        if cache is None:
            return self.edge.infer(images)
        start = time.perf_counter()
        keys = [cache.key_for(row) for row in images]
        rows = [cache.get(key) for key in keys]
        miss = [index for index, row in enumerate(rows) if row is None]
        if miss:
            sub_batch = np.ascontiguousarray(images[np.asarray(miss)])
            z_miss, _ = self.edge.forward(sub_batch)
            for sub_row, index in enumerate(miss):
                # put() returns the frozen copy — essential here, since
                # z_miss is an executor-owned buffer the next forward()
                # overwrites.
                rows[index] = cache.put(keys[index], z_miss[sub_row])
        z_b = np.stack(rows)
        payload = self.edge.encode(z_b)
        return payload, time.perf_counter() - start

    def _feature_counters(self) -> Optional[Tuple[int, int, int]]:
        """Snapshot (hits, misses, evictions) for per-run report deltas."""
        cache = self.feature_cache
        if cache is None:
            return None
        stats = cache.stats
        return (stats.hits, stats.misses, stats.lru_evictions + stats.ttl_evictions)

    def _feature_accounting(
        self, before: Optional[Tuple[int, int, int]]
    ) -> Dict[str, int]:
        """Report fields for the feature tier since ``before``."""
        if before is None:
            return {}
        stats = self.feature_cache.stats
        return {
            "feature_hits": stats.hits - before[0],
            "feature_misses": stats.misses - before[1],
            "feature_evictions": (
                stats.lru_evictions + stats.ttl_evictions - before[2]
            ),
            "feature_bytes": stats.bytes_used,
        }

    def infer(self, images: np.ndarray) -> Dict[str, np.ndarray]:
        """Run one batch through the full deployment and record a trace.

        With the link declared down, every ``probe_every``-th request
        probes for recovery first; until a probe succeeds, requests take
        the fallback path (or raise :class:`ChannelDownError` for
        ``fallback="none"`` — the caller sheds them).
        """
        if self.resilient.is_down:
            self._down_requests += 1
            if self._down_requests >= self.probe_every:
                self._down_requests = 0
                self.resilient.probe()
            if self.resilient.is_down:
                return self._infer_fallback(images)
        payload, edge_s = self._edge_payload(images)
        try:
            transfer_s = self.resilient.send(payload)
        except ChannelDownError:
            self._down_requests = 0
            return self._infer_fallback(images, payload=payload, edge_seconds=edge_s)
        call_index = self._server_calls
        self._server_calls += 1
        plan = self.resilient.plan
        if plan is not None and plan.server_crashes(call_index):
            self.resilient.stats.server_crashes += 1
            return self._infer_fallback(
                images, payload=payload, edge_seconds=edge_s,
                transfer_seconds=transfer_s, cause="server stage crashed",
            )
        logits, server_s = self.server.infer(payload)
        self._record_trace(
            InferenceTrace(
                batch_size=images.shape[0],
                payload_bytes=len(payload),
                edge_seconds=edge_s,
                transfer_seconds=transfer_s,
                server_seconds=server_s,
            )
        )
        return logits

    def _infer_fallback(
        self,
        images: np.ndarray,
        payload: Optional[bytes] = None,
        edge_seconds: float = 0.0,
        transfer_seconds: float = 0.0,
        cause: str = "link down",
    ) -> Dict[str, np.ndarray]:
        """Execute one batch off the split path, per the fallback mode.

        ``fallback="edge"`` runs both halves locally through the *same*
        sessions and wire codec as the split path, so results are
        bit-identical to fault-free split execution; ``"cloud"`` first
        ships the raw input over the resilient link (which may itself
        fail while the link is down — those requests shed); ``"none"``
        raises so the caller sheds.  Wall time spent here accumulates in
        :attr:`fallback_seconds`.
        """
        if self.fallback == "none":
            raise ChannelDownError(
                f"split channel unavailable ({cause}) and fallback='none'; "
                "request shed"
            )
        start = time.perf_counter()
        if self.fallback == "cloud":
            raw = encode_tensor(
                np.asarray(images, dtype=np.float32), WireFormat("float32")
            )
            # May raise ChannelDownError during an outage: a cloud-only
            # fallback has nowhere to run without the wire.
            transfer_seconds += self.resilient.send(raw)
        if payload is None:
            payload, edge_s = self.edge.infer(images)
        else:
            edge_s = edge_seconds  # the split attempt already paid the edge stage
        logits, server_s = self.server.infer(payload)
        self.fallback_batches += 1
        self.fallback_seconds += time.perf_counter() - start
        self._record_trace(
            InferenceTrace(
                batch_size=images.shape[0],
                payload_bytes=len(payload),
                edge_seconds=edge_s,
                transfer_seconds=transfer_seconds,
                server_seconds=server_s,
            )
        )
        return logits

    def infer_stream(
        self, batches: Iterable[np.ndarray]
    ) -> Tuple[List[Dict[str, np.ndarray]], ThroughputReport]:
        """Run many batches with edge/server execution overlapped.

        A double-buffered worker thread runs the server half while the
        edge half computes the next batch, mirroring the deployment the
        paper targets (device and server are distinct machines).  Per
        batch, a normal :class:`InferenceTrace` is appended; the returned
        :class:`ThroughputReport` adds the schedule view — batches/s,
        stage utilisation and the critical stage.

        With an active fault plan the stream runs the *serial robust*
        path instead (each batch through :meth:`infer`, so retries,
        degradation and recovery all engage): batches shed by a downed
        channel come back as ``None`` results, and the report's
        robustness counters record what this run injected and survived.
        """
        batch_list = [np.asarray(b) for b in batches]
        n = len(batch_list)
        if n == 0:
            return [], ThroughputReport.from_stage_times([], [], [], [], 0.0)
        if self.resilient.plan is not None and not self.resilient.plan.is_null:
            return self._infer_stream_robust(batch_list)

        results: List[Optional[Dict[str, np.ndarray]]] = [None] * n
        server_times = [0.0] * n
        worker_error: List[BaseException] = []
        handoff: "queue.Queue" = queue.Queue(maxsize=2)  # double buffer

        def serve() -> None:
            try:
                while True:
                    item = handoff.get()
                    if item is None:
                        return
                    index, payload = item
                    results[index], server_times[index] = self.server.infer(payload)
            except BaseException as error:  # surfaced after join
                worker_error.append(error)
                while handoff.get() is not None:  # keep the producer unblocked
                    pass

        worker = threading.Thread(target=serve, name="split-pipeline-server")
        edge_times: List[float] = []
        transfer_times: List[float] = []
        payload_sizes: List[int] = []
        cache_before = self._feature_counters()
        start = time.perf_counter()
        worker.start()
        try:
            for index, images in enumerate(batch_list):
                payload, edge_s = self._edge_payload(images)
                edge_times.append(edge_s)
                transfer_times.append(self.link.send(payload))
                payload_sizes.append(len(payload))
                handoff.put((index, payload))
        finally:
            handoff.put(None)
            worker.join()
        wall = time.perf_counter() - start
        if worker_error:
            raise worker_error[0]

        batch_sizes = [b.shape[0] for b in batch_list]
        for i in range(n):
            self._record_trace(
                InferenceTrace(
                    batch_size=batch_sizes[i],
                    payload_bytes=payload_sizes[i],
                    edge_seconds=edge_times[i],
                    transfer_seconds=transfer_times[i],
                    server_seconds=server_times[i],
                )
            )
        report = ThroughputReport.from_stage_times(
            batch_sizes, edge_times, transfer_times, server_times, wall,
            **self._plan_accounting(),
            **self._feature_accounting(cache_before),
        )
        return list(results), report  # type: ignore[arg-type]

    def _infer_stream_robust(
        self, batch_list: List[np.ndarray]
    ) -> Tuple[List[Optional[Dict[str, np.ndarray]]], ThroughputReport]:
        """Serial multi-batch execution under an active fault plan.

        The overlapped schedule assumes every send succeeds; under
        faults, correctness (deterministic replay, ordered fallback
        decisions) matters more than overlap, so batches run serially
        through :meth:`infer` and the report carries the robustness
        deltas for exactly this run.
        """
        stats = self.resilient.stats
        retries0, downs0 = stats.retries, stats.down_events
        recoveries0, crashes0 = stats.recoveries, stats.server_crashes
        fb_batches0, fb_seconds0 = self.fallback_batches, self.fallback_seconds
        cache_before = self._feature_counters()

        results: List[Optional[Dict[str, np.ndarray]]] = []
        batch_sizes: List[int] = []
        edge_times: List[float] = []
        transfer_times: List[float] = []
        server_times: List[float] = []
        shed_images = 0
        start = time.perf_counter()
        for images in batch_list:
            try:
                results.append(self.infer(images))
            except ChannelDownError:
                results.append(None)
                shed_images += int(images.shape[0])
                continue
            trace = self.traces[-1]  # infer() always records one
            batch_sizes.append(trace.batch_size)
            edge_times.append(trace.edge_seconds)
            transfer_times.append(trace.transfer_seconds)
            server_times.append(trace.server_seconds)
        wall = time.perf_counter() - start

        report = ThroughputReport.from_stage_times(
            batch_sizes, edge_times, transfer_times, server_times, wall,
            **self._plan_accounting(),
            **self._feature_accounting(cache_before),
            shed=shed_images,
            retries=stats.retries - retries0,
            fallback_batches=self.fallback_batches - fb_batches0,
            fallback_seconds=self.fallback_seconds - fb_seconds0,
            link_down_events=stats.down_events - downs0,
            recoveries=stats.recoveries - recoveries0,
            server_crashes=stats.server_crashes - crashes0,
        )
        return results, report

    # ------------------------------------------------------------------
    def total_transfer_seconds(self) -> float:
        return sum(t.transfer_seconds for t in self.traces)

    def total_seconds(self) -> float:
        return sum(t.total_seconds for t in self.traces)

    def mean_payload_bytes(self) -> float:
        if not self.traces:
            return 0.0
        return sum(t.payload_bytes for t in self.traces) / len(self.traces)
