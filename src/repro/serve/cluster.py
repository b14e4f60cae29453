"""Fault-tolerant multi-process replica cluster for the serving tier.

A single-process :class:`~repro.serve.deployment.Deployment` is bounded
by one interpreter: one plan cache, one arena, one GIL.  This module
scales *out* instead of up — and, more importantly for a deployment the
paper's DAQ setting cares about, survives its own workers dying:

* N **replica processes** (:mod:`repro.serve.workers`), each owning a
  full single-process deployment — its own plan cache and arena — built
  from the same serialised :class:`~repro.serve.spec.DeploymentSpec`.
* A **front-end router**: the existing
  :class:`~repro.serve.batching.DynamicBatcher` run with ``dispatchers =
  replicas``, so admission control, deadlines, EDF dispatch and the
  conservation ledger all keep working unchanged.  Each dispatcher
  leases a healthy replica, ships its micro-batch over the pipe (framed
  by the ``repro.serve`` wire codec), and slices rows back onto futures.
* A **supervisor** (:mod:`repro.serve.supervise`): heartbeat sweeps plus
  immediate crash notifications from in-flight pipe failures; dead
  replicas restart under exponential backoff, the cluster's
  HEALTHY → DEGRADED → HEALTHY state machine records every transition.
* **Crash injection**: a seeded, digest-stamped
  :class:`~repro.serve.faults.WorkerFaultPlan` SIGKILLs the leased
  replica *between* dispatch and reply at scheduled micro-batch indices
  — a true in-flight crash, replayable bit-for-bit from ``(seed,
  index)`` like PR 6's channel ``FaultPlan``.
* **Failover**: a dispatcher that sees :class:`WorkerDiedError` notifies
  the supervisor and re-dispatches the same micro-batch to another
  healthy replica.  Inference is idempotent and every worker rebuilds an
  identical net from ``(registry name, seed)``, so retried results match
  fault-free results to 1e-6 — the chaos tests assert it.
* **Graceful drain**: :meth:`ClusterDeployment.close` stops admissions,
  flushes the queue through still-alive replicas, fails anything
  stranded with the named
  :class:`~repro.serve.batching.ShutdownError`, stops the supervisor,
  then stops every worker (ask → join → escalate) — no stranded future,
  no orphan process.

The conservation law survives all of it: ``submitted == shed +
cache_hits + requests`` and ``requests == completed + expired + failed
+ cancelled`` hold across crashes and restarts because futures only
ever resolve through the batcher.  When the deployment spec enables a
response cache the router owns it (one shared hit set across every
replica); the feature tier, if enabled, lives inside each worker's own
pipeline.

Entry points: ``repro.deploy(spec)`` with ``spec.replicas > 1``,
:func:`deploy_cluster`, or ``repro serve --replicas N`` on the CLI.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field, fields
from dataclasses import replace as replace_dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..nn.engine import pin_blas_threads
from .batching import BatchingStats, DynamicBatcher, ShutdownError
from .cache import ServeCache, provenance_digest
from .faults import WorkerFaultPlan
from .runtime import ThroughputReport
from .spec import DeploymentSpec, SpecError
from .supervise import ClusterStateMachine, Supervisor
from .workers import WorkerDiedError, WorkerHandle, spawn_worker

__all__ = [
    "ClusterDeployment",
    "ClusterReport",
    "ClusterSpec",
    "NoHealthyReplicaError",
    "ReplicaManager",
    "deploy_cluster",
]


class NoHealthyReplicaError(RuntimeError):
    """No replica could be leased before the timeout.

    Raised to the request's future (counted ``failed`` in the
    conservation ledger) when every slot is dead or abandoned — the
    cluster is DEAD but the ledger still balances.
    """


@dataclass(frozen=True)
class ClusterSpec:
    """Frozen description of one replica cluster.

    Parameters
    ----------
    deployment:
        The per-replica :class:`~repro.serve.spec.DeploymentSpec` (or its
        dict form).  Must use a registry-named model — worker processes
        rebuild the net from the serialised spec.
    replicas:
        Worker process count; ``None`` takes ``deployment.replicas``.
        A 1-replica cluster is valid (it is the honest overhead baseline
        the cluster bench measures against).
    heartbeat_ms:
        Supervisor sweep period; an idle-killed replica is detected
        within one heartbeat.
    backoff_base_ms / backoff_cap_ms:
        Exponential restart backoff per slot:
        ``min(base * 2**(k-1), cap)`` before the ``k``-th restart.
    max_restarts:
        Per-slot restart budget before the slot is abandoned and the
        cluster serves on with n-1 replicas; ``None`` is unlimited.
    worker_faults:
        Optional :class:`~repro.serve.faults.WorkerFaultPlan` (or its
        dict / compact-string form): seeded, digest-stamped SIGKILL
        schedule over micro-batch dispatch indices.
    request_timeout_s:
        Per-dispatch reply timeout; a replica that blows it is treated
        as dead (and killed, so it can never send a stale reply).
    lease_timeout_s:
        How long a dispatcher waits for a healthy replica before failing
        the batch with :class:`NoHealthyReplicaError`.
    drain_timeout_s:
        Graceful-drain budget for :meth:`ClusterDeployment.close`.
    """

    deployment: DeploymentSpec
    replicas: Optional[int] = None
    heartbeat_ms: float = 50.0
    backoff_base_ms: float = 10.0
    backoff_cap_ms: float = 1000.0
    max_restarts: Optional[int] = 5
    worker_faults: Optional[WorkerFaultPlan] = None
    request_timeout_s: float = 60.0
    lease_timeout_s: float = 30.0
    drain_timeout_s: float = 10.0

    def __post_init__(self):
        set_ = object.__setattr__
        if isinstance(self.deployment, dict):
            set_(self, "deployment", DeploymentSpec.from_dict(self.deployment))
        if not isinstance(self.deployment, DeploymentSpec):
            raise SpecError(
                "deployment must be a DeploymentSpec or its dict form, "
                f"got {type(self.deployment).__name__}"
            )
        self.deployment.to_dict()  # serialisable or fail now, not at spawn
        if self.replicas is None:
            set_(self, "replicas", self.deployment.replicas)
        if (
            not isinstance(self.replicas, int)
            or isinstance(self.replicas, bool)
            or self.replicas < 1
        ):
            raise SpecError(
                f"replicas must be a positive int, got {self.replicas!r}"
            )
        for name in ("heartbeat_ms", "request_timeout_s", "lease_timeout_s",
                     "drain_timeout_s"):
            value = float(getattr(self, name))
            if value <= 0:
                raise SpecError(f"{name} must be > 0, got {value!r}")
            set_(self, name, value)
        for name in ("backoff_base_ms", "backoff_cap_ms"):
            value = float(getattr(self, name))
            if value < 0:
                raise SpecError(f"{name} must be >= 0, got {value!r}")
            set_(self, name, value)
        if self.max_restarts is not None and (
            not isinstance(self.max_restarts, int)
            or isinstance(self.max_restarts, bool)
            or self.max_restarts < 0
        ):
            raise SpecError(
                f"max_restarts must be an int >= 0 or None, got {self.max_restarts!r}"
            )
        if isinstance(self.worker_faults, dict):
            set_(self, "worker_faults", WorkerFaultPlan.from_dict(self.worker_faults))
        elif isinstance(self.worker_faults, str):
            set_(self, "worker_faults", WorkerFaultPlan.from_string(self.worker_faults))
        elif self.worker_faults is not None and not isinstance(
            self.worker_faults, WorkerFaultPlan
        ):
            raise SpecError(
                "worker_faults must be a WorkerFaultPlan, dict, compact "
                f"string or None, got {type(self.worker_faults).__name__}"
            )

    # -- serialisation -------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "deployment": self.deployment.to_dict(),
            "replicas": self.replicas,
            "heartbeat_ms": self.heartbeat_ms,
            "backoff_base_ms": self.backoff_base_ms,
            "backoff_cap_ms": self.backoff_cap_ms,
            "max_restarts": self.max_restarts,
            "worker_faults": (
                self.worker_faults.to_dict()
                if self.worker_faults is not None else None
            ),
            "request_timeout_s": self.request_timeout_s,
            "lease_timeout_s": self.lease_timeout_s,
            "drain_timeout_s": self.drain_timeout_s,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ClusterSpec":
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise SpecError(
                f"unknown ClusterSpec keys {unknown}; known keys: {sorted(known)}"
            )
        return cls(**data)

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ClusterSpec":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as error:
            raise SpecError(f"invalid ClusterSpec JSON: {error}") from None
        if not isinstance(data, dict):
            raise SpecError("ClusterSpec JSON must be an object")
        return cls.from_dict(data)

    def describe(self) -> str:
        faults = (
            f", worker_faults={self.worker_faults.to_string()}"
            if self.worker_faults is not None and not self.worker_faults.is_null
            else ""
        )
        return (
            f"{self.replicas} replica(s) x [{self.deployment.describe()}], "
            f"heartbeat={self.heartbeat_ms:g} ms, "
            f"max_restarts={self.max_restarts}{faults}"
        )


@dataclass
class ClusterStats:
    """Router-side counters for one cluster's lifetime."""

    dispatches: int = 0        # micro-batches routed (including retries)
    kills_injected: int = 0    # WorkerFaultPlan SIGKILLs actually delivered
    failovers: int = 0         # micro-batches re-dispatched after a dead replica
    failover_failures: int = 0  # batches failed after exhausting retries
    dispatches_per_slot: Dict[int, int] = field(default_factory=dict)


@dataclass
class ClusterReport:
    """One cluster-wide accounting snapshot (see :meth:`ClusterDeployment.report`)."""

    aggregate: ThroughputReport
    per_replica: List[Dict[str, Any]]
    state: str
    state_history: List[Dict[str, Any]]
    supervisor: Dict[str, Any]
    batching: Dict[str, Any]
    queue_depth: int
    kills_injected: int
    worker_fault_digest: Optional[str]

    def to_dict(self) -> Dict[str, Any]:
        from dataclasses import asdict

        return {
            "aggregate": asdict(self.aggregate),
            "per_replica": self.per_replica,
            "state": self.state,
            "state_history": self.state_history,
            "supervisor": self.supervisor,
            "batching": self.batching,
            "queue_depth": self.queue_depth,
            "kills_injected": self.kills_injected,
            "worker_fault_digest": self.worker_fault_digest,
        }


#: Latency samples retained per replica slot for p50/p95 (oldest dropped).
_MAX_LATENCY_SAMPLES = 10_000


class ClusterDeployment:
    """N supervised replica processes behind one batching front-end.

    Same serving surface as a single-process
    :class:`~repro.serve.deployment.Deployment` — ``submit`` /
    ``infer`` / ``close`` / context manager — plus the cluster view:
    :meth:`report`, :attr:`state`, :attr:`supervisor`.

    Thread-safety: ``submit``/``infer`` may be called from any thread;
    ``close`` is idempotent and safe under concurrent callers.
    """

    def __init__(self, spec: ClusterSpec):
        self.spec = spec
        # What every worker boots from; "replicas" tells it how many
        # share the host (it serves as one and divides the cores by it).
        self._payload = {**spec.deployment.to_dict(), "replicas": spec.replicas}
        # A deployment decides BLAS threading at build (see Deployment);
        # done here, before the fork, workers inherit the pinned pools —
        # pinning inside a freshly forked process restarts the pools'
        # threads, which spin on the replicas' cores while they boot.
        pin_blas_threads()
        self.stats = ClusterStats()
        self.state_machine = ClusterStateMachine(spec.replicas)

        # The replica pool: slot-indexed handles, exclusive leases.  One
        # condition guards handles + leases + the closing flags so a
        # restart can never publish into a closing cluster or reap a
        # handle a dispatcher still holds.
        self._pool = threading.Condition()
        self._leased: set = set()
        # Slots a dispatcher saw die.  ``Process.is_alive()`` can lag a
        # SIGKILL by a scheduling quantum, so without this mark rapid
        # failover retries re-lease the dying replica and burn every
        # attempt inside the race window.  A slot stays suspect until
        # the supervisor publishes its replacement handle.
        self._suspect: set = set()
        self._lease_rr = 0          # rotating search offset (load balance)
        self._stopping = False      # drain started: no kills, no restarts
        self._stopped = False       # leases refused: replicas going down
        self._closed = False
        self._close_lock = threading.Lock()
        self._metrics = threading.Lock()  # stats + latencies + fault index
        self._dispatch_index = 0    # WorkerFaultPlan index space
        self._latencies_ms: Dict[int, List[float]] = {
            slot: [] for slot in range(spec.replicas)
        }
        self._started_at = time.perf_counter()

        self._handles: List[Optional[WorkerHandle]] = [
            spawn_worker(self._payload, slot) for slot in range(spec.replicas)
        ]
        self.supervisor = Supervisor(
            census=self._census,
            restart=self._restart_slot,
            on_census=self._observe,
            heartbeat_s=spec.heartbeat_ms / 1e3,
            backoff_base_s=spec.backoff_base_ms / 1e3,
            backoff_cap_s=spec.backoff_cap_ms / 1e3,
            max_restarts=spec.max_restarts,
        )
        dspec = spec.deployment
        # The response cache lives ROUTER-side, in front of the batcher,
        # so all replicas share one hit set (a duplicate served by
        # replica 0 is a hit even when replica 1 would have computed it).
        # The split-point feature tier cannot be shared across process
        # boundaries; each worker's own Deployment builds it from the
        # same spec'd policy.  Provenance here is the spec digest (every
        # replica rebuilds the identical net/plan from it).
        self.cache: Optional[ServeCache] = None
        if dspec.cache is not None and dspec.cache.response_enabled:
            self.cache = ServeCache(
                replace_dataclass(dspec.cache, tier="response"),
                provenance_digest(
                    [f"spec:{dspec.digest()}", "cluster-router"]
                ),
            )
        self._batcher = DynamicBatcher(
            self._route_batch,
            max_batch_size=dspec.max_batch_size,
            max_queue_delay_ms=dspec.max_queue_delay_ms,
            max_queue_depth=dspec.max_queue_depth,
            default_deadline_ms=dspec.deadline_ms,
            dispatchers=spec.replicas,
            name=f"repro-serve-batcher [cluster {dspec.describe()}]",
            response_cache=(
                self.cache.response if self.cache is not None else None
            ),
        )

    # ------------------------------------------------------------------
    # Pool: census, leasing, restart
    # ------------------------------------------------------------------
    def _census(self) -> List[Optional[WorkerHandle]]:
        with self._pool:
            return list(self._handles)

    def _observe(self, alive: int, reason: str) -> None:
        self.state_machine.observe(alive, reason)

    def _lease(self, timeout: Optional[float] = None) -> Tuple[int, WorkerHandle]:
        """Claim exclusive use of a healthy replica (rotating preference)."""
        if timeout is None:
            timeout = self.spec.lease_timeout_s
        with self._pool:
            if self._stopping:  # drain: bounded patience, not 30 s
                timeout = min(timeout, 2.0)
            deadline = time.monotonic() + timeout
            while True:
                if self._stopped:
                    raise ShutdownError("cluster is closed; no replicas to lease")
                n = len(self._handles)
                for probe in range(n):
                    slot = (self._lease_rr + probe) % n
                    handle = self._handles[slot]
                    if (
                        handle is not None
                        and slot not in self._leased
                        and slot not in self._suspect
                        and handle.is_alive()
                    ):
                        self._leased.add(slot)
                        self._lease_rr = (slot + 1) % n
                        return slot, handle
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise NoHealthyReplicaError(
                        f"no healthy replica leasable within {timeout:g}s "
                        f"(state={self.state_machine.state}, "
                        f"abandoned={self.supervisor.abandoned_slots})"
                    )
                # Bounded wait: replica death produces no notification, so
                # re-scan is_alive() periodically even without one.
                self._pool.wait(timeout=min(remaining, 0.05))

    def _lease_slot(
        self, slot: int, timeout: float
    ) -> Optional[WorkerHandle]:
        """Claim one *specific* slot (stats/warmup); None if dead/busy."""
        with self._pool:
            deadline = time.monotonic() + timeout
            while True:
                if self._stopped:
                    return None
                handle = self._handles[slot]
                if (
                    handle is not None
                    and slot not in self._leased
                    and slot not in self._suspect
                    and handle.is_alive()
                ):
                    self._leased.add(slot)
                    return handle
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return None
                self._pool.wait(timeout=min(remaining, 0.05))

    def _release(self, slot: int) -> None:
        with self._pool:
            self._leased.discard(slot)
            self._pool.notify_all()

    def _restart_slot(self, slot: int) -> bool:
        """Supervisor callback: replace a dead replica in ``slot``.

        Waits for any in-flight lease on the slot to be released first
        (the dispatcher is mid-failover and about to let go) so the old
        handle's pipe is never closed under a thread still polling it.
        """
        with self._pool:
            while slot in self._leased and not self._stopping:
                self._pool.wait(timeout=0.05)
            if self._stopping:
                return False
            old = self._handles[slot]
            self._handles[slot] = None
        generation = old.generation + 1 if old is not None else 1
        if old is not None:
            old.reap()
        handle = spawn_worker(self._payload, slot, generation=generation)
        with self._pool:
            if self._stopping:  # raced with close(): don't publish
                pass
            else:
                self._handles[slot] = handle
                self._suspect.discard(slot)
                self._pool.notify_all()
                return True
        handle.stop(timeout=5.0)
        return False

    # ------------------------------------------------------------------
    # Routing (runs on the batcher's dispatcher threads)
    # ------------------------------------------------------------------
    def _claim_fault(self) -> Tuple[int, bool]:
        """Advance the dispatch index; decide whether this batch's
        replica gets SIGKILLed (the WorkerFaultPlan chaos path)."""
        plan = self.spec.worker_faults
        with self._metrics:
            index = self._dispatch_index
            self._dispatch_index += 1
            inject = (
                plan is not None
                and not self._stopping
                and (plan.max_kills is None
                     or self.stats.kills_injected < plan.max_kills)
                and plan.fires_at(index)
            )
            if inject:
                self.stats.kills_injected += 1
        return index, inject

    def _route_batch(self, images: np.ndarray) -> Dict[str, np.ndarray]:
        """Run one micro-batch on some healthy replica, with failover.

        On :class:`WorkerDiedError` the dead replica is reported to the
        supervisor and the *same* batch re-dispatches to another replica
        — inference is idempotent (identical nets rebuilt from the same
        spec), so the retried result equals the fault-free one.
        """
        images = np.asarray(images, dtype=np.float32)
        _, inject = self._claim_fault()
        attempts = 0
        max_attempts = max(3, 2 * self.spec.replicas)
        while True:
            slot, handle = self._lease()
            start = time.perf_counter()
            try:
                if inject:
                    inject = False
                    seq = handle.begin_infer(images)
                    handle.kill()  # dies holding our request: in-flight crash
                    result = handle.finish_infer(
                        seq, timeout=self.spec.request_timeout_s
                    )
                else:
                    result = handle.infer(
                        images, timeout=self.spec.request_timeout_s
                    )
            except WorkerDiedError:
                # Includes reply timeouts: kill the replica so it can
                # never deliver a stale reply into a future lease.
                handle.kill()
                with self._pool:
                    self._suspect.add(slot)
                self.supervisor.notify_crash(slot)
                self._release(slot)
                attempts += 1
                with self._metrics:
                    self.stats.failovers += 1
                if attempts >= max_attempts:
                    with self._metrics:
                        self.stats.failover_failures += 1
                    raise NoHealthyReplicaError(
                        f"micro-batch failed on {attempts} replica(s) in a "
                        "row; giving up"
                    ) from None
                continue
            except BaseException:
                self._release(slot)
                raise
            elapsed_ms = (time.perf_counter() - start) * 1e3
            with self._metrics:
                self.stats.dispatches += 1
                self.stats.dispatches_per_slot[slot] = (
                    self.stats.dispatches_per_slot.get(slot, 0) + 1
                )
                samples = self._latencies_ms[slot]
                samples.append(elapsed_ms)
                if len(samples) > _MAX_LATENCY_SAMPLES:
                    del samples[: len(samples) - _MAX_LATENCY_SAMPLES]
            self._release(slot)
            return result

    # ------------------------------------------------------------------
    # Serving surface (Deployment parity)
    # ------------------------------------------------------------------
    def submit(self, image: np.ndarray, deadline_ms: Optional[float] = None):
        """Enqueue one image; future resolves to its per-task logits row."""
        return self._batcher.submit(image, deadline_ms=deadline_ms)

    def infer(self, images: np.ndarray) -> Dict[str, np.ndarray]:
        """Run one whole batch synchronously on some healthy replica."""
        if self.closed:
            raise RuntimeError("ClusterDeployment is closed")
        return self._route_batch(images)

    def warmup(self, batch_sizes: Sequence[int] = (1,)) -> "ClusterDeployment":
        """Prime every replica's plan cache for ``batch_sizes``.

        Call before submitting traffic (it leases each slot in turn);
        replicas that are down are skipped.
        """
        size = self.spec.deployment.input_size
        for batch in batch_sizes:
            images = np.zeros((int(batch), 3, size, size), dtype=np.float32)
            for slot in range(self.spec.replicas):
                handle = self._lease_slot(slot, timeout=1.0)
                if handle is None:
                    continue
                try:
                    handle.infer(images, timeout=self.spec.request_timeout_s)
                except WorkerDiedError:
                    with self._pool:
                        self._suspect.add(slot)
                    self.supervisor.notify_crash(slot)
                except RuntimeError:
                    pass  # worker-side error; the replica itself is fine
                finally:
                    self._release(slot)
        return self

    @property
    def task_names(self) -> Tuple[str, ...]:
        return tuple(name for name, _ in self.spec.deployment.tasks)

    @property
    def replicas(self) -> int:
        return self.spec.replicas

    @property
    def state(self) -> str:
        return self.state_machine.state

    @property
    def batching_stats(self) -> BatchingStats:
        return self._batcher.stats

    @property
    def queue_depth(self) -> int:
        return self._batcher.queue_depth

    def alive_replicas(self) -> int:
        with self._pool:
            return sum(
                1 for h in self._handles if h is not None and h.is_alive()
            )

    def describe(self) -> str:
        return self.spec.describe()

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    @staticmethod
    def _worker_report(ws: Dict[str, Any]) -> ThroughputReport:
        """One worker's stats dict -> a per-replica ThroughputReport.

        Known keys map explicitly below; any *other* worker key that
        names a report field passes through unchanged, so counters added
        worker-side (e.g. the ``spec_digest``/``plan_digest`` provenance
        stamps) survive aggregation instead of being silently dropped by
        a hand-maintained mapping.
        """
        plan = ws["plan"]
        fs = ws["fault_stats"]
        report = ThroughputReport(
            batches=ws["batches"],
            images=ws["images"],
            wall_seconds=0.0,
            edge_seconds=ws["edge_seconds"],
            transfer_seconds=ws["transfer_seconds"],
            server_seconds=ws["server_seconds"],
            pipelined_seconds=0.0,
            arena_bytes=plan["arena_bytes"],
            steady_state_allocs=plan["steady_state_allocs"],
            fused_steps=plan["fused_steps"],
            elided_copies=plan["elided_copies"],
            aliased_views=plan["aliased_views"],
            spmm_row_blocks=plan["spmm_row_blocks"],
            retries=fs["retries"],
            fallback_batches=ws["fallback_batches"],
            fallback_seconds=ws["fallback_seconds"],
            link_down_events=fs["down_events"],
            recoveries=fs["recoveries"],
            server_crashes=fs["server_crashes"],
        )
        consumed = {
            "pid", "batches", "images", "edge_seconds", "transfer_seconds",
            "server_seconds", "plan", "fault_stats", "fallback_batches",
            "fallback_seconds", "degraded",
        }
        for key, value in ws.items():
            if key not in consumed and hasattr(report, key):
                setattr(report, key, value)
        return report

    def report(self) -> ClusterReport:
        """Aggregate per-replica accounting into one cluster report.

        Leases each slot briefly to pull its worker-side stats; slots
        that are down (or busy past a short timeout) appear with
        ``alive: False`` and router-side counters only.
        """
        per_replica: List[Dict[str, Any]] = []
        worker_reports: List[ThroughputReport] = []
        for slot in range(self.spec.replicas):
            with self._metrics:
                samples = list(self._latencies_ms[slot])
                dispatches = self.stats.dispatches_per_slot.get(slot, 0)
            entry: Dict[str, Any] = {
                "slot": slot,
                "alive": False,
                "dispatches": dispatches,
                "p50_ms": (
                    float(np.percentile(samples, 50)) if samples else None
                ),
                "p95_ms": (
                    float(np.percentile(samples, 95)) if samples else None
                ),
            }
            handle = self._lease_slot(slot, timeout=2.0)
            if handle is not None:
                try:
                    ws = handle.stats()
                except (WorkerDiedError, RuntimeError):
                    with self._pool:
                        self._suspect.add(slot)
                    self.supervisor.notify_crash(slot)
                else:
                    entry.update(
                        alive=True,
                        pid=ws["pid"],
                        generation=handle.generation,
                        batches=ws["batches"],
                        images=ws["images"],
                        degraded=ws["degraded"],
                    )
                    worker_reports.append(self._worker_report(ws))
                finally:
                    self._release(slot)
            per_replica.append(entry)

        bstats = self._batcher.stats
        sup = self.supervisor.stats
        wall = time.perf_counter() - self._started_at
        cache_overrides: Dict[str, Any] = {}
        if self.cache is not None and self.cache.response is not None:
            # The response tier lives router-side (shared across all
            # replicas), so its counters override whatever the workers
            # summed up (always zero — workers never see the router
            # cache).
            cs = self.cache.response.stats
            cache_overrides = {
                "response_hits": cs.hits,
                "response_misses": cs.misses,
                "response_evictions": cs.lru_evictions + cs.ttl_evictions,
                "response_bytes": cs.bytes_used,
            }
        aggregate = ThroughputReport.aggregate(
            worker_reports,
            wall_seconds=wall,
            replicas=self.spec.replicas,
            shed=bstats.shed,
            deadline_misses=bstats.expired,
            worker_crashes=sup.crashes_detected,
            worker_restarts=sup.restarts,
            failovers=self.stats.failovers,
            **cache_overrides,
        )
        plan = self.spec.worker_faults
        return ClusterReport(
            aggregate=aggregate,
            per_replica=per_replica,
            state=self.state_machine.state,
            state_history=self.state_machine.history(),
            supervisor={
                "heartbeats": sup.heartbeats,
                "crashes_detected": sup.crashes_detected,
                "crashes_by_heartbeat": sup.crashes_by_heartbeat,
                "crashes_by_notification": sup.crashes_by_notification,
                "restarts": sup.restarts,
                "slots_abandoned": sup.slots_abandoned,
                "backoff_seconds": sup.backoff_seconds,
                "restarts_per_slot": dict(sup.restarts_per_slot),
            },
            batching={
                "submitted": bstats.submitted,
                "requests": bstats.requests,
                "shed": bstats.shed,
                "cache_hits": bstats.cache_hits,
                "expired": bstats.expired,
                "completed": bstats.completed,
                "failed": bstats.failed,
                "cancelled": bstats.cancelled,
                "batches": bstats.batches,
                "mean_batch_size": bstats.mean_batch_size,
            },
            queue_depth=self._batcher.queue_depth,
            kills_injected=self.stats.kills_injected,
            worker_fault_digest=(
                plan.digest() if plan is not None else None
            ),
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        with self._pool:
            return self._closed

    def close(self) -> None:
        """Graceful drain, then shut everything down.

        Order matters: (1) stop chaos injection and restarts; (2) close
        the batcher — stops admissions, flushes queued requests through
        the still-alive replicas, fails stranded futures with
        :class:`~repro.serve.batching.ShutdownError`; (3) stop the
        supervisor; (4) stop every replica (ask → join → escalate) and
        release its process bookkeeping so nothing shows up in
        ``multiprocessing.active_children()``.

        Idempotent and safe under concurrent callers — every caller
        returns only after the full drain completed.
        """
        with self._close_lock:
            if self._closed:
                return
            with self._pool:
                self._stopping = True
                self._pool.notify_all()
            self._batcher.close(timeout=self.spec.drain_timeout_s)
            if self.cache is not None:
                self.cache.close()
            self.supervisor.stop()
            with self._pool:
                handles = list(self._handles)
                self._handles = [None] * len(handles)
                self._stopped = True
                self._pool.notify_all()
            for handle in handles:
                if handle is None:
                    continue
                if handle.is_alive():
                    handle.stop(timeout=self.spec.drain_timeout_s)
                else:
                    handle.reap()
            with self._pool:
                self._closed = True

    def __enter__(self) -> "ClusterDeployment":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"ClusterDeployment({self.spec.replicas} replica(s), "
            f"state={self.state_machine.state}, "
            f"dispatches={self.stats.dispatches}, "
            f"closed={self.closed})"
        )


#: The supervision-flavoured alias the issue names; same class.
ReplicaManager = ClusterDeployment

_CLUSTER_FIELD_NAMES = {f.name for f in fields(ClusterSpec)} - {"deployment"}


def deploy_cluster(
    spec: Union[ClusterSpec, DeploymentSpec, Dict[str, Any]],
    **overrides,
) -> ClusterDeployment:
    """Build and start a replica cluster from a spec.

    Accepts a :class:`ClusterSpec`, a :class:`DeploymentSpec` (cluster
    knobs split out of ``overrides``; the rest patch the deployment), or
    a ``ClusterSpec.to_dict()``-shaped dict.
    """
    if isinstance(spec, ClusterSpec):
        if overrides:
            spec = ClusterSpec(**{**spec.to_dict(), **overrides})
        return ClusterDeployment(spec)
    if isinstance(spec, dict):
        spec = ClusterSpec.from_dict(spec)
        if overrides:
            spec = ClusterSpec(**{**spec.to_dict(), **overrides})
        return ClusterDeployment(spec)
    if isinstance(spec, DeploymentSpec):
        cluster_kwargs = {
            key: overrides.pop(key)
            for key in list(overrides)
            if key in _CLUSTER_FIELD_NAMES
        }
        if overrides:
            spec = spec.replace(**overrides)
        return ClusterDeployment(ClusterSpec(deployment=spec, **cluster_kwargs))
    raise SpecError(
        "deploy_cluster needs a ClusterSpec, DeploymentSpec or dict, "
        f"got {type(spec).__name__}"
    )
