"""The :class:`Deployment` facade: one object, the whole serving stack.

``repro.deploy(spec)`` takes a declarative
:class:`~repro.serve.spec.DeploymentSpec` and owns the full lifecycle
that previously had to be wired by hand across six layers::

    build/adopt net -> resolve cut (optionally via the latency optimizer)
      -> split -> lower (fuse) -> plan (engine) -> wire + channel
        -> pipeline -> dynamic-batching front-end

The resulting object exposes the three serving surfaces:

* :meth:`Deployment.infer` — one batch, synchronous (the old
  ``SplitPipeline.infer``);
* :meth:`Deployment.stream` — many batches with edge/server overlap and
  a :class:`~repro.serve.runtime.ThroughputReport` (the old
  ``SplitPipeline.infer_stream``);
* :meth:`Deployment.submit` — one *image*, asynchronous: returns a
  :class:`~concurrent.futures.Future` resolved by the dynamic
  micro-batching dispatcher, which coalesces concurrent submissions into
  engine-sized batches (new — this is what lets many small clients
  exercise the engine's batched plans).

Deployments are context managers; :meth:`close` drains the batcher and
stops and joins the planned executors' fan-out threads.
"""

from __future__ import annotations

import threading
import uuid
from concurrent.futures import Future
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from ..core.architecture import MTLSplitNet
from ..data.base import TaskInfo
from ..deployment.optimizer import optimal_split_index
from ..models.registry import get_spec
from ..nn.engine import fan_out_width, pin_blas_threads
from .batching import BatchingStats, DynamicBatcher
from .cache import ServeCache, provenance_digest
from .faults import FaultStats
from .runtime import SplitPipeline, ThroughputReport
from .spec import DeploymentSpec, SpecError

__all__ = ["Deployment", "deploy"]


def _resolve_net(spec: DeploymentSpec) -> MTLSplitNet:
    """Build (or adopt) the network a spec describes."""
    if isinstance(spec.model, str):
        tasks = [TaskInfo(name=name, num_classes=classes) for name, classes in spec.tasks]
        return MTLSplitNet.from_tasks(
            spec.model, tasks, input_size=spec.input_size, seed=spec.seed
        )
    return spec.model


def _resolve_split_index(spec: DeploymentSpec, net: MTLSplitNet) -> Optional[int]:
    """Turn the spec's cut description into a concrete stage count.

    ``"auto"`` runs the Neurosurgeon-style latency optimizer for the
    spec's device pair and channel; its stage index ``k`` (stages
    ``0..k`` on the edge) maps to ``MTLSplitNet.split``'s convention of
    "number of stages on the edge" as ``k + 1``.  A remote-only optimum
    (``k == -1``) clamps to the smallest real cut — a split deployment
    always keeps at least one stage on the edge.
    """
    num_stages = len(list(net.backbone.stages))
    if spec.auto_split:
        backbone_spec = (
            get_spec(spec.model) if isinstance(spec.model, str) else net.backbone.spec
        )
        best = optimal_split_index(
            backbone_spec,
            spec.resolve_edge_device(),
            spec.resolve_server_device(),
            spec.resolve_channel(),
            input_size=spec.input_size,
            wire_format=spec.wire_format(),
        )
        return int(min(max(best.stage_index + 1, 1), num_stages))
    if spec.split_index is None:
        return None  # the paper's default cut: whole backbone on the edge
    if not 1 <= spec.split_index <= num_stages:
        raise SpecError(
            f"split_index {spec.split_index} out of range for "
            f"{spec.describe()}: backbone has {num_stages} stages "
            f"(valid: 1..{num_stages}, None for the default cut, or 'auto')"
        )
    return spec.split_index


class Deployment:
    """A live split-computing deployment built from a (frozen) spec.

    Construct through :func:`deploy`.  Thread-safety: :meth:`submit` may
    be called from any number of threads concurrently; :meth:`infer`,
    :meth:`stream` and :meth:`warmup` take the same internal pipeline
    lock the dispatcher uses, so synchronous and asynchronous traffic
    can coexist without interleaving inside the engine.

    Building one decides BLAS threading for the process, once and
    explicitly: every bundled OpenBLAS pool is pinned to one thread and
    the cores go to the engine instead, whose per-image plans (hires
    geometries only — ``docs/architecture.md``, "How a batch executes")
    fan out over ``fan_out`` threads: the cores this process may use,
    divided among the ``host_replicas`` deployments sharing the host
    (default ``spec.replicas``; a cluster worker passes its cluster's).
    """

    def __init__(self, spec: DeploymentSpec, host_replicas: Optional[int] = None):
        self.spec = spec
        pin_blas_threads()
        self.fan_out = fan_out_width(host_replicas or spec.replicas)
        self.net = _resolve_net(spec)
        self.net.eval()
        self.split_index: Optional[int] = _resolve_split_index(spec, self.net)
        self.pipeline = SplitPipeline.from_net(
            self.net,
            spec.resolve_channel(),
            split_index=self.split_index,
            input_size=spec.input_size,
            wire_format=spec.wire_format(),
            optimize=spec.optimize,
            max_cached_plans=spec.max_cached_plans,
            faults=spec.faults,
            fallback=spec.fallback,
            max_retries=spec.max_retries,
            retry_backoff_s=spec.retry_backoff_ms / 1000.0,
            probe_every=spec.probe_every,
            fan_out=self.fan_out,
        )
        self.cache: Optional[ServeCache] = self._build_cache()
        if self.cache is not None and self.cache.feature is not None:
            self.pipeline.feature_cache = self.cache.feature
        self._pipeline_lock = threading.Lock()
        self._batcher: Optional[DynamicBatcher] = None
        self._batcher_lock = threading.Lock()
        # Serialises close() end-to-end: a second concurrent closer
        # blocks here until the first finished draining, so *every*
        # close() caller returns only once the futures are resolved and
        # the executors are down.
        self._close_lock = threading.Lock()
        self._closed = False
        self._provenance: Optional[Tuple[str, str]] = None

    def _build_cache(self) -> Optional[ServeCache]:
        """Construct the serve cache the spec's policy asks for.

        The provenance digest binds every cache key to (a) the exact
        spec — serialised for registry-named models, a per-deployment
        unique token for in-memory nets, which therefore never share
        entries across deployments — (b) the resolved split index, and
        (c) the optimized edge plan-IR description, so an optimizer or
        topology change can never serve stale numerics.
        """
        policy = self.spec.cache
        if policy is None or not policy.enabled:
            return None
        if isinstance(self.spec.model, str):
            spec_part = f"spec:{self.spec.digest()}"
        else:
            spec_part = f"in-memory:{uuid.uuid4().hex}"
        channels = self.net.backbone.spec.input_channels
        size = self.spec.input_size
        plan_part = self.pipeline.edge.plan_provenance((1, channels, size, size))
        provenance = provenance_digest(
            [spec_part, f"split:{self.split_index}", plan_part]
        )
        return ServeCache(policy, provenance)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def task_names(self) -> Tuple[str, ...]:
        return self.net.task_names

    @property
    def traces(self):
        return self.pipeline.traces

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def batching_stats(self) -> BatchingStats:
        """Dispatcher accounting (zeros until the first ``submit``)."""
        if self._batcher is None:
            return BatchingStats()
        return self._batcher.stats

    @property
    def fault_stats(self) -> FaultStats:
        """The resilient link's lifetime fault/degradation counters."""
        return self.pipeline.fault_stats

    def cache_stats(self) -> Dict[str, Dict[str, int]]:
        """Per-tier cache counter snapshots (empty without a policy)."""
        return self.cache.stats() if self.cache is not None else {}

    @property
    def degraded(self) -> bool:
        """Whether the split channel is currently declared down."""
        return self.pipeline.degraded

    def describe(self) -> str:
        cut = self.split_index if self.split_index is not None else "backbone/heads"
        return f"{self.spec.describe()} -> cut at {cut}"

    def provenance(self) -> Tuple[str, str]:
        """``(spec_digest, plan_digest)`` — this deployment's identity.

        ``spec_digest`` is the SHA-256 of the serialised spec (``""``
        for in-memory models, which have no stable serialised form);
        ``plan_digest`` hashes the resolved split index plus the
        *optimized plan-IR text of both halves* (timing-free — see
        :meth:`~repro.serve.runtime._RuntimeBase.plan_provenance`), so
        any optimizer-pass, weight, or topology change moves it.  Both
        stamps ride on every :class:`ThroughputReport` this deployment
        produces and on the :mod:`repro.attest` golden registry.

        Computed lazily (lowering + passes on both halves, once per
        deployment) and cached.
        """
        if self._provenance is None:
            spec_digest = (
                self.spec.digest() if isinstance(self.spec.model, str) else ""
            )
            channels = self.net.backbone.spec.input_channels
            size = self.spec.input_size
            batch_shape = (1, channels, size, size)
            edge_text = self.pipeline.edge.plan_provenance(batch_shape)
            z_shape = self.pipeline.edge.output_shape(batch_shape)
            server_text = self.pipeline.server.plan_provenance(z_shape)
            plan_digest = provenance_digest(
                [f"split:{self.split_index}", edge_text, server_text]
            )
            plan_text = (
                f"split:{self.split_index}\n"
                f"--- edge ---\n{edge_text}\n"
                f"--- server ---\n{server_text}"
            )
            self._provenance = (spec_digest, plan_digest, plan_text)
        return self._provenance[:2]

    def plan_text(self) -> str:
        """The full timing-free plan-IR text behind the plan digest.

        Both halves plus the split marker — the human-readable side of
        :meth:`provenance`'s ``plan_digest``, stored verbatim in the
        :mod:`repro.attest` goldens so a digest mismatch can be narrowed
        to the first divergent step line.
        """
        self.provenance()
        return self._provenance[2]

    # ------------------------------------------------------------------
    # Serving surfaces
    # ------------------------------------------------------------------
    def _require_open(self) -> None:
        if self._closed:
            raise RuntimeError(
                f"Deployment({self.spec.describe()}) is closed; "
                "build a new one with repro.deploy"
            )

    def warmup(self, batch_sizes: Iterable[int] = (1,)) -> "Deployment":
        """Prime the executors' plan caches for the given batch sizes.

        Serving traffic dispatched by the batcher arrives in sizes
        ``1..max_batch_size``; pre-planning the common ones keeps
        first-request latency flat.  At a per-image geometry a size-``b``
        batch binds (and runs once, on its own thread) the plan of each
        of the ``min(b, fan_out)`` lanes it uses, so warm up the largest
        size traffic will bring.
        """
        self._require_open()
        channels = self.net.backbone.spec.input_channels
        size = self.spec.input_size
        with self._pipeline_lock:
            for batch in batch_sizes:
                zeros = np.zeros((int(batch), channels, size, size), dtype=np.float32)
                self.pipeline.warmup(zeros)
        return self

    def infer(self, images: np.ndarray) -> Dict[str, np.ndarray]:
        """Synchronously run one image batch end-to-end."""
        self._require_open()
        with self._pipeline_lock:
            return self.pipeline.infer(images)

    def stream(
        self, batches: Iterable[np.ndarray]
    ) -> Tuple[List[Dict[str, np.ndarray]], ThroughputReport]:
        """Run many batches with edge/server execution overlapped.

        The returned report carries this deployment's provenance stamps
        (``spec_digest``/``plan_digest``, see :meth:`provenance`), so
        artifacts built from it are traceable to exact numerics.
        """
        self._require_open()
        with self._pipeline_lock:
            outputs, report = self.pipeline.infer_stream(batches)
        report.spec_digest, report.plan_digest = self.provenance()
        return outputs, report

    def _infer_locked(self, images: np.ndarray) -> Dict[str, np.ndarray]:
        with self._pipeline_lock:
            return self.pipeline.infer(images)

    def submit(
        self, image: np.ndarray, deadline_ms: Optional[float] = None
    ) -> "Future":
        """Asynchronously serve one image through the dynamic batcher.

        Returns a future resolving to ``{task: (classes,) ndarray}`` —
        the batch-1 ``infer`` result for this image, minus the batch
        axis.  Concurrent submissions coalesce into micro-batches of up
        to ``spec.max_batch_size`` images (waiting at most
        ``spec.max_queue_delay_ms`` for company), so request-level
        traffic runs through the engine's cached batched plans.

        Overload semantics follow the spec: with ``max_queue_depth`` set,
        a full queue sheds the request by raising
        :class:`~repro.serve.batching.RejectedError` *here*, not in the
        future; ``deadline_ms`` (default ``spec.deadline_ms``) expires
        the request in queue with
        :class:`~repro.serve.batching.DeadlineExceededError` on the
        future if dispatch comes too late.
        """
        self._require_open()
        if self._batcher is None:
            # The closed check repeats under the lock: a close() racing
            # this first submit must not see _batcher is None, tear down
            # the pipeline, and leave us resurrecting a closed executor.
            with self._batcher_lock:
                self._require_open()
                if self._batcher is None:
                    self._batcher = DynamicBatcher(
                        self._infer_locked,
                        max_batch_size=self.spec.max_batch_size,
                        max_queue_delay_ms=self.spec.max_queue_delay_ms,
                        max_queue_depth=self.spec.max_queue_depth,
                        default_deadline_ms=self.spec.deadline_ms,
                        # Keep the repro-serve-batcher prefix: the thread
                        # leak tests (and debugger filtering) key on it.
                        name=f"repro-serve-batcher [{self.spec.describe()}]",
                        response_cache=(
                            self.cache.response if self.cache is not None else None
                        ),
                    )
        return self._batcher.submit(image, deadline_ms=deadline_ms)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Drain the batcher, then release executor worker threads.

        Idempotent *and* safe under concurrent callers: every caller
        returns only after the drain completed — outstanding ``submit``
        futures are resolved (the batcher flushes its queue, stranding
        none) before the engine resources go away.
        """
        with self._close_lock:
            with self._batcher_lock:
                already = self._closed
                self._closed = True
                batcher = self._batcher
            if already:
                return
            if batcher is not None:
                batcher.close()
            self.pipeline.close()
            if self.cache is not None:
                self.cache.close()

    def __enter__(self) -> "Deployment":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return f"Deployment({self.describe()}, {state})"


def deploy(spec: Optional[DeploymentSpec] = None, **overrides):
    """Build a live deployment from a spec (the public API).

    Call with a ready spec, keyword overrides on top of one, or pure
    keywords (which construct the spec in place)::

        dep = repro.deploy(model="mobilenet_v3_tiny",
                           tasks=(("scale", 8), ("shape", 4)))
        dep = repro.deploy(spec)                      # as declared
        dep = repro.deploy(spec, wire="quant8")       # spec + override

    Returns a :class:`Deployment` for ``replicas == 1`` (the default),
    or a fault-tolerant multi-process
    :class:`~repro.serve.cluster.ClusterDeployment` for ``replicas > 1``
    — same serving surface (``submit``/``infer``/``close``), plus
    supervision (see :mod:`repro.serve.cluster`).
    """
    if spec is None:
        spec = DeploymentSpec(**overrides)
    elif overrides:
        spec = spec.replace(**overrides)
    if spec.replicas > 1:
        from .cluster import ClusterDeployment, ClusterSpec

        return ClusterDeployment(ClusterSpec(deployment=spec))
    return Deployment(spec)
