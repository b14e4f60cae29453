"""``repro.serve`` — the declarative deployment and serving API.

The one-stop surface over the split-computing stack: declare a
deployment as a frozen, JSON-round-trippable
:class:`~repro.serve.spec.DeploymentSpec`, bring it to life with
:func:`~repro.serve.deployment.deploy`, and serve through three surfaces
— synchronous batches (``infer``), overlapped batch streams
(``stream``), and asynchronous single-image requests (``submit``) that a
dynamic micro-batching dispatcher coalesces into engine-sized batches::

    import repro

    spec = repro.DeploymentSpec(
        model="mobilenet_v3_tiny",
        tasks=(("scale", 8), ("shape", 4)),
        split_index="auto",          # latency-optimal cut
        wire="quant8",               # 4x smaller Z_b payloads
    )
    with repro.deploy(spec) as dep:
        futures = [dep.submit(image) for image in images]   # many clients
        results = [f.result() for f in futures]             # batched under the hood

The execution layer (:mod:`repro.serve.runtime`) and the batcher
(:mod:`repro.serve.batching`) are public too, for code that needs the
pieces; :mod:`repro.serve.bench` drives synthetic concurrent load
(closed-loop) and open-loop overload sweeps for benchmarking.  The
robustness layer (see ``docs/robustness.md``) lives in
:mod:`repro.serve.faults` (deterministic :class:`FaultPlan` wire-fault
injection, the retrying/degrading :class:`ResilientLink`) and in the
batcher's overload semantics (:class:`RejectedError` admission control,
:class:`DeadlineExceededError` queue deadlines).  Scale-out and process
fault-tolerance live in :mod:`repro.serve.cluster`: ``replicas > 1`` on
the spec (or :func:`deploy_cluster`) runs N supervised worker processes
behind the same ``submit`` surface, with seeded SIGKILL chaos
(:class:`WorkerFaultPlan`), in-flight failover and graceful drain.
Content-addressed caching lives in :mod:`repro.serve.cache`: a
``cache=`` policy on the spec adds a response tier (input digest →
final output, resolved at admission before any queueing) and a
split-point feature tier (input digest → edge activation at the cut),
both keyed under a provenance digest of the spec + optimized plan IR —
see ``docs/caching.md``.  The pre-``serve`` classes under
``repro.deployment``
(``EdgeRuntime``/``ServerRuntime``/``SplitPipeline``) remain as
deprecated wrappers over this package.
"""

from .batching import (
    BatchingStats,
    DeadlineExceededError,
    DynamicBatcher,
    RejectedError,
    ShutdownError,
)
from .bench import (
    ClientLoadResult,
    OverloadPoint,
    render_cache_bench,
    render_cluster_bench,
    render_overload_bench,
    render_serve_bench,
    run_cache_bench,
    run_cluster_bench,
    run_overload_bench,
    run_serve_bench,
)
from .cache import (
    ByteLRUStore,
    CachePolicy,
    CacheStats,
    FeatureCache,
    ResponseCache,
    ServeCache,
    tensor_digest,
)
from .cluster import (
    ClusterDeployment,
    ClusterReport,
    ClusterSpec,
    NoHealthyReplicaError,
    ReplicaManager,
    deploy_cluster,
)
from .deployment import Deployment, deploy
from .faults import (
    FALLBACK_MODES,
    ChannelDownError,
    ChannelFaultError,
    FaultPlan,
    FaultStats,
    ResilientLink,
    ServerCrashError,
    WorkerFaultPlan,
)
from .supervise import CLUSTER_STATES, ClusterStateMachine, Supervisor
from .workers import WorkerDiedError
from .runtime import (
    EdgeRuntime,
    InferenceTrace,
    ServerRuntime,
    SimulatedLink,
    SplitPipeline,
    ThroughputReport,
)
from .spec import DeploymentSpec, SpecError

__all__ = [
    "CLUSTER_STATES",
    "FALLBACK_MODES",
    "BatchingStats",
    "ByteLRUStore",
    "CachePolicy",
    "CacheStats",
    "ChannelDownError",
    "ChannelFaultError",
    "ClientLoadResult",
    "ClusterDeployment",
    "ClusterReport",
    "ClusterSpec",
    "ClusterStateMachine",
    "DeadlineExceededError",
    "Deployment",
    "DeploymentSpec",
    "DynamicBatcher",
    "EdgeRuntime",
    "FaultPlan",
    "FaultStats",
    "FeatureCache",
    "InferenceTrace",
    "NoHealthyReplicaError",
    "OverloadPoint",
    "RejectedError",
    "ReplicaManager",
    "ResilientLink",
    "ResponseCache",
    "ServeCache",
    "ServerCrashError",
    "ServerRuntime",
    "ShutdownError",
    "SimulatedLink",
    "SpecError",
    "SplitPipeline",
    "Supervisor",
    "ThroughputReport",
    "WorkerDiedError",
    "WorkerFaultPlan",
    "deploy",
    "deploy_cluster",
    "render_cache_bench",
    "render_cluster_bench",
    "render_overload_bench",
    "render_serve_bench",
    "run_cache_bench",
    "run_cluster_bench",
    "run_overload_bench",
    "run_serve_bench",
    "tensor_digest",
]
