"""Declarative deployment configuration for the split-computing system.

:class:`DeploymentSpec` is the single object that describes *everything*
about a split deployment — which model, where to cut it, how ``Z_b``
crosses the wire, what channel carries it, how the halves execute, and
how concurrent requests are batched.  It is frozen (safe to share across
threads), validates eagerly with precise error messages, and round-trips
through plain dicts and JSON so deployments can be driven from config
files::

    spec = DeploymentSpec(model="mobilenet_v3_tiny",
                          tasks=(("scale", 8), ("shape", 4)),
                          split_index="auto", wire="quant8",
                          channel="lte_uplink", max_batch_size=4)
    spec == DeploymentSpec.from_json(spec.to_json())   # True

``repro.deploy(spec)`` turns the description into a running
:class:`~repro.serve.deployment.Deployment`.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Any, Dict, Optional, Tuple, Union

from ..deployment.channel import NetworkChannel, get_channel
from ..deployment.device import Device, get_device
from ..deployment.wire import WireFormat
from ..models.registry import available_backbones
from .cache.policy import CachePolicy
from .faults import FALLBACK_MODES, FaultPlan

__all__ = ["DeploymentSpec", "SpecError"]

#: ``split_index`` sentinel: choose the latency-optimal cut with the
#: Neurosurgeon-style optimizer (:mod:`repro.deployment.optimizer`).
AUTO = "auto"


class SpecError(ValueError):
    """A :class:`DeploymentSpec` field failed validation.

    Subclasses ``ValueError`` so existing ``except ValueError`` call
    sites keep working; exists as its own type so config loaders can
    catch spec problems distinctly from other value errors.
    """


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise SpecError(message)


@dataclass(frozen=True)
class DeploymentSpec:
    """Frozen description of one split-computing deployment.

    Parameters
    ----------
    model:
        A backbone registry name (``"mobilenet_v3_tiny"``, ...) — the
        serialisable form — or an already-built
        :class:`~repro.core.architecture.MTLSplitNet` (e.g. a trained
        net; such specs cannot be serialised to dict/JSON).
    tasks:
        ``(name, num_classes)`` pairs for the task heads.  Required when
        ``model`` is a registry name; ignored (and left empty) when an
        ``MTLSplitNet`` is passed, whose heads are authoritative.
    input_size:
        Square input resolution the deployment is compiled for.
    split_index:
        Number of backbone stages kept on the edge: a positive int,
        ``None`` for the paper's default cut (whole backbone on the
        edge), or ``"auto"`` to let the latency optimizer choose for the
        configured device pair and channel.
    wire:
        ``Z_b`` encoding: ``"float32"``, ``"float16"`` or ``"quant8"``.
        Note that ``"quant8"`` quantises per *batch*, so dynamically
        batched ``submit()`` results may differ at the last bit from a
        sequential run.
    channel:
        A channel preset name (see
        :func:`repro.deployment.channel.available_channels`), a
        :class:`NetworkChannel`, or a dict of its fields.
    edge_device / server_device:
        Device preset names (see
        :func:`repro.deployment.device.available_devices`) or
        :class:`Device` objects; only consulted by the ``"auto"`` split
        optimizer.
    optimize:
        Run the plan-IR optimizer passes (epilogue fusion, copy elision,
        kernel selection, blocked SpMM) on every execution plan.  On by
        default; ``False`` binds the straight-line reference lowering —
        the honest same-host baseline for benchmarks.
    max_cached_plans:
        Per-stage bound on the engine's per-batch-shape plan cache
        (LRU).  A long-running deployment serving many input shapes
        evicts least-recently-used plans past this limit instead of
        growing arena memory without bound.
    max_batch_size / max_queue_delay_ms:
        Dynamic-batching knobs for ``Deployment.submit``: a dispatched
        micro-batch closes when it reaches ``max_batch_size`` requests
        or the oldest request has waited ``max_queue_delay_ms``.
    max_queue_depth:
        Admission-control bound on queued ``submit`` requests; a submit
        against a full queue is shed with
        :class:`~repro.serve.batching.RejectedError`.  ``None`` keeps
        the queue unbounded.
    deadline_ms:
        Default per-request deadline for ``submit``; requests still
        queued past it are dropped with
        :class:`~repro.serve.batching.DeadlineExceededError` and the
        dispatcher fills micro-batches earliest-deadline-first.
        ``None`` disables deadlines.
    faults:
        Optional :class:`~repro.serve.faults.FaultPlan` (or its dict
        form) injected on the split channel — deterministic drop /
        delay / corruption plus link-down and server-crash windows.
    fallback:
        What to do when the link is declared down: ``"edge"`` runs both
        halves locally (graceful degradation, the default), ``"cloud"``
        ships the raw input over the (faulty) wire and runs everything
        server-side, ``"none"`` lets the failure propagate so callers
        shed.
    max_retries / retry_backoff_ms:
        Split-channel retry policy: re-send attempts after a transient
        wire fault, and the exponential-backoff base charged per retry
        (modelled time).
    probe_every:
        While degraded, attempt one link-recovery probe every this many
        requests; a successful probe restores split execution.
    cache:
        Optional :class:`~repro.serve.cache.CachePolicy` (or its dict /
        ``"tier:key=value,..."`` string form) enabling the serve-side
        caches: a content-addressed **response cache** answered at
        batcher admission, and/or a **split-point feature cache** that
        memoizes the edge activation at the cut (see
        ``docs/caching.md``).  Keys carry the spec + optimized-plan
        digests, so a respec or optimizer change never serves stale
        numerics.  ``None`` (the default) serves every request through
        the full pipeline, byte-for-byte the pre-cache behavior.
    replicas:
        Worker *processes* serving this deployment.  ``1`` (the default)
        keeps everything in-process; ``> 1`` makes :func:`repro.deploy`
        build a fault-tolerant :class:`~repro.serve.cluster
        .ClusterDeployment` — N forked workers, each owning its own
        plan cache and arena, behind a supervised front-end router (see
        :mod:`repro.serve.cluster`).  Multi-replica specs must use a
        registry-named model (workers rebuild the net from the spec).
    seed:
        RNG seed used when ``model`` is a registry name and the net is
        built (untrained) from scratch.
    """

    model: Union[str, Any]
    tasks: Tuple[Tuple[str, int], ...] = field(default=())
    input_size: int = 32
    split_index: Union[int, str, None] = None
    wire: str = "float32"
    channel: Union[str, NetworkChannel] = "gigabit_ethernet"
    edge_device: Union[str, Device] = "jetson_nano"
    server_device: Union[str, Device] = "rtx3090_server"
    optimize: bool = True
    max_cached_plans: int = 8
    max_batch_size: int = 8
    max_queue_delay_ms: float = 2.0
    max_queue_depth: Optional[int] = None
    deadline_ms: Optional[float] = None
    faults: Optional[FaultPlan] = None
    fallback: str = "edge"
    max_retries: int = 2
    retry_backoff_ms: float = 10.0
    probe_every: int = 8
    cache: Optional[CachePolicy] = None
    replicas: int = 1
    seed: int = 0

    # ------------------------------------------------------------------
    # Validation / normalisation
    # ------------------------------------------------------------------
    def __post_init__(self):
        set_ = object.__setattr__  # frozen dataclass: normalise in place

        # -- model -----------------------------------------------------
        if isinstance(self.model, str):
            _check(
                self.model in available_backbones(),
                f"unknown backbone {self.model!r}; "
                f"available: {available_backbones()}",
            )
            tasks = tuple(
                (str(name), int(classes)) for name, classes in self.tasks
            )
            _check(
                len(tasks) > 0,
                "tasks must be non-empty when model is a registry name; "
                f"give (name, num_classes) pairs for {self.model!r}",
            )
            for name, classes in tasks:
                _check(
                    classes >= 1,
                    f"task {name!r} needs num_classes >= 1, got {classes}",
                )
            names = [name for name, _ in tasks]
            _check(
                len(set(names)) == len(names),
                f"task names must be unique, got {names}",
            )
            set_(self, "tasks", tasks)
        else:
            _check(
                hasattr(self.model, "split") and hasattr(self.model, "task_names"),
                "model must be a backbone registry name or an MTLSplitNet-like "
                f"module with .split() and .task_names, got {type(self.model).__name__}",
            )
            set_(self, "tasks", ())  # the module's heads are authoritative

        # -- geometry / cut --------------------------------------------
        _check(
            isinstance(self.input_size, int) and self.input_size >= 8,
            f"input_size must be an int >= 8, got {self.input_size!r}",
        )
        if self.split_index is not None and self.split_index != AUTO:
            _check(
                isinstance(self.split_index, int) and not isinstance(self.split_index, bool)
                and self.split_index >= 1,
                "split_index must be a positive int, None, or 'auto'; "
                f"got {self.split_index!r}",
            )

        # -- wire / channel / devices ----------------------------------
        if isinstance(self.wire, WireFormat):
            set_(self, "wire", self.wire.dtype)
        try:
            WireFormat(self.wire)
        except ValueError as error:
            raise SpecError(str(error)) from None
        if isinstance(self.channel, dict):
            try:
                set_(self, "channel", NetworkChannel(**self.channel))
            except (TypeError, ValueError) as error:
                raise SpecError(f"bad channel description: {error}") from None
        elif isinstance(self.channel, str):
            try:
                get_channel(self.channel)
            except KeyError as error:
                raise SpecError(error.args[0]) from None
        else:
            _check(
                isinstance(self.channel, NetworkChannel),
                "channel must be a preset name, NetworkChannel or dict, "
                f"got {type(self.channel).__name__}",
            )
        for attr in ("edge_device", "server_device"):
            value = getattr(self, attr)
            if isinstance(value, str):
                try:
                    get_device(value)
                except KeyError as error:
                    raise SpecError(error.args[0]) from None
            else:
                _check(
                    isinstance(value, Device),
                    f"{attr} must be a preset name or Device, "
                    f"got {type(value).__name__}",
                )

        # -- engine / batching knobs -----------------------------------
        _check(
            isinstance(self.max_cached_plans, int) and self.max_cached_plans >= 1,
            f"max_cached_plans must be a positive int, got {self.max_cached_plans!r}",
        )
        _check(
            isinstance(self.max_batch_size, int) and self.max_batch_size >= 1,
            f"max_batch_size must be a positive int, got {self.max_batch_size!r}",
        )
        _check(
            float(self.max_queue_delay_ms) >= 0.0,
            f"max_queue_delay_ms must be >= 0, got {self.max_queue_delay_ms!r}",
        )
        set_(self, "max_queue_delay_ms", float(self.max_queue_delay_ms))

        # -- overload / robustness knobs -------------------------------
        if self.max_queue_depth is not None:
            _check(
                isinstance(self.max_queue_depth, int)
                and not isinstance(self.max_queue_depth, bool)
                and self.max_queue_depth >= 1,
                f"max_queue_depth must be a positive int or None, "
                f"got {self.max_queue_depth!r}",
            )
        if self.deadline_ms is not None:
            _check(
                float(self.deadline_ms) > 0.0,
                f"deadline_ms must be > 0 or None, got {self.deadline_ms!r}",
            )
            set_(self, "deadline_ms", float(self.deadline_ms))
        if isinstance(self.faults, dict):
            try:
                set_(self, "faults", FaultPlan.from_dict(self.faults))
            except (TypeError, ValueError) as error:
                raise SpecError(f"bad fault plan: {error}") from None
        elif self.faults is not None:
            _check(
                isinstance(self.faults, FaultPlan),
                f"faults must be a FaultPlan, dict or None, "
                f"got {type(self.faults).__name__}",
            )
        _check(
            self.fallback in FALLBACK_MODES,
            f"fallback must be one of {FALLBACK_MODES}, got {self.fallback!r}",
        )
        _check(
            isinstance(self.max_retries, int)
            and not isinstance(self.max_retries, bool)
            and self.max_retries >= 0,
            f"max_retries must be an int >= 0, got {self.max_retries!r}",
        )
        _check(
            float(self.retry_backoff_ms) >= 0.0,
            f"retry_backoff_ms must be >= 0, got {self.retry_backoff_ms!r}",
        )
        set_(self, "retry_backoff_ms", float(self.retry_backoff_ms))
        _check(
            isinstance(self.probe_every, int)
            and not isinstance(self.probe_every, bool)
            and self.probe_every >= 1,
            f"probe_every must be a positive int, got {self.probe_every!r}",
        )
        if isinstance(self.cache, dict):
            try:
                set_(self, "cache", CachePolicy.from_dict(self.cache))
            except (TypeError, ValueError) as error:
                raise SpecError(f"bad cache policy: {error}") from None
        elif isinstance(self.cache, str):
            try:
                set_(self, "cache", CachePolicy.from_string(self.cache))
            except ValueError as error:
                raise SpecError(f"bad cache policy: {error}") from None
        elif self.cache is not None:
            _check(
                isinstance(self.cache, CachePolicy),
                f"cache must be a CachePolicy, dict, string or None, "
                f"got {type(self.cache).__name__}",
            )
        _check(
            isinstance(self.replicas, int)
            and not isinstance(self.replicas, bool)
            and self.replicas >= 1,
            f"replicas must be a positive int, got {self.replicas!r}",
        )
        if self.replicas > 1:
            _check(
                isinstance(self.model, str),
                "replicas > 1 needs a registry-named model (worker "
                "processes rebuild the net from the serialised spec); "
                "an in-memory net cannot cross the process boundary",
            )

    # ------------------------------------------------------------------
    # Resolution helpers (used by Deployment; cheap, allocate nothing big)
    # ------------------------------------------------------------------
    @property
    def auto_split(self) -> bool:
        return self.split_index == AUTO

    def wire_format(self) -> WireFormat:
        return WireFormat(self.wire)

    def resolve_channel(self) -> NetworkChannel:
        if isinstance(self.channel, str):
            return get_channel(self.channel)
        return self.channel

    def resolve_edge_device(self) -> Device:
        if isinstance(self.edge_device, str):
            return get_device(self.edge_device)
        return self.edge_device

    def resolve_server_device(self) -> Device:
        if isinstance(self.server_device, str):
            return get_device(self.server_device)
        return self.server_device

    def replace(self, **overrides) -> "DeploymentSpec":
        """A copy with ``overrides`` applied (re-validated)."""
        return replace(self, **overrides)

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Plain-JSON-types dict that :meth:`from_dict` inverts exactly.

        Raises :class:`SpecError` when the spec wraps an in-memory
        module: only registry-named models are serialisable (save the
        weights separately and name the backbone instead).
        """
        _check(
            isinstance(self.model, str),
            "only specs with a registry-named model serialise to dict/JSON; "
            f"this spec holds an in-memory {type(self.model).__name__} — "
            "name the backbone and load weights separately",
        )
        data: Dict[str, Any] = {
            "model": self.model,
            "tasks": [[name, classes] for name, classes in self.tasks],
            "input_size": self.input_size,
            "split_index": self.split_index,
            "wire": self.wire,
            "channel": self._channel_to_jsonable(),
            "edge_device": self._device_to_jsonable(self.edge_device),
            "server_device": self._device_to_jsonable(self.server_device),
            "optimize": self.optimize,
            "max_cached_plans": self.max_cached_plans,
            "max_batch_size": self.max_batch_size,
            "max_queue_delay_ms": self.max_queue_delay_ms,
            "max_queue_depth": self.max_queue_depth,
            "deadline_ms": self.deadline_ms,
            "faults": self.faults.to_dict() if self.faults is not None else None,
            "fallback": self.fallback,
            "max_retries": self.max_retries,
            "retry_backoff_ms": self.retry_backoff_ms,
            "probe_every": self.probe_every,
            "cache": self.cache.to_dict() if self.cache is not None else None,
            "replicas": self.replicas,
            "seed": self.seed,
        }
        return data

    def _channel_to_jsonable(self) -> Union[str, Dict[str, Any]]:
        # A NetworkChannel object serialises to its field dict (never to a
        # preset name, even when equal to one) so from_dict(to_dict(s)) == s.
        if isinstance(self.channel, str):
            return self.channel
        return asdict(self.channel)

    @staticmethod
    def _device_to_jsonable(device: Union[str, Device]) -> Union[str, Dict[str, Any]]:
        if isinstance(device, str):
            return device
        return asdict(device)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "DeploymentSpec":
        """Inverse of :meth:`to_dict`; rejects unknown keys loudly."""
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        _check(
            not unknown,
            f"unknown DeploymentSpec keys {unknown}; known keys: {sorted(known)}",
        )
        payload = dict(data)
        if "tasks" in payload:
            try:
                payload["tasks"] = tuple(
                    (name, classes) for name, classes in payload["tasks"]
                )
            except (TypeError, ValueError):
                raise SpecError(
                    "tasks must be (name, num_classes) pairs, got "
                    f"{payload['tasks']!r}"
                ) from None
        for attr in ("edge_device", "server_device"):
            if isinstance(payload.get(attr), dict):
                try:
                    payload[attr] = Device(**payload[attr])
                except (TypeError, ValueError) as error:
                    raise SpecError(f"bad {attr} description: {error}") from None
        return cls(**payload)

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "DeploymentSpec":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as error:
            raise SpecError(f"invalid DeploymentSpec JSON: {error}") from None
        _check(isinstance(data, dict), "DeploymentSpec JSON must be an object")
        return cls.from_dict(data)

    def digest(self) -> str:
        """SHA-256 over the canonical (sorted-key) JSON serialisation.

        The spec half of the cache provenance key (the other half is the
        optimized plan-IR digest — see :mod:`repro.serve.cache`), and
        the same digest bench artifacts stamp for run provenance.  Only
        registry-named specs have one; in-memory models raise
        :class:`SpecError` like :meth:`to_dict` does.
        """
        return hashlib.sha256(self.to_json(indent=None).encode()).hexdigest()

    # ------------------------------------------------------------------
    def describe(self) -> str:
        """One-line human summary for CLI banners and logs."""
        model = self.model if isinstance(self.model, str) else type(self.model).__name__
        cut = self.split_index if self.split_index is not None else "backbone/heads"
        channel = (
            self.channel if isinstance(self.channel, str) else self.channel.name
        )
        cluster = f", replicas={self.replicas}" if self.replicas > 1 else ""
        return (
            f"{model} @{self.input_size}px, split={cut}, wire={self.wire}, "
            f"channel={channel}, "
            f"batch<= {self.max_batch_size} within {self.max_queue_delay_ms:g} ms"
            f"{cluster}"
        )
