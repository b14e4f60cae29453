"""The :class:`Scenario` spec: one named, reproducible workload regime.

A scenario pins down *everything* that defines a workload —
backbone × input size × batch geometry × split policy × wire format ×
engine knobs — as a frozen, eagerly-validated, JSON-round-trippable
value, the same contract :class:`~repro.serve.spec.DeploymentSpec`
established for deployments.  The difference in altitude: a
``DeploymentSpec`` says how to *serve*; a ``Scenario`` additionally says
what *traffic* to serve (how many batches of what size at what
resolution) and under which named tier the regime belongs, so
benchmarks, the CLI and future PRs can all refer to "the 224px
high-resolution MobileNetV3 workload" by one name instead of re-wiring
ad-hoc bench scripts.

A scenario *compiles* into the two runnable halves:

* :meth:`Scenario.deployment_spec` — the ready-to-run
  :class:`~repro.serve.spec.DeploymentSpec`;
* :meth:`Scenario.make_batches` / :meth:`Scenario.iter_batches` — the
  deterministic synthetic traffic at the scenario's resolution
  (:mod:`repro.data.streams`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields, replace
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

import numpy as np

from ..deployment.channel import available_channels
from ..deployment.wire import WireFormat
from ..models.registry import available_backbones

__all__ = ["Scenario", "ScenarioError", "TIERS"]

#: Canonical scenario tiers, ordered by input scale.  ``quick`` is the
#: 32px regime every paper-table benchmark runs at; ``hires`` is the
#: 224px regime where wire format, split placement and the engine's
#: depthwise kernel actually matter.
TIERS: Tuple[str, ...] = ("quick", "mid", "hires")

#: ``split_index`` sentinel (same convention as ``DeploymentSpec``).
AUTO = "auto"


class ScenarioError(ValueError):
    """A :class:`Scenario` field failed validation.

    Subclasses ``ValueError`` for the same reason
    :class:`~repro.serve.spec.SpecError` does: generic ``except
    ValueError`` call sites keep working, while config loaders can catch
    scenario problems distinctly.
    """


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise ScenarioError(message)


@dataclass(frozen=True)
class Scenario:
    """Frozen description of one named workload regime.

    Parameters
    ----------
    name:
        Registry key and display name (non-empty, no whitespace).
    backbone:
        Backbone registry name; unlike ``DeploymentSpec`` a scenario is
        always serialisable, so in-memory modules are not accepted.
    tasks:
        ``(name, num_classes)`` pairs for the task heads.
    tier:
        One of :data:`TIERS` — the input-scale band the scenario
        belongs to (``quick``/``mid``/``hires``).
    input_size:
        Square input resolution in pixels.
    batch_size / batches:
        Traffic geometry: a standard run streams ``batches`` batches of
        ``batch_size`` images each.
    split_index:
        Split policy: a positive int (stages on the edge), ``None`` for
        the paper's backbone/heads cut, or ``"auto"`` for the
        latency-optimal cut.
    wire:
        ``Z_b`` encoding: ``"float32"``, ``"float16"`` or ``"quant8"``.
    channel:
        A channel *preset name* (scenarios are named curated workloads;
        custom channel objects belong in a ``DeploymentSpec``).
    optimize:
        Engine knob forwarded to the deployment.
    noise_amount:
        Salt-and-pepper corruption applied to the synthetic traffic.
    arrival:
        Optional open-loop arrival schedule in
        :meth:`~repro.data.streams.ArrivalSpec.from_string` form (e.g.
        ``"poisson:rate=200"``); ``None`` keeps the scenario's standard
        closed-loop batch-stream traffic.
    seed:
        Seed for both the (untrained) net build and the traffic.
    description:
        One human sentence on why the scenario exists.
    """

    name: str
    backbone: str
    tasks: Tuple[Tuple[str, int], ...] = field(default=(("scale", 8), ("shape", 4)))
    tier: str = "quick"
    input_size: int = 32
    batch_size: int = 16
    batches: int = 4
    split_index: Union[int, str, None] = None
    wire: str = "float32"
    channel: str = "gigabit_ethernet"
    optimize: bool = True
    noise_amount: float = 0.1
    arrival: Optional[str] = None
    seed: int = 0
    description: str = ""

    # ------------------------------------------------------------------
    # Validation / normalisation
    # ------------------------------------------------------------------
    def __post_init__(self):
        set_ = object.__setattr__  # frozen dataclass: normalise in place

        _check(
            isinstance(self.name, str) and self.name != "" and not any(
                c.isspace() for c in self.name
            ),
            f"name must be a non-empty string without whitespace, got {self.name!r}",
        )
        _check(
            self.backbone in available_backbones(),
            f"unknown backbone {self.backbone!r}; "
            f"available: {available_backbones()}",
        )
        tasks = tuple((str(n), int(c)) for n, c in self.tasks)
        _check(len(tasks) > 0, "tasks must be non-empty (name, num_classes) pairs")
        for task_name, classes in tasks:
            _check(
                classes >= 1,
                f"task {task_name!r} needs num_classes >= 1, got {classes}",
            )
        names = [n for n, _ in tasks]
        _check(
            len(set(names)) == len(names),
            f"task names must be unique, got {names}",
        )
        set_(self, "tasks", tasks)

        _check(
            self.tier in TIERS,
            f"tier must be one of {TIERS}, got {self.tier!r}",
        )
        _check(
            isinstance(self.input_size, int) and self.input_size >= 16,
            "input_size must be an int >= 16 (the renderer's floor), "
            f"got {self.input_size!r}",
        )
        for attr in ("batch_size", "batches"):
            value = getattr(self, attr)
            _check(
                isinstance(value, int) and not isinstance(value, bool) and value >= 1,
                f"{attr} must be a positive int, got {value!r}",
            )
        if self.split_index is not None and self.split_index != AUTO:
            _check(
                isinstance(self.split_index, int)
                and not isinstance(self.split_index, bool)
                and self.split_index >= 1,
                "split_index must be a positive int, None, or 'auto'; "
                f"got {self.split_index!r}",
            )
        if isinstance(self.wire, WireFormat):
            set_(self, "wire", self.wire.dtype)
        try:
            WireFormat(self.wire)
        except ValueError as error:
            raise ScenarioError(str(error)) from None
        _check(
            isinstance(self.channel, str) and self.channel in available_channels(),
            f"channel must be a preset name from {available_channels()}, "
            f"got {self.channel!r}",
        )
        _check(
            0.0 <= float(self.noise_amount) <= 1.0,
            f"noise_amount must be in [0, 1], got {self.noise_amount!r}",
        )
        set_(self, "noise_amount", float(self.noise_amount))
        if self.arrival is not None:
            from ..data.streams import ArrivalSpec  # deferred: keep import light

            try:
                canonical = ArrivalSpec.from_string(self.arrival).to_string()
            except ValueError as error:
                raise ScenarioError(f"bad arrival spec: {error}") from None
            set_(self, "arrival", canonical)
        _check(
            isinstance(self.description, str),
            f"description must be a string, got {type(self.description).__name__}",
        )

    # ------------------------------------------------------------------
    # Compilation: spec + traffic
    # ------------------------------------------------------------------
    def deployment_spec(self, **overrides) -> "Any":
        """The ready-to-run :class:`~repro.serve.spec.DeploymentSpec`.

        ``overrides`` lets callers flip knobs without re-declaring the
        scenario — the benchmark harness uses
        ``deployment_spec(optimize=False)`` for its same-run baseline.
        """
        from ..serve.spec import DeploymentSpec  # deferred: avoid import cycle

        payload = dict(
            model=self.backbone,
            tasks=self.tasks,
            input_size=self.input_size,
            split_index=self.split_index,
            wire=self.wire,
            channel=self.channel,
            optimize=self.optimize,
            max_batch_size=max(self.batch_size, 1),
            seed=self.seed,
        )
        payload.update(overrides)
        return DeploymentSpec(**payload)

    def iter_batches(self, batches: Optional[int] = None) -> Iterator[np.ndarray]:
        """Lazily render the scenario's deterministic synthetic traffic."""
        from ..data.streams import iter_image_batches

        return iter_image_batches(
            self.batches if batches is None else batches,
            self.batch_size,
            image_size=self.input_size,
            noise_amount=self.noise_amount,
            seed=self.seed,
        )

    def make_batches(self, batches: Optional[int] = None) -> List[np.ndarray]:
        """Eager list form of :meth:`iter_batches`."""
        return list(self.iter_batches(batches))

    def arrival_spec(self) -> "Any":
        """The parsed :class:`~repro.data.streams.ArrivalSpec`, or
        ``None`` for closed-loop scenarios."""
        if self.arrival is None:
            return None
        from ..data.streams import ArrivalSpec

        return ArrivalSpec.from_string(self.arrival)

    @property
    def images_per_run(self) -> int:
        return self.batches * self.batch_size

    def replace(self, **overrides) -> "Scenario":
        """A copy with ``overrides`` applied (re-validated)."""
        return replace(self, **overrides)

    # ------------------------------------------------------------------
    # Serialisation (exact dict/JSON round-trip)
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Plain-JSON-types dict that :meth:`from_dict` inverts exactly."""
        return {
            "name": self.name,
            "backbone": self.backbone,
            "tasks": [[n, c] for n, c in self.tasks],
            "tier": self.tier,
            "input_size": self.input_size,
            "batch_size": self.batch_size,
            "batches": self.batches,
            "split_index": self.split_index,
            "wire": self.wire,
            "channel": self.channel,
            "optimize": self.optimize,
            "noise_amount": self.noise_amount,
            "arrival": self.arrival,
            "seed": self.seed,
            "description": self.description,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Scenario":
        """Inverse of :meth:`to_dict`; rejects unknown keys loudly."""
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        _check(
            not unknown,
            f"unknown Scenario keys {unknown}; known keys: {sorted(known)}",
        )
        payload = dict(data)
        if "tasks" in payload:
            try:
                payload["tasks"] = tuple((n, c) for n, c in payload["tasks"])
            except (TypeError, ValueError):
                raise ScenarioError(
                    f"tasks must be (name, num_classes) pairs, got {payload['tasks']!r}"
                ) from None
        return cls(**payload)

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Scenario":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as error:
            raise ScenarioError(f"invalid Scenario JSON: {error}") from None
        _check(isinstance(data, dict), "Scenario JSON must be an object")
        return cls.from_dict(data)

    # ------------------------------------------------------------------
    def describe(self) -> str:
        """One-line human summary for CLI listings and logs."""
        cut = self.split_index if self.split_index is not None else "backbone/heads"
        return (
            f"{self.name}: {self.backbone} @{self.input_size}px [{self.tier}], "
            f"{self.batches}x{self.batch_size} images, split={cut}, "
            f"wire={self.wire}, channel={self.channel}"
        )
