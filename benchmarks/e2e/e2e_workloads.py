"""The seven fixed-load workloads: specs and seeded traffic.

Why each exists is recorded once, in ``BENCHMARK.json`` (``why``) and at
length in ``README.md``.

Loads are absolute and never calibrated from the code under test.  Specs
are written inline (not taken from ``repro.scenarios``) and use only
``model, tasks, input_size, wire, channel, max_batch_size,
max_queue_delay_ms, max_queue_depth, cache, replicas, seed`` so that
deleting an engine knob or an inference path does not change the
benchmark.  ``seed`` in a spec is the (fixed) weight-init seed; the
``--seed`` argument only drives the inputs generated here.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

_BASE: Dict[str, Any] = dict(
    model="mobilenet_v3_tiny",
    tasks=(("scale", 8), ("shape", 4)),
    wire="float32",
    channel="gigabit_ethernet",
    max_queue_delay_ms=2.0,
    seed=0,
)
_SERVE = dict(_BASE, input_size=32, max_batch_size=8, max_queue_depth=256)
_CACHE = dict(_BASE, input_size=96, max_batch_size=8)

#: Traffic sent and discarded before the timed window (no idle gap after it).
WARM_SECONDS = 3.0
#: Images in the pre-timing output gate.
GATE_IMAGES = 16
#: Requests (or calls) whose outputs are compared with a sequential reference.
SAMPLED = 64


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                      # "open" | "stream" | "churn"
    spec: Dict[str, Any]
    rate: float = 0.0              # open loop: requests per second
    pool: int = 256                # seeded images the traffic draws from
    zipf: Optional[float] = None   # open loop: Zipf exponent over the pool
    unique: bool = False           # open loop: stamp a counter into every image
    sheds: bool = False            # admission control is expected to refuse work
    stream_batches: int = 8        # stream: batches per call
    stream_batch: int = 2          # stream: images per batch
    churn_sizes: Tuple[int, ...] = field(default=tuple(range(1, 13)))

    @property
    def input_size(self) -> int:
        return int(self.spec["input_size"])

    @property
    def max_batch_size(self) -> int:
        return int(self.spec.get("max_batch_size", 8))

    @property
    def open_loop(self) -> bool:
        return self.kind == "open"


# The layer each one loads (the full reasons: BENCHMARK.json, README.md).
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        # edge plan engine; batcher, cache and cluster idle
        Workload("stream_hires", "stream",
                 dict(_BASE, input_size=224, wire="quant8", channel="lte_uplink",
                      max_batch_size=2)),
        # queueing, batch formation, future resolution (batch <= plan-cache size)
        Workload("serve_steady", "open", _SERVE, rate=1600.0),
        # admission control at ~1.3x capacity: saturation throughput
        Workload("serve_overload", "open", _SERVE, rate=4800.0, sheds=True),
        # plan build + lowering: batch sizes 1..12 over the 8-plan LRU
        Workload("shape_churn", "churn", dict(_BASE, input_size=32)),
        # cache read path: Zipf(1.1) over 512 images, hits resolve at admission
        Workload("cache_zipf", "open", dict(_CACHE, cache="both"),
                 rate=200.0, pool=512, zipf=1.1),
        # cache write path: every image distinct, 1024-entry tiers evict
        Workload("cache_unique", "open",
                 dict(_CACHE, cache={"tier": "both", "max_entries": 1024}),
                 rate=200.0, pool=64, unique=True),
        # serve_steady's spec on two replica processes: router<->replica IPC
        Workload("cluster_pair", "open", dict(_SERVE, replicas=2), rate=1500.0),
    )
}


def rng_for(name: str, seed: int) -> np.random.Generator:
    """One generator per (workload, seed): same seed, same inputs."""
    return np.random.default_rng([int(seed), zlib.crc32(name.encode())])


def make_images(rng: np.random.Generator, count: int, size: int) -> np.ndarray:
    return rng.random((count, 3, size, size), dtype=np.float32)


@dataclass
class OpenTraffic:
    """A seeded Poisson schedule plus the image each request carries."""

    due: np.ndarray                       # seconds from the start of the schedule
    keys: np.ndarray                      # pool index per request (content identity)
    image_for: Callable[[int], np.ndarray]
    duplicate: np.ndarray                 # request's content was sent earlier


def open_traffic(
    workload: Workload, rng: np.random.Generator, phases: Sequence[float]
) -> OpenTraffic:
    """Arrivals for consecutive phases of the given lengths (warm-up and
    windows together: one continuous schedule, one cache history).

    A Poisson process conditioned on its count: each phase gets exactly
    ``rate x seconds`` arrivals at independent uniform times.  The gaps
    are the same exponential-looking mix, but the offered load per
    window is exact, so ``completed_rps`` measures the program and not
    the seed's draw of how many requests fell inside the window.
    """
    start, parts = 0.0, []
    for seconds in phases:
        arrivals = int(round(workload.rate * seconds))
        parts.append(start + np.sort(rng.random(arrivals)) * seconds)
        start += seconds
    due = np.concatenate(parts)
    count = len(due)
    pool = make_images(rng, workload.pool, workload.input_size)
    if workload.zipf is not None:
        weights = 1.0 / np.arange(1, workload.pool + 1) ** workload.zipf
        keys = rng.choice(workload.pool, size=count, p=weights / weights.sum())
    else:
        keys = rng.integers(0, workload.pool, size=count)

    if workload.unique:
        def image_for(index: int) -> np.ndarray:
            image = pool[keys[index]].copy()
            # Dyadic stamp: exact in float32, distinct for 2**16 requests.
            image[0, 0, 0] = 1.0 + index * 2.0 ** -16
            return image

        duplicate = np.zeros(count, dtype=bool)
    else:
        def image_for(index: int) -> np.ndarray:
            return pool[keys[index]]

        _, first_seen = np.unique(keys, return_index=True)
        duplicate = np.ones(count, dtype=bool)
        duplicate[first_seen] = False
    return OpenTraffic(due=due, keys=keys, image_for=image_for, duplicate=duplicate)


def stream_batches(workload: Workload, rng: np.random.Generator) -> List[np.ndarray]:
    return [
        make_images(rng, workload.stream_batch, workload.input_size)
        for _ in range(workload.stream_batches)
    ]
