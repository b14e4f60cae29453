"""Load generation, output gates and end-to-end metrics for one workload.

Everything here drives the program through its public serving surface
only: ``repro.deploy``, ``DeploymentSpec`` and ``Deployment.{submit,
infer, stream, warmup, close, traces, batching_stats}``.  One thread
generates the load; completions are time-stamped in ``Future``
done-callbacks; no BLAS/OMP environment variable is touched.
"""

from __future__ import annotations

import multiprocessing
import os
import platform
import resource
import subprocess
import sys
import threading
import time
from concurrent.futures import wait as wait_futures
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np
import scipy

import repro
from repro import nn
from repro.nn.tensor import Tensor
from repro.serve import DeadlineExceededError, DeploymentSpec, RejectedError

from e2e_trace import clock, percentile, supported
from e2e_workloads import GATE_IMAGES, SAMPLED, OpenTraffic, Workload

#: Pre-timing gate: deployment vs the monolithic eval forward (float32 wire).
GATE_TOLERANCE = 1e-4
#: Sampled requests vs their sequential batch-1 reference (float32 wire).
SAMPLE_TOLERANCE = 1e-5
#: quant8 wire vs a float32-wire twin on the gate images: 2x the first
#: recorded delta (seed 0: 1.72e-6; seeds 0-19 stay below 2.2e-6).
QUANT8_ENVELOPE = 3.44e-6
#: How long the harness waits for outstanding futures before calling a
#: request timed out.  A hang is a failure, not a hang.
DRAIN_TIMEOUT_S = 20.0
#: A non-overload run whose generator ran later than this at the p95 is invalid.
LATE_LIMIT_MS = 5.0

OK, SHED, EXPIRED, ERROR, TIMEOUT, WRONG = 1, 2, 3, 4, 5, 6
STATUS_NAMES = {OK: "completed", SHED: "shed", EXPIRED: "expired",
                ERROR: "errored", TIMEOUT: "timed_out", WRONG: "wrong_output"}


# ----------------------------------------------------------------------
# Deployments, references and gates
# ----------------------------------------------------------------------
def deploy(spec: Dict[str, Any], **overrides):
    return repro.deploy(DeploymentSpec(**{**spec, **overrides}))


@dataclass
class SetupTimes:
    build: float
    warmup: float
    first_infer: float

    @property
    def total(self) -> float:
        return self.build + self.warmup + self.first_infer


def setup_cycle(workload: Workload, first_chunk: np.ndarray):
    """One fresh ``deploy() -> warmup() -> first result`` cycle, timed."""
    t0 = clock()
    dep = deploy(workload.spec)
    t1 = clock()
    dep.warmup(range(1, workload.max_batch_size + 1))
    t2 = clock()
    first = dep.infer(first_chunk)
    t3 = clock()
    return dep, first, SetupTimes(t1 - t0, t2 - t1, t3 - t2)


def monolithic(net, images: np.ndarray) -> Dict[str, np.ndarray]:
    """The unsplit network's eval forward: the reference for the gate."""
    with nn.no_grad():
        outputs = net(Tensor(images))
    return {name: np.asarray(value.data) for name, value in outputs.items()}


def max_abs_delta(got: Dict[str, np.ndarray], want: Dict[str, np.ndarray]) -> float:
    """Largest absolute difference over all task outputs (inf on a
    missing task, a shape mismatch or a non-finite value)."""
    worst = 0.0
    for name, expected in want.items():
        value = got.get(name) if isinstance(got, dict) else None
        if value is None or np.shape(value) != np.shape(expected):
            return float("inf")
        if not np.isfinite(value).all():
            return float("inf")
        worst = max(worst, float(np.max(np.abs(np.asarray(value) - expected))))
    return worst


def infer_chunked(dep, images: np.ndarray, size: int) -> Dict[str, np.ndarray]:
    """``dep.infer`` in warmed batch shapes (a 16-image call would evict
    a warmed plan from the 8-plan LRU before the measurement starts)."""
    parts = [dep.infer(images[i:i + size]) for i in range(0, len(images), size)]
    return {name: np.concatenate([p[name] for p in parts]) for name in parts[0]}


def run_gate(workload: Workload, dep, firsts: Sequence[Dict[str, np.ndarray]],
             gate_images: np.ndarray, notes: List[str]) -> bool:
    """The pre-timing output gate on the 16 seeded images.

    float32 wire: deployment == monolithic net within 1e-4.  quant8
    wire: a float32-wire twin must pass that gate, and the deployment
    must stay within the frozen envelope of the twin.  ``firsts`` are
    the first results of the set-up cycles (the last one from ``dep``):
    each is checked, so ``setup_s`` always ends on a checked result.
    """
    size = workload.max_batch_size
    rest = infer_chunked(dep, gate_images[size:], size)
    got = {name: np.concatenate([firsts[-1][name], rest[name]]) for name in rest}
    float_wire = workload.spec["wire"] == "float32"
    twin = None
    try:
        if getattr(dep, "net", None) is None or not float_wire:
            twin = deploy(workload.spec, wire="float32", replicas=1, cache=None)
        want = monolithic(twin.net if twin is not None else dep.net, gate_images)
        if float_wire:
            reference, limit, versus = want, GATE_TOLERANCE, "monolithic net"
        else:
            reference, limit, versus = infer_chunked(twin, gate_images, size), QUANT8_ENVELOPE, "twin"
            twin_delta = max_abs_delta(reference, want)
            notes.append(f"gate: float32 twin vs monolithic net {twin_delta:.3g} "
                         f"(<= {GATE_TOLERANCE:g})")
            if twin_delta > GATE_TOLERANCE:
                return False
    finally:
        if twin is not None:
            twin.close()
    head = {name: value[:size] for name, value in reference.items()}
    delta = max([max_abs_delta(got, reference)] + [max_abs_delta(f, head) for f in firsts])
    notes.append(f"gate: {GATE_IMAGES} images on the {workload.spec['wire']} wire vs {versus}, "
                 f"max-abs {delta:.3g} (<= {limit:g})")
    return delta <= limit


# ----------------------------------------------------------------------
# Open loop
# ----------------------------------------------------------------------
@dataclass
class OpenLog:
    """Per-request record of one open-loop schedule (absolute clock times).

    Futures are dropped as they resolve: a harness that kept ~40k of
    them alive made the collector's full passes long enough to show up
    as a second mode in the overload p95.  Only the results of ``keep``
    (candidates for the sampled output check) are retained.
    """

    due: np.ndarray
    sent: np.ndarray
    ret: np.ndarray                   # when submit() returned (or raised)
    done: np.ndarray                  # done-callback time, NaN until resolved
    status: np.ndarray                # 0 until resolved, then OK / SHED / ...
    hit: np.ndarray                   # future already resolved when submit returned
    keep: frozenset
    results: Dict[int, Any] = field(default_factory=dict)
    pending: Dict[int, Any] = field(default_factory=dict)
    marks: Dict[float, Dict[str, float]] = field(default_factory=dict)

    def resolved(self, index: int, future) -> None:
        """Done-callback: runs on whichever thread resolved the future."""
        self.done[index] = clock()
        error = future.exception()
        if error is None:
            self.status[index] = OK
            if index in self.keep:
                self.results[index] = future.result()
        else:
            self.status[index] = (
                EXPIRED if isinstance(error, DeadlineExceededError) else ERROR
            )
        self.pending.pop(index, None)

    def drain(self) -> None:
        """Wait (bounded) for everything outstanding; what is still
        pending afterwards has timed out."""
        wait_futures(list(self.pending.values()), timeout=DRAIN_TIMEOUT_S)


def drive_open(
    dep,
    traffic: OpenTraffic,
    mark_at: Sequence[float],
    probe: Callable[[], Dict[str, float]],
    keep: Sequence[int] = (),
    barrier_at: Optional[float] = None,
    on_barrier: Optional[Callable[[], None]] = None,
) -> OpenLog:
    """Send ``traffic`` on its schedule from this thread.

    Each request's latency later runs from the time it was *due*, so a
    generator stall is charged to the requests it delayed.  ``probe()``
    is sampled when the schedule crosses each time in ``mark_at`` (phase
    boundaries: counters read there delimit the windows).  At
    ``barrier_at`` the generator waits for outstanding requests, calls
    ``on_barrier`` (the traced pass installs its wrappers on an idle
    deployment) and resumes the same schedule.
    """
    rel = traffic.due
    count = len(rel)
    log = OpenLog(
        due=np.empty(count), sent=np.empty(count), ret=np.empty(count),
        done=np.full(count, np.nan), status=np.zeros(count, dtype=np.int8),
        hit=np.zeros(count, dtype=bool), keep=frozenset(int(i) for i in keep),
    )
    due, sent, ret, pending = log.due, log.sent, log.ret, log.pending
    pending_marks = sorted(mark_at)
    image_for, submit, sleep = traffic.image_for, dep.submit, time.sleep
    origin = clock() + 0.02
    for index in range(count):
        image = image_for(index)
        offset = rel[index]
        if barrier_at is not None and offset >= barrier_at:
            log.drain()
            on_barrier()
            origin = clock() + 0.005 - barrier_at
            barrier_at = None
        while pending_marks and offset >= pending_marks[0]:
            log.marks[pending_marks.pop(0)] = probe()
        due_at = origin + offset
        delay = due_at - clock()
        if delay > 0:
            sleep(delay)
        due[index] = due_at
        sent[index] = clock()
        try:
            future = submit(image)
        except RejectedError:
            ret[index] = clock()
            log.status[index] = SHED
            continue
        ret[index] = clock()
        log.hit[index] = future.done()
        pending[index] = future                 # before the callback can pop it
        future.add_done_callback(partial(log.resolved, index))
    log.drain()
    log.status[list(pending)] = TIMEOUT
    for mark in pending_marks:
        log.marks[mark] = probe()
    return log


def check_sampled(
    log: OpenLog,
    image_for: Callable[[int], np.ndarray],
    reference: Callable[[np.ndarray], Dict[str, np.ndarray]],
    notes: List[str],
) -> int:
    """Compare 64 completed requests of the window (the first of the
    pre-drawn candidates that completed) with the sequential batch-1
    result for the same image; mark misses WRONG."""
    picked = sorted(log.results)[:SAMPLED]
    worst, wrong = 0.0, 0
    for index in picked:
        want = reference(image_for(index)[None])
        result = log.results[index]
        got = (
            {name: np.asarray(value)[None] for name, value in result.items()}
            if isinstance(result, dict) else None
        )
        delta = max_abs_delta(got, want)
        worst = max(worst, delta)
        if delta > SAMPLE_TOLERANCE:
            log.status[index] = WRONG
            wrong += 1
    notes.append(
        f"sampled: {len(picked)} requests vs sequential batch-1, max-abs {worst:.3g} "
        f"(<= {SAMPLE_TOLERANCE:g}), {wrong} wrong"
    )
    return wrong


def check_ledger(dep, log: OpenLog, notes: List[str]) -> bool:
    """``sent == completed + shed + expired + failed`` on the harness's
    side, and the same partition in ``Deployment.batching_stats``."""
    counts = {code: int(np.sum(log.status == code)) for code in STATUS_NAMES}
    sent = len(log.status)
    mine = sent == sum(counts.values())
    stats = dep.batching_stats
    resolved = counts[OK] + counts[WRONG]            # a wrong output still resolved
    theirs = (
        stats.submitted == sent
        and stats.shed == counts[SHED]
        and stats.expired == counts[EXPIRED]
        and stats.submitted == stats.shed + stats.cache_hits + stats.requests
        and stats.requests == stats.completed + stats.expired + stats.failed + stats.cancelled
        and stats.completed + stats.cache_hits + stats.failed
        == resolved + counts[ERROR] + counts[TIMEOUT]
    )
    notes.append(
        "ledger: sent %d = %s; batching_stats submitted=%d shed=%d cache_hits=%d "
        "completed=%d expired=%d failed=%d -> %s"
        % (sent, " + ".join(f"{STATUS_NAMES[c]} {n}" for c, n in counts.items()),
           stats.submitted, stats.shed, stats.cache_hits, stats.completed,
           stats.expired, stats.failed, "balanced" if mine and theirs else "BROKEN")
    )
    return mine and theirs


# ----------------------------------------------------------------------
# Closed loop
# ----------------------------------------------------------------------
@dataclass
class Call:
    phase: str
    start: float
    end: float
    images: int
    index: int
    output: Any


def drive_closed(
    call: Callable[[int, bool], Tuple[int, Any]],
    phases: Sequence[Tuple[str, float]],
    probe: Callable[[], Dict[str, float]],
    marks: Dict[Tuple[str, int], Dict[str, float]],
    traced_from: Optional[int] = None,
    on_barrier: Optional[Callable[[], None]] = None,
) -> List[Call]:
    """One caller, back to back: ``call(k, traced)`` runs the k-th
    operation and returns ``(images, output)``.  Phases follow each
    other without a gap; the wrappers go in before ``traced_from``.
    ``probe()`` is sampled into ``marks`` at both ends of every phase."""
    calls: List[Call] = []
    index = 0
    for number, (phase, seconds) in enumerate(phases):
        traced = traced_from is not None and number >= traced_from
        if number == traced_from and on_barrier is not None:
            on_barrier()
        marks[(phase, 0)] = probe()
        until = clock() + seconds
        while clock() < until:
            start = clock()
            images, output = call(index, traced)
            calls.append(Call(phase, start, clock(), images, index, output))
            index += 1
        marks[(phase, 1)] = probe()
    return calls


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def metric(value: Optional[float], unit: str, n: Optional[int] = None) -> Dict[str, Any]:
    entry: Dict[str, Any] = {"value": None if value is None else float(value), "unit": unit}
    if n is not None:
        entry["n"] = int(n)
    return entry


def latency_metrics(latencies_ms: Sequence[float], notes: List[str], label: str) -> Dict[str, Any]:
    count = len(latencies_ms)
    if not supported(count, 95.0):
        notes.append(f"{label}: p95 over {count} samples has fewer than ten beyond it")
    return {
        "p50_ms": metric(percentile(latencies_ms, 50.0), "ms", count),
        "p95_ms": metric(percentile(latencies_ms, 95.0, strict=False), "ms", count),
    }


def open_window(traffic: OpenTraffic, low: float, high: float) -> np.ndarray:
    return np.nonzero((traffic.due >= low) & (traffic.due < high))[0]


def open_end_to_end(
    log: OpenLog, window: np.ndarray, notes: List[str], label: str
) -> Dict[str, Any]:
    ok = window[log.status[window] == OK]
    latencies = (log.done[ok] - log.due[ok]) * 1e3
    # Completions over the interval they actually took (the window's
    # requests resolve a queue wait later than they were due).
    rate = len(ok) / (log.done[ok].max() - log.done[ok].min()) if len(ok) > 1 else 0.0
    out = latency_metrics(latencies.tolist(), notes, label)
    out["completed_rps"] = metric(rate, "1/s", len(ok))
    out["images_per_s"] = metric(rate, "1/s", len(ok))
    out["ok_share"] = metric(len(ok) / max(len(window), 1), "fraction", len(window))
    return out


def closed_end_to_end(calls: Sequence[Call], good: int, notes: List[str], label: str) -> Dict[str, Any]:
    """``completed_rps`` counts calls, ``images_per_s`` the images they carried."""
    elapsed = calls[-1].end - calls[0].start
    latencies = [(c.end - c.start) * 1e3 for c in calls]
    out = latency_metrics(latencies, notes, label)
    out["completed_rps"] = metric(good / elapsed, "1/s", len(calls))
    out["images_per_s"] = metric(
        sum(c.images for c in calls) * (good / len(calls)) / elapsed, "1/s", len(calls)
    )
    out["ok_share"] = metric(good / len(calls), "fraction", len(calls))
    return out


def wire_bytes_per_image(traces: Sequence[Any]) -> Optional[float]:
    images = sum(t.batch_size for t in traces)
    return sum(t.payload_bytes for t in traces) / images if images else None


# ----------------------------------------------------------------------
# Process hygiene and the host stamp
# ----------------------------------------------------------------------
def peak_rss_mib(replica_pids: Sequence[int] = ()) -> float:
    """This process's high-water RSS plus each live replica's (VmHWM)."""
    total = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for pid in replica_pids:
        try:
            status = Path(f"/proc/{pid}/status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                total += int(line.split()[1]) / 1024.0
    return total


def leftovers(grace_s: float = 2.0) -> List[str]:
    """Names of ``repro-serve-*`` threads or replica processes that
    outlived their deployment (empty when the process is clean)."""
    deadline = clock() + grace_s
    while True:
        names = [t.name for t in threading.enumerate() if t.name.startswith("repro-serve")]
        names += [p.name for p in multiprocessing.active_children()]
        if not names or clock() >= deadline:
            return names
        time.sleep(0.05)


def host_stamp(root: Path) -> Dict[str, Any]:
    commit = "unknown"
    if (root / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "env": {
            name: os.environ.get(name)
            for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "git_commit": commit,
        "argv": sys.argv[1:],
    }

