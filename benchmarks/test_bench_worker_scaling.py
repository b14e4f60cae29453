"""Worker scaling of the arena-planned edge stage (repro.nn.engine).

PR 1's pipeline benchmark identified the edge stage as the critical path;
this benchmark records how the planned engine's batch-sharded executor
behaves as ``num_workers`` grows on this host.  The artifact records the
host's core count so the curve can be read honestly (``csr_matvecs``
holds the interpreter lock, so only the BLAS share of a shard overlaps).
It also records the headline planned-vs-unplanned edge speedup that the
engine delivers independent of threading.
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro import data
from repro.core import MTLSplitNet
from repro.nn import engine

from _bench_utils import emit, session_stamp

_BATCH_SIZE = 16
_WORKER_COUNTS = (1, 2, 4)
_REPEATS = 20


def _best_of(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_edge_worker_scaling(benchmark, results_dir):
    dataset = data.make_shapes3d(64, tasks=("scale", "shape"), seed=41)
    net = MTLSplitNet.from_tasks("mobilenet_v3_tiny", list(dataset.tasks), 32, seed=41)
    net.eval()
    edge_model, _ = net.split(None, input_size=32)
    session = edge_model.compile_for_inference()
    x = dataset.images[:_BATCH_SIZE]
    reference = session.run(x)

    def run():
        rows = {}
        # Unplanned compiled session (the PR 1 execution mode).
        for _ in range(3):
            session.run(x)
        rows["unplanned"] = _best_of(lambda: session.run(x), _REPEATS)
        for workers in _WORKER_COUNTS:
            executor = engine.PlannedExecutor(session, num_workers=workers)
            np.testing.assert_allclose(executor.run(x), reference, atol=1e-6)
            for _ in range(3):
                executor.run(x)
            rows[workers] = _best_of(lambda: executor.run(x), _REPEATS)
            executor.close()
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    unplanned_ms = rows["unplanned"] * 1e3
    single_ms = rows[1] * 1e3
    lines = [
        f"edge half (mobilenet_v3_tiny @32px), batch {_BATCH_SIZE}, "
        f"{os.cpu_count()} cpu core(s) on this host",
        f"  unplanned fused session: {unplanned_ms:8.3f} ms/batch",
    ]
    payload = {
        # Bare engine session below the serve layer, so no DeploymentSpec:
        # spec_digest is empty by contract (docs/benchmarking.md).
        **session_stamp(session, x.shape, header="mobilenet_v3_tiny@32 edge"),
        "cpu_count": os.cpu_count(),
        "batch_size": _BATCH_SIZE,
        "unplanned_ms": unplanned_ms,
        "planned_speedup": unplanned_ms / single_ms,
        "workers": {},
    }
    for workers in _WORKER_COUNTS:
        ms = rows[workers] * 1e3
        payload["workers"][str(workers)] = {
            "edge_ms_per_batch": ms,
            "speedup_vs_one_worker": single_ms / ms,
        }
        lines.append(
            f"  planned, {workers} worker(s):   {ms:8.3f} ms/batch "
            f"({single_ms / ms:4.2f}x vs 1 worker, "
            f"{unplanned_ms / ms:4.2f}x vs unplanned)"
        )
    emit(results_dir, "edge_worker_scaling", "\n".join(lines), data=payload)

    # The planned engine must beat the unplanned session; the 1.2x headroom
    # keeps shared-runner timing noise from flaking the CI slow lane.
    assert rows[1] < rows["unplanned"] * 1.2
