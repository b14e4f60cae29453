"""Helpers shared by the benchmark modules (kept out of conftest so the
module can be imported explicitly without clashing with tests/conftest)."""

from __future__ import annotations

import json
import os
import platform
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

RESULTS_DIR = Path(__file__).parent / "results"


def host_record() -> dict:
    """Hardware/software facts every benchmark artifact must carry.

    Host speed drifts between sessions (the same code has measured 2-7x
    apart across runs of this suite), so cross-session latency deltas
    are meaningless; artifacts record the host so readers can tell which
    numbers are comparable, and benchmarks that claim speedups must
    re-measure their baseline in the same run.
    """
    import numpy
    import scipy

    from repro.nn.engine import blas_threads, fan_out_width

    return {
        "cpu_count": os.cpu_count(),
        # How the cores were used when this was stamped (after the run:
        # a deployment pins BLAS to one thread at build, see
        # docs/architecture.md "How a batch executes"): the widest
        # in-process OpenBLAS pool, and the threads a hires batch's
        # per-image plans fan out over on this host.
        "blas_threads": blas_threads(),
        "fan_out": fan_out_width(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
    }


@dataclass(frozen=True)
class BenchScale:
    """Dataset / training sizes for one benchmark scale."""

    name: str
    samples: int
    epochs: int
    finetune_epochs: int
    batch_size: int
    lr: float


# lr 6e-3 is the calibrated setting where joint training stays stable on
# every backbone (1e-2 can collapse the hard 8-way size task under MTL).
SCALES = {
    "quick": BenchScale("quick", samples=1300, epochs=6, finetune_epochs=6,
                        batch_size=64, lr=6e-3),
    "full": BenchScale("full", samples=4000, epochs=10, finetune_epochs=8,
                       batch_size=64, lr=6e-3),
}


def current_scale() -> BenchScale:
    name = os.environ.get("REPRO_BENCH_SCALE", "quick")
    if name not in SCALES:
        raise ValueError(f"REPRO_BENCH_SCALE must be one of {sorted(SCALES)}")
    return SCALES[name]


def provenance_stamp(deployment) -> dict:
    """``spec_digest``/``plan_digest`` of a live deployment, as the two
    payload keys every ``BENCH_*.json`` must carry (docs/benchmarking.md:
    a latency number without the digests of the program that produced it
    is not reproducible evidence)."""
    spec_digest, plan_digest = deployment.provenance()
    return {"spec_digest": spec_digest, "plan_digest": plan_digest}


def spec_stamp(spec) -> dict:
    """Stamp for benches that hand their :class:`DeploymentSpec` to a
    driver and never hold the deployment themselves: a throwaway
    deployment computes the provenance (seeded model build + pure IR
    work, no traffic)."""
    from repro.serve import deploy

    with deploy(spec) as deployment:
        return provenance_stamp(deployment)


def pipeline_stamp(pipeline, batch_shape, split_index=None) -> dict:
    """Stamp for a raw :class:`SplitPipeline` built from an in-memory
    (trained) net.  No ``DeploymentSpec`` exists behind these benches, so
    ``spec_digest`` is empty by contract; the plan digest still covers
    both halves' optimized plan IR for ``batch_shape``."""
    from repro.serve.cache.keys import provenance_digest

    edge_text = pipeline.edge.plan_provenance(tuple(batch_shape))
    z_shape = pipeline.edge.output_shape(tuple(batch_shape))
    server_text = pipeline.server.plan_provenance(z_shape)
    parts = [f"split:{split_index}", edge_text, server_text]
    return {"spec_digest": "", "plan_digest": provenance_digest(parts)}


def combined_stamp(stamps: dict) -> dict:
    """Fold per-row stamps into one top-level digest pair for matrix
    benches (scenario sweeps): any row's program changing changes the
    artifact's headline digests."""
    from repro.serve.cache.keys import provenance_digest

    spec_parts = [f"{name}:{stamps[name]['spec_digest']}" for name in sorted(stamps)]
    plan_parts = [f"{name}:{stamps[name]['plan_digest']}" for name in sorted(stamps)]
    return {
        "spec_digest": provenance_digest(spec_parts),
        "plan_digest": provenance_digest(plan_parts),
    }


def emit(results_dir: Path, name: str, text: str, data: Optional[dict] = None) -> None:
    """Print a result block and persist it under benchmarks/results/.

    When ``data`` is given, a machine-readable ``BENCH_<name>.json`` is
    written alongside the text block so successive PRs can diff the perf
    trajectory without parsing the prose.
    """
    banner = f"\n===== {name} =====\n{text}\n"
    print(banner)
    (results_dir / f"{name}.txt").write_text(text + "\n")
    if data is not None:
        payload = {
            "benchmark": name,
            "scale": current_scale().name,
            "host": host_record(),
            **data,
        }
        (results_dir / f"BENCH_{name}.json").write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n"
        )
