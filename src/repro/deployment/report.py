"""Formatted deployment reports (the shapes of Table 4 and Sec. 4.2)."""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from ..models.registry import get_spec
from .paradigms import ParadigmReport
from .profiler import profile_backbone
from .runtime import ThroughputReport

__all__ = [
    "table4_rows",
    "render_table4",
    "render_paradigm_comparison",
    "render_throughput",
]

_MB = 1024 * 1024


def table4_rows(
    backbone_names: Sequence[str],
    input_size: Optional[int] = None,
    batch_size: int = 1,
) -> Dict[str, Dict[str, float]]:
    """Compute the six columns of the paper's Table 4 for each backbone.

    Keys mirror the paper's column headers: parameter count/size of the
    backbone ``M_b``, forward/backward activation memory, the estimated
    total, and the element count/wire size of ``Z_b``.
    """
    rows: Dict[str, Dict[str, float]] = {}
    for name in backbone_names:
        profile = profile_backbone(get_spec(name), input_size=input_size, batch_size=batch_size)
        rows[name] = {
            "params_millions": profile.params / 1e6,
            "params_mb": profile.params_megabytes,
            "forward_backward_mb": profile.forward_backward_megabytes,
            "estimated_mb": profile.estimated_megabytes,
            "zb_kilo_elements": profile.zb_elements / 1e3,
            "zb_mb": profile.zb_megabytes,
        }
    return rows


def render_table4(
    rows: Dict[str, Dict[str, float]],
    reference: Optional[Dict[str, Dict[str, float]]] = None,
) -> str:
    """Render Table 4 rows (optionally interleaving paper reference rows)."""
    header = (
        f"{'Model':<24}{'Mb #params (M)':>16}{'Mb size (MB)':>14}"
        f"{'Fwd/bwd (MB)':>14}{'Est. size (MB)':>16}{'Zb #elem (K)':>14}{'Zb size (MB)':>14}"
    )
    lines = [header, "-" * len(header)]
    for name, row in rows.items():
        lines.append(
            f"{name:<24}{row['params_millions']:>16.2f}{row['params_mb']:>14.2f}"
            f"{row['forward_backward_mb']:>14.2f}{row['estimated_mb']:>16.2f}"
            f"{row['zb_kilo_elements']:>14.1f}{row['zb_mb']:>14.3f}"
        )
        if reference and name in reference:
            ref = reference[name]
            lines.append(
                f"{'  (paper reports)':<24}{ref['params_millions']:>16.2f}{ref['params_mb']:>14.2f}"
                f"{ref['forward_backward_mb']:>14.2f}{ref['estimated_mb']:>16.2f}"
                f"{ref['zb_kilo_elements']:>14.1f}{ref['zb_mb']:>14.3f}"
            )
    return "\n".join(lines)


def render_paradigm_comparison(reports: Dict[str, ParadigmReport]) -> str:
    """Render a LoC / RoC / SC comparison block."""
    order = ["loc", "loc_shared", "roc", "sc"]
    blocks = [reports[key].summary() for key in order if key in reports]
    return "\n".join(blocks)


def render_throughput(report: ThroughputReport) -> str:
    """Render an overlapped-pipeline throughput report."""
    util = report.stage_utilisation
    lines = [
        f"{report.batches} batches / {report.images} images",
        f"  serial (sum of stages): {report.serial_seconds * 1e3:8.2f} ms",
        f"  pipelined makespan:     {report.pipelined_seconds * 1e3:8.2f} ms "
        f"({report.overlap_speedup:.2f}x overlap speedup)",
        f"  measured wall:          {report.wall_seconds * 1e3:8.2f} ms "
        "(transfer modelled, not slept)",
        f"  throughput:             {report.batches_per_second:8.1f} batches/s "
        f"({report.images_per_second:.0f} images/s)",
        "  stage busy / utilisation:",
    ]
    busy = {
        "edge": report.edge_seconds,
        "transfer": report.transfer_seconds,
        "server": report.server_seconds,
    }
    for stage, seconds in busy.items():
        marker = "  <- critical path" if stage == report.critical_stage else ""
        lines.append(
            f"    {stage:<9} {seconds * 1e3:8.2f} ms  ({util[stage]:5.1%}){marker}"
        )
    if report.arena_bytes:
        lines.append(
            f"  engine: {report.arena_bytes / 1024:.0f} KiB arena preallocated, "
            f"{report.steady_state_allocs} allocs/batch steady-state"
        )
        lines.append(
            f"  optimizer: {report.fused_steps} fused epilogue step(s), "
            f"{report.elided_copies} copy(ies) elided (in-place acts), "
            f"{report.aliased_views} view(s) aliased, "
            f"{report.spmm_row_blocks} SpMM row block(s)"
        )
    return "\n".join(lines)
