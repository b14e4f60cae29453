"""Name-based registry for workload scenarios + the curated matrix.

The built-in matrix covers every backbone family at every tier, from the
32px quick scale the paper tables run at up to the 224px
high-resolution tier — the regime where wire format and split placement
actually matter, and where every depthwise step runs the engine's
row-vector kernel (at the quick tier's batch 16 per-plane CSR is kept).

Tier conventions in the curated matrix:

===========  ======  =========  ========  ===============  ==================
tier         pixels  batch      wire      channel          split policy
===========  ======  =========  ========  ===============  ==================
``quick``    32      4 x 16     float32   gigabit          backbone/heads
``mid``      64      3 x 8      float16   wifi             ``"auto"`` (optimal)
``hires``    224     3 x 2      quant8    LTE uplink       backbone/heads
===========  ======  =========  ========  ===============  ==================

The hires tier keeps the whole backbone on the edge (the paper's
default cut) so the large-input conv stack — the part the SpMM blocking
and arena sizing were built for — stays on the measured critical path.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .spec import Scenario, ScenarioError

__all__ = [
    "BACKBONE_FAMILIES",
    "available_scenarios",
    "get_scenario",
    "register_scenario",
    "scenario_matrix",
]

#: Backbone family -> training-scale registry backbone used by the
#: curated matrix (the full-scale variants exist in the model registry,
#: but the matrix must stay runnable on the 1-core CI host).
BACKBONE_FAMILIES: Dict[str, str] = {
    "mobilenetv3": "mobilenet_v3_tiny",
    "efficientnet": "efficientnet_tiny",
    "vgg": "vgg_tiny",
}

_SCENARIOS: Dict[str, Scenario] = {}


def register_scenario(scenario: Scenario) -> Scenario:
    """Register ``scenario`` under its name (duplicate names rejected)."""
    if scenario.name in _SCENARIOS:
        raise ScenarioError(
            f"scenario {scenario.name!r} is already registered; "
            "pick a distinct name or use Scenario.replace(name=...)"
        )
    _SCENARIOS[scenario.name] = scenario
    return scenario


def get_scenario(name: str) -> Scenario:
    """Return the registered scenario for ``name``.

    Raises :class:`ScenarioError` naming the known scenarios when
    unknown.
    """
    try:
        return _SCENARIOS[name]
    except KeyError:
        raise ScenarioError(
            f"unknown scenario {name!r}; available: {available_scenarios()}"
        ) from None


def available_scenarios(tier: Optional[str] = None) -> List[str]:
    """Sorted scenario names, optionally restricted to one tier."""
    return sorted(
        name
        for name, scenario in _SCENARIOS.items()
        if tier is None or scenario.tier == tier
    )


def scenario_matrix(tier: Optional[str] = None) -> List[Scenario]:
    """The registered scenarios (optionally one tier), sorted by
    ``(tier-scale, family, name)`` so listings read small-to-large."""
    order = {"quick": 0, "mid": 1, "hires": 2}
    return sorted(
        (s for s in _SCENARIOS.values() if tier is None or s.tier == tier),
        key=lambda s: (order.get(s.tier, 99), s.input_size, s.backbone, s.name),
    )


# ---------------------------------------------------------------------------
# The curated built-in matrix: every family x every tier.
# ---------------------------------------------------------------------------
_TIER_SETTINGS = {
    # tier: (input_size, batch_size, batches, wire, channel, split_index)
    "quick": (32, 16, 4, "float32", "gigabit_ethernet", None),
    "mid": (64, 8, 3, "float16", "wifi_5", "auto"),
    "hires": (224, 2, 3, "quant8", "lte_uplink", None),
}

_TIER_BLURBS = {
    "quick": "paper-table scale; the regime every accuracy benchmark runs at",
    "mid": "intermediate scale with the latency-optimal cut chosen per channel",
    "hires": "high-resolution tier: large Z_b payloads, row-vector depthwise regime",
}

for _family, _backbone in BACKBONE_FAMILIES.items():
    for _tier, (_px, _bs, _nb, _wire, _channel, _split) in _TIER_SETTINGS.items():
        register_scenario(
            Scenario(
                name=f"{_family}_{_tier}_{_px}px",
                backbone=_backbone,
                tier=_tier,
                input_size=_px,
                batch_size=_bs,
                batches=_nb,
                split_index=_split,
                wire=_wire,
                channel=_channel,
                description=f"{_family} at {_px}px — {_TIER_BLURBS[_tier]}",
            )
        )
