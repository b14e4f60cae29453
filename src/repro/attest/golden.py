"""The checked-in golden registry: record and verify attestations.

Goldens live at ``src/repro/scenarios/golden/<scenario>.json``, one
canonical-JSON attestation per scenario, committed to the repository.
``repro attest record`` writes them; ``repro attest verify`` recomputes
every attestation and diffs digest-by-digest, naming the first divergent
step (see :func:`~repro.attest.attestation.first_divergence`).

Recording policy mirrors the scenario tiers:

* **quick** tier — recorded and CI-gated on every PR (small inputs,
  seconds to verify);
* **hires** tier — recorded but ``host_gated``: large GEMMs may
  dispatch different BLAS kernels across CPU microarchitectures, so
  these verify on demand (``--host-gated``), not in CI.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

from ..scenarios import available_scenarios, get_scenario
from .attestation import (
    Attestation,
    AttestationError,
    attest_scenario,
    first_divergence,
)

__all__ = [
    "GOLDEN_DIR",
    "VerifyResult",
    "golden_path",
    "list_goldens",
    "load_golden",
    "record_goldens",
    "save_golden",
    "verify_goldens",
]

#: Where the committed goldens live (inside the package so installed
#: checkouts and editable ones agree).
GOLDEN_DIR = Path(__file__).resolve().parent.parent / "scenarios" / "golden"

#: The tiers ``record``/``verify`` cover by default.  ``mid`` is left
#: out of the defaults (its ``"auto"`` split resolves through the
#: latency optimizer's device model — deterministic, but a device-table
#: retune would churn every mid golden); it can still be attested
#: explicitly via ``--scenario``.
RECORD_TIERS = ("quick", "hires")


def golden_path(name: str, golden_dir: Optional[Path] = None) -> Path:
    return (golden_dir or GOLDEN_DIR) / f"{name}.json"


def list_goldens(golden_dir: Optional[Path] = None) -> List[str]:
    """Scenario names with a committed golden, sorted."""
    directory = golden_dir or GOLDEN_DIR
    if not directory.is_dir():
        return []
    return sorted(path.stem for path in directory.glob("*.json"))


def load_golden(name: str, golden_dir: Optional[Path] = None) -> Attestation:
    path = golden_path(name, golden_dir)
    if not path.is_file():
        raise AttestationError(
            f"no golden recorded for scenario {name!r} "
            f"(looked at {path}); run `repro attest record`"
        )
    return Attestation.from_dict(json.loads(path.read_text()))


def save_golden(
    attestation: Attestation, golden_dir: Optional[Path] = None
) -> Path:
    """Write one attestation as pretty, sorted, newline-terminated JSON."""
    directory = golden_dir or GOLDEN_DIR
    directory.mkdir(parents=True, exist_ok=True)
    path = golden_path(attestation.scenario, directory)
    text = json.dumps(attestation.to_dict(), sort_keys=True, indent=2)
    path.write_text(text + "\n")
    return path


def _default_names(tiers: Sequence[str]) -> List[str]:
    names: List[str] = []
    for tier in tiers:
        names.extend(available_scenarios(tier))
    return names


@dataclass
class VerifyResult:
    """The outcome of one record/verify sweep."""

    checked: List[str] = field(default_factory=list)
    recorded: List[str] = field(default_factory=list)
    skipped: List[Tuple[str, str]] = field(default_factory=list)  # (name, why)
    divergences: List[Tuple[str, str]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.divergences

    def describe(self) -> str:
        lines: List[str] = []
        for name in self.recorded:
            lines.append(f"recorded {name}")
        for name in self.checked:
            lines.append(f"ok       {name}")
        for name, why in self.skipped:
            lines.append(f"skipped  {name}: {why}")
        for name, why in self.divergences:
            lines.append(f"DIVERGED {name}: {why}")
        tail = "all attestations match" if self.ok else (
            f"{len(self.divergences)} attestation(s) diverged"
        )
        lines.append(tail)
        return "\n".join(lines)


def record_goldens(
    names: Optional[Sequence[str]] = None,
    update: bool = False,
    golden_dir: Optional[Path] = None,
) -> VerifyResult:
    """Record goldens for ``names`` (default: quick + hires tiers).

    Existing goldens are left untouched unless ``update`` is set —
    regenerating a golden is a reviewed, deliberate act (see
    ``docs/benchmarking.md``), not a side effect.
    """
    result = VerifyResult()
    for name in names or _default_names(RECORD_TIERS):
        scenario = get_scenario(name)
        path = golden_path(name, golden_dir)
        if path.is_file() and not update:
            result.skipped.append((name, "golden exists (use --update)"))
            continue
        save_golden(attest_scenario(scenario), golden_dir)
        result.recorded.append(name)
    return result


def verify_goldens(
    names: Optional[Sequence[str]] = None,
    host_gated: bool = False,
    golden_dir: Optional[Path] = None,
) -> VerifyResult:
    """Recompute and diff attestations against the committed goldens.

    Default scope is every committed golden that is *not* host-gated
    (the CI contract); ``host_gated=True`` widens to all of them.  A
    scenario without a golden is a divergence, not a skip — CI must fail
    when a new quick-tier scenario lands unrecorded.
    """
    result = VerifyResult()
    if names is None:
        names = list(
            dict.fromkeys(available_scenarios("quick") + list_goldens(golden_dir))
        )
    for name in names:
        scenario = get_scenario(name)
        try:
            golden = load_golden(name, golden_dir)
        except AttestationError as error:
            # A missing golden is a divergence: CI must fail when a new
            # quick scenario lands unrecorded.
            result.divergences.append((name, str(error)))
            continue
        if golden.host_gated and not host_gated:
            result.skipped.append(
                (name, "host-gated tier (verify with --host-gated)")
            )
            continue
        divergence = first_divergence(golden, attest_scenario(scenario))
        if divergence is None:
            result.checked.append(name)
        else:
            result.divergences.append((name, divergence))
    return result
