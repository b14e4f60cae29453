"""Attesting one scenario: deterministic digests over its whole run.

:func:`attest_scenario` deploys a scenario exactly as the runner does,
then reduces the run to SHA-256 digests at three levels:

* ``spec_digest`` — the serialised :class:`~repro.serve.spec.DeploymentSpec`;
* ``plan_digest`` — the timing-free optimized plan-IR text of *both*
  halves plus the resolved split index (see
  :meth:`~repro.serve.deployment.Deployment.provenance`); the full text
  is kept alongside so a mismatch names the first divergent step;
* ``output_digests`` — one canonical tensor digest per (task, batch) of
  the scenario's deterministic synthetic traffic.

Policy — what is *not* attestable
---------------------------------
Attestation is an **exact** gate, so it only covers configurations whose
numerics are a pure function of the spec:

* cache-enabled specs are excluded: attestation must digest the compute
  path itself; a response-cache hit would attest the cache, not the
  pipeline (and the serve cache already carries its own provenance
  keys, see :mod:`repro.serve.cache`).

These raise :class:`AttestationPolicyError` naming the rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import zip_longest
from typing import Any, Dict, List, Optional

from ..scenarios.spec import Scenario
from .canonical import env_stamp, tensor_digest

__all__ = [
    "Attestation",
    "AttestationError",
    "AttestationPolicyError",
    "attest_scenario",
    "first_divergence",
]

FORMAT = "repro-attest-v1"


class AttestationError(Exception):
    """Malformed attestation data or an unknown golden."""


class AttestationPolicyError(AttestationError):
    """The configuration is excluded from exact attestation by policy."""


@dataclass(frozen=True)
class Attestation:
    """The digest record of one scenario run.

    ``plan_ir`` holds the full timing-free plan text (stored as lines in
    the JSON form so golden diffs stay readable); ``env`` is the
    informational host stamp — compared never, recorded always.
    ``host_gated`` marks tiers whose output digests may legitimately
    move across CPU microarchitectures (BLAS kernel dispatch): CI only
    gates non-host-gated attestations.
    """

    scenario: str
    tier: str
    host_gated: bool
    spec_digest: str
    plan_digest: str
    plan_ir: str
    output_digests: Dict[str, List[str]]
    env: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "format": FORMAT,
            "scenario": self.scenario,
            "tier": self.tier,
            "host_gated": self.host_gated,
            "spec_digest": self.spec_digest,
            "plan_digest": self.plan_digest,
            "plan_ir": self.plan_ir.splitlines(),
            "output_digests": {
                task: list(digests)
                for task, digests in sorted(self.output_digests.items())
            },
            "env": dict(self.env),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Attestation":
        if data.get("format") != FORMAT:
            raise AttestationError(
                f"unknown attestation format {data.get('format')!r} "
                f"(expected {FORMAT!r})"
            )
        return cls(
            scenario=data["scenario"],
            tier=data["tier"],
            host_gated=bool(data["host_gated"]),
            spec_digest=data["spec_digest"],
            plan_digest=data["plan_digest"],
            plan_ir="\n".join(data["plan_ir"]),
            output_digests={
                task: list(digests)
                for task, digests in data["output_digests"].items()
            },
            env=dict(data.get("env", {})),
        )


def check_attestable(spec) -> None:
    """Raise :class:`AttestationPolicyError` for non-attestable specs."""
    if spec.cache is not None and spec.cache.enabled:
        raise AttestationPolicyError(
            "cache-enabled specs are excluded from exact attestation: a "
            "response-cache hit would attest the cache, not the compute "
            "path.  Attest with cache=None (the serve cache carries its "
            "own provenance keys)."
        )


def attest_scenario(scenario: Scenario, **spec_overrides) -> Attestation:
    """Run ``scenario``'s deterministic traffic and digest everything.

    ``spec_overrides`` are forwarded to
    :meth:`~repro.scenarios.spec.Scenario.deployment_spec` (the same
    hook the scenario runner exposes); the resulting spec must pass
    :func:`check_attestable`.
    """
    from ..serve.deployment import deploy

    spec = scenario.deployment_spec(**spec_overrides)
    check_attestable(spec)
    with deploy(spec) as deployment:
        spec_digest, plan_digest = deployment.provenance()
        plan_ir = deployment.plan_text()
        outputs = [deployment.infer(batch) for batch in scenario.iter_batches()]
    tasks = sorted(outputs[0]) if outputs else []
    output_digests = {
        task: [tensor_digest(batch[task]) for batch in outputs] for task in tasks
    }
    return Attestation(
        scenario=scenario.name,
        tier=scenario.tier,
        host_gated=scenario.tier != "quick",
        spec_digest=spec_digest,
        plan_digest=plan_digest,
        plan_ir=plan_ir,
        output_digests=output_digests,
        env=env_stamp(),
    )


def first_divergence(golden: Attestation, fresh: Attestation) -> Optional[str]:
    """Name the first place two attestations disagree (``None`` if none).

    Ordered by causality: a spec change explains everything downstream,
    a plan change explains output changes, so the earliest layer that
    moved is the one named.  Plan divergence is narrowed to the first
    differing line of the stored plan-IR text — the step line carries
    the kind, label, shapes and content digests, which is normally
    enough to see *which weight or pass* moved.
    """
    if golden.spec_digest != fresh.spec_digest:
        return (
            f"spec digest changed: {golden.spec_digest[:16]} -> "
            f"{fresh.spec_digest[:16]} (the deployment spec itself differs)"
        )
    if golden.plan_digest != fresh.plan_digest:
        golden_lines = golden.plan_ir.splitlines()
        fresh_lines = fresh.plan_ir.splitlines()
        for index, (a, b) in enumerate(zip_longest(golden_lines, fresh_lines)):
            if a != b:
                return (
                    f"plan digest changed; first divergent step "
                    f"(plan line {index}):\n  golden:  {a!r}\n  current: {b!r}"
                )
        return (
            "plan digest changed but the stored plan text matches — the "
            "split index or a non-step provenance part moved"
        )
    for task in sorted(set(golden.output_digests) | set(fresh.output_digests)):
        golden_digests = golden.output_digests.get(task)
        fresh_digests = fresh.output_digests.get(task)
        if golden_digests is None or fresh_digests is None:
            missing = "golden" if golden_digests is None else "current"
            return f"task {task!r} is absent from the {missing} attestation"
        for batch, (a, b) in enumerate(zip_longest(golden_digests, fresh_digests)):
            if a != b:
                return (
                    f"output digest changed at task {task!r}, batch {batch}: "
                    f"{(a or '<missing>')[:16]} -> {(b or '<missing>')[:16]} "
                    "(plan and spec digests match: same program, different "
                    "bits — suspect kernel dispatch or an unattested input)"
                )
    return None
