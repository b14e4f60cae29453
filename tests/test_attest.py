"""Golden-digest attestation (repro.attest).

Three layers under test:

* the canonical forms — :func:`canonical_bytes` digests must be a pure
  function of (dtype, shape, values), independent of memory layout, and
  distinct across dtype/shape reinterpretations (hypothesis);
* :func:`attest_scenario` — digests are stable across processes (a
  fresh subprocess reproduces them bit-for-bit), the committed goldens
  match this checkout, the optimizer is bit-exact on the quick tier,
  and a single perturbed weight is caught *naming the divergent step*;
* the policy — cache-enabled specs are excluded with a named error.

Everything here runs on the quick tier (one attestation ~0.5 s); the
hires goldens are host-gated and exercised only via ``--host-gated``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.attest import (
    Attestation,
    AttestationError,
    AttestationPolicyError,
    attest_scenario,
    canonical_bytes,
    canonical_json,
    check_attestable,
    first_divergence,
    list_goldens,
    load_golden,
    record_goldens,
    save_golden,
    tensor_digest,
    verify_goldens,
)
from repro.scenarios import available_scenarios, get_scenario
from repro.serve import DeploymentSpec
from repro.serve.runtime import ThroughputReport

QUICK = "mobilenetv3_quick_32px"

_arrays = hnp.arrays(
    dtype=st.sampled_from([np.float32, np.float64]),
    shape=hnp.array_shapes(min_dims=1, max_dims=3, max_side=4),
    elements=st.floats(-8, 8, width=32).map(float),
)


# ---------------------------------------------------------------------------
# canonical forms
# ---------------------------------------------------------------------------

@settings(max_examples=50, deadline=None)
@given(_arrays)
def test_canonical_bytes_layout_invariant(array):
    """The digest is a function of the logical array, not its memory
    layout: a Fortran-ordered copy and a strided-then-materialised view
    digest identically."""
    reference = tensor_digest(array)
    assert tensor_digest(np.asfortranarray(array)) == reference
    padded = np.zeros((2,) + array.shape, dtype=array.dtype)
    padded[0] = array
    assert tensor_digest(padded[0]) == reference


@settings(max_examples=50, deadline=None)
@given(_arrays)
def test_canonical_bytes_dtype_and_shape_distinct(array):
    """Reinterpreting the same values under another dtype or shape must
    change the digest — the header is part of the canonical bytes."""
    if array.dtype != np.float64:
        assert tensor_digest(array.astype(np.float64)) != tensor_digest(array)
    flat = array.reshape(-1)
    if flat.shape != array.shape:
        assert tensor_digest(flat) != tensor_digest(array)


def test_canonical_bytes_header_framing():
    """The length prefix keeps header and payload from bleeding into
    each other: equal concatenations with different boundaries differ."""
    a = np.zeros(3, dtype=np.float32)
    b = np.zeros((3, 1), dtype=np.float32)
    assert canonical_bytes(a) != canonical_bytes(b)
    assert canonical_bytes(a)[:4] == len("<f4|(3,)|").to_bytes(4, "little")


def test_canonical_json_is_order_independent():
    assert canonical_json({"b": 1, "a": [1, 2]}) == canonical_json(
        dict([("a", [1, 2]), ("b", 1)])
    )
    with pytest.raises(ValueError):
        canonical_json({"x": float("nan")})


# ---------------------------------------------------------------------------
# attestation digests
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def quick_attestation():
    return attest_scenario(get_scenario(QUICK))


def test_committed_golden_matches_this_checkout(quick_attestation):
    """The committed golden was recorded by a different process (and
    session) — matching it is the cross-run digest-stability contract
    CI enforces."""
    golden = load_golden(QUICK)
    assert first_divergence(golden, quick_attestation) is None
    assert golden.spec_digest == quick_attestation.spec_digest
    assert golden.plan_digest == quick_attestation.plan_digest


def test_digests_stable_across_subprocess(quick_attestation):
    """A fresh interpreter reproduces every digest bit-for-bit (no
    hash randomisation, id(), or dict-order leakage into the digests)."""
    script = (
        "import json\n"
        "from repro.attest import attest_scenario\n"
        "from repro.scenarios import get_scenario\n"
        f"a = attest_scenario(get_scenario({QUICK!r}))\n"
        "print(json.dumps({'spec': a.spec_digest, 'plan': a.plan_digest,"
        " 'outputs': a.output_digests}))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, check=True,
        cwd=Path(__file__).resolve().parent.parent,
        env={**os.environ, "PYTHONPATH": "src"},
    )
    fresh = json.loads(result.stdout.strip().splitlines()[-1])
    assert fresh["spec"] == quick_attestation.spec_digest
    assert fresh["plan"] == quick_attestation.plan_digest
    assert fresh["outputs"] == quick_attestation.output_digests


def test_optimizer_is_bit_exact_on_quick_tier(quick_attestation):
    """The acceptance claim behind a single golden per scenario: the
    optimized and unoptimized pipelines produce *identical bits*, so one
    output digest attests both (the plan digests still differ — the
    programs are different, the numerics are not)."""
    unoptimized = attest_scenario(get_scenario(QUICK), optimize=False)
    assert unoptimized.output_digests == quick_attestation.output_digests
    assert unoptimized.plan_digest != quick_attestation.plan_digest
    assert unoptimized.spec_digest != quick_attestation.spec_digest


def test_plan_ir_text_matches_plan_digest_material(quick_attestation):
    """The stored plan text is the digest material: no memory addresses
    (and nothing in a plan is timed, so no timing tables either)."""
    text = quick_attestation.plan_ir
    assert "0x" not in text  # default object reprs would leak addresses
    assert "split:" in text.splitlines()[0]


@pytest.mark.parametrize(
    "name", ["mobilenetv3_hires_224px", "efficientnet_hires_224px", "vgg_hires_224px"]
)
def test_executed_plan_text_is_the_attested_plan_text(name):
    """What is attested is what runs: the IR *every part* of a hires
    batch bound — one per-image plan per fan-out lane on the edge, the
    batch-last plan on the server — renders byte for byte like the
    arena-free ``plan_ir`` the digests hash, and planning the same shape
    again gives the same text."""
    from repro.nn.engine import ExecutionPlan
    from repro.serve import deploy

    scenario = get_scenario(name)
    with deploy(scenario.deployment_spec()) as deployment:
        deployment.pipeline.edge.session.fan_out = 2  # two lanes on any host
        deployment.warmup([scenario.batch_size])
        for half in (deployment.pipeline.edge, deployment.pipeline.server):
            executor = half.session
            assert executor._prepared, "warmup bound no plan"
            for shape, prepared in executor._prepared.items():
                attested = executor.plan_ir(shape).describe()
                for _, plan in prepared.parts:
                    assert plan.ir.describe() == attested
                    again = ExecutionPlan(executor.session, plan.batch_shape)
                    assert again.ir.describe() == attested
        edge_executor = deployment.pipeline.edge.session
        (edge_batch,) = edge_executor._prepared.values()
        assert len(edge_batch.parts) == scenario.batch_size
        assert len({id(plan) for _, plan in edge_batch.parts}) == 2
        assert edge_executor.plan_ir((1, 3, 224, 224)).describe() in deployment.plan_text()
        edge = edge_executor.stats
    if "vgg" not in name:
        assert edge.depthwise_rows_ops > 0


def test_perturbed_weight_is_caught_naming_the_step(monkeypatch, tmp_path):
    """Flipping one weight by 1e-6 must fail verification and the
    divergence must name the first plan step whose content digest moved."""
    import repro.serve.deployment as deployment_mod

    golden = load_golden(QUICK)
    original = deployment_mod._resolve_net

    def perturbed(spec):
        net = original(spec)
        param = next(net.parameters())
        param.data.reshape(-1)[0] += 1e-6
        return net

    monkeypatch.setattr(deployment_mod, "_resolve_net", perturbed)
    fresh = attest_scenario(get_scenario(QUICK))
    divergence = first_divergence(golden, fresh)
    assert divergence is not None
    # The weight moved, so its content digest in the plan IR moved: the
    # message names the first divergent plan line, not just "something
    # changed downstream".
    assert "first divergent step" in divergence
    assert "plan line" in divergence


# ---------------------------------------------------------------------------
# first_divergence ordering
# ---------------------------------------------------------------------------

def test_first_divergence_orders_by_causality(quick_attestation):
    a = quick_attestation
    assert first_divergence(a, a) is None
    spec_moved = replace(a, spec_digest="0" * 64)
    assert "spec digest" in first_divergence(spec_moved, a)
    plan_moved = replace(
        a, plan_digest="0" * 64,
        plan_ir=a.plan_ir.replace("split:", "split!", 1),
    )
    assert "plan" in first_divergence(plan_moved, a)
    outputs = {t: list(d) for t, d in a.output_digests.items()}
    task = sorted(outputs)[0]
    outputs[task][0] = "0" * 64
    out_moved = replace(a, output_digests=outputs)
    message = first_divergence(out_moved, a)
    assert f"task {task!r}" in message and "batch 0" in message


# ---------------------------------------------------------------------------
# golden registry: record / verify / tamper
# ---------------------------------------------------------------------------

def test_record_and_verify_round_trip(tmp_path, quick_attestation):
    save_golden(quick_attestation, tmp_path)
    assert list_goldens(tmp_path) == [QUICK]
    result = verify_goldens(names=[QUICK], golden_dir=tmp_path)
    assert result.ok and result.checked == [QUICK]

    # Tampering with a stored digest is a divergence, not a crash.
    path = tmp_path / f"{QUICK}.json"
    data = json.loads(path.read_text())
    data["output_digests"]["scale"][0] = "0" * 64
    path.write_text(json.dumps(data))
    result = verify_goldens(names=[QUICK], golden_dir=tmp_path)
    assert not result.ok
    assert "output digest changed" in result.divergences[0][1]


def test_record_skips_existing_unless_update(tmp_path, quick_attestation):
    save_golden(quick_attestation, tmp_path)
    result = record_goldens(names=[QUICK], golden_dir=tmp_path)
    assert result.skipped and "exists" in result.skipped[0][1]
    result = record_goldens(names=[QUICK], update=True, golden_dir=tmp_path)
    assert result.recorded == [QUICK]


def test_missing_golden_is_a_divergence(tmp_path):
    """CI must fail when a new quick-tier scenario lands unrecorded."""
    result = verify_goldens(names=[QUICK], golden_dir=tmp_path)
    assert not result.ok
    assert "no golden recorded" in result.divergences[0][1]


def test_every_quick_scenario_has_a_committed_golden():
    committed = set(list_goldens())
    for name in available_scenarios("quick"):
        assert name in committed, f"quick scenario {name} has no golden"


def test_golden_files_are_canonical_on_disk():
    """Committed goldens are sorted, newline-terminated JSON in the
    attestation format — regenerating an unchanged golden is a no-op
    diff."""
    from repro.attest import golden_path

    for name in list_goldens():
        raw = golden_path(name).read_text()
        data = json.loads(raw)
        assert raw == json.dumps(data, sort_keys=True, indent=2) + "\n"
        assert data["format"] == "repro-attest-v1"
        round_trip = Attestation.from_dict(data)
        assert round_trip.scenario == name


# ---------------------------------------------------------------------------
# policy exclusions
# ---------------------------------------------------------------------------

def test_cache_enabled_spec_is_policy_excluded():
    spec = DeploymentSpec(
        model="mobilenet_v3_tiny", tasks=(("scale", 8),), input_size=32,
        cache="response", seed=41,
    )
    with pytest.raises(AttestationPolicyError, match="cache"):
        check_attestable(spec)


def test_unknown_golden_format_is_rejected():
    with pytest.raises(AttestationError, match="format"):
        Attestation.from_dict({"format": "repro-attest-v0"})


# ---------------------------------------------------------------------------
# report stamping
# ---------------------------------------------------------------------------

def test_throughput_report_aggregate_is_forward_compatible():
    """Aggregation is field-driven: numeric counters sum, unanimous
    strings survive, disagreeing strings blank out — so a new counter
    (like the digests) never needs aggregate() edited again."""
    timings = dict(edge_seconds=0.1, transfer_seconds=0.1,
                   server_seconds=0.1, pipelined_seconds=0.1)
    a = ThroughputReport(batches=1, images=4, wall_seconds=1.0,
                         spec_digest="s", plan_digest="p", **timings)
    b = ThroughputReport(batches=2, images=8, wall_seconds=2.0,
                         spec_digest="s", plan_digest="p", **timings)
    merged = ThroughputReport.aggregate([a, b], wall_seconds=3.0)
    assert merged.batches == 3 and merged.images == 12
    assert merged.spec_digest == "s" and merged.plan_digest == "p"

    c = replace(b, plan_digest="other")
    merged = ThroughputReport.aggregate([a, c], wall_seconds=3.0)
    assert merged.plan_digest == "" and merged.spec_digest == "s"
    assert ThroughputReport.aggregate([], wall_seconds=0.0).batches == 0


def test_deployment_stream_reports_carry_digests():
    from repro.serve import deploy

    scenario = get_scenario(QUICK)
    with deploy(scenario.deployment_spec()) as deployment:
        _, report = deployment.stream(scenario.make_batches(2))
    assert report.spec_digest and report.plan_digest
    spec_digest, plan_digest = deployment.provenance()
    assert (report.spec_digest, report.plan_digest) == (spec_digest, plan_digest)
