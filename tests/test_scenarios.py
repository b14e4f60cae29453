"""repro.scenarios: spec validation + round-trip (property-tested like
DeploymentSpec), the curated registry, traffic determinism, compilation
into DeploymentSpec, the CLI surface, and a slow 224px end-to-end smoke."""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.scenarios import (
    BACKBONE_FAMILIES,
    TIERS,
    Scenario,
    ScenarioError,
    available_scenarios,
    get_scenario,
    register_scenario,
    run_scenario,
    scenario_matrix,
)

_BACKBONES = ("vgg_tiny", "mobilenet_v3_tiny", "efficientnet_tiny")
_CHANNEL_NAMES = ("gigabit_ethernet", "wifi_5", "lte_uplink", "degraded_edge_link")

_names = st.text(alphabet="abcdefghij_-0123456789", min_size=1, max_size=16)
_task_names = st.text(alphabet="abcdefghij_", min_size=1, max_size=8)
_tasks = st.lists(
    st.tuples(_task_names, st.integers(1, 12)),
    min_size=1,
    max_size=4,
    unique_by=lambda pair: pair[0],
).map(tuple)

_scenarios = st.builds(
    Scenario,
    name=_names,
    backbone=st.sampled_from(_BACKBONES),
    tasks=_tasks,
    tier=st.sampled_from(TIERS),
    input_size=st.sampled_from((16, 32, 64, 224)),
    batch_size=st.integers(1, 32),
    batches=st.integers(1, 8),
    split_index=st.one_of(st.none(), st.just("auto"), st.integers(1, 6)),
    wire=st.sampled_from(("float32", "float16", "quant8")),
    channel=st.sampled_from(_CHANNEL_NAMES),
    optimize=st.booleans(),
    noise_amount=st.floats(0.0, 1.0, allow_nan=False),
    seed=st.integers(0, 2**31 - 1),
    description=st.text(max_size=40),
)


class TestRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(scenario=_scenarios)
    def test_dict_round_trip(self, scenario):
        assert Scenario.from_dict(scenario.to_dict()) == scenario

    @settings(max_examples=60, deadline=None)
    @given(scenario=_scenarios)
    def test_json_round_trip(self, scenario):
        assert Scenario.from_json(scenario.to_json()) == scenario

    @settings(max_examples=20, deadline=None)
    @given(scenario=_scenarios)
    def test_to_dict_is_stable(self, scenario):
        again = Scenario.from_dict(scenario.to_dict())
        assert again.to_dict() == scenario.to_dict()

    @settings(max_examples=20, deadline=None)
    @given(scenario=_scenarios)
    def test_json_is_plain_types(self, scenario):
        # The JSON form must be loadable by anything, not just python.
        payload = json.loads(scenario.to_json())
        assert isinstance(payload, dict)

    def test_replace_revalidates(self):
        scenario = get_scenario("mobilenetv3_quick_32px")
        assert scenario.replace(batch_size=4).batch_size == 4
        with pytest.raises(ScenarioError, match="batch_size"):
            scenario.replace(batch_size=0)

    def test_wireformat_instances_normalise(self):
        from repro.deployment import WireFormat

        scenario = Scenario(
            name="w", backbone="vgg_tiny", wire=WireFormat("quant8")
        )
        assert scenario.wire == "quant8"
        assert Scenario.from_dict(scenario.to_dict()) == scenario


class TestValidation:
    def test_unknown_backbone(self):
        with pytest.raises(ScenarioError, match="unknown backbone 'resnet50'"):
            Scenario(name="x", backbone="resnet50")

    def test_bad_name(self):
        with pytest.raises(ScenarioError, match="name"):
            Scenario(name="", backbone="vgg_tiny")
        with pytest.raises(ScenarioError, match="whitespace"):
            Scenario(name="two words", backbone="vgg_tiny")

    def test_bad_tier(self):
        with pytest.raises(ScenarioError, match="tier must be one of"):
            Scenario(name="x", backbone="vgg_tiny", tier="ultrawide")

    def test_empty_tasks(self):
        with pytest.raises(ScenarioError, match="non-empty"):
            Scenario(name="x", backbone="vgg_tiny", tasks=())

    def test_duplicate_tasks(self):
        with pytest.raises(ScenarioError, match="unique"):
            Scenario(name="x", backbone="vgg_tiny", tasks=(("a", 2), ("a", 3)))

    def test_small_input_size(self):
        with pytest.raises(ScenarioError, match="input_size"):
            Scenario(name="x", backbone="vgg_tiny", input_size=8)

    @pytest.mark.parametrize("field", ["batch_size", "batches"])
    @pytest.mark.parametrize("bad", [0, -1, 2.5, True])
    def test_bad_batch_geometry(self, field, bad):
        with pytest.raises(ScenarioError, match=field):
            Scenario(name="x", backbone="vgg_tiny", **{field: bad})

    @pytest.mark.parametrize("bad", [0, -3, 2.5, True, "half"])
    def test_bad_split_index(self, bad):
        with pytest.raises(ScenarioError, match="split_index"):
            Scenario(name="x", backbone="vgg_tiny", split_index=bad)

    def test_bad_wire(self):
        with pytest.raises(ScenarioError, match="unknown wire dtype"):
            Scenario(name="x", backbone="vgg_tiny", wire="int4")

    def test_channel_must_be_preset_name(self):
        with pytest.raises(ScenarioError, match="preset name"):
            Scenario(name="x", backbone="vgg_tiny", channel="pigeon")

    def test_bad_noise(self):
        with pytest.raises(ScenarioError, match="noise_amount"):
            Scenario(name="x", backbone="vgg_tiny", noise_amount=1.5)

    def test_unknown_keys_rejected(self):
        data = get_scenario("vgg_quick_32px").to_dict()
        data["resolution"] = 512
        with pytest.raises(ScenarioError, match="unknown Scenario keys"):
            Scenario.from_dict(data)

    @pytest.mark.parametrize(
        "removed", ["compiled", "planned", "compute", "num_workers"]
    )
    def test_removed_execution_knobs_rejected(self, removed):
        data = get_scenario("vgg_quick_32px").to_dict()
        data[removed] = True
        with pytest.raises(ScenarioError, match=rf"unknown Scenario keys \['{removed}'\]"):
            Scenario.from_dict(data)

    def test_field_names_are_pinned(self):
        # A new knob is a deliberate edit here (see tests/test_serve_spec.py).
        assert {f.name for f in dataclasses.fields(Scenario)} == {
            "name", "backbone", "tasks", "tier", "input_size", "batch_size",
            "batches", "split_index", "wire", "channel",
            "optimize", "noise_amount", "arrival", "seed", "description",
        }

    def test_from_json_rejects_non_objects(self):
        with pytest.raises(ScenarioError, match="JSON"):
            Scenario.from_json("[1]")
        with pytest.raises(ScenarioError, match="invalid"):
            Scenario.from_json("{nope")

    def test_scenario_error_is_value_error(self):
        with pytest.raises(ValueError):
            Scenario(name="x", backbone="vgg_tiny", batches=0)


class TestRegistry:
    def test_matrix_covers_every_family_and_tier(self):
        matrix = scenario_matrix()
        seen = {(s.backbone, s.tier) for s in matrix}
        for family_backbone in BACKBONE_FAMILIES.values():
            for tier in TIERS:
                assert (family_backbone, tier) in seen

    def test_hires_tier_is_224px(self):
        for scenario in scenario_matrix(tier="hires"):
            assert scenario.input_size == 224

    def test_unknown_scenario_names_available(self):
        with pytest.raises(ScenarioError, match="available:"):
            get_scenario("nope")

    def test_duplicate_registration_rejected(self):
        scenario = get_scenario("vgg_quick_32px")
        with pytest.raises(ScenarioError, match="already registered"):
            register_scenario(scenario)

    def test_tier_filter(self):
        quick = available_scenarios(tier="quick")
        assert quick and all("quick" in name for name in quick)
        assert available_scenarios(tier="hires") != quick

    def test_matrix_is_exactly_family_times_tier(self):
        assert len(scenario_matrix()) == len(BACKBONE_FAMILIES) * len(TIERS) == 9

    def test_listing_sorted_small_to_large(self):
        sizes = [s.input_size for s in scenario_matrix()]
        assert sizes == sorted(sizes)


class TestCompilation:
    def test_deployment_spec_fields_thread_through(self):
        scenario = get_scenario("efficientnet_hires_224px")
        spec = scenario.deployment_spec()
        assert spec.model == scenario.backbone
        assert spec.input_size == 224
        assert spec.wire == scenario.wire
        assert spec.channel == scenario.channel
        assert spec.tasks == scenario.tasks
        # Spec overrides for the benchmark baseline do not mutate anything.
        baseline = scenario.deployment_spec(optimize=False)
        assert not baseline.optimize and spec.optimize

    def test_deployment_spec_round_trips_as_json_too(self):
        spec = get_scenario("mobilenetv3_quick_32px").deployment_spec()
        from repro.serve import DeploymentSpec

        assert DeploymentSpec.from_json(spec.to_json()) == spec

    def test_batches_are_deterministic_and_sized(self):
        scenario = get_scenario("mobilenetv3_quick_32px").replace(
            batches=2, batch_size=3
        )
        first = scenario.make_batches()
        second = scenario.make_batches()
        assert len(first) == 2
        for a, b in zip(first, second):
            assert a.shape == (3, 3, 32, 32) and a.dtype == np.float32
            np.testing.assert_array_equal(a, b)

    def test_batches_override_and_lazy_iter(self):
        scenario = get_scenario("mobilenetv3_quick_32px")
        iterator = scenario.iter_batches(1)
        assert next(iterator).shape[0] == scenario.batch_size
        assert len(scenario.make_batches(3)) == 3

    def test_different_seeds_differ(self):
        scenario = get_scenario("mobilenetv3_quick_32px").replace(batches=1)
        other = scenario.replace(seed=7)
        assert not np.array_equal(
            scenario.make_batches()[0], other.make_batches()[0]
        )


class TestStreams:
    def test_streams_validate_arguments(self):
        from repro.data import make_image_batches

        with pytest.raises(ValueError, match="batches"):
            make_image_batches(-1, 4)
        with pytest.raises(ValueError, match="batch_size"):
            make_image_batches(1, 0)

    def test_lazy_stream_validates_eagerly(self):
        # The lazy form must raise at the call site, not at first
        # iteration (or never, for an iterator that is dropped).
        from repro.data import iter_image_batches

        with pytest.raises(ValueError, match="batches"):
            iter_image_batches(-1, 4)

    def test_zero_batches_is_empty(self):
        from repro.data import make_image_batches

        assert make_image_batches(0, 4) == []

    def test_image_size_parameterises(self):
        from repro.data import make_image_batches

        (batch,) = make_image_batches(1, 2, image_size=48, seed=3)
        assert batch.shape == (2, 3, 48, 48)


class TestScenariosCli:
    def test_list(self, capsys):
        assert main(["scenarios", "list"]) == 0
        out = capsys.readouterr().out
        assert "mobilenetv3_hires_224px" in out
        assert "224px" in out

    def test_list_tier_filter(self, capsys):
        assert main(["scenarios", "list", "--tier", "hires"]) == 0
        out = capsys.readouterr().out
        assert "hires" in out and "quick" not in out

    def test_list_unknown_tier_fails(self, capsys):
        assert main(["scenarios", "list", "--tier", "galactic"]) == 2

    def test_describe(self, capsys):
        assert main(["scenarios", "describe", "vgg_hires_224px"]) == 0
        out = capsys.readouterr().out
        assert "vgg_tiny @224px" in out
        assert "deployment:" in out

    def test_describe_json_round_trips(self, capsys):
        assert main(["scenarios", "describe", "vgg_hires_224px", "--json"]) == 0
        out = capsys.readouterr().out
        assert Scenario.from_json(out) == get_scenario("vgg_hires_224px")

    def test_unknown_name_fails_with_listing(self, capsys):
        assert main(["scenarios", "describe", "nope"]) == 2
        assert "available" in capsys.readouterr().err

    def test_run_quick_scenario(self, capsys):
        assert main(
            ["scenarios", "run", "mobilenetv3_quick_32px", "--batches", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "engine:" in out
        assert "allocs/batch" in out

    def test_run_rejects_bad_batches(self, capsys):
        assert main(
            ["scenarios", "run", "mobilenetv3_quick_32px", "--batches", "0"]
        ) == 2


@pytest.mark.slow
class TestHiresSmoke:
    """One 224px scenario runs end-to-end through the real stack."""

    def test_hires_scenario_end_to_end(self):
        scenario = get_scenario("mobilenetv3_hires_224px")
        result = run_scenario(scenario, batches=2)
        report = result.report
        assert report.batches == 2
        assert report.images == 2 * scenario.batch_size
        # Planning still removes every steady-state allocation at this
        # scale (that the rows kernel runs here: tests/test_attest.py).
        assert report.steady_state_allocs == 0
        assert result.payload_bytes_per_batch > 0

    def test_hires_optimized_matches_unoptimized(self):
        scenario = get_scenario("efficientnet_hires_224px").replace(
            batches=1, batch_size=2
        )
        traffic = scenario.make_batches()
        from repro.serve import deploy

        with deploy(scenario.deployment_spec()) as optimized, deploy(
            scenario.deployment_spec(optimize=False)
        ) as baseline:
            opt = optimized.infer(traffic[0])
            base = baseline.infer(traffic[0])
            for task in opt:
                np.testing.assert_allclose(opt[task], base[task], atol=1e-4)
