"""DeploymentSpec: dict/JSON round-trip property, validation messages."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.deployment import DEGRADED_EDGE_LINK, NetworkChannel
from repro.deployment.device import Device
from repro.serve import DeploymentSpec, SpecError

_BACKBONES = ("vgg_tiny", "mobilenet_v3_tiny", "efficientnet_tiny")
_CHANNEL_NAMES = ("gigabit_ethernet", "wifi_5", "lte_uplink", "degraded_edge_link")
_DEVICE_NAMES = ("jetson_nano", "rtx3090_server", "raspberry_pi_4", "generic_server")

_task_names = st.text(
    alphabet="abcdefghij_", min_size=1, max_size=8
)
_tasks = st.lists(
    st.tuples(_task_names, st.integers(1, 12)),
    min_size=1,
    max_size=4,
    unique_by=lambda pair: pair[0],
).map(tuple)

_channels = st.one_of(
    st.sampled_from(_CHANNEL_NAMES),
    st.builds(
        NetworkChannel,
        name=st.sampled_from(("custom-link", "lab wifi")),
        bandwidth_bps=st.floats(1e5, 1e10, allow_nan=False),
        rtt_seconds=st.floats(0.0, 0.5, allow_nan=False),
        overhead_fraction=st.floats(0.0, 0.5, allow_nan=False),
    ),
)

_devices = st.one_of(
    st.sampled_from(_DEVICE_NAMES),
    st.builds(
        Device,
        name=st.sampled_from(("bench-board", "lab server")),
        memory_bytes=st.integers(1, 2**36),
        flops_per_second=st.floats(1e6, 1e14, allow_nan=False),
    ),
)

_specs = st.builds(
    DeploymentSpec,
    model=st.sampled_from(_BACKBONES),
    tasks=_tasks,
    input_size=st.sampled_from((8, 16, 32, 64)),
    split_index=st.one_of(st.none(), st.just("auto"), st.integers(1, 6)),
    wire=st.sampled_from(("float32", "float16", "quant8")),
    channel=_channels,
    edge_device=_devices,
    server_device=_devices,
    max_batch_size=st.integers(1, 32),
    max_queue_delay_ms=st.floats(0.0, 50.0, allow_nan=False),
    seed=st.integers(0, 2**31 - 1),
)


class TestRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(spec=_specs)
    def test_dict_round_trip(self, spec):
        assert DeploymentSpec.from_dict(spec.to_dict()) == spec

    @settings(max_examples=60, deadline=None)
    @given(spec=_specs)
    def test_json_round_trip(self, spec):
        assert DeploymentSpec.from_json(spec.to_json()) == spec

    @settings(max_examples=20, deadline=None)
    @given(spec=_specs)
    def test_to_dict_is_stable(self, spec):
        # Serialising twice (directly, and via the round-tripped spec)
        # yields the identical payload — configs can be diffed textually.
        again = DeploymentSpec.from_dict(spec.to_dict())
        assert again.to_dict() == spec.to_dict()

    def test_wireformat_instances_normalise(self):
        from repro.deployment import WireFormat

        spec = DeploymentSpec(
            model="vgg_tiny", tasks=(("a", 2),), wire=WireFormat("quant8")
        )
        assert spec.wire == "quant8"
        assert DeploymentSpec.from_dict(spec.to_dict()) == spec

    def test_module_specs_do_not_serialise(self, tiny_trained_net):
        spec = DeploymentSpec(model=tiny_trained_net)
        with pytest.raises(SpecError, match="in-memory"):
            spec.to_dict()

    def test_replace_revalidates(self):
        spec = DeploymentSpec(model="vgg_tiny", tasks=(("a", 2),))
        assert spec.replace(max_batch_size=3).max_batch_size == 3
        with pytest.raises(SpecError, match="max_batch_size"):
            spec.replace(max_batch_size=0)


class TestValidation:
    def test_unknown_backbone(self):
        with pytest.raises(SpecError, match="unknown backbone 'resnet50'"):
            DeploymentSpec(model="resnet50", tasks=(("a", 2),))

    def test_tasks_required_for_named_model(self):
        with pytest.raises(SpecError, match="tasks must be non-empty"):
            DeploymentSpec(model="vgg_tiny")

    def test_duplicate_task_names(self):
        with pytest.raises(SpecError, match="unique"):
            DeploymentSpec(model="vgg_tiny", tasks=(("a", 2), ("a", 3)))

    def test_bad_num_classes(self):
        with pytest.raises(SpecError, match="num_classes >= 1"):
            DeploymentSpec(model="vgg_tiny", tasks=(("a", 0),))

    @pytest.mark.parametrize("bad", [0, -3, 2.5, True, "half"])
    def test_bad_split_index(self, bad):
        with pytest.raises(SpecError, match="split_index"):
            DeploymentSpec(model="vgg_tiny", tasks=(("a", 2),), split_index=bad)

    def test_bad_wire(self):
        with pytest.raises(SpecError, match="unknown wire dtype"):
            DeploymentSpec(model="vgg_tiny", tasks=(("a", 2),), wire="int4")

    def test_unknown_channel_preset(self):
        with pytest.raises(SpecError, match="unknown channel 'pigeon'"):
            DeploymentSpec(model="vgg_tiny", tasks=(("a", 2),), channel="pigeon")

    def test_unknown_device_preset(self):
        with pytest.raises(SpecError, match="unknown device"):
            DeploymentSpec(
                model="vgg_tiny", tasks=(("a", 2),), edge_device="abacus"
            )

    def test_bad_batching_knobs(self):
        with pytest.raises(SpecError, match="max_batch_size"):
            DeploymentSpec(model="vgg_tiny", tasks=(("a", 2),), max_batch_size=0)
        with pytest.raises(SpecError, match="max_queue_delay_ms"):
            DeploymentSpec(
                model="vgg_tiny", tasks=(("a", 2),), max_queue_delay_ms=-1.0
            )

    def test_small_input_size(self):
        with pytest.raises(SpecError, match="input_size"):
            DeploymentSpec(model="vgg_tiny", tasks=(("a", 2),), input_size=4)

    def test_from_dict_rejects_unknown_keys(self):
        spec = DeploymentSpec(model="vgg_tiny", tasks=(("a", 2),))
        data = spec.to_dict()
        data["wired"] = "float32"
        with pytest.raises(SpecError, match="unknown DeploymentSpec keys"):
            DeploymentSpec.from_dict(data)

    @pytest.mark.parametrize(
        "removed", ["compiled", "planned", "compute", "num_workers"]
    )
    def test_from_dict_rejects_the_removed_execution_knobs(self, removed):
        # PRs 15 and 16 removed the knobs that selected an execution path
        # (how a batch executes is the engine's geometry rule now); an old
        # config that still carries one must fail loudly, naming the key.
        data = {"model": "mobilenet_v3_tiny", "tasks": [["a", 2]], removed: True}
        with pytest.raises(SpecError, match=rf"unknown DeploymentSpec keys \['{removed}'\]"):
            DeploymentSpec.from_dict(data)

    def test_field_names_are_pinned(self):
        # Every field is a configuration the tests and benches must cover:
        # adding one is a deliberate edit here, not a drive-by.
        assert {f.name for f in dataclasses.fields(DeploymentSpec)} == {
            "model", "tasks", "input_size", "split_index", "wire", "channel",
            "edge_device", "server_device", "optimize",
            "max_cached_plans", "max_batch_size", "max_queue_delay_ms",
            "max_queue_depth", "deadline_ms", "faults", "fallback",
            "max_retries", "retry_backoff_ms", "probe_every", "cache",
            "replicas", "seed",
        }

    def test_from_json_rejects_non_objects(self):
        with pytest.raises(SpecError, match="JSON"):
            DeploymentSpec.from_json("[1, 2]")
        with pytest.raises(SpecError, match="invalid"):
            DeploymentSpec.from_json("{not json")

    def test_spec_error_is_value_error(self):
        with pytest.raises(ValueError):
            DeploymentSpec(model="vgg_tiny", tasks=(("a", 2),), max_batch_size=-1)

    def test_channel_dict_is_adopted(self):
        spec = DeploymentSpec(
            model="vgg_tiny",
            tasks=(("a", 2),),
            channel=dataclasses.asdict(DEGRADED_EDGE_LINK),
        )
        assert spec.channel == DEGRADED_EDGE_LINK
        assert DeploymentSpec.from_dict(spec.to_dict()) == spec
