"""``repro.deployment`` — split-computing deployment analysis and runtime.

Reproduces the paper's Sec. 4.2 machinery: analytic model profiling
(Table 4), edge-device memory feasibility (the Jetson Nano LoC argument),
network-channel latency (the gigabit RoC-vs-SC comparison), and ``Z_b``
wire serialisation.  The *runnable* edge→link→server pipeline lives in
:mod:`repro.serve`; :mod:`.runtime` only re-exports its data types.
"""

from .channel import (
    DEGRADED_EDGE_LINK,
    GIGABIT_ETHERNET,
    LTE_UPLINK,
    WIFI_5,
    NetworkChannel,
    available_channels,
    get_channel,
)
from .device import (
    GENERIC_SERVER,
    JETSON_NANO,
    RASPBERRY_PI_4,
    RTX3090_SERVER,
    Device,
    available_devices,
    get_device,
)
from .energy import (
    JETSON_NANO_ENERGY,
    EnergyModel,
    SplitEnergy,
    energy_profile,
    lowest_edge_energy_split,
)
from .optimizer import SplitLatency, latency_profile, optimal_split_index
from .paradigms import (
    ParadigmReport,
    compare_paradigms,
    head_memory_bytes,
    loc_report,
    roc_report,
    sc_report,
)
from .profiler import (
    BYTES_PER_PARAM,
    LayerProfile,
    ModelProfile,
    profile_backbone,
)
from .report import render_paradigm_comparison, render_table4, render_throughput, table4_rows
from .runtime import InferenceTrace, SimulatedLink, ThroughputReport
from .wire import WireFormat, decode_tensor, encode_tensor, payload_bytes

__all__ = [
    "Device",
    "JETSON_NANO",
    "RTX3090_SERVER",
    "RASPBERRY_PI_4",
    "GENERIC_SERVER",
    "NetworkChannel",
    "GIGABIT_ETHERNET",
    "WIFI_5",
    "LTE_UPLINK",
    "DEGRADED_EDGE_LINK",
    "available_channels",
    "available_devices",
    "get_channel",
    "get_device",
    "LayerProfile",
    "ModelProfile",
    "profile_backbone",
    "BYTES_PER_PARAM",
    "WireFormat",
    "encode_tensor",
    "decode_tensor",
    "payload_bytes",
    "ParadigmReport",
    "loc_report",
    "roc_report",
    "sc_report",
    "compare_paradigms",
    "head_memory_bytes",
    "SimulatedLink",
    "InferenceTrace",
    "ThroughputReport",
    "table4_rows",
    "render_table4",
    "render_paradigm_comparison",
    "render_throughput",
    "SplitLatency",
    "latency_profile",
    "optimal_split_index",
    "EnergyModel",
    "JETSON_NANO_ENERGY",
    "SplitEnergy",
    "energy_profile",
    "lowest_edge_energy_split",
]
