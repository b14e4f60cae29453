"""Smoke test of the e2e benchmark: plumbing, names and units - no bounds.

Every workload runs once in ``--smoke`` mode (~1 s windows, traced) in
its own child process, three at a time; the assertions are about what is
reported, never about how fast.  The pure helpers the per-layer numbers
rest on are unit-tested below.
"""

from __future__ import annotations

import importlib.util
import json
import re
import sys
from argparse import Namespace
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
from e2e_trace import (  # noqa: E402
    Span, Tracer, covered, match_fifo, percentile, self_times, supported,
)

CONTRACT = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load_run():
    spec = importlib.util.spec_from_file_location("e2e_run", HERE / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def smoke_results(tmp_path_factory):
    """One traced smoke child per workload (the traced pass also reports
    the end-to-end metrics of its untraced half), three at a time with
    the slowest-to-build specs first."""
    from e2e_workloads import WORKLOADS

    run = load_run()
    run.OUT_DIR = tmp_path_factory.mktemp("e2e-out")
    args = Namespace(seed=0, seconds=1.0, smoke=True)
    names = [w["name"] for w in CONTRACT["workloads"]]
    order = sorted(names, key=lambda name: -WORKLOADS[name].input_size)
    with ThreadPoolExecutor(max_workers=3) as pool:
        results = dict(zip(order, pool.map(lambda name: run.run_child(name, args, trace=True), order)))
    return {name: results[name] for name in names}


def test_contract_file_is_well_formed():
    assert set(CONTRACT) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    names = [e["name"] for key in ("workloads", "end_to_end", "per_layer") for e in CONTRACT[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for entry in CONTRACT["end_to_end"] + CONTRACT["per_layer"]:
        assert UNIT.match(entry["unit"]) and entry["better"] in ("lower", "higher")
    assert all(0 < e["bound"] <= 0.25 for e in CONTRACT["end_to_end"])
    assert any(e == {"name": "setup_s", "unit": "s", "better": "lower", "bound": e["bound"]}
               for e in CONTRACT["end_to_end"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in CONTRACT["workloads"])


def test_every_workload_reports_every_metric_with_its_unit(smoke_results):
    assert list(smoke_results) == [w["name"] for w in CONTRACT["workloads"]]
    for name, result in smoke_results.items():
        assert result["correct"], (name, result["notes"])
        assert result["attempted"] >= 1 and result["failed"] >= 0, (name, result["notes"])
        for section in ("end_to_end", "per_layer"):
            reported = result[section]
            for entry in CONTRACT[section]:
                assert entry["name"] in reported, (name, entry["name"])
                assert reported[entry["name"]]["unit"] == entry["unit"]
        for entry in CONTRACT["end_to_end"]:          # never zero, never missing
            assert result["end_to_end"][entry["name"]]["value"] > 0, (name, entry["name"])
        host = result["host"]
        assert {"cpu_count", "affinity", "python", "numpy", "scipy", "env", "git_commit"} <= set(host)


def test_traced_pass_attributes_the_time(smoke_results):
    for name in ("stream_hires", "serve_steady"):
        assert smoke_results[name]["per_layer"]["trace.attributed_pct"]["value"] > 50.0, name
    steady = smoke_results["serve_steady"]["per_layer"]
    assert steady["deployment.settle_ms"]["value"] is not None
    assert steady["engine.plan_build_ms_p50"]["value"] > 0
    assert steady["batching.queue_wait_ms_p50"]["value"] > 0
    for name, result in smoke_results.items():
        assert result["per_layer"]["trace.overhead_p50_pct"]["value"] is not None, name
    assert smoke_results["cluster_pair"]["per_layer"]["cluster.failovers"]["value"] == 0
    assert smoke_results["cache_zipf"]["per_layer"]["cache.response_hits"]["value"] > 0
    assert smoke_results["cache_unique"]["per_layer"]["cache.response_hits"]["value"] == 0


def test_contract_mode_prints_the_result_object_last(smoke_results):
    run = load_run()
    for name, result in smoke_results.items():
        for trace, section in ((True, "per_layer"), (False, "end_to_end")):
            line = json.loads(run.contract_line({**result, "trace": trace}))
            assert set(line) == {"correct", "attempted", "failed", "metrics"}
            assert list(line["metrics"]) == [e["name"] for e in CONTRACT[section]]
            for entry in CONTRACT[section]:
                reported = line["metrics"][entry["name"]]
                assert reported["unit"] == entry["unit"]
                assert isinstance(reported["value"], float), (name, entry["name"])
        # What the child really printed last is that object (run_child checks it).
        assert result["printed_last"] == json.loads(run.contract_line(result))


# ----------------------------------------------------------------------
# Pure helpers
# ----------------------------------------------------------------------
def test_percentile_applies_the_sample_count_rule():
    values = list(range(1, 101))
    assert percentile(values, 50.0) == pytest.approx(50.5)
    assert percentile(values, 95.0) is None             # 5 samples beyond, needs 10
    assert percentile(values, 95.0, strict=False) == pytest.approx(95.05)
    assert percentile(list(range(200)), 95.0) == pytest.approx(189.05)
    assert percentile([], 50.0) is None
    assert percentile([7.0], 50.0) == 7.0
    assert supported(1000, 99.0) and not supported(999, 99.0)


def test_match_fifo_pairs_requests_with_batches_in_order():
    assert match_fifo([2, 1, 3], [10, 11, 14, 15, 16, 19]) == [
        (10, 0), (11, 0), (14, 1), (15, 2), (16, 2), (19, 2)]
    assert match_fifo([], []) == []
    assert match_fifo([2, 2], [1, 2, 3]) is None        # a follower took no batch slot


def test_self_time_is_duration_minus_what_children_cover():
    spans = [
        Span(0, "pipeline.infer", 0.0, 10.0, -1, 0, 4),
        Span(1, "edge.forward", 1.0, 6.0, 0, 0, 4),
        Span(2, "engine.run", 2.0, 5.0, 1, 0, 4),
        Span(3, "server.infer", 5.0, 8.0, 0, 0, 0),      # overlaps edge.forward by 1
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(3.0)                  # 10 - union([1,6],[5,8]) = 10 - 7
    assert own[1] == pytest.approx(2.0)
    assert own[2] == pytest.approx(3.0)
    assert covered(0.0, 10.0, [(8.0, 12.0), (-1.0, 1.0)]) == pytest.approx(3.0)


def test_tracer_wraps_instances_nests_spans_and_restores():
    class Edge:
        def forward(self, batch):
            return batch

    class Pipeline:
        def __init__(self):
            self.edge = Edge()

        def infer(self, batch):
            return self.edge.forward(batch)

    import numpy as np

    pipeline, other = Pipeline(), Pipeline()
    tracer = Tracer()
    assert tracer.wrap(pipeline, "infer", "pipeline.infer")
    assert tracer.wrap(pipeline, "edge.forward", "edge.forward")
    assert not tracer.wrap(pipeline, "server.infer", "server.infer")
    assert tracer.missing == ["server.infer (server.infer)"]
    pipeline.infer(np.zeros((3, 2)))
    other.infer(np.zeros((1, 2)))                        # other instances stay untouched
    child, root = tracer.spans
    assert (root.name, root.parent, root.n) == ("pipeline.infer", -1, 3)
    assert (child.name, child.parent, child.ident) == ("edge.forward", root.id, root.id)
    assert root.start <= child.start <= child.end <= root.end
    tracer.uninstall()
    assert "infer" not in vars(pipeline) and "forward" not in vars(pipeline.edge)


def test_compare_verdicts():
    assert compare.verdict(10.0, 10.9, "lower", 0.10) == "ok"
    assert compare.verdict(10.0, 11.1, "lower", 0.10) == "worse"
    assert compare.verdict(100.0, 92.0, "higher", 0.07) == "worse"
    assert compare.verdict(100.0, 140.0, "higher", 0.07) == "ok"
    assert compare.verdict(None, 1.0, "lower", 0.1) == "unresolved"
    assert compare.verdict(1.0, 5.0, "lower", 0.1, judgeable=False) == "unresolved"
