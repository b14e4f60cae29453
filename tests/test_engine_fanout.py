"""How a batch executes: one batch-last plan, or per-image plans fanned out.

The contract of the hires regime (``passes.runs_per_image``): image ``i``
runs through the same bound batch-1 program whatever batch it arrives in,
whichever position it holds and however many threads the host offers — so
its ``Z_b`` is the same *bytes* in every one of those cases.  Below the
rule nothing changes: a batch binds exactly one batch-last plan.  Fast
geometries are forced into the regime through the executor's internal
``l2_bytes`` argument; one real 224px case is marked slow.
"""

import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import MTLSplitNet
from repro.data.base import TaskInfo
from repro.nn import engine
from repro.nn.engine import threads as engine_threads
from repro.nn.engine.executor import _WorkerPool
from repro.nn.engine.passes import runs_per_image
from repro.serve import DeploymentSpec, deploy

_TASKS = [TaskInfo("scale", 8), TaskInfo("shape", 4)]
_ALWAYS = 1  # an L2 budget of one byte: every geometry is "hires"


def _edge_session(backbone="mobilenet_v3_tiny", size=32):
    net = MTLSplitNet.from_tasks(backbone, _TASKS, input_size=size, seed=5)
    net.eval()
    edge, _ = net.split(None, input_size=size)
    return edge.compile_for_inference()


def _engine_threads():
    return {t for t in threading.enumerate() if t.name.startswith("repro-engine")}


@pytest.fixture(scope="module")
def fast():
    """A 32px edge half, its images, and each image's batch-1 ``Z_b``."""
    session = _edge_session()
    images = np.random.default_rng(17).random((6, 3, 32, 32), dtype=np.float32)
    with engine.PlannedExecutor(session, l2_bytes=_ALWAYS) as alone:
        single = [alone.run(images[i : i + 1]).copy() for i in range(len(images))]
    return session, images, single


class TestImageBytesDoNotDependOnTheBatch:
    @settings(max_examples=25, deadline=None)
    @given(
        order=st.permutations(range(6)).map(lambda p: p[:4]),
        batch=st.integers(1, 4),
        width=st.sampled_from([1, 2]),
    )
    def test_every_batch_size_position_and_width(self, fast, order, batch, width):
        session, images, single = fast
        picked = list(order[:batch])
        with engine.PlannedExecutor(session, fan_out=width, l2_bytes=_ALWAYS) as executor:
            z_b = executor.run(images[picked])
            for position, image in enumerate(picked):
                assert z_b[position].tobytes() == single[image][0].tobytes()
            assert len(executor._templates[(3, 32, 32)].lanes) == min(batch, width)

    @pytest.mark.slow
    def test_real_224px_geometry(self):
        session = _edge_session(size=224)
        images = np.random.default_rng(3).random((4, 3, 224, 224), dtype=np.float32)
        with engine.PlannedExecutor(session) as alone:
            assert alone._template((3, 224, 224)).per_image
            single = [alone.run(images[i : i + 1]).copy() for i in range(4)]
        for width in (1, 2):
            with engine.PlannedExecutor(session, fan_out=width) as executor:
                for batch in (1, 2, 3, 4):
                    for start in range(4 - batch + 1):
                        z_b = executor.run(images[start : start + batch])
                        for k in range(batch):
                            assert z_b[k].tobytes() == single[start + k][0].tobytes()

    def test_more_threads_than_cores_under_a_short_switch_interval(self, fast):
        session, images, single = fast
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with engine.PlannedExecutor(session, fan_out=4, l2_bytes=_ALWAYS) as executor:
                deadline = time.monotonic() + 2.0
                rounds = 0
                while time.monotonic() < deadline and rounds < 200:
                    z_b = executor.run(images)
                    for i in range(len(images)):
                        assert z_b[i].tobytes() == single[i][0].tobytes()
                    rounds += 1
            assert rounds > 0
        finally:
            sys.setswitchinterval(interval)

    def test_named_outputs_fan_out_too(self, fast):
        _, images, _ = fast
        net = MTLSplitNet.from_tasks("mobilenet_v3_tiny", _TASKS, input_size=32, seed=5)
        net.eval()
        session = net.compile_for_inference()
        with engine.PlannedExecutor(session, fan_out=2, l2_bytes=_ALWAYS) as executor:
            got = executor.run(images[:3])
            want = session.run(images[:3])
            assert set(got) == set(want)
            for name in want:
                np.testing.assert_allclose(got[name], want[name], atol=1e-6)


class TestTheRuleAndItsBoundary:
    @pytest.mark.parametrize("size", [32, 96])
    def test_below_the_rule_a_batch_binds_one_batch_last_plan(self, size):
        # serve_*, cache_*, shape_churn and cluster_pair run here: whatever
        # the fan-out width, their batches must not change path.
        session = _edge_session(size=size)
        x = np.zeros((8, 3, size, size), dtype=np.float32)
        with engine.PlannedExecutor(session, fan_out=2) as executor:
            executor.run(x)
            template = executor._template((3, size, size))
            assert not template.per_image and not template.lanes
            ((_, plan),) = executor._prepared[x.shape].parts
            assert plan.batch_shape == x.shape
            assert executor.stats.num_plans == 1
            assert executor.plan_ir(x.shape).describe() == plan.ir.describe()
            assert "per-image" not in plan.ir.describe()
        assert not _engine_threads()

    def test_the_rule_reads_one_images_working_set(self):
        session = _edge_session(size=32)
        ir = engine.PlanTemplate(session, (3, 32, 32)).ir
        largest = max(
            4 * sum(
                int(np.prod(ir.values[v].row_shape[1:]))
                for v in step.reads() + (step.output,)
            )
            for step in ir.steps if step.kind != "view"
        )
        assert runs_per_image(ir, largest - 1) and not runs_per_image(ir, largest)
        assert runs_per_image(ir.rebatch(7), largest - 1)  # batch-independent
        assert not runs_per_image(ir.rebatch(7), largest)

    def test_per_image_plans_bind_no_gil_holding_gemm(self, fast):
        session, _, _ = fast
        batch_last = engine.PlanTemplate(session, (3, 32, 32))
        per_image = engine.PlanTemplate(session, (3, 32, 32), l2_bytes=_ALWAYS)
        assert any(s.attrs.get("beta_gemm") for s in batch_last.ir.steps)
        assert not any(s.attrs.get("beta_gemm") for s in per_image.ir.steps)
        assert per_image.instantiate(1).describe().startswith(
            "plan-ir batch=[1, 3, 32, 32] per-image"
        )

    def test_plan_ir_in_the_regime_is_the_batch_1_program(self, fast):
        session, images, _ = fast
        with engine.PlannedExecutor(session, fan_out=2, l2_bytes=_ALWAYS) as executor:
            executor.run(images[:3])
            attested = executor.plan_ir((3, 3, 32, 32)).describe()
            assert attested == executor.plan_ir((1, 3, 32, 32)).describe()
            parts = executor._prepared[(3, 3, 32, 32)].parts
            assert [rows for rows, _ in parts] == [slice(i, i + 1) for i in range(3)]
            assert all(plan.ir.describe() == attested for _, plan in parts)
            assert executor.stats.num_plans == 2  # two lanes, however many images


class TestFanOutThreads:
    def test_width_is_validated(self, fast):
        with pytest.raises(ValueError, match="fan_out"):
            engine.PlannedExecutor(fast[0], fan_out=0)

    def test_no_engine_thread_outlives_executor_close(self, fast):
        session, images, single = fast
        before = _engine_threads()
        executor = engine.PlannedExecutor(session, fan_out=2, l2_bytes=_ALWAYS)
        executor.run(images[:1])
        assert _engine_threads() == before  # one lane runs on the caller
        executor.run(images[:4])
        spawned = _engine_threads() - before
        assert len(spawned) == 2
        executor.close()
        assert not any(thread.is_alive() for thread in spawned)
        executor.close()  # idempotent
        z_b = executor.run(images[:4])  # a closed executor starts new threads
        assert z_b[3].tobytes() == single[3][0].tobytes()
        executor.close()
        assert _engine_threads() == before

    def test_close_waits_for_a_thread_inside_a_step(self):
        pool = _WorkerPool()
        entered, release = threading.Event(), threading.Event()
        finished = []

        def slow_step():
            entered.set()
            release.wait(timeout=30)
            finished.append(True)

        runner = threading.Thread(target=pool.run_all, args=([slow_step, lambda: None],))
        runner.start()
        assert entered.wait(timeout=30)
        closer = threading.Thread(target=pool.close)
        closer.start()
        closer.join(timeout=0.2)
        assert closer.is_alive(), "close() returned while a step was still running"
        release.set()
        closer.join(timeout=30)
        runner.join(timeout=30)
        assert not closer.is_alive() and not runner.is_alive()
        assert finished == [True] and not _engine_threads()

    def test_lane_errors_reach_the_caller(self):
        class Boom(RuntimeError):
            pass

        def explode():
            raise Boom("lane failure")

        pool = _WorkerPool()
        try:
            with pytest.raises(Boom):
                pool.run_all([explode, lambda: None])
            pool.run_all([lambda: None, lambda: None])  # still serviceable
        finally:
            pool.close()


class TestBlasPinAndWidth:
    def test_pin_leaves_every_pool_single_threaded(self):
        if not engine.pin_blas_threads():
            pytest.skip("no OpenBLAS control symbol resolves on this host")
        assert engine.blas_threads() == 1
        cores = len(engine_threads.os.sched_getaffinity(0))
        assert engine.fan_out_width() == cores
        assert engine.fan_out_width(replicas=2) == max(1, cores // 2)
        assert engine.fan_out_width(replicas=10 * cores) == 1

    def test_pin_only_touches_pools_that_are_not_pinned_yet(self, monkeypatch):
        # In a freshly forked replica the setter restarts the pool's
        # threads (they spin for ~0.1 s); the cluster pins before forking,
        # so a worker's own pin must find nothing to do.
        state, calls = {"threads": 4}, []

        def set_threads(n):
            calls.append(n)
            state["threads"] = n

        pools = ((set_threads, lambda: state["threads"]),)
        monkeypatch.setattr(engine_threads, "_openblas_pools", lambda: pools)
        assert engine.pin_blas_threads() and engine.pin_blas_threads()
        assert calls == [1] and engine.blas_threads() == 1

    def test_unresolvable_blas_means_no_fan_out(self, monkeypatch):
        monkeypatch.setattr(engine_threads, "_openblas_pools", lambda: None)
        assert not engine.pin_blas_threads()
        assert engine.blas_threads() is None
        assert engine.fan_out_width() == 1

    def test_threaded_blas_means_no_fan_out(self, monkeypatch):
        monkeypatch.setattr(engine_threads, "blas_threads", lambda: 2)
        assert engine.fan_out_width() == 1


class TestDeploymentFanOut:
    def test_build_pins_blas_and_divides_the_cores_by_the_replicas(self):
        spec = DeploymentSpec(model="mobilenet_v3_tiny", tasks=(("scale", 8),))
        with deploy(spec) as deployment:
            if engine.blas_threads() != 1:
                pytest.skip("no OpenBLAS control symbol resolves on this host")
            cores = len(engine_threads.os.sched_getaffinity(0))
            assert deployment.fan_out == cores
            assert deployment.pipeline.edge.session.fan_out == cores
        from repro.serve.deployment import Deployment

        with Deployment(spec, host_replicas=cores) as shared:
            assert shared.fan_out == 1

    def test_hires_warmup_binds_every_lane_and_close_leaves_no_thread(self, monkeypatch):
        spec = DeploymentSpec(
            model="mobilenet_v3_tiny", tasks=(("scale", 8), ("shape", 4)),
            input_size=224, wire="quant8", max_batch_size=2,
        )
        before = _engine_threads()
        deployment = deploy(spec)
        try:
            executor = deployment.pipeline.edge.session
            executor.fan_out = 2  # as on a 2-core host, whatever this one has
            deployment.warmup([2])
            template = executor._template((3, 224, 224))
            assert template.per_image and len(template.lanes) == 2
            assert len(_engine_threads() - before) == 2  # the edge's; heads stay batch-last

            built = []
            original = engine.ExecutionPlan.__init__

            def spy(self, *args, **kwargs):
                built.append(args[1])
                original(self, *args, **kwargs)

            monkeypatch.setattr(engine.ExecutionPlan, "__init__", spy)
            images = np.random.default_rng(1).random((4, 3, 224, 224), dtype=np.float32)
            outputs, _ = deployment.stream([images[:2], images[2:]])
            assert not built, f"the first stream still bound {built}"
            assert len(outputs) == 2
        finally:
            deployment.close()
        assert _engine_threads() == before, "engine threads leaked past close()"
