"""Replica cluster: supervision, crash injection, failover, drain.

The chaos contract under test (the ISSUE's acceptance gate): SIGKILL a
replica mid-burst and the supervisor must detect it within one
heartbeat, restart it under backoff, the router must fail the in-flight
micro-batch over to a healthy replica, the conservation ledger
``submitted == shed + completed + expired + failed + cancelled`` must
keep balancing, and retried results must equal fault-free results to
1e-6.

Lane hygiene (the CI-lane satellite): ``pytest-timeout`` is not
installed, so every test runs under a ``signal.alarm`` hard timeout; an
autouse fixture asserts ``multiprocessing.active_children()`` is empty
after every test — no orphaned replica processes, ever.
"""

import multiprocessing
import os
import signal
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.engine import blas_threads
from repro.serve import (
    ClusterDeployment,
    ClusterSpec,
    Deployment,
    DeploymentSpec,
    NoHealthyReplicaError,
    ReplicaManager,
    ShutdownError,
    SpecError,
    WorkerFaultPlan,
    deploy,
    deploy_cluster,
)

# ---------------------------------------------------------------------------
# Lane hygiene: hard timeout + orphan-process leak check
# ---------------------------------------------------------------------------
_HARD_TIMEOUT_S = 180


@pytest.fixture(autouse=True)
def hard_timeout():
    """Per-test wall-clock ceiling via SIGALRM (pytest-timeout is not
    available in this environment)."""
    if threading.current_thread() is not threading.main_thread():
        yield
        return

    def _on_alarm(signum, frame):  # pragma: no cover - only fires on hang
        raise TimeoutError(
            f"cluster test exceeded the {_HARD_TIMEOUT_S}s hard timeout"
        )

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(_HARD_TIMEOUT_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(autouse=True)
def no_orphan_workers():
    """Every test must reap every replica process it spawned."""
    yield
    deadline = time.monotonic() + 10.0
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.05)
    leftovers = multiprocessing.active_children()
    assert leftovers == [], f"orphaned worker processes: {leftovers}"


# ---------------------------------------------------------------------------
# Shared shapes
# ---------------------------------------------------------------------------
TASKS = (("scale", 8), ("shape", 4))


def deployment_spec(**overrides):
    base = dict(
        model="mobilenet_v3_tiny",
        tasks=TASKS,
        input_size=32,
        max_batch_size=4,
        max_queue_delay_ms=1.0,
        seed=0,
    )
    base.update(overrides)
    return DeploymentSpec(**base)


def cluster_spec(replicas=2, **overrides):
    dep = overrides.pop("deployment", None) or deployment_spec()
    base = dict(
        deployment=dep,
        replicas=replicas,
        heartbeat_ms=25.0,
        backoff_base_ms=5.0,
        backoff_cap_ms=50.0,
        max_restarts=5,
    )
    base.update(overrides)
    return ClusterSpec(**base)


def images_pool(count=8):
    rng = np.random.default_rng(0)
    return rng.standard_normal((count, 3, 32, 32)).astype(np.float32)


@pytest.fixture(scope="module")
def reference_rows():
    """Fault-free single-process logits for the shared image pool — the
    1e-6 equivalence baseline every chaos test compares against."""
    pool = images_pool()
    with deploy(deployment_spec()) as dep:
        return pool, dep.infer(pool)


def wait_until(predicate, timeout=10.0, interval=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


def assert_conservation(stats):
    assert stats.submitted == stats.shed + stats.requests
    assert stats.requests == (
        stats.completed + stats.expired + stats.failed + stats.cancelled
    )


# ---------------------------------------------------------------------------
# ClusterSpec
# ---------------------------------------------------------------------------
class TestClusterSpec:
    def test_round_trips_through_json(self):
        spec = cluster_spec(
            replicas=3,
            worker_faults=WorkerFaultPlan(kill_indices=(2, 9), seed=5),
        )
        clone = ClusterSpec.from_json(spec.to_json())
        assert clone == spec
        assert clone.worker_faults.digest() == spec.worker_faults.digest()

    def test_accepts_dict_deployment_and_string_faults(self):
        spec = ClusterSpec(
            deployment=deployment_spec().to_dict(),
            replicas=2,
            worker_faults="at=1+4,max=2,seed=9",
        )
        assert isinstance(spec.deployment, DeploymentSpec)
        assert spec.worker_faults == WorkerFaultPlan(
            kill_indices=(1, 4), max_kills=2, seed=9
        )

    def test_replicas_default_from_deployment_spec(self):
        spec = ClusterSpec(deployment=deployment_spec(replicas=3))
        assert spec.replicas == 3

    def test_rejects_degenerate_knobs(self):
        with pytest.raises(SpecError, match="replicas"):
            ClusterSpec(deployment=deployment_spec(), replicas=0)
        with pytest.raises(SpecError, match="heartbeat_ms"):
            ClusterSpec(deployment=deployment_spec(), heartbeat_ms=0)
        with pytest.raises(SpecError, match="max_restarts"):
            ClusterSpec(deployment=deployment_spec(), max_restarts=-1)
        with pytest.raises(SpecError, match="worker_faults"):
            ClusterSpec(deployment=deployment_spec(), worker_faults=3.14)
        with pytest.raises(SpecError, match="unknown ClusterSpec keys"):
            ClusterSpec.from_dict({"deployment": deployment_spec().to_dict(),
                                   "heartbeats": 1})

    def test_replicas_above_one_require_registry_model(self):
        # Worker processes rebuild the net from the serialised spec, so a
        # live model object cannot be a multi-replica deployment.
        with pytest.raises(SpecError, match="registry"):
            DeploymentSpec(model=object(), tasks=TASKS, replicas=2)

    def test_describe_names_the_chaos(self):
        spec = cluster_spec(worker_faults="at=8,seed=3")
        text = spec.describe()
        assert "2 replica(s)" in text
        assert "worker_faults=at=8,seed=3" in text


# ---------------------------------------------------------------------------
# Plain serving: cluster ≡ single process
# ---------------------------------------------------------------------------
class TestClusterServing:
    def test_deploy_dispatches_on_replicas(self):
        with deploy(deployment_spec(replicas=2)) as dep:
            assert isinstance(dep, ClusterDeployment)
            assert dep.replicas == 2
        with deploy(deployment_spec()) as dep:
            assert isinstance(dep, Deployment)
        assert ReplicaManager is ClusterDeployment

    def test_results_match_single_process(self, reference_rows):
        pool, expected = reference_rows
        with deploy_cluster(cluster_spec()) as cluster:
            sync = cluster.infer(pool)
            futures = [cluster.submit(image) for image in pool]
            rows = [f.result(timeout=60) for f in futures]
        for name in ("scale", "shape"):
            np.testing.assert_allclose(
                sync[name], expected[name], atol=1e-6
            )
            got = np.stack([row[name] for row in rows])
            np.testing.assert_allclose(got, expected[name], atol=1e-6)

    def test_report_aggregates_per_replica(self, reference_rows):
        pool, _ = reference_rows
        with deploy_cluster(cluster_spec()) as cluster:
            cluster.warmup((1, 4))
            futures = [cluster.submit(image) for image in pool]
            for f in futures:
                f.result(timeout=60)
            report = cluster.report()
        assert report.state == "HEALTHY"
        assert len(report.per_replica) == 2
        assert all(entry["alive"] for entry in report.per_replica)
        assert {e["pid"] for e in report.per_replica if e["alive"]} != {
            os.getpid()
        }
        dispatched = sum(e["dispatches"] for e in report.per_replica)
        assert dispatched >= 1
        served = [e for e in report.per_replica if e["dispatches"]]
        assert all(e["p50_ms"] <= e["p95_ms"] for e in served)
        assert report.aggregate.replicas == 2
        assert report.aggregate.images >= len(pool)
        assert report.worker_fault_digest is None
        assert report.batching["submitted"] == len(pool)
        assert report.batching["completed"] == len(pool)
        payload = report.to_dict()
        assert payload["batching"]["completed"] == len(pool)

    def test_task_names_and_describe(self):
        with deploy_cluster(cluster_spec()) as cluster:
            assert cluster.task_names == ("scale", "shape")
            assert "2 replica(s)" in cluster.describe()
            assert cluster.queue_depth == 0
            # Workers boot as single deployments but learn how many share
            # the host (their fan-out width is cores // replicas), and are
            # forked from a parent whose BLAS pools are already pinned.
            assert cluster.spec.deployment.replicas == 1
            assert cluster._payload["replicas"] == 2
            assert blas_threads() in (1, None)


# ---------------------------------------------------------------------------
# Chaos: crash injection, detection, failover, recovery
# ---------------------------------------------------------------------------
class TestChaos:
    def test_injected_kill_fails_over_and_recovers(self, reference_rows):
        """The acceptance chaos run: a scheduled SIGKILL lands mid-request,
        the batch fails over, the replica restarts, results stay exact."""
        pool, expected = reference_rows
        spec = cluster_spec(
            worker_faults=WorkerFaultPlan(kill_indices=(1,), seed=7),
        )
        with deploy_cluster(spec) as cluster:
            futures = [cluster.submit(image) for image in pool]
            futures += [cluster.submit(image) for image in pool]
            rows = [f.result(timeout=60) for f in futures]

            assert cluster.stats.kills_injected == 1
            assert cluster.stats.failovers >= 1
            assert cluster.stats.failover_failures == 0

            # Supervisor saw the crash and brought the replica back.
            assert wait_until(
                lambda: cluster.supervisor.stats.restarts >= 1
            )
            assert wait_until(lambda: cluster.alive_replicas() == 2)
            sup = cluster.supervisor.stats
            assert sup.crashes_detected >= 1
            assert (
                sup.crashes_by_notification + sup.crashes_by_heartbeat
                == sup.crashes_detected
            )
            assert sup.restarts >= 1

            # The state machine proves DEGRADED happened and healed.
            assert wait_until(lambda: cluster.state == "HEALTHY")
            history = cluster.state_machine.history()
            assert any(step["to"] == "DEGRADED" for step in history)
            assert history[-1]["to"] == "HEALTHY"
            assert cluster.state_machine.degraded_events >= 1
            assert cluster.state_machine.recoveries >= 1

            # Conservation across the crash.
            stats = cluster.batching_stats
            assert stats.submitted == 2 * len(pool)
            assert stats.completed == 2 * len(pool)
            assert_conservation(stats)

            # Failed-over results ≡ fault-free results.
            for i, row in enumerate(rows):
                for name in ("scale", "shape"):
                    np.testing.assert_allclose(
                        row[name], expected[name][i % len(pool)], atol=1e-6
                    )

            report = cluster.report()
            assert report.kills_injected == 1
            assert report.worker_fault_digest == spec.worker_faults.digest()
            assert report.aggregate.worker_crashes >= 1
            assert report.aggregate.worker_restarts >= 1
            assert report.aggregate.failovers >= 1

    def test_idle_kill_detected_within_heartbeat(self):
        """Nobody is talking to the victim — only the heartbeat sweep can
        notice, and must, within roughly one heartbeat interval."""
        with deploy_cluster(cluster_spec()) as cluster:
            victim = cluster._handles[0]
            os.kill(victim.process.pid, signal.SIGKILL)
            detected_at = time.monotonic()
            assert wait_until(
                lambda: cluster.supervisor.stats.crashes_by_heartbeat >= 1,
                timeout=5.0,
            )
            # Generous bound for a loaded 1-core CI host: within a few
            # heartbeat intervals, not "eventually".
            assert time.monotonic() - detected_at < 2.0
            assert wait_until(
                lambda: cluster.supervisor.stats.restarts >= 1
            )
            assert wait_until(lambda: cluster.alive_replicas() == 2)
            # The replacement serves.
            result = cluster.infer(images_pool(2))
            assert result["scale"].shape == (2, 8)

    def test_restart_backoff_is_charged(self):
        """Back-to-back kills of the same slot accrue exponential backoff."""
        spec = cluster_spec(backoff_base_ms=20.0, backoff_cap_ms=200.0)
        with deploy_cluster(spec) as cluster:
            for round_ in range(1, 4):
                victim = cluster._handles[0]
                os.kill(victim.process.pid, signal.SIGKILL)
                # ``is_alive()`` lags a SIGKILL, so wait on the restart
                # counter (not the census) before killing again.
                assert wait_until(
                    lambda: cluster.supervisor.stats.restarts >= round_,
                    timeout=10.0,
                )
            sup = cluster.supervisor.stats
            assert sup.restarts_per_slot.get(0, 0) >= 3
            # 2nd restart waits 20 ms, 3rd 40 ms (1st is free).
            assert sup.backoff_seconds >= 0.019

    def test_restart_budget_exhaustion_abandons_slot(self):
        spec = cluster_spec(max_restarts=0)
        with deploy_cluster(spec) as cluster:
            victim = cluster._handles[1]
            os.kill(victim.process.pid, signal.SIGKILL)
            assert wait_until(
                lambda: cluster.supervisor.abandoned_slots == (1,),
                timeout=5.0,
            )
            assert cluster.supervisor.stats.slots_abandoned == 1
            assert cluster.supervisor.stats.restarts == 0
            assert wait_until(lambda: cluster.state == "DEGRADED")
            # n-1 serving continues on the surviving replica.
            result = cluster.infer(images_pool(2))
            assert result["shape"].shape == (2, 4)
            report = cluster.report()
            entry = report.per_replica[1]
            assert entry["alive"] is False

    def test_all_replicas_dead_fails_requests_not_ledger(self):
        spec = cluster_spec(
            replicas=1, max_restarts=0, lease_timeout_s=0.5
        )
        with deploy_cluster(spec) as cluster:
            os.kill(cluster._handles[0].process.pid, signal.SIGKILL)
            assert wait_until(
                lambda: cluster.state == "DEAD", timeout=5.0
            )
            future = cluster.submit(images_pool(1)[0])
            with pytest.raises(NoHealthyReplicaError):
                future.result(timeout=30)
            stats = cluster.batching_stats
            assert stats.failed >= 1
            assert_conservation(stats)


# ---------------------------------------------------------------------------
# Conservation ledger under hypothesis-driven chaos bursts
# ---------------------------------------------------------------------------
class TestConservationUnderChaos:
    @settings(max_examples=3, deadline=None)
    @given(
        bursts=st.lists(
            st.tuples(
                st.integers(min_value=2, max_value=6),  # burst size
                st.booleans(),                          # kill mid-burst?
            ),
            min_size=1,
            max_size=3,
        )
    )
    def test_ledger_balances_across_kills(self, reference_rows, bursts):
        """Arbitrary burst schedules with SIGKILLs landing mid-burst:
        every future resolves, the ledger balances, completed results
        stay ≡ fault-free to 1e-6."""
        pool, expected = reference_rows
        submitted = 0
        with deploy_cluster(cluster_spec()) as cluster:
            for size, kill in bursts:
                futures = [
                    (i % len(pool), cluster.submit(pool[i % len(pool)]))
                    for i in range(submitted, submitted + size)
                ]
                submitted += size
                if kill:
                    with cluster._pool:
                        live = [
                            h for h in cluster._handles
                            if h is not None and h.is_alive()
                        ]
                    if live:
                        os.kill(live[0].process.pid, signal.SIGKILL)
                for index, future in futures:
                    row = future.result(timeout=60)
                    for name in ("scale", "shape"):
                        np.testing.assert_allclose(
                            row[name], expected[name][index], atol=1e-6
                        )
            assert wait_until(lambda: cluster.alive_replicas() == 2)
            stats = cluster.batching_stats
            assert stats.submitted == submitted
            assert stats.completed == submitted
            assert_conservation(stats)
        # ... and the ledger still balances after the drain.
        assert_conservation(cluster.batching_stats)


# ---------------------------------------------------------------------------
# Graceful drain + close semantics
# ---------------------------------------------------------------------------
class TestDrainAndClose:
    def test_drain_strands_no_future(self):
        """close() during in-flight traffic: every future resolves — with
        a result or the named ShutdownError — and the ledger balances."""
        pool = images_pool()
        cluster = deploy_cluster(cluster_spec())
        try:
            futures = [
                cluster.submit(pool[i % len(pool)]) for i in range(32)
            ]
        finally:
            cluster.close()
        outcomes = {"completed": 0, "shutdown": 0}
        for future in futures:
            assert future.done(), "close() stranded a future"
            try:
                row = future.result(timeout=0)
                assert row["scale"].shape == (8,)
                outcomes["completed"] += 1
            except ShutdownError:
                outcomes["shutdown"] += 1
        stats = cluster.batching_stats
        assert outcomes["completed"] == stats.completed
        assert outcomes["completed"] + outcomes["shutdown"] == 32
        assert_conservation(stats)
        assert cluster.closed

    def test_close_is_idempotent_and_concurrent_safe(self):
        cluster = deploy_cluster(cluster_spec())
        errors = []

        def closer():
            try:
                cluster.close()
            except BaseException as error:  # pragma: no cover
                errors.append(error)

        threads = [threading.Thread(target=closer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not errors
        assert cluster.closed
        cluster.close()  # idempotent
        with pytest.raises(RuntimeError):
            cluster.infer(images_pool(1))
        with pytest.raises(RuntimeError, match="closed"):
            cluster.submit(images_pool(1)[0])

    def test_context_manager_reclaims_threads(self):
        before = {
            t.name for t in threading.enumerate() if t.is_alive()
        }
        with deploy_cluster(cluster_spec()) as cluster:
            cluster.infer(images_pool(2))
            alive = {
                t.name
                for t in threading.enumerate()
                if t.is_alive() and t.name not in before
            }
            assert any(
                name.startswith("repro-serve-supervisor") for name in alive
            )
            assert any(
                name.startswith("repro-serve-batcher") for name in alive
            )
        leftover = {
            t.name
            for t in threading.enumerate()
            if t.is_alive()
            and t.name not in before
            and (
                t.name.startswith("repro-serve-supervisor")
                or t.name.startswith("repro-serve-batcher")
                or t.name.startswith("repro-serve-cache")
            )
        }
        assert leftover == set()

    def test_close_while_replica_dead_still_drains(self):
        cluster = deploy_cluster(cluster_spec(max_restarts=0))
        os.kill(cluster._handles[0].process.pid, signal.SIGKILL)
        wait_until(lambda: cluster.supervisor.abandoned_slots == (0,))
        futures = [cluster.submit(image) for image in images_pool(4)]
        cluster.close()
        for future in futures:
            assert future.done()
        assert_conservation(cluster.batching_stats)
        assert cluster.closed
