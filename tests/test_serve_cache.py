"""Content-addressed serve caching: keys, policy, store, tiers, serving.

The contract under test (see ``docs/caching.md``):

* **Keys** — the tensor digest is a pure function of (dtype, shape,
  values): memory layout (C vs Fortran order, negative strides, views)
  must not change it, while any dtype or shape difference must.
* **Policy** — :class:`~repro.serve.CachePolicy` round-trips exactly
  through dict/JSON/compact string, like every other spec in the repo.
* **Store** — byte-accurate LRU with optional TTL on an *injected*
  clock, so expiry is tested deterministically, not with sleeps.
* **Serving** — cache-on must be indistinguishable from cache-off
  except faster: results within 1e-6 of the uncached path, repeats
  bit-identical to their first occurrence, the admission ledger
  extended to ``submitted == shed + cache_hits + requests``, and
  duplicate storms against a gated model computing exactly once
  (single-flight).
"""

import threading
import time
from concurrent.futures import Future

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve import DeploymentSpec, SpecError, deploy
from repro.serve.batching import DynamicBatcher
from repro.serve.cache import (
    CACHE_TIERS,
    ByteLRUStore,
    CachePolicy,
    FeatureCache,
    ResponseCache,
    ServeCache,
    combine_digests,
    provenance_digest,
    tensor_digest,
)

TASKS = (("scale", 8), ("shape", 4))


# ---------------------------------------------------------------------------
# Lane hygiene: no cache thread may survive any test in this file
# ---------------------------------------------------------------------------
@pytest.fixture(autouse=True)
def no_cache_thread_leak():
    yield
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        leaked = [
            t.name
            for t in threading.enumerate()
            if t.is_alive() and t.name.startswith("repro-serve-cache")
        ]
        if not leaked:
            return
        time.sleep(0.02)
    assert leaked == [], f"leaked cache threads: {leaked}"


def serving_spec(**overrides):
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


def images(count=4, seed=0, size=32):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((count, 3, size, size)).astype(np.float32)


# ---------------------------------------------------------------------------
# Keys: canonicalization properties
# ---------------------------------------------------------------------------
class TestTensorDigest:
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(2, 5),
        st.integers(2, 5),
    )
    @settings(max_examples=25, deadline=None)
    def test_layout_never_changes_the_key(self, seed, rows, cols):
        rng = np.random.default_rng(seed)
        c_order = np.ascontiguousarray(
            rng.standard_normal((rows, cols)).astype(np.float32)
        )
        f_order = np.asfortranarray(c_order)
        # A negative-stride view with the same values: store the rows
        # reversed, then view them reversed back.
        flipped = np.ascontiguousarray(c_order[::-1])[::-1]
        assert flipped.strides[0] < 0
        reference = tensor_digest(c_order)
        assert tensor_digest(f_order) == reference
        assert tensor_digest(flipped) == reference
        # A view into a larger buffer with the same values matches too.
        padded = np.zeros((rows + 2, cols + 2), dtype=np.float32)
        padded[1 : rows + 1, 1 : cols + 1] = c_order
        assert tensor_digest(padded[1 : rows + 1, 1 : cols + 1]) == reference

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_dtype_always_changes_the_key(self, seed):
        rng = np.random.default_rng(seed)
        values = rng.integers(0, 100, size=(3, 3))
        keys = {
            tensor_digest(values.astype(dtype))
            for dtype in (np.float32, np.float64, np.int32, np.int64)
        }
        assert len(keys) == 4

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_shape_always_changes_the_key(self, seed):
        rng = np.random.default_rng(seed)
        flat = rng.standard_normal(12).astype(np.float32)
        keys = {
            tensor_digest(flat.reshape(shape))
            for shape in ((12,), (3, 4), (4, 3), (2, 6), (2, 2, 3))
        }
        assert len(keys) == 5

    def test_value_changes_the_key(self):
        a = np.zeros((2, 2), dtype=np.float32)
        b = a.copy()
        b[0, 0] = np.float32(1e-30)
        assert tensor_digest(a) != tensor_digest(b)

    def test_combine_prefixes_with_provenance(self):
        array = np.ones((2, 2), dtype=np.float32)
        p1 = provenance_digest(["plan A"])
        p2 = provenance_digest(["plan B"])
        k1 = combine_digests(p1, tensor_digest(array))
        k2 = combine_digests(p2, tensor_digest(array))
        assert k1 != k2
        assert k1.split(":")[1] == k2.split(":")[1]

    def test_provenance_parts_are_length_prefixed(self):
        # ["ab", "c"] and ["a", "bc"] must not collide.
        assert provenance_digest(["ab", "c"]) != provenance_digest(["a", "bc"])


# ---------------------------------------------------------------------------
# Policy: validation + round-trips
# ---------------------------------------------------------------------------
class TestCachePolicy:
    def test_defaults(self):
        policy = CachePolicy()
        assert policy.tier == "both"
        assert policy.enabled
        assert policy.response_enabled and policy.feature_enabled

    def test_bad_values_rejected(self):
        with pytest.raises(ValueError, match="tier"):
            CachePolicy(tier="l2")
        with pytest.raises(ValueError, match="capacity_bytes"):
            CachePolicy(capacity_bytes=0)
        with pytest.raises(ValueError, match="max_entries"):
            CachePolicy(max_entries=0)
        with pytest.raises(ValueError, match="ttl_s"):
            CachePolicy(ttl_s=0.0)

    @pytest.mark.parametrize("tier", CACHE_TIERS)
    def test_tier_selection(self, tier):
        policy = CachePolicy(tier=tier)
        assert policy.response_enabled == (tier in ("response", "both"))
        assert policy.feature_enabled == (tier in ("feature", "both"))

    @pytest.mark.parametrize("text", [
        "both",
        "response",
        "feature:capacity=1048576",
        "both:entries=16,ttl=2.5",
        "off",
        "response:enabled=0",
    ])
    def test_string_round_trip(self, text):
        policy = CachePolicy.from_string(text)
        again = CachePolicy.from_string(policy.to_string())
        assert again == policy
        assert CachePolicy.from_dict(policy.to_dict()) == policy
        assert CachePolicy.from_json(policy.to_json()) == policy

    @given(
        st.sampled_from(CACHE_TIERS),
        st.booleans(),
        st.integers(1, 2**30),
        st.integers(1, 10_000),
        st.one_of(st.none(), st.floats(0.001, 3600.0)),
    )
    @settings(max_examples=40, deadline=None)
    def test_round_trip_property(self, tier, enabled, capacity, entries, ttl):
        policy = CachePolicy(
            tier=tier,
            enabled=enabled,
            capacity_bytes=capacity,
            max_entries=entries,
            ttl_s=ttl,
        )
        assert CachePolicy.from_string(policy.to_string()) == policy
        assert CachePolicy.from_json(policy.to_json()) == policy

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            CachePolicy.from_dict({"tier": "both", "capactiy": 1})
        with pytest.raises(ValueError, match="key"):
            CachePolicy.from_string("both:capactiy=1")

    def test_off_shorthand_disables(self):
        assert not CachePolicy.from_string("off").enabled

    def test_spec_coerces_and_round_trips(self):
        spec = serving_spec(cache="response:entries=32")
        assert isinstance(spec.cache, CachePolicy)
        assert spec.cache.max_entries == 32
        again = DeploymentSpec.from_json(spec.to_json())
        assert again.cache == spec.cache
        assert DeploymentSpec.from_dict(spec.to_dict()).cache == spec.cache

    def test_spec_rejects_garbage_cache(self):
        with pytest.raises(SpecError, match="cache"):
            serving_spec(cache=42)
        with pytest.raises(SpecError, match="cache"):
            serving_spec(cache="l2:capacity=1")

    def test_cache_changes_spec_digest(self):
        assert (
            serving_spec(cache="both").digest()
            != serving_spec(cache=None).digest()
        )
        assert serving_spec(cache="both").digest() == serving_spec(
            cache="both"
        ).digest()


# ---------------------------------------------------------------------------
# Store: byte-accurate LRU + TTL on an injected clock
# ---------------------------------------------------------------------------
class TestByteLRUStore:
    def test_lru_eviction_order(self):
        store = ByteLRUStore(capacity_bytes=300, max_entries=16)
        for name in ("a", "b", "c"):
            assert store.put(name, name, 100)
        assert store.get("a") is not None  # refresh a: b is now coldest
        assert store.put("d", "d", 100)
        assert store.get("b") is None
        assert store.get("a") == "a"
        assert store.get("c") == "c"
        assert store.get("d") == "d"
        assert store.stats.lru_evictions == 1

    def test_byte_accounting_is_exact(self):
        store = ByteLRUStore(capacity_bytes=1000, max_entries=100)
        store.put("a", "a", 400)
        store.put("b", "b", 400)
        assert store.bytes_used == 800
        store.put("c", "c", 400)  # over budget: evict "a"
        assert store.bytes_used == 800
        assert len(store) == 2
        store.put("b", "B", 100)  # replace shrinks the account
        assert store.bytes_used == 500
        store.clear()
        assert store.bytes_used == 0 and len(store) == 0

    def test_max_entries_budget(self):
        store = ByteLRUStore(capacity_bytes=1 << 20, max_entries=2)
        for name in ("a", "b", "c"):
            store.put(name, name, 10)
        assert len(store) == 2
        assert store.get("a") is None

    def test_oversize_rejected_not_thrashing(self):
        store = ByteLRUStore(capacity_bytes=100, max_entries=8)
        store.put("small", "s", 50)
        assert not store.put("huge", "h", 500)
        assert store.get("small") == "s"  # nothing was evicted for it
        assert store.stats.oversize_rejections == 1

    def test_ttl_expiry_on_injected_clock(self):
        now = [0.0]
        store = ByteLRUStore(
            capacity_bytes=1000, max_entries=8, ttl_s=10.0, clock=lambda: now[0]
        )
        store.put("a", "a", 10)
        now[0] = 9.9
        assert store.get("a") == "a"
        now[0] = 10.1
        assert store.get("a") is None
        assert store.stats.ttl_evictions == 1
        assert store.bytes_used == 0

    def test_sweep_reclaims_expired_bytes(self):
        now = [0.0]
        store = ByteLRUStore(
            capacity_bytes=1000, max_entries=8, ttl_s=5.0, clock=lambda: now[0]
        )
        store.put("a", "a", 10)
        store.put("b", "b", 10)
        now[0] = 6.0
        store.put("c", "c", 10)
        assert store.sweep() == 2
        assert store.bytes_used == 10
        assert store.stats.ttl_evictions == 2

    def test_peek_has_no_side_effects(self):
        store = ByteLRUStore(capacity_bytes=300, max_entries=16)
        store.put("a", "a", 100)
        store.put("b", "b", 100)
        store.peek("a")  # must NOT refresh recency
        store.put("c", "c", 100)
        store.put("d", "d", 100)
        assert store.get("a") is None
        hits, misses = store.stats.hits, store.stats.misses
        store.peek("zzz")
        assert (store.stats.hits, store.stats.misses) == (hits, misses)


# ---------------------------------------------------------------------------
# Tiers: defensive copies + provenance namespaces
# ---------------------------------------------------------------------------
class TestTiers:
    def test_response_put_freezes_and_shares(self):
        cache = ResponseCache(CachePolicy(tier="response"), "prov")
        row = np.arange(4, dtype=np.float32)
        key = cache.key_for(row)
        stored = cache.put(key, {"scale": row})
        row[0] = 99.0  # client mutation must not reach the cache
        hit = cache.get(key)
        assert hit["scale"][0] == 0.0
        assert not hit["scale"].flags.writeable
        with pytest.raises((ValueError, RuntimeError)):
            hit["scale"][0] = 1.0
        hit["extra"] = "mine"  # dict is the client's to mutate
        assert "extra" not in cache.get(key)
        assert stored["scale"][0] == 0.0

    def test_feature_put_returns_usable_copy_even_when_oversize(self):
        policy = CachePolicy(tier="feature", capacity_bytes=64, max_entries=4)
        cache = FeatureCache(policy, "prov")
        big = np.zeros(1024, dtype=np.float32)
        key = cache.key_for(big)
        frozen = cache.put(key, big)
        assert frozen is not None and frozen.shape == big.shape
        assert cache.get(key) is None  # too big to keep
        assert cache.stats.oversize_rejections == 1

    def test_provenance_separates_namespaces(self):
        a = ResponseCache(CachePolicy(), provenance_digest(["plan A"]))
        b = ResponseCache(CachePolicy(), provenance_digest(["plan B"]))
        row = np.ones(3, dtype=np.float32)
        assert a.key_for(row) != b.key_for(row)


# ---------------------------------------------------------------------------
# ServeCache lifecycle: sweeper thread + close()
# ---------------------------------------------------------------------------
class TestServeCacheLifecycle:
    def test_no_sweeper_without_ttl(self):
        cache = ServeCache(CachePolicy(), "prov")
        assert cache._sweeper is None
        cache.close()

    def test_sweeper_starts_and_close_reclaims_it(self):
        policy = CachePolicy(ttl_s=30.0, sweep_interval_s=0.01)
        cache = ServeCache(policy, "prov")
        assert cache._sweeper is not None and cache._sweeper.is_alive()
        assert cache._sweeper.name == "repro-serve-cache-sweeper"
        cache.close()
        assert cache._sweeper is None
        assert not any(
            t.name.startswith("repro-serve-cache")
            for t in threading.enumerate()
            if t.is_alive()
        )
        cache.close()  # idempotent

    def test_sweeper_actually_sweeps(self):
        policy = CachePolicy(tier="response", ttl_s=0.02, sweep_interval_s=0.01)
        with ServeCache(policy, "prov") as cache:
            row = np.ones(4, dtype=np.float32)
            key = cache.response.key_for(row)
            cache.response.put(key, row)
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                if cache.response.stats.snapshot()["bytes_used"] == 0:
                    break
                time.sleep(0.01)
            assert cache.response.stats.snapshot()["bytes_used"] == 0

    def test_stats_lists_enabled_tiers_only(self):
        with ServeCache(CachePolicy(tier="response"), "p") as cache:
            assert set(cache.stats()) == {"response"}
        with ServeCache(CachePolicy(tier="both"), "p") as cache:
            assert set(cache.stats()) == {"response", "feature"}


# ---------------------------------------------------------------------------
# Batcher integration: admission hits, single-flight, conservation
# ---------------------------------------------------------------------------
def response_cache(**policy_overrides):
    policy = CachePolicy(tier="response", **policy_overrides)
    return ResponseCache(policy, provenance_digest(["test"]))


class TestBatcherCache:
    def test_hit_resolves_at_admission(self):
        calls = []

        def infer(batch):
            calls.append(len(batch))
            return {"out": np.asarray(batch).sum(axis=(1,)) * 0 + len(calls)}

        batcher = DynamicBatcher(
            infer, max_batch_size=4, max_queue_delay_ms=0.0,
            response_cache=response_cache(),
        )
        try:
            image = np.ones(3, dtype=np.float32)
            first = batcher.submit(image).result(timeout=10)
            second = batcher.submit(image).result(timeout=10)
            assert sum(calls) == 1
            np.testing.assert_array_equal(first["out"], second["out"])
            assert second["out"].tobytes() == first["out"].tobytes()
            stats = batcher.stats
            assert stats.submitted == 2
            assert stats.cache_hits == 1
            assert stats.requests == 1
            assert stats.submitted == (
                stats.shed + stats.cache_hits + stats.requests
            )
        finally:
            batcher.close()

    def test_single_flight_storm_computes_once(self):
        gate = threading.Event()
        calls = []

        def infer(batch):
            calls.append(np.asarray(batch).shape[0])
            assert gate.wait(timeout=30)
            return {"out": np.zeros((np.asarray(batch).shape[0], 2),
                                    dtype=np.float32)}

        batcher = DynamicBatcher(
            infer, max_batch_size=1, max_queue_delay_ms=0.0,
            response_cache=response_cache(),
        )
        try:
            image = np.full(8, 3.0, dtype=np.float32)
            futures = [batcher.submit(image) for _ in range(16)]
            # One primary is (gated) in flight; the other 15 joined it.
            gate.set()
            results = [f.result(timeout=30) for f in futures]
            assert sum(calls) == 1
            reference = results[0]["out"].tobytes()
            assert all(r["out"].tobytes() == reference for r in results)
            stats = batcher.stats
            assert stats.submitted == 16
            assert stats.requests == 1
            assert stats.cache_hits == 15
            cache = batcher._response_cache
            assert cache.stats.coalesced == 15
        finally:
            gate.set()
            batcher.close()

    def test_follower_shares_primary_error(self):
        gate = threading.Event()

        def infer(batch):
            assert gate.wait(timeout=30)
            raise RuntimeError("engine exploded")

        batcher = DynamicBatcher(
            infer, max_batch_size=1, max_queue_delay_ms=0.0,
            response_cache=response_cache(),
        )
        try:
            image = np.ones(4, dtype=np.float32)
            primary = batcher.submit(image)
            follower = batcher.submit(image)
            gate.set()
            with pytest.raises(RuntimeError, match="engine exploded"):
                primary.result(timeout=30)
            with pytest.raises(RuntimeError, match="engine exploded"):
                follower.result(timeout=30)
            stats = batcher.stats
            assert stats.submitted == stats.shed + stats.cache_hits + stats.requests
            assert stats.requests == (
                stats.completed + stats.expired + stats.failed + stats.cancelled
            )
        finally:
            gate.set()
            batcher.close()

    @given(st.lists(st.integers(0, 5), min_size=1, max_size=40))
    @settings(max_examples=20, deadline=None)
    def test_conservation_with_cache_hits(self, draws):
        def infer(batch):
            return {"out": np.asarray(batch) * 2.0}

        batcher = DynamicBatcher(
            infer, max_batch_size=4, max_queue_delay_ms=0.0,
            response_cache=response_cache(),
        )
        try:
            pool = [
                np.full(4, float(value), dtype=np.float32) for value in range(6)
            ]
            futures = [batcher.submit(pool[index]) for index in draws]
            for future in futures:
                future.result(timeout=30)
        finally:
            batcher.close()
        stats = batcher.stats
        assert stats.submitted == len(draws)
        assert stats.submitted == stats.shed + stats.cache_hits + stats.requests
        assert stats.requests == (
            stats.completed + stats.expired + stats.failed + stats.cancelled
        )
        assert stats.requests <= len(set(draws))


# ---------------------------------------------------------------------------
# End-to-end: deployments with caching on ≡ off
# ---------------------------------------------------------------------------
class TestDeploymentCaching:
    def test_response_hits_are_bit_identical_and_ledger_extends(self):
        with deploy(serving_spec(cache="response")) as dep:
            image = images(1)[0]
            first = dep.submit(image).result(timeout=60)
            second = dep.submit(image).result(timeout=60)
            for task in first:
                assert first[task].tobytes() == second[task].tobytes()
            stats = dep.batching_stats
            assert stats.cache_hits >= 1
            assert stats.submitted == (
                stats.shed + stats.cache_hits + stats.requests
            )
            snapshot = dep.cache_stats()
            assert snapshot["response"]["hits"] + snapshot["response"][
                "coalesced"
            ] >= 1

    def test_cache_on_matches_cache_off_numerics(self):
        batch = images(4)
        with deploy(serving_spec(cache=None)) as off:
            reference = off.infer(batch)
        with deploy(serving_spec(cache="both")) as on:
            cold = on.infer(batch)     # populates the feature tier
            warm = on.infer(batch)     # served from it
            for task in reference:
                np.testing.assert_allclose(
                    cold[task], reference[task], atol=1e-6
                )
                np.testing.assert_allclose(
                    warm[task], reference[task], atol=1e-6
                )
            stats = on.cache_stats()
            assert stats["feature"]["hits"] >= len(batch)

    def test_feature_tier_counters_reach_the_report(self):
        batch = images(4)
        with deploy(serving_spec(cache="feature")) as dep:
            dep.infer(batch)
            _, report = dep.stream([batch, batch])
        assert report.feature_hits + report.feature_misses > 0
        assert report.feature_hits >= len(batch)

    def test_cache_off_spec_has_no_cache_machinery(self):
        with deploy(serving_spec(cache=None)) as dep:
            assert dep.cache is None
            assert dep.cache_stats() == {}
            assert dep.pipeline.feature_cache is None
        with deploy(serving_spec(cache="off")) as dep:
            assert dep.cache is None

    def test_ttl_evicts_between_submits(self):
        spec = serving_spec(cache="response:ttl=0.01,sweep=0.005")
        with deploy(spec) as dep:
            image = images(1)[0]
            dep.submit(image).result(timeout=60)
            time.sleep(0.1)  # sweeper runs on its own thread
            snapshot = dep.cache_stats()["response"]
            assert snapshot["ttl_evictions"] >= 1 or snapshot["entries"] == 0

    def test_provenance_differs_across_optimize_flag(self):
        with deploy(
            serving_spec(cache="both", optimize=True)
        ) as a, deploy(
            serving_spec(cache="both", optimize=False)
        ) as b:
            assert a.cache.provenance != b.cache.provenance

    def test_provenance_stable_for_same_registry_spec(self):
        spec = serving_spec(cache="both")
        with deploy(spec) as a, deploy(spec) as b:
            assert a.cache.provenance == b.cache.provenance

    def test_in_memory_models_get_private_namespaces(self, tiny_trained_net):
        spec = serving_spec(model=tiny_trained_net, cache="response")
        with deploy(spec) as a, deploy(spec) as b:
            assert a.cache.provenance != b.cache.provenance


# ---------------------------------------------------------------------------
# Cluster: router-side response tier
# ---------------------------------------------------------------------------
class TestClusterCache:
    def test_router_cache_hits_and_clean_close(self):
        spec = serving_spec(cache="both", replicas=2)
        with deploy(spec) as cluster:
            image = images(1)[0]
            first = cluster.submit(image).result(timeout=120)
            second = cluster.submit(image).result(timeout=120)
            for task in first:
                assert first[task].tobytes() == second[task].tobytes()
            report = cluster.report()
            assert report.batching["cache_hits"] >= 1
            assert report.aggregate.response_hits >= 1
            stats = cluster.batching_stats
            assert stats.submitted == (
                stats.shed + stats.cache_hits + stats.requests
            )
