"""The batched inference service: scheduler, autotune cache, service."""

import json
import pickle

import numpy as np
import pytest

from repro.accel import ArchConfig, CachedTuning, GcnAccelerator
from repro.datasets import dataset_fingerprint, load_dataset
from repro.datasets.rmat import edges_fingerprint
from repro.errors import ConfigError
from repro.serve import (
    AutotuneCache,
    InferenceRequest,
    InferenceService,
    RequestQueue,
    RmatGraphSpec,
    StreamingScheduler,
    serve_requests,
    synthetic_traffic,
)

CFG_A = ArchConfig(n_pes=16, hop=1, remote_switching=True)
CFG_B = ArchConfig(n_pes=32, hop=1, remote_switching=True)
SPEC = RmatGraphSpec(n_nodes=384, f1=24, f2=12, f3=4, seed=5)
SPEC2 = RmatGraphSpec(n_nodes=384, f1=24, f2=12, f3=4, seed=6)


def _requests(pattern):
    """Requests with graph SPEC under the configs named by ``pattern``."""
    configs = {"a": CFG_A, "b": CFG_B}
    return [
        InferenceRequest(graph=SPEC, config=configs[token])
        for token in pattern
    ]


class TestRequestQueue:
    def test_assigns_sequential_ids(self):
        queue = RequestQueue()
        ids = queue.submit_many(_requests("aaa"))
        assert ids == [0, 1, 2]
        assert len(queue) == 3

    def test_explicit_id_preserved(self):
        queue = RequestQueue()
        rid = queue.submit(InferenceRequest(
            graph=SPEC, config=CFG_A, request_id="tenant-1/42"
        ))
        assert rid == "tenant-1/42"

    def test_drain_empties_in_arrival_order(self):
        queue = RequestQueue()
        queue.submit_many(_requests("ab"))
        drained = queue.drain()
        assert [q.seq for q in drained] == [0, 1]
        assert len(queue) == 0

    def test_rejects_non_request(self):
        with pytest.raises(ConfigError):
            RequestQueue().submit("not a request")


def _old_planner(queued, max_batch=None):
    """The retired offline planner's batch order, as a reference.

    Groups by (config, a_hops) in first-appearance order, splits each
    group into ``max_batch`` chunks and orders the chunks by their
    oldest member. Returns the member sequence numbers per batch.
    """
    groups = {}
    for item in queued:
        key = (item.request.config, item.request.a_hops)
        groups.setdefault(key, []).append(item)
    chunks = []
    for items in groups.values():
        size = max_batch or len(items)
        chunks += [items[i:i + size] for i in range(0, len(items), size)]
    chunks.sort(key=lambda chunk: chunk[0].seq)
    return [[item.seq for item in chunk] for chunk in chunks]


def _offline_plan(queued, max_batch=None):
    """Admit everything at t=0, flush, and pop batches in EDF order."""
    stream = StreamingScheduler(max_batch=max_batch)
    for item in queued:
        stream.admit(item, now=0.0)
    stream.flush(now=0.0)
    batches = []
    while stream.ready:
        batches.append(stream.pop_ready())
    return batches


class TestSchedulerOrdering:
    """The t=0 offline regime of the streaming scheduler."""

    def plan(self, pattern, **kwargs):
        queue = RequestQueue()
        queue.submit_many(_requests(pattern))
        return _offline_plan(queue.drain(), **kwargs)

    def test_groups_by_config(self):
        batches = self.plan("aabba")
        assert len(batches) == 2
        assert [q.seq for q in batches[0].items] == [0, 1, 4]
        assert [q.seq for q in batches[1].items] == [2, 3]

    def test_batches_ordered_by_oldest_member(self):
        # b arrives first even though a has more requests: the b batch
        # must come out first.
        batches = self.plan("baaa")
        assert batches[0].config == CFG_B
        assert batches[1].config == CFG_A

    def test_within_batch_fifo(self):
        batches = self.plan("abababab")
        for batch in batches:
            seqs = [q.seq for q in batch.items]
            assert seqs == sorted(seqs)

    def test_max_batch_splits_in_order(self):
        batches = self.plan("aaaaa", max_batch=2)
        sizes = [len(b) for b in batches]
        assert sizes == [2, 2, 1]
        seqs = [q.seq for b in batches for q in b.items]
        assert seqs == [0, 1, 2, 3, 4]

    def test_a_hops_is_part_of_the_affinity_key(self):
        queue = RequestQueue()
        queue.submit(InferenceRequest(graph=SPEC, config=CFG_A, a_hops=1))
        queue.submit(InferenceRequest(graph=SPEC, config=CFG_A, a_hops=2))
        batches = _offline_plan(queue.drain())
        assert len(batches) == 2

    def test_batch_indices_are_consecutive(self):
        batches = self.plan("abab")
        assert [b.index for b in batches] == [0, 1]

    @pytest.mark.parametrize("pattern", ["aabba", "baaa", "abababab",
                                         "aaaaa", "abbbaab"])
    @pytest.mark.parametrize("max_batch", [None, 1, 2, 3])
    def test_reproduces_the_offline_planner_order(self, pattern, max_batch):
        queue = RequestQueue()
        queue.submit_many(_requests(pattern))
        queued = queue.drain()
        batches = _offline_plan(queued, max_batch=max_batch)
        assert [[q.seq for q in b.items] for b in batches] == (
            _old_planner(queued, max_batch)
        )

    @pytest.mark.parametrize("n_workers", [1, 2, 3])
    def test_offline_drain_dispatches_in_planner_order(self, n_workers):
        # The service's t=0 drain caps batches at ceil(n / n_workers)
        # and numbers them in dispatch order: grouping its results by
        # batch index must give the offline planner's batches.
        requests = _requests("abbabaab")
        outcome = serve_requests(requests, n_workers=n_workers, cache=True)
        by_batch = {}
        for seq, result in enumerate(outcome.results):
            by_batch.setdefault(result.batch, []).append(seq)
        queue = RequestQueue()
        queue.submit_many(requests)
        cap = -(-len(requests) // n_workers) if n_workers > 1 else None
        assert [by_batch[i] for i in sorted(by_batch)] == (
            _old_planner(queue.drain(), cap)
        )


class TestSchedulerValidation:
    def test_rejects_zero_max_batch(self):
        with pytest.raises(ConfigError):
            StreamingScheduler(max_batch=0)

    def test_rejects_negative_max_batch(self):
        with pytest.raises(ConfigError):
            StreamingScheduler(max_batch=-3)

    def test_rejects_non_int_max_batch(self):
        with pytest.raises(ConfigError):
            StreamingScheduler(max_batch=2.5)

    def test_service_rejects_zero_max_batch(self):
        # max_batch=0 must be rejected, never read as "unbounded".
        with pytest.raises(ConfigError):
            InferenceService(max_batch=0)
        with pytest.raises(ConfigError):
            serve_requests(_requests("aaa"), max_batch=0)

    def test_queue_rejects_non_monotonic_arrivals(self):
        queue = RequestQueue()
        queue.submit(InferenceRequest(
            graph=SPEC, config=CFG_A, arrival_time=2.0
        ))
        with pytest.raises(ConfigError):
            queue.submit(InferenceRequest(
                graph=SPEC, config=CFG_A, arrival_time=1.0
            ))

    def test_queue_accepts_equal_arrivals(self):
        # A burst: several requests sharing one timestamp is legal.
        queue = RequestQueue()
        for _ in range(3):
            queue.submit(InferenceRequest(
                graph=SPEC, config=CFG_A, arrival_time=1.5
            ))
        assert len(queue) == 3


class TestAutotuneCacheLRU:
    def _entry(self):
        return CachedTuning(layers=())

    def _filled(self, max_entries, n):
        cache = AutotuneCache(max_entries=max_entries)
        for i in range(n):
            cache.store(f"g{i}", CFG_A, self._entry())
        return cache

    def test_rejects_bad_bound(self):
        for bad in (0, -1, 1.5, "big"):
            with pytest.raises(ConfigError):
                AutotuneCache(max_entries=bad)

    def test_unbounded_by_default(self):
        cache = self._filled(None, 50)
        assert len(cache) == 50
        assert cache.stats.evictions == 0

    def test_evicts_oldest_first(self):
        cache = self._filled(3, 4)
        assert len(cache) == 3
        assert cache.stats.evictions == 1
        assert AutotuneCache.key("g0", CFG_A) not in cache
        for kept in ("g1", "g2", "g3"):
            assert AutotuneCache.key(kept, CFG_A) in cache

    def test_lookup_refreshes_recency(self):
        cache = self._filled(3, 3)
        # Touch g0: it becomes most-recent, so g1 is evicted next.
        assert cache.lookup("g0", CFG_A) is not None
        cache.store("g3", CFG_A, self._entry())
        assert AutotuneCache.key("g0", CFG_A) in cache
        assert AutotuneCache.key("g1", CFG_A) not in cache

    def test_store_overwrite_refreshes_recency(self):
        cache = self._filled(3, 3)
        cache.store("g0", CFG_A, self._entry())
        cache.store("g3", CFG_A, self._entry())
        assert AutotuneCache.key("g0", CFG_A) in cache
        assert AutotuneCache.key("g1", CFG_A) not in cache

    def test_miss_does_not_refresh(self):
        cache = self._filled(3, 3)
        assert cache.lookup("nope", CFG_A) is None
        cache.store("g3", CFG_A, self._entry())
        assert AutotuneCache.key("g0", CFG_A) not in cache

    def test_clear_resets_evictions(self):
        cache = self._filled(2, 4)
        assert cache.stats.evictions == 2
        cache.clear()
        assert cache.stats.evictions == 0

    def test_bound_holds_under_service_traffic(self):
        # A bounded cache serving more unique (graph, config) pairs than
        # it can hold must keep working — just with more misses.
        cache = AutotuneCache(max_entries=1)
        outcome = serve_requests(_requests("abab"), n_workers=1,
                                 cache=cache, max_batch=1)
        assert len(cache) == 1
        assert cache.stats.evictions >= 1
        assert outcome.stats.n_requests == 4

    def test_load_applies_bound(self, tiny_nell, tmp_path):
        cache = AutotuneCache()
        GcnAccelerator(tiny_nell, CFG_A).run(cache=cache)
        GcnAccelerator(tiny_nell, CFG_B).run(cache=cache)
        path = cache.save(tmp_path / "cache.npz")
        restored = AutotuneCache.load(path, max_entries=1)
        assert len(restored) == 1
        assert restored.max_entries == 1


class TestAutotuneCache:
    def test_miss_then_hit(self, tiny_cora):
        cache = AutotuneCache()
        accel = GcnAccelerator(tiny_cora, CFG_A)
        first = accel.run(cache=cache)
        assert not first.cache_hit
        assert cache.stats.misses == 1 and cache.stats.hits == 0
        second = GcnAccelerator(tiny_cora, CFG_A).run(cache=cache)
        assert second.cache_hit
        assert cache.stats.hits == 1
        assert len(cache) == 1

    def test_different_config_is_a_miss(self, tiny_cora):
        cache = AutotuneCache()
        GcnAccelerator(tiny_cora, CFG_A).run(cache=cache)
        report = GcnAccelerator(tiny_cora, CFG_B).run(cache=cache)
        assert not report.cache_hit
        assert len(cache) == 2

    def test_different_graph_is_a_miss(self):
        cache = AutotuneCache()
        GcnAccelerator(SPEC.build(), CFG_A).run(cache=cache)
        report = GcnAccelerator(SPEC2.build(), CFG_A).run(cache=cache)
        assert not report.cache_hit

    def test_hit_is_cycle_identical_to_cold_run(self, tiny_nell):
        # The core soundness property: replaying the cached converged
        # row map must reproduce the cold run bit-for-bit.
        for config in (CFG_A, CFG_B,
                       ArchConfig(n_pes=16, hop=0, remote_switching=False)):
            cache = AutotuneCache()
            cold = GcnAccelerator(tiny_nell, config).run(cache=cache)
            hit = GcnAccelerator(tiny_nell, config).run(cache=cache)
            assert hit.cache_hit
            assert hit.total_cycles == cold.total_cycles
            assert hit.utilization == cold.utilization
            for a, b in zip(cold.spmm_results, hit.spmm_results):
                assert np.array_equal(a.cycles_per_round, b.cycles_per_round)
                assert np.array_equal(a.final_owner, b.final_owner)
                assert a.converged_round == b.converged_round
                assert a.max_queue_backlog == b.max_queue_backlog
                assert a.final_backlog == b.final_backlog
                assert a.total_backlog == b.total_backlog

    def test_incompatible_entry_falls_back_to_cold(self, tiny_cora,
                                                   tiny_nell):
        # A (hypothetical) colliding fingerprint with the wrong shape
        # must not crash the accelerator — it re-runs cold and re-stores.
        cache = AutotuneCache()
        cold = GcnAccelerator(tiny_nell, CFG_A).run()
        wrong_entry = CachedTuning.from_report(cold)
        accel = GcnAccelerator(tiny_cora, CFG_A)
        cache.store(accel.fingerprint(), CFG_A, wrong_entry)
        report = accel.run(cache=cache)
        assert not report.cache_hit
        assert GcnAccelerator(tiny_cora, CFG_A).run(cache=cache).cache_hit

    def test_save_load_round_trip(self, tiny_nell, tmp_path):
        cache = AutotuneCache()
        cold = GcnAccelerator(tiny_nell, CFG_A).run(cache=cache)
        GcnAccelerator(tiny_nell, CFG_B).run(cache=cache)
        path = cache.save(tmp_path / "cache.npz")
        restored = AutotuneCache.load(path)
        assert len(restored) == 2
        hit = GcnAccelerator(tiny_nell, CFG_A).run(cache=restored)
        assert hit.cache_hit
        assert hit.total_cycles == cold.total_cycles
        assert restored.stats.hits == 1

    @pytest.mark.parametrize("version", [1, 2, 3])
    def test_loads_every_archive_version(self, tiny_nell, tmp_path,
                                         version):
        # save writes version 2 (entries in LRU order, no per-entry
        # metadata). Version 1 used the same entry layout; version 3
        # added per-entry hit counts and last-used stamps, which load
        # ignores.
        cache = AutotuneCache()
        cold = GcnAccelerator(tiny_nell, CFG_A).run(cache=cache)
        GcnAccelerator(tiny_nell, CFG_B).run(cache=cache)
        GcnAccelerator(tiny_nell, CFG_A).run(cache=cache)  # order [B, A]
        path = cache.save(tmp_path / "cache.npz")
        with np.load(path) as archive:
            arrays = {name: archive[name] for name in archive.files}
        index = json.loads(bytes(arrays["index"]).decode())
        assert index["version"] == 2
        assert all(set(entry) == {"fingerprint", "config", "layers"}
                   for entry in index["entries"])
        index["version"] = version
        if version == 3:
            for entry in index["entries"]:
                entry["hits"], entry["last_used"] = 5, 2.5
        arrays["index"] = np.frombuffer(json.dumps(index).encode(),
                                        dtype=np.uint8)
        np.savez_compressed(path, **arrays)
        restored = AutotuneCache.load(path)
        assert list(restored._entries) == list(cache._entries)
        assert restored.stats.hits == 0 and restored.stats.misses == 0
        hit = GcnAccelerator(tiny_nell, CFG_A).run(cache=restored)
        assert hit.cache_hit and hit.total_cycles == cold.total_cycles

    def test_rejects_unknown_archive_version(self, tiny_cora, tmp_path):
        cache = AutotuneCache()
        GcnAccelerator(tiny_cora, CFG_A).run(cache=cache)
        path = cache.save(tmp_path / "cache.npz")
        with np.load(path) as archive:
            arrays = {name: archive[name] for name in archive.files}
        index = json.loads(bytes(arrays["index"]).decode())
        index["version"] = 4
        arrays["index"] = np.frombuffer(json.dumps(index).encode(),
                                        dtype=np.uint8)
        np.savez_compressed(path, **arrays)
        with pytest.raises(ConfigError):
            AutotuneCache.load(path)

    def test_save_without_suffix_returns_real_path(self, tiny_cora,
                                                   tmp_path):
        cache = AutotuneCache()
        GcnAccelerator(tiny_cora, CFG_A).run(cache=cache)
        # numpy appends .npz to suffix-less paths; save must return the
        # path that actually exists so save -> load round-trips.
        path = cache.save(tmp_path / "autotune")
        assert str(path).endswith(".npz")
        assert AutotuneCache.load(path).stats.entries == 1

    def test_clear(self, tiny_cora):
        cache = AutotuneCache()
        GcnAccelerator(tiny_cora, CFG_A).run(cache=cache)
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.lookups == 0


class TestFingerprints:
    def test_dataset_fingerprint_stable_and_distinct(self):
        a = dataset_fingerprint(load_dataset("cora", "tiny", seed=3))
        b = dataset_fingerprint(load_dataset("cora", "tiny", seed=3))
        c = dataset_fingerprint(load_dataset("nell", "tiny", seed=3))
        assert a == b
        assert a != c

    def test_accelerator_fingerprint_covers_a_hops(self, tiny_cora):
        one = GcnAccelerator(tiny_cora, CFG_A, a_hops=1).fingerprint()
        two = GcnAccelerator(tiny_cora, CFG_A, a_hops=2).fingerprint()
        assert one != two

    def test_accelerators_share_one_fingerprint_string(self, tiny_cora):
        # Results keep the fingerprint; equal workloads must not each
        # hold their own copy of the digest.
        first = GcnAccelerator(tiny_cora, CFG_A, a_hops=2).fingerprint()
        second = GcnAccelerator(tiny_cora, CFG_B, a_hops=2).fingerprint()
        assert first is second

    def test_edges_fingerprint_order_insensitive(self):
        src = np.array([0, 3, 1]); dst = np.array([2, 1, 0])
        fwd = edges_fingerprint(src, dst, 4)
        perm = edges_fingerprint(src[::-1], dst[::-1], 4)
        assert fwd == perm
        assert fwd != edges_fingerprint(dst, src, 4)

    def test_edges_fingerprint_validates(self):
        with pytest.raises(ConfigError):
            edges_fingerprint([0, 9], [1, 1], 4)


class TestInferenceService:
    def test_results_in_arrival_order_with_hits(self):
        outcome = serve_requests(
            _requests("abababab"), n_workers=2, cache=True
        )
        assert [r.request_id for r in outcome.results] == list(range(8))
        # First request per config is a miss, the rest hit.
        assert [r.cache_hit for r in outcome.results] == (
            [False, False] + [True] * 6
        )
        assert outcome.stats.cache_hits == 6
        assert outcome.stats.n_batches == 2

    def test_results_are_slotted_and_picklable(self):
        result = serve_requests(_requests("a"), cache=True).results[0]
        assert not hasattr(result, "__dict__")
        assert pickle.loads(pickle.dumps(result)) == result

    def test_cache_disabled_never_hits(self):
        outcome = serve_requests(_requests("aaaa"), cache=None)
        assert outcome.stats.cache_hits == 0
        assert outcome.stats.hit_rate == 0.0

    def test_cached_results_identical_to_uncached(self):
        requests = synthetic_traffic(
            10, n_graphs=2, n_nodes=384, seed=3,
            configs=(CFG_A,), graph_kwargs={"f1": 24, "f2": 12, "f3": 4},
        )
        cold = serve_requests(requests, cache=None)
        warm = serve_requests(requests, cache=True)
        for a, b in zip(cold.results, warm.results):
            assert a.total_cycles == b.total_cycles
            assert a.utilization == b.utilization

    def test_workers_round_robin_batches(self):
        outcome = serve_requests(_requests("ab"), n_workers=2, cache=True)
        assert {r.worker for r in outcome.results} == {0, 1}
        assert all(w.batches_served == 1 for w in outcome.workers)

    def test_single_config_mix_spreads_over_the_pool(self):
        # One giant config group must not serialize on instance 0: the
        # service splits it so every instance takes a contiguous share.
        outcome = serve_requests(_requests("aaaaaa"), n_workers=3,
                                 cache=True)
        assert {r.worker for r in outcome.results} == {0, 1, 2}
        assert all(w.requests_served == 2 for w in outcome.workers)

    def test_explicit_max_batch_still_wins(self):
        outcome = serve_requests(_requests("aaaa"), n_workers=2,
                                 cache=True, max_batch=4)
        assert {r.worker for r in outcome.results} == {0}

    def test_shared_cache_across_drains(self):
        cache = AutotuneCache()
        service = InferenceService(n_workers=1, cache=cache)
        service.submit_many(_requests("aa"))
        first = service.drain()
        service.submit_many(_requests("aa"))
        second = service.drain()
        assert first.stats.cache_hits == 1
        assert second.stats.cache_hits == 2  # warm from the first drain

    def test_rejects_bad_cache(self):
        with pytest.raises(ConfigError):
            InferenceService(cache="yes please")

    def test_stats_throughput_positive(self):
        outcome = serve_requests(_requests("aa"), cache=True)
        assert outcome.stats.requests_per_second > 0
        assert outcome.stats.total_cycles > 0
        assert 0.0 < outcome.stats.mean_utilization <= 1.0


class TestSyntheticTraffic:
    def test_mix_is_deterministic(self):
        mix1 = synthetic_traffic(8, n_graphs=3, n_nodes=256, seed=11)
        mix2 = synthetic_traffic(8, n_graphs=3, n_nodes=256, seed=11)
        assert [r.graph for r in mix1] == [r.graph for r in mix2]

    def test_repeats_graphs(self):
        mix = synthetic_traffic(30, n_graphs=3, n_nodes=256, seed=11)
        assert len({r.graph for r in mix}) <= 3
        assert len(mix) == 30

    def test_spec_build_memoized(self):
        assert SPEC.build() is SPEC.build()
