"""Tests for serve-layer admission control, reconfiguration cost,
sharded dispatch and cache-recency persistence."""

import numpy as np
import pytest

from repro.accel import ArchConfig
from repro.accel.gcnaccel import CachedTuning
from repro.errors import ConfigError
from repro.serve import (
    AutotuneCache,
    InferenceRequest,
    InferenceService,
    RmatGraphSpec,
    serve_requests,
)

CFG_A = ArchConfig(n_pes=16, hop=1, remote_switching=True)
CFG_B = ArchConfig(n_pes=24, hop=1, remote_switching=True)
SPEC = RmatGraphSpec(n_nodes=192, avg_degree=6, f1=16, f2=8, f3=4, seed=5)
BIG = RmatGraphSpec(n_nodes=1024, avg_degree=6, f1=16, f2=8, f3=4, seed=6)


def _req(graph=SPEC, config=CFG_A, **kwargs):
    return InferenceRequest(graph=graph, config=config, **kwargs)


class TestShedExpired:
    def _overload(self):
        # One instance, tight SLOs, a burst: later requests expire
        # while queueing behind the first.
        return [
            _req(arrival_time=0.0, slo_ms=0.01) for _ in range(6)
        ]

    def test_sheds_expired_requests(self):
        outcome = serve_requests(
            self._overload(), n_workers=1, max_batch=1, shed_expired=True
        )
        shed = [r for r in outcome.results if r.shed]
        assert shed, "expected expired requests to be shed"
        assert outcome.stats.n_shed == len(shed)
        assert outcome.stats.shed_rate == pytest.approx(len(shed) / 6)

    def test_shed_results_are_recorded_outcomes(self):
        outcome = serve_requests(
            self._overload(), n_workers=1, max_batch=1, shed_expired=True
        )
        for result in outcome.results:
            if result.shed:
                assert result.total_cycles == 0
                assert result.worker == -1
                assert result.finish_time >= result.deadline
                assert result.slo_met is False

    def test_results_keep_submission_alignment(self):
        requests = self._overload()
        outcome = serve_requests(
            requests, n_workers=1, max_batch=1, shed_expired=True
        )
        assert len(outcome.results) == len(requests)
        assert [r.request_id for r in outcome.results] == list(range(6))

    def test_latency_stats_exclude_shed(self):
        outcome = serve_requests(
            self._overload(), n_workers=1, max_batch=1, shed_expired=True
        )
        served = [r for r in outcome.results if not r.shed]
        assert outcome.latency.n == len(served)

    def test_default_serves_late_identically(self):
        # shed_expired=False must remain bit-identical to the
        # historical behavior: everything served, just late.
        requests = self._overload()
        off = serve_requests(requests, n_workers=1, max_batch=1)
        explicit = serve_requests(
            requests, n_workers=1, max_batch=1, shed_expired=False
        )
        assert off.stats.n_shed == explicit.stats.n_shed == 0
        assert [r.finish_time for r in off.results] == [
            r.finish_time for r in explicit.results
        ]

    def test_no_slo_never_shed(self):
        requests = [_req(arrival_time=0.0) for _ in range(5)]
        outcome = serve_requests(
            requests, n_workers=1, max_batch=1, shed_expired=True
        )
        assert outcome.stats.n_shed == 0

    def test_flag_is_noop_when_deadlines_loose(self):
        requests = [_req(arrival_time=0.0, slo_ms=1e6) for _ in range(4)]
        on = serve_requests(requests, n_workers=2, shed_expired=True)
        off = serve_requests(requests, n_workers=2)
        assert on.stats.n_shed == 0
        assert [r.total_cycles for r in on.results] == [
            r.total_cycles for r in off.results
        ]
        assert [r.finish_time for r in on.results] == [
            r.finish_time for r in off.results
        ]


class TestReconfigCycles:
    def _alternating(self, n=4):
        return [
            _req(config=CFG_A if i % 2 == 0 else CFG_B) for i in range(n)
        ]

    def test_default_zero_is_free(self):
        requests = self._alternating()
        charged = serve_requests(requests, n_workers=1, max_batch=1)
        assert charged.workers[0].reconfigs == 3  # switches counted
        base = serve_requests(
            requests, n_workers=1, max_batch=1, reconfig_cycles=0
        )
        assert base.stats.makespan_seconds == charged.stats.makespan_seconds

    def test_switch_penalty_delays_service(self):
        requests = self._alternating()
        free = serve_requests(requests, n_workers=1, max_batch=1)
        penalty_cycles = 500_000
        charged = serve_requests(
            requests, n_workers=1, max_batch=1,
            reconfig_cycles=penalty_cycles,
        )
        # Three switches, each charged at the incoming config's clock.
        expected = (
            CFG_B.cycles_to_seconds(penalty_cycles) * 2
            + CFG_A.cycles_to_seconds(penalty_cycles)
        )
        assert charged.stats.makespan_seconds == pytest.approx(
            free.stats.makespan_seconds + expected
        )

    def test_same_config_never_charged(self):
        requests = [_req() for _ in range(4)]
        charged = serve_requests(
            requests, n_workers=1, max_batch=1, reconfig_cycles=10 ** 9
        )
        assert charged.workers[0].reconfigs == 0

    def test_negative_rejected(self):
        with pytest.raises(ConfigError):
            InferenceService(reconfig_cycles=-1)


class TestShardedDispatch:
    def test_oversized_graph_gang_schedules(self):
        outcome = serve_requests(
            [_req(graph=BIG), _req(graph=SPEC)],
            n_workers=4, chip_capacity=256,
        )
        big, small = outcome.results
        assert big.n_shards == 4
        assert small.n_shards == 1
        assert outcome.stats.n_sharded == 1

    def test_shard_count_clamped_to_pool(self):
        outcome = serve_requests(
            [_req(graph=BIG)], n_workers=2, chip_capacity=128
        )
        assert outcome.results[0].n_shards == 2

    def test_capacity_none_disables_sharding(self):
        outcome = serve_requests([_req(graph=BIG)], n_workers=4)
        assert outcome.results[0].n_shards == 1
        assert outcome.stats.n_sharded == 0

    def test_sharded_job_occupies_all_participants(self):
        outcome = serve_requests(
            [_req(graph=BIG)], n_workers=3, chip_capacity=256
        )
        result = outcome.results[0]
        busy = [w for w in outcome.workers if w.modeled_busy_seconds > 0]
        assert len(busy) == result.n_shards == 3
        assert all(
            w.modeled_busy_seconds
            == pytest.approx(result.finish_time - result.start_time)
            for w in busy
        )

    def test_sharded_results_deterministic_and_cached(self):
        service = InferenceService(
            n_workers=4, chip_capacity=256, cache=True
        )
        service.submit_many([_req(graph=BIG)])
        cold = service.drain().results[0]
        service.submit_many([_req(graph=BIG)])
        warm = service.drain().results[0]
        assert not cold.cache_hit and warm.cache_hit
        assert warm.total_cycles == cold.total_cycles

    def test_mixed_traffic_all_answered(self):
        requests = [
            _req(graph=SPEC, arrival_time=0.0),
            _req(graph=BIG, arrival_time=0.0),
            _req(graph=SPEC, arrival_time=0.0),
        ]
        outcome = serve_requests(
            requests, n_workers=4, chip_capacity=512
        )
        assert len(outcome.results) == 3
        assert [r.n_shards for r in outcome.results] == [1, 2, 1]

    def test_cluster_options_forwarded(self):
        slow = serve_requests(
            [_req(graph=BIG)], n_workers=4, chip_capacity=256,
            cluster_options={"link_words_per_cycle": 0.25},
        )
        fast = serve_requests(
            [_req(graph=BIG)], n_workers=4, chip_capacity=256,
            cluster_options={"link_words_per_cycle": 64.0},
        )
        assert slow.results[0].total_cycles > fast.results[0].total_cycles

    def test_reserved_cluster_options_rejected(self):
        with pytest.raises(ConfigError):
            InferenceService(chip_capacity=64,
                             cluster_options={"n_chips": 3})
        with pytest.raises(ConfigError):
            InferenceService(chip_capacity=64,
                             cluster_options={"chips": (CFG_A,)})

    def test_unknown_cluster_options_rejected(self):
        # A misspelled key fails at construction, naming the valid
        # keys, instead of at the first sharded dispatch (or never,
        # without chip_capacity).
        for capacity in (64, None):
            with pytest.raises(ConfigError, match="topolgy.*'topology'"):
                InferenceService(chip_capacity=capacity,
                                 cluster_options={"topolgy": "ring"})

    def test_topology_cluster_options_forwarded(self):
        # Hop latency makes the ring's multi-hop routes strictly more
        # expensive than the single-hop all-to-all regardless of how
        # the capacity-ceiling-constrained plan distributes traffic
        # (contention alone can favor either fabric on a forced
        # equal-rows plan, since all-to-all serializes a chip's whole
        # ingress on one link while a ring splits it two ways).
        ring = serve_requests(
            [_req(graph=BIG)], n_workers=4, chip_capacity=256,
            cluster_options={"topology": "ring",
                             "link_words_per_cycle": 2.0,
                             "hop_latency_cycles": 512},
        )
        a2a = serve_requests(
            [_req(graph=BIG)], n_workers=4, chip_capacity=256,
            cluster_options={"link_words_per_cycle": 2.0},
        )
        assert ring.results[0].total_cycles > a2a.results[0].total_cycles


class TestGangCeilings:
    def test_ceilings_threaded_into_sharded_run(self):
        # The sharded run must execute under the gang members' node
        # capacities as hard row ceilings: its cycle count matches a
        # direct ceiling-constrained simulation, not the unconstrained
        # plan (which hands one chip 704 of BIG's 1024 rows).
        from repro.cluster import ClusterConfig, simulate_multichip_gcn

        req = _req(graph=BIG)
        outcome = serve_requests([req], n_workers=2, chip_capacity=512)
        dataset = BIG.build()
        constrained = simulate_multichip_gcn(
            dataset,
            ClusterConfig(n_chips=2, chip=CFG_A, row_ceilings=(512, 512)),
            a_hops=req.a_hops,
        )
        unconstrained = simulate_multichip_gcn(
            dataset,
            ClusterConfig(n_chips=2, chip=CFG_A),
            a_hops=req.a_hops,
        )
        assert np.any(unconstrained.plan.chip_row_counts() > 512)
        assert outcome.results[0].total_cycles == constrained.total_cycles
        assert outcome.results[0].total_cycles != unconstrained.total_cycles

    def test_regangs_wider_when_real_plan_overfills(self):
        # The proportional-share screen accepts the two-member gang
        # (shares 614/410 fit 630/420) but the actual block-granular
        # constrained plan does not exist at those ceilings — the job
        # must re-gang wider instead of overfilling a member.
        outcome = serve_requests(
            [_req(graph=BIG)], n_workers=4,
            chip_capacity=[630, 420, 630, 420],
            worker_configs=[CFG_B, CFG_A, CFG_B, CFG_A],
        )
        assert outcome.results[0].n_shards == 3

    def test_pool_clamp_still_serves_best_effort(self):
        # A pool that physically cannot cover the graph clamps onto
        # every instance with the capacities demoted to best-effort;
        # the request is still answered.
        outcome = serve_requests(
            [_req(graph=BIG)], n_workers=2, chip_capacity=128
        )
        result = outcome.results[0]
        assert result.n_shards == 2
        assert result.total_cycles > 0
        assert not result.shed

    def test_row_ceilings_is_reserved_cluster_option(self):
        with pytest.raises(ConfigError):
            InferenceService(chip_capacity=64,
                             cluster_options={"row_ceilings": (32, 32)})


class TestShardedQueueEdf:
    def test_tight_deadline_jumps_fifo_order(self):
        # Two sharded jobs queue while the pool is too busy to gang;
        # the later-arriving tighter deadline dispatches first.
        requests = [
            _req(graph=BIG, arrival_time=0.0, slo_ms=500.0,
                 request_id="loose"),
            _req(graph=BIG, arrival_time=0.0, slo_ms=5.0,
                 request_id="tight"),
        ]
        outcome = serve_requests(requests, n_workers=4, chip_capacity=256)
        starts = {r.request_id: r.start_time for r in outcome.results}
        assert starts["tight"] < starts["loose"]

    def test_no_slo_stays_fifo(self):
        requests = [
            _req(graph=BIG, arrival_time=0.0, request_id=f"r{i}")
            for i in range(3)
        ]
        outcome = serve_requests(requests, n_workers=4, chip_capacity=256)
        starts = [r.start_time for r in outcome.results]
        assert starts == sorted(starts)

    def test_equal_deadlines_break_by_arrival(self):
        requests = [
            _req(graph=BIG, arrival_time=0.0, slo_ms=50.0,
                 request_id="first"),
            _req(graph=BIG, arrival_time=0.0, slo_ms=50.0,
                 request_id="second"),
        ]
        outcome = serve_requests(requests, n_workers=4, chip_capacity=256)
        starts = {r.request_id: r.start_time for r in outcome.results}
        assert starts["first"] <= starts["second"]

    def test_expired_edf_head_shed(self):
        # The first job occupies the whole pool; the doomed job arrives
        # while it runs and its microsecond deadline expires before any
        # instance frees, so admission control sheds it at dispatch.
        requests = [
            _req(graph=BIG, arrival_time=0.0, request_id="first"),
            _req(graph=BIG, arrival_time=1e-6, slo_ms=0.001,
                 request_id="doomed"),
            _req(graph=BIG, arrival_time=1e-6, request_id="fine"),
        ]
        outcome = serve_requests(
            requests, n_workers=4, chip_capacity=256, shed_expired=True
        )
        by_id = {r.request_id: r for r in outcome.results}
        assert by_id["doomed"].shed
        assert not by_id["first"].shed
        assert not by_id["fine"].shed


class TestHeterogeneousPool:
    def test_per_worker_capacity_sizes_the_gang(self):
        # 1024 nodes over capacities [512, 256, 256, 512], equal
        # compute: the partitioner splits work (hence rows, roughly)
        # evenly, so every member's equal share must fit its declared
        # capacity — 3 chips would hand ~341 nodes to a 256-capacity
        # chip; 4 chips bring the share down to 256.
        outcome = serve_requests(
            [_req(graph=BIG)], n_workers=4,
            chip_capacity=[512, 256, 256, 512],
        )
        assert outcome.results[0].n_shards == 4

    def test_undersized_worker_pruned_from_gang(self):
        # A free under-capacity worker must not poison the gang (or
        # hang the event loop): the 40-node chip is pruned and the two
        # 512-node chips serve the 1024-node graph without it.
        outcome = serve_requests(
            [_req(graph=BIG)], n_workers=4,
            chip_capacity=[512, 40, 512, 512],
        )
        assert outcome.results[0].n_shards == 2
        assert outcome.workers[1].batches_served == 0
        assert outcome.workers[1].modeled_busy_seconds == 0.0

    def test_fits_largest_chip_no_sharding(self):
        outcome = serve_requests(
            [_req(graph=SPEC)], n_workers=2, chip_capacity=[128, 256],
        )
        assert outcome.results[0].n_shards == 1  # 192 nodes <= 256

    def test_worker_configs_build_hetero_cluster(self):
        uniform = serve_requests(
            [_req(graph=BIG, config=CFG_A)], n_workers=2,
            chip_capacity=512,
        )
        hetero = serve_requests(
            [_req(graph=BIG, config=CFG_A)], n_workers=2,
            chip_capacity=512, worker_configs=[CFG_B, CFG_A],
        )
        assert uniform.results[0].n_shards == 2
        assert hetero.results[0].n_shards == 2
        # The hetero pool simulates on its own (bigger) chips, so the
        # outcome differs from replicating the request config.
        assert (
            hetero.results[0].total_cycles
            != uniform.results[0].total_cycles
        )

    def test_batches_avoid_undersized_instances(self):
        # 192-node graphs fit the pool's big chip (no sharding) but
        # exceed worker 0's declared 128-node capacity: every batch
        # must land on worker 1 even while worker 0 idles.
        requests = [_req(graph=SPEC) for _ in range(3)]
        outcome = serve_requests(
            requests, n_workers=2, chip_capacity=[128, 256],
        )
        assert all(r.n_shards == 1 for r in outcome.results)
        assert {r.worker for r in outcome.results} == {1}
        assert outcome.workers[0].requests_served == 0

    def test_capacity_list_length_checked(self):
        with pytest.raises(ConfigError):
            InferenceService(n_workers=2, chip_capacity=[256])

    def test_worker_configs_validated(self):
        with pytest.raises(ConfigError):
            InferenceService(n_workers=2, worker_configs=[CFG_A])
        with pytest.raises(ConfigError):
            InferenceService(n_workers=2, worker_configs=[CFG_A, "cfg"])


class TestCacheRecencyPersistence:
    def _entry(self):
        return CachedTuning(layers=())

    def _warm_cache(self):
        cache = AutotuneCache(max_entries=3)
        for key in "abc":
            cache.store(key, CFG_A, self._entry())
        # Touch "a": recency order is now b < c < a.
        assert cache.lookup("a", CFG_A) is not None
        return cache

    def test_recency_survives_roundtrip(self, tmp_path):
        path = self._warm_cache().save(tmp_path / "cache")
        restored = AutotuneCache.load(path, max_entries=3)
        restored.store("d", CFG_A, self._entry())
        # True LRU ("b") evicted — not the alphabetically-first key.
        assert AutotuneCache.key("b", CFG_A) not in restored
        for kept in "cad":
            assert AutotuneCache.key(kept, CFG_A) in restored

    def test_bounded_load_keeps_most_recent(self, tmp_path):
        path = self._warm_cache().save(tmp_path / "cache")
        restored = AutotuneCache.load(path, max_entries=2)
        assert AutotuneCache.key("b", CFG_A) not in restored
        for kept in "ca":
            assert AutotuneCache.key(kept, CFG_A) in restored

    def test_multiple_roundtrips_preserve_order(self, tmp_path):
        cache = self._warm_cache()
        for hop in range(3):
            path = cache.save(tmp_path / f"hop{hop}")
            cache = AutotuneCache.load(path, max_entries=3)
        cache.store("d", CFG_A, self._entry())
        assert AutotuneCache.key("b", CFG_A) not in cache