"""The benchmark's three serving workloads.

Each workload is open loop on the simulated clock: ``--seed`` fixes the
arrival times, which do not depend on how fast the simulator runs. A
workload builds its trace with the public generators of
``repro.serve.traffic`` (looked up through the module at call time, so
the per-layer tracer sees those calls), a fresh service for every
drain, and a guard that proves its mechanism fired.
"""

from __future__ import annotations

from dataclasses import replace

from repro.accel.config import ArchConfig
from repro.serve import traffic
from repro.serve.bench import default_serving_config
from repro.serve.cache import AutotuneCache
from repro.serve.service import InferenceService



class Workload:
    """A named traffic mix plus the pool that serves it.

    ``n_requests`` is the trace length (at least 1000, so that 10
    requests lie beyond the nearest-rank p99); ``params`` lists every
    knob, for provenance; ``make_trace(seed, n)``
    returns ``n`` requests with ``request_id`` equal to their index;
    ``make_service()`` returns a fresh service with an empty cache;
    ``guard(stats)`` returns the list of mechanism checks that failed.
    """

    def __init__(self, name, n_requests, params, make_trace, make_service,
                 guard):
        self.name = name
        self.n_requests = n_requests
        self.params = params
        self.make_trace = make_trace
        self.make_service = make_service
        self.guard = guard


def _numbered(requests):
    return [replace(r, request_id=i) for i, r in enumerate(requests)]


def _streaming(seed, n, *, n_graphs, zipf_skew):
    return _numbered(traffic.streaming_traffic(
        n, arrival_rate=2000.0, arrival="poisson", slo_ms=5.0,
        n_graphs=n_graphs, zipf_skew=zipf_skew, n_nodes=4096, seed=seed,
        configs=(default_serving_config(192),), graph_kwargs={"f2": 96},
    ))


def _repeat_guard(stats):
    return [] if stats.hit_rate >= 0.98 else [
        f"hit ratio {stats.hit_rate:.3f} < 0.98"
    ]


def _cold_guard(stats):
    failed = []
    if stats.hit_rate > 0.2:
        failed.append(f"hit ratio {stats.hit_rate:.3f} > 0.2")
    if stats.n_evictions <= 0:
        failed.append("no cache evictions")
    return failed


MIXED_CONFIG = ArchConfig(n_pes=64, hop=1, remote_switching=True)
MIXED_CLUSTER = {"topology": "ring", "rebalance_signal": "cycles"}
MIXED_RATE = 10000.0
"""Requests per simulated second. Boundary preemption needs a critical
batch sealed while every instance is busy and a sharded job is still
before a layer boundary. At 2500 req/s the pool idles between bursts,
and seed 1953664552 fired no preemption in 2000 requests; at 10000
req/s 31 random seeds fired 13-26. Faster arrivals fire more but spread
the critical tenant's SLO attainment more across seeds (0.06 at
25000 req/s against 0.03 here)."""


def _mixed_trace(seed, n):
    # Two tenant streams whose sharded jobs differ in size (gangs of 4
    # and 2 instances), interleaved and re-stamped with bursts: the
    # stock single-size Poisson mix fires no backfill, this one fires
    # both backfill and boundary preemption.
    streams = [
        traffic.mixed_traffic(
            size, arrival_rate=1250.0, chip_capacity=1024,
            seed=2 * seed + k, configs=(MIXED_CONFIG,),
            critical_fraction=0.45, sharded_fraction=0.2,
            critical_slo_ms=1.0, batch_slo_ms=25.0, sharded_slo_ms=100.0,
            sharded_nodes=nodes,
        )
        for k, (size, nodes) in enumerate(((n - n // 2, 3500),
                                           (n // 2, 1500)))
    ]
    merged = [r for pair in zip(*streams) for r in pair]
    merged += streams[0][len(streams[1]):]
    times = traffic.bursty_arrivals(n, rate=MIXED_RATE, burst_size=8,
                                    seed=seed)
    return _numbered(
        replace(r, arrival_time=float(t)) for r, t in zip(merged, times)
    )


def _mixed_guard(stats):
    failed = []
    if stats.n_backfilled < 1:
        failed.append("no backfill")
    if stats.n_preemptions < 1:
        failed.append("no preemption")
    if stats.n_sharded <= 0:
        failed.append("no sharded job")
    return failed


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "serve_repeat", 1000,
            {"generator": "streaming_traffic", "arrival": "poisson",
             "arrival_rate": 2000.0, "slo_ms": 5.0, "n_graphs": 4,
             "zipf_skew": 1.1, "n_nodes": 4096, "f2": 96, "n_pes": 192,
             "n_workers": 4, "cache_entries": None},
            lambda seed, n: _streaming(seed, n, n_graphs=4, zipf_skew=1.1),
            lambda: InferenceService(n_workers=4, cache=AutotuneCache(),
                                     workers=1),
            _repeat_guard,
        ),
        Workload(
            "serve_cold", 1000,
            {"generator": "streaming_traffic", "arrival": "poisson",
             "arrival_rate": 2000.0, "slo_ms": 5.0, "n_graphs": 32,
             "zipf_skew": 0.0, "n_nodes": 4096, "f2": 96, "n_pes": 192,
             "n_workers": 4, "cache_entries": 4},
            lambda seed, n: _streaming(seed, n, n_graphs=32, zipf_skew=0.0),
            lambda: InferenceService(
                n_workers=4, cache=AutotuneCache(max_entries=4), workers=1
            ),
            _cold_guard,
        ),
        Workload(
            # 2000 requests: the seed moves the share of costly sharded
            # jobs, and a longer trace keeps host throughput steady
            # across seeds.
            "mixed_sharded", 2000,
            {"generator": "2 x mixed_traffic + bursty_arrivals",
             "arrival_rate": MIXED_RATE, "burst_size": 8,
             "sharded_nodes": [3500, 1500], "chip_capacity": 1024,
             "critical_fraction": 0.45, "sharded_fraction": 0.2,
             "critical_slo_ms": 1.0, "batch_slo_ms": 25.0,
             "sharded_slo_ms": 100.0, "n_pes": 64, "n_workers": 4,
             "coschedule": True, "cluster_options": MIXED_CLUSTER},
            _mixed_trace,
            lambda: InferenceService(
                n_workers=4, cache=AutotuneCache(), chip_capacity=1024,
                coschedule=True, critical_slo_ms=1.0,
                cluster_options=dict(MIXED_CLUSTER), workers=1,
            ),
            _mixed_guard,
        ),
    )
}
