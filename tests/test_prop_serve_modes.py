"""Global serving invariants across the product of service modes.

Each mode is tested on its own elsewhere; this suite draws points of
the product ``coschedule`` x ``chip_capacity`` (none or uniform) and
serves one tiny mixed trace at ``workers`` 1 and 2. Every point must
hold:

* each request gets exactly one result;
* no instance runs two batches (or gang jobs) at once;
* ``arrival <= start <= finish`` for every request;
* preemption conserves time: a preempted job's ``finish - start`` is
  its modeled service time plus the time it spent preempted;
* the stats views over the recorded trace equal the returned
  ``ServiceStats``/``LatencyStats``;
* ``workers=2`` is bit-identical to ``workers=1``: results, stats,
  latency, cache stats and the recorded event stream.
"""

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accel.config import ArchConfig
from repro.analysis.tracescenarios import _sharded_trio
from repro.obs import RecordingTracer
from repro.obs.tracer import stream_fingerprint
from repro.obs.views import latency_stats_view, service_stats_view
from repro.serve.cache import AutotuneCache
from repro.serve.service import serve_requests
from repro.serve.traffic import mixed_traffic

CFG = ArchConfig(n_pes=16, hop=1, remote_switching=True)
CFG32 = ArchConfig(n_pes=32, hop=1, remote_switching=True)
TINY = {"f1": 16, "f2": 8, "f3": 4}
N_WORKERS = 4
CAPACITY = 256
CRITICAL_SLO_MS = 0.01


def _trace(seed):
    # Three t=0 sharded jobs of different sizes force an EASY backfill
    # under sharding. The stream behind them alternates two configs
    # and arrives fast enough, with a critical SLO tight enough, that
    # deadlines expire in the queue and critical batches find the pool
    # busy (preemption).
    return _sharded_trio(CFG) + mixed_traffic(
        12, arrival_rate=100000.0, chip_capacity=CAPACITY, seed=seed,
        configs=(CFG, CFG32), sharded_nodes=600, sharded_fraction=0.3,
        critical_fraction=0.4, critical_slo_ms=CRITICAL_SLO_MS,
        avg_degree=4, graph_kwargs=TINY,
    )


def _serve(requests, workers, **modes):
    tracer = RecordingTracer()
    cache = AutotuneCache()
    outcome = serve_requests(
        requests, n_workers=N_WORKERS, cache=cache, workers=workers,
        tracer=tracer, critical_slo_ms=CRITICAL_SLO_MS, **modes,
    )
    return outcome, cache, tracer


def _no_stale_fields(result):
    # sim_seconds is host wall time: the one field allowed to differ.
    return dataclasses.replace(result, sim_seconds=0.0)


def _worker_intervals(events):
    """Per-instance ``[start, end)`` occupancy from the worker lanes.

    A ``batch`` span covers a whole batch (its per-request ``serve``
    spans nest inside); ``sharded``, ``sharded.backfill`` and
    ``sharded.resume`` spans cover a gang member's share of a job.
    """
    lanes = {}
    for event in events:
        if event.kind == "span" and (
            event.name == "batch" or event.name.startswith("sharded")
        ):
            lanes.setdefault(event.lane, []).append(
                (event.ts, event.ts + event.dur)
            )
    return lanes


@settings(max_examples=25, deadline=None)
@given(
    coschedule=st.booleans(),
    chip_capacity=st.sampled_from((None, CAPACITY)),
    seed=st.integers(0, 5),
)
def test_invariants_hold_across_the_mode_product(
    coschedule, chip_capacity, seed
):
    requests = _trace(seed)
    modes = {"coschedule": coschedule, "chip_capacity": chip_capacity}
    outcome, cache, tracer = _serve(requests, 1, **modes)

    # Exactly one result per request, in submission order (the queue
    # numbers requests that carry no id by arrival sequence).
    assert [r.request_id for r in outcome.results] == [
        i if r.request_id is None else r.request_id
        for i, r in enumerate(requests)
    ]

    # Timestamps are ordered for every request.
    for request, result in zip(requests, outcome.results):
        assert result.arrival_time == request.arrival_time
        assert result.arrival_time <= result.start_time
        assert result.start_time <= result.finish_time

    # A preempted job's timeline stretches by exactly its preempted
    # intervals: the service it receives is its modeled duration at
    # the request's config.
    preempted = {}
    for event in tracer.events:
        if event.name == "request.preempted":
            seq = event.args["seq"]
            preempted[seq] = preempted.get(seq, 0.0) + event.dur
    for seq, (request, result) in enumerate(zip(requests, outcome.results)):
        if result.preemptions == 0:
            assert seq not in preempted
            continue
        service = request.config.cycles_to_seconds(result.total_cycles)
        stretched = result.finish_time - result.start_time
        assert abs(stretched - (service + preempted[seq])) <= 1e-12

    # No instance is ever double-booked: its batch, gang and resume
    # spans never overlap (up to float rounding of trimmed spans).
    for lane, spans in _worker_intervals(tracer.events).items():
        spans.sort()
        for (_s0, end), (start, _e1) in zip(spans, spans[1:]):
            assert start >= end - 1e-12, (lane, spans)

    # The recorded stream rebuilds the hand-folded aggregates exactly.
    assert service_stats_view(
        tracer.events, wall_seconds=outcome.stats.wall_seconds
    ) == outcome.stats
    assert latency_stats_view(tracer.events) == outcome.latency

    # Host parallelism changes nothing modeled.
    pooled, pooled_cache, pooled_tracer = _serve(requests, 2, **modes)
    assert [_no_stale_fields(r) for r in pooled.results] == [
        _no_stale_fields(r) for r in outcome.results
    ]
    assert dataclasses.replace(pooled.stats, wall_seconds=0.0) == (
        dataclasses.replace(outcome.stats, wall_seconds=0.0)
    )
    assert pooled.latency == outcome.latency
    assert pooled_cache.stats == cache.stats
    assert list(pooled_cache._entries) == list(cache._entries)
    assert stream_fingerprint(pooled_tracer.events) == stream_fingerprint(
        tracer.events
    )
