"""The serving benchmarks behind ``repro serve-bench``.

:func:`compare_caching` runs the same repeated-graph RMAT request mix
through the :class:`~repro.serve.InferenceService` twice — autotune
cache disabled, then enabled — and reports wall-clock throughput, hit
rate and the cache speedup, verifying along the way that cache-hit
results are cycle-identical to the cold runs (the cache must never
change model semantics, only simulation cost).

:func:`compare_latency` is the streaming counterpart: the same mix
arrives over simulated time (Poisson or bursty) with a latency SLO,
and the report pivots from throughput to tail latency — p50/p95/p99
end-to-end latency, mean queueing delay and SLO attainment — again in
both cache modes, verifying that caching changes neither a cycle count
nor a single simulated timestamp (scheduling runs on the simulated
clock, which the cache cannot touch).
"""

from __future__ import annotations

from repro.accel.config import ArchConfig
from repro.analysis.report import ascii_table
from repro.serve.service import serve_requests
from repro.serve.traffic import streaming_traffic, synthetic_traffic

# The default mix: graphs large enough that Eq. 5 tuning dominates a
# cold request, served under a config whose damped, patient tuner takes
# realistically many rounds to converge (the regime where GNNIE-style
# decision caching pays).
DEFAULT_GRAPH_KWARGS = {"f2": 96}


def default_serving_config(n_pes=192):
    """The arch config the serving mix is simulated under."""
    return ArchConfig(
        n_pes=n_pes,
        hop=1,
        remote_switching=True,
        convergence_patience=4,
        switch_damping=0.7,
    )


def compare_caching(*, n_requests=96, n_graphs=4, n_nodes=16384, seed=7,
                    n_workers=2, n_pes=192, configs=None, graph_kwargs=None,
                    workers=1):
    """Serve one mix with and without the cache; returns ``(rows, text)``.

    ``rows`` has one dict per mode (``no-cache`` / ``cache``) plus the
    derived comparison row carrying the speedup and the cycle-identity
    verdict; ``text`` is the rendered table with a summary line.
    ``workers`` runs the underlying simulations on the
    :mod:`repro.parallel` process pool (host execution only — every
    reported cycle, timestamp and verdict is bit-identical to the
    sequential ``workers=1`` oracle; only wall-clock columns shrink).
    """
    if configs is None:
        configs = (default_serving_config(n_pes),)
    if graph_kwargs is None:
        graph_kwargs = dict(DEFAULT_GRAPH_KWARGS)
    requests = synthetic_traffic(
        n_requests, n_graphs=n_graphs, n_nodes=n_nodes, seed=seed,
        configs=configs, graph_kwargs=graph_kwargs,
    )
    # Materialize the graph pool up front: dataset construction is
    # identical in both modes and must not pollute the comparison.
    for request in requests:
        request.resolve_graph()

    outcomes = {}
    for mode, cache in (("no-cache", None), ("cache", True)):
        outcomes[mode] = serve_requests(
            requests, n_workers=n_workers, cache=cache, workers=workers,
        )

    cold, warm = outcomes["no-cache"], outcomes["cache"]
    identical = all(
        a.total_cycles == b.total_cycles and a.utilization == b.utilization
        for a, b in zip(cold.results, warm.results)
    )
    speedup = (
        cold.stats.wall_seconds / warm.stats.wall_seconds
        if warm.stats.wall_seconds else float("inf")
    )

    rows = []
    for mode in ("no-cache", "cache"):
        stats = outcomes[mode].stats
        rows.append({
            "mode": mode,
            "requests": stats.n_requests,
            "batches": stats.n_batches,
            "cache_hits": stats.cache_hits,
            "hit_rate": round(stats.hit_rate, 4),
            "evictions": stats.n_evictions,
            "wall_s": round(stats.wall_seconds, 4),
            "req_per_s": round(stats.requests_per_second, 2),
            "total_cycles": stats.total_cycles,
            "mean_util": round(stats.mean_utilization, 4),
        })
    rows.append({
        "mode": "speedup",
        "requests": n_requests,
        "batches": "-",
        "cache_hits": "-",
        "hit_rate": "-",
        "evictions": "-",
        "wall_s": "-",
        "req_per_s": round(speedup, 2),
        "total_cycles": "identical" if identical else "MISMATCH",
        "mean_util": "-",
    })

    table = ascii_table(
        ["mode", "requests", "batches", "hits", "hit rate", "evict",
         "wall (s)", "req/s", "total cycles", "mean util"],
        [[r["mode"], r["requests"], r["batches"], r["cache_hits"],
          r["hit_rate"], r["evictions"], r["wall_s"], r["req_per_s"],
          r["total_cycles"], r["mean_util"]] for r in rows],
        title=(
            f"Serving throughput: {n_requests} requests over {n_graphs} "
            f"RMAT graphs ({n_nodes} nodes, {n_pes} PEs, "
            f"{n_workers} instances)"
        ),
    )
    verdict = "cycle-identical" if identical else "CYCLE MISMATCH (bug!)"
    text = (
        f"{table}\n"
        f"autotune-cache speedup: {speedup:.2f}x "
        f"(hit rate {warm.stats.hit_rate:.1%}); "
        f"cache-hit results are {verdict} to cold runs"
    )
    return rows, text


def compare_latency(*, n_requests=96, n_graphs=4, n_nodes=4096, seed=7,
                    n_workers=2, n_pes=96, arrival_rate=400.0, slo_ms=None,
                    arrival="poisson", burst_size=8, max_batch=8,
                    configs=None, graph_kwargs=None, workers=1):
    """Streaming latency/SLO comparison; returns ``(rows, text)``.

    Serves one fixed-seed streaming trace (arrival process + optional
    per-request SLO) through the event-driven service with the autotune
    cache disabled and enabled. ``rows`` has one dict per mode plus a
    comparison row carrying the wall speedup and two identity verdicts:
    cycle identity (total cycles match exactly) and timeline identity
    (every simulated start/finish timestamp matches exactly — caching
    must be invisible to the simulated clock). All latency figures are
    simulated milliseconds and deterministic under the seed.
    ``workers`` parallelizes the host-side simulations as in
    :func:`compare_caching` — bit-identical results, smaller wall-clock
    columns.
    """
    if configs is None:
        configs = (default_serving_config(n_pes),)
    if graph_kwargs is None:
        graph_kwargs = dict(DEFAULT_GRAPH_KWARGS)
    requests = streaming_traffic(
        n_requests, arrival_rate=arrival_rate, arrival=arrival,
        burst_size=burst_size, slo_ms=slo_ms, n_graphs=n_graphs,
        n_nodes=n_nodes, seed=seed, configs=configs,
        graph_kwargs=graph_kwargs,
    )
    # Materialize the graph pool up front: dataset construction is
    # identical in both modes and must not pollute the comparison.
    for request in requests:
        request.resolve_graph()

    outcomes = {}
    for mode, cache in (("no-cache", None), ("cache", True)):
        outcomes[mode] = serve_requests(
            requests, n_workers=n_workers, cache=cache,
            max_batch=max_batch, workers=workers,
        )

    cold, warm = outcomes["no-cache"], outcomes["cache"]
    cycles_identical = all(
        a.total_cycles == b.total_cycles
        for a, b in zip(cold.results, warm.results)
    )
    timeline_identical = all(
        a.start_time == b.start_time and a.finish_time == b.finish_time
        for a, b in zip(cold.results, warm.results)
    )
    speedup = (
        cold.stats.wall_seconds / warm.stats.wall_seconds
        if warm.stats.wall_seconds else float("inf")
    )

    rows = []
    for mode in ("no-cache", "cache"):
        outcome = outcomes[mode]
        stats, latency = outcome.stats, outcome.latency
        attainment = latency.slo_attainment
        rows.append({
            "mode": mode,
            "requests": stats.n_requests,
            "batches": stats.n_batches,
            "hit_rate": round(stats.hit_rate, 4),
            "p50_ms": round(latency.p50_ms, 4),
            "p95_ms": round(latency.p95_ms, 4),
            "p99_ms": round(latency.p99_ms, 4),
            "p999_ms": round(latency.p999_ms, 4),
            "queue_ms": round(latency.mean_queue_ms, 4),
            "slo_attained": (
                "-" if attainment is None else round(attainment, 4)
            ),
            "makespan_s": round(stats.makespan_seconds, 4),
            "wall_s": round(stats.wall_seconds, 4),
        })
    rows.append({
        "mode": "speedup",
        "requests": n_requests,
        "batches": "-",
        "hit_rate": "-",
        "p50_ms": "identical" if timeline_identical else "MISMATCH",
        "p95_ms": "-",
        "p99_ms": "-",
        "p999_ms": "-",
        "queue_ms": "-",
        "slo_attained": "-",
        "makespan_s": "identical" if cycles_identical else "MISMATCH",
        "wall_s": round(speedup, 2),
    })

    slo_label = f"{slo_ms:g} ms SLO" if slo_ms is not None else "no SLO"
    table = ascii_table(
        ["mode", "requests", "batches", "hit rate", "p50 (ms)", "p95 (ms)",
         "p99 (ms)", "p99.9 (ms)", "queue (ms)", "SLO att.",
         "makespan (s)", "wall (s)"],
        [[r["mode"], r["requests"], r["batches"], r["hit_rate"],
          r["p50_ms"], r["p95_ms"], r["p99_ms"], r["p999_ms"],
          r["queue_ms"], r["slo_attained"], r["makespan_s"],
          r["wall_s"]] for r in rows],
        title=(
            f"Serving latency: {n_requests} requests over {n_graphs} RMAT "
            f"graphs ({n_nodes} nodes, {n_pes} PEs, {n_workers} instances), "
            f"{arrival} arrivals at {arrival_rate:g} req/s, {slo_label}"
        ),
    )
    warm_latency = warm.latency
    attainment = warm_latency.slo_attainment
    attainment_txt = (
        "no SLO set" if attainment is None
        else f"SLO attainment {attainment:.1%}"
    )
    cycles_verdict = (
        "cycle-identical" if cycles_identical else "CYCLE MISMATCH (bug!)"
    )
    timeline_verdict = (
        "timeline-identical" if timeline_identical
        else "TIMELINE MISMATCH (bug!)"
    )
    text = (
        f"{table}\n"
        f"p50/p95/p99 = {warm_latency.p50_ms:.3f}/"
        f"{warm_latency.p95_ms:.3f}/{warm_latency.p99_ms:.3f} ms, "
        f"{attainment_txt}; autotune-cache speedup {speedup:.2f}x; "
        f"cached runs are {cycles_verdict} and {timeline_verdict} "
        f"to cold runs"
    )
    return rows, text
