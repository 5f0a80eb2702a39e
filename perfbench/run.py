"""Repository benchmark: simulator host throughput and modeled latency.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve_repeat --seed 1 \
        --seconds 30 --trace 0

One run generates the workload's trace from ``--seed``, sets it up
several times (trace, graphs, fingerprints, service) and reports the
median set-up time, drains a prefix of the trace untimed as a warm-up,
then drains it with a fresh service and cache until ``--seconds`` have
passed. Every drain's outputs are checked; the last stdout line is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.

Host timings are in reference seconds (:mod:`hostclock`) and cycle over
the CPUs the process may use; see ``README.md`` for why.

``--trace 0`` reports the end-to-end metrics (untraced drains only).
``--trace 1`` alternates untraced drains with drains run under
:class:`layertrace.LayerTracer` and reports the per-layer metrics,
including the tracing overhead between the two kinds of drain.

Host metrics measure the simulator; modeled metrics measure the
simulated accelerator pool and repeat exactly for a given seed.
"""

from __future__ import annotations

import argparse
import ctypes
import datetime
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from layertrace import LayerTracer, Target

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPS = 3
SETUP_SECONDS = 4.0
"""Set-up repeats at least ``SETUP_REPS`` times on each CPU, and for
``SETUP_SECONDS`` in all."""
WARMUP_REQUESTS = 200
"""The warm-up drain serves a prefix of the trace: enough to import
every lazily loaded module and touch every code path once."""
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3  # glibc mallopt parameters
MMAP_THRESHOLD = 32 << 20
TRIM_THRESHOLD = 64 << 20
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS")

END_TO_END = (
    # (name, unit, better); host = simulator time at the reference host
    # speed (hostclock), modeled = simulated accelerator time.
    ("host_req_per_s", "req/s", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("modeled_p50_ms", "ms", "lower"),
    ("modeled_p99_ms", "ms", "lower"),
    ("slo_attainment", "ratio", "higher"),
    ("critical_slo_attainment", "ratio", "higher"),
    ("pe_utilization", "ratio", "higher"),
    ("success_rate", "ratio", "higher"),
)


def _rows_priced(tracer, _state, args, _result):
    tracer.count("accel.localshare.rows_priced", len(args[0]))


def _rounds_priced(tracer, _state, _args, result):
    tracer.count("accel.remote.rounds_priced", int(result))


FROZEN = "accel.cyclemodel.simulate_spmm_frozen"
HALL = "accel.localshare.share_window_bounds_batch"


def _replay_entry(tracer, _args):
    return tracer.calls[FROZEN], tracer.calls[HALL]


def _replay_exit(tracer, state, _args, report):
    # Attribute kernel calls to single-instance requests served from
    # the cache: the O(1)-hit work counters.
    if report.cache_hit:
        tracer.count("hits")
        tracer.count("frozen_in_hits", tracer.calls[FROZEN] - state[0])
        tracer.count("hall_in_hits", tracer.calls[HALL] - state[1])


def drain_targets():
    """Functions traced during a drain, by layer."""
    sched = "repro.serve.scheduler"
    return [
        Target("serve.service", "repro.serve.service",
               "InferenceService.drain"),
        *(Target("serve.scheduler", sched, f"StreamingScheduler.{m}")
          for m in ("admit", "cut_due", "flush", "peek_ready", "pop_ready",
                    "next_cut_time", "estimate", "observe")),
        *(Target("serve.cache", "repro.serve.cache", f"AutotuneCache.{m}")
          for m in ("lookup", "peek", "store", "merge")),
        Target("parallel", "repro.parallel", "replay_simulation",
               before=_replay_entry, after=_replay_exit),
        *(Target("accel.gcnaccel", "repro.accel.gcnaccel",
                 f"GcnAccelerator.{m}")
          for m in ("__init__", "fingerprint", "run")),
        Target("accel.cyclemodel", "repro.accel.cyclemodel", "simulate_spmm"),
        Target("accel.cyclemodel", "repro.accel.cyclemodel",
               "simulate_spmm_frozen"),
        Target("accel.remote", "repro.accel.remote",
               "RemoteAutoTuner.observe_round"),
        Target("accel.remote", "repro.accel.remote",
               "RemoteAutoTuner.observe_rounds", after=_rounds_priced),
        Target("accel.remote", "repro.accel.remote",
               "RemoteAutoTuner.speculate_loads"),
        *(Target("accel.workload", "repro.accel.workload",
                 f"RowAssignment.{m}")
          for m in ("swap_rows", "move_rows")),
        Target("accel.localshare", "repro.accel.localshare",
               "share_makespan_batch"),
        Target("accel.localshare", "repro.accel.localshare",
               "share_window_bounds_batch", after=_rows_priced),
        Target("accel.localshare", "repro.accel.localshare",
               "share_effective_loads"),
        *(Target("cluster.multichip", "repro.cluster.multichip", f)
          for f in ("simulate_multichip_gcn", "rebalance_plan")),
        *(Target("cluster.partition", "repro.cluster.partition", f)
          for f in ("make_plan", "halo_exchange")),
        Target("cluster.topology", "repro.cluster.topology",
               "Topology.comm_cycles"),
    ]


def setup_targets():
    """Functions traced during one set-up (trace generation and graphs)."""
    return [
        *(Target("serve.traffic", "repro.serve.traffic", f)
          for f in ("streaming_traffic", "mixed_traffic", "bursty_arrivals",
                    "RmatGraphSpec.build")),
        Target("datasets", "repro.datasets.registry", "dataset_fingerprint"),
    ]


DERIVED = (
    ("serve.service.requests_per_batch", "req/batch", "higher"),
    ("serve.scheduler.queue_wait_ms", "ms", "lower"),
    ("serve.cache.hit_ratio", "ratio", "higher"),
    ("serve.cache.evictions", "count", "lower"),
    ("accel.gcnaccel.builds_per_request", "1/req", "lower"),
    ("accel.cyclemodel.frozen_calls_per_hit", "1/hit", "lower"),
    ("accel.remote.rounds_priced", "count", "lower"),
    ("accel.localshare.rows_priced", "count", "lower"),
    ("accel.localshare.hall_calls_per_hit", "1/hit", "lower"),
    ("datasets.graphs_built", "count", "lower"),
    ("trace.overhead_pct", "%", "lower"),
    ("trace.attributed_share", "ratio", "higher"),
)


def per_layer_specs():
    """Every per-layer metric as ``(name, unit, better)``."""
    specs = []
    for target in setup_targets() + drain_targets():
        specs += [(f"{target.name}.calls", "count", "lower"),
                  (f"{target.name}.cum_s", "s", "lower"),
                  (f"{target.name}.self_s", "s", "lower")]
    return specs + list(DERIVED)


def _fix_malloc_thresholds():
    """Pin glibc's mmap and trim thresholds; returns whether it could.

    glibc raises its mmap threshold at run time, depending on which
    blocks the process happened to free. Processes that did not raise
    it mmap and unmap NumPy's medium-sized buffers on every call, and
    served ``serve_repeat`` 45% slower than their luckier twins (about
    half of all runs). Setting the thresholds turns that adjustment off.
    """
    try:
        libc = ctypes.CDLL(None)
        mallopt = libc.mallopt
    except (OSError, AttributeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return bool(mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD)
                and mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD))


def _use_checkout_sources():
    """Import ``repro`` from this checkout's ``src`` or exit non-zero."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import repro
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import repro from {src}: {exc}")
    if src not in Path(repro.__file__).resolve().parents:
        sys.exit(f"perfbench: repro resolved outside {src}")


def _git_rev():
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def provenance(workload, seed, n_requests, seconds, trace,
               malloc_pinned=None):
    import numpy

    return {
        "git_rev": _git_rev(), "workload": workload.name, "seed": seed,
        "n_requests": n_requests, "seconds": seconds, "trace": trace,
        "params": workload.params, "cpu_count": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "malloc_thresholds_pinned": malloc_pinned,
        "timestamp": datetime.datetime.now(datetime.timezone.utc)
        .isoformat(timespec="seconds"),
    }


def set_up(workload, seed, n_requests):
    """Generate the trace, build and fingerprint its graphs, construct a
    service. Returns ``(start, end, trace, n_graphs)``."""
    from repro.datasets import registry
    from repro.serve import traffic

    traffic.clear_graph_cache()
    gc.collect()
    started = time.perf_counter()
    trace = workload.make_trace(seed, n_requests)
    specs = list(dict.fromkeys(r.graph for r in trace))
    for spec in specs:
        registry.dataset_fingerprint(spec.build())
    workload.make_service().submit_many(trace)
    return started, time.perf_counter(), trace, len(specs)


def digest(results):
    """Hash of every request's (id, cycles, start, finish)."""
    h = hashlib.blake2b(digest_size=16)
    for r in results:
        h.update(repr((r.request_id, r.total_cycles, r.start_time,
                       r.finish_time)).encode())
    return h.hexdigest()


def failed_requests(trace, results):
    """Indices of requests without exactly one valid, consistent result.

    A request fails when its result carries another id or was shed, or
    its cycles differ from the first single-instance result of the same
    (graph, config): a cache hit must replay the cold run exactly.
    Sharded jobs are excluded from the cycle check, because co-scheduled
    fabric pricing depends on concurrent jobs. A drain that returns
    more or fewer results than requests fails every request.
    """
    if len(results) != len(trace):
        return set(range(len(trace)))
    failed = set()
    reference = {}
    for i, result in enumerate(results):
        if result.request_id != i or result.shed:
            failed.add(i)
            continue
        if result.n_shards == 1:
            key = (trace[i].graph, trace[i].config)
            if reference.setdefault(key, result.total_cycles) \
                    != result.total_cycles:
                failed.add(i)
    return failed


class Drain:
    """One timed drain of the whole trace on a fresh service."""

    def __init__(self, workload, trace, tracer=None, cpu=None):
        self.cpu = cpu
        service = workload.make_service()
        service.submit_many(trace)
        gc.collect()
        self.outcome = None
        self.error = None
        self.started = time.perf_counter()
        try:
            if tracer is None:
                self.outcome = service.drain()
            else:
                with tracer:
                    self.outcome = service.drain()
        except Exception:  # a failed drain fails all its requests
            self.error = traceback.format_exc()
        self.ended = time.perf_counter()
        self.n = len(trace)
        if self.outcome is None:
            self.failed = set(range(self.n))
            self.digest = None
        else:
            self.failed = failed_requests(trace, self.outcome.results)
            self.digest = digest(self.outcome.results)

    def req_per_s(self, clock=None):
        """Throughput in wall seconds, or in reference seconds of
        ``clock`` (a :class:`hostclock.HostClock`)."""
        if clock is None:
            return self.n / (self.ended - self.started)
        return self.n / clock.reference_seconds(self.started, self.ended)


def _attainment(results, slo_ms=None):
    scoped = [r for r in results if r.slo_ms is not None
              and (slo_ms is None or r.slo_ms <= slo_ms)]
    return sum(1 for r in scoped if r.slo_met) / len(scoped)


def per_cpu_rate(drains, clock):
    """Mean over CPUs of the median reference-speed throughput of the
    drains run on each."""
    by_cpu = {}
    for drain in drains:
        by_cpu.setdefault(drain.cpu, []).append(drain.req_per_s(clock))
    return statistics.mean(statistics.median(v) for v in by_cpu.values())


def end_to_end(drains, setup_s, clock, attempted, failed):
    """End-to-end metrics from the untraced drains of one run; host
    timings are in reference seconds of ``clock``."""
    outcome = drains[0].outcome
    results = outcome.results
    tightest = min(r.slo_ms for r in results if r.slo_ms is not None)
    values = {
        "host_req_per_s": per_cpu_rate(drains, clock),
        "setup_s": setup_s,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "modeled_p50_ms": outcome.latency.p50_ms,
        "modeled_p99_ms": outcome.latency.p99_ms,
        "slo_attainment": _attainment(results),
        # The tightest-SLO tenant (class 0 on mixed_sharded); on a
        # single-SLO workload this equals slo_attainment.
        "critical_slo_attainment": _attainment(results, tightest),
        "pe_utilization": outcome.stats.mean_utilization,
        "success_rate": 1.0 - failed / attempted,
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit, _better in END_TO_END}


def per_layer(setup_tracer, traced, untraced, n_graphs, clock):
    """Per-layer metrics: the traced set-up, then medians over the
    traced drains (call counts repeat exactly, so any drain's do)."""
    tracers = [tracer for _drain, tracer in traced]
    values = {}
    for group in ([setup_tracer], tracers):
        for name, calls in group[0].calls.items():
            values[f"{name}.calls"] = calls
            values[f"{name}.cum_s"] = statistics.median(
                t.cum_s[name] for t in group)
            values[f"{name}.self_s"] = statistics.median(
                t.self_s[name] for t in group)
    first = tracers[0]
    outcome = traced[0][0].outcome
    stats = outcome.stats
    hits = first.counters.get("hits", 0)
    drain = "serve.service.InferenceService.drain"
    traced_rps = per_cpu_rate([d for d, _t in traced], clock)
    untraced_rps = per_cpu_rate(untraced, clock)
    values.update({
        "serve.service.requests_per_batch":
            stats.n_requests / stats.n_batches,
        "serve.scheduler.queue_wait_ms": outcome.latency.mean_queue_ms,
        "serve.cache.hit_ratio": stats.hit_rate,
        "serve.cache.evictions": stats.n_evictions,
        "accel.gcnaccel.builds_per_request":
            first.calls["accel.gcnaccel.GcnAccelerator.__init__"]
            / stats.n_requests,
        "accel.cyclemodel.frozen_calls_per_hit":
            first.counters.get("frozen_in_hits", 0) / hits if hits else 0.0,
        "accel.remote.rounds_priced":
            first.counters.get("accel.remote.rounds_priced", 0),
        "accel.localshare.rows_priced":
            first.counters.get("accel.localshare.rows_priced", 0),
        "accel.localshare.hall_calls_per_hit":
            first.counters.get("hall_in_hits", 0) / hits if hits else 0.0,
        "datasets.graphs_built": n_graphs,
        "trace.overhead_pct": 100.0 * (1.0 - traced_rps / untraced_rps),
        "trace.attributed_share":
            1.0 - values[f"{drain}.self_s"] / values[f"{drain}.cum_s"],
    })
    return {name: {"value": values[name], "unit": unit}
            for name, unit, _better in per_layer_specs()}


def run(workload_name, seed, seconds, trace, *, n_requests=None,
        malloc_pinned=None):
    """One benchmark run; returns the result object printed last."""
    from hostclock import HostClock
    from workloads import WORKLOADS

    workload = WORKLOADS[workload_name]
    n_requests = n_requests or workload.n_requests
    print("provenance " + json.dumps(
        provenance(workload, seed, n_requests, seconds, trace,
                   malloc_pinned)))
    cpus = sorted(os.sched_getaffinity(0))
    try:
        with HostClock() as clock:
            setups, setup_s = [], []
            for cpu in cpus:
                os.sched_setaffinity(0, {cpu})
                block = []
                while len(block) < SETUP_REPS or block[-1][1] - block[0][0] \
                        < SETUP_SECONDS / len(cpus):
                    # Keep only the last trace: a run that kept them all
                    # would grow its heap and peak RSS with host speed.
                    start, end, requests, n_graphs = set_up(
                        workload, seed, n_requests)
                    block.append((start, end))
                speed = clock.speed(block[0][0], block[-1][1])
                setup_s.append(statistics.median(
                    clock.reference_seconds(start, end, speed)
                    for start, end in block))
                setups += block
            setup_tracer = None
            if trace:
                setup_tracer = LayerTracer(setup_targets())
                with setup_tracer:
                    _start, _end, requests, n_graphs = set_up(
                        workload, seed, n_requests)
            warmup = Drain(workload, requests[:WARMUP_REQUESTS])
            untraced, traced = [], []
            started = time.perf_counter()
            while True:
                # Rounds cycle over the CPUs: on a shared host one CPU
                # can run the program far slower than another for
                # minutes, and a process that stayed on one would
                # report that CPU's speed only.
                cpu = cpus[len(untraced) % len(cpus)]
                os.sched_setaffinity(0, {cpu})
                round_started = time.perf_counter()
                untraced.append(Drain(workload, requests, cpu=cpu))
                if trace:
                    tracer = LayerTracer(drain_targets())
                    traced.append(
                        (Drain(workload, requests, tracer, cpu=cpu), tracer))
                # Every run drains at least once on each CPU, and traces
                # at least two drains so that the work counters are
                # compared between drains. Past that, start another
                # round only if at least half of it fits, so a run lasts
                # about --seconds whatever the drain length.
                if len(untraced) < len(cpus) or trace and len(traced) < 2:
                    continue
                now = time.perf_counter()
                if now - started + (now - round_started) / 2 >= seconds:
                    break
    finally:
        os.sched_setaffinity(0, cpus)
    setup_s = statistics.mean(setup_s)

    problems = [f"warm-up drain raised:\n{warmup.error}"] \
        if warmup.error else []
    drains = untraced + [d for d, _t in traced]
    reference = drains[0].digest
    problems += [f"drain raised:\n{d.error}" for d in drains if d.error]
    if len({d.digest for d in drains}) > 1:
        problems.append("digest differs between drains")
        for d in drains:
            d.failed = set(range(d.n))
    complete = all(d.outcome is not None for d in drains)
    if complete:
        stats = drains[0].outcome.stats
        problems += [f"guard: {g}" for g in workload.guard(stats)]
    attempted = sum(d.n for d in drains)
    failed = sum(len(d.failed) for d in drains)
    if failed:
        problems.append(f"{failed} of {attempted} requests failed checks")
    if trace:
        counts = [(t.calls, t.counters) for _d, t in traced]
        if any(c != counts[0] for c in counts):
            problems.append("work counters differ between traced drains")
    if not complete:
        metrics = {}
    elif trace:
        metrics = per_layer(setup_tracer, traced, untraced, n_graphs, clock)
    else:
        metrics = end_to_end(untraced, setup_s, clock, attempted, failed)
    for problem in problems:
        print("FAIL " + problem)
    stats_line = {
        "cpus": cpus, "drains": {"untraced": len(untraced),
                                 "traced": len(traced)},
        "drain_cpus": [d.cpu for d in drains],
        "raw_setup_s": [round(end - start, 4) for start, end in setups],
        "raw_req_per_s": [round(d.req_per_s(), 2) for d in drains],
        "drain_host_speed": [round(clock.speed(d.started, d.ended), 3)
                             for d in drains],
        "latency_samples": len(requests), "digest": reference,
    }
    print("run " + json.dumps(stats_line))
    for name, metric in metrics.items():
        print(f"  {name:58s} {metric['value']:>16.6g} {metric['unit']}")
    return {"correct": not problems and bool(metrics),
            "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    malloc_pinned = _fix_malloc_thresholds()
    _use_checkout_sources()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(WORKLOADS)}")
    result = run(args.workload, args.seed, args.seconds, args.trace,
                 malloc_pinned=malloc_pinned)
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
