"""Self-tests of the benchmark harness, on tiny variants of each workload.

Run from the repository root::

    python3 -m pytest perfbench/selftest.py -q
"""

from __future__ import annotations

import collections
import json
import os
import signal
import sys
import time
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from hostclock import HostClock  # noqa: E402
from layertrace import LayerTracer, Target  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

TINY = 40
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.fixture
def toy_package():
    """``toypkg`` defines a small call tree; ``toypkg.user`` imported
    ``leaf`` by name, as ``from toypkg import leaf`` would."""
    pkg = types.ModuleType("toypkg")
    exec(
        "import time\n"
        "def leaf(fail=False):\n"
        "    time.sleep(0.01)\n"
        "    if fail:\n"
        "        raise ValueError('leaf failed')\n"
        "    return 1\n"
        "def root():\n"
        "    return leaf() + leaf()\n"
        "class Box:\n"
        "    def get(self):\n"
        "        return root()\n",
        pkg.__dict__,
    )
    user = types.ModuleType("toypkg.user")
    user.leaf = pkg.leaf
    sys.modules.update({"toypkg": pkg, "toypkg.user": user})
    yield pkg, user
    del sys.modules["toypkg"], sys.modules["toypkg.user"]


def test_wrapper_counts_calls_and_restores_bindings(toy_package):
    pkg, user = toy_package
    originals = (pkg.leaf, pkg.root, pkg.Box.__dict__["get"], user.leaf)
    targets = [Target("toy", "toypkg", name)
               for name in ("leaf", "root", "Box.get")]
    with LayerTracer(targets, package="toypkg") as tracer:
        assert pkg.leaf is not originals[0] and user.leaf is not originals[3]
        assert pkg.Box().get() == 2
        assert user.leaf() == 1
        with pytest.raises(ValueError):
            pkg.leaf(fail=True)
    assert tracer.calls == {"toy.leaf": 4, "toy.root": 1, "toy.Box.get": 1}
    assert (pkg.leaf, pkg.root, pkg.Box.__dict__["get"], user.leaf) \
        == originals
    # Self time excludes traced callees: root only adds and returns.
    assert tracer.cum_s["toy.root"] >= 0.02
    assert tracer.self_s["toy.root"] < 0.01
    assert tracer.self_s["toy.Box.get"] < 0.01
    assert tracer.cum_s["toy.leaf"] == pytest.approx(
        tracer.self_s["toy.leaf"])


def test_tracer_restores_bindings_when_a_target_is_missing(toy_package):
    pkg, _user = toy_package
    leaf = pkg.leaf
    tracer = LayerTracer([Target("toy", "toypkg", "leaf"),
                          Target("toy", "toypkg", "absent")],
                         package="toypkg")
    with pytest.raises(AttributeError):
        with tracer:
            pass
    assert pkg.leaf is leaf


def test_host_clock_samples_and_restores_the_alarm_handler():
    previous = signal.getsignal(signal.SIGALRM)
    with HostClock() as clock:
        start = time.perf_counter()
        while time.perf_counter() - start < 1.2:
            pass
        end = time.perf_counter()
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(clock.speeds(start, end)) >= 5
    # Ticks are taken out of the interval before scaling.
    ticks = sum(t for when, t, _loop in clock.samples if start <= when <= end)
    assert clock.reference_seconds(start, end, speed=1.0) \
        == pytest.approx(end - start - ticks)
    assert 0 < ticks < end - start


def _started(_tracer, _args):
    return time.perf_counter()


def _churn_as_long_again(tracer, started, _args, _result):
    """Keep the host busy for as long as the call took, churning
    objects the garbage collector tracks (a bounded number stay alive,
    so the collector keeps scanning and promoting them)."""
    took = time.perf_counter() - started
    begun = time.perf_counter()
    live = collections.deque(maxlen=64)
    while time.perf_counter() - begun < took:
        live.append([{"row": i} for i in range(32)])
    live.clear()
    tracer.count("injected_s", time.perf_counter() - begun)


def test_injected_slowdown_shows_in_reference_throughput():
    # Doubling every replay_simulation call with allocation-heavy work
    # must lower reference-speed throughput by at least the factor it
    # adds to the drain's wall time: the calibration loop must not slow
    # down with the program's heap and scale the slowdown away. (The
    # churn also evicts the program's caches, which slows the rest of
    # the drain a little: the fall may exceed the factor.)
    workload = WORKLOADS["serve_repeat"]
    trace = workload.make_trace(3, 600)
    slower = LayerTracer([Target("parallel", "repro.parallel",
                                 "replay_simulation", before=_started,
                                 after=_churn_as_long_again)])
    run.Drain(workload, trace[:40])  # warm-up
    with HostClock() as clock:
        plain = run.Drain(workload, trace)
        injected = run.Drain(workload, trace, slower)
    assert injected.digest == plain.digest and not injected.failed
    wall = injected.ended - injected.started
    factor = wall / (wall - slower.counters["injected_s"])
    assert factor > 1.5
    fall = plain.req_per_s(clock) / injected.req_per_s(clock)
    assert 0.9 * factor < fall < 1.35 * factor


@pytest.mark.parametrize("surplus", [1, -1])
def test_a_surplus_or_missing_result_fails_every_request(surplus):
    workload = WORKLOADS["serve_repeat"]
    trace = workload.make_trace(3, TINY)
    results = run.Drain(workload, trace).outcome.results
    assert run.failed_requests(trace, results) == set()
    changed = results + results[-1:] if surplus > 0 else results[:-1]
    assert run.failed_requests(trace, changed) == set(range(TINY))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_drain_matches_untraced(name):
    workload = WORKLOADS[name]
    trace = workload.make_trace(3, TINY)
    plain = run.Drain(workload, trace)
    tracer = LayerTracer(run.drain_targets())
    traced = run.Drain(workload, trace, tracer)
    assert plain.error is None and traced.error is None
    assert not plain.failed and not traced.failed
    assert plain.digest == traced.digest
    assert tracer.calls["serve.service.InferenceService.drain"] == 1
    assert run.Drain(workload, trace, LayerTracer(run.drain_targets())) \
        .digest == plain.digest


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_changes_the_trace(name):
    make = WORKLOADS[name].make_trace
    arrivals = [[r.arrival_time for r in make(seed, TINY)]
                for seed in (1, 1, 2)]
    assert arrivals[0] == arrivals[1]
    assert arrivals[0] != arrivals[2]


def _declared(kind):
    return {m["name"]: m for m in BENCHMARK[kind]}


def test_declared_metrics_match_the_runner():
    assert [(m["name"], m["unit"], m["better"])
            for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in BENCHMARK["per_layer"]] == run.per_layer_specs()
    assert sorted(w["name"] for w in BENCHMARK["workloads"]) \
        == sorted(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_printed_metrics_are_declared(name, trace, capsys):
    started = time.perf_counter()
    result = run.run(name, 3, 0.01, trace, n_requests=TINY)
    assert time.perf_counter() - started < 60
    run_line = next(line for line in capsys.readouterr().out.splitlines()
                    if line.startswith("run "))
    # Even a run shorter than one drain drains on every CPU and, when
    # tracing, compares two traced drains.
    drains = json.loads(run_line[4:])["drains"]
    assert drains["untraced"] >= len(os.sched_getaffinity(0))
    assert drains["traced"] == (2 if trace else 0)
    declared = _declared("per_layer" if trace else "end_to_end")
    assert set(result["metrics"]) == set(declared)
    for metric_name, metric in result["metrics"].items():
        assert metric["unit"] == declared[metric_name]["unit"]
    assert result["failed"] == 0 and result["attempted"] >= TINY
