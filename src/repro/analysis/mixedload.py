"""Mixed-load co-scheduling sweep: multi-tenant pool on vs off.

The multi-tenant service (PR 8) makes three promises over the
exclusive-gang baseline: deadline-critical small queries stop starving
behind pool-wide sharded jobs (boundary preemption), waiting gangs stop
racing batch traffic for simultaneous idleness (claims bound the
assembly instant), and concurrent sharded jobs price their halo traffic
honestly on one shared fabric. This sweep drives identical
:func:`~repro.serve.traffic.mixed_traffic` traces — critical smalls,
SLO'd batch queries and oversized sharded jobs on one Poisson stream —
through the same pool twice per traffic point, co-scheduling off and
on, and records SLO attainment (overall and for the critical class),
modeled makespan, and how often the new machinery fired
(preemptions, backfills).

The verdict line asserts the headline claim the bench suite enforces:
at *every* swept traffic point, co-scheduling improves SLO attainment
or modeled throughput (never trading both away). Everything is on the
simulated clock and fully seeded, so the table regenerates
bit-identically.
"""

from __future__ import annotations

from repro.accel.config import ArchConfig
from repro.analysis.report import ascii_table
from repro.errors import ConfigError
from repro.serve.service import serve_requests
from repro.serve.traffic import mixed_traffic


def _attainment(results, *, critical_slo_ms=None):
    """SLO attainment over ``results`` (optionally one class only)."""
    scoped = [
        r for r in results
        if r.slo_ms is not None
        and (critical_slo_ms is None or r.slo_ms <= critical_slo_ms)
    ]
    if not scoped:
        return None
    return sum(1 for r in scoped if r.slo_met) / len(scoped)


def compare_mixed_load(*, n_requests=120, rates=(600.0, 900.0, 1800.0),
                       n_workers=4, chip_capacity=1024, pes_per_chip=64,
                       critical_fraction=0.25, sharded_fraction=0.15,
                       critical_slo_ms=1.0, batch_slo_ms=25.0,
                       sharded_slo_ms=100.0, sharded_nodes=4096,
                       seed=7):
    """Run the mixed-load co-scheduling sweep; returns ``(rows, text)``.

    One :func:`~repro.serve.traffic.mixed_traffic` trace per arrival
    rate in ``rates`` (requests/second), served twice on an
    ``n_workers``-instance pool with per-instance capacity
    ``chip_capacity``: co-scheduling off (the exclusive-gang baseline)
    and on (claims + priority classes + boundary preemption + shared
    fabric, ``critical_slo_ms`` as the class-0 threshold). Two rows per
    rate report overall and critical-class SLO attainment, modeled
    makespan, and the preemption/backfill counts.
    """
    if not rates:
        raise ConfigError("rates must be a non-empty sequence")
    rates = tuple(float(rate) for rate in rates)
    if any(rate <= 0 for rate in rates):
        raise ConfigError(f"rates must be > 0, got {rates}")
    config = ArchConfig(n_pes=pes_per_chip, hop=1, remote_switching=True)

    rows = []
    for rate in rates:
        requests = mixed_traffic(
            n_requests, arrival_rate=rate, chip_capacity=chip_capacity,
            seed=seed, configs=(config,),
            critical_fraction=critical_fraction,
            sharded_fraction=sharded_fraction,
            critical_slo_ms=critical_slo_ms, batch_slo_ms=batch_slo_ms,
            sharded_slo_ms=sharded_slo_ms, sharded_nodes=sharded_nodes,
        )
        for mode, coschedule in (("off", False), ("on", True)):
            outcome = serve_requests(
                requests, n_workers=n_workers, cache=True,
                chip_capacity=chip_capacity, coschedule=coschedule,
                critical_slo_ms=critical_slo_ms if coschedule else None,
            )
            overall = _attainment(outcome.results)
            critical = _attainment(
                outcome.results, critical_slo_ms=critical_slo_ms
            )
            rows.append({
                "rate": rate,
                "mode": mode,
                "slo_attainment": round(overall, 4)
                if overall is not None else "",
                "critical_attainment": round(critical, 4)
                if critical is not None else "",
                "makespan_ms": round(
                    outcome.stats.makespan_seconds * 1e3, 4
                ),
                "p99_ms": round(outcome.latency.p99_ms, 4),
                "hit_rate": round(outcome.stats.hit_rate, 4),
                "n_sharded": outcome.stats.n_sharded,
                "n_backfilled": outcome.stats.n_backfilled,
                "n_preemptions": outcome.stats.n_preemptions,
            })

    table = ascii_table(
        ["rate", "mode", "slo_att", "crit_att", "makespan_ms", "p99_ms",
         "hit_rate", "sharded", "backfill", "preempt"],
        [[r["rate"], r["mode"], r["slo_attainment"],
          r["critical_attainment"], r["makespan_ms"], r["p99_ms"],
          r["hit_rate"], r["n_sharded"],
          r["n_backfilled"], r["n_preemptions"]]
         for r in rows],
        title=(
            f"Mixed-load co-scheduling: {n_workers} instances x "
            f"{chip_capacity} rows, {n_requests} requests "
            f"({critical_fraction:.0%} critical @ {critical_slo_ms}ms, "
            f"{sharded_fraction:.0%} sharded), seed {seed}"
        ),
    )
    text = table + "\n" + _verdict(rows)
    return rows, text


def _verdict(rows):
    """The claim line under the mixed-load table."""
    improved = []
    for off, on in zip(rows[0::2], rows[1::2]):
        off_att = off["slo_attainment"] or 0.0
        on_att = on["slo_attainment"] or 0.0
        improved.append(
            on_att > off_att
            or (on_att == off_att
                and on["makespan_ms"] < off["makespan_ms"])
            or (on_att == off_att
                and on["makespan_ms"] == off["makespan_ms"]
                and on["p99_ms"] <= off["p99_ms"])
        )
    if not all(improved):
        losing = [
            off["rate"] for off, ok in zip(rows[0::2], improved) if not ok
        ]
        return (
            "co-scheduling FAILED to improve SLO attainment or "
            f"throughput at rate(s) {losing}"
        )
    gains = [
        round((on["slo_attainment"] or 0.0) - (off["slo_attainment"] or 0.0),
              4)
        for off, on in zip(rows[0::2], rows[1::2])
    ]
    return (
        "co-scheduling improves SLO attainment or throughput at every "
        f"mixed-traffic point (attainment deltas {gains})"
    )
