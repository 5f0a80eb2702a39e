"""Chrome-trace / Perfetto JSON export of recorded event streams.

Maps :class:`~repro.obs.tracer.TraceEvent` lanes onto the Chrome trace
event format (the JSON Perfetto and ``chrome://tracing`` both load):
lanes group into processes (``worker*`` lanes under one "pool" pid,
``req/*`` lanes under "requests", ``sim/*`` under "sim", ``cluster/*``
under "cluster"), each lane becomes a tid, spans emit as complete
(``"ph": "X"``) events, instants as ``"i"`` and counters as ``"C"``.
Wall-clock profiling spans export under a separate "wall
(nondeterministic)" process so the deterministic simulated-clock lanes
are never polluted.

Also here: :func:`validate_chrome_trace` (the schema check the CI
trace-smoke job runs), :func:`round_timeline_rows` (the per-round
chip-utilization CSV rows) and :func:`render_round_heat`, which feeds
those rows through the existing :mod:`repro.analysis.heatmap` grading.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.errors import ConfigError

_US = 1e6
"""Simulated seconds to Chrome-trace microseconds."""

_LANE_GROUPS = (
    ("worker", "pool"),
    ("req/", "requests"),
    ("sim/", "sim"),
    ("cluster/", "cluster"),
)


def lane_group(lane):
    """The process a lane belongs to (lanes group by prefix)."""
    for prefix, group in _LANE_GROUPS:
        if lane.startswith(prefix):
            return group
    return lane


def _lane_ids(events):
    """Deterministic (pid, tid) assignment for every lane seen."""
    lanes = sorted({event.lane for event in events})
    groups = sorted({lane_group(lane) for lane in lanes})
    pid_of_group = {group: i + 1 for i, group in enumerate(groups)}
    pid_of = {lane: pid_of_group[lane_group(lane)] for lane in lanes}
    tid_of = {lane: i + 1 for i, lane in enumerate(lanes)}
    return pid_of_group, pid_of, tid_of


def _json_arg(value):
    """Coerce one event arg into a JSON-stable value."""
    if isinstance(value, (list, tuple)):
        return [_json_arg(v) for v in value]
    if isinstance(value, (str, bool)) or value is None:
        return value
    if isinstance(value, float):
        return value
    if isinstance(value, int):
        return int(value)
    return str(value)


def chrome_trace(events, *, wall_events=()):
    """The Chrome-trace JSON document for one recorded stream.

    Events are ordered by ``(ts, seq)`` — simulated time first, with
    the deterministic emission sequence breaking ties — so identical
    streams serialize identically. Returns the ``dict`` ready for
    ``json.dump``.
    """
    events = sorted(events, key=lambda e: (e.ts, e.seq))
    pid_of_group, pid_of, tid_of = _lane_ids(events)
    out = []
    for group, pid in sorted(pid_of_group.items(), key=lambda kv: kv[1]):
        out.append({
            "ph": "M", "name": "process_name", "pid": pid, "tid": 0,
            "args": {"name": group},
        })
    for lane, tid in sorted(tid_of.items(), key=lambda kv: kv[1]):
        out.append({
            "ph": "M", "name": "thread_name", "pid": pid_of[lane],
            "tid": tid, "args": {"name": lane},
        })
    wall_pid = len(pid_of_group) + 1
    if wall_events:
        out.append({
            "ph": "M", "name": "process_name", "pid": wall_pid,
            "tid": 0, "args": {"name": "wall (nondeterministic)"},
        })
    for event in events:
        record = {
            "name": event.name,
            "pid": pid_of[event.lane],
            "tid": tid_of[event.lane],
            "ts": event.ts * _US,
            "args": {k: _json_arg(v) for k, v in event.args.items()},
        }
        if event.kind == "span":
            record["ph"] = "X"
            record["dur"] = event.dur * _US
        elif event.kind == "counter":
            record["ph"] = "C"
        else:
            record["ph"] = "i"
            record["s"] = "t"
        out.append(record)
    for event in sorted(wall_events, key=lambda e: (e.ts, e.seq)):
        out.append({
            "name": event.name, "ph": "X", "pid": wall_pid, "tid": 1,
            "ts": event.ts * _US, "dur": (event.dur or 0.0) * _US,
            "args": {k: _json_arg(v) for k, v in event.args.items()},
        })
    return {"traceEvents": out, "displayTimeUnit": "ms"}


def write_chrome_trace(path, events, *, wall_events=()):
    """Serialize :func:`chrome_trace` to ``path``; returns the path."""
    doc = chrome_trace(events, wall_events=wall_events)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return path


def validate_chrome_trace(doc):
    """Schema-check one Chrome-trace document; returns problem strings.

    Checks the contract the smoke job relies on: the required top-level
    keys exist, every event carries ``ph``/``name``/``ts``, complete
    (``X``) events have non-negative ``dur``, non-metadata timestamps
    are monotone non-decreasing per process, and any explicit
    begin/end (``B``/``E``) pairs balance per (pid, tid). An empty list
    means the document is valid.
    """
    problems = []
    if not isinstance(doc, dict) or "traceEvents" not in doc:
        return ["document must be a dict with a 'traceEvents' list"]
    records = doc["traceEvents"]
    if not isinstance(records, list):
        return ["'traceEvents' must be a list"]
    last_ts = {}
    open_spans = {}
    for i, record in enumerate(records):
        for key in ("ph", "name"):
            if key not in record:
                problems.append(f"event {i} missing required key {key!r}")
        ph = record.get("ph")
        if ph == "M":
            continue
        if "ts" not in record:
            problems.append(f"event {i} missing required key 'ts'")
            continue
        pid = record.get("pid")
        ts = record["ts"]
        if pid in last_ts and ts < last_ts[pid]:
            problems.append(
                f"event {i} timestamp {ts} not monotone for pid {pid} "
                f"(previous {last_ts[pid]})"
            )
        last_ts[pid] = ts
        if ph == "X":
            dur = record.get("dur")
            if dur is None or dur < 0:
                problems.append(
                    f"event {i} ('X') needs a non-negative dur, got {dur}"
                )
        elif ph == "B":
            open_spans.setdefault((pid, record.get("tid")), []).append(
                record.get("name")
            )
        elif ph == "E":
            stack = open_spans.get((pid, record.get("tid")), [])
            if not stack:
                problems.append(
                    f"event {i} ('E') closes nothing on "
                    f"pid/tid {pid}/{record.get('tid')}"
                )
            else:
                stack.pop()
    for (pid, tid), stack in sorted(open_spans.items(),
                                    key=lambda kv: str(kv[0])):
        if stack:
            problems.append(
                f"unclosed 'B' span(s) {stack} on pid/tid {pid}/{tid}"
            )
    return problems


def round_timeline_rows(events):
    """Per-round per-chip utilization rows from the cluster counters.

    One dict per (counter event, chip series): the sharded jobs'
    ``cluster.chip_util`` counters (one per composed layer) and the
    feedback rebalancer's ``feedback.cycles`` counters (one per
    measured round). Ready for
    :func:`~repro.analysis.export.rows_to_csv`.
    """
    rows = []
    for event in sorted(events, key=lambda e: (e.ts, e.seq)):
        if event.kind != "counter":
            continue
        if event.name not in ("cluster.chip_util", "feedback.cycles"):
            continue
        series = {
            k: v for k, v in event.args.items()
            if isinstance(v, (int, float)) and k.startswith("chip")
        }
        index = event.args.get("layer", event.args.get("round", ""))
        for chip, value in sorted(series.items()):
            rows.append({
                "signal": event.name,
                "lane": event.lane,
                "index": index,
                "chip": chip,
                "value": round(float(value), 6),
                "ts_s": round(event.ts, 9),
            })
    return rows


def render_round_heat(events, *, max_strips=12):
    """ASCII heat strips of per-layer chip utilization per sharded job.

    Feeds the ``cluster.chip_util`` counters through the existing
    :func:`~repro.analysis.heatmap.heat_strip` grading — the Fig. 10
    view, per chip instead of per PE. Returns the rendered text, or
    ``""`` when no cluster counters were recorded.
    """
    from repro.analysis.heatmap import _GRADES, heat_strip

    strips = []
    for event in sorted(events, key=lambda e: (e.ts, e.seq)):
        if event.kind != "counter" or event.name != "cluster.chip_util":
            continue
        series = sorted(
            (k, v) for k, v in event.args.items()
            if isinstance(v, (int, float)) and k.startswith("chip")
        )
        if not series:
            continue
        loads = [value for _key, value in series]
        label = f"{event.lane} layer {event.args.get('layer', '?')}"
        # Utilizations are busy fractions in [0, 1]; grade against the
        # ideal of 0.5 so a fully-busy chip renders as '@' (2x ideal)
        # and an idle one as ' ' — the full grade range stays usable.
        strips.append((label, heat_strip(loads, ideal=0.5)))
    if not strips:
        return ""
    shown = strips[:max_strips]
    width = max(len(label) for label, _ in shown)
    lines = [f"{label:<{width}}  |{strip}|" for label, strip in shown]
    if len(strips) > len(shown):
        lines.append(f"... {len(strips) - len(shown)} more layer rows")
    lines.append(
        f"{'legend':<{width}}  |{_GRADES}| = 0% .. 100% chip busy"
    )
    return "\n".join(lines)


def check_span_tree(events):
    """Span-tree well-formedness problems of one recorded stream.

    Invariants the test suite pins: per lane, spans either nest or are
    disjoint (never partially overlap), and every ``request.arrival``
    instant is closed by a matching ``request.complete``. Returns
    problem strings (empty = well-formed).
    """
    problems = []
    by_lane = {}
    for event in events:
        if event.kind == "span":
            by_lane.setdefault(event.lane, []).append(event)
    eps = 1e-12
    for lane in sorted(by_lane):
        spans = sorted(by_lane[lane], key=lambda e: (e.ts, -e.dur, e.seq))
        stack = []
        for span in spans:
            while stack and span.ts >= stack[-1].end - eps:
                stack.pop()
            if stack and span.end > stack[-1].end + eps:
                problems.append(
                    f"lane {lane!r}: span {span.name!r} "
                    f"[{span.ts}, {span.end}] partially overlaps "
                    f"{stack[-1].name!r} "
                    f"[{stack[-1].ts}, {stack[-1].end}]"
                )
            stack.append(span)
    arrivals = set()
    closed = set()
    for event in events:
        seq = event.args.get("seq")
        if event.name == "request.arrival":
            arrivals.add(seq)
        elif event.name == "request.complete":
            closed.add(seq)
    for seq in sorted(arrivals - closed, key=str):
        problems.append(f"request span for seq {seq} never closes")
    return problems


def load_chrome_trace(path):
    """Read a Chrome-trace JSON file back (for validation tooling)."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ConfigError(f"{path} does not hold a Chrome-trace dict")
    return doc
