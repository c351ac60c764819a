"""Exporters for the flight-recorder event stream.

* :func:`chrome_trace` — Chrome trace-event JSON (the ``traceEvents``
  array format), loadable directly in Perfetto / ``chrome://tracing``.
  Begin/end pairs on the same track nest, so an operation switch shows
  as a span with its sanitise/sync/stack/MPU phases inside it.
* :func:`event_tsv` — one row per event, for ``results/`` and diffing.
* :func:`trace_summary` — human one-liner for the CLI.

All serialisation is canonical (sorted keys, fixed separators, no
floats introduced) so a deterministic event stream exports to
byte-identical files.
"""

from __future__ import annotations

import json
from typing import Iterable, Optional, Union

from .events import DOMAIN_SIM, Event, INSTANT
from .recorder import FlightRecorder

#: What the exporters render: a recorder's buffer, or an event list
#: such as a fleet lane's kept sim events (``LaneTelemetry.events``).
EventSource = Union[FlightRecorder, Iterable[Event]]

#: Perfetto track ids per domain: simulated events on one track so
#: B/E spans nest, host-side (build/cache) events on their own.
_TRACK_IDS = {"sim": 0, "host": 1}
_TRACK_NAMES = {0: "firmware (DWT cycles)", 1: "host pipeline"}


def _selected(source: EventSource, domain: Optional[str]) -> list[Event]:
    if isinstance(source, FlightRecorder):
        return source.events(domain)
    return [event for event in source
            if domain is None or event.domain == domain]


def chrome_trace(source: EventSource, domain: Optional[str] = DOMAIN_SIM,
                 *, dropped: Optional[int] = None) -> str:
    """Render the events of ``source`` as Chrome trace-event JSON.

    ``domain`` selects which stream to export — the default ``"sim"``
    is the deterministic one; pass ``None`` to include host-side build
    and cache events (diagnostic, varies with cache temperature).
    ``dropped`` (the ring's overflow count) defaults to the recorder's
    own, or 0 for an event list.
    """
    if dropped is None:
        dropped = source.dropped if isinstance(source, FlightRecorder) \
            else 0
    trace_events: list[dict] = []
    tracks_used: set[int] = set()
    for event in _selected(source, domain):
        tid = _TRACK_IDS.get(event.domain, 1)
        tracks_used.add(tid)
        entry: dict = {
            "name": event.name,
            "cat": event.kind,
            "ph": event.ph,
            "ts": event.ts,
            "pid": 0,
            "tid": tid,
        }
        if event.ph == INSTANT:
            entry["s"] = "t"  # thread-scoped instant
        if event.args:
            entry["args"] = event.args
        trace_events.append(entry)
    # Name the tracks so Perfetto labels them meaningfully.
    metadata = [
        {"name": "thread_name", "ph": "M", "pid": 0, "tid": tid,
         "args": {"name": _TRACK_NAMES[tid]}}
        for tid in sorted(tracks_used)
    ]
    document = {
        "displayTimeUnit": "ns",
        "otherData": {
            "clock": "dwt-cycles",
            "dropped": dropped,
            "recorded": len(trace_events),
        },
        "traceEvents": metadata + trace_events,
    }
    return json.dumps(document, sort_keys=True,
                      separators=(",", ":")) + "\n"


def event_tsv(source: EventSource,
              domain: Optional[str] = DOMAIN_SIM) -> str:
    """One tab-separated row per event (args as canonical JSON)."""
    lines = ["seq\tts\tph\tkind\tname\tdomain\targs"]
    for event in _selected(source, domain):
        args = "" if not event.args else json.dumps(
            event.args, sort_keys=True, separators=(",", ":"))
        lines.append(f"{event.seq}\t{event.ts}\t{event.ph}\t{event.kind}"
                     f"\t{event.name}\t{event.domain}\t{args}")
    return "\n".join(lines) + "\n"


def trace_summary(recorder: FlightRecorder) -> str:
    """A one-line account of what the recorder holds."""
    sim = len(recorder.events(DOMAIN_SIM))
    total = len(recorder)
    return (f"{recorder.seq} events emitted, {total} buffered "
            f"({sim} sim / {total - sim} host), "
            f"{recorder.dropped} dropped, "
            f"capacity {recorder.capacity}")


def span_pairs(events: Iterable[Event]) -> list[tuple[Event, Event]]:
    """Match begin/end events into (begin, end) pairs (same kind,
    properly nested).  Unclosed spans are dropped — a crash can
    legitimately leave the innermost spans open."""
    stack: list[Event] = []
    pairs: list[tuple[Event, Event]] = []
    for event in events:
        if event.ph == "B":
            stack.append(event)
        elif event.ph == "E":
            while stack:
                begin = stack.pop()
                if begin.kind == event.kind:
                    pairs.append((begin, event))
                    break
    return pairs


__all__ = ["chrome_trace", "event_tsv", "span_pairs", "trace_summary"]
