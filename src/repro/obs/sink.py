"""Trace sinks: where emitted events go.

A sink is anything with an ``emit(event)`` method.  The repository ships
one: :class:`MemorySink`, an unbounded or capped in-memory list.  The
*absence* of a sink is the no-op case — the observer skips event
construction entirely — so there is no NullSink object on the hot path.
"""

from __future__ import annotations

from repro.obs.events import EventKind, TraceEvent


class MemorySink:
    """Collect events in a list, optionally capped.

    With ``capacity`` set, the *oldest* events are dropped once the cap is
    reached (the list behaves like a cheap ring); ``dropped`` counts them
    so consumers can tell a truncated trace from a complete one.
    """

    def __init__(self, capacity: int | None = None) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError("sink capacity must be positive")
        self.capacity = capacity
        self.events: list[TraceEvent] = []
        self.dropped = 0

    def emit(self, event: TraceEvent) -> None:
        events = self.events
        events.append(event)
        if self.capacity is not None and len(events) > self.capacity:
            # Trim in chunks so the amortised cost stays O(1) per event.
            excess = len(events) - self.capacity
            del events[:excess]
            self.dropped += excess

    def __len__(self) -> int:
        return len(self.events)

    def by_kind(self, kind: EventKind) -> list[TraceEvent]:
        """All collected events of one kind, in emission order."""
        return [event for event in self.events if event.kind is kind]

    def counts(self) -> dict[str, int]:
        """Event tally per kind value."""
        tally: dict[str, int] = {}
        for event in self.events:
            key = event.kind.value
            tally[key] = tally.get(key, 0) + 1
        return tally

