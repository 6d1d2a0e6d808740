"""Self-time breakdown of the spans written by ``traced_serve.py``.

A span's self time is its duration minus the time its direct children
cover; a layer's self time is the sum over spans whose name starts with
the layer (``server.http`` belongs to ``server``).  Summing self times
over every layer gives the server-side time of the traced requests.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

__all__ = ["LAYERS", "SpanStats", "load_spans", "span_stats", "layer_self"]

LAYERS = ("server", "concurrent", "api", "core", "storage", "replication")


@dataclass
class SpanStats:
    count: int = 0
    total: float = 0.0  # seconds of wall time inside the spans
    self_time: float = 0.0  # seconds not covered by child spans
    size: int = 0  # bytes recorded on the spans

    def add(self, duration: float, self_time: float, size: int) -> None:
        self.count += 1
        self.total += duration
        self.self_time += self_time
        self.size += size


def load_spans(path: Path, start: float, end: float) -> list[list]:
    """Spans of one process that began and ended inside ``[start, end]``."""
    spans = json.loads(Path(path).read_text())["spans"]
    return [s for s in spans if s[4] >= start and s[5] <= end]


def span_stats(spans: list[list]) -> dict[str, SpanStats]:
    """Per span name: count, wall time, self time and bytes."""
    stats: dict[str, SpanStats] = {}
    for _trace, _sid, _parent, name, start, end, child, size in spans:
        duration = end - start
        stats.setdefault(name, SpanStats()).add(
            duration, max(0.0, duration - child), size
        )
    return stats


def layer_self(stats: dict[str, SpanStats]) -> dict[str, float]:
    """Seconds of self time per layer (every layer of ``LAYERS`` present)."""
    table = {layer: 0.0 for layer in LAYERS}
    for name, s in stats.items():
        table[name.split(".", 1)[0]] += s.self_time
    return table
