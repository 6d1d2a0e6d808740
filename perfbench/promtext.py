"""Prometheus text exposition (format 0.0.4): parse, diff, sum.

A scrape is a ``{(metric_name, labels): value}`` dict where ``labels``
is a sorted tuple of ``(key, value)`` pairs, so two scrapes of one
process subtract series by series.
"""

from __future__ import annotations

import math
import re

__all__ = ["parse", "delta", "total"]

_SAMPLE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})?"
    r"\s+(?P<value>\S+)(?:\s+-?\d+)?\s*$"
)
_LABEL = re.compile(
    r'\s*([a-zA-Z_][a-zA-Z0-9_]*)\s*=\s*"((?:[^"\\]|\\.)*)"\s*(?:,|$)'
)
_ESCAPES = {"\\\\": "\\", '\\"': '"', "\\n": "\n"}


def _unescape(text: str) -> str:
    return re.sub(r'\\[\\"n]', lambda m: _ESCAPES[m.group(0)], text)


def _value(text: str) -> float:
    lowered = text.lower()
    if lowered in ("+inf", "inf"):
        return math.inf
    if lowered == "-inf":
        return -math.inf
    return float(text)


def parse(body: str) -> dict[tuple[str, tuple], float]:
    """Every sample line of an exposition body; comments are skipped.

    Raises ``ValueError`` on a line that is neither a comment nor a
    well-formed sample, so a truncated scrape cannot pass silently.
    """
    samples: dict[tuple[str, tuple], float] = {}
    for lineno, line in enumerate(body.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        match = _SAMPLE.match(line)
        if match is None:
            raise ValueError(f"line {lineno}: not a sample: {line!r}")
        labels: list[tuple[str, str]] = []
        raw = match.group("labels") or ""
        pos = 0
        while pos < len(raw):
            label = _LABEL.match(raw, pos)
            if label is None:
                raise ValueError(f"line {lineno}: bad labels: {raw!r}")
            labels.append((label.group(1), _unescape(label.group(2))))
            pos = label.end()
        key = (match.group("name"), tuple(sorted(labels)))
        samples[key] = _value(match.group("value"))
    return samples


def delta(before: dict, after: dict) -> dict:
    """``after - before`` per series (a series new in ``after`` counts
    from zero)."""
    return {key: value - before.get(key, 0.0) for key, value in after.items()}


def total(samples: dict, name: str, **match: str) -> float:
    """Sum of every series of ``name`` whose labels include ``match``."""
    wanted = set(match.items())
    return sum(
        (value
         for (metric, labels), value in samples.items()
         if metric == name and wanted <= set(labels)),
        0.0,
    )
