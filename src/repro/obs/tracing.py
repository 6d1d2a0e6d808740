"""Structured tracing: hierarchical spans with per-span metric deltas.

A *span* brackets one engine activity (``apply``, ``batch``,
``normalize``, ``undo``, ``verify``) with wall-clock timing and the
counter deltas the activity produced::

    from repro.obs import trace

    with trace.span("apply", op="MT-ASR"):
        journal.apply(operation)

Spans nest: a facade ``apply`` inside a ``batch`` block becomes a child
of the batch span.  Each finished span is emitted to the installed
*sink* as one JSON-friendly dict (see :data:`SPAN_SCHEMA_KEYS`); a
parent's metric deltas include its children's, so summing the deltas of
**root** spans (``parent_id is None``) reproduces the registry totals
for the traced window — the invariant ``repro trace`` / ``repro stats``
are tested against.

When no sink is installed (the default), :meth:`Tracer.span` yields a
shared no-op span and does **no other work** — no id allocation, no
counter snapshot, no timestamps — so always-on instrumentation in the
facade costs nothing on untraced runs.

Sinks are pluggable: anything with ``emit(record: dict)`` works.
:class:`JsonlSink` appends JSON lines to a path or file object — with
optional size-based rotation (``max_bytes``/``keep``) and deterministic
head sampling (``sample_rate``) so always-on tracing in a long-running
server stays bounded; :class:`ListSink` collects records in memory
(tests, aggregation).

Thread safety: the span stack is **thread-local** — each thread nests
its own spans, so one server request produces one root span regardless
of what other request threads are doing.  Span ids are allocated from a
shared atomic counter and :class:`JsonlSink` serializes its writes, so
concurrent roots interleave whole records, never bytes.  Counter deltas
on a span are computed from the shared registry and therefore include
activity from concurrently-running threads; under the single-writer
lock of :class:`repro.api.Objectbase` mutation deltas stay exact, read-path
spans are best-effort.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
import zlib
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Iterator

from .metrics import REGISTRY, MetricsRegistry

__all__ = [
    "Span",
    "NullSpan",
    "Tracer",
    "JsonlSink",
    "ListSink",
    "trace",
    "SPAN_SCHEMA_KEYS",
]

#: Keys every emitted span record carries (the JSONL span schema,
#: validated by the obs-smoke CI job and ``docs/observability.md``).
SPAN_SCHEMA_KEYS = frozenset(
    {
        "type", "trace_id", "span_id", "parent_id", "name",
        "start_unix", "duration_ms", "status", "attrs", "metrics",
    }
)


class Span:
    """One live span; becomes an emitted record when it finishes."""

    __slots__ = (
        "name", "trace_id", "span_id", "parent_id", "attrs",
        "status", "_start_unix", "_start_perf", "_counters_before",
    )

    def __init__(
        self,
        name: str,
        trace_id: int,
        span_id: int,
        parent_id: int | None,
        attrs: dict,
        counters_before: dict[str, int | float],
    ) -> None:
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.attrs = attrs
        self.status = "ok"
        self._start_unix = time.time()
        self._start_perf = time.perf_counter()
        self._counters_before = counters_before

    def set_attr(self, key: str, value) -> None:
        """Attach one JSON-serializable attribute to the span."""
        self.attrs[key] = value

    def _finish(self, registry: MetricsRegistry) -> dict:
        duration = time.perf_counter() - self._start_perf
        after = registry.counter_samples()
        before = self._counters_before
        deltas = {
            key: value - before.get(key, 0)
            for key, value in after.items()
            if value != before.get(key, 0)
        }
        return {
            "type": "span",
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start_unix": self._start_unix,
            "duration_ms": duration * 1e3,
            "status": self.status,
            "attrs": self.attrs,
            "metrics": deltas,
        }


class NullSpan:
    """The shared do-nothing span yielded when no sink is installed."""

    __slots__ = ()

    def set_attr(self, key: str, value) -> None:
        pass


_NULL_SPAN = NullSpan()


class Tracer:
    """Span factory bound to a metrics registry and an optional sink.

    The stack of live spans is per-thread (:class:`threading.local`), so
    spans nest within a thread and concurrent threads each produce their
    own root spans; ids come from shared atomic counters.
    """

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        self._registry = registry if registry is not None else REGISTRY
        self._sink = None
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._trace_ids = itertools.count(1)

    @property
    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def sink(self):
        return self._sink

    def set_sink(self, sink):
        """Install ``sink`` (or ``None`` to disable); returns the old one."""
        old, self._sink = self._sink, sink
        return old

    @property
    def active(self) -> Span | None:
        """The innermost live span of the calling thread, if any."""
        stack = self._stack
        return stack[-1] if stack else None

    @contextmanager
    def span(self, name: str, **attrs) -> Iterator[Span | NullSpan]:
        """Bracket an activity; emits one record when the block exits.

        The record is emitted even when the block raises (with
        ``status="error"`` and the exception's evolution-error code in
        ``attrs["error"]``), and the exception propagates.
        """
        if self._sink is None:
            yield _NULL_SPAN
            return
        stack = self._stack
        parent = stack[-1] if stack else None
        if parent is None:
            trace_id = next(self._trace_ids)
        else:
            trace_id = parent.trace_id
        span = Span(
            name=name,
            trace_id=trace_id,
            span_id=next(self._ids),
            parent_id=parent.span_id if parent is not None else None,
            attrs=dict(attrs),
            counters_before=self._registry.counter_samples(),
        )
        stack.append(span)
        try:
            yield span
        except BaseException as exc:
            span.status = "error"
            span.attrs.setdefault(
                "error", getattr(exc, "code", type(exc).__name__)
            )
            raise
        finally:
            stack.pop()
            sink = self._sink
            if sink is not None:
                sink.emit(span._finish(self._registry))


class JsonlSink:
    """Append span records as JSON lines to a path or file object.

    Hardened for always-on use in a long-running server:

    * **Rotation** — with ``max_bytes`` set (and a path target), the
      file is rotated once a write would push it past the limit:
      ``trace.jsonl`` becomes ``trace.jsonl.1``, older generations shift
      up, and at most ``keep`` rotated files are retained.
    * **Head sampling** — ``sample_rate`` keeps that fraction of traces.
      The decision is made once per ``trace_id`` (deterministically, by
      hashing the id), so a kept trace keeps *all* of its spans and a
      dropped trace drops all of them — never a parentless child.
      Records without a ``trace_id`` (e.g. the trailing ``summary``) are
      always written.
    * **Thread safety** — writes are serialized, so concurrent request
      threads interleave whole records.
    """

    def __init__(
        self,
        target: str | Path | IO[str],
        *,
        max_bytes: int | None = None,
        keep: int = 3,
        sample_rate: float = 1.0,
    ) -> None:
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError("sample_rate must be within [0, 1]")
        if max_bytes is not None and max_bytes < 1:
            raise ValueError("max_bytes must be positive")
        if keep < 1:
            raise ValueError("keep must be at least 1")
        if isinstance(target, (str, Path)):
            self._path: Path | None = Path(target)
            self._fh: IO[str] = self._path.open("w")
            self._owns = True
        else:
            self._path = None
            self._fh = target
            self._owns = False
        self.max_bytes = max_bytes if self._path is not None else None
        self.keep = keep
        self.sample_rate = sample_rate
        self.emitted = 0
        self.sampled_out = 0
        self.rotations = 0
        self._written = 0
        self._lock = threading.Lock()

    def _keep_trace(self, trace_id) -> bool:
        if self.sample_rate >= 1.0:
            return True
        if self.sample_rate <= 0.0:
            return False
        # Deterministic per-trace coin flip: stable across threads,
        # processes, and replays of the same trace ids.
        h = zlib.crc32(str(trace_id).encode("utf-8")) & 0xFFFFFFFF
        return h / 2**32 < self.sample_rate

    def _maybe_rotate(self, pending: int) -> None:
        if (
            self.max_bytes is None
            or self._path is None
            or self._written == 0
            or self._written + pending <= self.max_bytes
        ):
            return
        self._fh.close()
        for n in range(self.keep, 0, -1):
            older = self._path.with_name(f"{self._path.name}.{n}")
            if n == self.keep:
                older.unlink(missing_ok=True)
                continue
            if older.exists():
                older.rename(
                    self._path.with_name(f"{self._path.name}.{n + 1}")
                )
        self._path.rename(self._path.with_name(f"{self._path.name}.1"))
        self._fh = self._path.open("w")
        self._written = 0
        self.rotations += 1

    def emit(self, record: dict) -> None:
        trace_id = record.get("trace_id")
        if trace_id is not None and not self._keep_trace(trace_id):
            with self._lock:
                self.sampled_out += 1
            return
        line = json.dumps(record, sort_keys=True) + "\n"
        with self._lock:
            self._maybe_rotate(len(line))
            self._fh.write(line)
            self._written += len(line)
            self.emitted += 1

    def close(self) -> None:
        with self._lock:
            self._fh.flush()
            if self._owns:
                self._fh.close()

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class ListSink:
    """Collect span records in memory (tests, in-process aggregation)."""

    def __init__(self) -> None:
        self.records: list[dict] = []

    def emit(self, record: dict) -> None:
        self.records.append(record)

    def roots(self) -> list[dict]:
        return [r for r in self.records if r.get("parent_id") is None]


#: The process-wide tracer the facade and the CLI share.
trace = Tracer()
