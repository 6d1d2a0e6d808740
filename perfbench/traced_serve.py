"""Run ``repro`` with spans recorded around each layer's entry points.

Usage::

    python perfbench/traced_serve.py SPANS.json [repro arguments...]

Wraps the public entry points of the served layers (see ``ENTRY_POINTS``,
plus every operation's ``validate`` and ``TypeLattice.derivation``) with
span recorders, then calls :func:`repro.cli.main` with the remaining
arguments.  Spans are kept in memory and written to ``SPANS.json`` when
``main`` returns (``repro serve`` returns on SIGINT after draining).

Each span is ``[trace, span, parent, name, start, end, child, size]``:
spans of one request share ``trace``; ``parent`` is the enclosing span
on the same thread (``0`` for a root); ``child`` is the time covered by
direct children, so ``end - start - child`` is the span's self time;
``size`` is the length of one argument where one is named (bytes a
backend appended, records a replica applied), else ``0``.
``start``/``end`` are ``time.perf_counter()`` readings, which on Linux
share the system-wide monotonic clock with the benchmark process.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
from pathlib import Path
from time import perf_counter

_ROOT = Path(__file__).resolve().parent.parent
if str(_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(_ROOT / "src"))


class SpanRecorder:
    """In-memory span sink with a per-thread parent stack."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._last_derivation: dict[int, object] = {}

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, size_arg: int | None = None):
        """``fn`` recording one span per call; ``size_arg`` is the index of
        the positional argument whose ``len`` is kept as the span's size."""

        @functools.wraps(fn)
        def recorded(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else None
            span_id = next(self._ids)
            frame = [parent[0] if parent else span_id, span_id, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                if parent is not None:
                    parent[2] += end - start
                size = len(args[size_arg]) if size_arg is not None else 0
                self.spans.append([
                    frame[0], span_id, parent[1] if parent else 0, name,
                    start, end, frame[2], size,
                ])

        return recorded

    def wrap_derivation(self, getter):
        """A ``TypeLattice.derivation`` getter that records ``core.derive``
        only when the lattice hands back a new derivation object, so a
        cached access costs two clock reads and no span."""

        @functools.wraps(getter)
        def derivation(lattice):
            start = perf_counter()
            result = getter(lattice)
            if self._last_derivation.get(id(lattice)) is not result:
                self._last_derivation[id(lattice)] = result
                end = perf_counter()
                stack = self._stack()
                parent = stack[-1] if stack else None
                span_id = next(self._ids)
                if parent is not None:
                    parent[2] += end - start
                self.spans.append([
                    parent[0] if parent else span_id, span_id,
                    parent[1] if parent else 0, "core.derive",
                    start, end, 0.0, 0,
                ])
            return result

        return derivation

    def dump(self, path: str) -> None:
        Path(path).write_text(json.dumps({"spans": self.spans}))


#: (span name, module, class.method, index of the size argument).
ENTRY_POINTS = (
    ("server.http", "repro.server", "_Handler.do_GET", None),
    ("server.http", "repro.server", "_Handler.do_POST", None),
    ("server.service", "repro.server", "ObjectbaseService.apply", None),
    ("server.service", "repro.server", "ObjectbaseService.get_type", None),
    ("server.service", "repro.server", "ObjectbaseService.list_types", None),
    ("server.service", "repro.server", "ObjectbaseService.schema", None),
    ("concurrent.store", "repro.concurrent", "ConcurrentObjectbase.apply", None),
    ("concurrent.lock", "repro.concurrent", "FairLock.acquire", None),
    ("concurrent.capture", "repro.concurrent", "SchemaSnapshot.capture", None),
    ("api.apply", "repro.api", "Objectbase.apply", None),
    ("core.journal_apply", "repro.core.history", "EvolutionJournal.apply", None),
    ("storage.durable_apply", "repro.storage.journal", "DurableLattice.apply", None),
    ("storage.wal_append", "repro.storage.journal", "JournalFile.append", None),
    ("storage.checkpoint", "repro.storage.journal", "JournalFile.checkpoint", None),
    ("storage.backend_append", "repro.storage.backend", "FileBackend.append_bytes", 2),
    ("storage.backend_fsync", "repro.storage.backend", "FileBackend.fsync_file", None),
    ("storage.backend_append", "repro.storage.sqlite_backend", "SqliteBackend.append_bytes", 2),
    ("storage.backend_fsync", "repro.storage.sqlite_backend", "SqliteBackend.fsync_file", None),
    ("replication.source_state", "repro.replication.primary", "ReplicationSource.state", None),
    ("replication.apply_records", "repro.replication.replica", "ReplicaStore.apply_records", 3),
)


def install(recorder: SpanRecorder) -> None:
    """Patch every entry point (classes are patched in place, so modules
    that imported them earlier see the wrappers too)."""
    import importlib

    for name, module_name, attr, size_arg in ENTRY_POINTS:
        cls_name, method = attr.split(".")
        cls = getattr(importlib.import_module(module_name), cls_name)
        raw = cls.__dict__.get(method)
        if isinstance(raw, classmethod):
            setattr(cls, method, classmethod(recorder.wrap(name, raw.__func__)))
        else:
            setattr(cls, method, recorder.wrap(name, getattr(cls, method), size_arg))
    from repro.core.lattice import TypeLattice
    from repro.core.operations import OPERATION_CODES

    for op_cls in set(OPERATION_CODES.values()):
        if "validate" in op_cls.__dict__:
            op_cls.validate = recorder.wrap("core.validate", op_cls.validate)
    TypeLattice.derivation = property(
        recorder.wrap_derivation(TypeLattice.derivation.fget)
    )


def main(argv: list[str]) -> int:
    if not argv:
        print("usage: traced_serve.py SPANS.json [repro arguments...]",
              file=sys.stderr)
        return 2
    out, rest = argv[0], argv[1:]
    recorder = SpanRecorder()
    install(recorder)
    from repro.cli import main as repro_main

    try:
        return repro_main(rest)
    finally:
        recorder.dump(out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
