"""A durable TIGUKAT objectbase: full snapshots + schema-operation WAL.

Completes the persistence story: :class:`DurableLattice` covers schema
only; :class:`DurableObjectbase` persists the whole store.  The recipe
is the classic one:

* **snapshot** — the complete objectbase (schema, behaviors, functions,
  classes, collections, instances) via
  :mod:`repro.storage.objectbase_snapshot`, written atomically with a
  checkpoint generation (see :mod:`repro.storage.framing`);
* **WAL** — between snapshots, every schema-evolution operation executed
  through the manager is appended as a framed, checksummed record (the
  §3.3 operations are all replayable: the log stores the manager method
  and arguments) *before* it mutates the in-memory store — genuine
  write-ahead logging;
* **recovery** — load the latest snapshot, replay the live (unfenced)
  WAL tail through a fresh :class:`SchemaManager`.

Both halves run on :class:`~repro.storage.journal.JournalFile`, the same
engine as :class:`DurableLattice`; this module adds only the record
codec, the replay step and the abort-marker rule below.

Because the log is written ahead of the mutation, a record can be on
disk for an operation that never applied: (a) the method was *rejected*
in memory — an ``__abort__`` marker is appended so replay skips the
record deterministically; (b) the process crashed between append and
apply — then the record is necessarily the *final* one, and replay
treats a rejected final record as the logged-but-unapplied tail (skips
it, with a counter) rather than corruption.  Any mid-log replay failure
is still a hard error: something other than a crash broke the log.

Instance mutations (AO/MO/DO) are *not* WAL-logged — like most object
stores, data durability rides on snapshots (call :meth:`checkpoint`),
while schema durability is continuous.  The recovery contract tested:
after any crash point, the schema is exact and the data is at the last
checkpoint.
"""

from __future__ import annotations

import logging
from pathlib import Path
from typing import Any, Callable

from ..core.errors import JournalError, SchemaError
from ..obs.metrics import REGISTRY
from ..tigukat.evolution import SchemaManager
from ..tigukat.store import Objectbase
from .backend import StorageBackend, resolve_storage_url
from .framing import DurabilityPolicy, FramedRecord
from .journal import JournalCodec, JournalFile
from .objectbase_snapshot import objectbase_from_dict, objectbase_to_dict
from .reliability import RetryPolicy

__all__ = ["DurableObjectbase"]

logger = logging.getLogger(__name__)

_UNAPPLIED_TAIL = REGISTRY.counter(
    "repro_wal_unapplied_tail_total",
    "Logged-but-unapplied tail records skipped during replay",
)

#: manager methods that are WAL-replayable, with their argument names
_REPLAYABLE = {
    "at": ("name", "supertypes", "behaviors", "with_class"),
    "dt": ("name", "migrate_to"),
    "mt_ab": ("type_name", "behavior"),
    "mt_db": ("type_name", "behavior"),
    "mt_asr": ("type_name", "supertype"),
    "mt_dsr": ("type_name", "supertype"),
    "ac": ("type_name",),
    "dc": ("type_name", "migrate_to"),
    "db": ("behavior",),
    "al": ("name", "member_type"),
    "dl": ("name",),
    "define_stored_behavior": ("semantics", "name", "result_type"),
}

#: WAL marker for a record whose in-memory application was rejected.
_ABORT = "__abort__"


def _decode_wal_record(record: dict) -> dict:
    """Semantic validation for the shared framed-record reader."""
    method = record.get("method")
    if not isinstance(method, str):
        raise ValueError(f"record has no method: {record!r}")
    if method != _ABORT and method not in _REPLAYABLE:
        raise ValueError(f"unknown WAL method {method!r}")
    if not isinstance(record.get("args"), dict):
        raise ValueError(f"record has no args object: {record!r}")
    return record


#: Manager-call records (already JSON objects) over an objectbase snapshot.
_OBJECTBASE_CODEC = JournalCodec(
    record_to_dict=lambda record: record,
    record_from_dict=_decode_wal_record,
    state_to_dict=objectbase_to_dict,
)


class DurableObjectbase:
    """An objectbase whose schema evolution is write-ahead durable."""

    def __init__(
        self,
        directory: str | Path,
        computed_bodies: dict[str, Callable[..., Any]] | None = None,
        *,
        durability: DurabilityPolicy | None = None,
        recovery: str = "strict",
        fs: StorageBackend | None = None,
        retry: RetryPolicy | None = None,
    ) -> None:
        # A backend URL resolves to its backend plus a logical directory
        # inside it; an explicit ``fs`` always wins (fault injection).
        target = resolve_storage_url(directory, fs=fs)
        directory = Path(target.path)
        target.fs.mkdirs(directory)
        self.wal_path = directory / "schema.wal"
        self.file = JournalFile(
            self.wal_path,
            durability=durability,
            fs=target.fs,
            retry=retry,
            codec=_OBJECTBASE_CODEC,
            checkpoint_path=directory / "objectbase.json",
        )
        state, live, self.recovery_report = self.file.open(recovery)
        self.store = (
            objectbase_from_dict(state, computed_bodies or {})
            if state is not None else Objectbase()
        )
        self.manager = SchemaManager(self.store)
        self._seq = 0
        self.file.replay(live, self._replay, self.store)

    @property
    def _generation(self) -> int:
        """The checkpoint generation new WAL records are stamped with."""
        return self.file.generation

    # -- the durable operation surface -------------------------------------

    def execute(self, method: str, *args: Any, **kwargs: Any) -> Any:
        """Run one schema-evolution method durably (write-ahead logged).

        ``method`` is a :class:`SchemaManager` method name (or the
        behavior-definition helper).  The record is appended to the WAL
        *before* the method touches the store — write-ahead, matching
        :meth:`DurableLattice.apply` — so no applied mutation can be
        lost.  If the method is then rejected in memory, an ``__abort__``
        marker is appended so replay skips the record; a crash between
        append and apply leaves the record as the final one, which
        replay treats as an unapplied tail (see the module docstring).
        """
        spec = _REPLAYABLE.get(method)
        if spec is None:
            raise JournalError(
                f"{method!r} is not a durable (WAL-replayable) operation"
            )
        target = self._target(method)
        record_args = self._bind(spec, args, kwargs)
        self._seq += 1
        self.file.append(
            {"method": method, "args": record_args, "seq": self._seq}
        )
        try:
            result = target(*args, **kwargs)
        except SchemaError:
            self.file.append({"method": _ABORT, "args": {"seq": self._seq}})
            raise
        self.file.maybe_checkpoint(self.store)
        return result

    @property
    def degraded(self) -> bool:
        """Whether the store is latched read-only after append failure."""
        return self.file.degraded

    def _target(self, method: str) -> Callable[..., Any]:
        if hasattr(self.manager, method):
            return getattr(self.manager, method)
        return getattr(self.store, method)

    def _bind(self, spec: tuple[str, ...], args: tuple, kwargs: dict) -> dict:
        bound: dict[str, Any] = {}
        for name, value in zip(spec, args):
            bound[name] = value
        for name, value in kwargs.items():
            if name not in spec:
                raise JournalError(f"unloggable argument {name!r}")
            bound[name] = value
        for name, value in bound.items():
            if isinstance(value, (tuple, frozenset, set)):
                bound[name] = sorted(value) if isinstance(
                    value, (set, frozenset)
                ) else list(value)
        return bound

    def _replay(self, live: list[FramedRecord]) -> None:
        """Apply the live tail, honouring ``__abort__`` markers and the
        logged-but-unapplied final record (see the module docstring)."""
        aborted = {
            r.payload["args"].get("seq")
            for r in live
            if r.payload["method"] == _ABORT
        }
        self._seq = max(
            (
                r.payload.get("seq", 0) for r in live
                if isinstance(r.payload.get("seq"), int)
            ),
            default=0,
        )
        for r in live:
            method = r.payload["method"]
            if method == _ABORT or r.payload.get("seq") in aborted:
                continue
            kwargs = dict(r.payload["args"])
            for key in ("supertypes", "behaviors"):
                if key in kwargs and isinstance(kwargs[key], list):
                    kwargs[key] = tuple(kwargs[key])
            try:
                self._target(method)(**kwargs)
            except SchemaError as exc:
                if r is live[-1]:
                    # Write-ahead tail: logged, crashed before applying.
                    _UNAPPLIED_TAIL.inc()
                    logger.info(
                        "skipping logged-but-unapplied tail record "
                        "(line %d, method %s): %s",
                        r.lineno, method, exc,
                    )
                    continue
                raise JournalError(
                    f"WAL replay failed at line {r.lineno}: {exc}"
                ) from exc

    # -- snapshots ------------------------------------------------------------

    def checkpoint(self) -> None:
        """Snapshot the whole store (schema AND instances); truncate WAL.

        Atomic and fenced exactly like :meth:`DurableLattice.checkpoint`
        — it is the same :meth:`JournalFile.checkpoint` — so a crash
        between the snapshot publish and the WAL truncate cannot replay
        the stale tail on top of the snapshot.
        """
        self.file.checkpoint(self.store)

    def sync(self) -> None:
        """Flush appended WAL records (the batch-policy commit point)."""
        self.file.sync()

    @classmethod
    def reopen(
        cls,
        directory: str | Path,
        computed_bodies: dict[str, Callable[..., Any]] | None = None,
        *,
        durability: DurabilityPolicy | None = None,
        recovery: str = "strict",
        fs: StorageBackend | None = None,
        retry: RetryPolicy | None = None,
    ) -> "DurableObjectbase":
        """Simulated restart: rebuild purely from durable state."""
        return cls(
            directory, computed_bodies,
            durability=durability, recovery=recovery, fs=fs, retry=retry,
        )
