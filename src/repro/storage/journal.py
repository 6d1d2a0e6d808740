"""Write-ahead journal: durable, replayable operation log.

The durability counterpart of :mod:`repro.storage.snapshot`: instead of
persisting state, persist the *operations* (which are already
serializable command objects) and recover by replay.  The recovery
contract is the journal-replay property tested in the core suite: a
replayed lattice is state-identical to the lost one.

Layout: one record per applied operation in a checksummed, framed log
(see :mod:`repro.storage.framing` for the frame grammar, the torn/
corrupt damage taxonomy, and checkpoint generation fencing), plus an
atomically-replaced snapshot checkpoint that truncates the log (classic
WAL + checkpoint).  Legacy unframed JSONL journals read transparently.

:class:`JournalFile` is the one WAL engine.  A :class:`JournalCodec`
tells it how to turn records and checkpoint state into JSON; everything
else — framing, fencing, torn-tail heal, stale temp sweep, retry/latch,
the replication fence hook, checkpoint publish, fsync policy,
auto-checkpoints and WAL metrics — is shared by :class:`DurableLattice`
(schema operations, this module),
:class:`~repro.storage.durable_store.DurableObjectbase` (manager calls)
and both sides of replication (the primary's shipper tails the log via
:meth:`JournalFile.live_frames`; a replica mirrors the shipped frames).

Durability is governed by a :class:`~repro.storage.framing.DurabilityPolicy`
(fsync per append / per checkpoint / never, plus the auto-checkpoint
thresholds) and recovery by a mode — ``strict`` raises on corruption,
``salvage`` quarantines it — both surfaced through
:meth:`DurableLattice.reopen` and the ``repro recover`` CLI.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

from ..core.config import LatticePolicy
from ..core.errors import JournalError
from ..core.history import EvolutionJournal
from ..core.lattice import TypeLattice
from ..core.operations import SchemaOperation, operation_from_dict
from ..obs.metrics import REGISTRY, SIZE_BUCKETS
from .backend import StorageBackend, resolve_storage_url
from .framing import (
    DurabilityPolicy,
    FramedRecord,
    SalvageReport,
    encode_frame,
    fence_records,
    load_checkpoint,
    read_log,
    scan_log,
    timed_fsync,
    write_checkpoint,
)
from .reliability import DegradedLatch, RetryPolicy, append_record
from .snapshot import lattice_from_dict, lattice_to_dict

__all__ = ["JournalCodec", "LATTICE_CODEC", "JournalFile", "DurableLattice"]

logger = logging.getLogger(__name__)

_WAL_APPENDS = REGISTRY.counter(
    "repro_wal_appends_total", "Operation records appended to the WAL"
)
_WAL_APPEND_SECONDS = REGISTRY.histogram(
    "repro_wal_append_seconds", "Latency of one WAL append"
)
_WAL_REPLAY_OPS = REGISTRY.counter(
    "repro_wal_replayed_ops_total", "Operations replayed from WAL tails"
)
_WAL_REPLAY_SECONDS = REGISTRY.histogram(
    "repro_wal_replay_seconds",
    "Wall time to replay one WAL tail through the in-memory journal",
)
_WAL_COALESCED = REGISTRY.histogram(
    "repro_wal_replay_coalesced_ops",
    "Operations coalesced into one derivation pass per replayed tail",
    buckets=SIZE_BUCKETS,
)
_WAL_CHECKPOINTS = REGISTRY.counter(
    "repro_wal_checkpoints_total", "WAL-to-snapshot checkpoint folds"
)
_WAL_AUTO_CHECKPOINTS = REGISTRY.counter(
    "repro_wal_auto_checkpoints_total",
    "Checkpoints triggered automatically by the durability policy",
    labelnames=("reason",),
)


@dataclass(frozen=True)
class JournalCodec:
    """How one kind of journal maps records and state to JSON objects.

    ``record_from_dict`` is also the semantic check of the framed-log
    reader: raising :class:`ValueError`/:class:`KeyError`/
    :class:`TypeError` marks a record corrupt (see
    :mod:`repro.storage.framing`).
    """

    record_to_dict: Callable[[Any], dict]
    record_from_dict: Callable[[dict], Any]
    state_to_dict: Callable[[Any], dict]


#: Schema operations over a :class:`TypeLattice` checkpoint.
LATTICE_CODEC = JournalCodec(
    record_to_dict=lambda operation: operation.to_dict(),
    record_from_dict=operation_from_dict,
    state_to_dict=lattice_to_dict,
)


class JournalFile:
    """An append-only, checksummed record log with checkpointing.

    ``codec`` selects the record and state types (schema operations and
    a lattice by default); ``checkpoint_path`` defaults to the log path
    plus ``.checkpoint``.
    """

    def __init__(
        self,
        path: str | Path,
        *,
        durability: DurabilityPolicy | None = None,
        fs: StorageBackend | None = None,
        retry: RetryPolicy | None = None,
        codec: JournalCodec = LATTICE_CODEC,
        checkpoint_path: Path | None = None,
    ) -> None:
        # A backend URL (sqlite:…, objstore:…, file:…) resolves to its
        # backend plus the logical journal path inside it; an explicit
        # ``fs`` always wins (fault injection, pre-built backends).
        target = resolve_storage_url(path, fs=fs)
        self.path = Path(target.path)
        self.checkpoint_path = checkpoint_path or self.path.with_suffix(
            self.path.suffix + ".checkpoint"
        )
        self.durability = durability or DurabilityPolicy()
        self.fs = target.fs
        self.retry = retry or RetryPolicy()
        self.codec = codec
        self.latch = DegradedLatch(store=str(self.path))
        #: Optional write fence, checked before every append and
        #: checkpoint.  Replication installs the primary lease's
        #: ``check`` here so a paused-and-resumed ex-primary raises
        #: :class:`~repro.core.errors.LeaseLostError` instead of
        #: extending a history the new primary has diverged from.
        self.fence: Callable[[], None] | None = None
        #: Records appended (or replayed) since the last checkpoint —
        #: the ``checkpoint_every`` counter.
        self.since_checkpoint = 0
        self._generation: int | None = None
        self._tail_checked = False

    @property
    def degraded(self) -> bool:
        """Whether the log is latched read-only after append failure."""
        return self.latch.degraded

    @property
    def generation(self) -> int:
        """The current checkpoint generation new appends are stamped with."""
        if self._generation is None:
            _, self._generation = self.read_checkpoint()
        return self._generation

    def read_checkpoint(self) -> tuple[dict | None, int]:
        """The published checkpoint document, read afresh:
        ``(state, generation)``, ``(None, 0)`` when there is none."""
        return load_checkpoint(self.checkpoint_path, fs=self.fs)

    def live_frames(self) -> tuple[int, list[bytes]]:
        """The checkpoint generation and the newline-terminated bytes of
        every live frame at or after it — a read-only view for a tailer
        of a log another process writes.

        The generation is re-read on every call.  A torn or corrupt tail
        is simply not part of the valid prefix yet: nothing is repaired,
        logged, counted or raised.
        """
        _, generation = self.read_checkpoint()
        data = (
            self.fs.read_bytes(self.path) if self.fs.exists(self.path)
            else b""
        )
        frames = [
            data[r.offset:r.end].rstrip(b"\n") + b"\n"
            for r in scan_log(data).records
            if r.generation is None or r.generation >= generation
        ]
        return generation, frames

    def _ensure_clean_tail(self) -> None:
        """Heal a torn tail before the first append of this process.

        Appending after an unterminated final line would concatenate the
        new record onto the crash residue and corrupt *both*; repair
        first (strict: a damaged interior should fail loudly here, not
        be buried under fresh appends).
        """
        if self._tail_checked:
            return
        self._tail_checked = True
        if self.fs.exists(self.path):
            data = self.fs.read_bytes(self.path)
            if data and not data.endswith(b"\n"):
                self.repair("strict")

    def append(self, record: Any) -> None:
        """Frame one record at the current generation and append it."""
        payload = json.dumps(self.codec.record_to_dict(record), sort_keys=True)
        self.append_frame(encode_frame(payload, self.generation))

    def append_frame(self, frame: bytes) -> None:
        """Append one encoded frame verbatim (fsync per policy).

        Transient storage faults (an fsync EIO, a short write) are
        retried with rollback per :attr:`retry`; exhausted retries trip
        the degraded-mode latch and raise a typed
        :class:`~repro.core.errors.DegradedModeError` — the log is never
        left with a half-appended record in front of a whole one.
        """
        started = perf_counter()
        self.latch.check_writable()
        if self.fence is not None:
            self.fence()
        self._ensure_clean_tail()
        append_record(
            self.fs,
            self.path,
            frame,
            retry=self.retry,
            latch=self.latch,
            sync=(
                (lambda: timed_fsync(self.fs, self.path))
                if self.durability.sync_appends else None
            ),
        )
        self.since_checkpoint += 1
        _WAL_APPENDS.inc()
        _WAL_APPEND_SECONDS.observe(perf_counter() - started)

    def operations(self, mode: str = "strict") -> list[Any]:
        """The live logged records, decoded, in order (read-only).

        Torn trailing writes are tolerated and records fenced off by the
        checkpoint generation are skipped; structural corruption raises
        :class:`~repro.core.errors.CorruptRecordError` in strict mode.
        A final record that parses but decodes to no valid record is
        *semantic* corruption, not a torn write, and is treated as
        corrupt no matter where it sits.
        """
        records, _ = read_log(
            self.path, fs=self.fs, mode=mode,
            decode=self.codec.record_from_dict,
        )
        live, _ = fence_records(records, self.generation)
        return [r.decoded for r in live]

    def repair(self, mode: str = "strict") -> SalvageReport:
        """Heal the log in place (truncate torn tails; in salvage mode,
        quarantine corruption into a ``.corrupt`` sidecar)."""
        return self._heal(mode)[1]

    def _heal(self, mode: str) -> tuple[list[FramedRecord], SalvageReport]:
        """:meth:`repair`, also returning the live (unfenced) records.

        Also removes a stale checkpoint temp file — residue of a crash
        (or torn rename) inside a checkpoint publish.  The real
        checkpoint is authoritative either way; leaving the temp behind
        would hand backup tooling and future publishes a plausible-
        looking but unterminated snapshot.
        """
        stale_tmp = self.checkpoint_path.with_suffix(
            self.checkpoint_path.suffix + ".tmp"
        )
        if self.fs.exists(stale_tmp):
            logger.warning(
                "removing stale checkpoint temp %s (crash residue from "
                "an interrupted checkpoint publish)", stale_tmp,
            )
            self.fs.unlink(stale_tmp)
        records, report = read_log(
            self.path, fs=self.fs, mode=mode,
            decode=self.codec.record_from_dict, repair=True,
        )
        live, report.records_fenced = fence_records(records, self.generation)
        if not report.clean:
            logger.warning("repair(%s): %s", mode, report.summary())
        return live, report

    def open(
        self, mode: str = "strict"
    ) -> tuple[dict | None, list[FramedRecord], SalvageReport]:
        """Heal crash residue; return the checkpoint state, the live WAL
        tail and the recovery report.

        Opening is the mutating entry point, so the torn tail is healed
        here (it must not swallow the next append).  The caller rebuilds
        its state from the checkpoint and hands the tail to
        :meth:`replay`.
        """
        state, self._generation = self.read_checkpoint()
        live, report = self._heal(mode)
        self._tail_checked = True
        return state, live, report

    def replay(
        self,
        records: list[FramedRecord],
        apply: Callable[[list[FramedRecord]], None],
        state: Any,
    ) -> None:
        """Replay an opened tail via ``apply`` into ``state``, metered.

        When replaying took longer than the policy's
        ``replay_budget_seconds``, ``state`` is checkpointed right away
        so the next open does not pay for the same tail again.
        """
        started = perf_counter()
        apply(records)
        elapsed = perf_counter() - started
        replayed = len(records)
        self.since_checkpoint = replayed
        if not replayed:
            return
        _WAL_REPLAY_OPS.inc(replayed)
        _WAL_COALESCED.observe(replayed)
        _WAL_REPLAY_SECONDS.observe(elapsed)
        logger.info(
            "replayed %d WAL record(s) from %s", replayed, self.path,
        )
        budget = self.durability.replay_budget_seconds
        if budget is not None and elapsed > budget:
            logger.info(
                "replay took %.3fs (budget %.3fs): auto-checkpointing",
                elapsed, budget,
            )
            self.checkpoint(state)
            _WAL_AUTO_CHECKPOINTS.labels(reason="replay-budget").inc()

    def checkpoint(self, state: Any, generation: int | None = None) -> None:
        """Fold the applied records into an atomic snapshot of ``state``.

        The checkpoint is published atomically (temp file, fsync,
        rename, directory fsync); only then is the WAL truncated.
        Records appended before the checkpoint carry an older generation
        than the one stamped into it, so a crash *between* the rename
        and the truncate cannot double-apply the tail on recovery — the
        fence skips it.  The new generation is the next one unless the
        caller gives it (a replica publishes the primary's).
        """
        if self.fence is not None:
            self.fence()
        new_generation = (
            self.generation + 1 if generation is None else generation
        )
        sync = self.durability.sync_checkpoints
        write_checkpoint(
            self.checkpoint_path,
            self.codec.state_to_dict(state),
            new_generation,
            fs=self.fs,
            sync=sync,
        )
        self._generation = new_generation
        self.fs.write_bytes(self.path, b"")
        if sync:
            timed_fsync(self.fs, self.path)
        self.since_checkpoint = 0
        _WAL_CHECKPOINTS.inc()
        logger.info(
            "checkpointed to %s (generation %d); WAL truncated",
            self.checkpoint_path, new_generation,
        )

    def maybe_checkpoint(self, state: Any) -> None:
        """Checkpoint ``state`` when the policy's ``checkpoint_every``
        records have been appended since the last checkpoint."""
        every = self.durability.checkpoint_every
        if every is not None and self.since_checkpoint >= every:
            logger.info(
                "auto-checkpoint after %d record(s) (policy: every %d)",
                self.since_checkpoint, every,
            )
            self.checkpoint(state)
            _WAL_AUTO_CHECKPOINTS.labels(reason="interval").inc()

    def recover(
        self, policy: LatticePolicy | None = None, mode: str = "strict"
    ) -> TypeLattice:
        """Rebuild a schema journal's lattice (read-only): load the
        checkpoint (if any), then replay the live tail of the log."""
        state, self._generation = self.read_checkpoint()
        lattice = (
            lattice_from_dict(state) if state is not None
            else TypeLattice(policy)
        )
        for op in self.operations(mode):
            op.apply(lattice)
        return lattice

    def sync(self) -> None:
        """Force the appended records to stable storage (batch policy)."""
        if self.fs.exists(self.path):
            timed_fsync(self.fs, self.path)

    def gc(self) -> int:
        """Sweep backend garbage (orphan object-store segments, stale
        temp residue); returns the number of objects removed.

        Backends without substrate garbage report zero.  Call only with
        exclusive write access established — the fenced primary after
        acquiring its lease, or ``repro recover`` — never from a
        read-only or pre-fence open (see ``docs/storage.md``).
        """
        return self.fs.gc()


class DurableLattice:
    """An :class:`EvolutionJournal` wired to a :class:`JournalFile`.

    Every applied operation is logged *before* the in-memory journal
    records it as done (write-ahead), so recovery never misses an applied
    change.

    Replay is *batched*: recovery applies the whole WAL tail without ever
    touching a derived term, so the lattice's invalidations coalesce in
    its dirty set and the first post-open query pays a single derivation
    pass — reopening a database costs O(plan), not O(plan × schema).

    ``durability`` selects the fsync/auto-checkpoint policy and
    ``recovery`` the damage response (``"strict"`` raises on corruption,
    ``"salvage"`` quarantines it); the outcome of opening is recorded in
    :attr:`recovery_report`.

    The full :class:`~repro.core.transactions.SchemaTransaction` protocol
    is supported (``apply``/``undo``/``__len__``/``lattice``), so atomic
    batches work directly against durable storage::

        with SchemaTransaction(durable) as txn:
            txn.apply(...)
    """

    def __init__(
        self,
        path: str | Path,
        policy: LatticePolicy | None = None,
        *,
        durability: DurabilityPolicy | None = None,
        recovery: str = "strict",
        fs: StorageBackend | None = None,
        retry: RetryPolicy | None = None,
    ) -> None:
        self.file = JournalFile(
            path, durability=durability, fs=fs, retry=retry
        )
        state, live, self.recovery_report = self.file.open(recovery)
        base = (
            lattice_from_dict(state) if state is not None
            else TypeLattice(policy)
        )
        # Replay the WAL tail *through* the in-memory journal so history
        # (and undo) survive a restart.
        self.journal = EvolutionJournal(lattice=base)
        self.file.replay(live, self._replay, base)

    def _replay(self, records: list[FramedRecord]) -> None:
        for record in records:
            self.journal.apply(record.decoded)

    @property
    def lattice(self) -> TypeLattice:
        return self.journal.lattice

    @property
    def degraded(self) -> bool:
        """Whether the store is latched read-only (see :class:`JournalFile`)."""
        return self.file.degraded

    def __len__(self) -> int:
        return len(self.journal)

    def apply(self, operation: SchemaOperation):
        """Validate, log (write-ahead), then apply."""
        operation.validate(self.lattice)
        self.file.append(operation)
        result = self.journal.apply(operation)
        self.file.maybe_checkpoint(self.lattice)
        return result

    def apply_all(self, operations):
        """Apply a batch; invalidations coalesce into one later pass."""
        return [self.apply(op) for op in operations]

    def undo(self):
        """Undo the last operation, keeping the WAL replay-consistent.

        The recorded inverse operations are appended to the log *before*
        the in-memory undo (write-ahead, like ``apply``): a replay then
        re-executes the original operation followed by its inverses and
        lands in the same state.
        """
        if not len(self.journal):
            raise JournalError("nothing to undo")
        entry = self.journal.entries[-1]
        for op in entry.inverse:
            self.file.append(op)
        result = self.journal.undo()
        self.file.maybe_checkpoint(self.lattice)
        return result

    def checkpoint(self) -> None:
        self.file.checkpoint(self.lattice)

    def sync(self) -> None:
        """Flush appended records to disk (the batch-policy commit point)."""
        self.file.sync()

    def gc(self) -> int:
        """Sweep backend garbage; exclusive-writer-only (see
        :meth:`JournalFile.gc`)."""
        return self.file.gc()

    @classmethod
    def reopen(
        cls,
        path: str | Path,
        policy: LatticePolicy | None = None,
        *,
        durability: DurabilityPolicy | None = None,
        recovery: str = "strict",
        fs: StorageBackend | None = None,
        retry: RetryPolicy | None = None,
    ) -> "DurableLattice":
        """Simulated restart: rebuild purely from durable state."""
        return cls(
            path, policy, durability=durability, recovery=recovery,
            fs=fs, retry=retry,
        )
