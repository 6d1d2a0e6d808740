"""The stable library facade: :class:`Objectbase`.

One import, one object, the whole evolution surface::

    from repro.api import Objectbase

    ob = Objectbase.open("schema.wal")        # durable (WAL-backed)
    ob = Objectbase.in_memory()               # or ephemeral

    ob.add_type("T_person", properties=["person.name"])
    ob.add_type("T_student", supertypes=["T_person"])
    ob.card("T_student").p                    # {'T_person'}

    with ob.batch():                          # atomic + one propagation pass
        ob.drop_supertype("T_ta", "T_student")
        ob.add_supertype("T_ta", "T_person")

    ob.migrate_to('''                         # or declare the target schema
        type T_person { ne person.name as name; }
        type T_student : T_person;
    ''')                                      # differ + lint gate + batch

Everything the scattered entry points offered (``core.operations``
command objects, ``storage.journal.DurableLattice``, the CLI's
plumbing) is reachable from here; the old entry points keep working but
new code should not need them.

Design notes
------------
* **One execution path.**  Every mutation — method call, raw
  :class:`~repro.core.operations.SchemaOperation` via :meth:`apply`,
  batch member, or :meth:`normalize` — funnels through the same journal
  (and WAL when durable), so history, undo, and replay see a complete
  record.
* **Batches are transactions.**  :meth:`batch` wraps
  :class:`~repro.core.transactions.SchemaTransaction`: all-or-nothing,
  verified against the nine axioms at commit.  Because operations only
  touch the designer terms ``Pe``/``Ne``, the lattice's incremental
  engine coalesces the whole batch into a single delta-propagation pass
  at the first derived-term access (commit-time verification or the
  caller's next query).
* **Queries are term cards.**  :meth:`card` returns every Table-1 term
  of one type (``Pe``/``Ne`` designer inputs, ``P``/``PL``/``N``/``H``/``I``
  derived) as one immutable snapshot.
* **One writer at a time, readers never block.**  Every mutation, and
  every :meth:`batch` for its whole ``with`` block, holds one
  :class:`FairLock`: a FIFO ticket lock whose wait past ``lock_timeout``
  raises the typed :class:`~repro.core.errors.LockTimeoutError` with
  nothing admitted.  Concurrent readers use :attr:`Objectbase.snapshot`,
  an immutable :class:`SchemaSnapshot` of one moment.  Publishing starts
  at the first read of it; from then on every write publishes before it
  releases the lock, copy-on-write in O(cone).  Until then derivations
  coalesce until the next query, as for any single-threaded embedder.
"""

from __future__ import annotations

import logging
import threading
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import TYPE_CHECKING, Callable, Iterable, Iterator

from .core.axioms import Violation, check_all
from .core.config import LatticePolicy
from .core.derivation import Derivation
from .core.errors import LintRejectedError, LockTimeoutError, UnknownTypeError
from .core.history import EvolutionJournal, JournalEntry
from .core.impact import ImpactReport, analyze_impact
from .core.lattice import TypeLattice
from .core.normalize import NormalizationReport, normalization_operations
from .core.operations import (
    AddEssentialProperty,
    AddEssentialSupertype,
    AddType,
    DropEssentialProperty,
    DropEssentialSupertype,
    DropPropertyEverywhere,
    DropType,
    OperationResult,
    SchemaOperation,
)
from .core.properties import Property
from .core.soundness import SoundnessReport, verify
from .core.transactions import SchemaTransaction, TransactionError
from .ddl.differ import diff_schemas, schema_from
from .ddl.printer import print_schema
from .obs.metrics import REGISTRY
from .obs.tracing import trace
from .staticcheck.analyzer import AnalysisReport, analyze
from .staticcheck.plan import EvolutionPlan
from .staticcheck.registry import Severity
from .storage.backend import StorageBackend
from .storage.framing import DurabilityPolicy, SalvageReport
from .storage.journal import DurableLattice
from .storage.reliability import RetryPolicy

if TYPE_CHECKING:  # pragma: no cover
    from .ddl.ast import SchemaDecl

__all__ = [
    "Objectbase",
    "TermCard",
    "FairLock",
    "SchemaSnapshot",
    "MigrationResult",
    "DurabilityPolicy",
    "run_lint_gate",
    "MIGRATE_LINT_MODES",
]

logger = logging.getLogger(__name__)

_MIGRATIONS = REGISTRY.counter(
    "repro_ddl_migrations_total",
    "Declarative migrations through Objectbase.migrate_to, by outcome",
    labelnames=("outcome",),
)

_LOCK_ACQUISITIONS = REGISTRY.counter(
    "repro_lock_acquisitions_total",
    "Successful write-lock acquisitions",
)
_LOCK_TIMEOUTS = REGISTRY.counter(
    "repro_lock_timeouts_total",
    "Write-lock waits abandoned at the timeout",
)
_LOCK_WAIT_SECONDS = REGISTRY.histogram(
    "repro_lock_wait_seconds",
    "Time writers spent waiting for the single-writer lock",
)
_LOCK_QUEUE_DEPTH = REGISTRY.gauge(
    "repro_lock_queue_depth",
    "Writers currently queued behind the single-writer lock",
)
_SNAPSHOT_PUBLISHES = REGISTRY.counter(
    "repro_snapshot_publishes_total",
    "Immutable schema snapshots published after mutations",
)
_SNAPSHOT_UNCHANGED = REGISTRY.counter(
    "repro_snapshot_unchanged_total",
    "Publish attempts that reused the previous snapshot unchanged",
)

#: Lint-gate thresholds accepted by :meth:`Objectbase.migrate_to`.
MIGRATE_LINT_MODES = ("off", "info", "warn", "error")


@dataclass(frozen=True)
class TermCard:
    """Every Table-1 term of one type, as an immutable snapshot."""

    name: str
    #: designer-managed terms
    pe: frozenset[str]
    ne: frozenset[Property]
    #: derived terms (Axioms 5-9)
    p: frozenset[str]
    pl: frozenset[str]
    n: frozenset[Property]
    h: frozenset[Property]
    i: frozenset[Property]

    def as_dict(self) -> dict:
        """JSON-friendly form (property semantics keys, sorted)."""
        return {
            "name": self.name,
            "Pe": sorted(self.pe),
            "Ne": sorted(pr.semantics for pr in self.ne),
            "P": sorted(self.p),
            "PL": sorted(self.pl),
            "N": sorted(pr.semantics for pr in self.n),
            "H": sorted(pr.semantics for pr in self.h),
            "I": sorted(pr.semantics for pr in self.i),
        }


@dataclass(frozen=True)
class MigrationResult:
    """Everything one :meth:`Objectbase.migrate_to` call decided and did.

    ``plan`` is the differ's delta (empty when the schemas already
    agreed), ``report`` the lint-gate analysis it passed, ``applied``
    whether the plan was executed (``False`` for dry runs and empty
    plans), and ``results`` the per-operation outcomes of the applying
    batch.
    """

    plan: EvolutionPlan
    report: AnalysisReport
    applied: bool
    results: tuple[OperationResult, ...] = ()

    @property
    def changed(self) -> bool:
        """Whether the objectbase was actually mutated."""
        return self.applied and len(self.plan) > 0

    def summary(self) -> str:
        verb = "applied" if self.applied else "planned"
        return (
            f"{verb} {len(self.plan)} operation(s); "
            f"lint: {self.report.summary()}"
        )


def _coerce_prop(p: Property | str, name: str = "") -> Property:
    return p if isinstance(p, Property) else Property(p, name)


_LINT_THRESHOLDS = {
    "info": Severity.INFO,
    "warn": Severity.WARNING,
    "error": Severity.ERROR,
}


def run_lint_gate(
    lattice: TypeLattice, plan: EvolutionPlan, lint: str
) -> AnalysisReport:
    """Analyze ``plan`` against ``lattice`` and veto at the threshold.

    The shared admission gate behind :meth:`Objectbase.migrate_to`, the
    ``repro schema migrate`` CLI, and the server's ``POST /v1/migrate``.
    Only *plan-scope* findings (``step is not None``) can veto: a
    pre-existing schema-state advisory must not block every migration.
    Raises :class:`~repro.core.errors.LintRejectedError` (the offending
    plan rides on its ``.plan`` attribute) when findings reach the
    ``lint`` threshold (``"off"``/``"info"``/``"warn"``/``"error"``).
    """
    if lint not in MIGRATE_LINT_MODES:
        raise ValueError(
            f"lint must be one of {MIGRATE_LINT_MODES}, not {lint!r}"
        )
    report = analyze(lattice, plan)
    if lint == "off":
        return report
    threshold = _LINT_THRESHOLDS[lint]
    offending = [
        d for d in report.diagnostics
        if d.step is not None and d.severity >= threshold
    ]
    if offending:
        exc = LintRejectedError(
            f"migration rejected by the lint gate (lint={lint}): "
            f"{len(offending)} finding(s) at or above {threshold}",
            [d.as_dict() for d in offending],
        )
        exc.plan = plan
        raise exc
    return report


class FairLock:
    """A FIFO (ticket) mutex with timeout.

    Unlike :class:`threading.Lock`, waiters are granted the lock in
    strict arrival order: release *hands the lock off* to the oldest
    waiter rather than unlocking and letting the scheduler race.  A
    timed-out waiter raises :class:`LockTimeoutError` after removing
    itself from the queue, so an abandoned wait can never absorb a
    hand-off (the hand-off/timeout race is resolved under the internal
    mutex: a waiter signalled *between* its timeout and its cleanup
    takes the lock after all).
    """

    def __init__(self) -> None:
        self._mutex = threading.Lock()
        self._locked = False
        self._waiters: deque[threading.Event] = deque()

    @property
    def locked(self) -> bool:
        return self._locked

    @property
    def waiters(self) -> int:
        """Writers currently queued (approximate outside the lock)."""
        return len(self._waiters)

    def acquire(self, timeout: float | None = None) -> None:
        """Take the lock, waiting at most ``timeout`` seconds.

        Raises :class:`LockTimeoutError` when the wait expires; the
        caller was never granted the lock, so no cleanup is needed.
        """
        with self._mutex:
            if not self._locked and not self._waiters:
                self._locked = True
                _LOCK_ACQUISITIONS.inc()
                return
            ticket = threading.Event()
            self._waiters.append(ticket)
            _LOCK_QUEUE_DEPTH.set(len(self._waiters))
        started = perf_counter()
        granted = ticket.wait(timeout)
        waited = perf_counter() - started
        if not granted:
            with self._mutex:
                # Re-check under the mutex: release() may have handed us
                # the lock after wait() gave up but before we got here.
                if not ticket.is_set():
                    self._waiters.remove(ticket)
                    _LOCK_QUEUE_DEPTH.set(len(self._waiters))
                    _LOCK_TIMEOUTS.inc()
                    raise LockTimeoutError(
                        timeout if timeout is not None else 0.0,
                        waiters=len(self._waiters),
                    )
        _LOCK_WAIT_SECONDS.observe(waited)
        _LOCK_ACQUISITIONS.inc()

    def release(self) -> None:
        """Release, handing the lock to the oldest waiter if any."""
        with self._mutex:
            if not self._locked:
                raise RuntimeError("release of an unheld FairLock")
            if self._waiters:
                # Hand-off: the lock stays held, ownership transfers.
                ticket = self._waiters.popleft()
                _LOCK_QUEUE_DEPTH.set(len(self._waiters))
                ticket.set()
            else:
                self._locked = False

    def __enter__(self) -> "FairLock":
        self.acquire()
        return self

    def __exit__(self, *exc) -> None:
        self.release()


class SchemaSnapshot:
    """An immutable, consistent view of one schema moment.

    Carries the designer terms (``Pe``/``Ne``) *and* the derived
    :class:`Derivation` captured together under the write lock, so any
    combination of queries against one snapshot is mutually consistent.
    Construct through :meth:`capture`.
    """

    __slots__ = (
        "_pe", "_ne", "derivation", "generation", "root", "base", "frozen",
    )

    def __init__(
        self,
        pe: dict[str, frozenset[str]],
        ne: dict[str, "frozenset[Property]"],
        derivation: Derivation,
        generation: int,
        root: str | None = None,
        base: str | None = None,
        frozen: frozenset[str] = frozenset(),
    ) -> None:
        self._pe = pe
        self._ne = ne
        self.derivation = derivation
        self.generation = generation
        #: Policy facts frozen into the snapshot so the DDL differ can
        #: diff against it without touching the live lattice.
        self.root = root
        self.base = base
        self.frozen = frozen

    @classmethod
    def capture(
        cls, lattice: TypeLattice, previous: "SchemaSnapshot | None" = None
    ) -> "SchemaSnapshot":
        """Snapshot ``lattice`` now, reusing ``previous`` where possible.

        Must run while no concurrent mutation is possible (the caller
        holds the write lock).  Forces any pending incremental
        propagation, then copies only the entries whose derived rows
        were recomputed — the engine builds fresh row objects exactly
        for the cone it touched, so identity comparison against
        ``previous`` finds the delta without comparing values.
        """
        deriv = lattice.derivation
        if previous is not None and deriv is previous.derivation:
            _SNAPSHOT_UNCHANGED.inc()
            return previous
        if previous is None:
            pe = {t: lattice.pe(t) for t in deriv.pl}
            ne = {t: lattice.ne(t) for t in deriv.pl}
        else:
            old = previous.derivation
            pe = dict(previous._pe)
            ne = dict(previous._ne)
            for t in list(pe):
                if t not in deriv.pl:
                    del pe[t]
                    del ne[t]
            for t in deriv.pl:
                if (
                    t not in pe
                    or deriv.pl[t] is not old.pl.get(t)
                    or deriv.i[t] is not old.i.get(t)
                ):
                    pe[t] = lattice.pe(t)
                    ne[t] = lattice.ne(t)
        _SNAPSHOT_PUBLISHES.inc()
        return cls(
            pe, ne, deriv, lattice.generation,
            root=lattice.root,
            base=lattice.base,
            frozen=frozenset(
                t for t in lattice.types() if lattice.is_frozen(t)
            ),
        )

    # -- queries (all lock-free, all mutually consistent) ---------------

    def types(self) -> frozenset[str]:
        return frozenset(self._pe)

    def __contains__(self, name: str) -> bool:
        return name in self._pe

    def __len__(self) -> int:
        return len(self._pe)

    def pe(self, name: str) -> frozenset[str]:
        self._require(name)
        return self._pe[name]

    def ne(self, name: str) -> "frozenset[Property]":
        self._require(name)
        return self._ne[name]

    def card(self, name: str) -> TermCard:
        """All Table-1 terms of ``name``, from this one moment."""
        self._require(name)
        d = self.derivation
        return TermCard(
            name=name,
            pe=self._pe[name],
            ne=self._ne[name],
            p=d.p[name],
            pl=d.pl[name],
            n=d.n[name],
            h=d.h[name],
            i=d.i[name],
        )

    def cards(self) -> Iterator[TermCard]:
        for t in sorted(self._pe):
            yield self.card(t)

    def _require(self, name: str) -> None:
        if name not in self._pe:
            raise UnknownTypeError(name)

    def __repr__(self) -> str:
        return (
            f"SchemaSnapshot(|T|={len(self._pe)}, "
            f"generation={self.generation})"
        )


class Objectbase:
    """The unified schema-evolution facade.

    Construct through :meth:`open` (durable, WAL-backed) or
    :meth:`in_memory` (ephemeral); wrapping an existing
    :class:`TypeLattice`, :class:`EvolutionJournal`, or
    :class:`DurableLattice` also works via the constructor.

    Safe to share across threads.  Every mutating verb, and every
    :meth:`batch` for its whole ``with`` block, holds one
    :class:`FairLock`, waiting at most ``lock_timeout`` seconds; a
    thread's calls inside its own batch join that batch.  The plain
    reads (:meth:`card`, :meth:`types`, ...) see the live lattice and
    belong to the writing thread; concurrent readers use
    :attr:`snapshot`.
    """

    def __init__(
        self,
        backend: TypeLattice | EvolutionJournal | DurableLattice | None = None,
        policy: LatticePolicy | None = None,
        *,
        lock_timeout: float = 5.0,
    ) -> None:
        if backend is None:
            backend = EvolutionJournal(policy=policy)
        elif isinstance(backend, TypeLattice):
            backend = EvolutionJournal(lattice=backend)
        # EvolutionJournal and DurableLattice share the execution protocol
        # SchemaTransaction relies on: apply / undo / __len__ / .lattice.
        self._journal = backend
        self._txn: SchemaTransaction | None = None
        self.lock_timeout = lock_timeout
        self._lock = FairLock()
        #: Thread ident of the writer holding ``_lock`` (``None`` if free).
        self._owner: int | None = None
        #: ``None`` until :attr:`snapshot` is first read; from then on
        #: every write republishes it before releasing the lock.
        self._snapshot: SchemaSnapshot | None = None
        #: Reopens the durable store in salvage mode (set by :meth:`open`).
        self._reopen: Callable[[], DurableLattice] | None = None
        self._fence: Callable[[], None] | None = None

    # -- constructors ---------------------------------------------------

    @classmethod
    def open(
        cls,
        path: str | Path,
        policy: LatticePolicy | None = None,
        *,
        durability: DurabilityPolicy | None = None,
        recovery: str = "strict",
        retry: RetryPolicy | None = None,
        fs: StorageBackend | None = None,
        lock_timeout: float = 5.0,
    ) -> "Objectbase":
        """Open (or create) a durable objectbase backed by a WAL file.

        ``path`` is a filesystem path or a backend URL: a bare path (or
        ``file:PATH``) selects the plain-file backend, ``sqlite:DBFILE``
        stores frames and checkpoints as rows in one SQLite database,
        and ``objstore:ROOT`` uses a content-addressed object store with
        an atomically swapped manifest (see ``docs/storage.md``).  All
        backends satisfy the same crash-consistency contract; the
        conformance suite runs verbatim against each.

        Recovery replays the journal in batch mode: the first query after
        opening pays one derivation pass, regardless of the plan length.

        ``durability`` selects the fsync and auto-checkpoint policy
        (:class:`~repro.storage.framing.DurabilityPolicy`); ``recovery``
        chooses how on-disk damage is met — ``"strict"`` raises a typed
        :class:`~repro.core.errors.CorruptRecordError`, ``"salvage"``
        truncates to the last valid record and quarantines the rest (see
        ``docs/durability.md``).  :attr:`recovery_report` records the
        outcome.  ``retry`` governs how transient storage faults on the
        WAL append path are absorbed
        (:class:`~repro.storage.reliability.RetryPolicy`); when the
        budget is exhausted the store latches read-only (see
        :attr:`degraded`).  ``fs`` swaps the filesystem seam (fault
        injection in tests).  ``lock_timeout`` bounds every writer's
        wait for the lock.  The arguments are kept so :meth:`recover`
        can reopen the same store in salvage mode.
        """

        def reopen(recovery: str = "salvage") -> DurableLattice:
            return DurableLattice(
                path, policy, durability=durability, recovery=recovery,
                retry=retry, fs=fs,
            )

        ob = cls(reopen(recovery), lock_timeout=lock_timeout)
        ob._reopen = reopen
        return ob

    @classmethod
    def in_memory(
        cls, policy: LatticePolicy | None = None, *, lock_timeout: float = 5.0
    ) -> "Objectbase":
        """A fresh, non-durable objectbase (TIGUKAT policy by default)."""
        return cls(policy=policy, lock_timeout=lock_timeout)

    # -- introspection --------------------------------------------------

    @property
    def lattice(self) -> TypeLattice:
        """The underlying type lattice (read it freely; mutate via ops)."""
        return self._journal.lattice

    @property
    def durable(self) -> bool:
        return isinstance(self._journal, DurableLattice)

    @property
    def degraded(self) -> bool:
        """Whether the store is latched read-only after storage failure.

        Always ``False`` for in-memory objectbases.  While ``True``,
        every mutation raises a typed
        :class:`~repro.core.errors.DegradedModeError`; reads keep
        serving the last consistent state.  ``repro recover`` (or
        reopening) restores service.
        """
        return bool(getattr(self._journal, "degraded", False))

    @property
    def recovery_report(self) -> SalvageReport | None:
        """What opening recovered/salvaged (durable objectbases only)."""
        return getattr(self._journal, "recovery_report", None)

    @property
    def snapshot(self) -> SchemaSnapshot:
        """The last published :class:`SchemaSnapshot`, for readers on
        any thread.

        The first read captures one under the writer lock and turns
        publishing on; from then on every write publishes before it
        releases the lock, so this is one reference load that never
        blocks and never shows a half-applied batch.  The first read
        may not come from inside the calling thread's own write.
        """
        snap = self._snapshot
        if snap is None:
            if self._owner == threading.get_ident():
                raise TransactionError(
                    "the first snapshot read cannot happen inside a write"
                )
            with self._write():
                if self._snapshot is None:
                    self._snapshot = SchemaSnapshot.capture(self.lattice)
                snap = self._snapshot
        return snap

    def types(self) -> frozenset[str]:
        return self.lattice.types()

    def __contains__(self, name: str) -> bool:
        return name in self.lattice

    def __len__(self) -> int:
        return len(self.lattice)

    def card(self, name: str) -> TermCard:
        """All Table-1 terms of ``name`` in one snapshot."""
        lat = self.lattice
        return TermCard(
            name=name,
            pe=lat.pe(name),
            ne=lat.ne(name),
            p=lat.p(name),
            pl=lat.pl(name),
            n=lat.n(name),
            h=lat.h(name),
            i=lat.interface(name),
        )

    def cards(self) -> Iterator[TermCard]:
        """Term cards for every type, in name order."""
        for t in sorted(self.types()):
            yield self.card(t)

    # -- the writer lock ------------------------------------------------

    @contextmanager
    def _write(self) -> Iterator[None]:
        """Hold the writer lock for one mutating verb.

        The thread already holding it (inside its own :meth:`batch`, or
        a verb built on another verb) joins that hold.  Once publishing
        is on, the outermost hold publishes before releasing, also after
        a rejected mutation: a failed batch rolled back through inverses
        may leave a fresh derivation, and ``capture`` reuses the previous
        snapshot when nothing changed.
        """
        me = threading.get_ident()
        if self._owner == me:
            yield
            return
        self._lock.acquire(self.lock_timeout)
        self._owner = me
        try:
            yield
        finally:
            try:
                if self._snapshot is not None:
                    self._snapshot = SchemaSnapshot.capture(
                        self.lattice, self._snapshot
                    )
            finally:
                self._owner = None
                self._lock.release()

    # -- the eight evolution operations ---------------------------------

    def apply(
        self,
        operation: SchemaOperation,
        *,
        gate: Callable[[TypeLattice], None] | None = None,
    ) -> OperationResult:
        """Apply a raw operation object (routes through an active batch).

        ``gate``, if given, runs under the writer lock against the live
        lattice before anything is mutated; raising from it aborts the
        write (the service's admission-time lint gate rides on this).

        Produces one ``apply`` trace span (a child of the ``batch`` span
        when inside :meth:`batch`) carrying the operation code and the
        counter deltas the operation caused.
        """
        with trace.span("apply", op=operation.code) as span, self._write():
            if gate is not None:
                gate(self.lattice)
            if self._txn is not None:
                result = self._txn.apply(operation)
            else:
                result = self._journal.apply(operation)
            span.set_attr("changed", result.changed)
            return result

    def add_type(
        self,
        name: str,
        supertypes: Iterable[str] = (),
        properties: Iterable[Property | str] = (),
    ) -> OperationResult:
        """AT: create a type with essential supertypes/properties."""
        return self.apply(AddType(
            name,
            tuple(supertypes),
            tuple(_coerce_prop(p) for p in properties),
        ))

    def drop_type(self, name: str) -> OperationResult:
        """DT: drop a type; it leaves every ``Pe`` that listed it."""
        return self.apply(DropType(name))

    def add_supertype(self, subtype: str, supertype: str) -> OperationResult:
        """MT-ASR: add an essential supertype."""
        return self.apply(AddEssentialSupertype(subtype, supertype))

    def drop_supertype(self, subtype: str, supertype: str) -> OperationResult:
        """MT-DSR: drop an essential supertype."""
        return self.apply(DropEssentialSupertype(subtype, supertype))

    def add_property(
        self, type_name: str, p: Property | str, display_name: str = ""
    ) -> OperationResult:
        """MT-AB: add an essential property (semantics key or Property)."""
        return self.apply(
            AddEssentialProperty(type_name, _coerce_prop(p, display_name))
        )

    def drop_property(
        self, type_name: str, p: Property | str
    ) -> OperationResult:
        """MT-DB: drop an essential property from one type."""
        return self.apply(DropEssentialProperty(type_name, _coerce_prop(p)))

    def drop_property_everywhere(self, p: Property | str) -> OperationResult:
        """DB: drop a property from every ``Ne`` that lists it."""
        return self.apply(DropPropertyEverywhere(_coerce_prop(p)))

    # -- batched transactions -------------------------------------------

    @contextmanager
    def batch(
        self,
        verify_on_commit: bool = True,
        gate: Callable[[TypeLattice], None] | None = None,
    ) -> Iterator[SchemaTransaction]:
        """Group operations atomically, with one propagation pass.

        All facade mutations the calling thread makes inside the
        ``with`` block join the transaction: either every operation
        commits (verified against the nine axioms by default) or the
        whole group rolls back through the recorded inverses.
        Invalidation is coalesced — the entire batch costs a single
        incremental derivation pass.  The writer lock is held for the
        whole block, so other threads' writes wait and readers of
        :attr:`snapshot` see the batch whole or not at all.  ``gate``
        behaves as in :meth:`apply`.
        """
        with trace.span("batch", verify=verify_on_commit) as span, \
                self._write():
            if self._txn is not None:
                raise TransactionError("a batch is already active")
            if gate is not None:
                gate(self.lattice)
            txn = SchemaTransaction(
                self._journal, verify_on_commit=verify_on_commit
            )
            self._txn = txn
            try:
                with txn:
                    yield txn
                span.set_attr("operations", len(txn))
            finally:
                self._txn = None

    # -- checks, analysis, maintenance ----------------------------------

    def check(self) -> list[Violation]:
        """Check the nine axioms; an empty list means the schema is sound."""
        return check_all(self.lattice)

    def verify(self) -> SoundnessReport:
        """Run the soundness/completeness oracle (Theorems 2.1/2.2)."""
        return verify(self.lattice)

    def impact(self, operation: SchemaOperation) -> ImpactReport:
        """Dry-run ``operation``; never mutates the objectbase."""
        return analyze_impact(self.lattice, operation)

    def normalize(self) -> NormalizationReport:
        """Rewrite ``Pe``/``Ne`` to the minimal declarations, journaled.

        The rewrite is expressed as ordinary MT-DSR/MT-DB operations and
        executed through the journal (and the WAL when durable), so
        normalization is replayable, undoable, and visible in
        :meth:`history` — and its invalidations coalesce like any batch.
        Normalization preserves the derived lattice by construction, so
        the batch skips commit-time re-verification.
        """
        with trace.span("normalize") as span, self._write():
            ops = normalization_operations(self.lattice)
            dropped_supers = sum(
                1 for op in ops if isinstance(op, DropEssentialSupertype)
            )
            dropped_props = len(ops) - dropped_supers
            if ops:
                if self._txn is not None:
                    for op in ops:
                        self._txn.apply(op)
                else:
                    with self.batch(verify_on_commit=False) as txn:
                        txn.apply_all(ops)
            span.set_attr("operations", len(ops))
            logger.debug(
                "normalize dropped %d supertype and %d property "
                "declaration(s)", dropped_supers, dropped_props,
            )
            return NormalizationReport(dropped_supers, dropped_props)

    # -- declarative schema (DDL) ---------------------------------------

    def schema_ddl(self, name: str = "") -> str:
        """The live schema as canonical DDL text (see ``docs/ddl.md``).

        Round-trip stable: migrating to this text is always a no-op, and
        the output is byte-identical for equal schemas regardless of the
        operation history that produced them.
        """
        return print_schema(schema_from(self.lattice, name=name))

    def schema_decl(self, name: str = "") -> "SchemaDecl":
        """The live schema as a :class:`~repro.ddl.ast.SchemaDecl`."""
        return schema_from(self.lattice, name=name)

    def diff_to(
        self, target: "SchemaDecl | str", *, name: str = ""
    ) -> EvolutionPlan:
        """The minimal plan evolving this objectbase to ``target``.

        ``target`` is DDL text or a parsed
        :class:`~repro.ddl.ast.SchemaDecl`.  Nothing is applied — feed
        the plan to :meth:`migrate_to`, ``repro lint``, or
        :meth:`~repro.staticcheck.plan.EvolutionPlan.save`.  An empty
        plan means the schemas already agree.
        """
        return diff_schemas(self.lattice, target, name=name)

    def migrate_to(
        self,
        target: "SchemaDecl | str",
        *,
        dry_run: bool = False,
        verify_on_commit: bool = True,
        lint: str = "error",
        gate: "Callable[[TypeLattice, EvolutionPlan], None] | None" = None,
    ) -> MigrationResult:
        """Evolve the schema to match a declared target (diff + apply).

        The declarative top of the API: diff the live schema against
        ``target`` (DDL text or a parsed schema), run the resulting plan
        through the staticcheck lint gate, and apply it as one verified
        batch.  Idempotent — migrating twice to the same target is a
        no-op the second time.

        ``lint`` sets the gate threshold (``"off"``, ``"info"``,
        ``"warn"``, ``"error"``): plan findings at or above it raise
        :class:`~repro.core.errors.LintRejectedError` without touching
        the objectbase.  ``dry_run=True`` stops after diff + lint and
        returns the unapplied plan.  ``verify_on_commit`` is passed to
        the applying :meth:`batch`.  ``gate``, if given, receives the
        live lattice and the computed plan after the lint gate passed
        and before anything is mutated; raising from it aborts the
        migration (the server's interference check rides on this).

        Diff, lint gate and apply all run under one hold of the writer
        lock, so the plan executes against exactly the schema it was
        computed from.
        """
        with trace.span("migrate", dry_run=dry_run, lint=lint) as span, \
                self._write():
            plan = self.diff_to(target)
            span.set_attr("operations", len(plan))
            try:
                report = run_lint_gate(self.lattice, plan, lint)
            except LintRejectedError:
                _MIGRATIONS.labels(outcome="lint-rejected").inc()
                raise
            if gate is not None and not dry_run:
                gate(self.lattice, plan)
            if dry_run or not plan.operations:
                outcome = "dry-run" if dry_run else "noop"
                _MIGRATIONS.labels(outcome=outcome).inc()
                return MigrationResult(plan, report, applied=False)
            with self.batch(verify_on_commit=verify_on_commit) as txn:
                results = txn.apply_all(plan.operations)
            _MIGRATIONS.labels(outcome="applied").inc()
            return MigrationResult(
                plan, report, applied=True, results=tuple(results)
            )

    # -- history and durability -----------------------------------------

    def history(self) -> tuple[JournalEntry, ...]:
        """The journaled operations (since the last checkpoint, when
        durable)."""
        return self._journal.journal.entries if self.durable \
            else self._journal.entries

    def undo(self) -> JournalEntry:
        """Revert the most recent operation via its recorded inverse."""
        with trace.span("undo") as span, self._write():
            if self._txn is not None:
                raise TransactionError("cannot undo inside a batch")
            entry = self._journal.undo()
            span.set_attr("op", entry.operation.code)
            return entry

    def _require_durable(self, verb: str) -> None:
        if not self.durable:
            raise TransactionError(
                f"{verb} requires a durable objectbase (use Objectbase.open)"
            )

    def checkpoint(self) -> None:
        """Fold the WAL into a snapshot (durable objectbases only)."""
        self._require_durable("checkpoint")
        with self._write():
            self._journal.checkpoint()

    def sync(self) -> None:
        """Force WAL records to stable storage (durable objectbases only).

        The explicit commit point under ``DurabilityPolicy(fsync="batch")``
        — a no-op risk window closer; with ``fsync="always"`` every apply
        already synced.
        """
        self._require_durable("sync")
        with self._write():
            self._journal.sync()

    def storage_gc(self) -> int:
        """Sweep storage-backend garbage (orphan object-store segments,
        stale temp residue); returns the number of objects removed.

        Only for a process that owns the store exclusively — the fenced
        primary after acquiring its lease, or ``repro recover``.  A
        read-only opener (a replica, a failover candidate) must never
        call this: garbage is judged against the manifest this process
        can see, and another writer's in-flight publish looks exactly
        like garbage.  In-memory objectbases (and backends with no
        substrate garbage) report zero.
        """
        collect = getattr(self._journal, "gc", None)
        if not callable(collect):
            return 0
        with self._write():
            return collect()

    def set_write_fence(self, fence: Callable[[], None] | None) -> None:
        """Install (or clear, with ``None``) a write fence on the WAL.

        The fence runs before every append and checkpoint; raising from
        it aborts the write.  Replication installs the primary lease's
        ``check`` here so an ex-primary that lost its lease is stopped
        at the append boundary.  Survives :meth:`recover` (the fence is
        reattached to the reopened backend).
        """
        self._require_durable("a write fence")
        self._fence = self._journal.file.fence = fence

    def recover(self) -> SalvageReport | None:
        """Heal the store and leave degraded mode (if it was entered).

        Durable stores are reopened from disk in salvage mode: the WAL
        is repaired (torn tails truncated, corruption quarantined) and
        the lattice rebuilt from exactly the acknowledged records.
        Rebuilding from disk — rather than merely clearing the latch —
        guarantees the in-memory state and the log agree again even if
        a partial append could not be rolled back.  In-memory stores
        have nothing to heal; the call returns ``None``.
        """
        with self._write():
            if self._reopen is not None:
                previous = self._journal
                self._journal = self._reopen()
                # The reopened backend has a fresh (clear) latch; end the
                # old store's degraded episode so the gauge drops too.
                previous.file.latch.clear()
                self._journal.file.fence = self._fence
            return self.recovery_report

    def __repr__(self) -> str:
        kind = "durable" if self.durable else "in-memory"
        state = "degraded" if self.degraded else "ok"
        return f"Objectbase({kind}, {state}, |T|={len(self.lattice)})"
