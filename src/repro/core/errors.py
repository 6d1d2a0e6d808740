"""Exception hierarchy for the axiomatic schema-evolution model.

Every error raised by :mod:`repro.core` derives from
:class:`EvolutionError`, so callers can catch the whole family with a
single ``except`` clause while still being able to discriminate the
individual failure modes the paper calls out (cycle introduction,
dropping the root link, unknown types, ...).

Machine-readable codes
----------------------
Every class carries a stable kebab-case ``code`` (mirroring the
:mod:`repro.staticcheck` rule-id convention: the static analyzer's
``doomed-operation`` findings cite the same codes the live engine would
raise).  ``ERROR_CODES`` maps code -> class, and :func:`error_code`
extracts the code of any caught exception.  The CLI maps codes to exit
status through :func:`exit_code_for`:

=============  =============================================
exit status    meaning
=============  =============================================
0              success
1              the engine rejected the request (any
               :class:`EvolutionError`: cycle, root-violation,
               frozen-type, corrupt journal, malformed plan,
               ...) or a check/lint gate failed
2              the invocation itself is unusable (unknown
               rule id, bad arguments) — errors *about the
               request*, not about the schema
=============  =============================================

:class:`SchemaError` remains as the historic family name (it *is*
:class:`EvolutionError`'s immediate subclass and the ancestor of every
concrete error), so existing ``except SchemaError`` call sites keep
working unchanged.
"""

from __future__ import annotations

from typing import ClassVar

__all__ = [
    "EvolutionError",
    "SchemaError",
    "UnknownTypeError",
    "DuplicateTypeError",
    "CycleError",
    "RootViolationError",
    "PointednessViolationError",
    "AxiomViolationError",
    "OperationRejected",
    "UnknownPropertyError",
    "FrozenTypeError",
    "JournalError",
    "CorruptRecordError",
    "PlanError",
    "PlanFormatError",
    "DDLError",
    "DDLValidationError",
    "LockTimeoutError",
    "DegradedModeError",
    "LintRejectedError",
    "PlanInterferenceError",
    "ReplicationError",
    "ReplicaDivergedError",
    "StaleEpochError",
    "LeaseError",
    "LeaseHeldError",
    "LeaseLostError",
    "ReadOnlyReplicaError",
    "ERROR_CODES",
    "error_code",
    "exit_code_for",
]

#: CLI exit statuses (see module docstring).
EXIT_OK = 0
EXIT_REJECTED = 1
EXIT_UNUSABLE = 2


class EvolutionError(Exception):
    """Base class for every schema-evolution error.

    Attributes
    ----------
    code:
        Stable machine-readable identifier (kebab-case, shared naming
        convention with the staticcheck rule ids).
    exit_code:
        The CLI exit status this error maps to.
    """

    code: ClassVar[str] = "evolution-error"
    exit_code: ClassVar[int] = EXIT_REJECTED

    def as_dict(self) -> dict:
        """Structured form for JSON surfaces (CLI, SARIF, logs)."""
        return {"code": self.code, "message": str(self)}


class SchemaError(EvolutionError):
    """Historic family name: every concrete error derives from it."""

    code: ClassVar[str] = "schema-error"


class UnknownTypeError(SchemaError, KeyError):
    """A referenced type is not a member of the lattice ``T``."""

    code: ClassVar[str] = "unknown-type"

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self.name = name

    def __str__(self) -> str:  # KeyError would quote the repr otherwise
        return f"unknown type: {self.name!r}"


class DuplicateTypeError(SchemaError):
    """A type with the same identity already exists in the lattice."""

    code: ClassVar[str] = "duplicate-type"

    def __init__(self, name: str) -> None:
        super().__init__(f"type already exists: {name!r}")
        self.name = name


class CycleError(SchemaError):
    """Axiom of Acyclicity: the requested change would introduce a cycle.

    The paper (Section 3.3, MT-ASR): "Due to the axiom of acyclicity, the
    addition of a type as a supertype of another type is rejected if it
    introduces a cycle into the lattice."
    """

    code: ClassVar[str] = "cycle"

    def __init__(self, subtype: str, supertype: str) -> None:
        super().__init__(
            f"adding {supertype!r} as a supertype of {subtype!r} "
            f"would create a cycle"
        )
        self.subtype = subtype
        self.supertype = supertype


class RootViolationError(SchemaError):
    """Axiom of Rootedness: the change would disconnect a type from the root.

    TIGUKAT obeys rootedness, so "a subtype relationship to T_object cannot
    be dropped" and the root type itself cannot be dropped.
    """

    code: ClassVar[str] = "root-violation"


class PointednessViolationError(SchemaError):
    """Axiom of Pointedness: the change would break the base type ``⊥``."""

    code: ClassVar[str] = "pointedness-violation"


class AxiomViolationError(SchemaError):
    """An axiom check failed; carries the structured violation list."""

    code: ClassVar[str] = "axiom-violation"

    def __init__(self, violations: list) -> None:
        lines = "; ".join(str(v) for v in violations)
        super().__init__(f"axiom violations: {lines}")
        self.violations = list(violations)


class OperationRejected(SchemaError):
    """A schema-evolution operation was rejected by its precondition.

    Mirrors the paper's REJECT outcomes (e.g. Orion OP4 on the last
    superclass being OBJECT, or TIGUKAT DF on a function still implementing
    a behavior of a type with an associated class).
    """

    code: ClassVar[str] = "operation-rejected"

    def __init__(self, operation: str, reason: str) -> None:
        super().__init__(f"{operation} rejected: {reason}")
        self.operation = operation
        self.reason = reason


class UnknownPropertyError(SchemaError, KeyError):
    """A referenced property is not known to the schema."""

    code: ClassVar[str] = "unknown-property"

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self.name = name

    def __str__(self) -> str:
        return f"unknown property: {self.name!r}"


class FrozenTypeError(SchemaError):
    """A primitive (frozen) type was the target of a destructive change.

    TIGUKAT restricts the primitive types of the model (Figure 2) from
    being dropped.
    """

    code: ClassVar[str] = "frozen-type"

    def __init__(self, name: str) -> None:
        super().__init__(f"primitive type cannot be modified or dropped: {name!r}")
        self.name = name


class JournalError(SchemaError):
    """The operation journal is corrupt or a replay failed."""

    code: ClassVar[str] = "journal-corrupt"


class CorruptRecordError(JournalError):
    """A WAL record is structurally damaged (bad frame, length, or CRC).

    Raised by strict-mode recovery when damage cannot be explained by a
    torn trailing write — a bit flip, an interior truncation, a record
    that passes its checksum but decodes to no known operation.  Salvage
    mode (``repro recover --mode salvage``) turns the same damage into a
    quarantined ``.corrupt`` sidecar instead.
    """

    code: ClassVar[str] = "wal-corrupt-record"


class PlanError(SchemaError):
    """An evolution plan file is unreadable or malformed."""

    code: ClassVar[str] = "plan-malformed"


class PlanFormatError(PlanError):
    """The file is not an evolution plan at all.

    Raised by :func:`repro.staticcheck.load_plan` when the on-disk shape
    is not one of the accepted plan formats (JSON object/array, JSONL,
    framed WAL) — a schema DDL file, prose, or binary handed to
    ``repro lint --plan`` by mistake.  Distinct from the parent
    ``plan-malformed``, which covers files that *are* plans but carry a
    broken operation.
    """

    code: ClassVar[str] = "plan-bad-format"


class DDLError(SchemaError):
    """A schema DDL text could not be tokenized or parsed.

    Carries the 1-based ``line``/``column`` of the offending source when
    known; the HTTP service maps this (and its subclass) to **400** —
    the request text itself is unusable, unlike a well-formed schema the
    engine rejects.
    """

    code: ClassVar[str] = "ddl-syntax"

    def __init__(
        self,
        message: str,
        line: int | None = None,
        column: int | None = None,
    ) -> None:
        where = ""
        if line is not None:
            where = f"line {line}"
            if column is not None:
                where += f", column {column}"
            where = f" ({where})"
        super().__init__(f"{message}{where}")
        self.line = line
        self.column = column


class DDLValidationError(DDLError):
    """A parsed schema declaration is semantically unusable.

    The text tokenized and parsed, but the declared schema cannot be
    diffed or applied: duplicate or policy-managed type declarations,
    references to undeclared types, a declared supertype cycle, or
    conflicting property payloads under one semantics key.
    """

    code: ClassVar[str] = "ddl-invalid"


class LockTimeoutError(SchemaError):
    """The single-writer lock could not be acquired within the timeout.

    Raised by the writer lock of :class:`repro.api.Objectbase` when a
    writer waits longer than its configured bound.  The request was never
    admitted — no partial effect exists — so the caller can safely retry;
    the HTTP service maps this to ``503`` with a ``Retry-After`` hint.
    """

    code: ClassVar[str] = "lock-timeout"

    def __init__(self, timeout: float, waiters: int = 0) -> None:
        super().__init__(
            f"write lock not acquired within {timeout:.3f}s "
            f"({waiters} writer(s) queued ahead)"
        )
        self.timeout = timeout
        self.waiters = waiters


class DegradedModeError(SchemaError):
    """The store is read-only because durable appends stopped working.

    After a WAL append exhausts its retry budget the store latches into
    degraded mode rather than risk a corrupt or silently truncated log:
    reads keep serving from the last consistent state, every write is
    rejected with this error, and the ``repro_degraded_mode`` gauge is
    raised.  ``repro recover`` (or the service's recover endpoint) heals
    the log and clears the latch.
    """

    code: ClassVar[str] = "degraded-mode"

    def __init__(self, reason: str) -> None:
        super().__init__(
            f"store is in read-only degraded mode: {reason} "
            f"(run `repro recover` to restore service)"
        )
        self.reason = reason


class LintRejectedError(SchemaError):
    """A write was vetoed by the service's admission-time lint gate.

    The offending plan is well-formed and might even execute, but the
    static analyzer found findings at or above the service's configured
    threshold (``repro serve --lint warn|error``).  Carries the
    diagnostics (as plain dictionaries) so the HTTP layer can return
    them in the 409 response body.
    """

    code: ClassVar[str] = "lint-rejected"

    def __init__(self, message: str, diagnostics: list | tuple = ()) -> None:
        super().__init__(message)
        self.diagnostics = list(diagnostics)

    def as_dict(self) -> dict:
        doc = super().as_dict()
        doc["diagnostics"] = self.diagnostics
        return doc


class PlanInterferenceError(LintRejectedError):
    """A write conflicts with a plan committed since the client's read.

    Raised by the service's interference check when a batch declares the
    schema generation it was planned against (``expect_generation``) and
    the effect summaries of operations committed since then overlap with
    the incoming batch — the optimistic-concurrency counterpart of the
    static ``cross-plan-interference`` rule.
    """

    code: ClassVar[str] = "plan-interference"


class ReplicationError(SchemaError):
    """A replication stream violated the wire protocol or its checksums.

    Covers truncated envelopes, checksum mismatches, out-of-order record
    batches, and messages that do not decode — damage introduced by the
    *channel*, not the WAL.  The replica's reaction is always the same:
    quarantine the stream (drop the connection), re-handshake from its
    last durable position, and keep serving the snapshot it already has.
    """

    code: ClassVar[str] = "replication-protocol"


class ReplicaDivergedError(ReplicationError):
    """A shipped record does not apply cleanly to the replica's state.

    Every shipped record is a committed prefix of the primary's history,
    so a record that the replica's engine rejects means the replica's
    local state is not the prefix it claims to be (bit rot, operator
    edit, mixed-up data directories).  The replica must discard its WAL
    tail and resynchronize from a full checkpoint ship rather than apply
    anything further.
    """

    code: ClassVar[str] = "replica-diverged"


class StaleEpochError(ReplicationError):
    """A primary presented a lease epoch older than one already seen.

    Replicas remember the highest lease epoch they have ever synced from;
    a handshake or heartbeat carrying a *lower* epoch identifies a
    paused-and-resumed ex-primary that does not yet know it lost its
    lease.  The connection is refused so the fenced node cannot roll the
    replica back.
    """

    code: ClassVar[str] = "stale-epoch"

    def __init__(self, seen: int, offered: int) -> None:
        super().__init__(
            f"refusing primary with lease epoch {offered}; "
            f"already replicated from epoch {seen}"
        )
        self.seen = seen
        self.offered = offered


class LeaseError(SchemaError):
    """Base class for write-lease protocol failures."""

    code: ClassVar[str] = "lease-error"


class LeaseHeldError(LeaseError):
    """The primary lease is currently held by another live owner."""

    code: ClassVar[str] = "lease-held"

    def __init__(self, owner: str, expires_in: float) -> None:
        super().__init__(
            f"lease is held by {owner!r} for another {expires_in:.3f}s"
        )
        self.owner = owner
        self.expires_in = expires_in


class LeaseLostError(LeaseError):
    """This node's write lease expired or was taken by a higher epoch.

    Raised by the lease's write fence *before* a WAL append or a
    replication handshake proceeds, so a paused-and-resumed ex-primary
    can never extend the history a new primary has already diverged
    from.  Latched: once lost, every subsequent check fails until the
    lease is explicitly re-acquired (under a new, higher epoch).
    """

    code: ClassVar[str] = "lease-lost"

    def __init__(self, reason: str) -> None:
        super().__init__(
            f"write lease lost: {reason} (writes are fenced; "
            f"re-acquire the lease to resume)"
        )
        self.reason = reason


class ReadOnlyReplicaError(SchemaError):
    """A write reached a node serving as a read-only replica.

    The HTTP service maps this to ``503`` with a ``Retry-After`` hint;
    the message names the primary so clients (and operators reading
    logs) know where writes belong.
    """

    code: ClassVar[str] = "read-only-replica"

    def __init__(self, primary: str) -> None:
        super().__init__(
            f"this node is a read-only replica; send writes to the "
            f"primary at {primary}"
        )
        self.primary = primary


def _collect_codes() -> dict[str, type]:
    registry: dict[str, type] = {}
    stack: list[type] = [EvolutionError]
    while stack:
        cls = stack.pop()
        registry.setdefault(cls.code, cls)
        stack.extend(cls.__subclasses__())
    return registry


#: code -> exception class, for every error defined in this module.  Late
#: subclasses (e.g. ``TransactionError``) register themselves on import via
#: :func:`register_error`.
ERROR_CODES: dict[str, type] = _collect_codes()


def register_error(cls: type) -> type:
    """Class decorator: add an :class:`EvolutionError` subclass defined
    outside this module (e.g. ``TransactionError``) to ``ERROR_CODES``."""
    ERROR_CODES.setdefault(cls.code, cls)
    return cls


def error_code(exc: BaseException) -> str:
    """The machine-readable code of any exception (``"internal"`` when it
    is not part of the evolution taxonomy)."""
    return getattr(exc, "code", "internal")


def exit_code_for(exc: BaseException) -> int:
    """The CLI exit status for ``exc`` (see the module docstring table)."""
    return getattr(exc, "exit_code", EXIT_REJECTED)
