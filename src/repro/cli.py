"""Command-line schema-evolution tool over a durable objectbase.

A thin operational surface for the library, built on the
:class:`repro.api.Objectbase` facade: schema state lives in a
write-ahead journal file (see :mod:`repro.storage.journal`) and every
subcommand is one of the paper's operations or inspections::

    python -m repro --db schema.wal init
    python -m repro --db schema.wal add-type T_person -p person.name
    python -m repro --db schema.wal add-type T_student -s T_person
    python -m repro --db schema.wal add-edge T_student T_person
    python -m repro --db schema.wal drop-edge T_student T_person
    python -m repro --db schema.wal add-prop T_person person.age
    python -m repro --db schema.wal drop-type T_student
    python -m repro --db schema.wal show [T_student]
    python -m repro --db schema.wal schema show            # live schema as DDL
    python -m repro --db schema.wal schema diff target.ddl # minimal plan
    python -m repro --db schema.wal schema migrate target.ddl [--dry-run]
    python -m repro --db schema.wal check       # axioms + oracle
    python -m repro --db schema.wal lint        # static analysis (schema)
    python -m repro --db schema.wal lint --plan plan.json --format sarif
    python -m repro --db schema.wal render      # ASCII lattice
    python -m repro --db schema.wal dot         # Graphviz output
    python -m repro --db schema.wal tables      # Tables 1-3
    python -m repro --db schema.wal checkpoint  # WAL -> snapshot
    python -m repro --db schema.wal recover --mode salvage
    python -m repro --db schema.wal stats --plan plan.json --format prom
    python -m repro --db schema.wal trace --plan plan.json --out trace.jsonl
    python -m repro --db schema.wal serve --port 8787   # HTTP/JSON service

Opening the database replays the WAL in batch mode: one derivation pass
per invocation, however long the journal tail is.  The global
``--fsync {always,batch,never}`` and ``--checkpoint-every N`` flags
select the :class:`~repro.storage.framing.DurabilityPolicy` for the
mutation subcommands; ``recover`` heals a damaged WAL (``--mode strict``
only diagnoses, ``--mode salvage`` truncates torn tails and quarantines
corrupt records into a ``.corrupt`` sidecar — see ``docs/durability.md``).

Observability (see ``docs/observability.md``): ``stats`` dry-runs an
evolution plan on an in-memory copy of the schema and prints the metrics
registry (text, JSON, or Prometheus exposition format); ``trace`` runs
the same dry-run with a JSONL span sink attached, emitting one root span
per operation plus a final ``verify`` span and a trailing summary record
holding the full registry.  Both leave the WAL untouched.  ``--verbose``
(repeatable) and ``--quiet`` configure stdlib logging for every
subcommand; library code never touches handlers itself.

Exit status follows the unified error taxonomy (:mod:`repro.core.errors`):
0 on success, 1 when the engine rejects the request or a check/lint gate
fails (every :class:`~repro.core.errors.EvolutionError`, reported with
its machine-readable code), 2 when the invocation itself is unusable
(e.g. an unknown lint rule id).
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path
from typing import Sequence

from .api import DurabilityPolicy, Objectbase
from .core import (
    DropEssentialSupertype,
    DropType,
    EvolutionError,
    error_code,
    exit_code_for,
)
from .obs import REGISTRY, JsonlSink, configure_logging, trace as _trace
from .viz import (
    render_lattice,
    render_table1,
    render_table2,
    render_table3,
    render_type_card,
    to_dot,
)

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Axiomatic dynamic schema evolution over a durable lattice.",
    )
    parser.add_argument(
        "--db", required=True,
        help="journal path or backend URL (created when missing): a bare "
             "path or file:PATH for the filesystem backend, "
             "sqlite:DBFILE for the SQLite backend, objstore:ROOT for "
             "the content-addressed object store (see docs/storage.md)",
    )
    parser.add_argument(
        "-v", "--verbose", action="count", default=0,
        help="log more (-v: INFO, -vv: DEBUG); applies to every subcommand",
    )
    parser.add_argument(
        "-q", "--quiet", action="store_true",
        help="log only errors (overrides --verbose)",
    )
    parser.add_argument(
        "--fsync", choices=("always", "batch", "never"), default=None,
        help="WAL fsync policy: always = fsync every record (crash-safe), "
             "batch = fsync at checkpoints and close (default), "
             "never = leave flushing to the OS",
    )
    parser.add_argument(
        "--checkpoint-every", type=int, metavar="N", default=None,
        help="auto-checkpoint after N journaled operations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("init", help="create an empty TIGUKAT-policy schema")

    p = sub.add_parser("add-type", help="AT: create a type")
    p.add_argument("name")
    p.add_argument("-s", "--supertype", action="append", default=[],
                   help="essential supertype (repeatable)")
    p.add_argument("-p", "--prop", action="append", default=[],
                   help="essential property semantics key (repeatable)")

    p = sub.add_parser("drop-type", help="DT: drop a type")
    p.add_argument("name")

    p = sub.add_parser("add-edge", help="MT-ASR: add essential supertype")
    p.add_argument("subtype")
    p.add_argument("supertype")

    p = sub.add_parser("drop-edge", help="MT-DSR: drop essential supertype")
    p.add_argument("subtype")
    p.add_argument("supertype")

    p = sub.add_parser("add-prop", help="MT-AB: add essential property")
    p.add_argument("type")
    p.add_argument("semantics")
    p.add_argument("--name", default="", help="display name")

    p = sub.add_parser("drop-prop", help="MT-DB: drop essential property")
    p.add_argument("type")
    p.add_argument("semantics")

    p = sub.add_parser("show", help="type card(s): all Table 1 terms")
    p.add_argument("type", nargs="?", help="one type (default: list all)")

    sub.add_parser("check", help="verify the nine axioms and the oracle")

    p = sub.add_parser(
        "lint",
        help="static analysis: schema findings, and whole evolution plans "
             "dry-run symbolically (never mutates the schema or WAL)",
    )
    p.add_argument(
        "--plan", metavar="FILE",
        help="analyze an evolution plan (JSON / JSONL / a WAL journal) "
             "against the schema without executing it",
    )
    p.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text",
        help="output format (sarif = SARIF 2.1.0 for CI annotation)",
    )
    p.add_argument(
        "--fail-on", choices=("error", "warning", "info", "never"),
        default="error",
        help="exit 1 when a finding at or above this severity exists "
             "(default: error)",
    )
    p.add_argument(
        "--select", action="append", metavar="RULE",
        help="run only rules matching this id/prefix (repeatable)",
    )
    p.add_argument(
        "--ignore", action="append", metavar="RULE",
        help="skip rules matching this id/prefix (repeatable)",
    )
    p.add_argument(
        "--fix", action="store_true",
        help="apply machine-applicable fixes (typed plan edits) and "
             "rewrite the plan file in place; re-analyzes until clean "
             "and is idempotent",
    )
    p.add_argument(
        "--diff", action="store_true",
        help="with --fix: print the unified diff instead of writing the "
             "plan file (dry run)",
    )
    p.add_argument(
        "--baseline", choices=("write", "check"),
        help="write = record every current finding as accepted; "
             "check = suppress recorded findings so only new ones gate",
    )
    p.add_argument(
        "--baseline-file", metavar="FILE",
        help="baseline location (default: <plan>.lint-baseline.json)",
    )
    p = sub.add_parser(
        "schema",
        help="declarative schema (DDL): show the live schema as text, "
             "diff a declared target, or migrate to it",
    )
    ssub = p.add_subparsers(dest="schema_command", required=True)

    ps = ssub.add_parser(
        "show", help="print the live schema as canonical DDL text"
    )
    ps.add_argument("--name", default="", help="schema header name to emit")

    ps = ssub.add_parser(
        "diff",
        help="print the minimal evolution plan from the live schema to a "
             "declared target (never mutates the WAL)",
    )
    ps.add_argument(
        "schema", metavar="FILE",
        help="target schema DDL file ('-' reads stdin)",
    )
    ps.add_argument(
        "--format", choices=("text", "json", "jsonl"), default="text",
        help="text = one describe() line per operation; json/jsonl = "
             "plan serializations ready for 'repro lint --plan'",
    )
    ps.add_argument(
        "--plan-out", metavar="FILE",
        help="also write the plan as JSON to this file",
    )

    ps = ssub.add_parser(
        "migrate",
        help="diff the live schema against a declared target, gate the "
             "plan through the static analyzer, and apply it atomically",
    )
    ps.add_argument(
        "schema", metavar="FILE",
        help="target schema DDL file ('-' reads stdin)",
    )
    ps.add_argument(
        "--dry-run", action="store_true",
        help="diff + lint only; print the plan, mutate nothing",
    )
    ps.add_argument(
        "--plan-out", metavar="FILE",
        help="also write the computed plan as JSON to this file",
    )
    ps.add_argument(
        "--fail-on", choices=("error", "warning", "info", "never"),
        default="error",
        help="reject the migration (exit 1 + diagnostics) when the plan "
             "has findings at or above this severity (default: error)",
    )
    ps.add_argument(
        "--no-verify", action="store_true",
        help="skip the commit-time axiom verification of the applying "
             "batch",
    )

    sub.add_parser("normalize", help="rewrite Pe/Ne to the minimal "
                                     "declarations (drops the insurance!)")
    sub.add_parser("history", help="show the journaled operations")

    p = sub.add_parser("impact", help="dry-run an operation: "
                                      "impact <drop-type|drop-edge> args...")
    p.add_argument("what", choices=["drop-type", "drop-edge"])
    p.add_argument("args", nargs="+")
    sub.add_parser("render", help="ASCII lattice (minimal P-edge view)")

    p = sub.add_parser("dot", help="Graphviz DOT output")
    p.add_argument("--essential", action="store_true",
                   help="draw raw Pe edges instead of minimal P edges")

    sub.add_parser("tables", help="regenerate the paper's Tables 1-3")
    sub.add_parser("checkpoint", help="fold the WAL into a snapshot")

    p = sub.add_parser(
        "recover",
        help="heal a damaged WAL: truncate torn tails, quarantine corrupt "
             "records (salvage), then verify the log replays",
    )
    p.add_argument(
        "--mode", choices=("strict", "salvage"), default="salvage",
        help="strict = diagnose only, fail on any corruption; salvage = "
             "keep every valid record, quarantine the rest (default)",
    )

    p = sub.add_parser(
        "stats",
        help="observability: dry-run a plan on an in-memory copy and "
             "print the metrics registry (never mutates the WAL)",
    )
    p.add_argument(
        "--plan", metavar="FILE",
        help="evolution plan to execute (JSON / JSONL / a WAL journal); "
             "without it, the registry reflects opening the database",
    )
    p.add_argument(
        "--format", choices=("text", "json", "prom"), default="text",
        help="output format (prom = Prometheus text exposition)",
    )

    p = sub.add_parser(
        "trace",
        help="observability: dry-run a plan with a JSONL span sink "
             "attached; spans carry per-operation metric deltas",
    )
    p.add_argument(
        "--plan", metavar="FILE", required=True,
        help="evolution plan to execute (JSON / JSONL / a WAL journal)",
    )
    p.add_argument(
        "--out", metavar="FILE", default="-",
        help="where to write the JSONL spans (default: stdout)",
    )
    p.add_argument(
        "--sample-rate", type=float, default=1.0, metavar="R",
        help="keep this fraction of traces (deterministic per trace id; "
             "summary records are always kept)",
    )

    p = sub.add_parser(
        "serve",
        help="HTTP/JSON service over the objectbase: lock-free reads, "
             "fair single-writer mutation, /healthz /readyz /metrics",
    )
    p.add_argument("--host", default="127.0.0.1",
                   help="bind address (default: 127.0.0.1)")
    p.add_argument("--port", type=int, default=8787,
                   help="bind port (default: 8787; 0 picks a free port)")
    p.add_argument(
        "--lock-timeout", type=float, default=5.0, metavar="SECONDS",
        help="how long a write waits for the single-writer lock before "
             "failing with lock-timeout (HTTP 503 + Retry-After)",
    )
    p.add_argument(
        "--max-inflight", type=int, default=8, metavar="N",
        help="write-admission bound: further writes are shed with 429",
    )
    p.add_argument(
        "--lint", choices=("off", "warn", "error"), default="off",
        help="admission-time lint gate: statically analyze every write "
             "under the lock and reject (409 + diagnostics) at this "
             "severity threshold (default: off)",
    )
    p.add_argument(
        "--trace-out", metavar="FILE",
        help="attach an always-on JSONL span sink (one root span per "
             "request)",
    )
    p.add_argument(
        "--trace-sample-rate", type=float, default=1.0, metavar="R",
        help="keep this fraction of traces (with --trace-out)",
    )
    p.add_argument(
        "--trace-max-bytes", type=int, default=None, metavar="BYTES",
        help="rotate the trace file at this size (with --trace-out)",
    )
    p.add_argument(
        "--trace-keep", type=int, default=3, metavar="N",
        help="rotated trace generations to retain (default: 3)",
    )
    p.add_argument(
        "--replication-port", type=int, default=None, metavar="PORT",
        help="serve as a replication primary: also listen for replicas "
             "on this port (0 picks a free one), acquire the write "
             "lease next to --db, and fence all writes on lease loss",
    )
    p.add_argument(
        "--lease-ttl", type=float, default=5.0, metavar="SECONDS",
        help="write-lease time-to-live (with --replication-port); a "
             "background keeper renews it every ttl/3 (default: 5)",
    )
    p.add_argument(
        "--replica-of", metavar="HOST:PORT", default=None,
        help="serve as a read-only replica syncing from the primary's "
             "replication listener; writes return 503 read-only-replica "
             "naming the primary",
    )
    p.add_argument(
        "--max-staleness", type=float, default=None, metavar="SECONDS",
        help="with --replica-of: /readyz reports replica-too-stale once "
             "the primary has been silent this long (default: no bound "
             "— serve stale reads forever)",
    )
    return parser


def _run_plan_observed(ob: Objectbase, plan) -> tuple[Objectbase, int, int]:
    """Execute ``plan`` on an in-memory copy of ``ob``'s schema.

    The shared engine of ``stats`` and ``trace``: prime the copy's
    derivation cache (so the run itself exercises the incremental path),
    zero the registry, apply every operation through the facade (one
    ``apply`` span each), and close with an axiom check inside a
    ``verify`` span.  Every metric increment therefore lands inside some
    root span, which is what makes the trace's aggregated deltas equal
    the registry totals.  Rejected operations are counted and skipped —
    observing a doomed plan is precisely the point.

    Returns ``(dry_ob, rejected, violations)``.
    """
    dry = Objectbase(ob.lattice.copy())
    dry.lattice.derivation  # prime outside the measured window
    REGISTRY.reset()
    rejected = 0
    for op in plan:
        try:
            dry.apply(op)
        except EvolutionError as exc:
            rejected += 1
            logging.getLogger(__name__).info(
                "plan operation rejected [%s]: %s", error_code(exc), exc
            )
    with _trace.span("verify"):
        violations = len(dry.check())
    return dry, rejected, violations


#: ``--fail-on`` severities to :meth:`Objectbase.migrate_to` lint modes.
_FAIL_ON_TO_LINT = {
    "error": "error",
    "warning": "warn",
    "info": "info",
    "never": "off",
}


def _read_schema_arg(path: str) -> str:
    """The target DDL text: a file, or stdin for ``-``."""
    if path == "-":
        return sys.stdin.read()
    return Path(path).read_text()


def _cmd_schema(ob: Objectbase, args) -> int:
    """``repro schema show|diff|migrate`` (see ``docs/ddl.md``)."""
    if args.schema_command == "show":
        print(ob.schema_ddl(name=args.name), end="")
        return 0

    try:
        target = _read_schema_arg(args.schema)
    except OSError as exc:
        print(
            f"error: cannot read schema {args.schema}: {exc}",
            file=sys.stderr,
        )
        return 2
    if args.schema_command == "diff":
        plan = ob.diff_to(target)
        if args.plan_out:
            plan.save(args.plan_out)
        if args.format == "json":
            print(plan.dumps("object"), end="")
        elif args.format == "jsonl":
            print(plan.dumps("jsonl"), end="")
        else:
            for i, op in enumerate(plan):
                print(f"{i:4d}  {op.code:<7} {op.describe()}")
            if not plan.operations:
                print("(schemas agree; empty plan)")
        return 0

    # migrate
    result = ob.migrate_to(
        target,
        dry_run=args.dry_run,
        verify_on_commit=not args.no_verify,
        lint=_FAIL_ON_TO_LINT[args.fail_on],
    )
    if args.plan_out:
        result.plan.save(args.plan_out)
    for i, op in enumerate(result.plan):
        print(f"{i:4d}  {op.code:<7} {op.describe()}")
    print(result.summary())
    return 0


def _cmd_recover(args) -> int:
    """Heal ``--db`` in place, then prove the healed log replays.

    Runs before (and instead of) the normal open so a corrupt WAL —
    which strict open refuses to touch — can still be salvaged.
    """
    from .storage.journal import JournalFile

    try:
        journal = JournalFile(args.db)
        report = journal.repair(mode=args.mode)
    except EvolutionError as exc:
        print(f"error [{error_code(exc)}]: {exc}", file=sys.stderr)
        return exit_code_for(exc)
    print(report.summary())
    # Recovery implies exclusive ownership, so sweep backend crash
    # residue too (orphan object-store segments); the GC grace period
    # still protects a live writer if that assumption is ever wrong.
    swept = journal.gc()
    if swept:
        print(f"storage GC swept {swept} orphan object(s)")
    try:
        ob = Objectbase.open(args.db)
    except EvolutionError as exc:
        print(
            f"error [{error_code(exc)}]: WAL repaired but replay still "
            f"fails: {exc}",
            file=sys.stderr,
        )
        return exit_code_for(exc)
    print(f"replay verified: {len(ob.lattice)} type(s)")
    return 0


def _parse_host_port(value: str) -> tuple[str, int]:
    """``HOST:PORT`` for ``--replica-of``."""
    host, _, port = value.rpartition(":")
    if not host or not port.isdigit():
        raise ValueError(f"expected HOST:PORT, got {value!r}")
    return host, int(port)


def _cmd_serve(args, durability) -> int:
    """Run the HTTP/JSON service until interrupted (``repro serve``).

    Three roles share the one command (see ``docs/replication.md``):

    * standalone (default) — just the HTTP service;
    * primary (``--replication-port``) — additionally acquire the
      write lease, fence every write on it, and ship the WAL to
      replicas;
    * replica (``--replica-of``) — read-only HTTP surface over a
      :class:`~repro.replication.replica.ReplicaStore` kept caught up
      by a background sync thread.
    """
    if args.replica_of and args.replication_port is not None:
        print(
            "error: --replica-of and --replication-port are mutually "
            "exclusive (a node is a primary or a replica, not both)",
            file=sys.stderr,
        )
        return 2
    sink = None
    if args.trace_out:
        sink = JsonlSink(
            args.trace_out,
            max_bytes=args.trace_max_bytes,
            keep=args.trace_keep,
            sample_rate=args.trace_sample_rate,
        )
        _trace.set_sink(sink)
    try:
        if args.replica_of:
            return _serve_replica(args, durability)
        return _serve_primary(args, durability)
    finally:
        if sink is not None:
            _trace.set_sink(None)
            sink.close()


def _serve_replica(args, durability) -> int:
    from .replication import ReplicaStore, ReplicationClient
    from .server import ReplicaService, serve_service

    try:
        primary_host, primary_port = _parse_host_port(args.replica_of)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        store = ReplicaStore(args.db, durability=durability)
    except EvolutionError as exc:
        print(
            f"error [{error_code(exc)}]: cannot open {args.db}: {exc}",
            file=sys.stderr,
        )
        return exit_code_for(exc)
    client = ReplicationClient(
        store, primary_host, primary_port,
        max_staleness=args.max_staleness,
    )
    client.start()
    service = ReplicaService(store, client, max_inflight=args.max_inflight)
    try:
        serve_service(service, args.host, args.port)
    finally:
        client.stop()
    return 0


def _serve_primary(args, durability) -> int:
    from .server import ObjectbaseService, serve_service

    try:
        store = Objectbase.open(
            args.db, durability=durability, lock_timeout=args.lock_timeout
        )
    except EvolutionError as exc:
        print(
            f"error [{error_code(exc)}]: cannot open {args.db}: {exc}",
            file=sys.stderr,
        )
        return exit_code_for(exc)
    service = ObjectbaseService(
        store, max_inflight=args.max_inflight, lint=args.lint
    )
    if args.replication_port is None:
        serve_service(service, args.host, args.port)
        return 0

    from .replication import (
        FileLease,
        LeaseKeeper,
        ReplicationServer,
        ReplicationSource,
    )

    from .storage.backend import storage_physical_path

    # The lease is a real file next to the backend's physical location
    # (sqlite database file / object-store root), whatever the scheme —
    # fencing must work across processes even for non-file backends.
    # Resolved without constructing a backend: a failover candidate
    # must not create, connect to, or sweep a store it does not own.
    anchor = storage_physical_path(args.db)
    lease = FileLease(
        anchor.with_suffix(anchor.suffix + ".lease"), ttl=args.lease_ttl
    )
    try:
        lease.acquire()
    except EvolutionError as exc:
        print(f"error [{error_code(exc)}]: {exc}", file=sys.stderr)
        return exit_code_for(exc)
    # Every write now re-proves lease ownership before touching the
    # WAL: a paused-and-resumed ex-primary fails with lease-lost (503)
    # instead of silently extending a superseded history.
    store.set_write_fence(lease.check)
    # Now — and only now — this process owns the store exclusively, so
    # it is safe to sweep crash residue (orphan object-store segments
    # from a predecessor's interrupted publish).
    swept = store.storage_gc()
    if swept:
        logging.getLogger(__name__).info(
            "storage GC swept %d orphan object(s)", swept
        )
    keeper = LeaseKeeper(lease)
    keeper.start()
    hub = ReplicationServer(
        ReplicationSource(args.db),
        lease=lease,
        host=args.host,
        port=args.replication_port,
    ).start()
    service.replication = hub
    try:
        serve_service(service, args.host, args.port)
    finally:
        hub.stop()
        keeper.stop()
        lease.release()
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    configure_logging(verbose=args.verbose, quiet=args.quiet)
    if args.command == "recover":
        return _cmd_recover(args)
    durability = None
    if args.fsync is not None or args.checkpoint_every is not None:
        durability = DurabilityPolicy(
            fsync=args.fsync or "batch",
            checkpoint_every=args.checkpoint_every,
        )
    if args.command == "serve":
        return _cmd_serve(args, durability)
    try:
        ob = Objectbase.open(args.db, durability=durability)
    except EvolutionError as exc:
        print(
            f"error [{error_code(exc)}]: cannot open {args.db}: {exc}",
            file=sys.stderr,
        )
        return exit_code_for(exc)
    lattice = ob.lattice

    try:
        if args.command == "init":
            print(f"initialized schema at {args.db}: "
                  f"{sorted(ob.types())}")
        elif args.command == "add-type":
            ob.add_type(args.name, tuple(args.supertype), tuple(args.prop))
            print(f"added {args.name}; P = {sorted(lattice.p(args.name))}")
        elif args.command == "drop-type":
            ob.drop_type(args.name)
            print(f"dropped {args.name}")
        elif args.command == "add-edge":
            ob.add_supertype(args.subtype, args.supertype)
            print(f"Pe({args.subtype}) += {args.supertype}; "
                  f"P = {sorted(lattice.p(args.subtype))}")
        elif args.command == "drop-edge":
            ob.drop_supertype(args.subtype, args.supertype)
            print(f"Pe({args.subtype}) -= {args.supertype}; "
                  f"P = {sorted(lattice.p(args.subtype))}")
        elif args.command == "add-prop":
            ob.add_property(args.type, args.semantics, args.name)
            print(f"Ne({args.type}) += {args.semantics}")
        elif args.command == "drop-prop":
            ob.drop_property(args.type, args.semantics)
            print(f"Ne({args.type}) -= {args.semantics}")
        elif args.command == "show":
            if args.type:
                print(render_type_card(lattice, args.type))
            else:
                for t in sorted(ob.types()):
                    print(f"{t}: P={sorted(lattice.p(t))} "
                          f"|I|={len(lattice.interface(t))}")
        elif args.command == "check":
            violations = ob.check()
            report = ob.verify()
            for v in violations:
                print(f"VIOLATION: {v}")
            print(f"axioms: {'ok' if not violations else 'FAILED'}; "
                  f"oracle: {'ok' if report.ok else 'FAILED'}")
            if violations or not report.ok:
                return 1
        elif args.command == "lint":
            from .staticcheck import (
                Severity,
                analyze,
                apply_baseline,
                fix_plan,
                load_plan,
                plan_diff,
                render_json,
                render_sarif,
                render_text,
                write_baseline,
            )

            if args.fix and not args.plan:
                print("error: --fix requires --plan", file=sys.stderr)
                return 2
            if args.diff and not args.fix:
                print("error: --diff only makes sense with --fix",
                      file=sys.stderr)
                return 2
            if args.baseline and not args.plan:
                print("error: --baseline requires --plan", file=sys.stderr)
                return 2
            baseline_file = args.baseline_file or (
                f"{args.plan}.lint-baseline.json" if args.plan else ""
            )

            plan = load_plan(args.plan) if args.plan else None
            try:
                if args.fix:
                    result = fix_plan(
                        lattice, plan, select=args.select, ignore=args.ignore
                    )
                    report = result.report
                    if args.diff:
                        diff = plan_diff(plan, result.plan, args.plan)
                        if diff:
                            print(diff, end="")
                    elif result.changed:
                        result.plan.save(args.plan)
                    print(result.summary(), file=sys.stderr)
                else:
                    report = analyze(
                        lattice, plan, select=args.select, ignore=args.ignore
                    )
            except KeyError as exc:
                print(f"error: {exc.args[0]}", file=sys.stderr)
                return 2
            if args.baseline == "write":
                count = write_baseline(baseline_file, report)
                print(f"baseline: recorded {count} finding(s) in "
                      f"{baseline_file}")
                return 0
            if args.baseline == "check":
                report, suppressed = apply_baseline(report, baseline_file)
                if suppressed:
                    print(f"baseline: suppressed {suppressed} known "
                          f"finding(s)", file=sys.stderr)
            if args.diff:
                pass  # dry run: the unified diff *is* the output
            elif args.format == "json":
                print(render_json(report))
            elif args.format == "sarif":
                print(render_sarif(
                    report,
                    plan_uri=args.plan or "",
                    schema_uri=args.db,
                ))
            else:
                print(render_text(report, show_fixits=False))
            if args.fail_on != "never":
                threshold = Severity.from_name(args.fail_on)
                if report.at_least(threshold):
                    return 1
        elif args.command == "schema":
            return _cmd_schema(ob, args)
        elif args.command == "normalize":
            # Journaled through the facade: the rewrite is ordinary
            # MT-DSR/MT-DB operations in the WAL, so it replays on
            # reopen — no out-of-band checkpoint needed.
            report = ob.normalize()
            print(
                f"dropped {report.dropped_supertype_declarations} supertype "
                f"and {report.dropped_property_declarations} property "
                f"declaration(s); journaled"
            )
        elif args.command == "history":
            entries = ob.history()
            if not entries:
                print("(no journaled operations since the last checkpoint)")
            for entry in entries:
                print(f"{entry.seq:4d}  {entry.operation.code:<7} "
                      f"{entry.operation.describe()}")
        elif args.command == "impact":
            if args.what == "drop-type":
                op = DropType(args.args[0])
            else:
                op = DropEssentialSupertype(args.args[0], args.args[1])
            print(ob.impact(op).summary())
        elif args.command == "render":
            print(render_lattice(lattice))
        elif args.command == "dot":
            print(to_dot(lattice, use_essential=args.essential))
        elif args.command == "tables":
            print(render_table1())
            print()
            print(render_table2(lattice))
            print()
            print(render_table3())
        elif args.command == "checkpoint":
            ob.checkpoint()
            print(f"checkpointed {len(lattice)} types; WAL truncated")
        elif args.command == "stats":
            if args.plan:
                from .staticcheck import load_plan

                plan = load_plan(args.plan)
                _, rejected, violations = _run_plan_observed(ob, plan)
                if rejected:
                    print(
                        f"note: {rejected} operation(s) rejected "
                        f"(counted in repro_rejections_total)",
                        file=sys.stderr,
                    )
                if violations:
                    print(
                        f"note: final state has {violations} axiom "
                        f"violation(s)", file=sys.stderr,
                    )
            if args.format == "json":
                print(REGISTRY.render_json())
            elif args.format == "prom":
                print(REGISTRY.render_prometheus(), end="")
            else:
                print(REGISTRY.render_text())
        elif args.command == "trace":
            from .staticcheck import load_plan

            plan = load_plan(args.plan)
            to_stdout = args.out == "-"
            sink = JsonlSink(
                sys.stdout if to_stdout else args.out,
                sample_rate=args.sample_rate,
            )
            previous_sink = _trace.set_sink(sink)
            try:
                _, rejected, violations = _run_plan_observed(ob, plan)
                sink.emit({
                    "type": "summary",
                    "plan": plan.name,
                    "operations": len(plan),
                    "rejected": rejected,
                    "axiom_violations": violations,
                    "metrics": REGISTRY.collect(),
                })
            finally:
                _trace.set_sink(previous_sink)
                sink.close()  # flush; only closes files the sink opened
            print(
                f"traced {len(plan)} operation(s): {sink.emitted} "
                f"record(s)"
                + ("" if to_stdout else f" -> {args.out}"),
                file=sys.stderr if to_stdout else sys.stdout,
            )
    except EvolutionError as exc:
        print(f"rejected [{error_code(exc)}]: {exc}", file=sys.stderr)
        for diag in getattr(exc, "diagnostics", ()) or ():
            step = diag.get("step")
            where = f" [step {step}]" if step is not None else ""
            print(
                f"  {diag.get('severity', '?')}: {diag.get('rule', '?')}: "
                f"{diag.get('message', '')}{where}",
                file=sys.stderr,
            )
        return exit_code_for(exc)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
