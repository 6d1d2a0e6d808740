"""A stdlib-only HTTP/JSON service over :class:`~repro.api.Objectbase`.

``repro serve`` (or :func:`serve`) turns one objectbase into a small,
operable network service — :class:`~http.server.ThreadingHTTPServer`
(one thread per connection), no dependencies beyond the standard
library.  The contract:

==========================  =============================================
endpoint                    semantics
==========================  =============================================
``GET /healthz``            liveness: 200 while the process serves at all
``GET /readyz``             readiness: 200 ``{"ready": true}``, or 503
                            with structured ``reasons`` (degraded,
                            draining, replica-too-stale, ...) and a
                            ``Retry-After`` header
``GET /metrics``            Prometheus text exposition 0.0.4
``GET /v1/replication``     replication role + status (standalone /
                            primary / replica)
``GET /v1/types``           all type names (from the current snapshot)
``GET /v1/types/<name>``    one type's full Table-1 term card
``GET /v1/schema``          the schema as canonical DDL text
                            (``text/plain``; generation in the
                            ``X-Schema-Generation`` header)
``POST /v1/apply``          one operation: ``{"op": {"code": "AT", ...}}``
``POST /v1/batch``          atomic group: ``{"operations": [...],
                            "verify": true}``
``POST /v1/migrate``        declarative migration: ``{"schema": "<DDL>",
                            "dry_run": false}`` — differ + lint gate
                            under the write lock
``POST /v1/undo``           revert the most recent operation
``POST /v1/recover``        heal the WAL, leave degraded mode
==========================  =============================================

Reads are lock-free (served from the published snapshot); writes
serialize through the store's fair single-writer lock.  Failure modes
map to status codes via the machine-readable error taxonomy:

* ``lock-timeout`` → **503** with ``Retry-After`` (safe to retry:
  the request was never admitted);
* ``degraded-mode`` → **503** (the store is read-only; ``/readyz``
  reports not-ready until ``POST /v1/recover`` or ``repro recover``);
* ``unknown-type`` / ``unknown-property`` → **404**;
* malformed JSON / unknown operation code / malformed DDL text
  (``ddl-syntax`` / ``ddl-invalid``) → **400**;
* any other :class:`~repro.core.errors.EvolutionError` (cycle,
  root-violation, axiom failure at commit, ...) → **409** — the request
  was well-formed, the schema rejected it;
* ``lint-rejected`` / ``plan-interference`` → **409** with the analyzer
  diagnostics under ``error.diagnostics`` (see below);
* write admission beyond ``max_inflight`` queued writers → **429**
  (load shed before touching the lock);
* ``read-only-replica`` / ``lease-lost`` → **503** with ``Retry-After``
  (this node cannot take writes; the body names the primary).

Every 503, whatever produced it, carries a ``Retry-After`` header; GET
responses carry the service's read headers (``X-Schema-Generation``,
plus ``X-Replica-Lag`` on replicas), so a poller can watch catch-up
without parsing bodies.

**Replica mode.**  :class:`ReplicaService` serves the same read
endpoints from a :class:`~repro.replication.replica.ReplicaStore`,
refuses every write with ``503 read-only-replica`` pointing at the
primary, and folds replication health (initial sync, staleness bound)
into ``/readyz``.  See ``docs/replication.md``.

Every response carries ``{"error": {"code": ..., "message": ...}}`` on
failure, so clients branch on the same codes the CLI exits with.

**Admission-time lint gate.**  With ``lint="warn"`` or ``"error"``
(``repro serve --lint``), every write is statically analyzed *under the
write lock* against exactly the schema it would execute against, before
anything is mutated.  Plan-scope findings at or above the configured
threshold veto the write with ``409 lint-rejected`` and the diagnostics
in the body.  A batch may additionally declare ``"expect_generation"``:
the snapshot generation the client planned against.  The service keeps
the effect summaries of recently committed writes; if any write
committed at or after that generation has effects overlapping the
incoming operations', the request is rejected with ``409
plan-interference`` — the optimistic-concurrency twin of the static
``cross-plan-interference`` rule (:func:`repro.staticcheck.analyze_pair`).
"""

from __future__ import annotations

import json
import logging
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from time import perf_counter
from typing import TYPE_CHECKING

from collections import deque

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import weight
    from .replication.primary import ReplicationServer
    from .replication.replica import ReplicaStore, ReplicationClient

from .api import MIGRATE_LINT_MODES, Objectbase
from .core.errors import (
    DDLError,
    DegradedModeError,
    EvolutionError,
    LeaseError,
    LintRejectedError,
    LockTimeoutError,
    PlanInterferenceError,
    ReadOnlyReplicaError,
    UnknownPropertyError,
    UnknownTypeError,
    error_code,
)
from .core.operations import operation_from_dict
from .ddl.parser import parse_schema
from .obs.metrics import PROMETHEUS_CONTENT_TYPE, REGISTRY
from .obs.tracing import trace
from .staticcheck.analyzer import analyze
from .staticcheck.effects import conflict_witness, plan_summaries
from .staticcheck.plan import EvolutionPlan
from .staticcheck.registry import Severity

__all__ = [
    "ObjectbaseService",
    "ReplicaService",
    "make_server",
    "serve",
    "serve_service",
]

logger = logging.getLogger(__name__)

_HTTP_REQUESTS = REGISTRY.counter(
    "repro_http_requests_total",
    "HTTP requests served, by method, route template, and status",
    labelnames=("method", "route", "status"),
)
_HTTP_SECONDS = REGISTRY.histogram(
    "repro_http_request_seconds",
    "HTTP request latency by route template",
    labelnames=("route",),
)
_HTTP_INFLIGHT = REGISTRY.gauge(
    "repro_http_inflight_writes",
    "Write requests currently admitted (holding an admission slot)",
)
_HTTP_SHED = REGISTRY.counter(
    "repro_http_shed_total",
    "Requests shed by write admission control (HTTP 429)",
)
_LINT_GATE_RUNS = REGISTRY.counter(
    "repro_lint_gate_runs_total",
    "Writes analyzed by the admission-time lint gate",
)
_LINT_GATE_REJECTIONS = REGISTRY.counter(
    "repro_lint_gate_rejections_total",
    "Writes vetoed by the lint gate (HTTP 409 lint-rejected), by mode",
    labelnames=("mode",),
)
_INTERFERENCE_REJECTIONS = REGISTRY.counter(
    "repro_lint_interference_rejections_total",
    "Writes vetoed by the effect-summary interference check "
    "(HTTP 409 plan-interference)",
)


def status_for(exc: BaseException) -> int:
    """The HTTP status an error maps to (see the module docstring)."""
    if isinstance(
        exc,
        (LockTimeoutError, DegradedModeError, ReadOnlyReplicaError,
         LeaseError),
    ):
        # All four are "not here, not now" conditions: the request was
        # never admitted, the state is intact, and a retry (possibly
        # against a different node) is safe — so every one of them
        # carries a Retry-After.
        return 503
    if isinstance(exc, (UnknownTypeError, UnknownPropertyError)):
        return 404
    if isinstance(exc, DDLError):
        # The request's schema text was malformed or self-inconsistent:
        # a client error, not a schema conflict.
        return 400
    if isinstance(exc, EvolutionError):
        return 409
    if isinstance(exc, (ValueError, TypeError, KeyError)):
        return 400
    return 500


#: Valid settings of the admission-time lint gate.
LINT_MODES = ("off", "warn", "error")


class ObjectbaseService:
    """The store plus the service policy (admission control, timeouts,
    and the optional admission-time lint gate).

    ``lint`` sets the gate threshold: ``"off"`` (default) admits
    everything, ``"error"`` vetoes writes with plan-scope ERROR
    findings, ``"warn"`` vetoes at WARNING and above.
    ``interference_history`` bounds how many committed writes' effect
    summaries are retained for the ``expect_generation`` interference
    check.
    """

    def __init__(
        self,
        store: Objectbase,
        *,
        max_inflight: int = 8,
        lint: str = "off",
        interference_history: int = 64,
    ) -> None:
        if max_inflight < 1:
            raise ValueError("max_inflight must be at least 1")
        if lint not in LINT_MODES:
            raise ValueError(f"lint must be one of {LINT_MODES}, not {lint!r}")
        self.store = store
        # Every read below goes through the published snapshot; reading
        # it once now turns publishing on before the listener accepts.
        store.snapshot
        self.max_inflight = max_inflight
        self.lint = lint
        #: Set by :func:`serve_service` while the process shuts down, so
        #: ``/readyz`` turns away new traffic before the listener closes.
        self.draining = False
        #: Attached by ``repro serve --replication-port``: the
        #: :class:`~repro.replication.primary.ReplicationServer` whose
        #: shippers :meth:`notify_commit` wakes after each write.
        self.replication: ReplicationServer | None = None
        self._admission = threading.Semaphore(max_inflight)
        #: (base generation, effect summaries) of recently committed
        #: gated writes, oldest first.  Appended after a successful
        #: commit; read inside the gate (under the write lock).
        self._recent: deque = deque(maxlen=max(1, interference_history))

    # -- the admission-time lint gate -------------------------------------

    def _make_gate(self, ops: list, expect) -> tuple:
        """(gate callable or None, record-on-commit callable).

        The gate runs under the store's write lock against the live
        lattice; ``record()`` must be called by the handler *after* the
        write committed, so failed writes leave no history entry.
        """
        if expect is not None and (
            isinstance(expect, bool) or not isinstance(expect, int)
        ):
            raise ValueError('"expect_generation" must be an integer')
        if self.lint == "off" and expect is None:
            return None, lambda: None
        pending: list[tuple[int, list]] = []

        def gate(lattice) -> None:
            _LINT_GATE_RUNS.inc()
            summaries = plan_summaries(lattice, ops)
            if expect is not None:
                self._check_interference(lattice, summaries, expect)
            if self.lint != "off":
                self._check_lint(lattice, ops)
            pending.append((lattice.generation, summaries))

        def record() -> None:
            if pending:
                self._recent.append(pending[0])

        return gate, record

    def _check_lint(self, lattice, ops: list) -> None:
        """Veto when plan-scope findings reach the configured threshold.

        Only *plan* findings gate: pre-existing schema-state advisories
        (a shadowed name that was already there) must not block every
        subsequent write.
        """
        report = analyze(lattice, EvolutionPlan(ops, name="request"))
        threshold = (
            Severity.ERROR if self.lint == "error" else Severity.WARNING
        )
        offending = [
            d for d in report.diagnostics
            if d.step is not None and d.severity >= threshold
        ]
        if not offending:
            return
        _LINT_GATE_REJECTIONS.labels(mode=self.lint).inc()
        raise LintRejectedError(
            f"rejected by the lint gate (--lint {self.lint}): "
            f"{len(offending)} finding(s) at or above {threshold}",
            [_diag_dict(d) for d in offending],
        )

    def _check_interference(self, lattice, summaries: list, expect: int) -> None:
        """Veto when effects overlap a write committed since ``expect``."""
        if expect < 0 or expect > lattice.generation:
            raise ValueError(
                f'"expect_generation" {expect} is not a generation this '
                f"store has published (current: {lattice.generation})"
            )
        entries = list(self._recent)
        if (
            entries
            and len(entries) == self._recent.maxlen
            and expect < entries[0][0]
        ):
            _INTERFERENCE_REJECTIONS.inc()
            raise PlanInterferenceError(
                f"expect_generation {expect} predates the retained "
                f"interference history (floor {entries[0][0]}); re-read "
                f"the schema and rebase the plan"
            )
        conflicts: list[dict] = []
        for base_gen, prior in entries:
            if base_gen < expect:
                continue  # committed before the client's read: visible
            for i, sa in enumerate(prior):
                for j, sb in enumerate(summaries):
                    witness = conflict_witness(sa, sb)
                    if witness:
                        conflicts.append({
                            "rule": "cross-plan-interference",
                            "severity": "error",
                            "step": j,
                            "message": (
                                f"operation {j} "
                                f"({sb.operation.describe()}) conflicts "
                                f"with operation {i} of the write "
                                f"committed at generation {base_gen} on "
                                + ", ".join(
                                    "/".join(str(p) for p in c)
                                    for c in sorted(witness)[:4]
                                )
                            ),
                        })
        if conflicts:
            _INTERFERENCE_REJECTIONS.inc()
            raise PlanInterferenceError(
                f"{len(conflicts)} effect conflict(s) with writes "
                f"committed since generation {expect}; re-read the "
                f"schema and rebase the plan",
                conflicts,
            )

    # -- write admission --------------------------------------------------

    def admit(self) -> bool:
        """Claim one write slot without blocking; False sheds the request."""
        admitted = self._admission.acquire(blocking=False)
        if admitted:
            _HTTP_INFLIGHT.inc()
        else:
            _HTTP_SHED.inc()
        return admitted

    def release(self) -> None:
        _HTTP_INFLIGHT.dec()
        self._admission.release()

    # -- request handlers (return (status, body_dict[, headers])) ---------

    def healthz(self) -> tuple[int, dict]:
        return 200, {"status": "ok"}

    def ready_reasons(self) -> list[dict]:
        """Structured unreadiness: ``[{"code", "message"}, ...]``.

        Empty means ready.  Subclasses extend this (replicas add
        sync/staleness reasons) rather than overriding :meth:`readyz`,
        so the wire shape stays uniform.
        """
        reasons: list[dict] = []
        if self.draining:
            reasons.append({
                "code": "draining",
                "message": "server is draining before shutdown",
            })
        if self.store.degraded:
            reasons.append({
                "code": "degraded",
                "message": "store is in read-only degraded mode",
            })
        return reasons

    def readyz(self) -> tuple[int, dict]:
        reasons = self.ready_reasons()
        if reasons:
            # "reason" (the first message) predates the structured list
            # and stays for old probes; new ones branch on the codes.
            return 503, {
                "ready": False,
                "reason": reasons[0]["message"],
                "reasons": reasons,
            }
        return 200, {"ready": True}

    def read_headers(self) -> dict[str, str]:
        """Headers attached to every GET response (position telemetry)."""
        return {
            "X-Schema-Generation": str(self.store.snapshot.generation),
        }

    def replication_status(self) -> tuple[int, dict]:
        if self.replication is None:
            return 200, {"role": "standalone"}
        hub = self.replication
        host, port = hub.address
        return 200, {
            "role": "primary",
            "epoch": hub.epoch,
            "address": f"{host}:{port}",
            "position": str(hub.source.state().position),
            "connected_replicas": hub.connected_replicas,
        }

    def notify_commit(self) -> None:
        """Wake replication shippers after a committed write (no-op when
        replication is not attached)."""
        if self.replication is not None:
            self.replication.notify()

    def list_types(self) -> tuple[int, dict]:
        snap = self.store.snapshot
        return 200, {
            "types": sorted(snap.types()),
            "generation": snap.generation,
        }

    def get_type(self, name: str) -> tuple[int, dict]:
        return 200, self.store.snapshot.card(name).as_dict()

    def apply(self, body: dict) -> tuple[int, dict]:
        op = operation_from_dict(body.get("op", body))
        gate, record = self._make_gate([op], body.get("expect_generation"))
        result = self.store.apply(op, gate=gate)
        record()
        return 200, {"applied": op.code, "changed": result.changed}

    def batch(self, body: dict) -> tuple[int, dict]:
        raw = body.get("operations")
        if not isinstance(raw, list):
            raise ValueError('"operations" must be a list of operations')
        ops = [operation_from_dict(d) for d in raw]
        gate, record = self._make_gate(ops, body.get("expect_generation"))
        with self.store.batch(
            verify_on_commit=bool(body.get("verify", True)), gate=gate
        ) as txn:
            results = txn.apply_all(ops)
        record()
        return 200, {
            "applied": len(results),
            "changed": sum(1 for r in results if r.changed),
        }

    def schema(self) -> tuple[str, int]:
        """(canonical DDL text, generation), from one snapshot."""
        snap = self.store.snapshot
        from .ddl.differ import schema_from
        from .ddl.printer import print_schema

        return print_schema(schema_from(snap)), snap.generation

    def migrate(self, body: dict) -> tuple[int, dict]:
        """Declarative migration: differ + lint gate under the write lock.

        Body: ``{"schema": "<DDL text>", "dry_run": false, "lint":
        "error", "expect_generation": <int>}`` — only ``schema`` is
        required.  The differ and the lint gate run while the write lock
        is held, so the computed delta executes against exactly the
        schema it was diffed from; ``expect_generation`` additionally
        rejects the migration when a write committed since the client's
        read has overlapping effects (``409 plan-interference``).
        """
        schema_text = body.get("schema")
        if not isinstance(schema_text, str):
            raise ValueError('"schema" must be a string of DDL text')
        target = parse_schema(schema_text)
        dry_run = bool(body.get("dry_run", False))
        # Migrations default to the strictest gate; the service-wide
        # --lint mode only tightens ("warn" gates at WARNING).
        lint = body.get("lint", "warn" if self.lint == "warn" else "error")
        if lint not in MIGRATE_LINT_MODES:
            raise ValueError(
                f'"lint" must be one of {MIGRATE_LINT_MODES}, not {lint!r}'
            )
        gate, record = self._migrate_gate(body.get("expect_generation"))
        result = self.store.migrate_to(
            target, dry_run=dry_run, lint=lint, gate=gate
        )
        if result.applied:
            record()
        return 200, {
            "applied": result.applied,
            "operations": [op.to_dict() for op in result.plan],
            "changed": sum(1 for r in result.results if r.changed),
            "findings": result.report.summary(),
            "generation": self.store.snapshot.generation,
        }

    def _migrate_gate(self, expect) -> tuple:
        """The interference/effect-recording gate for :meth:`migrate`.

        Unlike :meth:`_make_gate`, the operations are not known until
        the differ has run under the lock — the gate receives the
        computed plan from :meth:`~repro.api.Objectbase.migrate_to`.
        """
        if expect is not None and (
            isinstance(expect, bool) or not isinstance(expect, int)
        ):
            raise ValueError('"expect_generation" must be an integer')
        pending: list[tuple[int, list]] = []

        def gate(lattice, plan) -> None:
            summaries = plan_summaries(lattice, list(plan.operations))
            if expect is not None:
                self._check_interference(lattice, summaries, expect)
            pending.append((lattice.generation, summaries))

        def record() -> None:
            if pending:
                self._recent.append(pending[0])

        return gate, record

    def undo(self) -> tuple[int, dict]:
        entry = self.store.undo()
        return 200, {"undone": entry.operation.code}

    def recover(self) -> tuple[int, dict]:
        report = self.store.recover()
        return 200, {
            "degraded": self.store.degraded,
            "recovery": report.summary() if report is not None else None,
        }


class ReplicaService(ObjectbaseService):
    """The read-only replica face of the same HTTP contract.

    Reads serve from the :class:`ReplicaStore`'s published snapshot
    exactly like the primary's; every write is refused with ``503
    read-only-replica`` whose message names the primary.  ``/readyz``
    additionally reports ``replica-syncing`` (fresh replica, no local
    history yet) and ``replica-too-stale`` (the client's latched
    staleness bound tripped) — a replica with durable local state keeps
    serving stale reads rather than failing closed.
    """

    def __init__(
        self,
        store: ReplicaStore,
        client: ReplicationClient,
        *,
        max_inflight: int = 8,
    ) -> None:
        # The lint gate and interference history are write-side policy;
        # a replica has no writes, so the defaults are inert.
        super().__init__(store, max_inflight=max_inflight)  # type: ignore[arg-type]
        self.client = client

    @property
    def primary(self) -> str:
        return self.client.describe()

    def ready_reasons(self) -> list[dict]:
        reasons = super().ready_reasons()
        if self.client.stale:
            staleness = self.client.staleness()
            detail = (
                "never heard from the primary"
                if staleness == float("inf")
                else f"last contact {staleness:.1f}s ago"
            )
            reasons.append({
                "code": "replica-too-stale",
                "message": (
                    f"replica exceeded its staleness bound "
                    f"({self.client.max_staleness:g}s): {detail}"
                ),
            })
        elif not self.client.synced and not self._has_local_history():
            reasons.append({
                "code": "replica-syncing",
                "message": (
                    f"initial sync from {self.primary} has not completed"
                ),
            })
        return reasons

    def _has_local_history(self) -> bool:
        # The durable position, not len(store): a fresh lattice already
        # holds the base types, but 0:0 means no primary history yet.
        return not self.store.position.zero

    def read_headers(self) -> dict[str, str]:
        # The durable position (not the in-memory snapshot counter) is
        # what catch-up pollers compare across restarts and nodes.
        lag = self.client.lag_records
        return {
            "X-Schema-Generation": str(self.store.position),
            "X-Replica-Lag": "unknown" if lag is None else str(lag),
        }

    def replication_status(self) -> tuple[int, dict]:
        client = self.client
        staleness = client.staleness()
        return 200, {
            "role": "replica",
            "primary": self.primary,
            "position": str(self.store.position),
            "primary_position": (
                str(client.primary_position)
                if client.primary_position is not None else None
            ),
            "lag_records": client.lag_records,
            "staleness_seconds": (
                None if staleness == float("inf") else staleness
            ),
            "stale": client.stale,
            "synced": client.synced,
            "connected": client.connected,
            "seen_epoch": client.seen_epoch,
            "last_error": client.last_error,
        }

    # -- writes are refused before admission ---------------------------

    def _refuse_write(self) -> tuple[int, dict]:
        raise ReadOnlyReplicaError(self.primary)

    def apply(self, body: dict) -> tuple[int, dict]:
        return self._refuse_write()

    def batch(self, body: dict) -> tuple[int, dict]:
        return self._refuse_write()

    def migrate(self, body: dict) -> tuple[int, dict]:
        return self._refuse_write()

    def undo(self) -> tuple[int, dict]:
        return self._refuse_write()

    def recover(self) -> tuple[int, dict]:
        return self._refuse_write()


class _Handler(BaseHTTPRequestHandler):
    """Routes requests to the :class:`ObjectbaseService` on the server."""

    protocol_version = "HTTP/1.1"
    server_version = "repro"

    # -- plumbing ---------------------------------------------------------

    @property
    def service(self) -> ObjectbaseService:
        return self.server.service  # type: ignore[attr-defined]

    def log_message(self, format: str, *args) -> None:
        logger.debug("%s - %s", self.address_string(), format % args)

    def _send(
        self,
        status: int,
        body: bytes,
        content_type: str = "application/json",
        headers: dict[str, str] | None = None,
    ) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for key, value in (headers or {}).items():
            self.send_header(key, value)
        self.end_headers()
        self.wfile.write(body)

    def _send_json(
        self,
        status: int,
        payload: dict,
        headers: dict[str, str] | None = None,
    ) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self._send(status, body, headers=headers)

    def _read_body(self) -> dict:
        length = int(self.headers.get("Content-Length") or 0)
        raw = self.rfile.read(length) if length else b"{}"
        decoded = json.loads(raw.decode("utf-8")) if raw.strip() else {}
        if not isinstance(decoded, dict):
            raise ValueError("request body must be a JSON object")
        return decoded

    # -- routing ----------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        self._dispatch("POST")

    def do_PUT(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        self._dispatch("PUT")

    def do_DELETE(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        self._dispatch("DELETE")

    def _route(self) -> tuple[str, str | None]:
        """(route template, path parameter) for metric labels/dispatch."""
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        if path.startswith("/v1/types/"):
            return "/v1/types/{name}", path[len("/v1/types/"):]
        return path, None

    def _dispatch(self, method: str) -> None:
        route, param = self._route()
        started = perf_counter()
        status = 500
        try:
            with trace.span("http", method=method, route=route) as span:
                status = self._handle(method, route, param)
                span.set_attr("status", status)
        except BrokenPipeError:  # client went away mid-response
            pass
        finally:
            _HTTP_REQUESTS.labels(
                method=method, route=route, status=str(status)
            ).inc()
            _HTTP_SECONDS.labels(route=route).observe(
                perf_counter() - started
            )

    def _handle(self, method: str, route: str, param: str | None) -> int:
        service = self.service
        try:
            if method == "GET":
                if route == "/metrics":
                    body = REGISTRY.render_prometheus().encode("utf-8")
                    self._send(200, body, content_type=PROMETHEUS_CONTENT_TYPE)
                    return 200
                if route == "/v1/schema":
                    text, generation = service.schema()
                    headers = {"X-Schema-Generation": str(generation)}
                    # A replica's read headers override the in-memory
                    # generation with its durable position (comparable
                    # across nodes) and add X-Replica-Lag.
                    headers.update(service.read_headers())
                    self._send(
                        200,
                        text.encode("utf-8"),
                        content_type="text/plain; charset=utf-8",
                        headers=headers,
                    )
                    return 200
                handler = {
                    "/healthz": service.healthz,
                    "/readyz": service.readyz,
                    "/v1/types": service.list_types,
                    "/v1/replication": service.replication_status,
                }.get(route)
                if handler is not None:
                    status, payload = handler()
                elif route == "/v1/types/{name}":
                    status, payload = service.get_type(param or "")
                else:
                    status, payload = 404, _error_body("not-found", route)
                headers = dict(service.read_headers())
                if status == 503:
                    headers["Retry-After"] = "1"
                self._send_json(status, payload, headers=headers)
                return status
            if method == "POST":
                writer = {
                    "/v1/apply": lambda body: service.apply(body),
                    "/v1/batch": lambda body: service.batch(body),
                    "/v1/migrate": lambda body: service.migrate(body),
                    "/v1/undo": lambda body: service.undo(),
                    "/v1/recover": lambda body: service.recover(),
                }.get(route)
                if writer is None:
                    self._send_json(404, _error_body("not-found", route))
                    return 404
                if not service.admit():
                    self._send_json(
                        429,
                        _error_body(
                            "write-shed",
                            f"more than {service.max_inflight} writes "
                            f"in flight; retry later",
                        ),
                        headers={"Retry-After": "1"},
                    )
                    return 429
                try:
                    body = self._read_body()
                    status, payload = writer(body)
                finally:
                    service.release()
                if status == 200:
                    # Committed (or at least state-changing) write: wake
                    # the replication shippers instead of letting them
                    # find it on the next poll tick.
                    service.notify_commit()
                self._send_json(status, payload)
                return status
            self._send_json(
                405, _error_body("method-not-allowed", method)
            )
            return 405
        except json.JSONDecodeError as exc:
            self._send_json(400, _error_body("bad-json", str(exc)))
            return 400
        except Exception as exc:  # noqa: BLE001 - mapped to taxonomy codes
            status = status_for(exc)
            if status == 500:
                logger.exception("unhandled error on %s %s", method, route)
            # Every 503 is retryable by definition here (the request
            # was never admitted), so every one advertises it.
            headers = {"Retry-After": "1"} if status == 503 else None
            self._send_json(
                status,
                _error_body(
                    error_code(exc), str(exc),
                    diagnostics=getattr(exc, "diagnostics", None),
                ),
                headers,
            )
            return status


def _diag_dict(d) -> dict:
    """A Diagnostic as the wire shape used in 409 bodies."""
    return d.as_dict()


def _error_body(
    code: str, message: str, diagnostics: list | None = None
) -> dict:
    body = {"error": {"code": code, "message": message}}
    if diagnostics:
        body["error"]["diagnostics"] = diagnostics
    return body


class ObjectbaseHTTPServer(ThreadingHTTPServer):
    """One service, many connection threads, clean-shutdown drain.

    ``daemon_threads`` stays ``False`` so :meth:`shutdown` waits for
    in-flight requests — an acknowledged write is durable before the
    process exits.
    """

    daemon_threads = False
    allow_reuse_address = True

    def __init__(self, address, service: ObjectbaseService) -> None:
        super().__init__(address, _Handler)
        self.service = service


def make_server(
    service: ObjectbaseService,
    host: str = "127.0.0.1",
    port: int = 0,
) -> ObjectbaseHTTPServer:
    """Bind (port 0 picks a free one) without starting the accept loop."""
    return ObjectbaseHTTPServer((host, port), service)


def serve_service(
    service: ObjectbaseService,
    host: str = "127.0.0.1",
    port: int = 8787,
) -> None:
    """Serve a prebuilt service until interrupted.

    The seam ``repro serve`` uses for its replication roles: the CLI
    wires up an :class:`ObjectbaseService` (plus lease and shipping
    server) or a :class:`ReplicaService` and hands it here.  On the way
    down the service is marked draining first, so ``/readyz`` turns
    load balancers away while in-flight requests finish.
    """
    server = make_server(service, host, port)
    logger.info(
        "serving objectbase on http://%s:%d", *server.server_address[:2]
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        service.draining = True
        server.shutdown()
        server.server_close()


def serve(
    store: Objectbase,
    host: str = "127.0.0.1",
    port: int = 8787,
    *,
    max_inflight: int = 8,
    lint: str = "off",
) -> None:
    """Serve ``store`` until interrupted (the ``repro serve`` body)."""
    service = ObjectbaseService(store, max_inflight=max_inflight, lint=lint)
    logger.info(
        "service policy: lock timeout %.3fs, max inflight %d, lint gate %s",
        store.lock_timeout, max_inflight, lint,
    )
    serve_service(service, host, port)
