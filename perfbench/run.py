"""End-to-end benchmark of ``repro serve`` over loopback HTTP.

Usage (from the repository root)::

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

One run builds the seeded schema, starts real ``repro serve`` processes
(a primary, plus a ``--replica-of`` replica on ``replica-reads``) and
drives them with a closed-loop load generator: at most two client
threads, one persistent keep-alive connection each.  It checks every
answer, prints a human-readable report, and prints as its last line one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics (see ``E2E_UNITS``).
``--trace 1`` reports the per-layer metrics (see ``LAYER_UNITS``): half
the window untraced with ``/metrics`` scrapes around it, half with the
servers restarted under ``traced_serve.py``, which records spans around
each layer's entry points.  Workloads, metric definitions and a first
stage table are in ``perfbench/NOTES.md``.

Exit status: 0 when every correctness check passed, 1 when one failed
(the JSON line still reports what was measured), 2 when the benchmark
could not run at all (for instance, the ``repro`` sources are missing).
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: End-to-end metrics (``--trace 0``) and their units.
E2E_UNITS = {
    "setup_s": "s",
    "write_p50_ms": "ms",
    "write_ops_s": "1/s",
    "read_p50_ms": "ms",
    "read_p95_ms": "ms",
    "read_ops_s": "1/s",
    "visible_p50_ms": "ms",
    "visible_p95_ms": "ms",
    "server_rss_mb": "MiB",
}

#: Per-layer metrics (``--trace 1``) and their units.  Counts are taken
#: over the untraced half-window; ``*_self_*`` and ``backend_*`` come
#: from the traced half.
LAYER_UNITS = {
    "server.http_ms_per_write": "ms",
    "server.http_ms_per_read": "ms",
    "server.outside_ms_per_write": "ms",
    "server.outside_ms_per_read": "ms",
    "server.handle_self_ms": "ms",
    "server.shed_frac": "frac",
    "concurrent.lock_wait_ms_per_write": "ms",
    "concurrent.lock_acquisitions": "count",
    "concurrent.capture_self_ms_per_write": "ms",
    "concurrent.publish_frac": "frac",
    "api.apply_self_ms_per_write": "ms",
    "core.derive_ms_per_write": "ms",
    "core.derivations_incremental": "count",
    "core.derivations_full": "count",
    "core.cone_types_per_write": "count",
    "core.fast_path_frac": "frac",
    "core.mutate_self_ms_per_write": "ms",
    "storage.append_ms_per_write": "ms",
    "storage.appends_per_write": "count",
    "storage.backend_append_ms_per_write": "ms",
    "storage.bytes_appended_per_write": "bytes",
    "storage.fsyncs_per_write": "count",
    "storage.checkpoints": "count",
    "storage.retries_per_write": "count",
    "storage.sqlite_busy": "count",
    "storage.replay_s": "s",
    "replication.shipped_records": "count",
    "replication.replayed_records": "count",
    "replication.reconnects": "count",
    "obs.trace_overhead_pct": "%",
}

#: Figures printed in the report but left out of the JSON result: the
#: per-layer ones read zero on workloads that do not exercise them,
#: store growth steps with the checkpoint cycle, and the write p95 and
#: the restart time vary too much from run to run to gate (NOTES.md).
REPORT_ONLY_UNITS = {
    "write_p95_ms": "ms",
    "restart_s": "s",
    "store_bytes_per_write": "bytes",
    "failed_frac": "frac",
    "visibility_polls": "count",
    "window_s": "s",
    "storage.fsync_ms_per_write": "ms",
    "storage.checkpoint_ms": "ms",
    "replication.apply_ms_per_record": "ms",
}

RESTARTS = 3  # crash restarts per --trace 0 run (median reported)
SETUPS = 3  # set-ups per --trace 0 run (median reported)
#: Samples each timing needs before a --trace 0 window may end: half as
#: many again as the p95 rule's minimum, to steady the p95 estimate.
MIN_SAMPLES = 300
MAX_STRETCH = 4.0  # longest window, in --seconds, to meet the p95 rule
VISIBLE_TIMEOUT = 10.0  # seconds a write may take to show on the replica
READ_LIST_FRAC = 0.05  # share of replica reads that list every type


class BenchError(RuntimeError):
    """The benchmark could not run (not a correctness failure)."""


def _load_repro():
    """Import the benchmark's modules against the checkout's sources."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise BenchError(f"repro sources not found under {ROOT / 'src'}")
    for path in (str(ROOT / "src"), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)


class Window:
    """What one measured window saw (thread-safe recorders)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.writes: list[float] = []  # latency, seconds
        self.reads: list[float] = []
        self.visible: list[float] = []
        self.acked: list[tuple[float, int, dict, str]] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.polls = 0  # replica reads that found a write not yet visible
        self.pending: tuple | None = None  # (name, ack time, expected card)
        self.seen = threading.Event()
        self.elapsed = 0.0

    def fail(self, message: str) -> None:
        with self._lock:
            self.attempted += 1
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(message)

    def ack(self, t_ack: float, client: int, op: dict, name: str,
            latency: float) -> None:
        with self._lock:
            self.attempted += 1
            self.writes.append(latency)
            self.acked.append((t_ack, client, op, name))

    def read(self, latency: float, visible: float | None = None) -> None:
        with self._lock:
            self.attempted += 1
            self.reads.append(latency)
            if visible is not None:
                self.visible.append(visible)

    def enough(self, n: int) -> bool:
        with self._lock:
            return min(len(self.writes), len(self.reads), len(self.visible)) >= n


def card_matches(status: int, data: bytes, expected) -> bool:
    """Does ``GET /v1/types/<name>`` show the modelled ``(Pe, Ne)``?"""
    if expected is None:
        return status == 404
    if status != 200:
        return False
    card = json.loads(data)
    return (card["Pe"], card["Ne"]) == (expected[0], expected[1])


class Bench:
    """One benchmark run of one workload."""

    def __init__(self, workload: str, seed: int, seconds: float, work: Path) -> None:
        from cluster import child_env
        from workloads import WORKLOADS

        self.w = WORKLOADS[workload]
        self.seed = seed
        self.seconds = seconds
        self.work = work
        self.env = child_env(ROOT)
        self.nodes: list = []  # every process started, for cleanup
        self.problems: list[str] = []  # correctness failures
        self.attempted = 0
        self.failed = 0
        self.primary = None
        self.replica = None
        self.repl_port: int | None = None
        self.acked: list[tuple[float, int, dict, str]] = []
        self._launches = 0

    # -- processes ------------------------------------------------------

    def _launch(self, db: str, flags, serve_args: list[str], spans: Path | None,
                replication: bool):
        from cluster import Node, repro_argv

        self._launches += 1
        node = Node(
            repro_argv(ROOT, db, flags, serve_args, spans), self.env,
            self.dir / f"server{self._launches}.log", ROOT,
        )
        self.nodes.append(node)
        node.wait_bound(replication)
        return node

    def start_primary(self, spans: Path | None = None) -> None:
        from cluster import Node

        serve_args: list[str] = []
        if self.w.replica:
            serve_args = ["--replication-port", str(self.repl_port or 0),
                          "--lease-ttl", "1"]
        node = self._launch(self.url, self.w.serve_flags, serve_args, spans,
                            self.w.replica)
        if self.w.replica:
            self.repl_port = node.replication_port
        node.wait_until(Node.ready)
        self.primary = node

    def start_replica(self, spans: Path | None = None) -> None:
        from cluster import Node

        node = self._launch(
            f"file:{self.dir / 'replica.wal'}", (),
            ["--replica-of", f"127.0.0.1:{self.repl_port}"], spans, False,
        )
        last = self.anchors[-1]
        node.wait_until(Node.ready)
        node.wait_until(lambda n: n.get(f"/v1/types/{last}")[0] == 200)
        self.replica = node

    def stop_all(self) -> None:
        for node in (self.replica, self.primary):
            if node is not None:
                node.stop()
        self.primary = self.replica = None

    def cleanup(self) -> None:
        for node in self.nodes:
            node.kill()

    # -- set-up ---------------------------------------------------------

    def setup(self, index: int) -> float:
        """Build the seed, checkpoint it, start the servers; seconds taken."""
        from repro.core.operations import AddType
        from repro.storage.journal import JournalFile
        from workloads import anchors, build_seed

        self.dir = self.work / f"setup{index}"
        self.dir.mkdir(parents=True)
        store = "store.db" if self.w.scheme == "sqlite" else "store.wal"
        self.url = f"{self.w.scheme}:{self.dir / store}"
        self.repl_port = None
        started = perf_counter()
        lattice = build_seed(self.w)
        self.anchors = anchors(lattice)
        journal = JournalFile(self.url)
        journal.checkpoint(lattice)
        journal.fs.close()
        self.start_primary()
        if self.w.replica:
            self.start_replica()
        elapsed = perf_counter() - started
        self.root = lattice.root
        self.seed_state = lattice.state_fingerprint()
        self.seed_ops = [
            AddType(t, tuple(sorted(lattice.pe(t))),
                    tuple(sorted(lattice.ne(t), key=lambda p: p.semantics)))
            for t in self.anchors
        ]
        return elapsed

    def store_bytes(self) -> int:
        """Bytes on disk of the primary's store (not its lease sidecar)."""
        size = 0
        for path in self.dir.glob("store.*"):
            if ".lease" not in path.name:
                try:
                    size += path.stat().st_size
                except FileNotFoundError:  # a temp file renamed meanwhile
                    pass
        return size

    # -- load -----------------------------------------------------------

    def _writer(self, client: int, stream, win: Window, stop: threading.Event) -> None:
        conn = self.primary.client()
        try:
            while not stop.is_set():
                op, name = stream.propose()
                sent = perf_counter()
                try:
                    status, data = conn.request("POST", "/v1/apply", {"op": op})
                except (OSError, http.client.HTTPException) as exc:
                    win.fail(f"{op['code']} {name}: {exc!r}")
                    continue
                acked = perf_counter()
                if status != 200 or json.loads(data).get("changed") is not True:
                    win.fail(f"{op['code']} {name}: {status} {data[:200]!r}")
                    continue
                stream.commit(op)
                win.ack(acked, client, op, name, acked - sent)
                expected = stream.expect(name)
                if self.w.replica:
                    win.seen.clear()
                    win.pending = (name, acked, expected)
                    if not win.seen.wait(VISIBLE_TIMEOUT):
                        win.pending = None
                        win.fail(f"{name} not visible on the replica")
                    continue
                # Read your own write back from the primary.
                began = perf_counter()
                try:
                    status, data = conn.request("GET", f"/v1/types/{name}")
                except (OSError, http.client.HTTPException) as exc:
                    win.fail(f"read-back {name}: {exc!r}")
                    continue
                done = perf_counter()
                if card_matches(status, data, expected):
                    win.read(done - began, visible=done - acked)
                else:
                    win.fail(f"read-back {name}: {status} {data[:200]!r}")
        finally:
            conn.close()

    def _reader(self, win: Window, stop: threading.Event) -> None:
        rng = random.Random(f"{self.seed}:reader")
        conn = self.replica.client()
        try:
            while not stop.is_set():
                pending = win.pending
                if pending is not None:
                    path = f"/v1/types/{pending[0]}"
                elif rng.random() < READ_LIST_FRAC:
                    path = "/v1/types"
                else:
                    path = f"/v1/types/{rng.choice(self.anchors)}"
                began = perf_counter()
                try:
                    status, data = conn.request("GET", path)
                except (OSError, http.client.HTTPException) as exc:
                    win.fail(f"GET {path}: {exc!r}")
                    continue
                done = perf_counter()
                if pending is None:
                    if status == 200:
                        win.read(done - began)
                    else:
                        win.fail(f"GET {path}: {status}")
                elif status == 404:
                    win.read(done - began)
                    win.polls += 1
                elif card_matches(status, data, pending[2]):
                    win.read(done - began, visible=done - pending[1])
                    win.pending = None
                    win.seen.set()
                else:
                    win.fail(f"GET {path}: {status} {data[:200]!r}")
        finally:
            conn.close()

    def measure(self, seconds: float, min_samples: int) -> Window:
        """Run the closed-loop clients for at least ``seconds``."""
        win = Window()
        stop_writers, stop_readers = threading.Event(), threading.Event()
        writers = [
            threading.Thread(target=self._writer, args=(c, s, win, stop_writers))
            for c, s in enumerate(self.streams)
        ]
        readers = (
            [threading.Thread(target=self._reader, args=(win, stop_readers))]
            if self.w.replica else []
        )
        started = perf_counter()
        for t in writers + readers:
            t.start()
        while True:
            time.sleep(0.02)
            elapsed = perf_counter() - started
            if elapsed >= seconds and win.enough(min_samples):
                break
            if elapsed >= seconds * MAX_STRETCH:
                break
        stop_writers.set()
        for t in writers:
            t.join(VISIBLE_TIMEOUT + 60)
        stop_readers.set()
        for t in readers:
            t.join(60)
        win.elapsed = perf_counter() - started
        if any(t.is_alive() for t in writers + readers):
            raise BenchError("a client thread did not stop")
        self.attempted += win.attempted
        self.failed += win.failed
        self.problems.extend(win.errors)
        self.acked.extend(win.acked)
        return win

    # -- correctness ----------------------------------------------------

    def oracle(self) -> tuple[tuple, str]:
        """(derived fingerprint, DDL) of the seed plus every acknowledged
        operation, replayed in-process and derived from scratch."""
        from repro.api import Objectbase
        from repro.core.derivation import derive
        from repro.core.operations import operation_from_dict

        ob = Objectbase.in_memory()
        for op in self.seed_ops:
            ob.apply(op)
        if ob.lattice.state_fingerprint() != self.seed_state:
            self.problems.append("oracle: replayed seed differs from the seed")
        for _, _, op, _ in sorted(self.acked, key=lambda a: a[0]):
            ob.apply(operation_from_dict(op))
        lattice = ob.lattice
        types = lattice.types()
        fresh = derive(
            {t: lattice.pe(t) for t in types}, {t: lattice.ne(t) for t in types}
        )
        return fresh.fingerprint(), ob.schema_ddl()

    def check_schema(self, node, ddl: str, what: str) -> None:
        status, data = node.get("/v1/schema")
        if status != 200 or data.decode("utf-8") != ddl:
            self.problems.append(f"{what}: GET /v1/schema differs from the oracle")

    def check_last_write(self, node) -> bool:
        """Does ``node`` serve the last acknowledged write?"""
        t_ack, client, op, name = max(self.acked, key=lambda a: a[0])
        status, data = node.get(f"/v1/types/{name}")
        return card_matches(status, data, self.streams[client].expect(name))

    def check_store(self, fingerprint: tuple) -> None:
        """Reopen the stopped primary's store in-process and compare."""
        from repro.concurrent import ConcurrentObjectbase

        reopened = ConcurrentObjectbase.open(self.url)
        if reopened.snapshot.derivation.fingerprint() != fingerprint:
            self.problems.append("reopened store differs from the oracle")

    def wait_replica_schema(self, ddl: str) -> None:
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            status, data = self.replica.get("/v1/schema")
            if status == 200 and data.decode("utf-8") == ddl:
                return
            time.sleep(0.05)
        self.problems.append("replica: GET /v1/schema differs from the oracle")

    def restart(self) -> float:
        """SIGKILL the primary, restart it on the same store; seconds from
        relaunch until it is ready and serves the last acknowledged write.

        A primary holding the replication lease cannot be restarted before
        the lease lapses; that wait is not part of the figure."""
        self.primary.kill()
        if self.w.replica:
            from repro.storage.backend import storage_physical_path

            anchor = storage_physical_path(self.url)
            lease = json.loads(anchor.with_name(anchor.name + ".lease").read_text())
            time.sleep(max(0.0, float(lease["expires"]) - time.time()) + 0.05)
        started = perf_counter()
        self.start_primary()
        self.primary.wait_until(self.check_last_write, timeout=60)
        return perf_counter() - started

    def scrape(self, node) -> dict:
        from promtext import parse

        status, data = node.get("/metrics")
        if status != 200:
            raise BenchError(f"/metrics answered {status}")
        return parse(data.decode("utf-8"))

    # -- the two kinds of run -------------------------------------------

    def _streams(self) -> None:
        from workloads import WriterStream

        self.streams = [
            WriterStream(c, self.anchors, self.root, self.seed,
                         only_adds=self.w.replica)
            for c in range(self.w.writers)
        ]

    def run_e2e(self) -> tuple[dict, dict]:
        """``--trace 0``: end-to-end metrics and their sample counts."""
        from stats import samples_needed, summarize

        setups = []
        for index in range(SETUPS):
            if index:
                self.stop_all()
                shutil.rmtree(self.dir)
            setups.append(self.setup(index))
        self._streams()
        before = self.store_bytes()
        win = self.measure(self.seconds, max(MIN_SAMPLES, samples_needed()))
        grown = self.store_bytes() - before
        rss = self.primary.vmhwm_mb()
        fingerprint, ddl = self.oracle()
        self.check_schema(self.primary, ddl, "primary")
        restarts = []
        for _ in range(RESTARTS):
            restarts.append(self.restart())
            self.check_schema(self.primary, ddl, "primary after restart")
        if self.replica is not None:
            self.wait_replica_schema(ddl)
        self.stop_all()
        self.check_store(fingerprint)

        writes, reads, visible = (
            summarize(win.writes), summarize(win.reads), summarize(win.visible)
        )
        for name, s in (("write", writes), ("read", reads), ("visible", visible)):
            if s["p95"] is None:
                raise BenchError(
                    f"{name}: {s['n']} samples leave {s['beyond']} beyond p95"
                )
        acked = len(win.acked)
        metrics = {
            "setup_s": statistics.median(setups),
            "write_p50_ms": writes["p50"] * 1e3,
            "write_ops_s": acked / win.elapsed,
            "read_p50_ms": reads["p50"] * 1e3,
            "read_p95_ms": reads["p95"] * 1e3,
            "read_ops_s": len(win.reads) / win.elapsed,
            "visible_p50_ms": visible["p50"] * 1e3,
            "visible_p95_ms": visible["p95"] * 1e3,
            "server_rss_mb": rss,
        }
        counts = {
            "setup_s": len(setups),
            "write_ops_s": acked, "read_ops_s": len(win.reads),
            "server_rss_mb": 1,
        }
        for key, s in (("write", writes), ("read", reads), ("visible", visible)):
            counts[f"{key}_p50_ms"] = counts[f"{key}_p95_ms"] = s["n"]
        self.report_extra = {
            "write_p95_ms": writes["p95"] * 1e3,
            "restart_s": statistics.median(restarts),
            "store_bytes_per_write": grown / acked,
            "failed_frac": self.failed / max(1, self.attempted),
            "visibility_polls": win.polls,
            "window_s": win.elapsed,
        }
        return metrics, counts

    def run_layers(self) -> dict:
        """``--trace 1``: per-layer metrics (scrape + traced half-windows)."""
        from promtext import delta, total
        from stages import SpanStats, load_spans, span_stats

        self.setup(0)
        self._streams()
        half = self.seconds / 2.0
        nodes = {"primary": self.primary, "replica": self.replica}
        before = {k: self.scrape(n) for k, n in nodes.items() if n is not None}
        plain = self.measure(half, 0)
        after = {k: self.scrape(n) for k, n in nodes.items() if n is not None}
        d = {k: delta(before[k], after[k]) for k in before}

        # Restart every server under the span-recording launcher.
        self.stop_all()
        spans = {k: self.dir / f"spans-{k}.json" for k in nodes}
        self.start_primary(spans["primary"])
        replay_s = total(self.scrape(self.primary), "repro_wal_replay_seconds_sum")
        if self.w.replica:
            self.start_replica(spans["replica"])
        traced_from = perf_counter()
        traced = self.measure(half, 0)
        traced_to = perf_counter()
        fingerprint, ddl = self.oracle()
        self.check_schema(self.primary, ddl, "primary")
        if self.replica is not None:
            self.wait_replica_schema(ddl)
        self.stop_all()
        self.check_store(fingerprint)

        writes = max(1, len(plain.acked))
        reads = max(1, len(plain.reads))
        p = d["primary"]
        r = d.get("replica", p)
        http_w = total(p, "repro_http_request_seconds_sum", route="/v1/apply")
        http_r = (total(r, "repro_http_request_seconds_sum", route="/v1/types/{name}")
                  + total(r, "repro_http_request_seconds_sum", route="/v1/types"))
        publishes = total(p, "repro_snapshot_publishes_total")
        unchanged = total(p, "repro_snapshot_unchanged_total")
        hits = total(p, "repro_delta_fast_path_total", result="hit")
        misses = total(p, "repro_delta_fast_path_total", result="recompute")

        ps = span_stats(load_spans(spans["primary"], traced_from, traced_to))
        rs = (span_stats(load_spans(spans["replica"], traced_from, traced_to))
              if self.w.replica else {})
        t_writes = max(1, len(traced.acked))
        empty = SpanStats()

        def ms(stats, name, per):
            return stats.get(name, empty).self_time * 1e3 / per

        http = [s.get("server.http", empty) for s in (ps, rs)]
        handle_self = sum(h.self_time for h in http)
        handled = sum(h.count for h in http)
        mean = statistics.fmean
        overhead_key = "reads" if self.w.replica else "writes"
        untraced_p50 = statistics.median(getattr(plain, overhead_key))
        traced_p50 = statistics.median(getattr(traced, overhead_key))
        metrics = {
            "server.http_ms_per_write": http_w * 1e3 / writes,
            "server.http_ms_per_read": http_r * 1e3 / reads,
            "server.outside_ms_per_write": (mean(plain.writes) - http_w / writes) * 1e3,
            "server.outside_ms_per_read": (mean(plain.reads) - http_r / reads) * 1e3,
            "server.handle_self_ms": handle_self * 1e3 / max(1, handled),
            "server.shed_frac": total(p, "repro_http_shed_total") / max(1, plain.attempted),
            "concurrent.lock_wait_ms_per_write":
                ps.get("concurrent.lock", empty).total * 1e3 / t_writes,
            "concurrent.lock_acquisitions": total(p, "repro_lock_acquisitions_total"),
            "concurrent.capture_self_ms_per_write": ms(ps, "concurrent.capture", t_writes),
            "concurrent.publish_frac": publishes / max(1.0, publishes + unchanged),
            "api.apply_self_ms_per_write": ms(ps, "api.apply", t_writes),
            "core.derive_ms_per_write":
                total(p, "repro_derivation_seconds_sum") * 1e3 / writes,
            "core.derivations_incremental":
                total(p, "repro_derivations_total", mode="incremental"),
            "core.derivations_full": total(p, "repro_derivations_total", mode="full"),
            "core.cone_types_per_write":
                total(p, "repro_derivation_cone_types_total") / writes,
            "core.fast_path_frac": hits / max(1.0, hits + misses),
            "core.mutate_self_ms_per_write": ms(ps, "core.journal_apply", t_writes),
            "storage.append_ms_per_write":
                total(p, "repro_wal_append_seconds_sum") * 1e3 / writes,
            "storage.appends_per_write": total(p, "repro_wal_appends_total") / writes,
            "storage.backend_append_ms_per_write":
                ps.get("storage.backend_append", empty).total * 1e3 / t_writes,
            "storage.bytes_appended_per_write":
                ps.get("storage.backend_append", empty).size / t_writes,
            "storage.fsyncs_per_write": total(p, "repro_wal_fsyncs_total") / writes,
            "storage.checkpoints": total(p, "repro_wal_checkpoints_total"),
            "storage.retries_per_write": total(p, "repro_storage_retries_total") / writes,
            "storage.sqlite_busy": total(p, "repro_sqlite_busy_total"),
            "storage.replay_s": replay_s,
            "replication.shipped_records":
                total(p, "repro_replication_shipped_records_total"),
            "replication.replayed_records":
                total(r, "repro_replication_replayed_records_total") if self.w.replica else 0.0,
            "replication.reconnects":
                total(r, "repro_replication_reconnects_total") if self.w.replica else 0.0,
            "obs.trace_overhead_pct": (traced_p50 / untraced_p50 - 1.0) * 100.0,
        }
        applied = rs.get("replication.apply_records", empty)
        self.report_extra = {
            "storage.fsync_ms_per_write":
                total(p, "repro_wal_fsync_seconds_sum") * 1e3 / writes,
            "storage.checkpoint_ms": ps.get("storage.checkpoint", empty).total * 1e3,
            "replication.apply_ms_per_record":
                applied.total * 1e3 / max(1, applied.size) if applied.count else 0.0,
        }
        self.stage_table = self._stage_table(ps, rs, traced)
        return metrics

    def _stage_table(self, ps: dict, rs: dict, traced: Window) -> list[tuple]:
        """Rows ``(stage, ms per request, share of client time)`` of the
        traced half-window; the last row is the time outside every
        server-side span."""
        from stages import LAYERS, SpanStats, layer_self

        requests = max(1, len(traced.writes) + len(traced.reads))
        client = sum(traced.writes) + sum(traced.reads)
        layers = layer_self(ps)
        for layer, secs in layer_self(rs).items():
            layers[layer] += secs
        served = sum(s.get("server.http", SpanStats()).total for s in (ps, rs))
        rows = [(layer, layers[layer] * 1e3 / requests, layers[layer] / client)
                for layer in LAYERS]
        outside = client - served
        rows.append(("outside server", outside * 1e3 / requests, outside / client))
        return rows


def _commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _print_report(args, workload: str, bench: Bench, metrics: dict,
                  units: dict, counts: dict | None) -> None:
    print(f"# perfbench {workload} seed={args.seed} trace={args.trace} "
          f"python={platform.python_version()} nproc={os.cpu_count()} "
          f"commit={_commit()}")
    for name, value in metrics.items():
        n = f"  n={counts[name]}" if counts and name in counts else ""
        print(f"{name:40s} {value:14.4f} {units[name]}{n}")
    for name, value in bench.report_extra.items():
        print(f"{name:40s} {value:14.4f} {REPORT_ONLY_UNITS[name]}")
    for row in getattr(bench, "stage_table", []):
        print(f"stage {row[0]:33s} {row[1]:14.4f} ms/request  {row[2]:7.2%}")
    for problem in bench.problems:
        print(f"FAILED: {problem}")


def run_workload(args, workload: str) -> int:
    """One run of one workload: report, JSON line, exit status."""
    from cluster import ClusterError

    work = HERE / ".work" / f"{workload}-{os.getpid()}"
    bench = Bench(workload, args.seed, args.seconds, work)
    try:
        if args.trace:
            metrics, units, counts = bench.run_layers(), LAYER_UNITS, None
        else:
            (metrics, counts), units = bench.run_e2e(), E2E_UNITS
    except (BenchError, ClusterError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        for problem in bench.problems:
            print(f"FAILED: {problem}", file=sys.stderr)
        return 2
    finally:
        bench.cleanup()
        shutil.rmtree(work, ignore_errors=True)
    _print_report(args, workload, bench, metrics, units, counts)
    correct = not bench.problems and bench.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }), flush=True)
    return 0 if correct else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name, or 'all' to run each in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so the servers are still reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        _load_repro()
        from workloads import WORKLOADS

        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        unknown = [n for n in names if n not in WORKLOADS]
        if unknown:
            raise BenchError(
                f"unknown workload {unknown[0]!r}; one of {sorted(WORKLOADS)} or all"
            )
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return max(run_workload(args, name) for name in names)


if __name__ == "__main__":
    sys.exit(main())
