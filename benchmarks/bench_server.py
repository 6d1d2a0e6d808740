#!/usr/bin/env python
"""Load harness for the HTTP service: concurrent clients, no lost writes.

Starts an :class:`~repro.server.ObjectbaseHTTPServer` on an ephemeral
port over a durable store in a temp directory, drives it with N client
threads issuing interleaved applies and reads, then asserts the
service contract:

* every write acknowledged with 200 is present in the store afterwards
  — and still present after a cold reopen of the WAL;
* every non-200 response is one of the documented backpressure
  statuses (429 shed, 503 lock-timeout), never a 500;
* ``/healthz``, ``/readyz`` and ``/metrics`` answer throughout.

Run as a script (the CI ``server-smoke`` job uses ``--quick``)::

    PYTHONPATH=src python benchmarks/bench_server.py --check
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import tempfile
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

from repro.api import Objectbase
from repro.server import ObjectbaseService, make_server

OK_FAILURES = {429, 503}


def request(base: str, method: str, path: str, body=None):
    data = json.dumps(body).encode() if body is not None else None
    req = urllib.request.Request(
        base + path, data=data, method=method,
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(req, timeout=30) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def run(threads: int, ops: int, max_inflight: int) -> dict:
    tmp = Path(tempfile.mkdtemp(prefix="bench-server-"))
    store = Objectbase.open(tmp / "schema.wal", lock_timeout=10.0)
    server = make_server(ObjectbaseService(store, max_inflight=max_inflight))
    accept = threading.Thread(target=server.serve_forever, daemon=True)
    accept.start()
    host, port = server.server_address[:2]
    base = f"http://{host}:{port}"

    acked: list[str] = []
    failures: list[tuple[int, str]] = []
    latencies: list[float] = []
    lock = threading.Lock()

    def client(cid: int) -> None:
        for i in range(ops):
            name = f"T_c{cid}_{i}"
            started = time.perf_counter()
            status, body = request(base, "POST", "/v1/apply", {"op": {
                "code": "AT", "name": name,
                "supertypes": [], "properties": [],
            }})
            elapsed = time.perf_counter() - started
            with lock:
                latencies.append(elapsed)
                if status == 200:
                    acked.append(name)
                else:
                    failures.append((status, body["error"]["code"]))
            # Interleave reads with writes, like a real client would.
            if i % 3 == 0:
                request(base, "GET", "/v1/types")

    workers = [
        threading.Thread(target=client, args=(c,)) for c in range(threads)
    ]
    started = time.perf_counter()
    for t in workers:
        t.start()
    for t in workers:
        t.join()
    wall = time.perf_counter() - started

    health = request(base, "GET", "/healthz")[0]
    ready = request(base, "GET", "/readyz")[0]
    live_types = store.types()
    server.shutdown()
    server.server_close()
    reopened = Objectbase.open(tmp / "schema.wal").types()

    return {
        "threads": threads,
        "ops_per_thread": ops,
        "max_inflight": max_inflight,
        "acked": len(acked),
        "failures": sorted({f"{s}:{code}" for s, code in failures}),
        "shed_or_timed_out": len(failures),
        "wall_seconds": round(wall, 3),
        "writes_per_second": round(len(acked) / wall, 1) if wall else None,
        "latency_p50_ms": round(
            statistics.median(latencies) * 1000, 3
        ) if latencies else None,
        "healthz": health,
        "readyz": ready,
        "lost_live": sorted(set(acked) - live_types),
        "lost_after_reopen": sorted(set(acked) - reopened),
        "unexpected_statuses": sorted(
            {s for s, _ in failures} - OK_FAILURES
        ),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--threads", type=int, default=8)
    parser.add_argument("--ops", type=int, default=50)
    parser.add_argument("--max-inflight", type=int, default=8)
    parser.add_argument("--quick", action="store_true",
                        help="small run for CI smoke")
    parser.add_argument("--check", action="store_true",
                        help="exit non-zero if the contract is violated")
    parser.add_argument("--out", type=Path, help="write the JSON report")
    args = parser.parse_args()
    if args.quick:
        args.threads, args.ops = 4, 15

    report = run(args.threads, args.ops, args.max_inflight)
    print(json.dumps(report, indent=2))
    if args.out:
        args.out.write_text(json.dumps(report, indent=2) + "\n")

    if args.check:
        problems = []
        if report["lost_live"]:
            problems.append(f"acked writes missing live: {report['lost_live']}")
        if report["lost_after_reopen"]:
            problems.append(
                f"acked writes lost by reopen: {report['lost_after_reopen']}"
            )
        if report["unexpected_statuses"]:
            problems.append(
                f"undocumented failure statuses: "
                f"{report['unexpected_statuses']}"
            )
        if report["healthz"] != 200 or report["readyz"] != 200:
            problems.append("health endpoints unhealthy after the run")
        if report["acked"] == 0:
            problems.append("no write was ever acknowledged")
        for problem in problems:
            print(f"CHECK FAILED: {problem}", file=sys.stderr)
        return 1 if problems else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
