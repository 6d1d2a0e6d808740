"""``repro serve`` processes and keep-alive HTTP clients for the benchmark.

Servers run as child processes of the benchmark, started through
``python -m repro`` (or ``traced_serve.py`` in a traced run) with
``--port 0``; the bound addresses are read from the server's own INFO
log lines.  Clients use one persistent ``http.client`` connection each.
Nothing here sets socket options on the server side: what a client sees
is what the server does.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

__all__ = ["ClusterError", "HttpClient", "Node", "child_env", "repro_argv"]

_HTTP_LINE = re.compile(r"serving objectbase on http://([\d.]+):(\d+)")
_REPL_LINE = re.compile(r"replication listener on ([\d.]+):(\d+)")


class ClusterError(RuntimeError):
    """A server process failed to start, answer or stop."""


class HttpClient:
    """One keep-alive connection; ``request`` returns ``(status, body)``."""

    def __init__(self, host: str, port: int, timeout: float = 30.0) -> None:
        self.conn = http.client.HTTPConnection(host, port, timeout=timeout)

    def request(self, method: str, path: str, body: dict | None = None):
        payload = json.dumps(body).encode() if body is not None else None
        headers = {"Content-Type": "application/json"} if payload else {}
        try:
            self.conn.request(method, path, body=payload, headers=headers)
            resp = self.conn.getresponse()
            data = resp.read()
        except (OSError, http.client.HTTPException):
            self.conn.close()  # the next request reconnects
            raise
        return resp.status, data

    def close(self) -> None:
        self.conn.close()


class Node:
    """One ``repro serve`` process (primary or replica)."""

    def __init__(self, argv: list[str], env: dict, log: Path, cwd: Path) -> None:
        self.argv = argv
        self.log = log
        self._log_file = open(log, "ab")
        self.proc = subprocess.Popen(
            argv, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=self._log_file, env=env, cwd=cwd,
        )
        self.host = ""
        self.port = 0
        self.replication_port: int | None = None

    def _wait_line(self, pattern: re.Pattern, timeout: float) -> re.Match:
        deadline = time.monotonic() + timeout
        while True:
            text = self.log.read_text(errors="replace")
            found = list(pattern.finditer(text))
            if found:
                return found[-1]
            if self.proc.poll() is not None:
                raise ClusterError(
                    f"server exited with {self.proc.returncode}: "
                    f"{text[-2000:]}"
                )
            if time.monotonic() > deadline:
                raise ClusterError(f"no {pattern.pattern!r} in {self.log}")
            time.sleep(0.005)

    def wait_bound(self, replication: bool, timeout: float = 120.0) -> None:
        """Block until the HTTP (and replication) listeners are bound."""
        if replication:
            self.replication_port = int(self._wait_line(_REPL_LINE, timeout)[2])
        match = self._wait_line(_HTTP_LINE, timeout)
        self.host, self.port = match[1], int(match[2])

    def client(self) -> HttpClient:
        return HttpClient(self.host, self.port)

    def get(self, path: str) -> tuple[int, bytes]:
        client = self.client()
        try:
            return client.request("GET", path)
        finally:
            client.close()

    def wait_until(self, check, timeout: float = 120.0) -> None:
        """Poll ``check(node)`` (connection errors count as False)."""
        deadline = time.monotonic() + timeout
        while True:
            try:
                if check(self):
                    return
            except (OSError, http.client.HTTPException):
                pass
            if self.proc.poll() is not None:
                raise ClusterError(f"server exited with {self.proc.returncode}")
            if time.monotonic() > deadline:
                raise ClusterError(f"timed out waiting on {self.argv}")
            time.sleep(0.005)

    def ready(self) -> bool:
        return self.get("/readyz")[0] == 200

    def vmhwm_mb(self) -> float:
        """Peak resident set size of the process (VmHWM), in MiB."""
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        kb = int(re.search(r"VmHWM:\s+(\d+)\s+kB", status)[1])
        return kb / 1024.0

    def stop(self, timeout: float = 60.0) -> None:
        """Graceful stop (SIGINT: drain, then exit); kill if it hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout)
            except subprocess.TimeoutExpired:
                self.kill()
        self._log_file.close()

    def kill(self) -> None:
        """Crash stop (SIGKILL) and reap."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGKILL)
        self.proc.wait()
        self._log_file.close()


def repro_argv(root: Path, db: str, flags: tuple[str, ...], serve_args: list[str],
               spans: Path | None = None) -> list[str]:
    """The command line of one server process."""
    entry = (
        [str(root / "perfbench" / "traced_serve.py"), str(spans)]
        if spans is not None else ["-m", "repro"]
    )
    return [sys.executable, *entry, "-v", "--db", db, *flags,
            "serve", "--port", "0", *serve_args]


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env
