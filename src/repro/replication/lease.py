"""Epoch-numbered, heartbeat-renewed write leases for primary election.

Replication has exactly one writer.  What enforces that — against the
failure that actually happens in production, a primary *paused* (GC,
SIGSTOP, VM migration) long enough for failover and then resumed — is
this lease:

* The lease lives next to the database as ``<db>.lease``: a JSON
  document ``{"epoch": E, "owner": O, "expires": T}`` written atomically
  (temp + ``os.replace``) through the same :class:`StorageBackend`
  seam the WAL uses, so the crash matrix can injure it too.
* **Epochs** are the fencing tokens: every acquisition increments the
  epoch, every replication handshake and heartbeat carries it, and
  replicas refuse any primary offering an epoch lower than one they
  have already synced from.  A resumed ex-primary is therefore fenced
  twice — locally at its own WAL append (the :meth:`FileLease.check`
  fence installed via ``Objectbase.set_write_fence``) and
  remotely at every replica's handshake.
* **Heartbeats** (:class:`LeaseKeeper`) renew the expiry; renewal is
  cheap (read, verify still ours, rewrite).  A node that cannot renew
  — or whose clock shows the lease expired while it was paused — goes
  *read-only immediately and latches*: :meth:`check` re-reads the file
  once past local expiry, and any disagreement (different owner, higher
  epoch, or still-expired) raises
  :class:`~repro.core.errors.LeaseLostError` forever after.

The safety argument mirrors classic lease fencing (Gray &
Cheriton-style): an append is allowed only while the locally cached
expiry is in the future; a new primary can only acquire after that
expiry; so by the time epoch E+1 exists, the epoch-E holder has either
observed expiry (and latched) or is paused — and its first append after
resuming re-reads the file and latches.  Clock skew between nodes eats
into the margin, which is why ``ttl`` should dwarf expected skew; the
``clock`` is injectable so the tests can prove the pause story without
sleeping.
"""

from __future__ import annotations

import json
import logging
import os
import socket
import threading
import time
from pathlib import Path
from typing import Callable

from ..core.errors import LeaseHeldError, LeaseLostError
from ..obs.metrics import REGISTRY
from ..storage.backend import FileBackend, StorageBackend

__all__ = ["FileLease", "LeaseKeeper"]

logger = logging.getLogger(__name__)

_ACQUIRES = REGISTRY.counter(
    "repro_lease_acquires_total",
    "Write-lease acquisitions (each bumps the fencing epoch)",
)
_RENEWALS = REGISTRY.counter(
    "repro_lease_renewals_total", "Write-lease heartbeat renewals"
)
_FENCED = REGISTRY.counter(
    "repro_lease_fenced_total",
    "Operations refused by the lease fence after lease loss",
)
_EPOCH = REGISTRY.gauge(
    "repro_lease_epoch", "The lease epoch this node last held (0 = never)"
)


class FileLease:
    """One node's handle on the file-backed write lease (see module doc).

    Not thread-safe for concurrent :meth:`acquire` calls from one
    process (there is no reason to race yourself); :meth:`check` is safe
    to call from writer threads while a :class:`LeaseKeeper` renews.
    """

    def __init__(
        self,
        path: str | Path,
        *,
        owner: str | None = None,
        ttl: float = 5.0,
        clock: Callable[[], float] = time.time,
        fs: StorageBackend | None = None,
    ) -> None:
        if ttl <= 0:
            raise ValueError("lease ttl must be positive")
        self.path = Path(path)
        self.owner = owner or f"{socket.gethostname()}:{os.getpid()}"
        self.ttl = ttl
        self.clock = clock
        self.fs = fs or FileBackend()
        self.epoch: int | None = None
        self._expires = 0.0
        self._lost_reason: str | None = None
        self._mutex = threading.Lock()

    # -- disk format ----------------------------------------------------

    def read(self) -> dict | None:
        """The current on-disk lease document, or ``None`` when absent
        or unreadable (an unreadable lease is treated as up for grabs —
        it cannot fence anyone either)."""
        if not self.fs.exists(self.path):
            return None
        try:
            doc = json.loads(self.fs.read_bytes(self.path).decode("utf-8"))
        except (OSError, UnicodeDecodeError, json.JSONDecodeError):
            return None
        if not isinstance(doc, dict) or "epoch" not in doc:
            return None
        return doc

    def _write(self, doc: dict) -> None:
        tmp = self.path.with_suffix(self.path.suffix + ".tmp")
        self.fs.write_bytes(
            tmp, json.dumps(doc, sort_keys=True).encode("utf-8")
        )
        self.fs.fsync_file(tmp)
        self.fs.replace(tmp, self.path)

    # -- lifecycle ------------------------------------------------------

    def acquire(self) -> int:
        """Take the lease (epoch + 1); raises :class:`LeaseHeldError`
        while another owner's lease is still live."""
        with self._mutex:
            now = self.clock()
            current = self.read()
            if (
                current is not None
                and current.get("owner") != self.owner
                and float(current.get("expires", 0.0)) > now
            ):
                raise LeaseHeldError(
                    str(current.get("owner")),
                    float(current["expires"]) - now,
                )
            epoch = int(current.get("epoch", 0)) + 1 if current else 1
            self._write({
                "epoch": epoch,
                "owner": self.owner,
                "expires": now + self.ttl,
                "acquired": now,
            })
            # Two nodes racing an expired lease both pass the liveness
            # check; the atomic replace means exactly one document
            # survives.  Verify ours did — the loser backs off here, and
            # a loss this read misses (interleaved replace) is caught by
            # the first heartbeat's owner check within ttl/3.
            final = self.read()
            if (
                final is None
                or final.get("owner") != self.owner
                or int(final.get("epoch", -1)) != epoch
            ):
                raise LeaseHeldError(
                    str(final.get("owner")) if final else "unknown",
                    self.ttl,
                )
            self.epoch = epoch
            self._expires = now + self.ttl
            self._lost_reason = None
            _ACQUIRES.inc()
            _EPOCH.set(epoch)
            logger.info(
                "%s: acquired write lease epoch %d (ttl %.1fs)",
                self.path, epoch, self.ttl,
            )
            return epoch

    def renew(self) -> None:
        """Heartbeat: extend the expiry of a lease that is still ours."""
        with self._mutex:
            if self._lost_reason is not None:
                raise LeaseLostError(self._lost_reason)
            if self.epoch is None:
                raise LeaseLostError("no lease was ever acquired")
            now = self.clock()
            current = self.read()
            if (
                current is None
                or int(current.get("epoch", -1)) != self.epoch
                or current.get("owner") != self.owner
            ):
                seen = current.get("epoch") if current else "none"
                self._lose(
                    f"superseded on disk (epoch {seen}, "
                    f"owner {current.get('owner') if current else 'none'!r})"
                )
            if float(current.get("expires", 0.0)) <= now:
                # Expired and nobody has taken it yet: re-upping the same
                # epoch would race a concurrent acquirer.  Treat as lost;
                # the operator (or caller) re-acquires under a new epoch.
                self._lose(f"expired at {current.get('expires')}")
            self._write({**current, "expires": now + self.ttl})
            self._expires = now + self.ttl
            _RENEWALS.inc()

    def check(self) -> None:
        """The write fence: cheap while the lease is live, latched once
        lost.  Installed as the WAL's pre-append hook."""
        if self._lost_reason is not None:
            _FENCED.inc()
            raise LeaseLostError(self._lost_reason)
        if self.epoch is None:
            _FENCED.inc()
            raise LeaseLostError("no lease was ever acquired")
        if self.clock() < self._expires:
            return
        # Past our cached expiry — either the keeper renewed and we
        # raced the cache, or we were paused and the world moved on.
        # The file decides.
        with self._mutex:
            if self.clock() < self._expires:
                return
            current = self.read()
            now = self.clock()
            if (
                current is not None
                and int(current.get("epoch", -1)) == self.epoch
                and current.get("owner") == self.owner
                and float(current.get("expires", 0.0)) > now
            ):
                self._expires = float(current["expires"])
                return
            seen = current.get("epoch") if current else "none"
            try:
                self._lose(
                    f"lease expired while this node was stalled "
                    f"(disk shows epoch {seen})"
                )
            except LeaseLostError:
                _FENCED.inc()
                raise

    def held(self) -> bool:
        """Whether this node still holds the lease (non-raising fence)."""
        try:
            self.check()
        except LeaseLostError:
            return False
        return True

    def release(self) -> None:
        """Give the lease up cleanly (only if it is still ours)."""
        with self._mutex:
            if self.epoch is None:
                return
            current = self.read()
            if (
                current is not None
                and int(current.get("epoch", -1)) == self.epoch
                and current.get("owner") == self.owner
            ):
                try:
                    self.fs.unlink(self.path)
                except OSError:  # pragma: no cover - release is best effort
                    pass
            self._lost_reason = f"released by {self.owner}"
            logger.info("%s: released write lease epoch %s",
                        self.path, self.epoch)

    def _lose(self, reason: str) -> None:
        if self._lost_reason is None:
            logger.error("%s: write lease lost: %s", self.path, reason)
        self._lost_reason = reason
        raise LeaseLostError(reason)


class LeaseKeeper(threading.Thread):
    """Background heartbeat: renews ``lease`` every ``interval`` seconds
    (default ``ttl / 3``) until stopped or the lease is lost.  Loss is
    terminal for the keeper — it stops renewing and leaves the lease's
    latched fence to reject writes."""

    def __init__(
        self, lease: FileLease, interval: float | None = None
    ) -> None:
        super().__init__(name="repro-lease-keeper", daemon=True)
        self.lease = lease
        self.interval = interval if interval is not None else lease.ttl / 3.0
        self._stopped = threading.Event()
        self.lost: LeaseLostError | None = None

    def run(self) -> None:
        while not self._stopped.wait(self.interval):
            try:
                self.lease.renew()
            except LeaseLostError as exc:
                self.lost = exc
                logger.error(
                    "lease keeper stopping: %s", exc
                )
                return

    def stop(self) -> None:
        self._stopped.set()
        self.join(timeout=5.0)
