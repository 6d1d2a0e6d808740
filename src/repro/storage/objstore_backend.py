"""The content-addressed object-store backend: immutable segments plus
an atomically-swapped manifest pointer.

Layout (all under one root directory, the idiom of Snippet 2's Retikon
``ObjectStore``)::

    <root>/segments/<sha256>.seg    immutable, content-addressed
    <root>/manifest.json            {"format": 1, "objects": {...}}

Every logical byte stream is a manifest entry listing the segments that
concatenate to its contents.  Mutations never touch existing segments:
new data is written to a new segment (atomic temp+rename under its
content hash), then the *manifest* is swapped via
:func:`~repro.storage.backend.atomic_write_bytes` — temp, fsync,
rename, directory fsync.  The manifest is therefore the single commit
point:

* a crash before the swap leaves the old manifest and an **orphan
  segment** — invisible to readers, collected by :meth:`gc` (the
  backend-shaped fault ``FaultyFS(backend_torn=True)`` injects exactly
  this state via :meth:`simulate_torn_append`);
* a crash during the swap leaves either manifest whole (POSIX rename),
  never a hybrid — ``supports_atomic_replace``;
* ``replace`` is a manifest-only re-pointing, so ``durable_rename`` is
  true and every primitive returns only after its swap is durable
  (``durable_writes``).

Content addressing deduplicates identical payloads for free (appending
the same framed record twice references one segment twice) and makes
segments verifiable: a segment whose bytes do not hash to its name is
damage, never residue.

The manifest is re-read from disk on every operation rather than
cached, so independent backend instances over the same root (a writer
and a :class:`~repro.replication.primary.ReplicationSource` reader)
stay coherent without shared state; single-writer discipline is the
caller's (the primary lease / FIFO writer lock), as for every backend.

Because other processes may hold a live instance over the same root,
:meth:`gc` must never run from a merely-opened instance: opening the
store performs **no** garbage collection by default
(``gc_on_open=False``).  Only an owner that has established exclusive
write access — the fenced primary after acquiring its lease, or
``repro recover`` — should sweep, and even then :meth:`gc` skips any
candidate younger than ``gc_grace`` seconds so a concurrent writer's
in-flight segment (written but not yet published by its manifest swap)
or ``*.seg.tmp`` from an in-flight :func:`atomic_write_bytes` is never
deleted out from under it.

Write-amplification tradeoff: every mutation rewrites the whole
manifest (all streams, all segment lists) and fsyncs it, so the cost
of one WAL append grows with the total number of segments ever
appended — O(n) per append, quadratic over the life of the store —
and the manifest itself grows one digest per append.  Checkpoints
bound this in practice: ``truncate``/``write_bytes`` re-point a stream
at a single coalesced segment, which is exactly what the checkpoint
cadence of :class:`~repro.storage.framing.DurabilityPolicy` does to
the WAL stream.  The backend is deliberately simple rather than fast;
``docs/storage.md`` records the tradeoff.
"""

from __future__ import annotations

import errno
import hashlib
import json
import threading
import time
from pathlib import Path

from ..obs.metrics import REGISTRY
from .backend import FileBackend, StorageBackend, atomic_write_bytes

__all__ = ["ObjectStoreBackend", "DEFAULT_GC_GRACE"]

_GC_SEGMENTS = REGISTRY.counter(
    "repro_objstore_gc_segments_total",
    "Orphan object-store segments removed by GC",
)

MANIFEST_FORMAT = 1

#: Default :meth:`ObjectStoreBackend.gc` grace period (seconds).  An
#: unreferenced segment younger than this may be a concurrent writer's
#: append caught between its segment write and its manifest swap (a
#: window of milliseconds in practice), so it is spared; anything older
#: is crash residue.
DEFAULT_GC_GRACE = 60.0


class ObjectStoreBackend(StorageBackend):
    """Immutable content-addressed segments behind a manifest pointer."""

    scheme = "objstore"
    supports_atomic_replace = True
    supports_transactions = False
    durable_rename = True
    durable_writes = True

    def __init__(
        self,
        root: str | Path,
        *,
        gc_on_open: bool = False,
        gc_grace: float = DEFAULT_GC_GRACE,
        sync: bool = True,
    ) -> None:
        self.root = Path(root)
        self.segments_dir = self.root / "segments"
        self.manifest_path = self.root / "manifest.json"
        self.sync = sync
        self.gc_grace = gc_grace
        self._disk = FileBackend()
        self._lock = threading.RLock()
        self.segments_dir.mkdir(parents=True, exist_ok=True)
        #: Orphan segments collected at construction when the caller
        #: owns the store exclusively and opted in with ``gc_on_open``
        #: (observability; conformance tests assert sweep counts here).
        #: Default off: merely resolving an ``objstore:`` URL (a
        #: replication reader, a failover candidate that has not yet
        #: acquired the lease) must never delete another process's
        #: in-flight writes.
        self.gc_removed = 0
        if gc_on_open:
            self.gc_removed = self.gc()

    # -- manifest -------------------------------------------------------

    def _manifest(self) -> dict:
        if not self._disk.exists(self.manifest_path):
            return {"format": MANIFEST_FORMAT, "objects": {}}
        return json.loads(
            self._disk.read_bytes(self.manifest_path).decode("utf-8")
        )

    def _swap(self, manifest: dict) -> None:
        atomic_write_bytes(
            self._disk,
            self.manifest_path,
            json.dumps(manifest, sort_keys=True).encode("utf-8"),
            sync=self.sync,
        )

    # -- segments -------------------------------------------------------

    def _segment_path(self, digest: str) -> Path:
        return self.segments_dir / f"{digest}.seg"

    def _write_segment(self, data: bytes) -> str:
        """Persist ``data`` under its content hash; idempotent."""
        digest = hashlib.sha256(data).hexdigest()
        seg = self._segment_path(digest)
        if not self._disk.exists(seg):
            atomic_write_bytes(self._disk, seg, data, sync=self.sync)
        return digest

    @staticmethod
    def _key(path: Path) -> str:
        return str(path)

    def _entry(self, manifest: dict, path: Path) -> dict:
        entry = manifest["objects"].get(self._key(path))
        if entry is None:
            raise FileNotFoundError(
                errno.ENOENT, "no such object in store", str(path)
            )
        return entry

    # -- StorageBackend primitives -------------------------------------------

    def exists(self, path: Path) -> bool:
        with self._lock:
            return self._key(path) in self._manifest()["objects"]

    def size(self, path: Path) -> int:
        with self._lock:
            return sum(self._entry(self._manifest(), path)["sizes"])

    def read_bytes(self, path: Path) -> bytes:
        with self._lock:
            entry = self._entry(self._manifest(), path)
            chunks = []
            for digest in entry["segments"]:
                seg = self._segment_path(digest)
                if not self._disk.exists(seg):
                    raise OSError(
                        errno.EIO,
                        f"object store corrupt: segment {digest} "
                        f"referenced by {path} is missing",
                    )
                chunks.append(self._disk.read_bytes(seg))
        return b"".join(chunks)

    def append_bytes(self, path: Path, data: bytes) -> None:
        with self._lock:
            manifest = self._manifest()
            entry = manifest["objects"].setdefault(
                self._key(path), {"segments": [], "sizes": []}
            )
            digest = self._write_segment(data)
            entry["segments"].append(digest)
            entry["sizes"].append(len(data))
            self._swap(manifest)

    def write_bytes(self, path: Path, data: bytes) -> None:
        with self._lock:
            manifest = self._manifest()
            digest = self._write_segment(data)
            manifest["objects"][self._key(path)] = {
                "segments": [digest], "sizes": [len(data)],
            }
            self._swap(manifest)

    def replace(self, src: Path, dst: Path) -> None:
        with self._lock:
            manifest = self._manifest()
            self._entry(manifest, src)
            manifest["objects"][self._key(dst)] = (
                manifest["objects"].pop(self._key(src))
            )
            self._swap(manifest)

    def truncate(self, path: Path, size: int) -> None:
        with self._lock:
            data = self.read_bytes(path)
            if size > len(data):
                data = data.ljust(size, b"\x00")
            manifest = self._manifest()
            trimmed = data[:size]
            digest = self._write_segment(trimmed)
            manifest["objects"][self._key(path)] = {
                "segments": [digest], "sizes": [len(trimmed)],
            }
            self._swap(manifest)

    def unlink(self, path: Path) -> None:
        with self._lock:
            manifest = self._manifest()
            if manifest["objects"].pop(self._key(path), None) is not None:
                self._swap(manifest)

    def fsync_file(self, path: Path) -> None:
        """No-op: every manifest swap is already durable."""

    def fsync_dir(self, path: Path) -> None:
        """No-op: directory durability is handled at each swap."""

    def mkdirs(self, path: Path) -> None:
        """No-op: objects are manifest keys; directories are notional."""

    # -- maintenance ----------------------------------------------------

    def gc(self, *, grace: float | None = None) -> int:
        """Remove segments the manifest no longer references.

        Crash residue — a segment written whose manifest swap never
        happened, or segments stranded by ``truncate``/``unlink``/
        ``write_bytes`` re-pointing — is invisible to readers and safe
        to delete; stale ``.tmp`` files from interrupted swaps likewise.

        Call this only with exclusive write access established (the
        fenced primary, ``repro recover``): the manifest snapshot below
        cannot see another process's append that is mid-swap.  As a
        second line of defense, any candidate whose mtime is within
        ``grace`` seconds (default :attr:`gc_grace`) is spared — a live
        writer's unpublished segment or in-flight ``*.seg.tmp`` is
        always that young, while genuine crash residue ages past the
        grace and is collected by a later sweep.
        """
        if grace is None:
            grace = self.gc_grace
        cutoff = time.time() - grace
        with self._lock:
            manifest = self._manifest()
            referenced = {
                digest
                for entry in manifest["objects"].values()
                for digest in entry["segments"]
            }
            removed = 0
            for seg in sorted(self.segments_dir.iterdir()):
                name = seg.name
                if name.endswith(".seg") and name[:-4] in referenced:
                    continue
                try:
                    if seg.stat().st_mtime > cutoff:
                        continue  # possibly a concurrent writer's in-flight file
                except OSError:
                    continue  # vanished under us: someone else's swap/cleanup
                self._disk.unlink(seg)
                removed += 1
        if removed:
            _GC_SEGMENTS.inc(removed)
        return removed

    # -- backend-shaped fault hook --------------------------------------

    def simulate_torn_append(self, path: Path, data: bytes) -> None:
        """The manifest-swap crash state: the segment reached disk, the
        pointer swap did not — an orphan segment.

        Readers must never see the append (the manifest is the commit
        point) and the next owner's :meth:`gc` sweep must collect the
        orphan; the ``append-backend-torn`` conformance point asserts
        both.
        """
        with self._lock:
            self._write_segment(data)
