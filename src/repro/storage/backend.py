"""Pluggable storage backends behind the :class:`StorageBackend` seam.

Everything above the seam — framed WAL records, checkpoint generation
fencing, salvage/quarantine, retry/degraded-mode, replication shipping
— is expressed purely in eleven byte-stream primitives, so a new
backend only has to implement those primitives faithfully and the whole
durability stack (and its crash matrix) comes along for free.

The design follows the two exemplars the ROADMAP names: an ABC with
capability *probes* rather than subclass checks (Snippet 1's
``LogicObjectStorage`` probing ``supports_transactions``), and a
content-addressed segment store published by an atomic pointer swap
(Snippet 2's Retikon ``ObjectStore`` with ``atomic_write_bytes``).

Capability probes
-----------------
Backends differ in what the primitives *already* guarantee; the probes
let the durability layer skip work a substrate makes redundant instead
of branching on types:

``supports_atomic_replace``
    ``replace`` publishes all-or-nothing even across a crash.  True for
    every shipped backend (POSIX rename, a sqlite transaction, a
    manifest pointer swap).
``supports_transactions``
    The backend can group primitives into one atomic transaction
    (sqlite).  Probed, not assumed — callers that want a transaction
    try ``transaction()`` and fall back to ordered writes.
``durable_rename``
    ``replace`` is durable by itself; the post-rename directory fsync
    is unnecessary and :func:`atomic_write_bytes` skips it.
``durable_writes``
    Every mutating primitive commits durably before returning; fsync
    barriers are no-ops and write reordering is impossible.

Backend URLs
------------
Every open surface (:meth:`repro.api.Objectbase.open`, ``repro serve``,
``repro recover``, replication) accepts a backend URL instead of a bare
path:

* ``file:/var/lib/repro/schema.wal`` (or just the path) — POSIX files;
* ``sqlite:/var/lib/repro/schema.db`` — WAL frames as rows, checkpoints
  as blobs, inside one sqlite database;
* ``objstore:/var/lib/repro/store`` — immutable content-addressed
  segments plus an atomically-swapped manifest.

:func:`resolve_storage_url` returns the backend plus the *logical* path
the journal should use inside it and the *physical* on-disk anchor
(where sidecar files like the primary lease live).  Third-party
backends register a scheme with :func:`register_backend`;
``docs/storage.md`` walks through writing a conforming backend and
running the conformance suite against it.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from ..core.errors import JournalError

__all__ = [
    "StorageBackend",
    "FileBackend",
    "StorageTarget",
    "atomic_write_bytes",
    "resolve_storage_url",
    "storage_physical_path",
    "register_backend",
    "backend_schemes",
]


class StorageBackend:
    """The storage primitives the durability path is allowed to use.

    Implementations may keep "files" anywhere — POSIX paths, sqlite
    rows, content-addressed segments — as long as the byte-stream
    semantics hold (the conformance suite in
    ``tests/storage/test_crash_matrix.py`` / ``test_recovery_modes.py``
    checks all of it — see ``docs/storage.md``):

    * ``append_bytes`` extends, ``write_bytes`` replaces, ``replace``
      atomically renames, ``truncate`` cuts to a prefix; ``unlink``
      tolerates a missing file, while ``read_bytes``/``size``/
      ``truncate``/``replace`` raise :class:`FileNotFoundError` family
      errors on missing sources;
    * transient substrate failures surface as :class:`OSError` so the
      retry layer (:mod:`repro.storage.reliability`) absorbs them;
    * the class-level capability probes describe what the substrate
      guarantees *beyond* the primitives (see the module docstring);
    * :meth:`close` releases substrate handles (idempotent).
    """

    #: URL scheme this backend answers to (``""`` for none).
    scheme: str = ""
    #: ``replace`` publishes all-or-nothing even across a crash.
    supports_atomic_replace: bool = True
    #: The backend can group primitives into one atomic transaction.
    supports_transactions: bool = False
    #: ``replace`` is durable by itself — no directory fsync needed.
    durable_rename: bool = False
    #: Every mutating primitive commits durably before returning
    #: (transactional backends); fsync barriers are no-ops.
    durable_writes: bool = False

    def exists(self, path: Path) -> bool:
        raise NotImplementedError

    def size(self, path: Path) -> int:
        raise NotImplementedError

    def read_bytes(self, path: Path) -> bytes:
        raise NotImplementedError

    def append_bytes(self, path: Path, data: bytes) -> None:
        raise NotImplementedError

    def write_bytes(self, path: Path, data: bytes) -> None:
        raise NotImplementedError

    def replace(self, src: Path, dst: Path) -> None:
        raise NotImplementedError

    def truncate(self, path: Path, size: int) -> None:
        raise NotImplementedError

    def unlink(self, path: Path) -> None:
        raise NotImplementedError

    def fsync_file(self, path: Path) -> None:
        raise NotImplementedError

    def fsync_dir(self, path: Path) -> None:
        raise NotImplementedError

    def mkdirs(self, path: Path) -> None:
        """Ensure a (logical) directory exists; no-op where the
        substrate has no directories."""
        raise NotImplementedError

    def close(self) -> None:
        """Release substrate resources; further use is undefined."""

    def gc(self) -> int:
        """Collect substrate garbage (orphan segments, stale temp
        residue); returns the number of objects removed."""
        return 0


class FileBackend(StorageBackend):
    """The POSIX-file backend (thin wrappers over :mod:`os`/:mod:`pathlib`).

    Durability is the classic recipe — write, fsync the file, rename,
    fsync the directory — so ``durable_rename`` stays false and
    :func:`atomic_write_bytes` performs the directory fsync itself.
    """

    scheme = "file"

    def exists(self, path: Path) -> bool:
        return Path(path).exists()

    def size(self, path: Path) -> int:
        return os.path.getsize(path)

    def read_bytes(self, path: Path) -> bytes:
        return Path(path).read_bytes()

    def append_bytes(self, path: Path, data: bytes) -> None:
        with open(path, "ab") as fh:
            fh.write(data)
            fh.flush()

    def write_bytes(self, path: Path, data: bytes) -> None:
        with open(path, "wb") as fh:
            fh.write(data)
            fh.flush()

    def replace(self, src: Path, dst: Path) -> None:
        os.replace(src, dst)

    def truncate(self, path: Path, size: int) -> None:
        os.truncate(path, size)

    def unlink(self, path: Path) -> None:
        Path(path).unlink(missing_ok=True)

    def fsync_file(self, path: Path) -> None:
        fd = os.open(path, os.O_RDWR)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    def fsync_dir(self, path: Path) -> None:
        # Durability of a rename needs the directory entry flushed too;
        # best effort where the platform cannot fsync a directory.
        try:
            fd = os.open(path, os.O_RDONLY)
        except OSError:
            return
        try:
            os.fsync(fd)
        except OSError:
            pass
        finally:
            os.close(fd)

    def mkdirs(self, path: Path) -> None:
        Path(path).mkdir(parents=True, exist_ok=True)


@dataclass(frozen=True)
class StorageTarget:
    """A resolved backend URL.

    ``path`` is the logical journal path *inside* the backend (the WAL;
    the checkpoint rides next to it via suffixing).  ``physical`` is the
    on-disk anchor — the WAL file, the sqlite database file, the object
    store root — where path-shaped sidecars (the primary lease) and
    operator tooling point.
    """

    fs: StorageBackend
    path: Path
    physical: Path
    url: str


def atomic_write_bytes(
    fs: StorageBackend,
    path: Path,
    data: bytes,
    *,
    sync: bool = True,
    fsync: Callable[[Path], None] | None = None,
) -> None:
    """Publish ``data`` at ``path`` atomically through ``fs`` primitives.

    Temp file, optional fsync, rename, directory fsync (skipped when the
    backend's rename is intrinsically durable).  A failed write never
    touches the destination; the partial temp is removed.  ``fsync``
    replaces ``fs.fsync_file`` for the temp-file barrier (the checkpoint
    writer passes its metered one).  This is the one publish routine
    behind checkpoints, snapshot saves and the object store's manifest
    pointer swap.
    """
    path = Path(path)
    tmp = path.with_suffix(path.suffix + ".tmp")
    try:
        fs.write_bytes(tmp, data)
        if sync:
            (fsync or fs.fsync_file)(tmp)
        fs.replace(tmp, path)
    except (OSError, JournalError):
        try:
            fs.unlink(tmp)
        except OSError:
            pass
        raise
    if sync and not fs.durable_rename:
        fs.fsync_dir(path.parent if str(path.parent) else Path("."))


# -- URL resolution -----------------------------------------------------

_SCHEME_RE = re.compile(r"^([A-Za-z][A-Za-z0-9+.-]*):")

#: scheme -> factory(rest-of-url, full-url) -> StorageTarget
_FACTORIES: dict[str, Callable[[str, str], StorageTarget]] = {}


def register_backend(
    scheme: str, factory: Callable[[str, str], StorageTarget]
) -> None:
    """Register a backend URL scheme (see ``docs/storage.md``)."""
    _FACTORIES[scheme.lower()] = factory


def backend_schemes() -> tuple[str, ...]:
    """The registered URL schemes, for help text and validation."""
    return tuple(sorted(_FACTORIES))


def _file_target(rest: str, url: str) -> StorageTarget:
    path = Path(rest)
    return StorageTarget(fs=FileBackend(), path=path, physical=path, url=url)


def _sqlite_target(rest: str, url: str) -> StorageTarget:
    from .sqlite_backend import SqliteBackend

    database = Path(rest)
    return StorageTarget(
        fs=SqliteBackend(database),
        path=Path("wal"),
        physical=database,
        url=url,
    )


def _objstore_target(rest: str, url: str) -> StorageTarget:
    from .objstore_backend import ObjectStoreBackend

    root = Path(rest)
    return StorageTarget(
        fs=ObjectStoreBackend(root),
        path=Path("wal"),
        physical=root,
        url=url,
    )


register_backend("file", _file_target)
register_backend("sqlite", _sqlite_target)
register_backend("objstore", _objstore_target)


def _split_storage_url(db: str | Path) -> tuple[str, str] | None:
    """``(scheme, rest)`` for a backend URL, or ``None`` for a bare path.

    A single-letter "scheme" is treated as a path (Windows drive
    letters), and an unknown scheme is a typed error rather than a
    surprise relative directory.  Pure parsing — no backend is
    constructed and nothing on disk is touched.
    """
    raw = str(db)
    match = _SCHEME_RE.match(raw) if isinstance(db, str) else None
    if match is None or len(match.group(1)) == 1:
        return None
    scheme = match.group(1).lower()
    if scheme not in _FACTORIES:
        raise JournalError(
            f"unknown storage backend scheme {scheme!r} in {raw!r} "
            f"(expected one of: {', '.join(backend_schemes())})"
        )
    rest = raw[match.end():]
    if rest.startswith("//"):
        rest = rest[2:]
    if not rest:
        raise JournalError(f"storage URL {raw!r} names no path")
    return scheme, rest


def storage_physical_path(db: str | Path) -> Path:
    """The on-disk anchor of a database location, **without** opening it.

    Unlike :func:`resolve_storage_url` — which constructs a live
    backend, creating directories, opening a sqlite connection, or
    initialising an object-store root as a side effect — this is pure
    parsing.  It is what path-shaped sidecar placement (the primary
    lease) and help text must use *before* ownership of the store is
    established: a failover candidate anchoring its lease must not
    mutate a store it does not yet own.

    For every shipped scheme the anchor is the URL's path part (the WAL
    file, the sqlite database file, the object-store root).  Third-party
    schemes registered via :func:`register_backend` are assumed to
    follow the same convention.
    """
    split = _split_storage_url(db)
    if split is None:
        return Path(db)
    _, rest = split
    return Path(rest)


def resolve_storage_url(
    db: str | Path, *, fs: StorageBackend | None = None
) -> StorageTarget:
    """Resolve a database location (path or backend URL) to a target.

    An explicit ``fs`` wins (tests injecting fault layers); a bare path
    resolves to the :class:`FileBackend`; ``scheme:rest`` dispatches to
    the registered backend.  Resolving **constructs** the backend
    (directories created, connections opened) — callers that only need
    the anchor path must use :func:`storage_physical_path` instead.
    """
    raw = str(db)
    if fs is not None:
        path = Path(db)
        return StorageTarget(fs=fs, path=path, physical=path, url=raw)
    split = _split_storage_url(db)
    if split is None:
        path = Path(db)
        return StorageTarget(
            fs=FileBackend(), path=path, physical=path, url=f"file:{path}"
        )
    scheme, rest = split
    return _FACTORIES[scheme](rest, raw)
