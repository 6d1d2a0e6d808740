"""Unit tests for the storage backend abstraction itself.

The crash matrix (``test_crash_matrix.py``) proves the backends honor
the recovery contract; this file covers the seams around it: URL
resolution, capability probes, the byte-stream conformance of each
primitive, sqlite's busy-retry mapping and transactional rename, and
the object store's orphan-segment GC.
"""

import errno
import threading

import pytest

from repro.core.errors import JournalError
from repro.storage import (
    FileBackend,
    ObjectStoreBackend,
    SqliteBackend,
    StorageBackend,
    atomic_write_bytes,
    backend_schemes,
    register_backend,
    resolve_storage_url,
    storage_physical_path,
)
from repro.storage.reliability import DegradedLatch, RetryPolicy, append_record


class TestResolveStorageUrl:
    def test_bare_path_is_the_file_backend(self, tmp_path):
        target = resolve_storage_url(tmp_path / "wal")
        assert isinstance(target.fs, FileBackend)
        assert target.path == tmp_path / "wal"
        assert target.physical == tmp_path / "wal"

    def test_file_scheme(self, tmp_path):
        target = resolve_storage_url(f"file:{tmp_path}/wal")
        assert isinstance(target.fs, FileBackend)
        assert target.path == tmp_path / "wal"

    def test_single_letter_scheme_is_a_windows_drive(self):
        # "C:\\data\\wal" must parse as a path, not a backend URL.
        target = resolve_storage_url("C:/data/wal")
        assert isinstance(target.fs, FileBackend)

    def test_sqlite_scheme(self, tmp_path):
        target = resolve_storage_url(f"sqlite:{tmp_path}/store.sqlite")
        assert isinstance(target.fs, SqliteBackend)
        assert str(target.path) == "wal"
        assert target.physical == tmp_path / "store.sqlite"
        target.fs.close()

    def test_objstore_scheme(self, tmp_path):
        target = resolve_storage_url(f"objstore:{tmp_path}/store")
        assert isinstance(target.fs, ObjectStoreBackend)
        assert str(target.path) == "wal"
        assert target.physical == tmp_path / "store"

    def test_unknown_scheme_is_a_typed_error(self):
        with pytest.raises(JournalError, match="unknown storage backend"):
            resolve_storage_url("redis://localhost/0")

    def test_empty_rest_is_rejected(self):
        with pytest.raises(JournalError):
            resolve_storage_url("sqlite:")

    def test_explicit_fs_always_wins(self, tmp_path):
        # Fault injection and pre-built backends pass fs directly; the
        # path is then used verbatim, no URL resolution.
        fs = FileBackend()
        target = resolve_storage_url(tmp_path / "wal", fs=fs)
        assert target.fs is fs
        assert target.path == tmp_path / "wal"

    def test_registry_is_extensible(self, tmp_path):
        class NullBackend(FileBackend):
            scheme = "null"

        def factory(rest, raw):
            from repro.storage.backend import StorageTarget
            return StorageTarget(
                fs=NullBackend(), path=tmp_path / rest,
                physical=tmp_path / rest, url=raw,
            )

        register_backend("null", factory)
        try:
            assert "null" in backend_schemes()
            target = resolve_storage_url("null:wal")
            assert isinstance(target.fs, NullBackend)
        finally:
            from repro.storage.backend import _FACTORIES
            _FACTORIES.pop("null", None)


class TestStoragePhysicalPath:
    """The side-effect-free anchor resolver (lease placement runs this
    *before* ownership is established, so it must not touch the store)."""

    def test_all_schemes_anchor_at_the_url_path(self, tmp_path):
        assert storage_physical_path(tmp_path / "wal") == tmp_path / "wal"
        assert (
            storage_physical_path(f"file:{tmp_path}/wal")
            == tmp_path / "wal"
        )
        assert (
            storage_physical_path(f"sqlite:{tmp_path}/store.sqlite")
            == tmp_path / "store.sqlite"
        )
        assert (
            storage_physical_path(f"objstore:{tmp_path}/store")
            == tmp_path / "store"
        )

    def test_resolution_is_pure(self, tmp_path):
        """No database created, no object-store root initialised — a
        failover candidate anchoring its lease must not mutate a store
        it does not own (resolve_storage_url would create both)."""
        storage_physical_path(f"sqlite:{tmp_path}/sub/store.sqlite")
        storage_physical_path(f"objstore:{tmp_path}/sub/store")
        assert list(tmp_path.iterdir()) == []

    def test_unknown_scheme_is_a_typed_error(self):
        with pytest.raises(JournalError, match="unknown storage backend"):
            storage_physical_path("redis://localhost/0")

    def test_windows_drive_is_a_path(self):
        assert str(storage_physical_path("C:/data/wal")) == "C:/data/wal"


class TestCapabilityProbes:
    def test_file_backend(self):
        fs = FileBackend()
        assert fs.supports_atomic_replace
        assert not fs.supports_transactions
        assert not fs.durable_rename
        assert not fs.durable_writes

    def test_sqlite_backend(self, tmp_path):
        fs = SqliteBackend(tmp_path / "db")
        assert fs.supports_atomic_replace
        assert fs.supports_transactions
        assert fs.durable_rename
        assert fs.durable_writes
        fs.close()

    def test_objstore_backend(self, tmp_path):
        fs = ObjectStoreBackend(tmp_path / "store")
        assert fs.supports_atomic_replace
        assert not fs.supports_transactions
        assert fs.durable_rename
        assert fs.durable_writes

    def test_base_class_defaults(self):
        assert StorageBackend.supports_atomic_replace
        assert not StorageBackend.supports_transactions


class TestPrimitiveConformance:
    """Byte-stream semantics every backend must share (backend fixture:
    the whole class runs once per backend)."""

    def test_append_read_size_exists(self, backend, tmp_path):
        fs = backend.fresh()
        path = tmp_path / "stream"
        assert not fs.exists(path)
        fs.append_bytes(path, b"one\n")
        fs.append_bytes(path, b"two\n")
        assert fs.exists(path)
        assert fs.read_bytes(path) == b"one\ntwo\n"
        assert fs.size(path) == 8
        # A restarted instance sees the same bytes.
        assert backend.fresh().read_bytes(path) == b"one\ntwo\n"

    def test_write_replaces_whole_stream(self, backend, tmp_path):
        fs = backend.fresh()
        path = tmp_path / "stream"
        fs.append_bytes(path, b"old content")
        fs.write_bytes(path, b"new")
        assert fs.read_bytes(path) == b"new"

    def test_truncate_cuts_to_prefix(self, backend, tmp_path):
        fs = backend.fresh()
        path = tmp_path / "stream"
        fs.write_bytes(path, b"0123456789")
        fs.truncate(path, 4)
        assert fs.read_bytes(path) == b"0123"
        assert fs.size(path) == 4

    def test_replace_moves_atomically(self, backend, tmp_path):
        fs = backend.fresh()
        src, dst = tmp_path / "src", tmp_path / "dst"
        fs.write_bytes(src, b"payload")
        fs.write_bytes(dst, b"stale")
        fs.replace(src, dst)
        assert fs.read_bytes(dst) == b"payload"
        assert not fs.exists(src)

    def test_unlink_is_idempotent(self, backend, tmp_path):
        fs = backend.fresh()
        path = tmp_path / "stream"
        fs.write_bytes(path, b"x")
        fs.unlink(path)
        assert not fs.exists(path)
        fs.unlink(path)  # missing_ok semantics

    def test_size_of_missing_stream_raises(self, backend, tmp_path):
        fs = backend.fresh()
        with pytest.raises(FileNotFoundError):
            fs.size(tmp_path / "nope")

    def test_atomic_write_bytes_lands_whole(self, backend, tmp_path):
        fs = backend.fresh()
        path = tmp_path / "doc"
        atomic_write_bytes(fs, path, b"v1")
        atomic_write_bytes(fs, path, b"v2")
        assert fs.read_bytes(path) == b"v2"
        # No temp residue survives a successful publish.
        assert not fs.exists(path.with_suffix(path.suffix + ".tmp"))


class TestSqliteBackend:
    def test_busy_is_mapped_to_ebusy(self, tmp_path):
        a = SqliteBackend(tmp_path / "db", busy_timeout=0.05)
        b = SqliteBackend(tmp_path / "db", busy_timeout=0.05)
        path = tmp_path / "stream"
        a.append_bytes(path, b"seed\n")
        with a.transaction() as conn:
            # Hold the write lock open across the other connection's try.
            conn.execute(
                "INSERT INTO frames (path, seq, data) VALUES ('h', 0, ?)",
                (b"held\n",),
            )
            with pytest.raises(OSError) as excinfo:
                b.append_bytes(path, b"blocked\n")
            assert excinfo.value.errno == errno.EBUSY
        a.close()
        b.close()

    def test_busy_rides_the_retry_policy(self, tmp_path):
        """A lock held briefly by another connection is absorbed by the
        same RetryPolicy that handles transient EIO — no new error
        taxonomy for backend contention."""
        a = SqliteBackend(tmp_path / "db", busy_timeout=0.05)
        b = SqliteBackend(tmp_path / "db", busy_timeout=0.05)
        path = tmp_path / "stream"
        a.append_bytes(path, b"seed\n")
        release = threading.Event()

        def holder():
            with a.transaction() as conn:
                conn.execute(
                    "INSERT INTO frames (path, seq, data) "
                    "VALUES ('h', 0, ?)",
                    (b"held\n",),
                )
                release.wait(timeout=5.0)

        t = threading.Thread(target=holder)
        t.start()
        try:
            import time

            time.sleep(0.05)  # let the holder take the write lock

            def unlock_then_sleep(_attempt):
                release.set()
                time.sleep(0.2)

            append_record(
                b, path, b"retried\n",
                retry=RetryPolicy(attempts=5, sleep=unlock_then_sleep),
                latch=DegradedLatch(store=str(path)),
            )
        finally:
            release.set()
            t.join()
        assert b.read_bytes(path).endswith(b"retried\n")
        a.close()
        b.close()

    def test_transactional_replace_rekeys_frames(self, tmp_path):
        fs = SqliteBackend(tmp_path / "db")
        src, dst = tmp_path / "a", tmp_path / "b"
        fs.append_bytes(src, b"one\n")
        fs.append_bytes(src, b"two\n")
        fs.replace(src, dst)
        assert fs.read_bytes(dst) == b"one\ntwo\n"
        assert not fs.exists(src)
        fs.close()

    def test_replace_missing_source_raises(self, tmp_path):
        fs = SqliteBackend(tmp_path / "db")
        with pytest.raises(FileNotFoundError):
            fs.replace(tmp_path / "missing", tmp_path / "dst")
        fs.close()

    def test_operations_survive_connection_loss(self, tmp_path):
        fs = SqliteBackend(tmp_path / "db")
        fs.append_bytes(tmp_path / "s", b"committed\n")
        fs.simulate_torn_append(tmp_path / "s", b"partial-uncommitted\n")
        # The torn transaction rolled back with the dead connection.
        fresh = SqliteBackend(tmp_path / "db")
        assert fresh.read_bytes(tmp_path / "s") == b"committed\n"
        fresh.close()

    def test_commit_failure_does_not_wedge_the_connection(self, tmp_path):
        """A failed COMMIT must leave the connection outside any
        transaction: without the rollback, every later BEGIN IMMEDIATE
        fails with 'cannot start a transaction within a transaction'
        and one transient fault permanently wedges the backend."""
        import sqlite3

        fs = SqliteBackend(tmp_path / "db")

        class FailNextCommit:
            def __init__(self, conn):
                self._conn = conn
                self.armed = True

            def execute(self, sql, *args):
                if sql == "COMMIT" and self.armed:
                    self.armed = False
                    raise sqlite3.OperationalError("disk I/O error")
                return self._conn.execute(sql, *args)

            def __getattr__(self, name):
                return getattr(self._conn, name)

        fs._conn = FailNextCommit(fs._conn)
        path = tmp_path / "s"
        with pytest.raises(OSError) as excinfo:
            fs.append_bytes(path, b"lost\n")
        assert excinfo.value.errno == errno.EIO
        # The backend recovered: the next transaction begins cleanly
        # (the retry layer relies on exactly this).
        fs.append_bytes(path, b"after\n")
        assert fs.read_bytes(path) == b"after\n"
        fs.close()


class TestObjectStoreBackend:
    def test_segments_are_content_addressed_and_shared(self, tmp_path):
        fs = ObjectStoreBackend(tmp_path / "store")
        fs.write_bytes(tmp_path / "a", b"same bytes")
        fs.write_bytes(tmp_path / "b", b"same bytes")
        segments = [
            p for p in (tmp_path / "store" / "segments").iterdir()
            if p.suffix == ".seg"
        ]
        assert len(segments) == 1  # deduplicated by content hash

    def test_orphan_segments_are_collected_by_owner_gc(self, tmp_path):
        fs = ObjectStoreBackend(tmp_path / "store")
        fs.append_bytes(tmp_path / "wal", b"live\n")
        # A manifest-swap crash: segment written, pointer never swapped.
        fs.simulate_torn_append(tmp_path / "wal", b"orphan\n")
        segments_dir = tmp_path / "store" / "segments"
        before = {p.name for p in segments_dir.iterdir()}
        assert len(before) == 2
        # The next exclusive owner opts into the sweep (grace=0: the
        # "residue" is seconds old in this test, hours old in life).
        restarted = ObjectStoreBackend(
            tmp_path / "store", gc_on_open=True, gc_grace=0.0
        )
        assert restarted.gc_removed == 1
        assert restarted.read_bytes(tmp_path / "wal") == b"live\n"
        after = {p.name for p in segments_dir.iterdir()}
        assert len(after) == 1 and after < before

    def test_plain_open_never_collects(self, tmp_path):
        """Merely resolving the store (a replica, a pre-lease failover
        candidate) must not delete anything — another process's
        unpublished segment is indistinguishable from an orphan."""
        fs = ObjectStoreBackend(tmp_path / "store")
        fs.append_bytes(tmp_path / "wal", b"live\n")
        fs.simulate_torn_append(tmp_path / "wal", b"in-flight\n")
        segments_dir = tmp_path / "store" / "segments"
        before = {p.name for p in segments_dir.iterdir()}
        reader = ObjectStoreBackend(tmp_path / "store")
        assert reader.gc_removed == 0
        assert {p.name for p in segments_dir.iterdir()} == before

    def test_gc_grace_spares_fresh_orphans(self, tmp_path):
        """Within the grace period an unreferenced segment may be a live
        writer's append caught between segment write and manifest swap;
        GC must leave it alone."""
        fs = ObjectStoreBackend(tmp_path / "store")
        fs.append_bytes(tmp_path / "wal", b"live\n")
        fs.simulate_torn_append(tmp_path / "wal", b"in-flight\n")
        assert fs.gc(grace=3600.0) == 0
        assert fs.gc(grace=0.0) == 1

    def test_gc_spares_referenced_segments(self, tmp_path):
        fs = ObjectStoreBackend(tmp_path / "store")
        fs.append_bytes(tmp_path / "a", b"alpha\n")
        fs.append_bytes(tmp_path / "b", b"beta\n")
        restarted = ObjectStoreBackend(
            tmp_path / "store", gc_on_open=True, gc_grace=0.0
        )
        assert restarted.gc_removed == 0
        assert restarted.read_bytes(tmp_path / "a") == b"alpha\n"
        assert restarted.read_bytes(tmp_path / "b") == b"beta\n"

    def test_gc_sweeps_tmp_residue(self, tmp_path):
        fs = ObjectStoreBackend(tmp_path / "store")
        fs.write_bytes(tmp_path / "a", b"data")
        junk = tmp_path / "store" / "segments" / "deadbeef.seg.tmp"
        junk.write_bytes(b"partial segment write")
        # In-flight tmp files are protected by the grace period...
        assert fs.gc(grace=3600.0) == 0
        assert junk.exists()
        # ...and collected once they are stale residue.
        restarted = ObjectStoreBackend(
            tmp_path / "store", gc_on_open=True, gc_grace=0.0
        )
        assert restarted.gc_removed == 1
        assert not junk.exists()

    def test_manifest_coherent_across_instances(self, tmp_path):
        """Two live instances over one root (primary + replication
        source): writes through one are immediately visible through the
        other, because the manifest is re-read from disk per op."""
        writer = ObjectStoreBackend(tmp_path / "store")
        reader = ObjectStoreBackend(tmp_path / "store")
        writer.append_bytes(tmp_path / "wal", b"one\n")
        assert reader.read_bytes(tmp_path / "wal") == b"one\n"
        writer.append_bytes(tmp_path / "wal", b"two\n")
        assert reader.size(tmp_path / "wal") == 8

    def test_missing_referenced_segment_is_loud(self, tmp_path):
        fs = ObjectStoreBackend(tmp_path / "store")
        fs.write_bytes(tmp_path / "a", b"payload")
        for seg in (tmp_path / "store" / "segments").iterdir():
            seg.unlink()
        with pytest.raises(OSError, match="corrupt"):
            fs.read_bytes(tmp_path / "a")


class TestOwnerStorageGc:
    """The exclusive-owner sweep plumbed through the public surfaces
    (``Objectbase.storage_gc`` — what the fenced primary and ``repro
    recover`` call)."""

    def test_facade_gc_sweeps_aged_orphans(self, tmp_path):
        import os

        from repro.api import Objectbase

        url = f"objstore:{tmp_path}/store"
        ob = Objectbase.open(url)
        ob.add_type("T_person", properties=["person.name"])
        # Crash residue from a dead predecessor, aged past the grace.
        orphan = tmp_path / "store" / "segments" / ("0" * 64 + ".seg")
        orphan.write_bytes(b"orphaned segment")
        old = os.path.getmtime(orphan) - 3600
        os.utime(orphan, (old, old))
        assert ob.storage_gc() == 1
        assert not orphan.exists()
        # Live data is untouched and the store keeps working.
        reopened = Objectbase.open(url)
        assert "T_person" in reopened

    def test_facade_gc_is_zero_for_gc_free_backends(self, tmp_path):
        from repro.api import Objectbase

        assert Objectbase.open(str(tmp_path / "wal")).storage_gc() == 0
        assert Objectbase.in_memory().storage_gc() == 0
