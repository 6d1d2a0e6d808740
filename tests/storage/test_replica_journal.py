"""The replica's WAL mirror under storage faults, on every backend.

A conformance suite (see ``conftest.py``): :class:`ReplicaStore` keeps
its mirror on the shared :class:`~repro.storage.journal.JournalFile`
engine, so transient faults are retried with rollback, and a fault that
outlasts the retries leaves the store exactly what a fresh open of the
same substrate loads — position, prefix CRC and published types.
"""

import json
import time
from pathlib import Path

import pytest

from repro.concurrent import ConcurrentObjectbase
from repro.core import AddType, JournalError
from repro.core.errors import DegradedModeError, ReplicaDivergedError
from repro.obs.metrics import REGISTRY
from repro.replication import (
    ReplicaStore,
    ReplicationClient,
    ReplicationServer,
    ReplicationSource,
)
from repro.replication.protocol import Position
from repro.storage.framing import DurabilityPolicy, encode_frame
from repro.storage.journal import DurableLattice, JournalFile
from repro.storage.reliability import RetryPolicy

ALWAYS = DurabilityPolicy(fsync="always")


def shipped(*names: str, generation: int = 0) -> list[str]:
    """``AddType`` frames as a primary ships them (newline stripped)."""
    return [
        encode_frame(
            json.dumps(AddType(name).to_dict(), sort_keys=True), generation
        ).decode("utf-8").rstrip("\n")
        for name in names
    ]


def shipped_bytes(*names: str, generation: int = 0) -> list[bytes]:
    """The same frames as they sit in a WAL."""
    return [
        (frame + "\n").encode()
        for frame in shipped(*names, generation=generation)
    ]


def wal_bytes(backend, wal: Path) -> bytes:
    fs = backend.fresh()
    return fs.read_bytes(wal) if fs.exists(wal) else b""


def assert_matches_fresh_open(store, backend, wal: Path) -> None:
    fresh = ReplicaStore(wal, fs=backend.fresh())
    assert store.position == fresh.position
    assert store.tail_crc == fresh.tail_crc
    assert store.types() == fresh.types()


class TestTransientFaults:
    def test_transient_fsync_eio_lands_the_frame_once(
        self, backend, tmp_path
    ):
        wal = tmp_path / "r.wal"
        frames = shipped("T_a")
        store = ReplicaStore(
            wal, durability=ALWAYS,
            fs=backend.faulty(transient_fsync_failures=1),
        )
        assert store.apply_records(0, 0, frames) == 1
        # A reconnect re-ships whatever lies past the reported position.
        at = store.position
        store.apply_records(at.generation, at.index, frames[at.index:])
        reopened = ReplicaStore(wal, durability=ALWAYS, fs=backend.fresh())
        assert wal_bytes(backend, wal) == shipped_bytes("T_a")[0]
        assert reopened.position == store.position == Position(0, 1)
        assert reopened.types() == store.types()
        assert "T_a" in reopened.types()

    def test_transient_append_failures_leave_no_duplicate_bytes(
        self, backend, tmp_path
    ):
        wal = tmp_path / "r.wal"
        frames = shipped("T_a", "T_b", "T_c")
        store = ReplicaStore(
            wal, fs=backend.faulty(transient_append_failures=2)
        )
        assert store.apply_records(0, 0, frames) == 3
        assert wal_bytes(backend, wal) == b"".join(
            shipped_bytes("T_a", "T_b", "T_c")
        )
        assert_matches_fresh_open(store, backend, wal)


class TestExhaustedRetries:
    def test_failed_batch_leaves_the_durable_prefix(self, backend, tmp_path):
        wal = tmp_path / "r.wal"
        frames = shipped("T_a", "T_b", "T_c")
        fs = backend.faulty()
        store = ReplicaStore(wal, fs=fs)
        store.apply_records(0, 0, frames[:1])
        fs.enospc_appends = store.file.retry.attempts
        with pytest.raises(DegradedModeError):
            store.apply_records(0, 1, frames[1:])
        assert store.position == Position(0, 1)
        assert store.types() >= {"T_a"}
        assert not store.types() & {"T_b", "T_c"}
        assert_matches_fresh_open(store, backend, wal)

    def test_next_batch_at_the_durable_position_applies(
        self, backend, tmp_path
    ):
        wal = tmp_path / "r.wal"
        frames = shipped("T_a", "T_b", "T_c")
        fs = backend.faulty()
        store = ReplicaStore(wal, fs=fs)
        store.apply_records(0, 0, frames[:1])
        fs.enospc_appends = store.file.retry.attempts
        with pytest.raises(DegradedModeError):
            store.apply_records(0, 1, frames[1:])
        at = store.position
        assert store.apply_records(
            at.generation, at.index, frames[at.index:]
        ) == 2
        assert store.position == Position(0, 3)
        assert {"T_a", "T_b", "T_c"} <= store.types()
        assert wal_bytes(backend, wal) == b"".join(
            shipped_bytes("T_a", "T_b", "T_c")
        )
        assert_matches_fresh_open(store, backend, wal)

    def test_failed_checkpoint_install_keeps_the_old_state(
        self, backend, tmp_path
    ):
        wal = tmp_path / "r.wal"
        fs = backend.faulty()
        store = ReplicaStore(wal, fs=fs)
        store.apply_records(0, 0, shipped("T_a"))
        fs.enospc_writes = 1
        with pytest.raises(JournalError, match="previous checkpoint"):
            store.install_checkpoint(None, 3)
        assert store.position == Position(0, 1)
        assert "T_a" in store.types()
        assert_matches_fresh_open(store, backend, wal)


class TestEngineRejection:
    def test_rejected_record_is_never_written(self, backend, tmp_path):
        wal = tmp_path / "r.wal"
        store = ReplicaStore(wal, fs=backend.fresh())
        store.apply_records(0, 0, shipped("T_a"))
        before = wal_bytes(backend, wal)
        with pytest.raises(ReplicaDivergedError):
            store.apply_records(0, 1, shipped("T_b", "T_a"))
        # The record ahead of the rejected one is durable and published.
        assert wal_bytes(backend, wal) == before + shipped_bytes("T_b")[0]
        assert store.position == Position(0, 2)
        assert "T_b" in store.types()
        assert_matches_fresh_open(store, backend, wal)


class TestRecovery:
    def test_reopen_sweeps_a_stale_checkpoint_temp(self, backend, tmp_path):
        wal = tmp_path / "r.wal"
        ReplicaStore(wal, fs=backend.fresh()).install_checkpoint(None, 1)
        stale = tmp_path / "r.wal.checkpoint.tmp"
        backend.fresh().write_bytes(stale, b'{"format": 2, "gener')
        store = ReplicaStore(wal, fs=backend.fresh())
        assert not backend.fresh().exists(stale)
        assert store.position == Position(1, 0)

    def test_recovery_report_records_a_healed_torn_tail(
        self, backend, tmp_path
    ):
        wal = tmp_path / "r.wal"
        ReplicaStore(wal, fs=backend.fresh()).apply_records(
            0, 0, shipped("T_a")
        )
        torn = shipped("T_b")[0].encode()[:20]
        backend.fresh().append_bytes(wal, torn)
        store = ReplicaStore(wal, fs=backend.fresh())
        report = store.recovery_report
        assert not report.clean
        assert report.torn_tail_bytes == len(torn)
        assert report.records_recovered == 1
        assert store.position == Position(0, 1)
        assert ReplicaStore(wal, fs=backend.fresh()).recovery_report.clean

    def test_appends_count_as_wal_appends(self, backend, tmp_path):
        store = ReplicaStore(tmp_path / "r.wal", fs=backend.fresh())
        before = REGISTRY.get("repro_wal_appends_total").value
        store.apply_records(0, 0, shipped("T_a", "T_b"))
        assert REGISTRY.get("repro_wal_appends_total").value == before + 2


class TestLiveFrames:
    """The shipper's read-only view of a log another process writes."""

    @pytest.mark.parametrize(
        "damage", [b'#W1 0 40 0badf00d {"co', b"junk\n"], ids=["torn", "corrupt"]
    )
    def test_damaged_tail_is_just_not_there_yet(
        self, backend, tmp_path, damage
    ):
        wal = tmp_path / "p.wal"
        fs = backend.fresh()
        for frame in shipped_bytes("T_a", "T_b"):
            fs.append_bytes(wal, frame)
        fs.append_bytes(wal, damage)
        before = fs.read_bytes(wal)
        crc_failures = REGISTRY.get("repro_wal_crc_failures_total").value
        generation, frames = JournalFile(wal, fs=fs).live_frames()
        assert generation == 0
        assert frames == shipped_bytes("T_a", "T_b")
        assert fs.read_bytes(wal) == before
        assert REGISTRY.get("repro_wal_crc_failures_total").value \
            == crc_failures

    def test_generation_is_reread_on_every_call(self, backend, tmp_path):
        wal = tmp_path / "p.wal"
        reader = JournalFile(wal, fs=backend.fresh())
        writer = DurableLattice(wal, fs=backend.fresh())
        writer.apply(AddType("T_a"))
        assert reader.live_frames() == (0, shipped_bytes("T_a"))
        writer.checkpoint()
        writer.apply(AddType("T_b"))
        assert reader.live_frames() == (1, shipped_bytes("T_b", generation=1))


def test_client_survives_a_storage_fault(backend, tmp_path):
    primary = ConcurrentObjectbase.open(tmp_path / "p.wal")
    for name in ("T_a", "T_b"):
        primary.apply(AddType(name))
    hub = ReplicationServer(
        ReplicationSource(tmp_path / "p.wal"),
        poll_interval=0.01, heartbeat_interval=0.05,
    ).start()
    fs = backend.faulty()
    fs.enospc_appends = 3  # the engine's default retry budget
    store = ReplicaStore(tmp_path / "r.wal", fs=fs)
    client = ReplicationClient(
        store, *hub.address,
        retry=RetryPolicy(attempts=3, base_delay=0.01, max_delay=0.05),
    )
    client.start()
    try:
        deadline = time.time() + 10.0
        while not {"T_a", "T_b"} <= store.types():
            assert client.is_alive(), "a storage fault killed the client"
            assert time.time() < deadline, client.last_error
            time.sleep(0.02)
        assert fs.enospc_appends == 0
        assert_matches_fresh_open(store, backend, tmp_path / "r.wal")
    finally:
        client.stop()
        hub.stop()
