"""ConcurrentObjectbase: snapshot isolation, COW publish, write locking."""

from __future__ import annotations

import threading

import pytest

from repro.concurrent import ConcurrentObjectbase, SchemaSnapshot
from repro.core.derivation import derive
from repro.core.errors import (
    DuplicateTypeError,
    LockTimeoutError,
    UnknownTypeError,
)
from repro.core.operations import (
    AddEssentialProperty,
    AddType,
    DropType,
)
from repro.core.properties import prop


def snapshot_is_internally_consistent(snap: SchemaSnapshot) -> bool:
    """The oracle: re-deriving the snapshot's designer terms from scratch
    must reproduce exactly the derived terms it carries."""
    fresh = derive(snap._pe, snap._ne)
    return fresh.fingerprint() == snap.derivation.fingerprint()


class TestReads:
    def test_snapshot_survives_later_mutation(self):
        store = ConcurrentObjectbase.in_memory()
        store.apply(AddType("T_person"))
        snap = store.snapshot
        store.apply(AddType("T_student", ("T_person",)))
        assert "T_student" not in snap
        assert "T_student" in store.snapshot
        assert snapshot_is_internally_consistent(snap)
        assert snapshot_is_internally_consistent(store.snapshot)

    def test_card_served_from_snapshot(self):
        store = ConcurrentObjectbase.in_memory()
        store.apply(AddType("T_person", properties=(prop("p.name", "name"),)))
        store.apply(AddType("T_student", ("T_person",)))
        card = store.card("T_student")
        assert card.p == frozenset({"T_person"})
        assert {p.semantics for p in card.i} == {"p.name"}
        with pytest.raises(UnknownTypeError):
            store.card("T_missing")

    def test_len_contains_types(self):
        store = ConcurrentObjectbase.in_memory()
        store.apply(AddType("T_a"))
        assert "T_a" in store
        assert "T_b" not in store
        assert len(store) == len(store.types())

    def test_cow_reuses_untouched_entries(self):
        store = ConcurrentObjectbase.in_memory()
        store.apply(AddType("T_person"))
        store.apply(AddType("T_student", ("T_person",)))
        before = store.snapshot
        store.apply(AddEssentialProperty("T_student", prop("s.gpa", "gpa")))
        after = store.snapshot
        assert after is not before
        # Untouched type: the very same row objects, not copies.
        assert after._pe["T_person"] is before._pe["T_person"]
        assert after.derivation.i["T_person"] is before.derivation.i["T_person"]
        # Touched type: refreshed.
        assert after._ne["T_student"] is not before._ne["T_student"]

    def test_failed_mutation_keeps_previous_snapshot(self):
        store = ConcurrentObjectbase.in_memory()
        store.apply(AddType("T_a"))
        snap = store.snapshot
        with pytest.raises(DuplicateTypeError):
            store.apply(AddType("T_a"))
        assert store.snapshot is snap  # nothing changed, nothing published


class TestWrites:
    def test_lock_timeout_is_typed(self):
        store = ConcurrentObjectbase.in_memory(lock_timeout=0.02)
        store._lock.acquire()
        try:
            with pytest.raises(LockTimeoutError):
                store.apply(AddType("T_a"))
        finally:
            store._lock.release()
        store.apply(AddType("T_a"))  # recovered once the lock freed up

    def test_batch_publishes_once(self):
        store = ConcurrentObjectbase.in_memory()
        store.apply(AddType("T_person"))
        seen: set[frozenset[str]] = set()
        stop = threading.Event()

        def reader():
            while not stop.is_set():
                seen.add(store.snapshot.types())

        t = threading.Thread(target=reader)
        t.start()
        try:
            for i in range(20):
                with store.batch() as txn:
                    txn.apply_all([
                        AddType(f"T_a{i}", ("T_person",)),
                        AddType(f"T_b{i}", (f"T_a{i}",)),
                    ])
        finally:
            stop.set()
            t.join()
        # Atomicity: no observed state ever contains T_a<i> without
        # its batch-mate T_b<i>.
        for types in seen:
            for i in range(20):
                assert (f"T_a{i}" in types) == (f"T_b{i}" in types)

    def test_batch_rolls_back_atomically(self):
        store = ConcurrentObjectbase.in_memory()
        store.apply(AddType("T_person"))
        snap = store.snapshot
        with pytest.raises(DuplicateTypeError):
            with store.batch() as txn:
                txn.apply_all([
                    AddType("T_new"),
                    AddType("T_person"),  # dies; the whole batch rolls back
                ])
        assert "T_new" not in store
        assert store.snapshot.types() == snap.types()

    def test_undo_republishes(self):
        store = ConcurrentObjectbase.in_memory()
        store.apply(AddType("T_a"))
        store.undo()
        assert "T_a" not in store.snapshot

    def test_normalize_republishes(self):
        store = ConcurrentObjectbase.in_memory()
        store.apply(AddType("T_person"))
        store.apply(AddType("T_student", ("T_person",)))
        # Redundant essential edge for normalize to drop.
        store.apply(AddType("T_ta", ("T_student", "T_person")))
        report = store.normalize()
        assert report.dropped_supertype_declarations >= 1
        assert "T_person" not in store.snapshot.pe("T_ta")
        assert "T_student" in store.snapshot.pe("T_ta")


class TestStress:
    THREADS = 4
    OPS = 25

    def test_readers_always_see_consistent_snapshots(self):
        """Concurrent readers under writer churn: every observed snapshot
        passes the re-derivation oracle and is never torn."""
        store = ConcurrentObjectbase.in_memory(lock_timeout=30.0)
        store.apply(AddType("T_person"))
        failures: list[str] = []
        stop = threading.Event()

        def writer(w: int):
            for j in range(self.OPS):
                name = f"T_w{w}_{j}"
                store.apply(AddType(name, ("T_person",)))
                if j % 5 == 4:
                    store.apply(DropType(name))

        def reader():
            while not stop.is_set():
                snap = store.snapshot
                if not snapshot_is_internally_consistent(snap):
                    failures.append(f"inconsistent snapshot: {snap!r}")
                    return
                for t in snap.types():
                    snap.card(t)  # every term of every type resolvable

        writers = [
            threading.Thread(target=writer, args=(w,))
            for w in range(self.THREADS)
        ]
        readers = [threading.Thread(target=reader) for _ in range(2)]
        for t in readers:
            t.start()
        for t in writers:
            t.start()
        for t in writers:
            t.join()
        stop.set()
        for t in readers:
            t.join()
        assert not failures
        survivors = {
            f"T_w{w}_{j}"
            for w in range(self.THREADS)
            for j in range(self.OPS)
            if j % 5 != 4
        }
        assert survivors <= store.types()
        assert snapshot_is_internally_consistent(store.snapshot)

    def test_durable_store_under_concurrent_writers(self, tmp_path):
        store = ConcurrentObjectbase.open(
            tmp_path / "schema.wal", lock_timeout=30.0
        )

        def writer(w: int):
            for j in range(10):
                store.apply(AddType(f"T_w{w}_{j}"))

        threads = [
            threading.Thread(target=writer, args=(w,)) for w in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        reopened = ConcurrentObjectbase.open(tmp_path / "schema.wal")
        expected = {f"T_w{w}_{j}" for w in range(4) for j in range(10)}
        assert expected <= reopened.types()
