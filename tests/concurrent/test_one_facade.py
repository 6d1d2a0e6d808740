"""The writer lock and snapshot publishing of the one facade, api.Objectbase."""

from __future__ import annotations

import ast
import sys
import threading
import time
from pathlib import Path

import pytest

import repro.api
import repro.concurrent
from repro.api import Objectbase
from repro.core.errors import DuplicateTypeError
from repro.core.operations import AddType
from repro.core.transactions import TransactionError


def wait_for(predicate, timeout: float = 10.0) -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never became true"
        time.sleep(0.005)


def identifier(node: ast.AST) -> str | None:
    """The name a node binds or refers to, if it is a named node."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.alias):
        return node.asname or node.name
    if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
        return node.name
    return None


class TestBatchOwnership:
    def test_other_thread_waits_and_survives_rollback(self):
        """Thread B's write waits for thread A's open batch and is not
        part of it: A's rollback keeps B's type."""
        ob = Objectbase.in_memory(lock_timeout=30.0)
        ob.add_type("T_a0")
        in_batch = threading.Event()
        b_done = threading.Event()

        def other() -> None:
            in_batch.wait()
            ob.apply(AddType("T_b"))
            b_done.set()

        thread = threading.Thread(target=other)
        thread.start()
        try:
            with pytest.raises(DuplicateTypeError):
                with ob.batch():
                    ob.add_type("T_a1")  # this thread's call joins the batch
                    in_batch.set()
                    wait_for(lambda: ob._lock.waiters == 1)
                    assert not b_done.is_set()
                    ob.add_type("T_a0")  # dies; the batch rolls back
        finally:
            in_batch.set()
            thread.join(timeout=30)
        assert b_done.is_set()
        assert "T_b" in ob
        assert "T_a1" not in ob

    def test_failing_batches_never_take_other_threads_writes(self):
        """Stress: batches that roll back, beside single writes from
        other threads; every single write survives, no batch member does,
        and readers never see half a batch."""
        ob = Objectbase.in_memory(lock_timeout=30.0)
        ob.add_type("T_dup")
        ob.snapshot
        torn: list[frozenset] = []
        committed: list[str] = []
        stop = threading.Event()

        def batcher(w: int) -> None:
            for j in range(10):
                try:
                    with ob.batch():
                        ob.add_type(f"T_batch{w}_{j}")
                        ob.add_type("T_dup")
                except DuplicateTypeError:
                    continue
                committed.append(f"T_batch{w}_{j}")

        def single(w: int) -> None:
            for j in range(10):
                ob.add_type(f"T_single{w}_{j}")

        def reader() -> None:
            while not stop.is_set():
                types = ob.snapshot.types()
                if any(t.startswith("T_batch") for t in types):
                    torn.append(types)

        workers = [threading.Thread(target=batcher, args=(w,)) for w in range(3)]
        workers += [threading.Thread(target=single, args=(w,)) for w in range(3)]
        readers = [threading.Thread(target=reader) for _ in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in readers + workers:
                t.start()
            for t in workers:
                t.join(timeout=60)
                assert not t.is_alive()
        finally:
            stop.set()
            for t in readers:
                t.join(timeout=60)
            sys.setswitchinterval(interval)
        assert not torn and not committed
        types = ob.snapshot.types()
        assert types == ob.types()
        assert {f"T_single{w}_{j}" for w in range(3) for j in range(10)} <= types
        assert not any(t.startswith("T_batch") for t in types)

    def test_first_snapshot_read_inside_own_write_is_refused(self):
        ob = Objectbase.in_memory()
        with ob.batch():
            with pytest.raises(TransactionError):
                ob.snapshot


class TestPublishing:
    K = 20

    def test_unread_snapshot_keeps_derivations_coalesced(self):
        ob = Objectbase.in_memory()
        ob.add_type("T_base")
        ob.card("T_base")
        stats = ob.lattice.stats
        full = stats["full_derivations"]
        incremental = stats["incremental_derivations"]
        for i in range(self.K):
            ob.apply(AddType(f"T_{i}", ("T_base",)))
        assert ob.card(f"T_{self.K - 1}").p == frozenset({"T_base"})
        assert stats["incremental_derivations"] == incremental + 1
        assert stats["full_derivations"] == full
        assert ob._snapshot is None

    def test_published_writes_are_visible_without_the_lock(self):
        ob = Objectbase.in_memory()
        first = ob.snapshot
        for i in range(3):
            ob.add_type(f"T_{i}")
            ob._lock.acquire()  # a stuck writer holds the lock
            try:
                assert f"T_{i}" in ob.snapshot
                assert f"T_{i}" not in first
            finally:
                ob._lock.release()


class TestOneFacade:
    def test_compatibility_name_is_the_facade(self):
        assert repro.concurrent.ConcurrentObjectbase is repro.api.Objectbase

    def test_only_the_compatibility_module_names_it(self):
        root = Path(repro.__file__).parent
        naming = {
            str(path.relative_to(root))
            for path in root.rglob("*.py")
            for node in ast.walk(ast.parse(path.read_text()))
            if identifier(node) == "ConcurrentObjectbase"
        }
        assert naming == {"concurrent.py"}
