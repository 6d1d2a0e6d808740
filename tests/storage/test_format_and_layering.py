"""Guards on the storage layer's on-disk format and module layering.

``data/parent_format`` was written by the storage code *before* both
durable stores moved onto the shared :class:`JournalFile` engine, and
must never be regenerated: it pins the on-disk format (file names,
``#W1`` frames, record JSON, checkpoint documents) across refactors.
``expected.json`` holds the state that code recovered from it.
``parent_format/replica`` was likewise written by the replica code
before :class:`ReplicaStore` moved onto the engine; its own
``expected.json`` pins the replica's position, prefix CRC and types,
plus the primary-side prefix CRC of the ``lattice`` WAL — the values
the replication handshake exchanges.
"""

import ast
import json
import shutil
from pathlib import Path

import pytest

from repro.core import (
    AddEssentialProperty,
    AddEssentialSupertype,
    AddType,
    SchemaError,
    prop,
)
from repro.replication import ReplicaStore, ReplicationSource
from repro.storage import (
    DurableObjectbase,
    FaultyFS,
    FileBackend,
    ObjectStoreBackend,
    SqliteBackend,
    StorageBackend,
    lattice_to_dict,
    objectbase_to_dict,
)
from repro.storage.framing import encode_frame
from repro.storage.journal import DurableLattice

FIXTURE = Path(__file__).parent / "data" / "parent_format"
SRC = Path(__file__).resolve().parents[2] / "src" / "repro"
REPLICA_FILES = ("r.wal", "r.wal.checkpoint")


@pytest.fixture
def fixture_copy(tmp_path):
    """A scratch copy (opening heals in place; the fixture stays pristine)."""
    shutil.copytree(FIXTURE, tmp_path / "copy")
    return tmp_path / "copy"


def expected(fixture: str = "") -> dict:
    return json.loads((FIXTURE / fixture / "expected.json").read_text())


def write_lattice_store(root: Path) -> None:
    """The workload that produced ``lattice/`` in the fixture."""
    root.mkdir()
    durable = DurableLattice(root / "schema.wal")
    durable.apply(
        AddType("T_person", properties=(prop("person.name", "name"),))
    )
    durable.apply(AddType("T_student", ("T_person",)))
    durable.checkpoint()
    durable.apply(
        AddEssentialProperty("T_student", prop("student.gpa", "gpa"))
    )
    durable.apply(AddType("T_employee", ("T_person",)))
    durable.apply(AddEssentialSupertype("T_student", "T_employee"))
    durable.apply(AddType("T_temp", ("T_person",)))
    durable.undo()


def write_objectbase_store(root: Path) -> None:
    """The workload that produced ``objectbase/``: a snapshot holding an
    instance, an aborted record, and a doomed final record (a crash
    between its append and its ``__abort__`` marker)."""
    durable = DurableObjectbase(root)
    durable.execute("define_stored_behavior", "p.name", "name", "T_string")
    durable.execute("define_stored_behavior", "s.gpa", "gpa", "T_real")
    durable.execute("at", "T_person", (), ("p.name",), True)
    durable.store.create_object("T_person", name="Ada")
    durable.checkpoint()
    durable.execute("at", "T_student", ("T_person",), ("s.gpa",), True)
    with pytest.raises(SchemaError):
        durable.execute("at", "T_person", (), (), False)
    durable.execute("al", "panel", "T_person")
    doomed = {
        "method": "at",
        "args": {"name": "T_student", "supertypes": [], "behaviors": [],
                 "with_class": False},
        "seq": durable._seq + 1,
    }
    with durable.wal_path.open("ab") as fh:
        fh.write(encode_frame(
            json.dumps(doomed, sort_keys=True), durable._generation
        ))


def write_replica_store(primary: Path, replica: Path) -> ReplicaStore:
    """The workload that produced ``replica/``: a primary checkpoint at
    generation 1 shipped to the replica, then the primary's live frames
    shipped in two batches."""
    primary.mkdir()
    durable = DurableLattice(primary / "p.wal")
    durable.apply(
        AddType("T_person", properties=(prop("person.name", "name"),))
    )
    durable.apply(AddType("T_student", ("T_person",)))
    durable.checkpoint()
    durable.apply(
        AddEssentialProperty("T_student", prop("student.gpa", "gpa"))
    )
    durable.apply(AddType("T_employee", ("T_person",)))
    durable.apply(AddEssentialSupertype("T_student", "T_employee"))
    source = ReplicationSource(primary / "p.wal")
    state, generation = source.checkpoint_state()
    frames = [
        f.decode("utf-8").rstrip("\n") for f in source.state().frames
    ]
    replica.mkdir()
    store = ReplicaStore(replica / "r.wal")
    store.install_checkpoint(state, generation)
    store.apply_records(generation, 0, frames[:1])
    store.apply_records(generation, 1, frames[1:])
    return store


class TestParentWrittenFixture:
    def test_lattice_store_opens_to_the_same_state(self, fixture_copy):
        wal = fixture_copy / "lattice" / "schema.wal"
        before = wal.read_bytes()
        durable = DurableLattice(wal)
        want = expected()["lattice"]
        assert lattice_to_dict(durable.lattice) == want["state"]
        assert durable.file.generation == want["generation"]
        assert len(durable) == want["history"]
        assert wal.read_bytes() == before  # a clean open rewrites nothing

    def test_objectbase_store_opens_to_the_same_state(self, fixture_copy):
        root = fixture_copy / "objectbase"
        before = (root / "schema.wal").read_bytes()
        durable = DurableObjectbase(root)
        want = expected()["objectbase"]
        assert objectbase_to_dict(durable.store) == want["state"]
        assert durable._generation == want["generation"]
        assert durable._seq == want["seq"]
        assert (root / "schema.wal").read_bytes() == before

    @pytest.mark.parametrize("store", ["lattice", "objectbase"])
    def test_same_workload_writes_identical_bytes(self, tmp_path, store):
        writer = {
            "lattice": write_lattice_store,
            "objectbase": write_objectbase_store,
        }[store]
        writer(tmp_path / store)
        for original in sorted((FIXTURE / store).iterdir()):
            written = tmp_path / store / original.name
            assert written.read_bytes() == original.read_bytes(), (
                f"{store}/{original.name} is no longer byte-identical"
            )


class TestParentWrittenReplica:
    def test_replica_reopens_to_the_same_position(self, fixture_copy):
        wal = fixture_copy / "replica" / "r.wal"
        before = wal.read_bytes()
        store = ReplicaStore(wal)
        want = expected("replica")
        assert str(store.position) == want["position"]
        assert store.tail_crc == want["tail_crc"]
        assert sorted(store.types()) == want["types"]
        assert store.recovery_report.clean
        assert wal.read_bytes() == before  # a clean open rewrites nothing

    def test_same_workload_writes_identical_bytes(self, tmp_path):
        store = write_replica_store(tmp_path / "primary", tmp_path / "r")
        want = expected("replica")
        assert str(store.position) == want["position"]
        assert store.tail_crc == want["tail_crc"]
        for name in REPLICA_FILES:
            written = (tmp_path / "r" / name).read_bytes()
            assert written == (FIXTURE / "replica" / name).read_bytes(), (
                f"replica/{name} is no longer byte-identical"
            )

    def test_source_prefix_crc_of_the_lattice_wal(self, fixture_copy):
        source = ReplicationSource(fixture_copy / "lattice" / "schema.wal")
        state = source.state()
        want = expected("replica")
        assert str(state.position) == want["lattice_position"]
        assert source.prefix_crc(state, len(state.frames)) \
            == want["lattice_prefix_crc"]


def _imported_modules(path: Path) -> set[str]:
    """Absolute names of every module ``path`` imports (relative
    imports resolved against the module's package)."""
    package = path.relative_to(SRC.parent).with_suffix("").parts[:-1]
    names: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = list(package[: len(package) - node.level + 1]) \
                if node.level else []
            module = ".".join(base + ([node.module] if node.module else []))
            names.add(module)
            names.update(f"{module}.{alias.name}" for alias in node.names)
    return names


class TestLayering:
    def test_only_the_package_init_imports_fault_injection(self):
        allowed = SRC / "storage" / "__init__.py"
        offenders = [
            str(path.relative_to(SRC))
            for path in sorted(SRC.rglob("*.py"))
            if path != allowed
            and "repro.storage.faults" in _imported_modules(path)
        ]
        assert offenders == []

    def test_replication_touches_wals_only_through_the_engine(self):
        raw_io = {
            "read_log", "scan_log", "write_checkpoint", "timed_fsync",
            "load_checkpoint",
        }
        replication = sorted((SRC / "replication").rglob("*.py"))
        offenders = [
            f"{path.relative_to(SRC)}: {name}"
            for path in replication
            for name in sorted(_imported_modules(path))
            if name.rsplit(".", 1)[-1] in raw_io
        ]
        assert offenders == []
        # ...and the guard does see what replication imports.
        assert "repro.storage.journal.JournalFile" in _imported_modules(
            SRC / "replication" / "replica.py"
        )

    def test_import_resolution_sees_relative_imports(self):
        # The guard above is only as good as the resolver.
        names = _imported_modules(SRC / "storage" / "__init__.py")
        assert "repro.storage.faults" in names

    @pytest.mark.parametrize(
        "cls", [FileBackend, SqliteBackend, ObjectStoreBackend, FaultyFS]
    )
    def test_every_backend_is_a_storage_backend(self, cls):
        assert issubclass(cls, StorageBackend)
