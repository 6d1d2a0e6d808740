"""Tests for the durable objectbase (snapshot + schema WAL)."""

import json

import pytest

from repro.core import JournalError, check_all
from repro.storage import DurableObjectbase


def build(durable: DurableObjectbase) -> None:
    durable.execute("define_stored_behavior", "p.name", "name", "T_string")
    durable.execute("define_stored_behavior", "s.gpa", "gpa", "T_real")
    durable.execute("at", "T_person", (), ("p.name",), True)
    durable.execute("at", "T_student", ("T_person",), ("s.gpa",), True)


class TestDurability:
    def test_schema_survives_restart_without_checkpoint(self, tmp_path):
        durable = DurableObjectbase(tmp_path / "db")
        build(durable)
        reopened = DurableObjectbase.reopen(tmp_path / "db")
        assert (
            reopened.store.lattice.state_fingerprint()
            == durable.store.lattice.state_fingerprint()
        )
        assert reopened.store.class_of("T_student") is not None
        assert check_all(reopened.store.lattice) == []

    def test_behaviors_usable_after_recovery(self, tmp_path):
        durable = DurableObjectbase(tmp_path / "db")
        build(durable)
        reopened = DurableObjectbase.reopen(tmp_path / "db")
        obj = reopened.store.create_object("T_student", name="Ada", gpa=4.0)
        assert reopened.store.apply(obj, "name") == "Ada"

    def test_instances_survive_via_checkpoint(self, tmp_path):
        durable = DurableObjectbase(tmp_path / "db")
        build(durable)
        obj = durable.store.create_object("T_person", name="Eve")
        durable.checkpoint()
        reopened = DurableObjectbase.reopen(tmp_path / "db")
        assert reopened.store.apply(obj.oid, "name") == "Eve"

    def test_instances_without_checkpoint_are_lost_but_schema_kept(
        self, tmp_path
    ):
        durable = DurableObjectbase(tmp_path / "db")
        build(durable)
        durable.checkpoint()
        durable.store.create_object("T_person", name="Gone")
        durable.execute("at", "T_extra", ("T_person",), (), False)
        reopened = DurableObjectbase.reopen(tmp_path / "db")
        # Data rolls back to the checkpoint (empty extent) ...
        assert reopened.store.extent("T_person", deep=False) == frozenset()
        # ... while the schema is continuously durable.
        assert "T_extra" in reopened.store.lattice

    def test_checkpoint_then_wal_tail(self, tmp_path):
        durable = DurableObjectbase(tmp_path / "db")
        build(durable)
        durable.checkpoint()
        durable.execute("mt_dsr", "T_student", "T_person")
        durable.execute("dt", "T_person", None)
        reopened = DurableObjectbase.reopen(tmp_path / "db")
        assert "T_person" not in reopened.store.lattice
        assert (
            reopened.store.lattice.state_fingerprint()
            == durable.store.lattice.state_fingerprint()
        )

    def test_collections_through_wal(self, tmp_path):
        durable = DurableObjectbase(tmp_path / "db")
        build(durable)
        durable.execute("al", "panel", "T_person")
        reopened = DurableObjectbase.reopen(tmp_path / "db")
        assert reopened.store.collection("panel").member_type == "T_person"


class TestFailureModes:
    def test_rejected_operation_not_logged(self, tmp_path):
        durable = DurableObjectbase(tmp_path / "db")
        build(durable)
        from repro.core import SchemaError

        with pytest.raises(SchemaError):
            durable.execute("at", "T_person", (), (), False)  # duplicate
        reopened = DurableObjectbase.reopen(tmp_path / "db")  # replays clean
        assert check_all(reopened.store.lattice) == []

    def test_non_replayable_method_rejected(self, tmp_path):
        durable = DurableObjectbase(tmp_path / "db")
        with pytest.raises(JournalError):
            durable.execute("mb_ca", "x", "y", None)

    def test_torn_wal_tail_tolerated(self, tmp_path):
        durable = DurableObjectbase(tmp_path / "db")
        build(durable)
        with durable.wal_path.open("a") as fh:
            fh.write('{"method": "at", "args"')  # crash mid-append
        reopened = DurableObjectbase.reopen(tmp_path / "db")
        assert "T_student" in reopened.store.lattice

    def test_interior_wal_corruption_raises(self, tmp_path):
        durable = DurableObjectbase(tmp_path / "db")
        build(durable)
        lines = durable.wal_path.read_text().splitlines()
        lines.insert(1, "NOT JSON")
        durable.wal_path.write_text("\n".join(lines) + "\n")
        with pytest.raises(JournalError):
            DurableObjectbase.reopen(tmp_path / "db")

    def test_unknown_wal_method_raises(self, tmp_path):
        durable = DurableObjectbase(tmp_path / "db")
        durable.wal_path.write_text(
            json.dumps({"method": "evil", "args": {}}) + "\n"
        )
        with pytest.raises(JournalError):
            DurableObjectbase.reopen(tmp_path / "db")

    def test_unloggable_kwarg_rejected_before_mutation(self, tmp_path):
        durable = DurableObjectbase(tmp_path / "db")
        with pytest.raises(JournalError):
            durable.execute("at", name="T_x", bogus=True)
        assert "T_x" not in durable.store.lattice


def wal_append(durable: DurableObjectbase, record: dict) -> None:
    """Append a framed record exactly as execute() would have."""
    from repro.storage.framing import encode_frame

    with durable.wal_path.open("ab") as fh:
        fh.write(
            encode_frame(
                json.dumps(record, sort_keys=True), durable._generation
            )
        )


class TestWriteAhead:
    def test_record_hits_wal_before_rejection(self, tmp_path):
        """Genuine write-ahead: even a rejected operation was logged
        first, and its ``__abort__`` marker keeps replay deterministic."""
        durable = DurableObjectbase(tmp_path / "db")
        build(durable)
        from repro.core import SchemaError

        with pytest.raises(SchemaError):
            durable.execute("at", "T_person", (), (), False)  # duplicate
        text = durable.wal_path.read_text()
        records = [
            json.loads(line.split(" ", 4)[4])
            for line in text.splitlines()
            if line.startswith("#W1 ")
        ]
        rejected = [r for r in records if r.get("args", {}).get("name")
                    == "T_person" and r["method"] == "at"]
        aborts = [r for r in records if r["method"] == "__abort__"]
        assert len(rejected) == 2  # the build's + the rejected duplicate
        assert len(aborts) == 1
        assert aborts[0]["args"]["seq"] == records[-2]["seq"]

    def test_crash_between_append_and_abort_marker(self, tmp_path):
        """A doomed record at the very tail (crash before the abort
        marker landed) replays as a logged-but-unapplied tail, not as
        corruption."""
        durable = DurableObjectbase(tmp_path / "db")
        build(durable)
        wal_append(
            durable,
            {"method": "at", "args": {"name": "T_person",
                                      "supertypes": [],
                                      "behaviors": [],
                                      "with_class": False},
             "seq": durable._seq + 1},
        )
        reopened = DurableObjectbase.reopen(tmp_path / "db")
        assert (
            reopened.store.lattice.state_fingerprint()
            == durable.store.lattice.state_fingerprint()
        )

    def test_doomed_record_mid_log_still_raises(self, tmp_path):
        """The unapplied-tail tolerance is for the *final* record only;
        a mid-log replay failure is real corruption."""
        durable = DurableObjectbase(tmp_path / "db")
        build(durable)
        wal_append(
            durable,
            {"method": "at", "args": {"name": "T_person",
                                      "supertypes": [],
                                      "behaviors": [],
                                      "with_class": False},
             "seq": durable._seq + 1},
        )
        wal_append(
            durable,
            {"method": "al", "args": {"name": "panel",
                                      "member_type": "T_person"},
             "seq": durable._seq + 2},
        )
        with pytest.raises(JournalError, match="replay failed"):
            DurableObjectbase.reopen(tmp_path / "db")

    def test_logged_but_unapplied_valid_tail_is_applied(self, tmp_path):
        """Crash after append, before apply, of a *valid* operation: the
        record is durable, so recovery applies it (write-ahead pays off)."""
        durable = DurableObjectbase(tmp_path / "db")
        build(durable)
        wal_append(
            durable,
            {"method": "al", "args": {"name": "panel",
                                      "member_type": "T_person"},
             "seq": durable._seq + 1},
        )
        reopened = DurableObjectbase.reopen(tmp_path / "db")
        assert reopened.store.collection("panel").member_type == "T_person"

    def test_seq_survives_reopen(self, tmp_path):
        durable = DurableObjectbase(tmp_path / "db")
        build(durable)
        seq = durable._seq
        reopened = DurableObjectbase.reopen(tmp_path / "db")
        assert reopened._seq == seq
        reopened.execute("al", "panel", "T_person")
        assert reopened._seq == seq + 1


def counter(name: str) -> float:
    from repro.obs.metrics import REGISTRY

    return REGISTRY.get(name).value


class TestSharedJournalEngine:
    """Behaviour the objectbase store gets from the shared WAL engine."""

    def test_replay_budget_folds_tail_into_snapshot(self, tmp_path):
        from repro.storage import DurabilityPolicy

        durable = DurableObjectbase(tmp_path / "db")
        build(durable)
        assert durable.wal_path.stat().st_size > 0
        reopened = DurableObjectbase.reopen(
            tmp_path / "db",
            durability=DurabilityPolicy(replay_budget_seconds=0.0),
        )
        # Any replay exceeds a zero budget: the tail was folded away.
        assert durable.wal_path.read_bytes() == b""
        assert (tmp_path / "db" / "objectbase.json").exists()
        again = DurableObjectbase.reopen(tmp_path / "db")
        assert (
            again.store.lattice.state_fingerprint()
            == reopened.store.lattice.state_fingerprint()
            == durable.store.lattice.state_fingerprint()
        )

    def test_stale_snapshot_temp_swept_on_open(self, tmp_path):
        durable = DurableObjectbase(tmp_path / "db")
        build(durable)
        durable.checkpoint()
        stale = tmp_path / "db" / "objectbase.json.tmp"
        stale.write_bytes(b'{"format": 2, "generation": 9, "st')
        reopened = DurableObjectbase.reopen(tmp_path / "db")
        assert not stale.exists()
        assert "T_student" in reopened.store.lattice

    def test_execute_counts_wal_appends(self, tmp_path):
        durable = DurableObjectbase(tmp_path / "db")
        before = counter("repro_wal_appends_total")
        durable.execute("define_stored_behavior", "p.name", "name", "T_string")
        assert counter("repro_wal_appends_total") == before + 1

    def test_checkpoint_counts_wal_checkpoints(self, tmp_path):
        durable = DurableObjectbase(tmp_path / "db")
        build(durable)
        before = counter("repro_wal_checkpoints_total")
        durable.checkpoint()
        assert counter("repro_wal_checkpoints_total") == before + 1
