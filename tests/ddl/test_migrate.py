"""The redesigned public API: migrate_to, top-level exports, CLI verbs."""

from __future__ import annotations

import json

import pytest

from repro.api import Objectbase
from repro.cli import main
from repro.concurrent import ConcurrentObjectbase
from repro.core.errors import DDLError, LintRejectedError, error_code
from repro.ddl import print_schema, schema_from
from repro.obs.metrics import REGISTRY

TARGET = """
type T_person {
    ne person.name as name;
    ne person.age as age;
}
type T_student : T_person;
type T_staff : T_person;
"""

#: A lossy follow-up: drops both properties (WARNING findings).
LOSSY = """
type T_person;
type T_student : T_person;
type T_staff : T_person;
"""


class TestMigrateTo:
    def test_apply_and_idempotence(self):
        ob = Objectbase.in_memory()
        result = ob.migrate_to(TARGET)
        assert result.applied and result.changed
        assert [op.code for op in result.plan] == ["AT", "AT", "AT"]
        again = ob.migrate_to(TARGET)
        assert not again.applied and len(again.plan) == 0
        assert "noop" in again.summary() or "planned" in again.summary()

    def test_dry_run_mutates_nothing(self):
        ob = Objectbase.in_memory()
        result = ob.migrate_to(TARGET, dry_run=True)
        assert not result.applied and len(result.plan) == 3
        assert len(ob.types() - {"T_object", "T_null"}) == 0

    def test_lint_gate_rejects_at_warn(self):
        ob = Objectbase.in_memory()
        ob.migrate_to(TARGET)
        with pytest.raises(LintRejectedError) as exc:
            ob.migrate_to(LOSSY, lint="warn")
        assert error_code(exc.value) == "lint-rejected"
        assert exc.value.diagnostics  # wire-shape dicts for the caller
        assert len(exc.value.plan) > 0
        # nothing was applied
        assert {p.semantics for p in ob.lattice.ne("T_person")} == {
            "person.name", "person.age",
        }

    def test_warnings_pass_at_default_error_threshold(self):
        ob = Objectbase.in_memory()
        ob.migrate_to(TARGET)
        result = ob.migrate_to(LOSSY)  # lossy drops warn, but apply
        assert result.applied
        assert ob.lattice.ne("T_person") == frozenset()

    def test_bad_lint_mode_rejected(self):
        ob = Objectbase.in_memory()
        with pytest.raises(ValueError):
            ob.migrate_to(TARGET, lint="strict")

    def test_gate_runs_after_lint_and_can_veto(self):
        ob = Objectbase.in_memory()
        seen = {}

        def gate(lattice, plan):
            seen["ops"] = len(plan)
            raise RuntimeError("vetoed")

        with pytest.raises(RuntimeError):
            ob.migrate_to(TARGET, gate=gate)
        assert seen["ops"] == 3
        assert "T_person" not in ob

    def test_migration_metrics(self):
        REGISTRY.reset()
        ob = Objectbase.in_memory()
        ob.migrate_to(TARGET)
        ob.migrate_to(TARGET)
        ob.migrate_to(LOSSY, dry_run=True)
        with pytest.raises(LintRejectedError):
            ob.migrate_to(LOSSY, lint="warn")
        family = REGISTRY.collect()["repro_ddl_migrations_total"]
        flat = {
            v["labels"]["outcome"]: v["value"] for v in family["values"]
        }
        assert flat == {
            "applied": 1, "noop": 1, "dry-run": 1, "lint-rejected": 1,
        }

    def test_durable_migration_replays(self, tmp_path):
        db = tmp_path / "schema.wal"
        ob = Objectbase.open(db)
        ob.migrate_to(TARGET)
        ob.sync()
        reopened = Objectbase.open(db)
        assert len(reopened.diff_to(TARGET)) == 0

    def test_malformed_ddl_raises_typed_error(self):
        ob = Objectbase.in_memory()
        with pytest.raises(DDLError) as exc:
            ob.migrate_to("type {")
        assert error_code(exc.value) == "ddl-syntax"


class TestConcurrentMigrate:
    def test_migrate_publishes_snapshot(self):
        store = ConcurrentObjectbase.in_memory()
        before = store.snapshot
        result = store.migrate_to(TARGET)
        assert result.applied
        assert store.snapshot is not before
        assert "T_person" in store.snapshot.types()
        assert len(store.diff_to(TARGET)) == 0

    def test_snapshot_carries_policy_facts(self):
        store = ConcurrentObjectbase.in_memory()
        snap = store.snapshot
        assert snap.root == "T_object"
        assert snap.base == "T_null"
        assert snap.frozen == {"T_object", "T_null"}

    def test_schema_ddl_matches_facade(self):
        store = ConcurrentObjectbase.in_memory()
        store.migrate_to(TARGET)
        # The live DDL equals the DDL of the published snapshot.
        assert store.schema_ddl() == print_schema(schema_from(store.snapshot))


class TestTopLevelExports:
    def test_satellite_import_surface(self):
        from repro import (  # noqa: F401
            MigrationResult,
            Objectbase,
            diff_schemas,
            parse_schema,
            print_schema,
            schema_from,
        )

        ob = Objectbase.in_memory()
        target = parse_schema("type T_a;")
        plan = diff_schemas(ob.lattice, target)
        assert len(plan) == 1
        assert print_schema(schema_from(ob.lattice)) == ""

    def test_storage_shims_are_gone(self):
        import repro.storage as storage

        for name in ("DurableLattice", "JournalFile"):
            with pytest.raises(AttributeError):
                getattr(storage, name)
            assert name not in storage.__all__


class TestSchemaCli:
    def run(self, *argv):
        return main(list(argv))

    def test_show_diff_migrate_cycle(self, tmp_path, capsys):
        db = str(tmp_path / "t.wal")
        target = tmp_path / "target.ddl"
        target.write_text(TARGET)

        assert self.run("--db", db, "init") == 0
        assert self.run("--db", db, "schema", "migrate", str(target)) == 0
        out = capsys.readouterr().out
        assert "applied 3 operation(s)" in out

        assert self.run("--db", db, "schema", "show") == 0
        shown = capsys.readouterr().out
        assert "type T_person {" in shown
        assert "ne person.name as name;" in shown

        assert self.run("--db", db, "schema", "diff", str(target)) == 0
        assert "schemas agree" in capsys.readouterr().out

    def test_diff_formats_and_plan_out(self, tmp_path, capsys):
        db = str(tmp_path / "t.wal")
        target = tmp_path / "target.ddl"
        target.write_text(TARGET)
        plan_file = tmp_path / "plan.json"

        assert self.run(
            "--db", db, "schema", "diff", str(target),
            "--format", "json", "--plan-out", str(plan_file),
        ) == 0
        printed = json.loads(capsys.readouterr().out)
        saved = json.loads(plan_file.read_text())
        assert printed == saved
        assert [op["code"] for op in saved["operations"]] == [
            "AT", "AT", "AT",
        ]

        assert self.run(
            "--db", db, "schema", "diff", str(target), "--format", "jsonl",
        ) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3 and all(json.loads(li) for li in lines)

    def test_migrate_dry_run_fail_on_warning_exits_nonzero(
        self, tmp_path, capsys
    ):
        db = str(tmp_path / "t.wal")
        target = tmp_path / "target.ddl"
        lossy = tmp_path / "lossy.ddl"
        target.write_text(TARGET)
        lossy.write_text(LOSSY)

        assert self.run("--db", db, "schema", "migrate", str(target)) == 0
        capsys.readouterr()
        code = self.run(
            "--db", db, "schema", "migrate", str(lossy),
            "--dry-run", "--fail-on", "warning",
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "lint-rejected" in err
        assert "lossy-property-drop" in err  # diagnostics printed

        # default threshold tolerates the warnings; dry run applies nothing
        assert self.run(
            "--db", db, "schema", "migrate", str(lossy), "--dry-run",
        ) == 0
        assert "planned 2 operation(s)" in capsys.readouterr().out
        assert self.run("--db", db, "schema", "diff", str(target)) == 0
        assert "schemas agree" in capsys.readouterr().out

    def test_migrate_missing_file_exits_2(self, tmp_path, capsys):
        db = str(tmp_path / "t.wal")
        assert self.run(
            "--db", db, "schema", "migrate", str(tmp_path / "nope.ddl"),
        ) == 2
        assert "cannot read schema" in capsys.readouterr().err

    def test_migrate_stdin(self, tmp_path, capsys, monkeypatch):
        import io

        db = str(tmp_path / "t.wal")
        monkeypatch.setattr("sys.stdin", io.StringIO("type T_a;\n"))
        assert self.run("--db", db, "schema", "migrate", "-") == 0
        assert "applied 1 operation(s)" in capsys.readouterr().out
