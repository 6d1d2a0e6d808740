"""Differ units plus the fuzzed convergence oracle.

The oracle is the satellite's contract: for fuzzed (live, target)
pairs, the emitted plan (1) carries no plan-scope ERROR findings, so it
passes the default lint gate, (2) applies cleanly as one verified
batch, and (3) leaves an empty re-diff — the differ converges in one
step.
"""

from __future__ import annotations

import random

import pytest

from repro.api import Objectbase
from repro.core.errors import DDLValidationError, EvolutionError
from repro.ddl import diff_schemas, parse_schema, print_schema, schema_from
from repro.staticcheck import Severity, analyze

from ._fuzz import fuzz_schema


def apply_plan(ob: Objectbase, plan) -> None:
    with ob.batch() as txn:
        txn.apply_all(plan.operations)


class TestDiffBasics:
    def test_empty_to_empty(self):
        ob = Objectbase.in_memory()
        assert len(diff_schemas(ob.lattice, "")) == 0

    def test_identity_diff_is_empty(self, figure1):
        exported = schema_from(figure1)
        assert len(diff_schemas(figure1, exported)) == 0

    def test_add_single_type(self):
        ob = Objectbase.in_memory()
        plan = diff_schemas(ob.lattice, "type T_a { ne k as n; }")
        assert [op.code for op in plan] == ["AT"]
        apply_plan(ob, plan)
        assert "T_a" in ob
        assert {p.semantics for p in ob.lattice.ne("T_a")} == {"k"}

    def test_drop_vanished_type(self):
        ob = Objectbase.in_memory()
        ob.add_type("T_a")
        ob.add_type("T_b", supertypes=["T_a"])
        plan = diff_schemas(ob.lattice, "type T_a;")
        assert [op.code for op in plan] == ["DT"]
        apply_plan(ob, plan)
        assert "T_b" not in ob

    def test_edge_and_property_delta(self):
        ob = Objectbase.in_memory()
        ob.add_type("T_a", properties=["old.k"])
        ob.add_type("T_b")
        ob.add_type("T_c", supertypes=["T_a"])
        plan = diff_schemas(ob.lattice, """
            type T_a { ne new.k; }
            type T_b;
            type T_c : T_b;
        """)
        codes = [op.code for op in plan]
        # drops strictly precede the corresponding adds
        assert codes == ["MT-DSR", "MT-ASR", "MT-DB", "MT-AB"]
        apply_plan(ob, plan)
        assert len(diff_schemas(ob.lattice, schema_from(ob.lattice))) == 0

    def test_minimality_only_touched_cells(self):
        ob = Objectbase.in_memory()
        ob.add_type("T_a", properties=["a.k"])
        ob.add_type("T_b", supertypes=["T_a"])
        target = schema_from(ob.lattice)
        text = print_schema(target) + "type T_new : T_a;\n"
        plan = diff_schemas(ob.lattice, text)
        assert [op.code for op in plan] == ["AT"]
        assert plan[0].name == "T_new"

    def test_supertype_swap_avoids_cycle(self):
        """Live X<-D<-Y migrating to drop D and flip the edge: the
        ordering (DT, then edge drops, then edge adds) never passes
        through a cyclic intermediate state."""
        ob = Objectbase.in_memory()
        ob.add_type("T_x")
        ob.add_type("T_d", supertypes=["T_x"])
        ob.add_type("T_y", supertypes=["T_d"])
        plan = diff_schemas(ob.lattice, "type T_y;\ntype T_x : T_y;")
        apply_plan(ob, plan)
        assert ob.lattice.pe("T_x") >= {"T_y"}
        assert "T_d" not in ob

    def test_payload_only_changes_are_annotations(self):
        """Property identity is the semantics key: a display-name edit
        alone produces no operations (documented annotation semantics)."""
        ob = Objectbase.in_memory()
        ob.add_type("T_a", properties=["k"])
        plan = diff_schemas(ob.lattice, 'type T_a { ne k as renamed; }')
        assert len(plan) == 0

    def test_plan_name(self):
        ob = Objectbase.in_memory()
        assert diff_schemas(ob.lattice, "schema uni;").name == "migrate-to-uni"
        assert diff_schemas(ob.lattice, "").name == "migrate"
        assert diff_schemas(ob.lattice, "", name="custom").name == "custom"


class TestTargetValidation:
    def test_managed_types_cannot_be_declared(self):
        ob = Objectbase.in_memory()
        with pytest.raises(DDLValidationError):
            diff_schemas(ob.lattice, "type T_object;")
        with pytest.raises(DDLValidationError):
            diff_schemas(ob.lattice, "type T_null;")

    def test_base_cannot_be_a_supertype(self):
        ob = Objectbase.in_memory()
        with pytest.raises(DDLValidationError):
            diff_schemas(ob.lattice, "type T_a : T_null;")

    def test_unknown_supertype_rejected(self):
        ob = Objectbase.in_memory()
        with pytest.raises(DDLValidationError):
            diff_schemas(ob.lattice, "type T_a : T_ghost;")

    def test_root_supertype_is_normalized_out(self):
        ob = Objectbase.in_memory()
        plan = diff_schemas(ob.lattice, "type T_a : T_object;")
        apply_plan(ob, plan)
        assert len(diff_schemas(ob.lattice, "type T_a;")) == 0

    def test_cyclic_target_rejected(self):
        ob = Objectbase.in_memory()
        with pytest.raises(DDLValidationError):
            diff_schemas(ob.lattice, "type T_a : T_b;\ntype T_b : T_a;")


class TestConvergenceOracle:
    """200 fuzzed (live, target) pairs: lint-clean, applies, converges."""

    def test_fuzzed_pairs_converge(self):
        rng = random.Random(0xD1FF)
        for i in range(200):
            live_decl = fuzz_schema(rng)
            target = fuzz_schema(rng)

            ob = Objectbase.in_memory()
            apply_plan(ob, diff_schemas(ob.lattice, live_decl))
            assert len(diff_schemas(ob.lattice, live_decl)) == 0, f"pair {i}"

            plan = diff_schemas(ob.lattice, target)
            report = analyze(ob.lattice, plan)
            doomed = [
                d for d in report.diagnostics
                if d.step is not None and d.severity >= Severity.ERROR
            ]
            assert not doomed, f"pair {i}: {doomed}"

            try:
                apply_plan(ob, plan)
            except EvolutionError as exc:  # pragma: no cover - diagnostic
                pytest.fail(f"pair {i}: plan did not apply: {exc}")

            rediff = diff_schemas(ob.lattice, target)
            assert len(rediff) == 0, (
                f"pair {i}: re-diff not empty: "
                f"{[op.describe() for op in rediff]}"
            )

    def test_migrating_between_related_schemas(self):
        """Mutated copies of one schema (the common review workflow)."""
        rng = random.Random(0xD1F2)
        for i in range(50):
            base = fuzz_schema(rng, max_types=6)
            ob = Objectbase.in_memory()
            apply_plan(ob, diff_schemas(ob.lattice, base))

            # target = base with one type dropped (when possible)
            types = list(base.types)
            if types:
                dropped = rng.choice(types).name
                from repro.ddl import SchemaDecl, TypeDecl
                kept = tuple(
                    TypeDecl(
                        t.name,
                        tuple(s for s in t.supertypes if s != dropped),
                        t.properties,
                    )
                    for t in types if t.name != dropped
                )
                target = SchemaDecl(kept, name=base.name)
            else:
                target = base
            plan = diff_schemas(ob.lattice, target)
            apply_plan(ob, plan)
            assert len(diff_schemas(ob.lattice, target)) == 0, f"pair {i}"
