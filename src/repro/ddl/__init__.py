"""Declarative schema DDL: schema-as-code compiled to evolution plans.

The paper axiomatizes evolution as sequences of primitive operations
over ``Pe``/``Ne``; production schema changes are *declared*.  This
subpackage closes that gap:

* a tiny text DDL (:mod:`~repro.ddl.parser`, grammar in its docstring)
  declaring types with supertype (``Pe``) and native-property (``Ne``)
  blocks;
* a canonical pretty-printer (:mod:`~repro.ddl.printer`) — parse→print
  is a fixpoint, so declared schemas diff cleanly in code review;
* a **differ** (:mod:`~repro.ddl.differ`) that compares a declared
  target against a live objectbase and emits the minimal, safely
  ordered :class:`~repro.staticcheck.plan.EvolutionPlan` realizing it.

The op-by-op API is thereby a compilation target: declare the schema
you want, let the differ derive the delta, and run it through the
staticcheck lint gate before applying —
:meth:`repro.api.Objectbase.migrate_to`, ``repro schema
show|diff|migrate``, and ``POST /v1/migrate`` all ride this module.

Entry points::

    from repro import parse_schema, diff_schemas

    target = parse_schema('''
        type T_person {
            ne person.name as name;
        }
        type T_student : T_person;
    ''')
    plan = diff_schemas(objectbase.lattice, target)   # minimal plan
"""

from .ast import PropertyDecl, SchemaDecl, TypeDecl
from .differ import diff_schemas, schema_from
from .lexer import Token, tokenize
from .parser import parse_schema
from .printer import print_schema

__all__ = [
    "PropertyDecl",
    "TypeDecl",
    "SchemaDecl",
    "Token",
    "tokenize",
    "parse_schema",
    "print_schema",
    "schema_from",
    "diff_schemas",
]
