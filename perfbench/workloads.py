"""Workload definitions and the seeded client operation streams.

Every input the benchmark sends is derived from ``--seed``: the seeded
schema (a :func:`repro.analysis.workload.random_lattice`) and each
client's operation stream.  A writer client creates, edits and drops
only its own types (``W<client>_<n>``), hangs them only under seeded
types, and names its properties ``w<client>.<n>``.  Streams of
different clients therefore touch disjoint parts of ``Pe``/``Ne``: each
operation stays valid and the final state is the same under any
interleaving of the streams.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.analysis.workload import LatticeSpec, random_lattice
from repro.core.lattice import TypeLattice

__all__ = ["Workload", "WORKLOADS", "WriterStream", "build_seed", "anchors"]


@dataclass(frozen=True)
class Workload:
    name: str
    n_types: int
    scheme: str  # storage URL scheme of the primary's store
    writers: int  # closed-loop writer clients on the primary
    replica: bool  # a --replica-of process serves the reads
    serve_flags: tuple[str, ...] = ()  # global repro flags (durability)


#: Why each workload exists is recorded in NOTES.md and BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "durable-small-writes", 300, "sqlite", 2, False,
            ("--fsync", "always", "--checkpoint-every", "250"),
        ),
        Workload("large-schema-writes", 4000, "file", 2, False),
        Workload("replica-reads", 1000, "file", 1, True),
    )
}


#: Seed of every workload's schema.  The schema is part of the workload's
#: definition, like a fixed data set: ``--seed`` varies what the clients
#: send, not the lattice's shape, whose per-seed cost differences would
#: otherwise swamp run-to-run comparisons (see NOTES.md).
SCHEMA_SEED = 0


def build_seed(workload: Workload) -> TypeLattice:
    """The workload's seeded schema (the same on every run)."""
    return random_lattice(
        LatticeSpec(n_types=workload.n_types, seed=SCHEMA_SEED)
    )


def anchors(lattice: TypeLattice) -> list[str]:
    """Seeded types clients may hang their own types under (never the
    policy-managed root or base)."""
    return sorted(
        t for t in lattice.types() if t not in (lattice.root, lattice.base)
    )


def _prop(key: str) -> dict:
    return {"semantics": key, "name": key, "domain": None}


class WriterStream:
    """One client's private operation stream and its model of the result.

    :meth:`propose` draws the next operation from the model;
    :meth:`commit` folds it in once the server acknowledged it.  The
    model is what the client expects ``GET /v1/types/<name>`` to show.
    """

    #: Live-type counts between which the stream neither favours AT nor DT.
    LOW_WATER, HIGH_WATER = 6, 16

    def __init__(self, client: int, anchor_types: list[str], root: str,
                 seed: int, only_adds: bool = False) -> None:
        self.client = client
        self.anchors = anchor_types
        self.root = root  # the policy keeps the root in every Pe
        self.rng = random.Random(f"{seed}:{client}")
        self.only_adds = only_adds
        #: live type -> (essential supertypes, essential property keys)
        self.live: dict[str, tuple[frozenset[str], frozenset[str]]] = {}
        self._names = 0
        self._props = 0

    def _new_name(self) -> str:
        self._names += 1
        return f"W{self.client}_{self._names}"

    def _new_prop(self) -> str:
        self._props += 1
        return f"w{self.client}.{self._props}"

    def propose(self) -> tuple[dict, str]:
        """The next operation (wire dict) and the type it touches."""
        rng = self.rng
        live = sorted(self.live)
        n = len(live)
        with_props = [t for t in live if self.live[t][1]]
        with_two = [t for t in live if len(self.live[t][0]) >= 2]
        if self.only_adds:
            weights = {"AT": 1.0}
        else:
            weights = {
                "AT": 3.0 if n < self.LOW_WATER else (1.0 if n < self.HIGH_WATER else 0.0),
                "MT-AB": 2.0 if n else 0.0,
                "MT-DB": 2.0 if with_props else 0.0,
                "MT-ASR": 2.0 if n else 0.0,
                "MT-DSR": 1.5 if with_two else 0.0,
                "DT": 0.0 if n < self.LOW_WATER else (1.0 if n < self.HIGH_WATER else 3.0),
            }
        codes = [c for c, w in weights.items() if w > 0]
        code = rng.choices(codes, [weights[c] for c in codes])[0]
        if code == "AT":
            name = self._new_name()
            supers = sorted(rng.sample(self.anchors, rng.choice((1, 1, 2))))
            props = [_prop(self._new_prop()) for _ in range(rng.randint(0, 1))]
            return {"code": "AT", "name": name, "supertypes": supers,
                    "properties": props}, name
        if code == "DT":
            name = rng.choice(live)
            return {"code": "DT", "name": name}, name
        if code == "MT-AB":
            name = rng.choice(live)
            return {"code": "MT-AB", "subject": name,
                    "prop": _prop(self._new_prop())}, name
        if code == "MT-DB":
            name = rng.choice(with_props)
            key = rng.choice(sorted(self.live[name][1]))
            return {"code": "MT-DB", "subject": name, "prop": _prop(key)}, name
        if code == "MT-ASR":
            name = rng.choice(live)
            pe = self.live[name][0]
            while True:
                sup = rng.choice(self.anchors)
                if sup not in pe:
                    break
            return {"code": "MT-ASR", "subject": name, "supertype": sup}, name
        name = rng.choice(with_two)
        sup = rng.choice(sorted(self.live[name][0]))
        return {"code": "MT-DSR", "subject": name, "supertype": sup}, name

    def commit(self, op: dict) -> None:
        """Fold an acknowledged operation into the model."""
        code = op["code"]
        if code == "AT":
            self.live[op["name"]] = (
                frozenset(op["supertypes"]),
                frozenset(p["semantics"] for p in op["properties"]),
            )
            return
        if code == "DT":
            del self.live[op["name"]]
            return
        name = op["subject"]
        pe, ne = self.live[name]
        if code == "MT-AB":
            ne = ne | {op["prop"]["semantics"]}
        elif code == "MT-DB":
            ne = ne - {op["prop"]["semantics"]}
        elif code == "MT-ASR":
            pe = pe | {op["supertype"]}
        elif code == "MT-DSR":
            pe = pe - {op["supertype"]}
        self.live[name] = (pe, ne)

    def expect(self, name: str) -> tuple[list[str], list[str]] | None:
        """Expected sorted ``(Pe, Ne)`` of ``name``; None once dropped."""
        if name not in self.live:
            return None
        pe, ne = self.live[name]
        return sorted(pe | {self.root}), sorted(ne)
