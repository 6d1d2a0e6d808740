"""Client streams are valid and commute: any interleaving, one state."""

import random

from repro.api import Objectbase
from repro.core.operations import operation_from_dict

from workloads import WriterStream, anchors, build_seed, WORKLOADS


def _streams(seed, ops_each=120, only_adds=False):
    lattice = build_seed(WORKLOADS["durable-small-writes"])
    ops = []
    for client in (0, 1):
        stream = WriterStream(client, anchors(lattice), lattice.root, seed,
                              only_adds=only_adds)
        mine = []
        for _ in range(ops_each):
            op, _name = stream.propose()
            stream.commit(op)
            mine.append(op)
        ops.append((stream, mine))
    return lattice, ops


def _replay(lattice, order):
    ob = Objectbase(lattice.copy())
    for op in order:
        result = ob.apply(operation_from_dict(op))
        assert result.changed, op
    return ob


def test_streams_replayed_in_both_orders_reach_one_fingerprint():
    lattice, ((_, a), (_, b)) = _streams(seed=7)
    ab = _replay(lattice, a + b)
    ba = _replay(lattice, b + a)
    rng = random.Random(3)
    mixed, ia, ib = [], 0, 0
    while ia < len(a) or ib < len(b):
        if ib == len(b) or (ia < len(a) and rng.random() < 0.5):
            mixed.append(a[ia])
            ia += 1
        else:
            mixed.append(b[ib])
            ib += 1
    interleaved = _replay(lattice, mixed)
    fingerprint = ab.lattice.derived_fingerprint()
    assert ba.lattice.derived_fingerprint() == fingerprint
    assert interleaved.lattice.derived_fingerprint() == fingerprint
    assert fingerprint != lattice.derived_fingerprint()


def test_model_matches_the_served_cards():
    lattice, streams = _streams(seed=11)
    ob = _replay(lattice, [op for _, ops in streams for op in ops])
    for stream, _ in streams:
        for name in stream.live:
            card = ob.card(name).as_dict()
            assert (card["Pe"], card["Ne"]) == stream.expect(name)


def test_streams_use_every_operation_and_stay_bounded():
    _, streams = _streams(seed=5, ops_each=400)
    for stream, ops in streams:
        assert {op["code"] for op in ops} == {
            "AT", "MT-AB", "MT-DB", "MT-ASR", "MT-DSR", "DT"}
        assert len(stream.live) <= WriterStream.HIGH_WATER + 1


def test_streams_are_deterministic_in_the_seed():
    _, first = _streams(seed=9, ops_each=50)
    _, again = _streams(seed=9, ops_each=50)
    assert [ops for _, ops in first] == [ops for _, ops in again]


def test_replica_stream_only_adds_types():
    _, streams = _streams(seed=2, ops_each=30, only_adds=True)
    assert all(op["code"] == "AT" for _, ops in streams for op in ops)
