"""Span recording and the self-time breakdown built on it."""

import threading

from stages import layer_self, span_stats
from traced_serve import SpanRecorder


def test_child_time_and_shared_trace_ids():
    rec = SpanRecorder()
    inner = rec.wrap("core.inner", lambda: sum(range(1000)))
    outer = rec.wrap("server.outer", lambda: [inner(), inner()])
    outer()
    outer()
    spans = {s[1]: s for s in rec.spans}
    roots = [s for s in rec.spans if s[2] == 0]
    assert [s[3] for s in roots] == ["server.outer", "server.outer"]
    assert roots[0][0] != roots[1][0]  # one trace per root call
    for trace, sid, parent, name, start, end, child, _ in rec.spans:
        if name == "core.inner":
            assert spans[parent][3] == "server.outer"
            assert trace == spans[parent][0]
    for root in roots:
        children = [s for s in rec.spans if s[2] == root[1]]
        assert len(children) == 2
        assert abs(root[6] - sum(c[5] - c[4] for c in children)) < 1e-9


def test_size_argument_is_recorded():
    rec = SpanRecorder()
    append = rec.wrap("storage.append", lambda path, data: None, size_arg=1)
    append("wal", b"12345")
    assert rec.spans[0][7] == 5


def test_derive_span_only_for_a_new_object():
    class Lattice:
        def __init__(self):
            self.current = object()

    rec = SpanRecorder()
    getter = rec.wrap_derivation(lambda lattice: lattice.current)
    lattice = Lattice()
    getter(lattice)
    getter(lattice)
    getter(lattice)
    assert [s[3] for s in rec.spans] == ["core.derive"]
    lattice.current = object()
    getter(lattice)
    assert len(rec.spans) == 2


def test_threads_keep_separate_parent_stacks():
    rec = SpanRecorder()
    barrier = threading.Barrier(2)
    inner = rec.wrap("core.inner", lambda: barrier.wait(timeout=10))
    outer = rec.wrap("server.outer", inner)
    threads = [threading.Thread(target=outer) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(10)
        assert not t.is_alive()
    by_id = {s[1]: s for s in rec.spans}
    for s in rec.spans:
        if s[3] == "core.inner":
            assert by_id[s[2]][0] == s[0]
    assert len({s[0] for s in rec.spans}) == 2


def test_layer_self_sums_self_time_per_layer():
    spans = [
        [1, 1, 0, "server.http", 0.0, 10.0, 6.0, 0],
        [1, 2, 1, "api.apply", 1.0, 7.0, 4.0, 0],
        [1, 3, 2, "core.derive", 2.0, 6.0, 0.0, 0],
        [4, 4, 0, "storage.backend_append", 20.0, 21.0, 0.0, 100],
    ]
    stats = span_stats(spans)
    assert stats["server.http"].self_time == 4.0
    assert stats["storage.backend_append"].size == 100
    table = layer_self(stats)
    assert table == {"server": 4.0, "concurrent": 0.0, "api": 2.0,
                     "core": 4.0, "storage": 1.0, "replication": 0.0}
