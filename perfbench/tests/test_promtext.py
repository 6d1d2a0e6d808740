"""The /metrics parser against a body recorded from ``repro serve``."""

from pathlib import Path

import pytest

from promtext import delta, parse, total

RECORDED = Path(__file__).parent / "data" / "metrics.txt"


def test_recorded_body_parses():
    samples = parse(RECORDED.read_text())
    assert total(samples, "repro_wal_appends_total") > 0
    assert total(samples, "repro_http_request_seconds_count", route="/v1/apply") > 0
    buckets = [
        v for (name, labels), v in samples.items()
        if name == "repro_http_request_seconds_bucket"
        and ("le", "+Inf") in labels and ("route", "/v1/apply") in labels
    ]
    assert buckets == [total(samples, "repro_http_request_seconds_count",
                             route="/v1/apply")]


def test_labels_values_and_escapes():
    body = (
        '# HELP x a counter\n# TYPE x counter\n'
        'x{a="1",b="q\\"uote"} 3\n'
        'x{a="2"} 4.5e1\n'
        'y_bucket{le="+Inf"} +Inf\n'
        'z 7 1700000000000\n'
    )
    samples = parse(body)
    assert samples[("x", (("a", "1"), ("b", 'q"uote')))] == 3.0
    assert total(samples, "x") == 48.0
    assert total(samples, "x", a="2") == 45.0
    assert samples[("y_bucket", (("le", "+Inf"),))] == float("inf")
    assert samples[("z", ())] == 7.0


def test_delta_counts_new_series_from_zero():
    before = parse('c{k="a"} 2\n')
    after = parse('c{k="a"} 5\nc{k="b"} 1\n')
    assert total(delta(before, after), "c") == 4.0


def test_malformed_line_is_an_error():
    with pytest.raises(ValueError):
        parse("repro_x{bad} 1\n")
    with pytest.raises(ValueError):
        parse("repro_x\n")
