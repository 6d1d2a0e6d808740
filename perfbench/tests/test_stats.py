"""The p95 rule: at least ten samples must lie beyond the reported p95."""

from stats import MIN_BEYOND, beyond_p95, samples_needed, summarize


def test_samples_needed_is_the_smallest_count_meeting_the_rule():
    n = samples_needed()
    assert beyond_p95(n) >= MIN_BEYOND
    assert beyond_p95(n - 1) < MIN_BEYOND
    assert n == 200


def test_p95_withheld_below_the_rule():
    short = summarize([float(i) for i in range(samples_needed() - 1)])
    assert short["p95"] is None
    assert short["beyond"] < MIN_BEYOND


def test_p95_has_ten_samples_beyond_it():
    samples = [float(i) for i in range(200)]
    s = summarize(list(reversed(samples)))
    assert s["n"] == 200
    assert s["p50"] == 99.5
    assert s["p95"] == 189.0
    assert sum(1 for x in samples if x > s["p95"]) == MIN_BEYOND


def test_empty_window():
    assert summarize([]) == {"p50": None, "p95": None, "n": 0, "beyond": 0}
