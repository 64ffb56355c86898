"""Tests of the benchmark's own statistics, on synthetic inputs.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

import random
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from stats import (  # noqa: E402
    headroom,
    self_time,
    spread_points,
    tail_percentile,
    union_length,
)
from tracing import Tracer, _experiment_times  # noqa: E402


def test_tail_needs_more_than_ten_samples():
    assert tail_percentile([1.0] * 10) is None
    assert tail_percentile([]) is None


@pytest.mark.parametrize("n, percentile", [(11, 100 / 11), (20, 50.0), (100, 90.0), (1000, 99.0)])
def test_tail_is_highest_percentile_with_ten_beyond(n, percentile):
    samples = [float(i) for i in range(1, n + 1)]
    random.Random(n).shuffle(samples)
    pct, value, count = tail_percentile(samples)
    assert count == n
    assert pct == pytest.approx(percentile)
    assert sum(s > value for s in samples) == 10


def test_union_length_merges_overlaps():
    assert union_length([]) == 0.0
    assert union_length([(0, 1), (2, 3)]) == 2.0
    assert union_length([(0, 4), (1, 2), (3, 6), (7, 8)]) == 7.0


def test_self_time_of_nested_children():
    # overlapping children count once; the part past the parent's end not at all
    assert self_time(0.0, 10.0, [(1.0, 3.0), (2.0, 5.0), (8.0, 12.0)]) == 4.0
    assert self_time(0.0, 10.0, []) == 10.0


def test_self_time_of_cross_thread_children():
    # two pool workers run at once under one parent span
    assert self_time(0.0, 10.0, [(0.5, 6.0), (1.0, 9.5)]) == pytest.approx(1.0)


def test_tracer_parents_spans_across_threads():
    tracer = Tracer()
    tracer.experiment_id = 0
    both_running = threading.Barrier(2, timeout=10)
    with tracer.span("experiment"):
        with tracer.span("harness.map", workers=2) as parent:
            def task():
                with tracer.span("harness.task", parent=parent.id):
                    both_running.wait()  # overlap, as pool workers do
                    with tracer.span("spectral.fft"):
                        pass

            workers = [threading.Thread(target=task) for _ in range(2)]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=10)
            assert not any(w.is_alive() for w in workers)

    by_name = {}
    for sp in tracer.spans:
        by_name.setdefault(sp.name, []).append(sp)
    tasks = by_name["harness.task"]
    assert {t.parent for t in tasks} == {parent.id}
    assert len({t.thread for t in tasks}) == 2
    assert {f.parent for f in by_name["spectral.fft"]} == {t.id for t in tasks}
    times = _experiment_times(tracer.spans)
    busy = sum(t.end - t.start for t in tasks)
    assert times["harness.busy_frac"] == pytest.approx(busy / (2 * (parent.end - parent.start)))
    assert 0.0 < times["trace.coverage"] <= 1.0


def test_headroom():
    assert headroom(0.0, 0.05) == 1.0
    assert headroom(-0.025, 0.05) == pytest.approx(0.5)
    assert headroom(0.05, 0.05) == 0.0
    assert headroom(0.1, 0.05) < 0.0
    with pytest.raises(ValueError):
        headroom(0.0, 0.0)


@pytest.mark.parametrize("offset", [0.0, 0.3141, 0.999])
@pytest.mark.parametrize("m", [2, 5, 8, 40])
def test_spread_points_cover_the_range_evenly(offset, m):
    points = spread_points(m, offset)
    assert len(points) == m and all(0.0 <= u < 1.0 for u in points)
    ordered = sorted(points)
    gaps = [b - a for a, b in zip(ordered, ordered[1:])] + [1.0 - ordered[-1] + ordered[0]]
    assert max(gaps) < 2.0 / m


def test_spread_points_repeat_for_an_offset():
    assert spread_points(5, 0.25) == spread_points(5, 0.25)
    assert spread_points(5, 0.25) != spread_points(5, 0.26)
