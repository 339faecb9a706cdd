"""Unit tests for the benchmark's own helpers: percentiles, spans, failure counting."""

import sys
import threading
import types
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from layers import span_metric, span_table  # noqa: E402
from spans import Span, Tracer, attribute, thread_self_times  # noqa: E402
from timing import Tally, percentile, tail_percentile  # noqa: E402

MAIN, WORKER_A, WORKER_B = 1, 2, 3


@pytest.mark.parametrize("n, expected", [
    (0, None), (99, None), (100, 90.0), (999, 90.0), (1000, 99.0),
    (9999, 99.0), (10000, 99.9), (99999, 99.9), (100000, 99.99),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected


def test_percentile_is_nearest_rank():
    values = list(range(100, 0, -1))
    assert percentile(values, 50) == 50
    assert percentile(values, 99) == 99
    assert percentile(values, 100) == 100
    assert percentile([7.0], 99.9) == 7.0
    with pytest.raises(ValueError):
        percentile([], 50)


def _span(name, start, end, parent=None, thread=MAIN):
    return Span(name, float(start), float(end), parent, thread, 0.0)


def test_self_time_of_nested_spans_on_one_thread():
    spans = [
        _span("m.a", 0, 10),
        _span("m.b", 1, 4, parent=0),
        _span("m.c", 2, 3, parent=1),
        _span("m.d", 5, 6, parent=0),
    ]
    assert thread_self_times(spans) == [6.0, 2.0, 1.0, 1.0]
    wall_self, total = attribute(spans, MAIN)
    assert wall_self == [6.0, 2.0, 1.0, 1.0]
    assert total == [10.0, 3.0, 1.0, 1.0]


def test_self_time_across_threads_adds_up_to_wall_time():
    # The main-thread span fans out to two pool threads for [1, 9).
    spans = [
        _span("m.pool", 0, 10),
        _span("m.prep", 0, 1, parent=0),
        _span("t.rule", 1, 9, thread=WORKER_A),
        _span("t.fit", 2, 4, parent=2, thread=WORKER_A),
        _span("t.rule", 1, 5, thread=WORKER_B),
        _span("t.rule", 5, 9, thread=WORKER_B),
    ]
    assert thread_self_times(spans) == [9.0, 1.0, 6.0, 2.0, 4.0, 4.0]
    wall_self, total = attribute(spans, MAIN)
    # 8 s of wall time carried 16 s of pool-thread work: each counts half.
    assert wall_self == pytest.approx([1.0, 1.0, 3.0, 1.0, 2.0, 2.0])
    assert sum(wall_self) == pytest.approx(10.0)
    assert total[0] == pytest.approx(10.0)
    assert total[2] == pytest.approx(4.0)


def test_layer_metrics_are_per_unit_and_zero_when_unreached():
    spans = [
        _span("cli.train", 0, 10),
        _span("trainer.train_sub_reservoir", 1, 9, parent=0),
        _span("trainer.fit_readout", 2, 4, parent=1),
    ]
    table = span_table(spans, MAIN)
    assert span_metric(table, "trainer.screen.s", 2) == pytest.approx(3.0)
    assert span_metric(table, "trainer.train_sub_reservoir.s", 2) == pytest.approx(4.0)
    assert span_metric(table, "trainer.fit_readout.calls", 2) == 0.5
    assert span_metric(table, "trainer.self_s", 2) == pytest.approx(4.0)
    assert span_metric(table, "cli.train.self_s", 2) == pytest.approx(1.0)
    assert span_metric(table, "trainer.fit_readout.p50_us", 2) == pytest.approx(2e6)
    assert span_metric(table, "online.online_step.p99_us", 2) == 0.0


def test_tracer_records_parents_and_threads_and_restores_attributes():
    mod = types.ModuleType("perfbench_fake_layer")

    def inner(x):
        return x + 1

    def outer(x):
        return mod.inner(x) * 2

    mod.inner, mod.outer = inner, outer
    sys.modules[mod.__name__] = mod
    tracer = Tracer()
    try:
        tracer.install([(mod.__name__, "inner", "fake.inner"),
                        (mod.__name__, "outer", "fake.outer")])
        assert mod.outer(1) == 4
        with ThreadPoolExecutor(max_workers=1) as pool:
            assert pool.submit(mod.outer, 2).result(timeout=10) == 6
    finally:
        tracer.uninstall()
        del sys.modules[mod.__name__]
    assert mod.inner is inner and mod.outer is outer
    names = [s.name for s in tracer.spans]
    assert names == ["fake.outer", "fake.inner", "fake.outer", "fake.inner"]
    main_outer, main_inner, pool_outer, pool_inner = tracer.spans
    assert main_inner.parent == 0 and pool_inner.parent == 2
    assert main_outer.parent is None and pool_outer.parent is None
    assert main_outer.thread == threading.get_ident() != pool_outer.thread
    assert pool_inner.thread == pool_outer.thread
    assert all(s.end >= s.start for s in tracer.spans)


def test_tracer_closes_span_when_the_call_raises():
    tracer = Tracer()

    def boom():
        raise RuntimeError("x")

    traced = tracer.wrap(boom, "fake.boom")
    with pytest.raises(RuntimeError):
        traced()
    traced2 = tracer.wrap(lambda: 1, "fake.ok")
    traced2()
    assert [s.parent for s in tracer.spans] == [None, None]
    assert tracer.spans[0].end >= tracer.spans[0].start


def test_tally_counts_failed_share():
    tally = Tally()
    assert tally.failed_share == 0.0
    assert tally.check(True, "fine")
    assert not tally.check(False, "bad output")
    tally.attempt(98)
    tally.fail("sample skipped", 3)
    tally.fail("nothing", 0)
    assert (tally.attempted, tally.failed) == (100, 4)
    assert tally.failed_share == pytest.approx(0.04)
    assert tally.reasons == ["bad output", "sample skipped (x3)"]
