import sys
import types

import pytest

from spans import (TARGETS, Tracer, highest_percentile, percentile, resolve,
                   self_times)


def test_highest_percentile_keeps_ten_samples_beyond_it():
    assert highest_percentile(19) is None
    assert highest_percentile(20) == 50.0
    assert highest_percentile(99) == 50.0
    assert highest_percentile(100) == 90.0
    assert highest_percentile(999) == 90.0
    assert highest_percentile(1000) == 99.0
    assert highest_percentile(10_000) == 99.9


def test_percentile_interpolates_between_order_statistics():
    xs = [4.0, 1.0, 3.0, 2.0]
    assert percentile(xs, 0) == 1.0
    assert percentile(xs, 100) == 4.0
    assert percentile(xs, 50) == 2.5
    assert percentile(xs, 90) == pytest.approx(3.7)
    with pytest.raises(ValueError):
        percentile([], 50)


def test_self_time_subtracts_the_union_of_child_intervals():
    spans = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 3.0, 0),
        ("b", 2.0, 4.0, 0),    # overlaps a: together they cover [1, 4]
        ("c", 6.0, 12.0, 0),   # clipped to the root's end: covers [6, 10]
        ("a.x", 1.5, 2.0, 1),
        ("other", 20.0, 21.0, -1),
    ]
    assert self_times(spans) == pytest.approx([3.0, 1.5, 2.0, 6.0, 0.5, 1.0])


def test_tracer_nests_spans_observes_results_and_restores(monkeypatch):
    mod = types.ModuleType("fake_layer")

    def inner(x):
        return x + 1

    def outer(x):
        return mod.inner(x) * 2

    mod.inner, mod.outer = inner, outer
    monkeypatch.setitem(sys.modules, "fake_layer", mod)
    ticks = iter(range(100))
    seen = []
    tracer = Tracer(observers={"fake_layer.inner": lambda a, k, r: seen.append((a, r))},
                    clock=lambda: float(next(ticks)))
    targets = (("fake_layer", "outer", "L.outer"), ("fake_layer", "inner", "L.inner"))
    with tracer.installed(targets):
        assert mod.outer(1) == 4
    assert mod.inner is inner and mod.outer is outer
    assert tracer.spans == [["L.outer", 0.0, 3.0, -1], ["L.inner", 1.0, 2.0, 0]]
    assert seen == [((1,), 2)]
    summary = tracer.summarize()
    assert summary["L.outer"]["self_s"] == 2.0
    assert summary["L.inner"]["calls"] == 1


def _raw(owner, attr):
    obj = resolve(owner)
    return obj.__dict__[attr] if isinstance(obj, type) else getattr(obj, attr)


def test_every_cade_target_is_wrapped_then_restored_after_an_error():
    before = {(o, a): _raw(o, a) for o, a, _ in TARGETS}
    with pytest.raises(RuntimeError):
        with Tracer().installed():
            assert all(_raw(o, a) is not f for (o, a), f in before.items())
            raise RuntimeError("boom")
    assert all(_raw(o, a) is f for (o, a), f in before.items())
