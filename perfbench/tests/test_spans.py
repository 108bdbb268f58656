"""The span recorder's tree, self times and patching."""

import types

import pytest

from spans import Span, SpanRecorder, per_span_overhead


def recorder_with(spans):
    rec = SpanRecorder()
    rec.spans = [Span(name, start, end, parent) for name, start, end, parent in spans]
    return rec


def test_self_time_subtracts_children():
    # root [0, 10] with children [1, 3] and [4, 8]; [4, 8] has child [5, 6]
    rec = recorder_with([("root", 0.0, 10.0, None), ("a", 1.0, 3.0, 0),
                         ("b", 4.0, 8.0, 0), ("c", 5.0, 6.0, 2)])
    assert rec.self_times() == pytest.approx([4.0, 2.0, 3.0, 1.0])


def test_self_time_counts_overlapping_children_once():
    rec = recorder_with([("root", 0.0, 10.0, None), ("a", 2.0, 6.0, 0),
                         ("b", 4.0, 7.0, 0), ("c", 9.0, 12.0, 0)])
    # children cover [2, 7] and [9, 10] of the root
    assert rec.self_times()[0] == pytest.approx(4.0)


def test_wrapped_calls_nest_and_record_errors():
    ticks = iter(range(100))
    rec = SpanRecorder(clock=lambda: float(next(ticks)))
    inner = rec.wrap("inner", lambda x: x + 1,
                     note=lambda info, a, kw, r: info.update(result=r))
    boom = rec.wrap("boom", lambda: 1 / 0)

    def body():
        inner(1)
        with pytest.raises(ZeroDivisionError):
            boom()
        return inner(2)

    outer = rec.wrap("outer", body)
    assert outer() == 3
    names = [(s.name, s.parent) for s in rec.spans]
    assert names == [("outer", None), ("inner", 0), ("boom", 0), ("inner", 0)]
    assert rec.spans[1].info == {"result": 2}
    assert rec.spans[2].info == {"error": "ZeroDivisionError"}
    # outer spans ticks 0..7; children take 1 tick each
    assert rec.self_times() == pytest.approx([4.0, 1.0, 1.0, 1.0])


def test_patch_and_restore():
    mod = types.SimpleNamespace(f=lambda: 7)
    original = mod.f
    rec = SpanRecorder()
    rec.patch(mod, "f", "mod.f")
    assert mod.f() == 7 and mod.f is not original
    rec.restore()
    assert mod.f is original
    assert [s.name for s in rec.spans] == ["mod.f"]


def test_overhead_is_small_and_nonnegative():
    assert 0.0 <= per_span_overhead(2000) < 1e-3
