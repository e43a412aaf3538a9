"""Self-time arithmetic and wrapper installation of the span recorder."""

import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

from perfbench import layers  # noqa: E402
from perfbench.spans import SpanRecorder, instrument  # noqa: E402


def recorder(spans):
    """A recorder holding ``(name, start, end, parent)`` spans verbatim."""
    rec = SpanRecorder("test")
    for name, start, end, parent in spans:
        rec.names.append(name)
        rec.starts.append(start)
        rec.ends.append(end)
        rec.parents.append(parent)
    return rec


def test_self_time_subtracts_only_direct_children():
    rec = recorder([
        ("run", 0.0, 10.0, -1),     # 0
        ("a", 1.0, 5.0, 0),         # 1
        ("b", 2.0, 3.0, 1),         # 2: inside a
        ("b", 3.5, 4.0, 1),         # 3: inside a
        ("c", 6.0, 8.0, 0),         # 4
        ("a", 8.5, 9.5, 0),         # 5: a again, no children
    ])
    own = rec.self_times()
    assert own == pytest.approx({"run": 3.0, "a": 2.5 + 1.0, "b": 1.5, "c": 2.0})
    assert sum(own.values()) == pytest.approx(10.0)
    assert rec.calls() == {"run": 1, "a": 2, "b": 2, "c": 1}


def test_nested_wrappers_record_parents_and_restore_originals():
    class Layer:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 1

    original_outer, original_inner = Layer.outer, Layer.inner
    rec = SpanRecorder("test")
    hook_calls = []
    patches = [(Layer, "outer", "layer.outer", None),
               (Layer, "inner", "layer.inner",
                lambda r, args, kwargs, result: hook_calls.append(result))]
    with instrument(rec, patches):
        with rec.span("run"):
            assert Layer().outer() == 2
    assert Layer.outer is original_outer and Layer.inner is original_inner
    assert rec.names == ["run", "layer.outer", "layer.inner"]
    assert rec.parents == [-1, 0, 1]
    assert hook_calls == [1]
    durations = rec.durations()
    own = rec.self_times()
    assert own["layer.outer"] == pytest.approx(durations[1] - durations[2])
    assert sum(own.values()) == pytest.approx(durations[0])


def test_inherited_method_patch_is_removed_again():
    class Base:
        def work(self):
            return "base"

    class Child(Base):
        pass

    rec = SpanRecorder("test")
    with instrument(rec, [(Child, "work", "child.work", None)]):
        assert "work" in Child.__dict__
        assert Child().work() == "base"
    assert "work" not in Child.__dict__
    assert rec.calls() == {"child.work": 1}


def test_layer_metrics_add_up_to_the_wall():
    rec = recorder([
        ("run", 0.0, 10.0, -1),
        ("scheduler.serve", 0.5, 9.0, 0),
        ("simulator.emit_decode", 1.0, 4.0, 1),
        ("placement.route_fetch", 2.0, 2.5, 2),
        ("primitives.matmul.fwd", 4.0, 5.0, 1),
        ("primitives.other.vjp", 5.0, 5.5, 1),
        ("metrics.stats", 9.0, 9.5, 0),
    ])
    out = layers.layer_metrics(rec, untraced_median_s=5.0, traced_s=8.5)
    assert set(out) == {name for name, _ in layers.PER_LAYER}
    assert out["trace.wall_s"] == pytest.approx(10.0)
    assert out["trace.unattributed_s"] == pytest.approx(1.0)
    assert out["scheduler.serve_s"] == pytest.approx(8.5 - 3.0 - 1.0 - 0.5)
    assert out["simulator.emit_decode_s"] == pytest.approx(2.5)
    assert out["trace.overhead"] == pytest.approx(1.7)
    assert layers.attributed_total(out) == pytest.approx(out["trace.wall_s"])


def test_spans_close_in_stack_order():
    rec = SpanRecorder("test")
    outer = rec.open("outer")
    rec.open("inner")
    with pytest.raises(RuntimeError):
        rec.close(outer)
