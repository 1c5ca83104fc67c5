"""Span-tree arithmetic of the traced run, checked on synthetic span trees.

    python3 -m pytest benchmarks/test_tracing.py -q
"""

import sys
from pathlib import Path

import numpy as np
import pytest

import tracing
from tracing import Span

SRC = Path(__file__).resolve().parent.parent / "src"


def test_self_time_subtracts_children_not_grandchildren():
    spans = [
        Span("root", 0.0, 10.0, -1),
        Span("a", 1.0, 4.0, 0),
        Span("leaf", 2.0, 3.0, 1),
        Span("b", 5.0, 9.0, 0),
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])


def test_self_time_counts_overlapping_children_once_and_clips_them():
    spans = [
        Span("root", 0.0, 10.0, -1),
        Span("a", 2.0, 6.0, 0),
        Span("b", 4.0, 7.0, 0),  # overlaps a by 2
        Span("c", 9.0, 12.0, 0),  # runs past the parent's end
    ]
    # covered: [2, 7] and [9, 10] -> 6
    assert tracing.self_times(spans)[0] == pytest.approx(4.0)


def test_enclosing_query_follows_parents():
    spans = [
        Span(tracing.RGE, 0, 10, -1),
        Span(tracing.LOSS, 1, 2, 0),
        Span(tracing.NET, 1.1, 1.9, 1),
        Span(tracing.NET, 11, 12, -1),
    ]
    assert tracing.enclosing_query(spans) == [-1, 1, 1, -1]


def _query(spans, parent, start, value, rows, probed_layers=3):
    """A loss query at `start` lasting 1.0 s with one net forward over `probed_layers` layers."""
    q = len(spans)
    spans.append(Span(tracing.LOSS, start, start + 1.0, parent, value))
    spans.append(Span(tracing.SAMPLE, start, start + 0.1, q))
    f = len(spans)
    spans.append(Span(tracing.NET, start + 0.2, start + 0.8, q, rows))
    for k in range(probed_layers):
        name = tracing.TT_APPLY if k == 1 else tracing.DENSE
        spans.append(Span(name, start + 0.2 + 0.2 * k, start + 0.3 + 0.2 * k, f))
    return q


def test_layer_metrics_on_one_step():
    spans = [Span(tracing.RGE, 0.0, 5.0, -1, ([0, 1], 1))]  # two groups (layers 0 and 1), one probe
    for j, value in enumerate([2.0, 1.0, 3.0, 3.0]):  # the second probe pair is null
        _query(spans, 0, 0.5 + j, value, rows=100)
    spans.append(Span(tracing.ADAM, 5.0, 5.5, -1))
    _query(spans, -1, 6.0, 1.5, rows=100)  # the closing logged query: a query, not in a step
    spans.append(Span(tracing.NET, 8.0, 9.0, -1, 5000))  # hold-out evaluation: not a query

    m = tracing.layer_metrics(spans)
    assert m["zo.queries_per_step"] == 4
    assert m["zo.step_ms_p50"] == pytest.approx(5500.0)
    assert m["zo.self_ms_per_step"] == pytest.approx(1000.0)  # 5 s minus four 1 s queries
    assert m["zo.update_ms_per_step"] == pytest.approx(500.0)
    assert m["zo.null_probe_ratio"] == 0.5
    assert m["pde.loss_query_ms_p50"] == pytest.approx(1000.0)
    assert m["pde.rows_per_query"] == 100
    assert m["pde.sample_batch_ms"] == pytest.approx(100.0)
    assert m["pde.loss_self_ms"] == pytest.approx(300.0)  # 1.0 - 0.1 sample - 0.6 forward
    assert m["nets.forward_ms"] == pytest.approx(600.0)
    assert m["nets.dense_apply_ms"] == pytest.approx(200.0)
    assert m["nets.tt_apply_ms"] == pytest.approx(100.0)
    assert m["nets.forward_self_ms"] == pytest.approx(300.0)
    assert m["nets.forward_rows_per_s"] == pytest.approx(500 / 3.0)  # 5 x 100 rows in 5 x 0.6 s
    # layer-1 probes (2 queries) recompute layer 0: 2 of 4 x 3 applications
    assert m["nets.recomputed_prefix_ratio"] == pytest.approx(2 / 12)
    assert m["tensortrain.calls_per_query"] == 0
    assert m["photonic.mesh_calls_per_query"] == 0


def test_every_layer_metric_is_reported_and_zero_without_spans():
    m = tracing.layer_metrics([])
    names = {name for name, _ in tracing.PER_LAYER if not name.startswith(("setup.", "trace."))}
    assert set(m) == names
    assert all(v == 0.0 for v in m.values())


def test_unchanged_realize_ratio_compares_with_the_same_blocks_previous_call():
    tracer = tracing.Tracer()

    class Block:
        pass

    a, b = Block(), Block()
    seen = [
        tracer._unchanged_phases((a, np.array([1.0, 2.0])), {}, None),
        tracer._unchanged_phases((b, np.array([1.0, 2.0])), {}, None),
        tracer._unchanged_phases((a, np.array([1.0, 2.0])), {}, None),
        tracer._unchanged_phases((a, np.array([1.0, 2.5])), {}, None),
    ]
    assert seen == [False, False, True, False]


def test_install_wraps_and_uninstall_restores():
    sys.path.insert(0, str(SRC))
    from photopinn.models import build_model
    from photopinn.nets import TensorizedMlp

    original = TensorizedMlp.__call__
    model = build_model("black-scholes", seed=0)
    x = np.array([[50.0, 0.5], [80.0, 0.1]])
    want = model(x)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        got = model(x)
    finally:
        tracer.uninstall()
    assert TensorizedMlp.__call__ is original
    np.testing.assert_array_equal(got, want)
    assert [s.name for s in tracer.spans] == [tracing.NET, tracing.DENSE, tracing.TT_APPLY, tracing.TT, tracing.DENSE]
    assert tracer.spans[0].info == 2
