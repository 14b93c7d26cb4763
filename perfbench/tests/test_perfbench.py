"""Tests for the benchmark's own helpers.

    python3 -m pytest perfbench/tests
"""

import json
import threading
from pathlib import Path
from types import SimpleNamespace

import pytest

import measure
import run
import tracing
from wellqc.nn.arch import default_architecture

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


class TestSelfTime:
    def test_no_children(self):
        assert measure.self_time(1.0, 4.0, []) == pytest.approx(3.0)

    def test_sequential_children(self):
        assert measure.self_time(0.0, 10.0, [(1.0, 3.0), (5.0, 6.0)]) == pytest.approx(7.0)

    def test_overlapping_children_count_once(self):
        # Two concurrent grid cells covering [1, 7] between them.
        assert measure.self_time(0.0, 10.0, [(1.0, 5.0), (3.0, 7.0)]) == pytest.approx(4.0)

    def test_children_are_clipped_to_the_parent(self):
        assert measure.self_time(2.0, 6.0, [(0.0, 3.0), (5.0, 9.0), (7.0, 8.0)]) == pytest.approx(2.0)

    def test_union_length_merges_touching_intervals(self):
        assert measure.union_length([(3.0, 4.0), (0.0, 1.0), (1.0, 2.0)]) == pytest.approx(3.0)


class TestTailPercentile:
    @pytest.mark.parametrize(
        "n, expected",
        [(1000, 99), (100, 90), (45, 77), (20, 50), (10, 50), (1, 50)],
    )
    def test_highest_percentile_with_ten_beyond(self, n, expected):
        assert measure.tail_percentile(n) == expected

    @pytest.mark.parametrize("n", [20, 33, 45, 100, 257, 1000])
    def test_chosen_percentile_leaves_ten_samples_beyond(self, n):
        values = list(range(n))
        p = measure.tail_percentile(n)
        beyond = sum(v > measure.nearest_rank(values, p) for v in values)
        assert beyond >= 10
        if p < 99:
            assert sum(v > measure.nearest_rank(values, p + 1) for v in values) < 10

    def test_nearest_rank(self):
        values = [5.0, 1.0, 3.0, 2.0, 4.0]
        assert measure.nearest_rank(values, 50) == 3.0
        assert measure.nearest_rank(values, 100) == 5.0
        assert measure.nearest_rank(values, 1) == 1.0


class TestMetricNames:
    @pytest.mark.parametrize("name", ["setup_s", "nn.conv1.fwd_ms", "trace.overhead_share", "0-x", "a" * 64])
    def test_valid(self, name):
        assert measure.valid_metric_name(name)

    @pytest.mark.parametrize("name", ["", "_x", ".x", "a b", "ms/s", "a" * 65, "conv@16"])
    def test_invalid(self, name):
        assert not measure.valid_metric_name(name)

    def test_benchmark_json_matches_the_runner(self):
        spec = json.loads(BENCHMARK_JSON.read_text())
        e2e = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
        layers = [(m["name"], m["unit"]) for m in spec["per_layer"]]
        assert e2e == run.END_TO_END
        assert layers == tracing.PER_LAYER
        names = [n for n, _ in e2e + layers] + [w["name"] for w in spec["workloads"]]
        assert all(measure.valid_metric_name(n) for n in names)
        assert len(set(names)) == len(names)


class TestLayerMapping:
    table = tracing.layer_table(default_architecture())

    @pytest.mark.parametrize(
        "kind, shape, layer",
        [
            ("Conv2D", (16, 111, 111, 1), "conv1"),
            ("Conv2D", (64, 54, 54, 8), "conv2"),
            ("MaxPool2D", (16, 109, 109, 8), "pool1"),
            ("MaxPool2D", (64, 52, 52, 16), "pool2"),
            ("Conv2D", (16, 109, 109, 8), "other"),
            ("MaxPool2D", (16, 12, 12, 4), "other"),
        ],
    )
    def test_call_maps_to_layer_by_input_shape(self, kind, shape, layer):
        assert tracing.layer_for(self.table, kind, shape) == layer


def _fake_program():
    """A stand-in module whose functions call each other through module lookups."""
    mod = SimpleNamespace()

    def leaf(x):
        return x + 1

    def outer(x):
        return mod.leaf(x) + mod.leaf(x)

    def fan_out(x):
        results = []
        workers = [threading.Thread(target=lambda: results.append(mod.leaf(x))) for _ in range(2)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=10)
        assert not any(w.is_alive() for w in workers)
        return sum(results)

    mod.leaf, mod.outer, mod.fan_out = leaf, outer, fan_out
    return mod


class TestTracer:
    def test_nesting_and_restore(self):
        mod = _fake_program()
        original = mod.outer
        tracer = tracing.Tracer([(mod, "leaf", "leaf", None), (mod, "outer", "outer", None)])
        tracer.install()
        try:
            assert mod.outer(1) == 4
        finally:
            tracer.uninstall()
        assert mod.outer is original
        outer = next(s for s in tracer.spans if s.name == "outer")
        leaves = [s for s in tracer.spans if s.name == "leaf"]
        assert len(leaves) == 2 and all(s.parent == outer.id and s.trace == outer.trace for s in leaves)
        self_t = measure.self_time(outer.start, outer.end, [(s.start, s.end) for s in leaves])
        assert self_t + sum(s.duration for s in leaves) == pytest.approx(outer.duration)

    def test_worker_thread_spans_attach_to_the_fork_span(self):
        mod = _fake_program()
        tracer = tracing.Tracer([
            (mod, "leaf", "leaf", None),
            (mod, "fan_out", "search.grid_search", None),
        ])
        tracer.install()
        try:
            assert mod.fan_out(1) == 4
        finally:
            tracer.uninstall()
        fork = next(s for s in tracer.spans if s.name == "search.grid_search")
        leaves = [s for s in tracer.spans if s.name == "leaf"]
        assert len(leaves) == 2
        assert all(s.parent == fork.id and s.thread != fork.thread for s in leaves)


def test_layer_metrics_sum_op_calls_per_pass_at_the_modal_batch():
    spans = []

    def span(sid, name, parent, start, end, **attrs):
        spans.append(tracing.Span(sid, name, parent, 1, 0, start, end, attrs))

    # Three forward passes at batch 16 and one at batch 64; two ReLU calls each.
    sid = 1
    for i, batch in enumerate((16, 16, 64, 16)):
        base = 10.0 * i
        fwd = sid
        span(fwd, "nn.model_forward", None, base, base + 5.0, batch=batch, mode="train")
        span(sid + 1, "nn.relu", fwd, base + 1.0, base + 1.5, batch=batch, metric="nn.relu.fwd_ms")
        span(sid + 2, "nn.relu", fwd, base + 2.0, base + 2.25, batch=batch, metric="nn.relu.fwd_ms")
        sid += 3
    metrics, breakdown = tracing.layer_metrics(spans, traced_ops=2)
    assert metrics["nn.relu.fwd_ms"] == pytest.approx(750.0)
    assert metrics["nn.model_forward.self_ms"] == pytest.approx(4250.0)
    assert metrics["nn.forward.calls"] == pytest.approx(2.0)
    assert breakdown["nn.relu.fwd_ms@64"] == pytest.approx(750.0)
    assert metrics["nn.conv1.fwd_ms"] == 0.0  # did not run
