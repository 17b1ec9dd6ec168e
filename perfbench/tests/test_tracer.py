import sys
import types
from collections import Counter

import pytest

import tracer as tr


def _tree():
    # a [0, 100) holds b [10, 40) -- which holds c [20, 30) -- and b [50, 90).
    return [["a", 0, 100, -1, "r"], ["b", 10, 40, 0, "r"], ["c", 20, 30, 1, "r"],
            ["b", 50, 90, 0, "r"]]


def test_self_times_on_a_hand_built_tree():
    spans = _tree()
    assert tr.self_times(spans) == [30, 20, 10, 40]
    by_layer = tr.self_seconds_by_layer(spans)
    assert by_layer == Counter({"a": 30e-9, "b": 60e-9, "c": 10e-9})
    assert tr.root_seconds(spans) == pytest.approx(sum(by_layer.values()))
    stats = tr.layer_stats(spans)
    assert stats["b"]["calls"] == 2
    assert stats["b"]["s"] == pytest.approx(70e-9)
    assert stats["b"]["self_s"] == pytest.approx(60e-9)
    assert stats["b"]["p50_us"] is None


def test_self_seconds_can_be_restricted_to_run_ids():
    spans = _tree() + [["a", 200, 260, -1, "other"]]
    assert tr.self_seconds_by_layer(spans, {"other"}) == Counter({"a": 60e-9})


def test_merge_rebases_parents():
    rec = {"spans": _tree(), "counters": {"x": 1}, "diagnostics": {"unclosed_link": 2},
           "missing": [], "broken": [], "wrapped": ["a", "b"]}
    merged = tr.merge([rec, rec])
    assert [s[3] for s in merged["spans"]] == [-1, 0, 1, 0, -1, 4, 5, 4]
    assert merged["counters"]["x"] == 2
    assert merged["diagnostics"]["unclosed_link"] == 4
    assert tr.self_times(merged["spans"]) == [30, 20, 10, 40] * 2


def test_percentiles_need_a_thousand_calls():
    spans = [["f", 0, d, -1, "r"] for d in range(1000, 1000 * 1001, 1000)]
    stats = tr.layer_stats(spans)["f"]
    assert stats["calls"] == 1000
    assert stats["p50_us"] == pytest.approx(500.0)
    assert stats["p99_us"] == pytest.approx(990.0)
    assert tr.layer_stats(spans[:999])["f"]["p99_us"] is None


def test_wrappers_nest_and_time_generator_steps():
    ticks = iter(range(0, 1000, 10))
    tracer = tr.Tracer(clock=lambda: next(ticks))

    def gen():
        yield 1
        yield 2

    outer = tracer.wrap("outer", lambda: list(tracer.wrap_generator("step", gen)()))
    assert outer() == [1, 2]
    names = [s[0] for s in tracer.spans]
    assert names == ["outer", "step", "step", "step"]  # the last step ends the generator
    assert all(s[3] == 0 for s in tracer.spans[1:])
    assert tracer.stack == []


def test_missing_target_is_named_and_its_metrics_are_null(monkeypatch):
    fake = types.ModuleType("fake_layer_module")
    fake.present = lambda x: x + 1
    monkeypatch.setitem(sys.modules, "fake_layer_module", fake)
    tracer = tr.Tracer()
    tr.install(tracer, [("model.featurize", "fake_layer_module", "present", "func"),
                        ("model.predict", "fake_layer_module", "gone", "func")])
    assert fake.present(1) == 2
    assert tracer.missing == ["fake_layer_module.gone"]
    trace = {"spans": tracer.spans, "counters": Counter(), "diagnostics": Counter(),
             "broken": [], "wrapped": tracer.wrapped}
    metrics = tr.per_layer_metrics(trace)
    assert metrics["model.featurize.calls"] == 1
    assert metrics["model.predict.calls"] is None
    assert metrics["model.predict.self_s"] is None


def test_diagnostic_reasons_match_the_package():
    import typelink.diagnostics as diag

    defined = {v for k, v in vars(diag).items() if k.isupper() and isinstance(v, str)}
    assert defined == set(tr.DIAGNOSTIC_REASONS)
