"""Unit tests for the telemetry subsystem (spans, metrics)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import telemetry
from repro.telemetry import Histogram, Telemetry, render_telemetry
from repro.telemetry.core import TELEMETRY_SCHEMA


class TestCountersAndGauges:
    def test_counter_increments(self):
        tel = Telemetry()
        tel.count("route.rounds")
        tel.count("route.rounds", 4)
        assert tel.counters["route.rounds"].value == 5

    def test_gauge_tracks_envelope(self):
        tel = Telemetry()
        for value in (3.0, 1.0, 7.0):
            tel.gauge("frontier", value)
        gauge = tel.gauges["frontier"]
        assert (gauge.value, gauge.min, gauge.max) == (7.0, 1.0, 7.0)


class TestHistogram:
    def test_rejects_unsorted_or_empty_bounds(self):
        with pytest.raises(ValueError):
            Histogram("h", [])
        with pytest.raises(ValueError):
            Histogram("h", [3.0, 1.0])

    def test_exact_sidecars(self):
        hist = Histogram("h", [1.0, 10.0, 100.0])
        for value in (0.5, 5.0, 50.0, 500.0):
            hist.record(value)
        assert hist.count == 4
        assert hist.total == pytest.approx(555.5)
        assert (hist.min, hist.max) == (0.5, 500.0)
        assert hist.bucket_counts == [1, 1, 1, 1]  # one overflow slot

    def test_record_many_matches_scalar_records(self):
        values = np.linspace(0.1, 300.0, 257)
        one_by_one = Histogram("a", telemetry.MS_BUCKETS)
        for value in values:
            one_by_one.record(value)
        bulk = Histogram("b", telemetry.MS_BUCKETS)
        bulk.record_many(values)
        assert bulk.bucket_counts == one_by_one.bucket_counts
        assert bulk.count == one_by_one.count
        assert bulk.total == pytest.approx(one_by_one.total)

    def test_quantile_clamps_to_observed_range(self):
        hist = Histogram("h", [10.0, 100.0])
        hist.record(42.0)
        assert hist.quantile(0.5) == 42.0
        assert hist.quantile(1.0) == 42.0
        assert hist.quantile(0.01) == 42.0

    def test_empty_quantile_and_mean(self):
        hist = Histogram("h", [1.0])
        assert hist.mean() == 0.0
        assert hist.quantile(0.5) == 0.0


class TestSpans:
    def test_nested_spans_build_a_tree(self):
        tel = Telemetry()
        with tel.span("build"):
            pass
        with tel.span("compile"):
            with tel.span("refresh"):
                pass
            with tel.span("refresh"):
                pass
        dump = tel.to_dict()
        assert dump["schema"] == TELEMETRY_SCHEMA
        assert dump["spans"]["build"]["count"] == 1
        compile_node = dump["spans"]["compile"]
        assert compile_node["count"] == 1
        assert compile_node["children"]["refresh"]["count"] == 2

    def test_reentry_accumulates_instead_of_growing(self):
        tel = Telemetry()
        for _ in range(100):
            with tel.span("route"):
                pass
        assert tel.root.children["route"].count == 100
        assert len(tel.root.children) == 1

    def test_spanned_decorator_is_transparent_when_disabled(self):
        calls = []

        @telemetry.spanned("work")
        def work(x):
            calls.append(x)
            return x * 2

        assert telemetry.current() is None
        assert work(21) == 42
        with telemetry.session() as tel:
            assert work(2) == 4
            assert tel.root.children["work"].count == 1
        assert calls == [21, 2]


class TestSessionLifecycle:
    def test_session_installs_and_removes(self):
        assert telemetry.current() is None
        with telemetry.session() as tel:
            assert telemetry.current() is tel
        assert telemetry.current() is None

    def test_sessions_nest_and_restore(self):
        with telemetry.session() as outer:
            outer.count("outer")
            with telemetry.session() as inner:
                assert telemetry.current() is inner
                inner.count("inner")
            assert telemetry.current() is outer
        assert "inner" not in outer.counters
        assert outer.counters["outer"].value == 1

    def test_enable_disable(self):
        tel = telemetry.enable()
        try:
            assert telemetry.current() is tel
        finally:
            telemetry.disable()
        assert telemetry.current() is None


class TestRender:
    def test_render_covers_every_section(self):
        with telemetry.session() as tel:
            with tel.span("route"):
                pass
            tel.count("route.rounds", 3)
            tel.gauge("live_nodes", 100.0)
            tel.observe("route.batch_ms", 1.5)
        text = tel.render()
        assert "phase tree" in text
        assert "route" in text
        assert "route.rounds" in text
        assert "live_nodes" in text
        assert "route.batch_ms" in text
        # render() over the raw dict is the same path the CLI uses.
        assert render_telemetry(tel.to_dict()) == text
