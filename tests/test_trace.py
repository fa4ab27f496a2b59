"""Unit tests for the tracing subsystem (``repro.trace``).

The tracer is exercised with a counting clock so every timestamp is a
distinct integer in call order — structural invariants (nesting,
duration arithmetic) are asserted exactly, with no wall-clock
tolerance.  Kernel integration is covered end to end: a traced
``sublist_list_scan`` must record the per-phase span tree and the
observed live-sublist trajectory that ``compare_trace`` overlays on
the Section 4 model.
"""

import io
import json

import numpy as np
import pytest

from repro.baselines.serial import serial_list_scan
from repro.core.list_scan import list_scan
from repro.core.sublist import SublistConfig, sublist_list_scan
from repro.lists.generate import from_order, ordered_list, random_list, random_values
from repro.trace import (
    NULL_TRACER,
    Tracer,
    compare_trace,
    counting_clock,
    deviation_ok,
    find_scan_span,
    format_tree,
    null_span,
    resolve_trace,
    to_json,
    trace_to_dict,
    write_jsonl,
)


class TestTracerCore:
    def test_span_nesting_and_durations(self):
        tr = Tracer(clock=counting_clock())
        with tr.span("root", n=4) as root:
            with tr.span("child_a"):
                tr.event("tick", k=1)
            with tr.span("child_b") as b:
                assert tr.current() is b
        assert root.t1 is not None
        assert [c.name for c in root.children] == ["child_a", "child_b"]
        # counting clock: every child opens after its parent and closes
        # before it, so durations nest strictly
        for child in root.children:
            assert root.t0 < child.t0 <= child.t1 < root.t1
        assert sum(c.duration for c in root.children) <= root.duration
        (tick,) = root.children[0].events
        assert tick.name == "tick" and tick.attrs == {"k": 1}
        assert root.children[0].t0 < tick.t < root.children[0].t1

    def test_explicit_parent_attaches_across_stack(self):
        tr = Tracer(clock=counting_clock())
        with tr.span("batch") as batch:
            pass  # batch is closed; a later span still pins under it
        with tr.span("shard", parent=batch):
            pass
        assert [c.name for c in batch.children] == ["shard"]
        assert len(tr.roots) == 1

    def test_annotate_and_find(self):
        tr = Tracer(clock=counting_clock())
        with tr.span("outer"), tr.span("inner"):
            tr.annotate(m=7)
        root = tr.last_root()
        assert root.find("inner").attrs == {"m": 7}
        assert root.find("missing") is None
        assert [s.name for s in root.walk()] == ["outer", "inner"]

    def test_disabled_tracer_records_nothing(self):
        tr = Tracer(enabled=False)
        with tr.span("root") as handle:
            tr.event("x")
            tr.annotate(y=1)
        assert handle is None
        assert tr.roots == []
        assert NULL_TRACER.roots == []

    def test_event_without_open_span_is_dropped(self):
        tr = Tracer(clock=counting_clock())
        tr.event("orphan")
        assert tr.roots == []

    def test_reset(self):
        tr = Tracer(clock=counting_clock())
        with tr.span("a"):
            pass
        tr.reset()
        assert tr.roots == [] and tr.last_root() is None

    def test_resolve_trace(self):
        tr = Tracer()
        assert resolve_trace(None) is None
        assert resolve_trace(tr) is tr
        assert resolve_trace("off") is NULL_TRACER
        with pytest.raises(TypeError):
            resolve_trace("verbose")

    def test_null_span_is_reusable_noop(self):
        with null_span("anything", parent=None, n=3) as handle:
            assert handle is None

    def test_exception_still_closes_span(self):
        tr = Tracer(clock=counting_clock())
        with pytest.raises(RuntimeError), tr.span("root"), tr.span("child"):
            raise RuntimeError("boom")
        root = tr.last_root()
        assert root.t1 is not None
        assert root.children[0].t1 is not None
        assert tr.current() is None


class TestExport:
    def _sample(self):
        tr = Tracer(clock=counting_clock())
        with tr.span("root", n=np.int64(8)):
            tr.event("pack", live_after=np.int64(3))
            with tr.span("child"):
                pass
        return tr

    def test_trace_to_dict_and_json_roundtrip(self):
        tr = self._sample()
        d = trace_to_dict(tr)
        # numpy attrs must be flattened so json.dumps works
        text = to_json(tr)
        assert json.loads(text) == json.loads(json.dumps(d))
        (root,) = d["roots"]
        assert root["name"] == "root"
        assert root["attrs"] == {"n": 8}
        assert root["events"][0]["attrs"] == {"live_after": 3}
        assert [c["name"] for c in root["children"]] == ["child"]

    def test_write_jsonl_links_parents(self):
        tr = self._sample()
        buf = io.StringIO()
        count = write_jsonl(tr, buf)
        rows = [json.loads(line) for line in buf.getvalue().splitlines()]
        assert count == len(rows) == 2
        assert rows[0]["parent_id"] is None
        assert rows[1]["parent_id"] == rows[0]["id"]

    def test_format_tree_shows_spans_and_events(self):
        tr = self._sample()
        text = format_tree(tr)
        assert "root" in text and "child" in text and "pack" in text
        hidden = format_tree(tr, events=False)
        assert "pack" not in hidden

    def test_format_tree_truncates_events(self):
        tr = Tracer(clock=counting_clock())
        with tr.span("root"):
            for k in range(10):
                tr.event("e", k=k)
        text = format_tree(tr, max_events=3)
        assert "7 more" in text


class TestKernelTracing:
    def test_sublist_scan_records_phases_and_packs(self):
        lst = random_list(20_000, rng=3)
        tr = Tracer(clock=counting_clock())
        out = sublist_list_scan(lst, "sum", trace=tr)
        ref = serial_list_scan(lst.copy(), "sum")
        np.testing.assert_array_equal(out, ref)

        scan = find_scan_span(tr)
        assert scan is not None
        assert scan.attrs["n"] == 20_000
        assert scan.attrs["m"] >= 2 and scan.attrs["s1"] > 0
        child_names = [c.name for c in scan.children]
        for name in ("initialize", "phase1", "find_sublist_list",
                     "phase2", "phase3"):
            assert name in child_names, name
        packs = scan.find("phase1").events_named("pack")
        assert packs, "phase 1 recorded no pack events"
        live = [e.attrs["live_after"] for e in packs]
        assert live == sorted(live, reverse=True)
        assert all(e.attrs["live_before"] >= e.attrs["live_after"] for e in packs)
        steps = [e.attrs["step"] for e in packs]
        assert steps == sorted(steps) and len(set(steps)) == len(steps)

    def test_phase2_is_wyllie_past_64k_sublists(self):
        """Phase 2 runs Wyllie at any size: a reduced list of more than
        65,536 sublists holds no nested sublist scan."""
        n = 300_000
        rng = np.random.default_rng(9)
        order = rng.permutation(n)
        values = rng.integers(-9, 9, n)
        tr = Tracer(clock=counting_clock())
        lst = from_order(order, values)
        out = sublist_list_scan(lst, "sum", config=SublistConfig(m=70_000), trace=tr)
        expect = np.empty_like(values)
        expect[order] = np.cumsum(values[order]) - values[order]
        np.testing.assert_array_equal(out, expect)
        phase2 = find_scan_span(tr).find("phase2")
        assert phase2.attrs["m"] > 65_536
        assert phase2.children == []

    def test_trace_off_matches_untraced(self):
        lst = random_list(5_000, rng=4)
        base = sublist_list_scan(lst.copy(), "sum", rng=0)
        off = sublist_list_scan(lst.copy(), "sum", rng=0, trace="off")
        np.testing.assert_array_equal(base, off)
        assert NULL_TRACER.roots == []

    def test_list_scan_wraps_with_dispatch_span(self):
        lst = random_list(10_000, rng=5)
        tr = Tracer(clock=counting_clock())
        list_scan(lst, "sum", algorithm="sublist", trace=tr)
        root = tr.last_root()
        assert root.name == "list_scan"
        assert root.attrs["algorithm"] == "sublist"
        assert root.find("sublist_scan") is not None


class TestCompare:
    def test_compare_random_list_tracks_model(self):
        n = 60_000
        rng = np.random.default_rng(12)
        lst = random_list(n, rng, values=random_values(n, rng))
        tr = Tracer()
        sublist_list_scan(lst, "sum", trace=tr, rng=rng)
        report = compare_trace(tr)
        assert report.n == n
        assert report.observed_packs == len(report.points) > 0
        # random layouts track g(s): the paper's Figure 12 claim
        assert report.rms_rel_dev < 0.1
        assert 0.3 < report.decay_ratio < 2.0
        # the first packs follow the Eq. 6 schedule exactly (the
        # ScheduleIterator replays it)
        assert report.schedule_rms_rel_dev < 0.25
        assert report.predicted_cycles > 0
        d = report.as_dict()
        json.dumps(d)  # JSON-ready
        assert d["trajectory"]["points"][0]["step"] == report.points[0].step
        assert len(report.summary_rows()) >= 5

    def test_compare_ordered_list_deviates(self):
        # equally spaced splitters on an ordered list create equal
        # sublists: the trajectory is a step function, not exponential
        # decay, and the deviation metrics must say so
        n = 60_000
        lst = ordered_list(n)
        tr = Tracer()
        sublist_list_scan(lst, "sum", trace=tr)
        report = compare_trace(tr)
        random_lst = random_list(n, rng=12)
        tr2 = Tracer()
        sublist_list_scan(random_lst, "sum", trace=tr2, rng=12)
        random_report = compare_trace(tr2)
        assert report.rms_rel_dev > 2 * random_report.rms_rel_dev

    def test_only_phase1_packs(self):
        """Phase 3 is one streaming pass: the packs, and the trajectory
        compare_trace reads, are Phase 1's alone."""
        lst = random_list(30_000, rng=7)
        tr = Tracer()
        sublist_list_scan(lst, "sum", trace=tr, rng=7)
        scan = find_scan_span(tr, "sublist_scan")
        assert scan.find("phase3").events_named("pack") == []
        packs = scan.find("phase1").events_named("pack")
        assert compare_trace(tr).observed_packs == len(packs) > 0

    def test_compare_requires_scan_span(self):
        tr = Tracer(clock=counting_clock())
        with tr.span("unrelated"):
            pass
        with pytest.raises(ValueError, match="no 'sublist_scan'"):
            compare_trace(tr)

    def test_compare_requires_pack_events(self):
        tr = Tracer(clock=counting_clock())
        with tr.span("sublist_scan", n=100, m=4, s1=5.0), tr.span("phase1"):
            pass
        with pytest.raises(ValueError, match="no pack events"):
            compare_trace(tr)

    def test_deviation_ok_gate(self):
        lst = random_list(60_000, rng=12)
        tr = Tracer()
        sublist_list_scan(lst, "sum", trace=tr, rng=12)
        assert deviation_ok(compare_trace(tr), rms_tol=0.1, decay_tol=0.7)
        report = compare_trace(tr)
        report.rms_rel_dev = 0.5
        assert not deviation_ok(report)
