"""Tests for the unified telemetry layer (repro.obs) and its consumers.

Covers the span tracer (nesting, merge, no-op fast path), the metrics
registry (instruments, isolation, snapshot merging), run manifests and
event logs (round-trip through disk), the report renderer, and the
LinkStats zero-denominator contract.
"""

import dataclasses
import json
import math
import time

import pytest

from repro.core import Scenario
from repro.link.stats import LinkStats
from repro.obs import (
    EventLog,
    MetricsRegistry,
    RunManifest,
    SpanTracer,
    active_tracer,
    collect_spans,
    counter,
    gauge,
    histogram,
    instruments,
    metrics_snapshot,
    read_events,
    render_report,
    scenario_snapshot,
    span,
    use_registry,
)
from repro.obs.metrics import HistogramData
from repro.sim import engine
from repro.sim.export import (
    MANIFEST_SCHEMA_VERSION,
    load_manifest,
    manifest_from_dict,
    manifest_to_dict,
    save_manifest,
)
from repro.sim.parallel import run_campaign_parallel, run_observed_campaign
from repro.sim.results import BERPoint
from repro.sim.sweep import sweep_range
from repro.sim.trials import TrialCampaign

class TestSpans:
    def test_noop_without_tracer(self):
        assert active_tracer() is None
        with span("anything"):
            pass  # must not raise, must not record anywhere

    def test_nesting_builds_paths(self):
        with collect_spans() as tracer:
            with span("campaign"):
                with span("point"):
                    with span("trial"):
                        pass
                    with span("trial"):
                        pass
        assert tracer.counts == {
            ("campaign",): 1,
            ("campaign", "point"): 1,
            ("campaign", "point", "trial"): 2,
        }
        report = tracer.as_dict()
        assert set(report) == {"campaign", "campaign/point",
                               "campaign/point/trial"}
        assert report["campaign/point/trial"]["count"] == 2
        # The outer span's total covers the inner ones.
        assert (report["campaign"]["total_s"]
                >= report["campaign/point"]["total_s"])

    def test_nested_collectors_shadow(self):
        with collect_spans() as outer:
            with span("outer_only"):
                pass
            with collect_spans() as inner:
                with span("inner_only"):
                    pass
        assert ("outer_only",) in outer.counts
        assert ("inner_only",) not in outer.counts
        assert inner.counts == {("inner_only",): 1}
        assert active_tracer() is None

    def test_merge_adds_totals_and_counts(self):
        a, b = SpanTracer(), SpanTracer()
        a.add(("trial",), 1.0)
        a.add(("trial", "demod"), 0.5)
        b.add(("trial",), 2.0)
        b.add(("trial", "noise"), 0.25)
        a.merge(b)
        assert a.totals_s[("trial",)] == pytest.approx(3.0)
        assert a.counts[("trial",)] == 2
        assert a.counts[("trial", "demod")] == 1
        assert a.counts[("trial", "noise")] == 1

    def test_leaf_totals_collapse_differing_roots(self):
        tracer = SpanTracer()
        tracer.add(("point", "trial", "demod"), 1.0)
        tracer.add(("trial", "demod"), 2.0)
        totals, counts = tracer.leaf_totals()
        assert totals["demod"] == pytest.approx(3.0)
        assert counts["demod"] == 2

    def test_batched_demod_stages_are_spanned_once_per_point(self):
        campaign = TrialCampaign(trials_per_point=4, seed=3)
        with collect_spans() as tracer:
            for index, range_m in enumerate((100.0, 200.0)):
                campaign.run_point(Scenario.river(range_m), index)
        _, counts = tracer.leaf_totals()
        # A 4-trial point is one record tile. Slicing has a per-tile half
        # (integrate-and-dump) and a per-point half (the phase loop).
        stages = {"suppress": 2, "detect": 2, "cfo": 2, "slice": 4, "parse": 2}
        for stage, count in stages.items():
            assert counts[stage] == count, stage
            # Nested inside a demod span, so a report shows them as the
            # batched receiver's share of demod time.
            assert tracer.counts[("point", "batch", "demod", stage)] == count

    def test_batched_front_stages_are_spanned_per_tile(self, monkeypatch):
        monkeypatch.setattr(engine, "TILE_ROWS", 2)
        campaign = TrialCampaign(trials_per_point=5, seed=3)
        with collect_spans() as tracer:
            campaign.run_point(Scenario.river(100.0), 0)
        # Three tiles (2 + 2 + 1): the sample-domain stages run per tile,
        # the phase loop, parse and scoring once per point.
        counts = {path[-1]: n for path, n in tracer.counts.items()}
        want = {"reflect": 3, "noise": 3, "suppress": 3, "detect": 3,
                "cfo": 3, "slice": 4, "parse": 1, "score": 1, "demod": 4}
        assert {stage: counts[stage] for stage in want} == want
        assert tracer.counts[("point", "batch", "channel")] == 4

    def test_pickle_drops_live_stack(self):
        import pickle

        tracer = SpanTracer()
        tracer.add(("trial",), 1.0)
        tracer._stack.append("mid-span")
        clone = pickle.loads(pickle.dumps(tracer))
        assert clone.counts == tracer.counts
        assert clone._stack == []


class TestMetrics:
    def test_counter_gauge_histogram_in_isolated_registry(self):
        c = counter("test.obs.counter")
        g = gauge("test.obs.gauge")
        h = histogram("test.obs.hist", bounds=(1.0, 2.0))
        registry = MetricsRegistry()
        with use_registry(registry):
            c.inc()
            c.inc(2)
            g.set(7.5)
            for v in (0.5, 1.5, 99.0):
                h.observe(v)
        assert c.value(registry) == 3
        assert g.value(registry) == 7.5
        data = h.data(registry)
        assert data.bucket_counts == [1, 1, 1]
        assert data.count == 3
        # Nothing leaked into the default registry.
        assert "test.obs.counter" not in metrics_snapshot()["counters"]

    def test_instrument_registry_records_kind_and_help(self):
        counter("test.obs.help", "documented counter")
        kinds = instruments()
        assert kinds["test.obs.help"] == ("counter", "documented counter")
        with pytest.raises(ValueError):
            gauge("test.obs.help")

    def test_merge_snapshot_adds_counters_and_buckets(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        c = counter("test.obs.merge")
        h = histogram("test.obs.merge_hist", bounds=(0.0,))
        with use_registry(a):
            c.inc(2)
            h.observe(-1.0)
        with use_registry(b):
            c.inc(3)
            h.observe(1.0)
        a.merge_snapshot(b.as_dict())
        assert a.counters["test.obs.merge"] == 5
        merged = a.histograms["test.obs.merge_hist"]
        assert merged.bucket_counts == [1, 1]
        assert merged.min_value == -1.0
        assert merged.max_value == 1.0

    def test_histogram_bounds_mismatch_rejected(self):
        a = HistogramData((0.0, 1.0))
        b = HistogramData((0.0, 2.0))
        with pytest.raises(ValueError):
            a.merge(b)

    def test_empty_histogram_serializes_without_inf(self):
        data = HistogramData((0.0,)).as_dict()
        assert data["min"] is None and data["max"] is None
        json.dumps(data)  # must be JSON-safe

    def test_engine_instruments_are_registered(self):
        import repro.link.stats  # noqa: F401
        import repro.phy.receiver  # noqa: F401
        import repro.sim.cache  # noqa: F401
        import repro.sim.parallel  # noqa: F401

        kinds = instruments()
        for name, kind in [
            ("repro.sim.cache.hits", "counter"),
            ("repro.sim.cache.misses", "counter"),
            ("repro.sim.cache.evictions", "counter"),
            ("repro.sim.parallel.chunks", "counter"),
            ("repro.sim.parallel.worker_utilization", "gauge"),
            ("repro.phy.receiver.demods", "counter"),
            ("repro.phy.receiver.detect_failures", "counter"),
            ("repro.phy.receiver.crc_failures", "counter"),
            ("repro.phy.receiver.snr_db", "histogram"),
            ("repro.link.stats.frames_sent", "counter"),
            ("repro.link.stats.frames_delivered", "counter"),
        ]:
            assert kinds[name][0] == kind, name


class TestManifestRoundTrip:
    @pytest.fixture(scope="class")
    def observed_run(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("obs")
        scenarios = sweep_range(Scenario.river(), [50.0, 330.0])
        campaign = TrialCampaign(trials_per_point=3, seed=9)
        result, manifest = run_observed_campaign(
            scenarios,
            campaign,
            label="obs-test",
            workers=1,
            manifest_path=tmp / "run.manifest.json",
            events_path=tmp / "run.events.jsonl",
        )
        return tmp, result, manifest

    def test_manifest_records_the_run(self, observed_run):
        _, result, manifest = observed_run
        assert manifest.label == "obs-test"
        assert manifest.seed == 9
        assert manifest.workers == 1
        assert manifest.total_trials == result.total_trials == 6
        assert manifest.campaign["trials_per_point"] == 3
        assert len(manifest.scenarios) == 2
        assert manifest.scenarios[0]["range_m"] == pytest.approx(50.0)
        for stage in ("channel", "demod", "noise", "reflect"):
            assert any(path.endswith(stage) for path in manifest.timings)
        assert (
            manifest.metrics["counters"]["repro.phy.receiver.demods"] >= 6
        )

    def test_manifest_round_trips_through_disk(self, observed_run):
        tmp, _, manifest = observed_run
        loaded = load_manifest(tmp / "run.manifest.json")
        assert loaded == manifest
        raw = json.loads((tmp / "run.manifest.json").read_text())
        assert raw["schema"] == MANIFEST_SCHEMA_VERSION
        assert raw["kind"] == "run-manifest"

    def test_dict_round_trip_and_bad_kind_rejected(self, observed_run):
        _, _, manifest = observed_run
        record = manifest_to_dict(manifest)
        assert manifest_from_dict(record) == manifest
        record["kind"] = "something-else"
        with pytest.raises(ValueError):
            manifest_from_dict(record)

    def test_schema_one_loads_and_an_unknown_schema_is_refused(
        self, observed_run
    ):
        _, _, manifest = observed_run
        record = manifest_to_dict(manifest)
        record["schema"] = 1
        assert manifest_from_dict(record) == manifest
        record["schema"] = 3
        with pytest.raises(ValueError, match="schema 3"):
            manifest_from_dict(record)

    def test_event_log_sequence(self, observed_run):
        tmp, _, manifest = observed_run
        events = read_events(tmp / "run.events.jsonl")
        names = [e["event"] for e in events]
        assert names[0] == "campaign_start"
        assert names[-1] == "campaign_end"
        assert names.count("point_end") == 2
        point_ends = [e for e in events if e["event"] == "point_end"]
        assert [e["point"] for e in point_ends] == [0, 1]
        for e in point_ends:
            assert e["trials"] == 3
            assert e["elapsed_s"] >= 0.0
        assert manifest.events_path == str(tmp / "run.events.jsonl")

    def test_report_renders_breakdowns(self, observed_run):
        tmp, _, manifest = observed_run
        events = read_events(tmp / "run.events.jsonl")
        report = render_report(manifest, events)
        assert "=== run: obs-test (seed 9) ===" in report
        assert "--- per-stage breakdown ---" in report
        assert "--- per-point breakdown ---" in report
        assert "--- metrics ---" in report
        assert "demod" in report
        assert "repro.phy.receiver.demods" in report
        # Two point rows: 50 m and 330 m.
        assert "\n0      50" in report
        assert "\n1      330" in report

    def test_report_names_the_engine(self, observed_run):
        # Stock receivers under the auto engine: all trials batched,
        # and the report says so.
        _, _, manifest = observed_run
        report = render_report(manifest)
        assert "dispatch   : batched (6 trials)" in report

    def test_engine_line_variants(self):
        from repro.obs.report import engine_line

        batched = "repro.sim.trials.batched_trials"
        fallback = "repro.sim.trials.fallback_trials"
        assert engine_line({"counters": {}}) is None
        assert engine_line({"counters": {batched: 8}}) == "batched (8 trials)"
        assert engine_line(
            {"counters": {fallback: 3}}
        ) == "per-row demod (3 trials)"
        assert engine_line(
            {"counters": {batched: 5, fallback: 2}}
        ) == "mixed (5 batched, 2 per-row demod)"

    def test_event_log_is_lazy(self, tmp_path):
        log = EventLog(tmp_path / "never.jsonl")
        log.close()
        assert not (tmp_path / "never.jsonl").exists()
        with EventLog(tmp_path / "one.jsonl") as written:
            written.emit("ping", value=1)
        assert read_events(tmp_path / "one.jsonl") == [
            {"ts": pytest.approx(time.time(), abs=60), "event": "ping",
             "value": 1}
        ]

    def test_scenario_snapshot_is_json_safe(self):
        snapshot = scenario_snapshot(Scenario.ocean(sea_state=4))
        json.dumps(snapshot)
        assert snapshot["range_m"] > 0
        assert snapshot["fs"] > 0


class TestPointEvents:
    def test_point_end_carries_every_point_field(self, tmp_path):
        # 3 km: no trial detects, so mean_snr_db is -inf.
        scenarios = sweep_range(Scenario.river(), [50.0, 3000.0])
        events_path = tmp_path / "run.events.jsonl"
        with EventLog(events_path) as events:
            result = run_campaign_parallel(
                scenarios, TrialCampaign(trials_per_point=2, seed=3),
                workers=1, events=events,
            )
        assert result.points[1].mean_snr_db == -math.inf
        ends = [
            e for e in read_events(events_path) if e["event"] == "point_end"
        ]
        assert len(ends) == 2
        for event, point in zip(ends, result.points):
            for f in dataclasses.fields(BERPoint):
                value = getattr(point, f.name)
                expected = value if math.isfinite(value) else None
                assert event[f.name] == expected, f.name
        assert ends[1]["mean_snr_db"] is None


class TestEventLogDurability:
    def test_every_emit_is_flushed_to_disk(self, tmp_path):
        # A crash mid-run must not lose already-emitted lines: read the
        # file while the log is still open, before any close().
        log = EventLog(tmp_path / "live.jsonl")
        try:
            log.emit("first", n=1)
            log.emit("second", n=2)
            on_disk = read_events(tmp_path / "live.jsonl")
            assert [e["event"] for e in on_disk] == ["first", "second"]
        finally:
            log.close()

    def test_torn_final_line_is_dropped_by_default(self, tmp_path):
        path = tmp_path / "torn.jsonl"
        path.write_text(
            '{"ts": 1.0, "event": "ok"}\n{"ts": 2.0, "event": "tru'
        )
        events = read_events(path)
        assert [e["event"] for e in events] == ["ok"]

    def test_strict_mode_raises_on_torn_line(self, tmp_path):
        path = tmp_path / "torn.jsonl"
        path.write_text('{"ts": 1.0, "event": "ok"}\n{"broken')
        with pytest.raises(json.JSONDecodeError):
            read_events(path, strict=True)

    def test_corruption_before_the_end_raises_even_when_lenient(
        self, tmp_path
    ):
        # Only a torn *final* line is the crash signature; garbage in
        # the middle means something worse happened and must surface.
        path = tmp_path / "mid.jsonl"
        path.write_text('{"broken\n{"ts": 2.0, "event": "ok"}\n')
        with pytest.raises(json.JSONDecodeError):
            read_events(path)

    def test_concurrent_emits_interleave_whole_lines(self, tmp_path):
        import threading

        path = tmp_path / "threads.jsonl"
        with EventLog(path) as log:
            def hammer(tag):
                for i in range(100):
                    log.emit("tick", tag=tag, i=i)

            threads = [
                threading.Thread(target=hammer, args=(t,)) for t in range(4)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        events = read_events(path, strict=True)
        assert len(events) == 400
        assert all(e["event"] == "tick" for e in events)

    def test_emit_after_close_raises_and_keeps_the_log(self, tmp_path):
        # A late heartbeat must not reopen (and truncate) a finished log.
        path = tmp_path / "closed.jsonl"
        log = EventLog(path)
        log.emit("campaign_start")
        log.emit("campaign_end")
        log.close()
        with pytest.raises(ValueError):
            log.emit("heartbeat", done=1)
        assert [e["event"] for e in read_events(path)] == [
            "campaign_start", "campaign_end",
        ]


class TestStageRowsEdgeCases:
    def test_empty_timings_dict(self):
        from repro.obs.report import stage_rows

        assert stage_rows({}) == []

    def test_multiple_root_spans_sum_into_the_share_base(self):
        from repro.obs.report import stage_rows

        # Two roots (e.g. a tracer reused across two campaigns): shares
        # are fractions of the *combined* root total.
        timings = {
            "alpha": {"total_s": 3.0, "count": 1, "mean_ms": 3000.0},
            "beta": {"total_s": 1.0, "count": 1, "mean_ms": 1000.0},
            "alpha/work": {"total_s": 2.0, "count": 4, "mean_ms": 500.0},
        }
        rows = {r["stage"]: r for r in stage_rows(timings)}
        assert rows["alpha"]["share"] == pytest.approx(3.0 / 4.0)
        assert rows["work"]["share"] == pytest.approx(2.0 / 4.0)

    def test_rootless_timings_fall_back_to_largest_stage(self):
        from repro.obs.report import stage_rows

        timings = {
            "a/b": {"total_s": 4.0, "count": 2, "mean_ms": 2000.0},
            "a/c": {"total_s": 1.0, "count": 1, "mean_ms": 1000.0},
        }
        rows = {r["stage"]: r for r in stage_rows(timings)}
        assert rows["b"]["share"] == pytest.approx(1.0)
        assert rows["c"]["share"] == pytest.approx(0.25)

    def test_events_only_report(self):
        # A manifest with no timings and no results still renders: the
        # header plus whatever the event log contributes.
        manifest = RunManifest(
            label="bare", seed=1, version="1.0", created_unix=0.0,
            elapsed_s=0.0, workers=1,
        )
        report = render_report(
            manifest,
            [{"ts": 1.0, "event": "point_end", "point": 0,
              "elapsed_s": 0.5}],
        )
        assert "=== run: bare (seed 1) ===" in report
        assert "--- per-stage breakdown ---" not in report
        assert "--- per-point breakdown ---" not in report


class TestLinkStatsZeroDenominators:
    def test_delivery_ratio_zero_when_nothing_sent(self):
        stats = LinkStats()
        assert stats.delivery_ratio == 0.0

    def test_goodput_zero_without_busy_time(self):
        stats = LinkStats(payload_bits_delivered=96)
        assert stats.goodput_bps() == 0.0

    def test_summary_is_finite_on_empty_stats(self):
        summary = LinkStats().summary()
        assert summary["delivery_ratio"] == 0.0
        assert summary["goodput_bps"] == 0.0
        json.dumps(summary)

    def test_record_methods_mirror_into_active_registry(self):
        registry = MetricsRegistry()
        stats = LinkStats()
        with use_registry(registry):
            stats.record_attempt(node_id=1)
            stats.record_delivery(node_id=1, payload_bits=64)
            stats.record_collision()
            stats.record_idle_slot()
        assert registry.counters["repro.link.stats.frames_sent"] == 1
        assert registry.counters["repro.link.stats.frames_delivered"] == 1
        assert registry.counters["repro.link.stats.collisions"] == 1
        assert registry.counters["repro.link.stats.idle_slots"] == 1
        assert stats.delivery_ratio == 1.0
