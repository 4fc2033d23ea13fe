"""Tests for live progress reporting (repro.obs.progress)."""

import io
import threading

from repro.obs.manifest import EventLog, read_events
from repro.obs.progress import ProgressReporter, progress_enabled
from repro.sim.parallel import run_campaign_parallel, run_observed_campaign
from repro.sim.scenario import Scenario
from repro.sim.sweep import sweep_range
from repro.sim.trials import TrialCampaign


class FakeTTY(io.StringIO):
    def isatty(self):
        return True


class TestAutodetect:
    def test_plain_stream_is_disabled(self, monkeypatch):
        monkeypatch.delenv("VAB_PROGRESS", raising=False)
        monkeypatch.delenv("CI", raising=False)
        assert not progress_enabled(io.StringIO())

    def test_tty_is_enabled(self, monkeypatch):
        monkeypatch.delenv("VAB_PROGRESS", raising=False)
        monkeypatch.delenv("CI", raising=False)
        assert progress_enabled(FakeTTY())

    def test_ci_disables_even_a_tty(self, monkeypatch):
        monkeypatch.delenv("VAB_PROGRESS", raising=False)
        monkeypatch.setenv("CI", "true")
        assert not progress_enabled(FakeTTY())

    def test_env_forces_on_and_off(self, monkeypatch):
        monkeypatch.setenv("VAB_PROGRESS", "1")
        assert progress_enabled(io.StringIO())
        monkeypatch.setenv("VAB_PROGRESS", "0")
        assert not progress_enabled(FakeTTY())


class TestReporter:
    def test_line_shows_counts_and_rate(self):
        buf = io.StringIO()
        with ProgressReporter(
            10, label="camp", stream=buf, enabled=True, min_interval_s=0.0
        ) as reporter:
            reporter.advance(4)
            reporter.advance(6)
        text = buf.getvalue()
        assert "camp: 10/10 trials" in text
        assert "trials/s" in text
        assert text.endswith("\n")  # finish() terminates the live line

    def test_disabled_reporter_writes_nothing(self):
        buf = io.StringIO()
        with ProgressReporter(10, stream=buf, enabled=False) as reporter:
            reporter.advance(10)
        assert buf.getvalue() == ""

    def test_heartbeats_flow_to_event_log_even_when_display_off(
        self, tmp_path
    ):
        log_path = tmp_path / "events.jsonl"
        with EventLog(log_path) as events:
            with ProgressReporter(
                6, stream=io.StringIO(), enabled=False, events=events,
                min_interval_s=0.0,
            ) as reporter:
                reporter.advance(2)
                reporter.advance(4)
        beats = [
            e for e in read_events(log_path) if e["event"] == "heartbeat"
        ]
        assert beats
        assert beats[-1]["done"] == 6
        assert beats[-1]["total"] == 6
        assert beats[-1]["trials_per_s"] > 0

    def test_throttle_suppresses_intermediate_updates(self):
        buf = io.StringIO()
        reporter = ProgressReporter(
            100, stream=buf, enabled=True, min_interval_s=3600.0
        )
        reporter.start()
        for _ in range(50):
            reporter.advance(1)
        # far from total and inside the throttle window: nothing yet
        assert buf.getvalue() == ""
        reporter.advance(50)  # completion always renders
        assert "100/100" in buf.getvalue()

    @staticmethod
    def _heartbeats(path):
        return [e["done"] for e in read_events(path) if e["event"] == "heartbeat"]

    def test_zero_trial_run_gets_one_final_heartbeat(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with EventLog(path) as events:
            with ProgressReporter(
                0, stream=io.StringIO(), enabled=False, events=events,
                min_interval_s=0.0,
            ):
                pass
        assert self._heartbeats(path) == [0]

    def test_run_stopping_short_gets_one_final_heartbeat(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with EventLog(path) as events:
            with ProgressReporter(
                10, stream=io.StringIO(), enabled=False, events=events,
                min_interval_s=3600.0,
            ) as reporter:
                reporter.advance(4)  # throttled: no heartbeat yet
        assert self._heartbeats(path) == [4]

    def test_run_reaching_its_total_gets_no_duplicate_heartbeat(
        self, tmp_path
    ):
        path = tmp_path / "events.jsonl"
        with EventLog(path) as events:
            with ProgressReporter(
                6, stream=io.StringIO(), enabled=False, events=events,
                min_interval_s=3600.0,
            ) as reporter:
                reporter.advance(6)  # the total always emits
        assert self._heartbeats(path) == [6]

    def test_thread_safe_counting(self):
        reporter = ProgressReporter(
            4000, stream=io.StringIO(), enabled=False, min_interval_s=0.0
        )
        reporter.start()

        def hammer():
            for _ in range(1000):
                reporter.advance(1)

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert reporter.done == 4000


class TestRunnerIntegration:
    def test_parallel_run_heartbeats_and_bit_identity(self, tmp_path):
        scenarios = sweep_range(Scenario.river(), [50.0, 150.0])
        campaign = TrialCampaign(trials_per_point=3, seed=13)
        with_progress, _ = run_observed_campaign(
            scenarios, campaign, label="p", workers=2,
            events_path=tmp_path / "p.events.jsonl", progress=False,
        )
        without, _ = run_observed_campaign(
            scenarios, campaign, label="p", workers=1,
        )
        assert [p.ber for p in with_progress.points] == [
            p.ber for p in without.points
        ]
        beats = [
            e
            for e in read_events(tmp_path / "p.events.jsonl")
            if e["event"] == "heartbeat"
        ]
        assert beats
        assert beats[-1]["done"] == 6

    def test_pool_run_advances_progress_in_point_order(self, tmp_path):
        """Progress advances in the ordered harvest loop, pool runs too:
        each point's heartbeat precedes its ``chunk_done``, and the last
        point's is the final one: ``finish()`` adds no duplicate."""
        scenarios = sweep_range(Scenario.river(), [50.0, 150.0])
        campaign = TrialCampaign(trials_per_point=3, seed=13)
        path = tmp_path / "pool.events.jsonl"
        with EventLog(path) as events:
            reporter = ProgressReporter(
                6, stream=io.StringIO(), enabled=False, events=events,
                min_interval_s=0.0,
            )
            run_campaign_parallel(
                scenarios, campaign, workers=2, events=events,
                progress=reporter,
            )
        sequence = [
            (e["event"], e.get("done")) for e in read_events(path)
            if e["event"] != "point_end"
        ]
        assert sequence == [
            ("campaign_start", None),
            ("heartbeat", 3), ("chunk_done", None),
            ("heartbeat", 6), ("chunk_done", None),
            ("campaign_end", None),
        ]

