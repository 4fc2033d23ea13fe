"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_defaults(self):
        args = build_parser().parse_args(["budget"])
        assert args.site == "river"
        assert args.range == 100.0
        assert args.elements == 4


class TestBudget:
    def test_river(self, capsys):
        assert main(["budget", "--site", "river", "--range", "150"]) == 0
        out = capsys.readouterr().out
        assert "max range @1e-3" in out
        assert "SNR" in out

    def test_ocean_with_sea_state(self, capsys):
        assert main(["budget", "--site", "ocean", "--sea-state", "4"]) == 0
        out = capsys.readouterr().out
        assert "ocean-ss4" in out

    def test_elements_change_gain(self, capsys):
        main(["budget", "--elements", "8"])
        out8 = capsys.readouterr().out
        main(["budget", "--elements", "2"])
        out2 = capsys.readouterr().out
        assert out8 != out2


class TestSweep:
    def test_small_sweep(self, capsys):
        code = main([
            "sweep", "--start", "40", "--stop", "120",
            "--points", "2", "--trials", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "max range at BER<=1e-3" in out
        assert out.count("\n") >= 4

    def test_workers_do_not_change_the_table(self, capsys):
        argv = [
            "sweep", "--start", "40", "--stop", "120",
            "--points", "2", "--trials", "2",
        ]
        assert main(argv) == 0
        serial_out = capsys.readouterr().out
        assert main(argv + ["--workers", "2"]) == 0
        parallel_out = capsys.readouterr().out
        assert parallel_out == serial_out


    @pytest.mark.parametrize(
        "flags, named",
        [
            (["--points", "1"], "--points"),
            (["--start", "0"], "--stop"),
            (["--start", "120", "--stop", "120"], "--stop"),
            (["--start", "200", "--stop", "120"], "--stop"),
        ],
    )
    def test_bad_ranges_are_usage_errors(self, capsys, flags, named):
        with pytest.raises(SystemExit) as exited:
            main(["sweep", "--trials", "2"] + flags)
        assert exited.value.code == 2
        assert f"argument {named}:" in capsys.readouterr().err

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_bad_trial_counts_are_usage_errors(self, capsys, trials):
        with pytest.raises(SystemExit) as exited:
            main(["sweep", "--points", "2", "--trials", trials])
        assert exited.value.code == 2
        assert "argument --trials:" in capsys.readouterr().err

    def test_a_plain_sweep_writes_no_file(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("VAB_LEDGER_DIR", str(tmp_path / "ledger"))
        assert main([
            "sweep", "--start", "40", "--stop", "120",
            "--points", "2", "--trials", "2", "--no-progress",
        ]) == 0
        assert "max range at BER<=1e-3" in capsys.readouterr().out
        assert list(tmp_path.iterdir()) == []


def assert_one_error_line(capsys, says):
    """stderr is exactly one ``repro: error:`` line naming ``says``."""
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1, captured.err
    assert lines[0].startswith("repro: error: ") and says in lines[0]


class TestObsReport:
    def test_sweep_manifest_then_report(self, capsys, tmp_path):
        manifest = tmp_path / "run.manifest.json"
        events = tmp_path / "run.events.jsonl"
        code = main([
            "sweep", "--start", "40", "--stop", "120",
            "--points", "2", "--trials", "2",
            "--manifest", str(manifest), "--events", str(events),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert f"manifest: {manifest}" in out
        assert manifest.exists() and events.exists()

        assert main(["obs", "report", str(manifest)]) == 0
        report = capsys.readouterr().out
        assert "=== run: river (seed 1) ===" in report
        assert "--- per-stage breakdown ---" in report
        assert "--- per-point breakdown ---" in report
        assert "--- metrics ---" in report
        for stage in ("channel", "demod", "noise", "reflect"):
            assert stage in report
        # Per-point wall clocks come from the event log referenced by
        # the manifest; with the log present no wall_s cell is empty.
        point_section = report.split("--- per-point breakdown ---")[1]
        assert "wall_s" in point_section

    def test_report_missing_manifest_is_a_usage_error(self, capsys, tmp_path):
        assert main(["obs", "report", str(tmp_path / "nope.json")]) == 2
        assert_one_error_line(capsys, "nope.json")

    def test_report_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["obs"])


class TestObsLedgerVerbs:
    SWEEP = [
        "sweep", "--start", "40", "--stop", "120",
        "--points", "2", "--trials", "2", "--no-progress",
    ]

    def test_sweep_into_ledger_then_ls_diff_trace(self, capsys, tmp_path):
        ledger = str(tmp_path / "ledger")
        events = tmp_path / "run.events.jsonl"

        # Same configuration twice: one ledger entry, two runs.
        assert main(self.SWEEP + ["--ledger", ledger,
                                  "--events", str(events)]) == 0
        assert main(self.SWEEP + ["--ledger", ledger]) == 0
        # A different sweep: its own entry.
        assert main([
            "sweep", "--start", "60", "--stop", "200",
            "--points", "2", "--trials", "2", "--no-progress",
            "--ledger", ledger,
        ]) == 0
        capsys.readouterr()

        assert main(["obs", "ls", "--ledger", ledger]) == 0
        listing = capsys.readouterr().out
        assert "2 configuration(s)" in listing

        # Diff the two distinct configurations by key prefix.
        import re

        keys = re.findall(r"^([0-9a-f]{12})\s", listing, flags=re.M)
        assert len(keys) == 2
        assert main([
            "obs", "diff", keys[0], keys[1], "--ledger", ledger,
        ]) == 1  # exit 1: the runs differ
        diff_out = capsys.readouterr().out
        assert "different configuration keys" in diff_out
        assert "range_m" in diff_out

        trace_path = tmp_path / "run.trace.json"
        assert main([
            "obs", "trace", keys[0], "--ledger", ledger,
            "-o", str(trace_path),
        ]) == 0
        import json

        from repro.obs.trace import validate_trace_events

        doc = json.loads(trace_path.read_text())
        assert validate_trace_events(doc) > 0

    def test_diff_identical_runs_exits_zero(self, capsys, tmp_path):
        ledger = str(tmp_path / "ledger")
        assert main(self.SWEEP + ["--ledger", ledger]) == 0
        capsys.readouterr()
        assert main(["obs", "ls", "--ledger", ledger]) == 0
        listing = capsys.readouterr().out
        import re

        (key,) = re.findall(r"^([0-9a-f]{12})\s", listing, flags=re.M)
        assert main(["obs", "diff", key, key, "--ledger", ledger]) == 0

    def test_diff_accepts_manifest_files(self, capsys, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert main(self.SWEEP + ["--manifest", str(a)]) == 0
        assert main(self.SWEEP + ["--manifest", str(b)]) == 0
        capsys.readouterr()
        assert main(["obs", "diff", str(a), str(b)]) == 0

    def test_trace_from_manifest_file(self, capsys, tmp_path):
        manifest = tmp_path / "run.json"
        events = tmp_path / "run.jsonl"
        assert main(self.SWEEP + [
            "--manifest", str(manifest), "--events", str(events),
        ]) == 0
        capsys.readouterr()
        out_path = tmp_path / "out.trace.json"
        assert main([
            "obs", "trace", str(manifest), "-o", str(out_path),
        ]) == 0
        assert "trace events" in capsys.readouterr().out
        assert out_path.exists()

    @staticmethod
    def _ambiguous_ledger(root):
        """A ledger index whose two runs share the key prefix ``aa``."""
        import json

        root.mkdir()
        with (root / "index.jsonl").open("w") as fh:
            for key in ("aa" + "1" * 62, "aa" + "2" * 62):
                fh.write(json.dumps({"key": key, "run_id": key[::-1]}) + "\n")
        return str(root)

    @pytest.mark.parametrize(
        "verb", [["diff", "x"], ["trace"]], ids=["diff", "trace"]
    )
    def test_bad_references_are_usage_errors(self, capsys, tmp_path, verb):
        """An unknown or ambiguous ledger reference and a missing
        manifest file each end in one error line and exit 2."""
        ledger = self._ambiguous_ledger(tmp_path / "ledger")
        for ref, says in (
            ("ffff", "no ledger run matches"),
            ("aa", "ambiguous ledger reference"),
            (str(tmp_path / "nope.json"), "nope.json"),
        ):
            argv = ["obs", verb[0], ref] + verb[1:] + ["--ledger", ledger]
            assert main(argv) == 2, argv
            assert_one_error_line(capsys, says)

    @pytest.mark.parametrize(
        "verb", [["diff", "x"], ["trace"]], ids=["diff", "trace"]
    )
    def test_mistyped_manifest_path_names_the_file(self, capsys, tmp_path, verb):
        """A missing reference with a ``.json`` suffix or a path separator
        is reported as a missing file, not looked up in the ledger."""
        ledger = self._ambiguous_ledger(tmp_path / "ledger")
        for ref in ("nope.json", str(tmp_path / "runs" / "nope")):
            argv = ["obs", verb[0], ref] + verb[1:] + ["--ledger", ledger]
            assert main(argv) == 2, argv
            assert_one_error_line(capsys, f"no such manifest file: {ref}")

    def test_probes_flag_sets_mode_for_the_run(self, capsys):
        from repro.obs.probes import probe_mode, set_probe_mode

        before = probe_mode()
        try:
            assert main(self.SWEEP + ["--probes", "raise"]) == 0
            assert probe_mode() == "raise"
        finally:
            set_probe_mode(before)


class TestPattern:
    def test_table_shape(self, capsys):
        assert main(["pattern", "--elements", "4", "--step", "30"]) == 0
        out = capsys.readouterr().out
        # -60, -30, 0, 30, 60 plus header.
        assert len(out.strip().splitlines()) == 6
        assert "van_atta_db" in out


class TestTrial:
    def test_short_range_succeeds(self, capsys):
        assert main(["trial", "--range", "40"]) == 0
        out = capsys.readouterr().out
        assert "frame ok    : True" in out

    def test_absurd_range_fails(self, capsys):
        assert main(["trial", "--range", "5000"]) == 1


class TestInventory:
    def test_clean_inventory(self, capsys):
        assert main(["inventory", "--nodes", "5", "--q", "3"]) == 0
        out = capsys.readouterr().out
        assert "inventoried : 5/5" in out

    def test_lossy_inventory_still_completes(self, capsys):
        code = main([
            "inventory", "--nodes", "4", "--q", "2",
            "--downlink-loss", "0.1", "--uplink-loss", "0.1",
        ])
        assert code == 0


class TestAdapt:
    def test_picks_fast_close(self, capsys):
        assert main(["adapt", "--range", "50"]) == 0
        out = capsys.readouterr().out
        assert "selected: fast" in out

    def test_picks_coded_far(self, capsys):
        assert main(["adapt", "--range", "420"]) == 0
        out = capsys.readouterr().out
        assert "selected: slow" in out

    def test_out_of_range_exits_nonzero(self, capsys):
        assert main(["adapt", "--range", "2000"]) == 1
