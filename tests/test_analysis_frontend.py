"""Tier-1 tests for the lint front-end (``repro.analysis.frontend``).

Locks the exit-code contract (0 clean / 1 findings / 2 unusable input),
the JSON reporter schema round-trip (including the empty-findings
case), the ``--stats`` block, and the CI annotation tool that reads the
JSON report.
"""

import io
import json
import sys
from pathlib import Path

from repro.analysis import EXIT_CLEAN, EXIT_ERROR, EXIT_FINDINGS
from repro.analysis.findings import Finding
from repro.analysis.frontend import run_lint

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURES = Path(__file__).resolve().parent / "lint_fixtures"


def _import_lint_annotations():
    sys.path.insert(0, str(REPO_ROOT / "tools"))
    try:
        import lint_annotations
    finally:
        sys.path.pop(0)
    return lint_annotations


def _run(paths, **kwargs):
    out = io.StringIO()
    code = run_lint([str(p) for p in paths], out=out, **kwargs)
    return code, out.getvalue()


# ---------------------------------------------------------------------------
# exit-code contract
# ---------------------------------------------------------------------------


def test_exit_zero_on_clean_tree():
    code, text = _run([FIXTURES / "vab001_clean.py"])
    assert code == EXIT_CLEAN
    assert text.startswith("clean:")


def test_exit_one_on_findings():
    code, _ = _run([FIXTURES / "vab001_bad.py"])
    assert code == EXIT_FINDINGS


def test_exit_two_on_missing_path():
    code, _ = _run([FIXTURES / "no_such_file.py"])
    assert code == EXIT_ERROR


def test_exit_two_on_syntax_error():
    code, _ = _run([FIXTURES / "broken_syntax.py"])
    assert code == EXIT_ERROR


# ---------------------------------------------------------------------------
# JSON reporter schema
# ---------------------------------------------------------------------------

SCHEMA_KEYS = {"files", "rules", "clean", "findings", "errors", "counts"}


def test_json_schema_round_trips_findings():
    code, text = _run([FIXTURES / "vab001_bad.py"], as_json=True)
    assert code == EXIT_FINDINGS
    payload = json.loads(text)
    assert SCHEMA_KEYS <= set(payload)
    assert payload["clean"] is False
    assert payload["files"] == 1
    assert sum(payload["counts"].values()) == len(payload["findings"])
    for raw in payload["findings"]:
        finding = Finding(
            path=raw["path"], line=raw["line"], col=raw["col"],
            rule_id=raw["rule"], message=raw["message"],
        )
        assert finding.to_dict() == raw


def test_json_schema_empty_findings():
    code, text = _run([FIXTURES / "vab001_clean.py"], as_json=True)
    assert code == EXIT_CLEAN
    payload = json.loads(text)
    assert SCHEMA_KEYS <= set(payload)
    assert payload["clean"] is True
    assert payload["findings"] == []
    assert payload["errors"] == []
    assert payload["counts"] == {}


def test_json_includes_engine_stats_under_units():
    _, text = _run([FIXTURES / "vab016_bad.py"], as_json=True, units=True)
    payload = json.loads(text)
    assert payload["units"]["engine_version"]
    assert payload["shapes"]["engine_version"]
    assert payload["counts"] == {"VAB016": 2}


# ---------------------------------------------------------------------------
# GitHub annotations from the JSON report (tools/lint_annotations.py)
# ---------------------------------------------------------------------------


def test_annotation_lines_escape_workflow_commands():
    lint_annotations = _import_lint_annotations()
    report = {
        "findings": [{
            "path": "src/a,b.py", "line": 3, "col": 7,
            "rule": "VAB013", "message": "50% drop\nsecond line",
        }],
        "errors": [{
            "path": "src/broken.py", "line": 1, "col": 0,
            "rule": "VAB000", "message": "could not parse file: bad",
        }],
    }
    lines = lint_annotations.annotation_lines(report)
    assert lines[0] == (
        "::error file=src/a%2Cb.py,line=3,col=7,title=VAB013"
        "::50%25 drop%0Asecond line"
    )
    assert lines[1].startswith("::error file=src/broken.py,")
    assert "title=VAB000" in lines[1]


def test_lint_annotations_cli_round_trip(tmp_path, capsys):
    lint_annotations = _import_lint_annotations()
    _, text = _run([FIXTURES / "vab016_bad.py"], as_json=True, units=True)
    report_path = tmp_path / "lint-report.json"
    report_path.write_text(text)
    assert lint_annotations.main([str(report_path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 2
    assert all(line.startswith("::error file=") for line in out)
    assert "title=VAB016" in out[0]


def test_lint_annotations_never_fails_the_step(tmp_path, capsys):
    lint_annotations = _import_lint_annotations()
    assert lint_annotations.main([str(tmp_path / "missing.json")]) == 0
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert lint_annotations.main([str(bad)]) == 0
    assert lint_annotations.main([]) == 0
    assert capsys.readouterr().out == ""


# ---------------------------------------------------------------------------
# --stats: per-engine timing and cache hit/miss counts
# ---------------------------------------------------------------------------


def test_stats_block_is_opt_in():
    """Wall-clock timings must never leak into the default (byte-
    deterministic) payloads."""
    _, text = _run([FIXTURES / "vab017_clean.py"], units=True, as_json=True)
    assert "stats" not in json.loads(text)
    _, text = _run([FIXTURES / "vab017_clean.py"], units=True)
    assert "--- lint stats ---" not in text


def test_stats_reports_cache_hits_on_a_warm_run(tmp_path):
    cache = tmp_path / "units_cache.json"
    _run([FIXTURES / "vab017_clean.py"], units=True,
         units_cache=str(cache), as_json=True, stats=True)
    code, text = _run([FIXTURES / "vab017_clean.py"], units=True,
                      units_cache=str(cache), as_json=True, stats=True)
    assert code == EXIT_CLEAN
    stats = json.loads(text)["stats"]
    for engine in ("units", "shapes", "effects"):
        assert stats[engine]["hits"] > 0, engine
        assert stats[engine]["misses"] == 0, engine
        assert stats[engine]["passes"] >= 1, engine
    assert "rules" in stats["timings_s"]
    assert all(v >= 0 for v in stats["timings_s"].values())


def test_stats_text_block_renders_per_engine_lines(tmp_path):
    cache = tmp_path / "units_cache.json"
    _, text = _run([FIXTURES / "vab017_clean.py"], units=True,
                   units_cache=str(cache), stats=True)
    assert "--- lint stats ---" in text
    for engine in ("units:", "shapes:", "effects:"):
        assert engine in text


# ---------------------------------------------------------------------------
# all three engines in one pass
# ---------------------------------------------------------------------------


def test_json_reports_all_three_engines_in_one_pass():
    targets = [
        FIXTURES / "vab006_bad.py",   # units finding
        FIXTURES / "vab013_bad.py",   # shapes finding
        FIXTURES / "vab017_bad.py",   # effects finding
    ]
    code, text = _run(targets, units=True, as_json=True)
    assert code == EXIT_FINDINGS
    payload = json.loads(text)
    assert {"VAB006", "VAB013", "VAB017"} <= set(payload["counts"])
    assert [payload[e]["files"] for e in ("units", "shapes", "effects")] == [3] * 3


# ---------------------------------------------------------------------------
# discovery: dots above the named directory do not hide its files
# ---------------------------------------------------------------------------


def _tree_with_one_finding(root):
    (root / "pkg").mkdir(parents=True)
    (root / "pkg" / "draws.py").write_text(
        (FIXTURES / "vab001_bad.py").read_text(encoding="utf-8")
    )
    # Dot-entries *below* the named directory stay skipped.
    (root / "pkg" / ".hidden").mkdir()
    (root / "pkg" / ".hidden" / "skipped.py").write_text("import random\n")
    return root / "pkg"


def test_directory_reached_through_dotdot_is_linted(tmp_path, monkeypatch):
    _tree_with_one_finding(tmp_path / "checkout")
    (tmp_path / "elsewhere").mkdir()
    monkeypatch.chdir(tmp_path / "elsewhere")
    code, text = _run(["../checkout/pkg"], as_json=True)
    payload = json.loads(text)
    assert code == EXIT_FINDINGS
    assert payload["files"] == 1
    assert "VAB001" in payload["counts"]


def test_directory_under_a_dot_directory_is_linted(tmp_path):
    pkg = _tree_with_one_finding(tmp_path / ".cache" / "checkout")
    code, text = _run([pkg], as_json=True)
    payload = json.loads(text)
    assert code == EXIT_FINDINGS
    assert payload["files"] == 1
    assert "VAB001" in payload["counts"]
