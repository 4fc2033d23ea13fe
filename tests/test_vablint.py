"""Tier-1 tests for ``repro.analysis`` (vablint) and its entry points.

One fixture module per rule carries known violations with pinned line
numbers, next to a clean twin that must pass the *full* rule set; the
suite also locks the exit-code contract, the CLI (``tools/vablint.py``), and — the point of the whole exercise —
that ``src/repro`` itself lints clean.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.analysis import (
    EXIT_CLEAN,
    EXIT_ERROR,
    EXIT_FINDINGS,
    lint_paths,
    lint_source,
    make_rules,
    render_json,
    rule_catalogue,
)
from repro.analysis.findings import PARSE_ERROR_RULE

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURES = Path(__file__).resolve().parent / "lint_fixtures"
VABLINT = REPO_ROOT / "tools" / "vablint.py"

ALL_RULES = ("VAB001", "VAB002", "VAB003", "VAB004", "VAB005")

# rule id -> (bad fixture, expected finding lines in order)
EXPECTED_BAD = {
    "VAB001": ("vab001_bad.py", [6, 11, 12]),
    "VAB002": ("vab002_bad.py", [8, 17]),
    "VAB003": ("vab003_bad.py", [6, 10, 15, 19]),
    "VAB004": ("vab004_bad.py", [7, 11]),
    "VAB005": ("vab005_bad.py", [4, 4, 9, 14, 14, 18]),
}


def run_vablint(*args):
    """Run the standalone CLI; returns (exit_code, stdout, stderr)."""
    proc = subprocess.run(
        [sys.executable, str(VABLINT), *args],
        capture_output=True, text=True, cwd=str(REPO_ROOT),
    )
    return proc.returncode, proc.stdout, proc.stderr


def rule_findings(report, rule_id):
    """The report's findings of one rule (every rule runs on every file)."""
    return [f for f in report.findings if f.rule_id == rule_id]


# ---------------------------------------------------------------------------
# the rules, one by one
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("rule_id", ALL_RULES)
def test_bad_fixture_trips_exactly_the_expected_lines(rule_id):
    name, lines = EXPECTED_BAD[rule_id]
    report = lint_paths([FIXTURES / name])
    assert [f.line for f in rule_findings(report, rule_id)] == lines
    assert report.exit_code == EXIT_FINDINGS


@pytest.mark.parametrize("rule_id", ALL_RULES)
def test_clean_twin_is_clean_under_every_rule(rule_id):
    name = EXPECTED_BAD[rule_id][0].replace("_bad", "_clean")
    report = lint_paths([FIXTURES / name])
    assert report.clean, [f.render() for f in report.findings]
    assert report.exit_code == EXIT_CLEAN


def test_vab004_exempts_obs_directories():
    exempt = FIXTURES / "obs" / "clock_exempt.py"
    assert lint_paths([exempt]).clean
    # The same source outside an obs/ directory is a violation.
    findings = lint_source(exempt.read_text(), path="repro/sim/clock.py")
    assert [f.rule_id for f in findings] == ["VAB004"]


def test_findings_carry_message_and_render():
    report = lint_paths([FIXTURES / "vab001_bad.py"])
    first = rule_findings(report, "VAB001")[0]
    assert "default_rng" in first.message
    assert first.render().startswith(f"{first.path}:{first.line}:")
    assert "VAB001" in first.render()


# ---------------------------------------------------------------------------
# exit codes and parse errors
# ---------------------------------------------------------------------------


def test_broken_file_yields_vab000_and_exit_2():
    report = lint_paths([FIXTURES / "broken_syntax.py"])
    assert report.findings == []
    assert [e.rule_id for e in report.errors] == [PARSE_ERROR_RULE]
    assert report.errors[0].is_error
    assert report.exit_code == EXIT_ERROR


def test_missing_path_raises():
    with pytest.raises(FileNotFoundError):
        lint_paths([FIXTURES / "does_not_exist.py"])


# ---------------------------------------------------------------------------
# the tree itself, the catalogue
# ---------------------------------------------------------------------------


def test_src_repro_lints_clean():
    """The acceptance gate: the shipped library has zero violations."""
    package_root = Path(repro.__file__).resolve().parent
    report = lint_paths([package_root])
    assert report.clean, "\n".join(f.render() for f in report.findings)
    assert report.files > 50
    assert report.rules == list(ALL_RULES)


def test_rule_catalogue_is_complete():
    catalogue = rule_catalogue()
    assert tuple(sorted(catalogue)) == ALL_RULES
    for rule_cls in catalogue.values():
        assert rule_cls.summary
    assert [r.rule_id for r in make_rules()] == list(ALL_RULES)


def test_render_json_schema():
    report = lint_paths([FIXTURES / "vab005_bad.py"])
    payload = json.loads(render_json(report))
    assert payload["clean"] is False
    assert payload["files"] == 1
    assert payload["counts"] == {"VAB005": 6}
    assert {f["rule"] for f in payload["findings"]} == {"VAB005"}


# ---------------------------------------------------------------------------
# CLI surfaces
# ---------------------------------------------------------------------------


def test_vablint_cli_exit_code_contract():
    code, out, _ = run_vablint(str(FIXTURES / "vab001_clean.py"))
    assert code == EXIT_CLEAN and "clean" in out
    code, out, _ = run_vablint(str(FIXTURES / "vab001_bad.py"))
    assert code == EXIT_FINDINGS and "VAB001" in out
    code, _, err = run_vablint(str(FIXTURES / "no_such_dir"))
    assert code == EXIT_ERROR and err


def test_vablint_cli_json_report():
    code, out, _ = run_vablint("--json", str(FIXTURES / "vab003_bad.py"))
    assert code == EXIT_FINDINGS
    payload = json.loads(out)
    assert payload["rules"] == list(ALL_RULES)
    assert [
        f["line"] for f in payload["findings"] if f["rule"] == "VAB003"
    ] == [6, 10, 15, 19]


def test_vablint_cli_has_no_rule_filters_or_excludes():
    for flag in ("--select", "--disable", "--exclude"):
        code, _, err = run_vablint(flag, "VAB003", str(FIXTURES))
        assert code == EXIT_ERROR and "unrecognized arguments" in err


def test_vablint_cli_default_tree_is_clean():
    code, out, _ = run_vablint()
    assert code == EXIT_CLEAN, out


# ---------------------------------------------------------------------------
# discovery excludes
# ---------------------------------------------------------------------------


def test_discover_files_excludes_fixture_tree_by_default():
    from repro.analysis import discover_files

    files = discover_files([REPO_ROOT / "tests"])
    assert files, "discovery found nothing under tests/"
    assert not any("lint_fixtures" in f.as_posix() for f in files)


def test_discover_files_never_excludes_named_files():
    from repro.analysis import discover_files

    target = FIXTURES / "vab001_bad.py"
    assert discover_files([target]) == [target]


# ---------------------------------------------------------------------------
# the units engine through the CLIs
# ---------------------------------------------------------------------------


def test_vablint_cli_units_flag(tmp_path):
    cache = tmp_path / "cache.json"
    code, out, _ = run_vablint(
        "--units", "--units-cache", str(cache),
        str(FIXTURES / "vab009_bad.py"),
    )
    assert code == EXIT_FINDINGS
    assert "VAB009" in out
    code, out, _ = run_vablint(
        "--units", "--no-units-cache", str(FIXTURES / "vab009_clean.py")
    )
    assert code == EXIT_CLEAN
    assert "units: engine" in out


def test_catalogue_lists_unit_rules():
    code, out, _ = run_vablint("--catalogue")
    assert code == 0
    for rule_id in ("VAB006", "VAB007", "VAB008", "VAB009", "VAB010"):
        assert rule_id in out


def test_vablint_cli_catalogue_lists_every_rule():
    from repro.analysis.engines import ENGINES

    code, out, _ = run_vablint("--catalogue")
    assert code == 0
    listed = [line.split()[0] for line in out.splitlines()]
    engine_ids = [r for engine in ENGINES for r in engine.rule_ids]
    assert listed == list(ALL_RULES) + engine_ids


def test_vablint_cli_units_json():
    code, out, _ = run_vablint(
        "--units", "--no-units-cache", "--json", str(FIXTURES / "vab010_bad.py")
    )
    assert code == EXIT_FINDINGS
    payload = json.loads(out)
    assert payload["counts"] == {"VAB010": 2}
    assert payload["units"]["engine_version"]
    assert "VAB010" in payload["rules"]
