"""Tier-1 tests for ``repro.analysis`` (vablint) and its entry points.

One fixture module per rule carries known violations with pinned line
numbers, next to a clean twin that must pass the *full* rule set; the
suite also locks the suppression syntax, the exit-code contract, the
CLI (``tools/vablint.py``), and — the point of the whole exercise —
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
    SuppressionIndex,
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


# ---------------------------------------------------------------------------
# the rules, one by one
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("rule_id", ALL_RULES)
def test_bad_fixture_trips_exactly_the_expected_lines(rule_id):
    name, lines = EXPECTED_BAD[rule_id]
    report = lint_paths([FIXTURES / name], select=[rule_id])
    assert [f.rule_id for f in report.findings] == [rule_id] * len(lines)
    assert [f.line for f in report.findings] == lines
    assert report.exit_code == EXIT_FINDINGS


@pytest.mark.parametrize("rule_id", ALL_RULES)
def test_clean_twin_is_clean_under_every_rule(rule_id):
    name = EXPECTED_BAD[rule_id][0].replace("_bad", "_clean")
    report = lint_paths([FIXTURES / name])
    assert report.clean, [f.render() for f in report.findings]
    assert report.exit_code == EXIT_CLEAN


def test_vab004_exempts_obs_directories():
    exempt = FIXTURES / "obs" / "clock_exempt.py"
    assert lint_paths([exempt], select=["VAB004"]).clean
    # The same source outside an obs/ directory is a violation.
    findings = lint_source(
        exempt.read_text(), path="repro/sim/clock.py",
        rules=make_rules(select=["VAB004"]),
    )
    assert [f.rule_id for f in findings] == ["VAB004"]


def test_findings_carry_message_and_render():
    report = lint_paths([FIXTURES / "vab001_bad.py"], select=["VAB001"])
    first = report.findings[0]
    assert "default_rng" in first.message
    assert first.render().startswith(f"{first.path}:{first.line}:")
    assert "VAB001" in first.render()


# ---------------------------------------------------------------------------
# suppression
# ---------------------------------------------------------------------------


def test_line_suppression_and_all_sentinel():
    report = lint_paths([FIXTURES / "suppressed_lines.py"])
    assert report.clean
    # Without the comments, both sites are VAB001 violations.
    stripped = "\n".join(
        line.split("  #")[0]
        for line in (FIXTURES / "suppressed_lines.py").read_text().splitlines()
    )
    findings = lint_source(stripped, rules=make_rules(select=["VAB001"]))
    assert len(findings) == 2


def test_file_level_suppression():
    report = lint_paths([FIXTURES / "suppressed_file.py"])
    assert report.clean


def test_bare_disable_suppresses_every_rule():
    """``# vablint: disable`` with no rule list means disable=all."""
    report = lint_paths([FIXTURES / "suppressed_bare.py"])
    assert report.clean
    index = SuppressionIndex.from_source("import x  # vablint: disable\n")
    assert index.is_suppressed(1, "VAB001")
    assert index.is_suppressed(1, "VAB999")
    # The bare form is line-scoped, not file-scoped.
    assert not index.is_suppressed(2, "VAB001")


def test_bare_disable_file_suppresses_everywhere():
    index = SuppressionIndex.from_source("# vablint: disable-file\nimport x\n")
    assert index.is_suppressed(1, "VAB001")
    assert index.is_suppressed(99, "VAB004")


def test_suppression_index_ignores_strings():
    index = SuppressionIndex.from_source(
        's = "# vablint: disable=VAB001"\nimport numpy\n'
    )
    assert not index.is_suppressed(1, "VAB001")


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


def test_unknown_rule_id_raises():
    with pytest.raises(KeyError):
        make_rules(select=["VAB999"])


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


def test_render_json_schema():
    report = lint_paths([FIXTURES / "vab005_bad.py"], select=["VAB005"])
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


def test_vablint_cli_json_and_select():
    code, out, _ = run_vablint(
        "--json", "--select", "VAB003", str(FIXTURES / "vab003_bad.py")
    )
    assert code == EXIT_FINDINGS
    payload = json.loads(out)
    assert payload["rules"] == ["VAB003"]
    assert [f["line"] for f in payload["findings"]] == [6, 10, 15, 19]


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


def test_discover_files_exclude_override_and_custom_globs():
    from repro.analysis import discover_files

    # An empty exclude list restores the fixtures.
    files = discover_files([REPO_ROOT / "tests"], exclude=[])
    assert any("lint_fixtures" in f.as_posix() for f in files)
    # Custom globs stack on file names too.
    files = discover_files([REPO_ROOT / "tests"], exclude=["test_vablint*"])
    assert not any(f.name.startswith("test_vablint") for f in files)


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
