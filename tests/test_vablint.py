"""Tier-1 tests for ``repro.analysis`` (vablint): the one lint gate.

One fixture module per rule carries known violations with pinned line
numbers, next to a clean twin that must pass the *full* rule set; the
suite also locks parse errors, file discovery, the dataflow engines'
stats and cache reuse, and — the point of the whole exercise — that
``src/repro`` itself lints clean under all 18 rules.
"""

from pathlib import Path

import pytest

import repro
from repro.analysis import discover_files, lint_paths, lint_source, make_rules, rule_catalogue
from repro.analysis.engines import ENGINES
from repro.analysis.findings import PARSE_ERROR_RULE

FIXTURES = Path(__file__).resolve().parent / "lint_fixtures"
REPO_ROOT = FIXTURES.parent.parent

ALL_RULES = ("VAB001", "VAB002", "VAB003", "VAB004", "VAB005")

# rule id -> (bad fixture, expected finding lines in order)
EXPECTED_BAD = {
    "VAB001": ("vab001_bad.py", [6, 11, 12]),
    "VAB002": ("vab002_bad.py", [8, 17]),
    "VAB003": ("vab003_bad.py", [6, 10, 15, 19]),
    "VAB004": ("vab004_bad.py", [7, 11]),
    "VAB005": ("vab005_bad.py", [4, 4, 9, 14, 14, 18]),
}


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
    assert report.errors == []


@pytest.mark.parametrize("rule_id", ALL_RULES)
def test_clean_twin_is_clean_under_every_rule(rule_id):
    name = EXPECTED_BAD[rule_id][0].replace("_bad", "_clean")
    report = lint_paths([FIXTURES / name])
    assert report.clean, [f.render() for f in report.findings]


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
# unusable input
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("units", [False, True])
def test_broken_file_yields_one_vab000_error(units):
    """A file that does not parse is an error, not a finding, and every
    pass that meets it reports the same one."""
    report = lint_paths([FIXTURES / "broken_syntax.py"], units=units)
    assert report.findings == []
    assert [e.rule_id for e in report.errors] == [PARSE_ERROR_RULE]
    assert report.errors[0].is_error
    assert not report.clean


def test_missing_path_raises():
    with pytest.raises(FileNotFoundError):
        lint_paths([FIXTURES / "does_not_exist.py"])


# ---------------------------------------------------------------------------
# the tree itself, the catalogue
# ---------------------------------------------------------------------------


def test_src_repro_lints_clean():
    """The lint gate: the shipped library has zero violations under
    every rule, the per-file ones and the three dataflow engines', and
    every engine ran its fixed point over it."""
    package_root = Path(repro.__file__).resolve().parent
    report = lint_paths([package_root], units=True)
    assert report.clean, "\n".join(
        f.render() for f in report.errors + report.findings
    )
    assert report.files > 50
    engine_rules = [r for engine in ENGINES for r in engine.rule_ids]
    assert report.rules == list(ALL_RULES) + engine_rules
    assert len(report.rules) == 18
    for engine in ENGINES:
        assert report.engine_stats[engine.name]["passes"] >= 1, engine.name


def test_rule_catalogue_is_complete():
    catalogue = rule_catalogue()
    assert tuple(sorted(catalogue)) == ALL_RULES
    for rule_cls in catalogue.values():
        assert rule_cls.summary
    assert [r.rule_id for r in make_rules()] == list(ALL_RULES)


# ---------------------------------------------------------------------------
# discovery
# ---------------------------------------------------------------------------


def test_discover_files_excludes_fixture_tree_by_default():
    files = discover_files([REPO_ROOT / "tests"])
    assert files, "discovery found nothing under tests/"
    assert not any("lint_fixtures" in f.as_posix() for f in files)


def test_discover_files_never_excludes_named_files():
    target = FIXTURES / "vab001_bad.py"
    assert discover_files([target]) == [target]


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
    report = lint_paths(["../checkout/pkg"])
    assert report.files == 1
    assert rule_findings(report, "VAB001")


def test_directory_under_a_dot_directory_is_linted(tmp_path):
    pkg = _tree_with_one_finding(tmp_path / ".cache" / "checkout")
    report = lint_paths([pkg])
    assert report.files == 1
    assert rule_findings(report, "VAB001")


# ---------------------------------------------------------------------------
# the dataflow engines: one pass, one shared cache
# ---------------------------------------------------------------------------


def test_all_three_engines_report_in_one_pass():
    targets = [
        FIXTURES / "vab006_bad.py",   # units finding
        FIXTURES / "vab013_bad.py",   # shapes finding
        FIXTURES / "vab017_bad.py",   # effects finding
    ]
    report = lint_paths(targets, units=True)
    assert {"VAB006", "VAB013", "VAB017"} <= {f.rule_id for f in report.findings}
    stats = [report.units_stats, report.shapes_stats, report.effects_stats]
    assert list(report.engine_stats) == [engine.name for engine in ENGINES]
    for engine, engine_stats in zip(ENGINES, stats):
        assert engine_stats["engine_version"] == engine.version
        assert engine_stats["files"] == 3


def test_warm_run_reuses_every_engine_cache(tmp_path):
    cache = tmp_path / "units_cache.json"
    target = [FIXTURES / "vab017_clean.py"]
    cold = lint_paths(target, units=True, units_cache=cache)
    warm = lint_paths(target, units=True, units_cache=cache)
    assert warm.clean
    for name in ("units", "shapes", "effects"):
        assert cold.engine_stats[name]["analyzed"] == 1, name
        assert warm.engine_stats[name]["reused"] == 1, name
        assert warm.engine_stats[name]["analyzed"] == 0, name
        assert warm.engine_stats[name]["passes"] >= 1, name
