"""Tier-1 tests for the dimensional-analysis engine (VAB006..VAB010).

Fixture pairs with pinned line numbers lock each rule; the cache tests
lock units-specific incremental cases (the cold/warm/edit and version
contract shared by all three engines is tested in
``test_engine_table.py``); the determinism test locks identical
reports.
"""

from dataclasses import replace
from pathlib import Path

import pytest

from repro.analysis import engines, lint_paths
from repro.analysis.engines import engine_named
from repro.analysis.units import analyze_units
from repro.analysis.units.vocab import (
    combine_additive,
    combine_divisive,
    combine_multiplicative,
    unit_from_name,
)

FIXTURES = Path(__file__).resolve().parent / "lint_fixtures"

# rule id -> (bad fixture, expected finding lines in order)
EXPECTED_UNITS_BAD = {
    "VAB006": ("vab006_bad.py", [6, 12]),
    "VAB007": ("vab007_bad.py", [7]),
    "VAB008": ("vab008_bad.py", [8, 13]),
    "VAB009": ("vab009_bad.py", [6, 12]),
    "VAB010": ("vab010_bad.py", [13, 19]),
}


# ---------------------------------------------------------------------------
# the rules, one by one
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("rule_id", sorted(EXPECTED_UNITS_BAD))
def test_bad_fixture_trips_exactly_the_expected_lines(rule_id):
    name, lines = EXPECTED_UNITS_BAD[rule_id]
    report = lint_paths([FIXTURES / name], units=True)
    assert [f.line for f in report.findings if f.rule_id == rule_id] == lines


@pytest.mark.parametrize("rule_id", sorted(EXPECTED_UNITS_BAD))
def test_clean_twin_is_clean_under_every_rule(rule_id):
    name = EXPECTED_UNITS_BAD[rule_id][0].replace("_bad", "_clean")
    report = lint_paths([FIXTURES / name], units=True)
    assert report.clean, [f.render() for f in report.findings]


def test_unit_rule_ids_and_catalogue_agree():
    units = engine_named("units")
    assert units.rule_ids == tuple(sorted(EXPECTED_UNITS_BAD))
    for rule_id, (name, summary) in units.rules.items():
        assert name and summary, rule_id


def test_interprocedural_conflict_across_files(tmp_path):
    (tmp_path / "callee.py").write_text(
        "def spreading_db(distance_m: float) -> float:\n"
        "    return 15.0\n"
    )
    (tmp_path / "caller.py").write_text(
        "from callee import spreading_db\n"
        "\n"
        "def budget(range_km: float) -> float:\n"
        "    return spreading_db(range_km)\n"
    )
    report = analyze_units(sorted(tmp_path.glob("*.py")))
    assert [(f.rule_id, Path(f.path).name, f.line) for f in report.findings] == [
        ("VAB010", "caller.py", 4)
    ]


# ---------------------------------------------------------------------------
# incremental cache
# ---------------------------------------------------------------------------


def _write_three_modules(tmp_path):
    a = tmp_path / "alpha.py"
    b = tmp_path / "beta.py"
    c = tmp_path / "gamma.py"
    a.write_text(
        "def source_level_db() -> float:\n"
        "    return 180.0\n"
    )
    b.write_text(
        "from alpha import source_level_db\n"
        "\n"
        "def margin_db() -> float:\n"
        "    return source_level_db() - 10.0\n"
    )
    c.write_text(
        "def spacing_m() -> float:\n"
        "    return 0.042\n"
    )
    return a, b, c


def test_cache_catches_findings_introduced_in_dependents(tmp_path):
    a, b, c = _write_three_modules(tmp_path)
    cache = tmp_path / "units_cache.json"
    files = [a, b, c]
    assert analyze_units(files, cache_path=cache).clean

    # The callee's return changes meaning: the cached caller must be
    # re-analyzed against the new summary and now conflicts.
    a.write_text(
        "def source_level_db() -> float:\n"
        "    level_lin = 1e18\n"
        "    return level_lin\n"
    )
    report = analyze_units(files, cache_path=cache)
    assert b.as_posix() in report.analyzed
    assert any(f.rule_id == "VAB010" for f in report.findings), [
        f.render() for f in report.findings
    ]


def test_cache_invalidates_on_engine_version_change(tmp_path, monkeypatch):
    a, b, c = _write_three_modules(tmp_path)
    cache = tmp_path / "units_cache.json"
    analyze_units([a, b, c], cache_path=cache)
    bumped = tuple(
        replace(e, version="999.0.0") if e.name == "units" else e
        for e in engines.ENGINES
    )
    monkeypatch.setattr(engines, "ENGINES", bumped)
    report = analyze_units([a, b, c], cache_path=cache)
    assert report.reused == []
    assert len(report.analyzed) == 3
    assert report.engine_version == "999.0.0"


def test_damaged_cache_degrades_to_cold_run(tmp_path):
    a, b, c = _write_three_modules(tmp_path)
    cache = tmp_path / "units_cache.json"
    cache.write_text("{not json")
    report = analyze_units([a, b, c], cache_path=cache)
    assert len(report.analyzed) == 3
    # And the rewritten cache is usable.
    assert analyze_units([a, b, c], cache_path=cache).analyzed == []


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------


def test_reports_are_byte_identical_across_runs():
    bad = [FIXTURES / name for name, _ in EXPECTED_UNITS_BAD.values()]
    assert lint_paths(bad, units=True) == lint_paths(bad, units=True)


def test_cached_findings_match_cold_findings_exactly(tmp_path):
    bad = [FIXTURES / name for name, _ in EXPECTED_UNITS_BAD.values()]
    cache = tmp_path / "units_cache.json"
    cold = lint_paths(bad, units=True, units_cache=cache)
    warm = lint_paths(bad, units=True, units_cache=cache)
    assert warm.units_stats["analyzed"] == 0
    assert warm.shapes_stats["analyzed"] == 0
    assert warm.effects_stats["analyzed"] == 0
    # Stats differ (analyzed vs reused); nothing else may.
    assert (cold.findings, cold.errors, cold.files, cold.rules) == (
        warm.findings, warm.errors, warm.files, warm.rules
    )


def test_parallel_jobs_match_serial_output():
    bad = [FIXTURES / name for name, _ in EXPECTED_UNITS_BAD.values()]
    assert lint_paths(bad, jobs=1) == lint_paths(bad, jobs=2)


# ---------------------------------------------------------------------------
# the unit algebra itself
# ---------------------------------------------------------------------------


def test_suffix_vocabulary():
    assert unit_from_name("snr_db") == "dB"
    assert unit_from_name("range_m") == "m"
    assert unit_from_name("alpha_db_per_km") == "dB/km"
    assert unit_from_name("loss_db_per_bounce") == "dB"
    # Bare _s is deliberately not seconds (w_s, f_s are frequencies).
    assert unit_from_name("w_s") is None
    assert unit_from_name("plain_name") is None


def test_conversion_algebra():
    assert combine_divisive("m", None, 1e3) == "km"
    assert combine_multiplicative("km", None, b_const=1e3) == "m"
    assert combine_multiplicative("dB/km", "km") == "dB"
    assert combine_multiplicative("dB/km", "m") == "dB*m/km"
    assert combine_divisive("dB*m/km", None, 1e3) == "dB"
    assert combine_multiplicative("pi-scalar", "Hz") == "rad/s"
    assert combine_additive("dB", "dB") == "dB"
    assert combine_additive("dB", "scalar") == "dB"
    assert combine_divisive("m", "s") == "m/s"
    assert combine_divisive("m", "m") == "scalar"
