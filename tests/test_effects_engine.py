"""Tier-1 tests for the effect/purity analysis engine (VAB017..VAB018).

Fixture pairs with pinned line numbers lock each rule; the vocabulary
tests lock the ``Pure``/``Effectful`` contract spelling; the
interprocedural tests lock effect propagation through un-annotated
callers and the declared grants on the shipped ``sim.cache`` hot path.
The incremental-cache contract shared by all three engines is tested
in ``test_engine_table.py``.
"""

import json
from dataclasses import replace
from pathlib import Path
from typing import get_type_hints

import pytest

import repro
from repro.analysis import engines, lint_paths
from repro.analysis.dataflow import run_fixed_point
from repro.analysis.effects import analyze_effects
from repro.analysis.effects.engine import EffectSummary
from repro.analysis.effects.vocab import (
    HIDDEN_INPUT_ATOMS,
    SIDE_EFFECT_ATOMS,
    TAG_CONSTANTS,
)
from repro.analysis.engines import engine_named
from repro.analysis.units.symbols import extract_module
from repro.contracts import ATOMS, EffectTag, Effectful, Pure

EFFECTS = engine_named("effects")

FIXTURES = Path(__file__).resolve().parent / "lint_fixtures"

# rule id -> (bad fixture, expected finding lines in order)
EXPECTED_EFFECTS_BAD = {
    "VAB017": ("vab017_bad.py", [15, 20]),
    "VAB018": ("vab018_bad.py", [10, 16, 17, 18]),
}


# ---------------------------------------------------------------------------
# the rules, one by one
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("rule_id", sorted(EXPECTED_EFFECTS_BAD))
def test_bad_fixture_trips_exactly_the_expected_lines(rule_id):
    name, lines = EXPECTED_EFFECTS_BAD[rule_id]
    report = lint_paths([FIXTURES / name], units=True)
    assert [f.line for f in report.findings if f.rule_id == rule_id] == lines


@pytest.mark.parametrize("rule_id", sorted(EXPECTED_EFFECTS_BAD))
def test_clean_twin_is_clean_under_every_rule(rule_id):
    name = EXPECTED_EFFECTS_BAD[rule_id][0].replace("_bad", "_clean")
    report = lint_paths([FIXTURES / name], units=True)
    assert report.clean, [f.render() for f in report.findings]


def test_effect_rule_ids_and_catalogue_agree():
    assert EFFECTS.rule_ids == tuple(sorted(EXPECTED_EFFECTS_BAD))
    for rule_id, (name, summary) in EFFECTS.rules.items():
        assert name and summary, rule_id


# ---------------------------------------------------------------------------
# cross-engine interplay
# ---------------------------------------------------------------------------


def test_shapes_and_effects_both_report_on_one_line(tmp_path):
    """One line carrying a VAB013 (shapes) and a VAB017 (effects) gets a
    finding from each engine: neither engine's pass hides the other's."""
    src = (
        "import os\n"
        "from functools import lru_cache\n"
        "from repro.analysis.shapes.vocab import ComplexShaped\n"
        "\n"
        "@lru_cache(maxsize=None)\n"
        "def peak(field: ComplexShaped['angles']) -> float:\n"
        "    return float(field[0]) + float(os.getenv('K', '0'))\n"
    )
    path = tmp_path / "cross.py"
    path.write_text(src)
    report = lint_paths([path], units=True)
    assert sorted((f.rule_id, f.line) for f in report.findings) == [
        ("VAB013", 7), ("VAB017", 7),
    ]


# ---------------------------------------------------------------------------
# the contract vocabulary
# ---------------------------------------------------------------------------


def test_pure_factory_builds_the_empty_grant():
    assert Pure[int].__metadata__[0] == EffectTag(())


def test_effectful_factory_validates_atoms():
    tag = Effectful[str, "reads:host", "reads:environ"].__metadata__[0]
    assert tag == EffectTag(("reads:host", "reads:environ"))
    with pytest.raises(TypeError):
        Effectful[str]  # no atoms: that's Pure's job
    with pytest.raises(TypeError):
        Effectful[str, "reads:moon"]


def test_tag_constants_cover_every_atom():
    granted = {a for tag in TAG_CONSTANTS.values() for a in tag.atoms}
    assert granted == set(ATOMS)
    assert TAG_CONSTANTS["PURE"].atoms == ()


def test_atom_partition_is_sound():
    # Hidden inputs and side effects partition the non-arg atoms;
    # mutates:arg is a side effect but never a hidden input.
    assert HIDDEN_INPUT_ATOMS & SIDE_EFFECT_ATOMS == frozenset()
    assert HIDDEN_INPUT_ATOMS | SIDE_EFFECT_ATOMS == set(ATOMS)


def test_contracts_are_inert_at_runtime():
    """Annotated modules must import and type-hint cleanly: the tags
    ride ``Annotated`` metadata, invisible to ``get_type_hints``."""
    from repro.sim.cache import cached_between
    from repro.sim.parallel import default_workers

    assert get_type_hints(default_workers)["return"] is int
    assert "return" in get_type_hints(cached_between)


def test_effect_summary_round_trips_through_json():
    summary = EffectSummary(
        qualname="m.f", path="m.py",
        effects=(("reads:environ", "os.getenv"),),
        declared=("reads:host",), has_rng_param=True, memoized=True,
    )
    rebuilt = EffectSummary.from_dict(
        json.loads(json.dumps(summary.to_dict()))
    )
    assert rebuilt == summary


# ---------------------------------------------------------------------------
# interprocedural inference
# ---------------------------------------------------------------------------


def _write_effect_pair(tmp_path, hidden):
    producer = tmp_path / "producer.py"
    caller = tmp_path / "caller.py"
    if hidden:
        producer.write_text(
            "import os\n"
            "\n"
            "\n"
            "def knob() -> str:\n"
            '    return os.getenv("REPRO_KNOB", "x")\n'
        )
    else:
        producer.write_text(
            "def knob() -> str:\n"
            '    return "x"\n'
        )
    caller.write_text(
        "from functools import lru_cache\n"
        "\n"
        "from producer import knob\n"
        "\n"
        "\n"
        "@lru_cache(maxsize=None)\n"
        "def cached_knob() -> str:\n"
        "    return knob()\n"
    )
    return producer, caller


def test_hidden_input_propagates_to_the_memoized_caller(tmp_path):
    """knob() reads environ; the un-annotated memoized caller inherits
    the effect through the fixed point and trips VAB017 at its call
    site, in a different file from the read itself."""
    producer, caller = _write_effect_pair(tmp_path, hidden=True)
    report = analyze_effects([producer, caller])
    got = [(f.rule_id, Path(f.path).name, f.line) for f in report.findings]
    assert ("VAB017", "caller.py", 8) in got
    assert report.passes >= 2  # the chain needs propagation, not one sweep


def test_sim_cache_hot_path_carries_declared_grants():
    """The shipped memo path is annotated, not suppressed: the grants
    on ``cached_between``/``reader_node_response`` cover exactly the
    memo-store traffic, and ``_site_key`` is declared Pure."""
    path = Path(repro.__file__).resolve().parent / "sim" / "cache.py"
    info = extract_module(path, path.read_text(encoding="utf-8"))
    _, summaries, _ = run_fixed_point(EFFECTS, [info], EFFECTS.seed([info]))
    prefix = "repro.sim.cache."

    for name in ("cached_between", "reader_node_response"):
        summary = summaries[prefix + name]
        assert summary.memoized
        assert summary.declared == ("mutates:global", "reads:global")

    site_key = summaries[prefix + "_site_key"]
    assert site_key.declared == ()  # Pure
    assert site_key.memoized  # purity implies cacheability


# ---------------------------------------------------------------------------
# incremental cache
# ---------------------------------------------------------------------------


def test_cache_and_cold_reports_are_byte_identical(tmp_path):
    cache = tmp_path / "effects_cache.json"
    fixture = FIXTURES / "vab017_bad.py"
    cold = lint_paths([fixture], units=True)
    analyze_effects([fixture], cache_path=cache)  # prime
    warm = lint_paths([fixture], units=True, units_cache=cache)
    assert warm.effects_stats["reused"] == 1
    # Stats differ (analyzed vs reused); the findings must not.
    assert cold.findings == warm.findings


def test_cache_invalidates_on_engine_version_change(tmp_path, monkeypatch):
    producer, caller = _write_effect_pair(tmp_path, hidden=True)
    cache = tmp_path / "effects_cache.json"
    analyze_effects([producer, caller], cache_path=cache)
    warm = analyze_effects([producer, caller], cache_path=cache)
    assert warm.analyzed == []

    bumped_table = tuple(
        replace(e, version="999.0.0") if e.name == "effects" else e
        for e in engines.ENGINES
    )
    monkeypatch.setattr(engines, "ENGINES", bumped_table)
    bumped = analyze_effects([producer, caller], cache_path=cache)
    assert sorted(Path(p).name for p in bumped.analyzed) == [
        "caller.py", "producer.py",
    ]
    assert bumped.engine_version == "999.0.0"


def test_lint_paths_writes_the_sibling_effects_cache(tmp_path):
    """The effects entries sit beside the units entries: an ``effects``
    section of the one ``units_cache`` file, stamped with its version."""
    units_cache = tmp_path / "units_cache.json"
    report = lint_paths(
        [FIXTURES / "vab017_bad.py"], units=True, units_cache=units_cache
    )
    assert report.units_stats is not None
    assert report.effects_stats is not None
    assert sorted(p.name for p in tmp_path.iterdir()) == ["units_cache.json"]
    payload = json.loads(units_cache.read_text())
    assert payload["effects"]["version"] == report.effects_stats["engine_version"]
    assert list(payload["effects"]["files"]) == [
        (FIXTURES / "vab017_bad.py").as_posix()
    ]
