"""Tier-1 tests for the shape/dtype dataflow engine (VAB011..VAB016).

Fixture pairs with pinned line numbers lock each rule; the vocabulary
tests lock the dimension/dtype algebra the rules rest on; the chain
test locks interprocedural inference through the ``vanatta.fastfield``
kernel delegation. The incremental-cache contract shared by all three
engines is tested in ``test_engine_table.py``.
"""

import json
from dataclasses import replace
from pathlib import Path

import pytest

import repro
from repro.analysis import engines, lint_paths
from repro.analysis.dataflow import run_fixed_point
from repro.analysis.engines import engine_named
from repro.analysis.shapes import analyze_shapes
from repro.analysis.shapes.vocab import (
    ShapeVal,
    broadcast_dims,
    contract_conflict,
    dims_conflict,
    promote_dtype,
)
from repro.analysis.units.symbols import extract_module
from repro.contracts import COMPLEX, FLOAT, INT, ComplexShaped, ShapeTag

SHAPES = engine_named("shapes")

FIXTURES = Path(__file__).resolve().parent / "lint_fixtures"

# rule id -> (bad fixture, expected finding lines in order)
EXPECTED_SHAPES_BAD = {
    "VAB011": ("vab011_bad.py", [13, 20]),
    "VAB012": ("vab012_bad.py", [8, 15]),
    "VAB013": ("vab013_bad.py", [10, 16, 22, 27]),
    "VAB014": ("vab014_bad.py", [9, 16]),
    "VAB015": ("vab015_bad.py", [12, 21]),
    "VAB016": ("vab016_bad.py", [10, 15]),
}


# ---------------------------------------------------------------------------
# the rules, one by one
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("rule_id", sorted(EXPECTED_SHAPES_BAD))
def test_bad_fixture_trips_exactly_the_expected_lines(rule_id):
    name, lines = EXPECTED_SHAPES_BAD[rule_id]
    report = lint_paths([FIXTURES / name], units=True)
    assert [f.line for f in report.findings if f.rule_id == rule_id] == lines


@pytest.mark.parametrize("rule_id", sorted(EXPECTED_SHAPES_BAD))
def test_clean_twin_is_clean_under_every_rule(rule_id):
    name = EXPECTED_SHAPES_BAD[rule_id][0].replace("_bad", "_clean")
    report = lint_paths([FIXTURES / name], units=True)
    assert report.clean, [f.render() for f in report.findings]


def test_shape_rule_ids_and_catalogue_agree():
    assert SHAPES.rule_ids == tuple(sorted(EXPECTED_SHAPES_BAD))
    for rule_id, (name, summary) in SHAPES.rules.items():
        assert name and summary, rule_id


# ---------------------------------------------------------------------------
# interprocedural inference through the fastfield kernel delegation
# ---------------------------------------------------------------------------


def test_fastfield_chain_infers_through_the_kernel():
    """kernel contract -> delegating sweep -> dB wrapper, no annotations
    on the last two: the fixed point must carry complex through the
    batch API and float through the magnitude wrapper."""
    path = (
        Path(repro.__file__).resolve().parent / "vanatta" / "fastfield.py"
    )
    info = extract_module(path, path.read_text(encoding="utf-8"))
    _, summaries, passes = run_fixed_point(SHAPES, [info], SHAPES.seed([info]))
    prefix = "repro.vanatta.fastfield.ArrayFactorEngine."

    kernel = summaries[prefix + "monostatic_field_sum"]
    assert kernel.return_source == "contract"
    assert kernel.returns.dims == ("...",)
    assert kernel.returns.dtype == COMPLEX

    batch = summaries[prefix + "monostatic_batch"]
    assert batch.return_source == "inferred"
    assert batch.returns.dtype == COMPLEX

    pattern = summaries[prefix + "monostatic_pattern_db"]
    assert pattern.return_source == "inferred"
    assert pattern.returns.dtype == FLOAT

    assert passes >= 2  # the chain needs propagation, not one sweep


# ---------------------------------------------------------------------------
# the contract vocabulary
# ---------------------------------------------------------------------------


def test_shaped_factory_builds_annotated_tags():
    tag = ComplexShaped["trials", "samples"].__metadata__[0]
    assert tag == ShapeTag(("trials", "samples"), COMPLEX)
    variadic = ComplexShaped[..., "D"].__metadata__[0]
    assert variadic.dims == ("...", "D")
    with pytest.raises(TypeError):
        ComplexShaped[object()]


def test_promote_dtype_lattice():
    assert promote_dtype(COMPLEX, None) == COMPLEX
    assert promote_dtype(None, FLOAT) is None
    assert promote_dtype(INT, FLOAT) == FLOAT
    assert promote_dtype(INT, INT) == INT


def test_dims_conflict_only_on_same_kind_tokens():
    assert dims_conflict("trials", "samples")
    assert dims_conflict(3, 4)
    assert not dims_conflict("trials", 3)
    assert not dims_conflict("trials", "?")
    assert not dims_conflict("trials", "trials")


def test_broadcast_dims_alignment():
    dims, conflict = broadcast_dims(("trials", "samples"), ("trials", 1))
    assert dims == ("trials", "samples") and conflict is None
    dims, conflict = broadcast_dims(("trials",), ("samples",))
    assert dims is None and conflict == ("trials", "samples")
    dims, conflict = broadcast_dims(("trials", "samples"), ("trials",))
    assert dims is None and conflict == ("samples", "trials")
    dims, conflict = broadcast_dims(("...", "D"), ("trials",))
    assert dims is None and conflict is None


def test_contract_conflict_messages():
    assert contract_conflict(("angles",), ("angles",)) is None
    assert contract_conflict(("angles",), ("?",)) is None
    assert "rank 1" in contract_conflict(("angles", "elements"), ("elements",))
    assert "contract requires" in contract_conflict(("angles",), ("elements",))
    assert contract_conflict(("...", "D"), ("a", "b", "D")) is None
    assert contract_conflict(None, ("a",)) is None


def test_shape_val_round_trips_through_json():
    val = ShapeVal(("trials", 3, "?"), COMPLEX, shared=True)
    assert ShapeVal.from_dict(json.loads(json.dumps(val.to_dict()))) == val


# ---------------------------------------------------------------------------
# incremental cache
# ---------------------------------------------------------------------------


def test_cache_and_cold_reports_are_byte_identical(tmp_path):
    cache = tmp_path / "shapes_cache.json"
    fixture = FIXTURES / "vab013_bad.py"
    cold = lint_paths([fixture], units=True)
    analyze_shapes([fixture], cache_path=cache)  # prime
    warm = lint_paths([fixture], units=True, units_cache=cache)
    assert warm.shapes_stats["reused"] == 1
    # Stats differ (analyzed vs reused); the findings must not.
    assert cold.findings == warm.findings


def _write_kernel_pair(tmp_path):
    producer = tmp_path / "producer.py"
    caller = tmp_path / "caller.py"
    producer.write_text(
        "from repro.contracts import ComplexShaped\n"
        "\n"
        "def kernel(n: int) -> ComplexShaped['angles']:\n"
        "    raise NotImplementedError\n"
    )
    caller.write_text(
        "from producer import kernel\n"
        "\n"
        "def level(n: int) -> float:\n"
        "    return float(kernel(n)[0])\n"
    )
    return producer, caller


def test_cache_invalidates_on_engine_version_change(tmp_path, monkeypatch):
    producer, caller = _write_kernel_pair(tmp_path)
    cache = tmp_path / "shapes_cache.json"
    analyze_shapes([producer, caller], cache_path=cache)
    warm = analyze_shapes([producer, caller], cache_path=cache)
    assert warm.analyzed == []

    bumped_table = tuple(
        replace(e, version="999.0.0") if e.name == "shapes" else e
        for e in engines.ENGINES
    )
    monkeypatch.setattr(engines, "ENGINES", bumped_table)
    bumped = analyze_shapes([producer, caller], cache_path=cache)
    assert sorted(Path(p).name for p in bumped.analyzed) == [
        "caller.py", "producer.py",
    ]
    assert bumped.engine_version == "999.0.0"


def test_lint_paths_writes_the_sibling_shapes_cache(tmp_path):
    """The shapes entries sit beside the units entries: a ``shapes``
    section of the one ``units_cache`` file, stamped with its version."""
    units_cache = tmp_path / "units_cache.json"
    report = lint_paths(
        [FIXTURES / "vab016_bad.py"], units=True, units_cache=units_cache
    )
    assert report.units_stats is not None
    assert report.shapes_stats is not None
    assert sorted(p.name for p in tmp_path.iterdir()) == ["units_cache.json"]
    payload = json.loads(units_cache.read_text())
    assert payload["shapes"]["version"] == report.shapes_stats["engine_version"]
    assert list(payload["shapes"]["files"]) == [
        (FIXTURES / "vab016_bad.py").as_posix()
    ]
