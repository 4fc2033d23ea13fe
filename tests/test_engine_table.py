"""Tier-1 tests for the engine table and the cache file the engines share.

Every dataflow engine in :data:`repro.analysis.engines.ENGINES` runs
through one incremental driver and keeps its entries in one section of
one cache file. These tests lock that contract once for all engines:
cold/warm/edit invalidation, per-engine version bumps, the single cache
file, and recovery from cache files that parse but are damaged.
"""

import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.analysis import engines, lint_paths, render_json
from repro.analysis.engines import ENGINES, engine_named

# engine -> (producer with a bug, fixed producer, caller, caller finding)
PAIRS = {
    "units": (
        "def spreading_db(distance_m: float) -> float:\n"
        "    return 15.0\n",
        "def spreading_db(distance_km: float) -> float:\n"
        "    return 15.0\n",
        "from producer import spreading_db\n"
        "\n"
        "def budget(range_km: float) -> float:\n"
        "    return spreading_db(range_km)\n",
        ("VAB010", "caller.py", 4),
    ),
    "shapes": (
        "from repro.contracts import ComplexShaped\n"
        "\n"
        "def kernel(n: int) -> ComplexShaped['angles']:\n"
        "    raise NotImplementedError\n",
        "from repro.contracts import FloatShaped\n"
        "\n"
        "def kernel(n: int) -> FloatShaped['angles']:\n"
        "    raise NotImplementedError\n",
        "from producer import kernel\n"
        "\n"
        "def level(n: int) -> float:\n"
        "    return float(kernel(n)[0])\n",
        ("VAB013", "caller.py", 4),
    ),
    "effects": (
        "import os\n"
        "\n"
        "\n"
        "def knob() -> str:\n"
        '    return os.getenv("REPRO_KNOB", "x")\n',
        "def knob() -> str:\n"
        '    return "x"\n',
        "from functools import lru_cache\n"
        "\n"
        "from producer import knob\n"
        "\n"
        "\n"
        "@lru_cache(maxsize=None)\n"
        "def cached_knob() -> str:\n"
        "    return knob()\n",
        ("VAB017", "caller.py", 8),
    ),
}

UNRELATED = "def spacing_m() -> float:\n    return 0.042\n"


def _write_pair(root: Path, name: str) -> list:
    """producer.py (buggy), caller.py and an unrelated module."""
    root.mkdir(parents=True, exist_ok=True)
    bad, _, caller, _ = PAIRS[name]
    (root / "producer.py").write_text(bad)
    (root / "caller.py").write_text(caller)
    (root / "unrelated.py").write_text(UNRELATED)
    return sorted(root.glob("*.py"))


def _names(paths):
    return sorted(Path(p).name for p in paths)


def _located(report):
    return [(f.rule_id, Path(f.path).name, f.line) for f in report.findings]


def test_engine_table_covers_every_engine_rule_once():
    assert [e.name for e in ENGINES] == ["units", "shapes", "effects"]
    ids = [r for e in ENGINES for r in e.rule_ids]
    assert ids == [f"VAB{n:03d}" for n in range(6, 23) if n != 21]
    assert [e.version for e in ENGINES] == ["1.0.0", "1.0.0", "1.1.0"]


@pytest.mark.parametrize("engine", ENGINES, ids=lambda e: e.name)
def test_cache_cold_warm_edit(tmp_path, engine):
    """Cold analyzes all; warm reuses all with identical findings;
    editing the producer re-analyzes it and its caller only."""
    files = _write_pair(tmp_path / "src", engine.name)
    cache = tmp_path / "cache.json"

    cold = engine.analyze(files, cache_path=cache)
    assert PAIRS[engine.name][3] in _located(cold)
    assert _names(cold.analyzed) == ["caller.py", "producer.py", "unrelated.py"]
    assert cold.reused == []

    warm = engine.analyze(files, cache_path=cache)
    assert warm.analyzed == []
    assert _names(warm.reused) == ["caller.py", "producer.py", "unrelated.py"]
    assert [f.to_dict() for f in warm.findings] == [
        f.to_dict() for f in cold.findings
    ]

    # Only the producer's bytes change, but the caller's verdict depends
    # on its summary -> both re-analyze, the unrelated module does not.
    (tmp_path / "src" / "producer.py").write_text(PAIRS[engine.name][1])
    edited = engine.analyze(files, cache_path=cache)
    assert _names(edited.analyzed) == ["caller.py", "producer.py"]
    assert _names(edited.reused) == ["unrelated.py"]
    assert edited.clean, [f.render() for f in edited.findings]


def test_version_bump_reanalyzes_only_that_engine(tmp_path, monkeypatch):
    root = tmp_path / "src"
    files = _write_pair(root, "effects")
    cache = tmp_path / "cache.json"
    cold = lint_paths([root], units=True, units_cache=cache)

    # One cache file, one section per engine, no sibling files.
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cache.json", "src"]
    sections = json.loads(cache.read_text())
    assert sorted(sections) == sorted(e.name for e in ENGINES)
    for engine in ENGINES:
        assert sections[engine.name]["version"] == engine.version
        assert sorted(sections[engine.name]["files"]) == [
            f.as_posix() for f in files
        ]

    warm = lint_paths([root], units=True, units_cache=cache)
    for name, stats in warm.engine_stats.items():
        assert (stats["analyzed"], stats["reused"]) == (0, len(files)), name
    assert json.loads(render_json(warm))["findings"] == json.loads(
        render_json(cold)
    )["findings"]

    bumped = tuple(
        replace(e, version="9.9.9") if e.name == "shapes" else e for e in ENGINES
    )
    monkeypatch.setattr(engines, "ENGINES", bumped)
    report = lint_paths([root], units=True, units_cache=cache)
    assert report.shapes_stats["engine_version"] == "9.9.9"
    assert report.shapes_stats["analyzed"] == len(files)
    assert report.units_stats["analyzed"] == 0
    assert report.effects_stats["analyzed"] == 0
    assert json.loads(cache.read_text())["shapes"]["version"] == "9.9.9"


def _old_format_cache(files):
    """A cache in the former one-file-per-engine layout, entries intact."""
    return {
        "engine": "1.0.0",
        "files": {
            f.as_posix(): {"sha": "0" * 64, "findings": [], "summaries": [], "refs": []}
            for f in files
        },
    }


@pytest.mark.parametrize(
    "damage",
    ["top-level-list", "old-header-files-list", "entry-without-sha", "old-format"],
)
def test_damaged_cache_file_gives_a_cold_run(tmp_path, damage):
    root = tmp_path / "src"
    files = _write_pair(root, "effects")
    baseline = lint_paths([root], units=True)

    cache = tmp_path / "cache.json"
    content = {
        "top-level-list": [],
        "old-header-files-list": {"engine": "1.0.0", "files": []},
        "entry-without-sha": {
            e.name: {"version": e.version, "files": {files[0].as_posix(): {}}}
            for e in ENGINES
        },
        "old-format": _old_format_cache(files),
    }[damage]
    cache.write_text(json.dumps(content))

    report = lint_paths([root], units=True, units_cache=cache)
    assert report.exit_code == baseline.exit_code
    assert [f.to_dict() for f in report.findings] == [
        f.to_dict() for f in baseline.findings
    ]
    for name, stats in report.engine_stats.items():
        assert stats["analyzed"] == len(files), name

    # The rewritten file is in the current layout and serves a warm run.
    rerun = lint_paths([root], units=True, units_cache=cache)
    assert all(s["analyzed"] == 0 for s in rerun.engine_stats.values())


def test_engine_named_rejects_unknown_names():
    assert engine_named("effects").rules["VAB022"][0] == "host-dependent-result"
    with pytest.raises(KeyError):
        engine_named("bogus")
