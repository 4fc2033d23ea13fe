"""The point pipeline's memos: one module, one key rule, one clear.

Every process-wide memo of the point pipeline is a :mod:`repro.memo`
memo, so the warm-equals-cold check in ``test_sim_parallel.py`` clears
them all with one call. These tests hold the rules that check relies
on: no memo is hand-rolled elsewhere, every memo is registered and
cleared, a stored result means what its key says (a change to any
field of the channel or the array misses, an equal value hits), stored
arrays are read-only, and a miss records no spans.
"""

import ast
import dataclasses
import enum
import importlib
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.acoustics.channel import AcousticChannel
from repro.core import Scenario
from repro.memo import MEMOS, clear_memos, key_of, memoize
from repro.obs.spans import collect_spans, span
from repro.sim import cache
from repro.sim.trials import TrialCampaign
from repro.vanatta import reflection
from repro.vanatta.array import VanAttaArray

SRC = Path(repro.__file__).resolve().parent
F = 18_500.0

# Imported or dotted names that would make a memo outside repro.memo.
HAND_ROLLED = {
    "functools": {"lru_cache", "cache"},
    "collections": {"OrderedDict"},
}


def _runtime_modules():
    """(dotted module name, parsed tree) of every module outside
    ``repro.analysis``."""
    for path in sorted(SRC.rglob("*.py")):
        parts = path.relative_to(SRC.parent).with_suffix("").parts
        if parts[1] == "analysis":
            continue
        name = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        yield name, ast.parse(path.read_text(encoding="utf-8"))


def _hand_rolled_memos(tree):
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module in HAND_ROLLED:
            found += [
                a.name for a in node.names if a.name in HAND_ROLLED[node.module]
            ]
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.attr in HAND_ROLLED.get(node.value.id, ())
        ):
            found.append(f"{node.value.id}.{node.attr}")
    return found


def _memoized_functions(module, tree):
    """Qualified names of the functions ``@memoize(...)`` decorates."""
    return {
        f"{module}.{node.name}"
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
        for dec in node.decorator_list
        if isinstance(dec, ast.Call) and getattr(dec.func, "id", "") == "memoize"
    }


def _repro_memos():
    return [m for m in MEMOS if m.__module__.startswith("repro.")]


def _warm_every_memo():
    """Run an ocean point (drift Doppler, sea-state noise): it reads all
    eight memos of the point pipeline."""
    TrialCampaign(trials_per_point=4, seed=1).run_trials(Scenario.ocean(100.0), 0)


def _arrays(value):
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, tuple):
        for item in value:
            yield from _arrays(item)


def _changed(value):
    """A different value of the same kind: the key must tell them apart."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, float)):
        return value + 1
    if isinstance(value, np.ndarray):
        return value + 0.01
    if isinstance(value, enum.Enum):
        return next(m for m in type(value) if m is not value)
    if isinstance(value, tuple):
        return value[::-1]
    if dataclasses.is_dataclass(value):
        first = dataclasses.fields(value)[0].name
        return dataclasses.replace(value, **{first: _changed(getattr(value, first))})
    raise TypeError(f"no changed value for {type(value).__name__}")


class TestOneMemoModule:
    def test_no_memo_is_hand_rolled_outside_repro_memo(self):
        found = {
            name: hits
            for name, tree in _runtime_modules()
            if (hits := _hand_rolled_memos(tree))
        }
        assert found == {}

    def test_every_memoize_use_is_registered(self):
        decorated = set()
        for module, tree in _runtime_modules():
            names = _memoized_functions(module, tree)
            if names:
                importlib.import_module(module)
            decorated |= names
        registered = {f"{m.__module__}.{m.__qualname__}" for m in _repro_memos()}
        assert len(decorated) == 8
        assert registered == decorated

    def test_clear_memos_empties_every_registered_memo(self):
        clear_memos()
        _warm_every_memo()
        assert all(memo.info()[2] > 0 for memo in _repro_memos())
        clear_memos()
        for memo in MEMOS:
            assert memo.info() == (0, 0, 0, memo.maxsize)

    def test_stored_arrays_are_read_only(self):
        clear_memos()
        _warm_every_memo()
        arrays = [
            array
            for memo in _repro_memos()
            for value in memo._store.values()
            for array in _arrays(value)
        ]
        # The preamble chips and template, the CRC table and init row,
        # the Doppler plan's three arrays, the template spectrum and the
        # shaping filter, at least.
        assert len(arrays) >= 10
        for array in arrays:
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0


def _site():
    scenario = Scenario.river(330.0)
    return scenario.channel(), scenario.reader.position, scenario.node.position


@pytest.mark.parametrize(
    "name", [f.name for f in dataclasses.fields(AcousticChannel)]
)
def test_channel_memo_keys_on_every_field(name):
    channel, source, receiver = _site()
    cache.clear_channel_cache()
    first = cache.cached_between(channel, source, receiver)
    assert cache.cached_between(dataclasses.replace(channel), source, receiver) is first
    assert cache.channel_cache_info()[:3] == (1, 1, 1)
    variant = dataclasses.replace(
        channel, **{name: _changed(getattr(channel, name))}
    )
    cache.cached_between(variant, source, receiver)
    assert cache.channel_cache_info()[:3] == (1, 2, 2)


@pytest.mark.parametrize(
    "name", [f.name for f in dataclasses.fields(VanAttaArray)]
)
def test_gain_memo_keys_on_every_field(name):
    memo = reflection._monostatic_gain
    array = VanAttaArray.uniform(4, frequency_hz=F)
    memo.clear()
    memo(array, F, 20.0, 1500.0)
    memo(VanAttaArray.uniform(4, frequency_hz=F), F, 20.0, 1500.0)
    assert memo.info()[:3] == (1, 1, 1)
    variant = dataclasses.replace(array, **{name: _changed(getattr(array, name))})
    memo(variant, F, 20.0, 1500.0)
    assert memo.info()[:3] == (1, 2, 2)


class TestMemoRules:
    def test_a_miss_and_a_bypass_record_no_spans(self):
        calls = []

        @memoize(2)
        def traced(value):
            calls.append(value)
            with span("inner"):
                return value

        with collect_spans() as tracer:
            with span("outer"):
                traced(1)
                traced(1)
                traced(object())  # no canonical key: computed, not stored
        assert tracer.counts == {("outer",): 1}
        assert len(calls) == 2
        assert traced.info() == (1, 2, 1, 2)

    def test_least_recently_used_entry_is_evicted(self):
        @memoize(2)
        def square(x):
            return x * x

        for x in (1, 2, 1, 3):
            square(x)
        assert [key[0] for key in square._store] == [1, 3]
        assert square.info() == (1, 3, 2, 2)

    def test_key_is_typed_and_by_value(self):
        positions = np.arange(3.0)
        assert key_of(positions) == key_of(positions.copy())
        assert key_of(positions) != key_of(positions.astype(np.float32))
        assert key_of(1) != key_of(1.0) != key_of(True)
        assert key_of(Scenario.river().channel()) == key_of(
            Scenario.river().channel()
        )

    def test_keyword_and_positional_calls_keep_apart(self):
        @memoize(4)
        def echo(*args, **kwargs):
            return args, kwargs

        assert echo(8, repeats=1) == ((8,), {"repeats": 1})
        assert echo(8, ("repeats", 1)) == ((8, ("repeats", 1)), {})
        assert echo.info() == (0, 2, 2, 4)
