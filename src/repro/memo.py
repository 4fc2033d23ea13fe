"""The process-wide memos of the point pipeline, keyed by value.

The channel, noise filter, Doppler plan, template spectrum, array gain,
preamble and CRC tables are the same for every trial of an operating
point, so each is computed once under :func:`memoize`'s rules: a call
is keyed by :func:`key_of` of its arguments (with no such key it is
computed, not stored); every ndarray returned, alone or in a tuple, is
read-only; a miss records no spans, so its time lands in the enclosing
span's self time whatever the memos' warmth; :func:`clear_memos`
empties them all. Memos are process-local, with a fixed LRU capacity.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import types
from typing import Any, Callable, Dict, List, Sequence, Tuple

import numpy as np

from repro.contracts import Effectful
from repro.obs.spans import collect_spans

_SCALARS = frozenset({int, float, complex, str, bytes, bool, type(None)})
_BY_IDENTITY = (np.generic, enum.Enum, type, types.FunctionType, types.BuiltinFunctionType)
_FIELDS: Dict[type, Tuple[str, ...]] = {}
_MISSING = object()


def key_of(value: Any) -> Tuple[Any, ...]:
    """The by-value key of ``value``: a flat tuple of its type, then a
    scalar, enum member, function or class itself; an ndarray's dtype,
    shape and bytes; a tuple's or list's length and items; a dataclass's
    fields; a bound method's function and ``self``; else ``TypeError``."""
    out: List[Any] = []
    _flatten(value, out)
    return tuple(out)


def _flatten(value: Any, out: List[Any]) -> None:
    cls = type(value)
    out.append(cls)
    names = _FIELDS.get(cls)
    if names is not None:
        items: Sequence[Any] = [getattr(value, name) for name in names]
    elif cls in _SCALARS or isinstance(value, _BY_IDENTITY):
        out.append(value)
        return
    elif cls is np.ndarray:
        out += (value.dtype.str, value.shape, value.tobytes())
        return
    elif cls is types.MethodType:
        items = (value.__func__, value.__self__)
    elif cls is tuple or cls is list:
        out.append(len(value))
        items = value
    elif dataclasses.is_dataclass(cls):
        names = _FIELDS[cls] = tuple(f.name for f in dataclasses.fields(cls))
        items = [getattr(value, name) for name in names]
    else:
        raise TypeError(f"no memo key for a {cls.__qualname__}")
    for item in items:
        if type(item) in _SCALARS:
            out += (type(item), item)
        else:
            _flatten(item, out)


def _read_only(value: Any) -> Any:
    if isinstance(value, np.ndarray):
        value.setflags(write=False)
    elif isinstance(value, tuple):
        for item in value:
            _read_only(item)
    return value


class Memo:
    """``fn`` memoized by value in an LRU store of ``maxsize`` entries,
    mirroring (hits, misses, evictions) into ``counters`` if given."""

    def __init__(
        self, fn: Callable[..., Any], maxsize: int, counters: Sequence[Any] = ()
    ) -> None:
        functools.update_wrapper(self, fn)
        self.maxsize, self.counters = maxsize, counters
        self.counts = [0, 0, 0]  # hits, misses, evictions since the clear
        self._store: Dict[Any, Any] = {}
        MEMOS.append(self)

    def __call__(
        self, *args: Any, **kwargs: Any
    ) -> Effectful[Any, "reads:global", "mutates:global"]:
        try:
            if kwargs:
                key = key_of(args), key_of(tuple(kwargs.items()))
            elif _SCALARS.issuperset(kinds := tuple(map(type, args))):
                key = args + kinds  # scalars only: the values, then types
            else:
                key = key_of(args)
        except TypeError:  # no canonical key: computed, not stored
            key = _MISSING
        value = self._store.pop(key, _MISSING)
        if value is not _MISSING:
            self._store[key] = value
            self._count(0)
            return value
        self._count(1)
        with collect_spans():  # into a throwaway tracer: no spans recorded
            value = _read_only(self.__wrapped__(*args, **kwargs))
        if key is not _MISSING:
            self._store[key] = value
            if len(self._store) > self.maxsize:
                del self._store[next(iter(self._store))]
                self._count(2)
        return value

    def _count(self, which: int) -> None:
        self.counts[which] += 1
        if self.counters:
            self.counters[which].inc()

    def info(self) -> Tuple[int, int, int, int]:
        """(hits, misses, entries, capacity) since the last clear."""
        return self.counts[0], self.counts[1], len(self._store), self.maxsize

    def clear(self) -> None:
        self._store.clear()
        self.counts = [0, 0, 0]


MEMOS: List[Memo] = []
"""Every memo created so far, in creation order."""


def memoize(maxsize: int, counters: Sequence[Any] = ()) -> Callable[..., Memo]:
    """Decorator: memoize a function by value (see :class:`Memo`)."""
    return lambda fn: Memo(fn, maxsize, counters)


def clear_memos() -> Effectful[None, "mutates:global"]:
    """Empty every registered memo."""
    for memo in MEMOS:
        memo.clear()
