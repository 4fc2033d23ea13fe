"""Deliberate VAB018 violations: side effects escaping memoized code."""

import functools

from repro.memo import memoize

_CALLS = []


@functools.lru_cache(maxsize=None)
def logged_response(key: str) -> str:
    _CALLS.append(key)
    return key.upper()


@functools.lru_cache(maxsize=None)
def recorded_response(key: str, log: tuple) -> str:
    log.append(key)
    fh = open("/tmp/vab018.log", "w")
    fh.write(key)
    fh.close()
    return key.upper()


@memoize(16)
def logged_plan(key: str) -> str:
    _CALLS.append(key)
    return key.lower()
