"""Memoized per-site invariants for Monte-Carlo campaigns.

Every trial at an operating point sees the *same* deployment geometry:
ray tracing the multipath response and building the reader receive chain
are pure functions of the scenario, yet the seed engine recomputed them
per trial. This module caches those invariants so a 1,500-trial campaign
pays for them once per operating point — the enabling step for
paper-scale trial counts.

The cache is process-local (each worker of the parallel runner warms its
own) and keyed by *value*, so equal-but-distinct scenario objects share
entries. Entries are immutable by convention: :class:`ChannelResponse`
is never mutated by the engine, and arrays returned by the cached
accessors (:func:`cached_between`, :func:`reader_node_response`) are the
cache's own storage — every caller of an operating point receives the
*same* ndarray objects, so an in-place write corrupts all later trials.
The shape/dtype lint pass enforces this statically (rule ``VAB014``,
:mod:`repro.analysis.shapes`): copy before writing. Invalidate
explicitly with :func:`clear_channel_cache` after monkey-patching
propagation models or editing water/surface tables in place.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import TYPE_CHECKING, Tuple

from repro.acoustics.channel import AcousticChannel, ChannelResponse
from repro.contracts import Effectful, Pure
from repro.geometry.vec3 import Vec3
from repro.obs.metrics import counter

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.scenario import Scenario

_RESPONSE_CACHE: "OrderedDict[tuple, ChannelResponse]" = OrderedDict()
_RESPONSE_CACHE_MAX = 256
_HITS = 0
_MISSES = 0

# Mirrored into the active metrics registry so campaign manifests
# surface cache behavior (the module counters below feed the
# process-wide channel_cache_info view).
HITS_COUNTER = counter(
    "repro.sim.cache.hits", "channel-response cache hits"
)
MISSES_COUNTER = counter(
    "repro.sim.cache.misses", "channel-response cache misses (traces)"
)
EVICTIONS_COUNTER = counter(
    "repro.sim.cache.evictions", "LRU evictions from the response cache"
)


def clear_channel_cache() -> Effectful[None, "mutates:global"]:
    """Explicitly invalidate all memoized channel responses."""
    global _HITS, _MISSES
    _RESPONSE_CACHE.clear()
    _HITS = 0
    _MISSES = 0


def channel_cache_info() -> Effectful[
    Tuple[int, int, int, int], "reads:global"
]:
    """(hits, misses, entries, capacity) of the response cache."""
    return _HITS, _MISSES, len(_RESPONSE_CACHE), _RESPONSE_CACHE_MAX


def _site_key(
    channel: AcousticChannel, source: Vec3, receiver: Vec3
) -> Pure[tuple]:
    """Value-equality key over everything trace_paths consumes."""
    return (
        channel.carrier_hz,
        channel.water,
        channel.surface,
        channel.max_bounces,
        channel.spreading_exponent,
        channel.direct_only,
        channel.bottom_density_kg_m3,
        channel.bottom_sound_speed_mps,
        channel.bottom_loss_db_per_bounce,
        source,
        receiver,
    )


def cached_between(
    channel: AcousticChannel, source: Vec3, receiver: Vec3
) -> Effectful[ChannelResponse, "reads:global", "mutates:global"]:
    """Memoized :meth:`AcousticChannel.between`.

    Returns the cached response for this (site, endpoints) pair, tracing
    it on first use. The returned object is shared — treat it as
    read-only.  The effect grant covers exactly the memo store and its
    hit/miss counters: the *computation* (``channel.between``) must stay
    pure, and VAB017/VAB018 police any effect beyond the grant.
    """
    global _HITS, _MISSES
    key = _site_key(channel, source, receiver)
    response = _RESPONSE_CACHE.get(key)
    if response is not None:
        _HITS += 1
        HITS_COUNTER.inc()
        _RESPONSE_CACHE.move_to_end(key)
        return response
    _MISSES += 1
    MISSES_COUNTER.inc()
    response = channel.between(source, receiver)
    _RESPONSE_CACHE[key] = response
    if len(_RESPONSE_CACHE) > _RESPONSE_CACHE_MAX:
        _RESPONSE_CACHE.popitem(last=False)
        EVICTIONS_COUNTER.inc()
    return response


def reader_node_response(
    scenario: "Scenario",
) -> Effectful[ChannelResponse, "reads:global", "mutates:global"]:
    """The (cached) reader->node multipath response of a scenario."""
    return cached_between(
        scenario.channel(), scenario.reader.position, scenario.node.position
    )
