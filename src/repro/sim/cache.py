"""Memoized per-site channel responses for Monte-Carlo campaigns.

Every trial at an operating point sees the same deployment geometry, so
the traced response is a :mod:`repro.memo` memo, keyed by value over
every field of the channel and both endpoints. Its callers share one
:class:`ChannelResponse`, which the engine never mutates (the lint rule
``VAB014`` enforces that statically: copy before writing); any ndarray
a memo returns is read-only at run time. Invalidate with
:func:`clear_channel_cache` or :func:`repro.memo.clear_memos` after
monkey-patching propagation models or editing tables in place.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Tuple

from repro.acoustics.channel import AcousticChannel, ChannelResponse
from repro.contracts import Effectful
from repro.geometry.vec3 import Vec3
from repro.memo import memoize
from repro.obs.metrics import counter

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.scenario import Scenario

# (hits, misses, evictions), mirrored into the active metrics registry
# so campaign manifests surface cache behavior.
COUNTERS = (
    counter("repro.sim.cache.hits", "channel-response cache hits"),
    counter("repro.sim.cache.misses", "channel-response cache misses (traces)"),
    counter("repro.sim.cache.evictions", "LRU evictions from the response cache"),
)


@memoize(256, COUNTERS)
def cached_between(
    channel: AcousticChannel, source: Vec3, receiver: Vec3
) -> Effectful[ChannelResponse, "reads:global", "mutates:global"]:
    """Memoized :meth:`AcousticChannel.between`; the shared result is
    read-only. The effect grant covers exactly the memo store and its
    counters: the computation must stay pure (VAB017/VAB018)."""
    return channel.between(source, receiver)


def clear_channel_cache() -> Effectful[None, "mutates:global"]:
    """Explicitly invalidate all memoized channel responses."""
    cached_between.clear()


def channel_cache_info() -> Effectful[
    Tuple[int, int, int, int], "reads:global"
]:
    """(hits, misses, entries, capacity) of the response cache."""
    return cached_between.info()


def reader_node_response(
    scenario: "Scenario",
) -> Effectful[ChannelResponse, "reads:global", "mutates:global"]:
    """The (cached) reader->node multipath response of a scenario."""
    return cached_between(
        scenario.channel(), scenario.reader.position, scenario.node.position
    )
