"""Effect-atom classes and contract names for the effects engine.

The contracts runtime code writes — ``Pure[T]``, ``Effectful[T,
atoms...]`` and the ``Annotated[T, READS_HOST]``-style tag constants —
live in :mod:`repro.contracts`. This module is the engine's side of
that vocabulary: which atoms are hidden inputs and which are side
effects, and the names it recognises in annotation ASTs.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro import contracts
from repro.contracts import (
    MUTATES_ARG_ATOM,
    MUTATES_GLOBAL_ATOM,
    READS_CLOCK_ATOM,
    READS_ENVIRON_ATOM,
    READS_FILE_ATOM,
    READS_GLOBAL_ATOM,
    READS_HOST_ATOM,
    RNG_AMBIENT_ATOM,
    WRITES_FILE_ATOM,
    EffectTag,
)

HIDDEN_INPUT_ATOMS = frozenset({
    READS_ENVIRON_ATOM,
    READS_CLOCK_ATOM,
    READS_FILE_ATOM,
    READS_HOST_ATOM,
    READS_GLOBAL_ATOM,
    RNG_AMBIENT_ATOM,
})
"""Atoms that make a result depend on state outside the arguments —
poison for anything memoized or filed under a content-addressed key."""

SIDE_EFFECT_ATOMS = frozenset({
    MUTATES_GLOBAL_ATOM,
    MUTATES_ARG_ATOM,
    WRITES_FILE_ATOM,
})
"""Atoms that do not re-occur on a cache hit — divergence between the
first (computing) call and every later (cached) call."""

TAG_CONSTANTS: Dict[str, EffectTag] = {
    name: value
    for name, value in vars(contracts).items()
    if isinstance(value, EffectTag)
}
"""Constant name (``PURE``, ``READS_HOST``, ...) -> tag, as the engine
matches them in annotation ASTs."""

CONTRACT_FACTORIES: Tuple[str, ...] = ("Pure", "Effectful")
"""Factory names the engine recognises in ``Pure[...]``/``Effectful[...]``
annotation subscripts."""
