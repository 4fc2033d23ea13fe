"""Annotation vocabulary for units, array shapes and effects.

Runtime modules annotate their APIs with these names; ``vablint``'s
dataflow engines (:mod:`repro.analysis`) read the annotations off the
source and check them. This module is the only thing the runtime
imports for that purpose, so it imports nothing beyond the standard
library and costs nothing at run time: every name below is an inert
``typing.Annotated`` alias, factory or tag.

* **Units** — ``def tl(d: METERS) -> DB`` via the aliases ``DB``,
  ``HZ``, ``METERS``, ... (``Annotated[float, UnitTag("dB")]``).
* **Shapes** — ``ComplexShaped["trials", "samples"]`` and friends
  (``Annotated[Any, ShapeTag(dims, dtype)]``). A dimension is a ``str``
  name, an ``int`` extent, ``"?"`` (unknown) or ``"..."`` (any number
  of leading dimensions).
* **Effects** — ``Pure[T]`` (the result depends only on the arguments;
  no observable side effect) and ``Effectful[T, "reads:host", ...]``
  (a documented grant of exactly those effects). Modules under the
  mypy gate spell the same contracts ``Annotated[T, READS_HOST]`` with
  the tag constants; mypy ignores ``Annotated`` metadata.

Effect atoms: ``reads:environ``, ``reads:clock``, ``reads:file``,
``reads:host`` (CPU count, TTY/CI detection, locale), ``reads:global``
(a mutable module global), ``mutates:global``, ``mutates:arg``,
``writes:file`` and ``rng:ambient`` (a process-global RNG stream instead
of a passed ``SeedSequence``-derived generator).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Annotated, Any, Optional, Tuple, Union

# ---------------------------------------------------------------------------
# units
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class UnitTag:
    """The runtime marker carried inside an ``Annotated`` unit alias."""

    unit: str

    def __repr__(self) -> str:
        return f"UnitTag({self.unit!r})"


DB_UNIT = "dB"
DBM_UNIT = "dBm"
DB_PER_KM_UNIT = "dB/km"
LINEAR_UNIT = "linear"
HZ_UNIT = "Hz"
KHZ_UNIT = "kHz"
RAD_PER_S_UNIT = "rad/s"
RAD_UNIT = "rad"
DEG_UNIT = "deg"
M_UNIT = "m"
KM_UNIT = "km"
MPS_UNIT = "m/s"
S_UNIT = "s"
MS_UNIT = "ms"
OHM_UNIT = "ohm"

DB = Annotated[float, UnitTag(DB_UNIT)]
DBM = Annotated[float, UnitTag(DBM_UNIT)]
DB_PER_KM = Annotated[float, UnitTag(DB_PER_KM_UNIT)]
LINEAR = Annotated[float, UnitTag(LINEAR_UNIT)]
HZ = Annotated[float, UnitTag(HZ_UNIT)]
KHZ = Annotated[float, UnitTag(KHZ_UNIT)]
RAD_PER_S = Annotated[float, UnitTag(RAD_PER_S_UNIT)]
RAD = Annotated[float, UnitTag(RAD_UNIT)]
DEG = Annotated[float, UnitTag(DEG_UNIT)]
METERS = Annotated[float, UnitTag(M_UNIT)]
KM = Annotated[float, UnitTag(KM_UNIT)]
MPS = Annotated[float, UnitTag(MPS_UNIT)]
SECONDS = Annotated[float, UnitTag(S_UNIT)]
MS = Annotated[float, UnitTag(MS_UNIT)]
OHM = Annotated[float, UnitTag(OHM_UNIT)]

# ---------------------------------------------------------------------------
# shapes
# ---------------------------------------------------------------------------

Dim = Union[str, int]

UNKNOWN_DIM = "?"
VARIADIC = "..."

COMPLEX = "complex"
FLOAT = "float"
INT = "int"
BOOL = "bool"


@dataclass(frozen=True)
class ShapeTag:
    """Metadata payload carried inside ``Annotated[Any, ShapeTag(...)]``."""

    dims: Tuple[Dim, ...]
    dtype: Optional[str] = None


class _ShapedFactory:
    """``Shaped["trials", "samples"]`` -> ``Annotated[Any, ShapeTag(...)]``."""

    def __init__(self, name: str, dtype: Optional[str]) -> None:
        self._name = name
        self._dtype = dtype

    def __getitem__(self, dims: Any) -> Any:
        if not isinstance(dims, tuple):
            dims = (dims,)
        canon = tuple(VARIADIC if d is Ellipsis else d for d in dims)
        for d in canon:
            if not isinstance(d, (str, int)):
                raise TypeError(
                    f"{self._name}[...] dimensions must be str names, int "
                    f"literals, '?', or '...'; got {d!r}"
                )
        return Annotated[Any, ShapeTag(canon, self._dtype)]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return self._name


Shaped = _ShapedFactory("Shaped", None)
ComplexShaped = _ShapedFactory("ComplexShaped", COMPLEX)
FloatShaped = _ShapedFactory("FloatShaped", FLOAT)
IntShaped = _ShapedFactory("IntShaped", INT)

# ---------------------------------------------------------------------------
# effects
# ---------------------------------------------------------------------------

READS_ENVIRON_ATOM = "reads:environ"
READS_CLOCK_ATOM = "reads:clock"
READS_FILE_ATOM = "reads:file"
READS_HOST_ATOM = "reads:host"
READS_GLOBAL_ATOM = "reads:global"
MUTATES_GLOBAL_ATOM = "mutates:global"
MUTATES_ARG_ATOM = "mutates:arg"
WRITES_FILE_ATOM = "writes:file"
RNG_AMBIENT_ATOM = "rng:ambient"

ATOMS: Tuple[str, ...] = (
    READS_ENVIRON_ATOM,
    READS_CLOCK_ATOM,
    READS_FILE_ATOM,
    READS_HOST_ATOM,
    READS_GLOBAL_ATOM,
    MUTATES_GLOBAL_ATOM,
    MUTATES_ARG_ATOM,
    WRITES_FILE_ATOM,
    RNG_AMBIENT_ATOM,
)
"""Every effect atom the effects engine tracks."""


# ``Pure[T]``/``Effectful[T, ...]`` build ``Annotated[T, tag]`` from a
# runtime value ``T``; indexing through an ``Any`` alias keeps a type
# checker from reading that as a type application.
_annotated: Any = Annotated


@dataclass(frozen=True)
class EffectTag:
    """Metadata payload carried inside ``Annotated[T, EffectTag(...)]``.

    ``atoms == ()`` is the ``Pure`` contract; a non-empty tuple is an
    ``Effectful`` grant of exactly those atoms.
    """

    atoms: Tuple[str, ...]


class _PureFactory:
    """``Pure[T]`` -> ``Annotated[T, EffectTag(())]``."""

    def __getitem__(self, item: Any) -> Any:
        return _annotated[item, EffectTag(())]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "Pure"


class _EffectfulFactory:
    """``Effectful[T, "atom", ...]`` -> ``Annotated[T, EffectTag(...)]``."""

    def __getitem__(self, item: Any) -> Any:
        if not isinstance(item, tuple):
            item = (item,)
        inner, atoms = item[0], tuple(item[1:])
        if not atoms:
            raise TypeError(
                "Effectful[...] needs at least one effect atom; "
                "declare purity with Pure[T]"
            )
        for atom in atoms:
            if atom not in ATOMS:
                raise TypeError(
                    f"unknown effect atom {atom!r}; expected one of "
                    f"{', '.join(ATOMS)}"
                )
        return _annotated[inner, EffectTag(atoms)]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "Effectful"


Pure = _PureFactory()
Effectful = _EffectfulFactory()

PURE = EffectTag(())
READS_ENVIRON = EffectTag((READS_ENVIRON_ATOM,))
READS_CLOCK = EffectTag((READS_CLOCK_ATOM,))
READS_FILE = EffectTag((READS_FILE_ATOM,))
READS_HOST = EffectTag((READS_HOST_ATOM,))
READS_GLOBAL = EffectTag((READS_GLOBAL_ATOM,))
MUTATES_GLOBAL = EffectTag((MUTATES_GLOBAL_ATOM,))
MUTATES_ARG = EffectTag((MUTATES_ARG_ATOM,))
WRITES_FILE = EffectTag((WRITES_FILE_ATOM,))
RNG_AMBIENT = EffectTag((RNG_AMBIENT_ATOM,))
