"""Unit algebra and name-suffix seeding for the dimensional-analysis engine.

The unit tokens (``"dB"``, ``"Hz"``, ``"m"``, ...) and the annotation
aliases runtime code writes (``def tl(d: METERS) -> DB``) live in
:mod:`repro.contracts`; this module is the engine's side of that
vocabulary:

* the tokens grouped into *families* (level, length, frequency, time,
  angle, ...). Two units of the same family measure the same physical
  dimension in different conventions — exactly the mix-ups (dB vs
  linear, Hz vs rad/s, m vs km) that silently shift link-budget results
  by orders of magnitude;
* alias recognition (:func:`unit_from_annotation_name`) and name-suffix
  seeding (:func:`unit_from_name`: ``snr_db``, ``range_m``), so
  unannotated code still participates;
* the **algebra**: which unit survives arithmetic
  (:func:`combine_additive`, :func:`combine_multiplicative`,
  :func:`combine_divisive`) and which constants act as unit
  conversions (``distance_m / 1e3`` is a km, not a fraction of a m).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro import contracts
from repro.contracts import (
    DB_PER_KM_UNIT,
    DB_UNIT,
    DBM_UNIT,
    DEG_UNIT,
    HZ_UNIT,
    KHZ_UNIT,
    KM_UNIT,
    LINEAR_UNIT,
    M_UNIT,
    MPS_UNIT,
    MS_UNIT,
    OHM_UNIT,
    RAD_PER_S_UNIT,
    RAD_UNIT,
    S_UNIT,
    UnitTag,
)

# ---------------------------------------------------------------------------
# pseudo-units and families
# ---------------------------------------------------------------------------

SCALAR_UNIT = "scalar"
"""Dimensionless ratio that is *not* in the dB domain."""

DB_TIMES_M_PER_KM_UNIT = "dB*m/km"
"""Intermediate of ``alpha_db_per_km * distance_m`` before the ``/ 1e3``.

Legal only as a half-finished conversion; reaching an additive dB
context (or a dB binding) in this state is the classic factor-1000
absorption slip the engine reports as VAB009.
"""

PI_SCALAR_UNIT = "pi-scalar"
"""A constant multiple of pi (``2 * math.pi``); ``pi * Hz`` -> rad/s."""

FAMILIES: Dict[str, Tuple[str, ...]] = {
    "level": (DB_UNIT, DBM_UNIT, LINEAR_UNIT),
    "attenuation": (DB_PER_KM_UNIT,),
    "frequency": (HZ_UNIT, KHZ_UNIT, RAD_PER_S_UNIT),
    "angle": (RAD_UNIT, DEG_UNIT),
    "length": (M_UNIT, KM_UNIT),
    "speed": (MPS_UNIT,),
    "time": (S_UNIT, MS_UNIT),
    "impedance": (OHM_UNIT,),
}

_FAMILY_OF: Dict[str, str] = {
    unit: family for family, units in FAMILIES.items() for unit in units
}

DB_DOMAIN = frozenset({DB_UNIT, DBM_UNIT})
"""Log-domain units: additive composition is legal, products are not."""


def family_of(unit: str) -> Optional[str]:
    """The dimension family a unit token belongs to (None for pseudo-units)."""
    return _FAMILY_OF.get(unit)


# ---------------------------------------------------------------------------
# annotation aliases
# ---------------------------------------------------------------------------

ANNOTATION_UNITS: Dict[str, str] = {
    name: tag.unit
    for name, value in vars(contracts).items()
    for tag in getattr(value, "__metadata__", ())
    if isinstance(tag, UnitTag)
}
"""Alias name (``DB``, ``METERS``, ...) -> canonical unit token."""


def unit_from_annotation_name(qualname: str) -> Optional[str]:
    """Canonical unit of a resolved annotation name, else None.

    Matches on the alias name alone, so ``repro.contracts.DB``, the bare
    ``DB`` a ``from ... import DB`` leaves behind, and older spellings
    of the same alias all resolve.
    """
    return ANNOTATION_UNITS.get(qualname.rsplit(".", 1)[-1])


# ---------------------------------------------------------------------------
# name-suffix seeding
# ---------------------------------------------------------------------------

SUFFIX_UNITS: Dict[str, str] = {
    "db": DB_UNIT,
    "dbm": DBM_UNIT,
    "db_per_km": DB_PER_KM_UNIT,
    "lin": LINEAR_UNIT,
    "linear": LINEAR_UNIT,
    "hz": HZ_UNIT,
    "khz": KHZ_UNIT,
    "rad_per_s": RAD_PER_S_UNIT,
    "rad": RAD_UNIT,
    "deg": DEG_UNIT,
    "m": M_UNIT,
    "km": KM_UNIT,
    "mps": MPS_UNIT,
    "ms": MS_UNIT,
    "ohm": OHM_UNIT,
}
"""Trailing name tokens that mark a unit (longest match wins).

``_s`` (bare seconds) is deliberately absent: single-letter ``w_s`` /
``f_s`` spellings for angular/series-resonance frequency are too common
for the suffix alone to be trustworthy; seconds require an annotation,
a per-name ``elapsed_s`` style the time family rules don't touch, or
the signature database.
"""

_MULTI_SUFFIXES = sorted(SUFFIX_UNITS, key=len, reverse=True)


def unit_from_name(name: str) -> Optional[str]:
    """Unit implied by a name's trailing suffix (``snr_db`` -> ``dB``).

    Mid-name dB markers with a per-something tail (``loss_db_per_bounce``)
    resolve to dB unless the tail is the full ``db_per_km`` spelling.
    """
    lowered = name.lower()
    for suffix in _MULTI_SUFFIXES:
        if lowered == suffix or lowered.endswith("_" + suffix):
            return SUFFIX_UNITS[suffix]
    if "_db_per_" in lowered:  # e.g. loss_db_per_bounce: dB-valued rate
        return DB_UNIT
    return None


# ---------------------------------------------------------------------------
# unit algebra
# ---------------------------------------------------------------------------

CONVERSION_DIV: Dict[Tuple[str, float], str] = {
    (M_UNIT, 1e3): KM_UNIT,
    (KM_UNIT, 1e-3): M_UNIT,
    (HZ_UNIT, 1e3): KHZ_UNIT,
    (KHZ_UNIT, 1e-3): HZ_UNIT,
    (S_UNIT, 1e-3): MS_UNIT,
    (MS_UNIT, 1e3): S_UNIT,
    (DB_TIMES_M_PER_KM_UNIT, 1e3): DB_UNIT,
}
"""``unit / constant`` conversions that land on a new unit."""

CONVERSION_MUL: Dict[Tuple[str, float], str] = {
    (M_UNIT, 1e-3): KM_UNIT,
    (KM_UNIT, 1e3): M_UNIT,
    (HZ_UNIT, 1e-3): KHZ_UNIT,
    (KHZ_UNIT, 1e3): HZ_UNIT,
    (S_UNIT, 1e3): MS_UNIT,
    (MS_UNIT, 1e-3): S_UNIT,
    (DB_TIMES_M_PER_KM_UNIT, 1e-3): DB_UNIT,
}
"""``unit * constant`` conversions that land on a new unit."""


def combine_additive(a: Optional[str], b: Optional[str]) -> Optional[str]:
    """Unit of ``a + b`` / ``a - b`` when no conflict fires.

    One known side propagates (adding a dimensionless correction
    constant is everywhere in the empirical physics fits); two equal
    sides keep their unit; anything else is unknown — conflicts are the
    *engine's* job to report, not this helper's.
    """
    if a is None or a == SCALAR_UNIT:
        return b if b != SCALAR_UNIT else a
    if b is None or b == SCALAR_UNIT:
        return a
    if a == b:
        return a
    return None


def combine_multiplicative(
    a: Optional[str], b: Optional[str],
    a_const: Optional[float] = None, b_const: Optional[float] = None,
) -> Optional[str]:
    """Unit of ``a * b`` (constants, conversions, and the dB/km cases).

    ``a_const`` / ``b_const`` are the literal values when an operand is
    a numeric constant, enabling the conversion table (``* 1e-3``) and
    the pi-scalar -> rad/s promotion.
    """
    for unit, other, const in ((a, b, b_const), (b, a, a_const)):
        if unit is None:
            continue
        if const is not None and (unit, const) in CONVERSION_MUL:
            return CONVERSION_MUL[(unit, const)]
    if a in DB_DOMAIN and b in DB_DOMAIN:
        return None  # the engine reports VAB006 before consulting us
    pairs = {(a, b), (b, a)}
    if (DB_PER_KM_UNIT, KM_UNIT) in pairs:
        return DB_UNIT
    if (DB_PER_KM_UNIT, M_UNIT) in pairs:
        return DB_TIMES_M_PER_KM_UNIT
    if (PI_SCALAR_UNIT, HZ_UNIT) in pairs:
        return RAD_PER_S_UNIT
    if (RAD_PER_S_UNIT, S_UNIT) in pairs:
        return RAD_UNIT
    if (MPS_UNIT, S_UNIT) in pairs:
        return M_UNIT
    for unit, other in ((a, b), (b, a)):
        if unit is not None and unit != SCALAR_UNIT and (
            other is None or other == SCALAR_UNIT
        ):
            # scalar * unit keeps the unit only for domain-style units
            # where scaling is meaningful (dB gains, lengths, times).
            if unit in (PI_SCALAR_UNIT,):
                return PI_SCALAR_UNIT
            if other == SCALAR_UNIT:
                return unit
            return None
    return None


def combine_divisive(
    a: Optional[str], b: Optional[str],
    b_const: Optional[float] = None,
) -> Optional[str]:
    """Unit of ``a / b`` (conversion constants, ratios, m/s)."""
    if a is not None and b_const is not None and (a, b_const) in CONVERSION_DIV:
        return CONVERSION_DIV[(a, b_const)]
    if a in DB_DOMAIN and b in DB_DOMAIN:
        return None  # VAB006 territory
    if a is not None and a == b:
        return SCALAR_UNIT
    if a == M_UNIT and b == S_UNIT:
        return MPS_UNIT
    if a == M_UNIT and b == KM_UNIT:
        return SCALAR_UNIT
    if a in DB_DOMAIN and (b is None or b == SCALAR_UNIT):
        # x_db / 10 inside 10**(x/10): stays in the dB domain until the
        # power pattern converts it.
        return a
    if a is not None and (b is None or b == SCALAR_UNIT) and b_const is not None:
        return a if family_of(a) is not None else None
    return None
