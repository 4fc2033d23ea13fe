"""Shape/dtype lattice and broadcast rules for the shape dataflow engine.

The batched APIs in :mod:`repro.phy.batch`, :mod:`repro.vanatta.fastfield`
and :mod:`repro.sim.engine` annotate ndarray parameters and returns with
the symbolic shape contracts of :mod:`repro.contracts`::

    from repro.contracts import ComplexShaped

    def suppress_carrier_batch(
        self, records: ComplexShaped["trials", "samples"]
    ) -> ComplexShaped["trials", "samples"]: ...

The static engine reads them straight off the annotation AST. This
module holds what the engine infers about a value (:class:`ShapeVal`)
and the rules it combines values by.

Dimension tokens
----------------
* a ``str`` name (``"trials"``) — a symbolic dimension; two *different*
  names in the same broadcast slot are a conflict,
* an ``int`` literal (``3``) — a fixed extent; ``1`` broadcasts,
* ``UNKNOWN_DIM`` (``"?"``) — a dimension of unknown extent; matches
  anything,
* ``VARIADIC`` (``"..."``, spelled ``Shaped["...", "D"]`` or with a
  literal ``...``) — any number of leading dimensions; disables
  positional checks for the block it covers.

dtype tokens are the coarse lattice ``complex > float > int > bool``;
``None`` means unknown.  The engine only ever *narrows* claims it can
prove, so an unknown dtype or dimension silences the rules rather than
guessing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.contracts import BOOL, COMPLEX, FLOAT, INT, UNKNOWN_DIM, VARIADIC, Dim

SHAPED_FACTORIES = {
    "Shaped": None,
    "ComplexShaped": COMPLEX,
    "FloatShaped": FLOAT,
    "IntShaped": INT,
}
"""Factory name -> dtype claim, as the engine matches them in the AST."""


@dataclass(frozen=True)
class ShapeVal:
    """What the engine knows about one value.

    ``dims is None`` means the shape is entirely unknown (it may not even
    be an array).  ``dims == ()`` is a known scalar.  ``dtype`` is one of
    :data:`DTYPES` or ``None`` for unknown.  ``kind`` distinguishes
    ordinary values from ``set``/``frozenset`` objects (VAB015), and
    ``shared`` is the worker/cache-boundary taint (VAB014).
    """

    dims: Optional[Tuple[Dim, ...]] = None
    dtype: Optional[str] = None
    kind: str = "value"
    shared: bool = False

    @property
    def known(self) -> bool:
        return self.dims is not None or self.dtype is not None

    def with_dims(self, dims: Optional[Tuple[Dim, ...]]) -> "ShapeVal":
        return ShapeVal(dims, self.dtype, self.kind, self.shared)

    def with_dtype(self, dtype: Optional[str]) -> "ShapeVal":
        return ShapeVal(self.dims, dtype, self.kind, self.shared)

    def without_taint(self) -> "ShapeVal":
        if not self.shared:
            return self
        return ShapeVal(self.dims, self.dtype, self.kind, False)

    def to_dict(self) -> dict:
        return {
            "dims": list(self.dims) if self.dims is not None else None,
            "dtype": self.dtype,
            "kind": self.kind,
            "shared": self.shared,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ShapeVal":
        dims = payload.get("dims")
        return cls(
            dims=tuple(dims) if dims is not None else None,
            dtype=payload.get("dtype"),
            kind=payload.get("kind", "value"),
            shared=bool(payload.get("shared", False)),
        )


UNKNOWN = ShapeVal()
SHARED_UNKNOWN = ShapeVal(shared=True)
SET_VAL = ShapeVal(kind="set")

SCALAR_COMPLEX = ShapeVal((), COMPLEX)
SCALAR_FLOAT = ShapeVal((), FLOAT)
SCALAR_INT = ShapeVal((), INT)
SCALAR_BOOL = ShapeVal((), BOOL)


def promote_dtype(a: Optional[str], b: Optional[str]) -> Optional[str]:
    """dtype of an arithmetic combination; complex survives unknowns."""
    if COMPLEX in (a, b):
        return COMPLEX
    if a is None or b is None:
        return None
    if FLOAT in (a, b):
        return FLOAT
    return INT


def format_dims(dims: Optional[Tuple[Dim, ...]]) -> str:
    if dims is None:
        return "(unknown)"
    return "(" + ", ".join(str(d) for d in dims) + ")"


def dims_conflict(a: Dim, b: Dim) -> bool:
    """True when two aligned dimension tokens provably disagree.

    Only same-kind tokens can conflict: two distinct names, or two
    distinct fixed extents.  A name against a literal (or anything
    against ``"?"``) is merely unproven.
    """
    if a == b or UNKNOWN_DIM in (a, b):
        return False
    if isinstance(a, str) and isinstance(b, str):
        return True
    if isinstance(a, int) and isinstance(b, int):
        return True
    return False


def broadcast_dims(
    a: Optional[Tuple[Dim, ...]], b: Optional[Tuple[Dim, ...]]
) -> Tuple[Optional[Tuple[Dim, ...]], Optional[Tuple[Dim, Dim]]]:
    """Numpy-align two shapes; return ``(result_dims, conflict_pair)``.

    ``result_dims`` is ``None`` when the result is unknown (either input
    unknown or variadic).  ``conflict_pair`` is the offending ``(a, b)``
    token pair when the shapes provably cannot broadcast.
    """
    if a is None or b is None:
        return None, None
    if VARIADIC in a or VARIADIC in b:
        return None, None
    out: list = []
    for i in range(1, max(len(a), len(b)) + 1):
        da: Dim = a[-i] if i <= len(a) else 1
        db: Dim = b[-i] if i <= len(b) else 1
        if da == 1:
            out.append(db)
            continue
        if db == 1:
            out.append(da)
            continue
        if UNKNOWN_DIM in (da, db):
            out.append(UNKNOWN_DIM)
            continue
        if da == db:
            out.append(da)
            continue
        if dims_conflict(da, db):
            return None, (da, db)
        out.append(UNKNOWN_DIM)
    return tuple(reversed(out)), None


def contract_conflict(
    declared: Optional[Tuple[Dim, ...]], actual: Optional[Tuple[Dim, ...]]
) -> Optional[str]:
    """Describe a provable violation of ``declared`` by ``actual``.

    Returns ``None`` when ``actual`` could satisfy the contract.  A
    leading ``"..."`` in the declaration matches any number of leading
    dimensions; only the trailing fixed block is checked.
    """
    if declared is None or actual is None:
        return None
    if VARIADIC in actual:
        return None
    if VARIADIC in declared:
        fixed = declared[max(i for i, d in enumerate(declared) if d == VARIADIC) + 1 :]
        if len(actual) < len(fixed):
            return (
                f"rank {len(actual)} cannot satisfy trailing dims "
                f"{format_dims(fixed)}"
            )
        for d, a in zip(fixed, actual[len(actual) - len(fixed) :]):
            if dims_conflict(d, a):
                return f"dim {a!r} where contract requires {d!r}"
        return None
    if len(declared) != len(actual):
        return (
            f"rank {len(actual)} {format_dims(actual)} where contract "
            f"declares rank {len(declared)} {format_dims(declared)}"
        )
    for d, a in zip(declared, actual):
        if dims_conflict(d, a):
            return f"dim {a!r} where contract requires {d!r}"
    return None
