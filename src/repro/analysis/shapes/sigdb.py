"""Curated numpy/boundary signature tables for the shape engine.

Only the numpy surface the repo actually exercises is modelled —
constructors, elementwise ufuncs, broadcasting binaries, reductions,
``reshape``/``transpose``, the FFT family, and a minimal ``einsum``.
Everything else deliberately infers to *unknown*, which silences the
rules rather than guessing.

The tables also carry the determinism metadata: which project calls
return **shared** arrays (cache entries handed to many trials), which
worker entry points receive shared payloads (VAB014), and which methods
mutate their receiver in place.
"""

from __future__ import annotations

from repro.contracts import BOOL, COMPLEX, FLOAT, INT

# --- elementwise: shape preserved, dtype transformed -----------------------
# tag -> how the output dtype relates to the input dtype:
#   "keep"  : same dtype (exp, conj, sqrt, ...)
#   "float" : real-valued output (angle, degrees, ...)
#   "abs"   : complex -> float, otherwise dtype kept (np.abs)
ELEMENTWISE = {
    "numpy.exp": "keep",
    "numpy.sqrt": "keep",
    "numpy.square": "keep",
    "numpy.conj": "keep",
    "numpy.conjugate": "keep",
    "numpy.negative": "keep",
    "numpy.positive": "keep",
    "numpy.sign": "keep",
    "numpy.floor": "keep",
    "numpy.ceil": "keep",
    "numpy.rint": "keep",
    "numpy.round": "keep",
    "numpy.sin": "keep",
    "numpy.cos": "keep",
    "numpy.tan": "keep",
    "numpy.sinh": "keep",
    "numpy.cosh": "keep",
    "numpy.tanh": "keep",
    "numpy.log": "keep",
    "numpy.log2": "keep",
    "numpy.log10": "keep",
    "numpy.abs": "abs",
    "numpy.absolute": "abs",
    "numpy.angle": "float",
    "numpy.real": "float",
    "numpy.imag": "float",
    "numpy.radians": "float",
    "numpy.degrees": "float",
    "numpy.deg2rad": "float",
    "numpy.rad2deg": "float",
    "numpy.arcsin": "float",
    "numpy.arccos": "float",
    "numpy.arctan": "float",
    "numpy.isfinite": "bool",
    "numpy.isnan": "bool",
    "numpy.isinf": "bool",
}

# --- broadcasting binaries: VAB011 surface ---------------------------------
# All positional array arguments broadcast together; dtype promotes.
BROADCAST_CALLS = {
    "numpy.add",
    "numpy.subtract",
    "numpy.multiply",
    "numpy.divide",
    "numpy.true_divide",
    "numpy.maximum",
    "numpy.minimum",
    "numpy.fmax",
    "numpy.fmin",
    "numpy.arctan2",
    "numpy.hypot",
    "numpy.power",
    "numpy.mod",
    "numpy.remainder",
    "numpy.where",
}

# --- reductions: VAB012 surface --------------------------------------------
# name -> output dtype transform ("keep"/"float-or-keep"/"bool"/"int").
# Listed names are recognised both as methods (``x.sum(...)``) and as
# module functions (``np.sum(x, ...)`` with the array first).
REDUCTIONS = {
    "sum": "keep",
    "prod": "keep",
    "mean": "keep",
    "std": "float",
    "var": "float",
    "max": "keep",
    "min": "keep",
    "amax": "keep",
    "amin": "keep",
    "nansum": "keep",
    "nanmean": "keep",
    "nanmax": "keep",
    "nanmin": "keep",
    "median": "float",
    "ptp": "keep",
    "any": "bool",
    "all": "bool",
    "argmax": "int",
    "argmin": "int",
    "count_nonzero": "int",
}

# --- constructors ----------------------------------------------------------
# name -> default dtype when no dtype= keyword is given.
SHAPE_CONSTRUCTORS = {
    "numpy.zeros": FLOAT,
    "numpy.ones": FLOAT,
    "numpy.empty": FLOAT,
    "numpy.full": None,
}
LIKE_CONSTRUCTORS = {
    "numpy.zeros_like",
    "numpy.ones_like",
    "numpy.empty_like",
    "numpy.full_like",
}
RANGE_CONSTRUCTORS = {
    "numpy.arange": INT,
    "numpy.linspace": FLOAT,
    "numpy.logspace": FLOAT,
    "numpy.geomspace": FLOAT,
}
# passthrough of the first argument's shape; dtype= may override; the
# result is always a fresh (or at least safely-owned) array, clearing
# the shared taint.
PASSTHROUGH_CALLS = {
    "numpy.asarray",
    "numpy.array",
    "numpy.ascontiguousarray",
    "numpy.asfortranarray",
    "numpy.copy",
    "numpy.sort",
    "numpy.flip",
    "numpy.fft.fftshift",
    "numpy.fft.ifftshift",
    "copy.copy",
    "copy.deepcopy",
}

# --- FFT family ------------------------------------------------------------
# name -> output dtype.
FFT_CALLS = {
    "numpy.fft.fft": COMPLEX,
    "numpy.fft.ifft": COMPLEX,
    "numpy.fft.rfft": COMPLEX,
    "numpy.fft.irfft": FLOAT,
    "numpy.fft.fftfreq": FLOAT,
    "numpy.fft.rfftfreq": FLOAT,
}

# dotted names that evaluate to known scalars.
SCALAR_CONSTANTS = {
    "numpy.pi": FLOAT,
    "math.pi": FLOAT,
    "numpy.e": FLOAT,
    "math.e": FLOAT,
    "numpy.inf": FLOAT,
    "math.inf": FLOAT,
}

# dtype= keyword values the engine understands.
DTYPE_NAMES = {
    "numpy.complex128": COMPLEX,
    "numpy.complex64": COMPLEX,
    "numpy.cdouble": COMPLEX,
    "numpy.float64": FLOAT,
    "numpy.float32": FLOAT,
    "numpy.double": FLOAT,
    "numpy.int64": INT,
    "numpy.int32": INT,
    "numpy.intp": INT,
    "numpy.uint8": INT,
    "numpy.bool_": BOOL,
    "complex": COMPLEX,
    "float": FLOAT,
    "int": INT,
    "bool": BOOL,
}

# --- determinism metadata --------------------------------------------------
# Project calls whose return value is shared across trials/workers and
# must be treated as read-only (VAB014).  Keep in sync with the
# "returned object is shared" docstrings in repro.sim.cache.
BOUNDARY_CALLS = {
    "repro.sim.cache.cached_between",
    "repro.sim.cache.reader_node_response",
}

# Functions whose parameters arrive as shared worker payloads: the
# parent process re-reads them after (and concurrently with) the call,
# so in-place mutation inside the body is a cross-process data race
# under fork and silent divergence under spawn (VAB014).
BOUNDARY_PARAM_FUNCS = {
    "repro.sim.parallel._run_chunk",
}

# ndarray methods that mutate the receiver in place.
MUTATING_METHODS = {
    "sort",
    "fill",
    "put",
    "partition",
    "itemset",
    "resize",
}

# ufuncs whose ``.at`` form mutates its first argument in place.
AT_UFUNCS = {
    "numpy.add",
    "numpy.subtract",
    "numpy.multiply",
    "numpy.maximum",
    "numpy.minimum",
}

# calls producing set-kind values (VAB015).
SET_CALLS = {"set", "frozenset"}

# ordering wrappers that restore determinism around a set (VAB015).
# Note list()/tuple() are *not* here: they freeze the set's iteration
# order without making it deterministic.
ORDERING_CALLS = {"sorted"}
