"""Curated effect signatures for the effect/purity analysis engine.

Like the shapes engine's numpy tables, this is the stdlib/numpy/repro
surface the engine understands *without* seeing a body: which calls
read ambient state, which draw from process-global RNG streams, which
method names mutate their receiver, and which repro functions sit on
the memoization / worker-dispatch boundaries the VAB017–VAB022 rules
police.  Everything else is inferred from bodies and propagated through
the call graph.
"""

from __future__ import annotations

from typing import Dict, FrozenSet

from repro.contracts import (
    MUTATES_GLOBAL_ATOM,
    READS_CLOCK_ATOM,
    READS_ENVIRON_ATOM,
    READS_HOST_ATOM,
)

EFFECT_CALLS: Dict[str, str] = {
    # -- ambient environment -------------------------------------------
    "os.getenv": READS_ENVIRON_ATOM,
    "os.environb.get": READS_ENVIRON_ATOM,
    # -- wall clock (volatile fields are excluded from run_key; a cached
    #    computation must still never read it) --------------------------
    "time.time": READS_CLOCK_ATOM,
    "time.time_ns": READS_CLOCK_ATOM,
    "time.localtime": READS_CLOCK_ATOM,
    "time.ctime": READS_CLOCK_ATOM,
    "datetime.datetime.now": READS_CLOCK_ATOM,
    "datetime.datetime.utcnow": READS_CLOCK_ATOM,
    "datetime.datetime.today": READS_CLOCK_ATOM,
    "datetime.date.today": READS_CLOCK_ATOM,
    # -- host configuration --------------------------------------------
    "os.cpu_count": READS_HOST_ATOM,
    "os.sched_getaffinity": READS_HOST_ATOM,
    "multiprocessing.cpu_count": READS_HOST_ATOM,
    "os.get_terminal_size": READS_HOST_ATOM,
    "shutil.get_terminal_size": READS_HOST_ATOM,
    "locale.getlocale": READS_HOST_ATOM,
    "locale.getdefaultlocale": READS_HOST_ATOM,
    "locale.getpreferredencoding": READS_HOST_ATOM,
    "locale.nl_langinfo": READS_HOST_ATOM,
    "platform.system": READS_HOST_ATOM,
    "platform.machine": READS_HOST_ATOM,
    "platform.node": READS_HOST_ATOM,
    # -- process-global RNG streams ------------------------------------
    "repro.rng.reseed_fallback": MUTATES_GLOBAL_ATOM,
}
"""call qualname -> effect atom, unconditionally."""

ENVIRON_ATTRS: FrozenSet[str] = frozenset({"os.environ", "os.environb"})
"""Attribute chains whose mere *access* is an environment read."""

AMBIENT_RNG_CALLS: FrozenSet[str] = frozenset({
    # numpy legacy global-state draws.
    "numpy.random.random", "numpy.random.rand", "numpy.random.randn",
    "numpy.random.randint", "numpy.random.random_sample",
    "numpy.random.normal", "numpy.random.uniform", "numpy.random.choice",
    "numpy.random.shuffle", "numpy.random.permutation",
    "numpy.random.standard_normal", "numpy.random.exponential",
    "numpy.random.poisson", "numpy.random.binomial", "numpy.random.seed",
    "numpy.random.rayleigh", "numpy.random.gamma", "numpy.random.beta",
    # stdlib random module (module-level = one hidden global stream).
    "random.random", "random.randint", "random.randrange",
    "random.uniform", "random.gauss", "random.normalvariate",
    "random.choice", "random.choices", "random.sample",
    "random.shuffle", "random.seed",
})
"""Calls that draw from (or reseed) a process-global RNG stream."""

FALLBACK_RNG_FUNCS: FrozenSet[str] = frozenset({
    "repro.rng.fallback_rng",
})
"""The documented process-global fallback stream.  Calling it is only
*indiscipline* when the enclosing function has no ``rng``-style
parameter to thread a seeded stream through — the ``rng=None ->
fallback_rng()`` convenience default is the documented contract and is
policed at construction time by VAB001."""

RNG_PARAM_NAMES: FrozenSet[str] = frozenset({
    "rng", "generator", "gen", "random_state", "rngs",
})
"""Parameter names that count as "a seeded stream can be threaded"."""

MUTATING_METHODS: FrozenSet[str] = frozenset({
    "append", "extend", "insert", "remove", "pop", "popitem", "clear",
    "update", "add", "discard", "setdefault", "move_to_end", "sort",
    "reverse", "appendleft", "popleft", "fill", "partial_fit",
})
"""Receiver-mutating method names.  Deliberately excludes the metrics
instruments (``inc``/``observe``/``set``): telemetry is merged
deterministically and excluded from ``run_key``."""

FILE_READ_METHODS: FrozenSet[str] = frozenset({
    "read", "readline", "readlines", "read_text", "read_bytes",
})
FILE_WRITE_METHODS: FrozenSet[str] = frozenset({
    "write", "writelines", "write_text", "write_bytes",
})

MEMOIZED_FUNCS: FrozenSet[str] = frozenset({
    # The channel-response memo store (repro.sim.cache) caches these
    # results by value-equality key; the computation must be pure.
    "repro.sim.cache.cached_between",
    "repro.sim.cache.reader_node_response",
    "repro.acoustics.channel.AcousticChannel.between",
    # Content-addressed ledger keys: two manifests with equal key fields
    # MUST hash identically, so the key derivation is effectively a
    # cache lookup shared across every user of the store.
    "repro.obs.ledger.run_key",
    "repro.obs.ledger.run_id",
})
"""Functions whose results are memoized or content-addressed — checked
by VAB017/VAB018 even without a ``functools`` decorator."""

MEMO_DECORATORS: FrozenSet[str] = frozenset({
    "functools.lru_cache",
    "functools.cache",
})
"""Decorators that memoize the wrapped function."""

WORKER_ENTRY_FUNCS: FrozenSet[str] = frozenset({
    "repro.sim.parallel._run_chunk",
})
"""Functions dispatched across the ProcessPool boundary by
``repro.sim.parallel`` — checked by VAB019 even when the submit call is
not syntactically visible."""

POOL_CONSTRUCTORS: FrozenSet[str] = frozenset({
    "concurrent.futures.ProcessPoolExecutor",
    "concurrent.futures.process.ProcessPoolExecutor",
    "multiprocessing.Pool",
    "multiprocessing.pool.Pool",
})
"""Constructors whose result submits callables to *other processes*."""

SUBMIT_METHODS: FrozenSet[str] = frozenset({
    "submit", "map", "apply", "apply_async", "map_async", "imap",
    "imap_unordered", "starmap",
})
"""Method names on a pool object that carry a callable across the
process boundary (the callable is the first positional argument)."""

HOST_PASSTHROUGH_CALLS: FrozenSet[str] = frozenset({
    "min", "max", "abs", "round", "int", "float", "bool", "str",
})
"""Builtins that return a value derived from their arguments — host
taint flows through them on the way to a ``return``."""
