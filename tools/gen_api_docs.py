"""Regenerate docs/API.md from the package's public (`__all__`) surface.

Run from the repository root:  python tools/gen_api_docs.py
"""

import importlib
import inspect
from pathlib import Path

CAMPAIGNS_SECTION = """\
## Running large campaigns

The paper's evaluation rests on >1,500 field trials; simulation
campaigns of that size run through `repro.sim.parallel`:

```python
from repro.sim import (
    Scenario, TrialCampaign, run_campaign_parallel, sweep_range,
)

scenarios = sweep_range(Scenario.river(), [50, 150, 250, 330, 450, 600])
result = run_campaign_parallel(
    scenarios, TrialCampaign(trials_per_point=250, seed=2023), workers=4
)
```

Results are **bit-identical** for any worker count and the same seed:
per-trial entropy comes from `TrialCampaign.trial_seeds`
(`SeedSequence((seed, point)).spawn(n)`) regardless of which worker runs
a point. Each point is one chunk, aggregated where it runs, and the
runner harvests chunks in point order. `workers=1` runs the same chunks
serially in-process; campaigns carrying non-picklable factories fall
back to that path automatically, even when a `pool=` is supplied.
Serial and pool runs record the same spans, events and runner
instruments.

Speed comes mostly from memoization, which is on by default and
invisible in the returned numbers. Every per-point invariant (traced
channel, noise-shaping filter, Doppler plan, template spectrum, array
gain, preamble, CRC tables) is a `repro.memo` memo:

- keyed by value (`repro.memo.key_of`: every dataclass field, arrays
  by dtype, shape and bytes, a bound method as `(func, self)`);
- its cached arrays are read-only, and a miss records no spans;
- `repro.memo.clear_memos()` empties every memo;
  `repro.sim.cache` keeps `reader_node_response`,
  `channel_cache_info` and `clear_channel_cache` for the channel memo.

Memos are process-local; invalidate explicitly after mutating
water/surface tables in place.

A point runs in two phases (`repro.sim.engine.simulate_point_batch`).
Its sample-domain stages (modulate, reflect, channel, Doppler, noise,
SI suppression, preamble detect, CFO and integrate-and-dump) run on
tiles of `engine.TILE_ROWS` (32) trials that refill buffers allocated
once per point, so a point's peak memory does not grow with its trial
count; the phase loop, frame parse, eye SNR and scoring run once over
every detected row (`BatchedReaderReceiver.demodulate_batch` takes the
record tiles as an iterator). Any tiling is bit-identical.

A point runs on its calling thread: multi-core scaling is the process
pool's (`workers=N`, one point per chunk), and `workers` defaults to
the process's usable CPUs (`repro.sim.parallel.usable_cpus`, its
affinity mask), capped at 8.

Per-stage wall-clock (channel / reflect / noise / demod / score, and
inside demod the batched receiver's suppress / detect / cfo / slice /
parse) is available from a `SpanTracer` passed as `tracer=`:
`tracer.leaf_totals()` folds its span paths into per-stage totals and
counts. The repository benchmark is `perfbench/` (`python3
perfbench/run.py --workload river_batched --seed 2023 --seconds 40`):
repeated passes with medians and spreads, a host record, a per-layer
breakdown and golden per-point digests; see `perfbench/README.md`.

## Observability

`repro.obs` instruments the campaign path; everything is zero-cost
when unused and merges deterministically (in point order) under the
parallel runner:

- **Spans** — `span(name)` brackets nested work; `collect_spans`
  installs a `SpanTracer` that aggregates `path -> (total_s, count)`.
  The engine emits `point > batch > channel/reflect/noise/demod/score`:
  `channel`, `reflect`, `noise` and a `demod` with
  `suppress/detect/cfo/slice` per record tile, then one `demod` with
  `slice/parse` and the `score` per point.
- **Metrics** — `counter` / `gauge` / `histogram` return named
  instrument handles writing into the active `MetricsRegistry`
  (swap one in with `use_registry`). Engine instruments:
  `repro.sim.cache.*`, `repro.sim.parallel.*`, `repro.phy.receiver.*`,
  `repro.link.stats.*`.
- **Manifests + events** — `run_observed_campaign(...)` returns
  `(CampaignResult, RunManifest)` and optionally persists the manifest
  (`save_manifest` / `load_manifest` in `repro.sim.export`,
  schema-checked round trip) plus a JSONL `EventLog`
  (`campaign_start` / `chunk_done` / `point_end` / `campaign_end`; a
  point that raises logs `point_failed` and no manifest is written).
  The manifest's `campaign` record is `TrialCampaign.snapshot()`,
  every campaign field with factories recorded by name (closure values
  and arguments too, for lambdas, nested functions and partials), and
  its `engine_versions` the numeric engines (`phy.batch`,
  `vanatta.fastfield`); both enter the ledger's run key. One canonical
  walk builds the manifest, the event lines and the key, and raises
  `TypeError` on a value it has no form for. Manifest schema 2; schema
  1 still loads.

Render a recorded run with the CLI::

    python -m repro sweep --manifest run.json --events run.jsonl
    python -m repro obs report run.json

The E-series benchmarks emit the same artifacts per campaign when
`VAB_OBS_DIR=<dir>` is set.
"""

LINT_SECTION = """\
## Linting (vablint)

`repro.analysis` is a stdlib-`ast` linter for the invariants the
reproduction's guarantees rest on — campaign determinism, unit
discipline in the physics, a typed public API. It has no command
line: the gate is the tier-1 test
`tests/test_vablint.py::test_src_repro_lints_clean`, which runs all 18
rules over `src/repro` and allows no finding. The same check from
Python::

    from repro.analysis import lint_paths

    report = lint_paths(["src/repro"], units=True)  # + the dataflow engines
    for finding in report.errors + report.findings:
        print(finding.render())                    # path:line:col: VABxxx ...

A file that does not parse is reported in `report.errors` as
pseudo-rule `VAB000`; `report.clean` is true only when both lists are
empty. Directory recursion skips `tests/lint_fixtures/**` (the
fixtures are deliberately dirty) and any entry below the named
directory whose name starts with `.`; a file named explicitly is always
linted. Spread the per-file rules over processes with `jobs=N` (output
is deterministic regardless of job count). Every rule runs on every file:
there are no rule filters and no suppression comments, so a finding is
fixed in the code or, for the effects engine, answered by a declared
`Effectful[...]` grant. README's rule table records, per rule, its
findings today and over the project's history and the test that
catches the same bug.

### Rule catalogue

| id | name | enforces |
|----|------|----------|
| `VAB001` | unseeded-rng | no unseeded `np.random.default_rng()` / legacy `np.random.*` global state in library code |
| `VAB002` | rng-in-loop | no `Generator` construction inside loop bodies (per-trial hot paths) |
| `VAB003` | unit-suffix-mismatch | no dB/linear, Hz/rad, m/km additive mixing; dB-valued expressions bind to `*_db` names |
| `VAB004` | wall-clock-in-sim | no `time.time` / `datetime.now` outside `repro.obs` (telemetry is exempt) |
| `VAB005` | api-hygiene | no mutable default arguments; public functions carry full type annotations |
| `VAB006` | db-domain-product | (`units=True`) no multiplying/dividing two dB-domain quantities — log-domain values compose additively |
| `VAB007` | db-linear-mix | (`units=True`) no additive arithmetic or bindings mixing dB-domain and linear-domain quantities |
| `VAB008` | hz-rad-confusion | (`units=True`) no Hz vs rad/s (or kHz) conflicts in arithmetic, call arguments, trig/filter calls |
| `VAB009` | m-km-mix | (`units=True`) no metre/kilometre mixing; `dB/km` coefficients times metres demand the `/ 1e3` |
| `VAB010` | call-site-unit-conflict | (`units=True`) no argument units contradicting a callee's parameters, or returns contradicting declarations |
| `VAB011` | silent-broadcast | (`units=True`) no elementwise arithmetic between symbolic shapes that provably cannot broadcast (the missing-`keepdims` class of bug) |
| `VAB012` | batch-collapsing-reduction | (`units=True`) no axis-less reductions of named batch arrays, no reduction axes that exceed the declared rank |
| `VAB013` | complex-downcast | (`units=True`) no silent complex→real decay: `float()`/real-buffer stores/ordered comparisons of complex fields must go through `np.abs`/`.real` |
| `VAB014` | cache-mutation | (`units=True`) no in-place writes to arrays handed out by the worker/cache boundary (`reader_node_response`, `cached_between`) — copy first |
| `VAB015` | set-order-accumulation | (`units=True`) no order-dependent accumulation (`+=`, RNG draws) driven by iteration over `set`/`frozenset` — sort first |
| `VAB016` | shape-contract-violation | (`units=True`) no returns or call arguments contradicting a `Shaped[...]` contract (rank, named dims, dtype family) |
| `VAB017` | hidden-cache-input | (`units=True`) no hidden input (environ, wall-clock, filesystem, host config, mutable global, ambient RNG) reaching a memoized or content-addressed computation whose cache key cannot see it |
| `VAB018` | cache-hit-divergence | (`units=True`) no side effect (global/argument mutation, file write) escaping a memoized function — it happens on the computing call and never again on a cache hit |

### Dimensional analysis (`units=True`)

VAB006..VAB010 come from `repro.analysis.units`: a flow-sensitive,
interprocedural abstract interpretation that tracks a unit lattice
through assignments, arithmetic, and calls, with a two-pass fixed
point so callee summaries (parameter/return units) flow to call sites
across files. Unit facts are seeded from three sources, in priority
order:

1. **Annotations** — `repro.contracts` exports
   `Annotated[float, UnitTag(...)]` aliases (`DB`, `DBM`,
   `DB_PER_KM`, `LINEAR`, `HZ`, `KHZ`, `RAD_PER_S`, `RAD`, `DEG`,
   `METERS`, `KM`, `MPS`, `SECONDS`, `MS`, `OHM`). They erase to
   `float` at runtime; the engine reads them syntactically, by alias
   name.
2. **Signature DB** — `repro.analysis.units.sigdb` curates units for
   the physics API (`spreading_loss_db`, `thorp_absorption_db_per_km`,
   `noise_level_db`, ...) plus `math`/`numpy` intrinsics (`sin` wants
   radians, `log10` feeds the dB promotion rules), so un-annotated
   call sites are still checked.
3. **Name suffixes** — `_db`, `_hz`, `_m`, `_km`, `_mps`, `_db_per_km`
   and friends, shared with VAB003 (bare `_s` is deliberately not
   seconds: `w_s`/`f_s` are frequencies).

To annotate a new physics function, import the aliases and declare the
contract; the engine then checks both the body and every caller::

    from repro.contracts import DB, HZ, METERS

    def my_loss_db(range_m: METERS, frequency_hz: HZ) -> DB:
        ...

Prefer annotation for new code; add a `sigdb` entry only for functions
whose signature you cannot touch.

Conversions are algebraic, not pattern-matched: `m / 1e3` is `km`,
`alpha_db_per_km * range_m` is the pseudo-unit `dB*m/km` which only
becomes `dB` after the missing `/ 1e3` (the paper's flagship unit
trap), `2 * pi * f_hz` is `rad/s`, and `10 * log10(x)` promotes to dB.

### Shape/dtype dataflow analysis (also `units=True`)

VAB011..VAB016 come from `repro.analysis.shapes`: a second
flow-sensitive, interprocedural engine over the same call-graph
machinery that tracks symbolic ndarray shapes, dtype families, and
determinism taints through the batched kernels. Shape facts are seeded
by `Annotated` contracts from `repro.contracts` —
`Shaped["trials", "samples"]`, plus the dtype-carrying
`ComplexShaped` / `FloatShaped` / `IntShaped` — on the
batched APIs in `repro.phy.batch`, `repro.vanatta.fastfield`, and
`repro.sim.engine`, and by a curated numpy signature DB
(`repro.analysis.shapes.sigdb`) for the un-annotated rest::

    from repro.contracts import ComplexShaped

    def suppress_carrier_batch(
        self, records: ComplexShaped["trials", "samples"]
    ) -> ComplexShaped["trials", "samples"]:
        ...

Dimension tokens are symbolic names (`"trials"`), fixed extents (`3`;
`1` broadcasts), `"?"` (unknown), and `"..."` (any leading block);
dtypes form the coarse lattice `complex > float > int > bool`. The
engine is deliberately conservative — a rule fires only on a
*provable* conflict (two distinct names or two distinct extents in one
broadcast slot), so unknown shapes stay silent — and summaries flow
interprocedurally: an un-annotated caller of an annotated kernel
inherits the kernel's return shape/dtype. The flagship catch is the
missing-`keepdims` slip, `records - records.mean(axis=1)`, which pits
`"samples"` against `"trials"` in one broadcast slot (VAB011); the
same machinery flags silent phase loss on the complex field sums
(VAB013) and in-place writes to channel-cache storage (VAB014). The
engine shares the incremental cache file and the report (a `shapes`
entry next to `units` in `LintReport.engine_stats`).

### Effect/purity analysis (also `units=True`)

VAB017 and VAB018 come from `repro.analysis.effects`: a third
flow-sensitive, interprocedural engine over the same call-graph
machinery that tracks *effects* — which functions read ambient state
and which mutate state. Effects are nine atoms (`reads:environ`,
`reads:clock`, `reads:file`, `reads:host`, `reads:global`,
`mutates:global`, `mutates:arg`, `writes:file`, `rng:ambient`), seeded
from a curated signature DB (`repro.analysis.effects.sigdb`: `os`,
`time`, `locale`, `numpy.random`, the repro cache/RNG API) and from
contracts in `repro.contracts`::

    from repro.contracts import Effectful, Pure

    def path_gain(range_m: float) -> Pure[float]: ...

    def default_workers() -> Effectful[int, "reads:host"]: ...

`Pure[T]` declares "the result depends only on the arguments, no
observable side effects" — the property memoization and the
content-addressed ledger rest on. `Effectful[T, atoms...]` is a
*grant*: the named effects are intentional and documented, so the
engine reports only effects the contract does **not** cover.
Un-annotated callers inherit their callees' effects through the fixed
point, so a hidden input two calls deep still reaches the rule at the
memoization boundary. (For mypy-gated modules the same contracts are
spelled `Annotated[T, READS_HOST]` with the tag constants.)

The flagship catch is **cache poisoning by a hidden input** (VAB017).
This looks harmless::

    @lru_cache(maxsize=None)
    def cached_gain(range_m: float) -> float:
        trim = float(os.getenv("VAB_GAIN_TRIM", "0.0"))  # VAB017
        return spreading_loss_db(range_m) + trim

The cache key is `range_m` alone; the environ read is invisible to it.
The first call bakes whatever `VAB_GAIN_TRIM` happened to be into the
memo, and every later call — any trim, any caller — replays that
stale value. Under a *content-addressed* store (`repro.obs.ledger`
keys results by config sha) the damage is durable: the poisoned number
is filed under a key that claims to fully describe it, and dedupe
serves it to every future run with the same config. The fix is
mechanical: pass the trim as an argument (it joins the key), or —
when the read genuinely must not enter the key (a display knob, a
scheduling hint) — declare `Effectful[..., "reads:environ"]` to
accept the contract visibly.

The determinism hot
paths (`repro.sim.cache`, `repro.sim.parallel`, `repro.obs.ledger`,
`repro.rng`) carry explicit contracts; the committed tree is
effect-clean.

**Incremental cache** — `lint_paths(..., units_cache=PATH)` keys
per-file results by content sha256 + engine version, one section per
engine in that one file, so a version bump invalidates only that
engine's entries. An edit re-analyzes only the file and its call-graph
dependents; everything else is replayed byte-identically from cache.
Without a cache path the run is cold (what the tier-1 gate does);
version bumps and damaged caches degrade to cold runs automatically.
`LintReport.engine_stats` records, per engine, the files analyzed
(cache misses), the files reused (cache hits) and the fixed-point
passes.

### The RNG-threading contract (what VAB001/VAB002 enforce)

Every stochastic entry point takes an explicit `np.random.Generator`.
Campaign code derives all of its generators up front from centralized
seeds — `TrialCampaign.trial_seeds(point)` spawns one child seed per
trial via `SeedSequence((seed, point))` — and threads them down, which
is what makes the parallel runner bit-identical to the serial one.
When an API allows `rng=None` for interactive convenience, the
fallback is `repro.rng.fallback_rng()`: a process-global generator
seeded from the documented `DEFAULT_FALLBACK_SEED`, so even "unseeded"
use is reproducible run-to-run (reset it with `reseed_fallback`).

### Adding a rule

Subclass `repro.analysis.Rule`, set `rule_id` / `name` / `summary`,
implement `check(ctx: FileContext) -> Iterator[Finding]` (walk
`ctx.tree`, resolve dotted callables with `ctx.resolve(node)`, emit via
`ctx.finding(self, node, message)`), and decorate with `@register`.
The linter and the tier-1 gate pick the rule up automatically; add a
bad/clean fixture pair under `tests/lint_fixtures/` to pin its
behavior.

### Lint and campaign runs

Campaign runs never import `repro.analysis`. A run manifest's
`engine_versions` stamps only the numeric engines (`phy.batch`,
`vanatta.fastfield`): the lint tools never touch the numbers, and the
manifest's `version` already pins the package. `tests/test_obs_ledger.py`
checks that every `*_ENGINE_VERSION` constant outside the lint stack
reaches a real manifest's stamp, and that a campaign run — through the
API or `python -m repro sweep` — loads no `repro.analysis` module.
`tests/test_engine_table.py` checks that a warm run serves every file
of every engine from the cache (the signature of a cache-key or
dependent-closure bug is a warm run that re-analyses). CI's test job
runs the lint gate with the rest of tier-1 on every Python version it
tests; its lint job keeps only the typed-API check.

### Typed-API gate

`repro` ships `py.typed`. The leaf packages `repro.obs`,
`repro.geometry`, `repro.phy.bits`, `repro.link.stats`, and the
annotation vocabulary `repro.contracts` are fully annotated and
checked in CI with `mypy` under `disallow_untyped_defs` (config in
`pyproject.toml`); the numeric core is checked leniently.

### The runtime/analysis boundary

Runtime modules import only `repro.contracts` — a stdlib-only module
of inert `Annotated` aliases, shape factories and effect tags — never
`repro.analysis`, so campaign processes and pool workers do not load
the lint stack (`tests/test_contracts.py` checks both). The engines
recognise the aliases by name, so a linted source that still spells
`from repro.analysis.units.vocab import DB` gets the same findings.
"""

PACKAGES = [
    "repro.core",
    "repro.contracts",
    "repro.analysis",
    "repro.obs",
    "repro.geometry",
    "repro.acoustics",
    "repro.dsp",
    "repro.piezo",
    "repro.vanatta",
    "repro.phy",
    "repro.link",
    "repro.sim",
    "repro.baselines",
]


def first_doc_line(obj) -> str:
    """First docstring line, empty when undocumented."""
    if not obj.__doc__:
        return ""
    return obj.__doc__.strip().split("\n")[0]


def build() -> str:
    """Assemble the markdown document."""
    lines = [
        "# API index",
        "",
        "Auto-generated from the package's public (`__all__`) surface.",
        "Regenerate with `python tools/gen_api_docs.py`.",
        "",
        CAMPAIGNS_SECTION,
        LINT_SECTION,
    ]
    for name in PACKAGES:
        module = importlib.import_module(name)
        lines.append(f"## `{name}`")
        lines.append("")
        doc = (module.__doc__ or "").strip().split("\n\n")[0].replace("\n", " ")
        if doc:
            lines.extend([doc, ""])
        for symbol in getattr(module, "__all__", []):
            obj = getattr(module, symbol, None)
            if obj is None:
                continue
            kind = (
                "class" if inspect.isclass(obj)
                else "function" if callable(obj)
                else "constant"
            )
            lines.append(f"- **`{symbol}`** ({kind}) — {first_doc_line(obj)}")
        lines.append("")
    return "\n".join(lines)


if __name__ == "__main__":
    Path("docs/API.md").write_text(build())
    print("wrote docs/API.md")
