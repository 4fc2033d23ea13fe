"""Run one benchmark workload and print its metrics as JSON.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload river_batched --seed 2023 \\
        --seconds 40 --trace 0

``--trace 0`` times passes of the workload as users run it (no tracer)
and prints the end-to-end metrics. ``--trace 1`` alternates untraced
passes with passes traced outside-in (see ``tracer.py``), prints the
per-layer metrics and writes the spans as Chrome trace-event JSON under
``.perfbench/traces/``. The last line of standard output is always one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it records the run's conditions.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench"

THREAD_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
PROBE_MODE = "count"
"""``VAB_PROBES`` default; pinned so the environment cannot change it."""

SETUP_PROBES = 2
"""Fresh-process set-ups per run, besides the run's own (median of all)."""
SETUP_PROBE_SECONDS = 3.0
"""Short set-ups are probed further, up to this long or 10 probes."""
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
REAP_TIMEOUT_S = 10.0
"""How long exiting waits for children before it kills them."""
PR_SET_CHILD_SUBREAPER = 36  # from <linux/prctl.h>

END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("wall_s", "s"),
    ("trials_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# Per-layer metrics read off the tracer: metric -> span name.
SELF_TIME = {
    "dsp.noise.self_s": "dsp.noise",
    "phy.demod.self_s": "phy.demod",
    "phy.demod.suppress.self_s": "phy.demod.suppress",
    "phy.demod.detect.self_s": "phy.demod.detect",
    "phy.demod.parse.self_s": "phy.demod.parse",
    "phy.demod.cfo.self_s": "phy.demod.cfo",
    "phy.demod.slice.self_s": "phy.demod.slice",
    "phy.demod.rake.self_s": "phy.demod.rake",
    "phy.receiver.build.self_s": "phy.receiver.build",
    "acoustics.channel.self_s": "acoustics.channel",
    "acoustics.doppler.self_s": "acoustics.doppler",
    "acoustics.response.self_s": "acoustics.response",
    "vanatta.modulate.self_s": "vanatta.modulate",
    "vanatta.reflect.self_s": "vanatta.reflect",
    "phy.frame.build.self_s": "phy.frame.build",
    "sim.engine.self_s": "sim.engine",
    "sim.seeds.self_s": "sim.seeds",
    "sim.score.self_s": "sim.score",
    "obs.probe.self_s": "obs.probe",
    "obs.manifest.save_s": "obs.manifest.save",
    "obs.ledger.record_s": "obs.ledger.record",
    "analysis.rules.self_s": "analysis.rules",
    "analysis.units.self_s": "analysis.units",
    "analysis.shapes.self_s": "analysis.shapes",
    "analysis.effects.self_s": "analysis.effects",
}
CALLS = {
    "phy.demod.calls": "phy.demod",
    "phy.demod.slice.calls": "phy.demod.slice",
    "sim.score.calls": "sim.score",
}
SAMPLES = ("dsp.noise.samples", "acoustics.channel.samples")
# Per-layer metrics the workloads report for each pass (pass_metrics).
FROM_PASSES = (
    "phy.demod.detect_ratio",
    "phy.demod.crc_ok_ratio",
    "sim.cache.hit_ratio",
    "sim.parallel.chunks",
    "sim.parallel.busy_s",
    "sim.parallel.idle_s",
    "sim.parallel.scaling_efficiency",
    "obs.events.count",
    "analysis.cache.reuse_ratio",
    "analysis.files",
)
OVERALL = ("sim.unattributed_s", "trace.coverage", "trace.overhead_frac")
# Per-layer metrics a traced run takes from the workload's companion: the
# layers only the per-trial receiver path exercises.
COMPANION_METRICS = (
    "phy.demod.cfo.self_s",
    "phy.demod.slice.self_s",
    "phy.demod.slice.calls",
    "phy.demod.rake.self_s",
)
COMPANION_SHARE = 0.25
"""Share of a traced run's seconds given to the companion, if any."""


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("ratio", "efficiency", "coverage", "frac")):
        return "ratio"
    return "count"


PER_LAYER: Tuple[Tuple[str, str], ...] = tuple(
    (name, _unit(name))
    for name in (*SELF_TIME, *CALLS, *SAMPLES, *FROM_PASSES, *OVERALL)
)


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only", action="store_true",
        help="set the workload up once, print its set-up time, and exit",
    )
    return parser.parse_args(argv)


def pin_environment() -> None:
    """One BLAS/OpenMP thread and the default probe mode, for every process."""
    for key in THREAD_ENV:
        os.environ[key] = "1"
    os.environ["VAB_PROBES"] = PROBE_MODE


def timed_setup(cls: Any, seed: int, work_dir: Path) -> Tuple[Any, float]:
    t0 = time.perf_counter()
    workload = cls(seed, work_dir)
    return workload, time.perf_counter() - t0


def stop_resource_tracker() -> None:
    """Stop and reap this process's multiprocessing resource tracker.

    A spawn pool starts the tracker as a child that outlives the pool;
    left alone it exits only after this process does, unreaped.
    """
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    if tracker is None:
        return
    gc.collect()  # finalise the pool's semaphores while the tracker listens
    tracker._resource_tracker._stop()


def become_subreaper() -> None:
    """Adopt orphaned descendants (Linux), so :func:`reap_children` can wait.

    Without it a grandchild whose parent died, such as a set-up probe's
    pool worker, is handed to init and may never be waited for.
    """
    try:
        import ctypes

        prctl = ctypes.CDLL(None, use_errno=True).prctl
        prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
        prctl.restype = ctypes.c_int
        prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def child_pids() -> List[int]:
    """Live children of this process, from ``/proc``."""
    me = str(os.getpid())
    pids = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            # Fields after the parenthesised command: state, ppid, ...
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if fields[1] == me and fields[0] != "Z":
            pids.append(int(stat.parent.name))
    return pids


def reap_children(timeout: float = REAP_TIMEOUT_S) -> None:
    """Wait for every child, adopted ones too; kill those left at ``timeout``."""
    deadline = time.perf_counter() + timeout
    killed = False
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        if time.perf_counter() >= deadline:
            if killed:
                return  # unkillable: give up rather than hang
            deadline += timeout
            for child in child_pids():
                try:
                    os.kill(child, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            killed = True
        time.sleep(0.01)


def setup_probe(args: argparse.Namespace) -> float:
    """Set-up time of the workload in a fresh interpreter.

    The probe runs in a session of its own, so that on failure or
    timeout its whole process group is killed, not just the probe.
    """
    proc = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()),
         "--workload", args.workload, "--seed", str(args.seed),
         "--setup-only"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=120)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{stderr}")
    return float(json.loads(stdout.splitlines()[-1])["setup_s"])


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # ru_maxrss is in KiB on Linux


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def conditions(args: argparse.Namespace, workload: Any, passes: Dict[str, int]) -> dict:
    """Everything a reader needs to reuse the numbers of this run."""
    from importlib import metadata

    from repro.obs.probes import probe_mode

    versions = {}
    for package in ("numpy", "scipy"):
        try:
            versions[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            versions[package] = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "loop": "closed, one caller",
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        **versions,
        "probe_mode": probe_mode(),
        "thread_env": {key: os.environ.get(key) for key in THREAD_ENV},
        "workers": getattr(workload, "workers", 1),
        "passes": passes,
    }


class Checker:
    """Counts checked items against the golden or the run's first pass."""

    def __init__(self, workload: Any, reference: Any) -> None:
        self.workload = workload
        self.reference = reference
        self.first: Any = None
        self.attempted = 0
        self.failed = 0

    def __call__(self, digest: Any) -> None:
        reference = self.reference if self.reference is not None else self.first
        attempted, failed = self.workload.check(digest, reference)
        self.attempted += attempted
        self.failed += failed
        if self.first is None:
            self.first = digest


def run_timed(workload: Any, check: Checker, seconds: float) -> Dict[str, List[float]]:
    """Cycle through the workload's passes for ``seconds``; wall per kind.

    Stops at the first pass boundary after ``seconds`` once every kind
    has run :data:`MIN_PASSES` times.
    """
    walls: Dict[str, List[float]] = defaultdict(list)
    deadline = time.perf_counter() + seconds
    while True:
        for kind in workload.cycle:
            t0 = time.perf_counter()
            digest = workload.run_pass(kind)
            walls[kind].append(time.perf_counter() - t0)
            check(digest)
            if time.perf_counter() >= deadline and all(
                len(walls[k]) >= MIN_PASSES for k in workload.cycle
            ):
                return walls


def setup_samples(args: argparse.Namespace, own: float) -> List[float]:
    """The run's own set-up time plus fresh-process probes of it."""
    samples = [own]
    t0 = time.perf_counter()
    while len(samples) <= SETUP_PROBES or (
        time.perf_counter() - t0 < SETUP_PROBE_SECONDS and len(samples) < 10
    ):
        samples.append(setup_probe(args))
    return samples


def run_traced(
    workload: Any, check: Checker, seconds: float, tracer: Any
) -> Tuple[Dict[str, List[float]], Dict[str, List[float]]]:
    """Alternate untraced and traced passes of the main kind for ``seconds``.

    Returns (untraced walls per kind, per-layer values each pass reported).
    """
    walls: Dict[str, List[float]] = defaultdict(list)
    reported: Dict[str, List[float]] = defaultdict(list)
    main = workload.cycle[0]

    def one_pass(kind: str) -> None:
        check(workload.run_pass(kind))
        for key, value in workload.pass_metrics(kind).items():
            reported[key].append(value)

    deadline = time.perf_counter() + seconds
    while (
        time.perf_counter() < deadline
        or len(tracer.passes) < MIN_TRACED_PASSES
    ):
        for kind in workload.cycle:
            t0 = time.perf_counter()
            one_pass(kind)
            walls[kind].append(time.perf_counter() - t0)
            if kind != main:
                continue
            tracer.install()
            start = tracer.begin_pass()
            try:
                one_pass(kind)
            finally:
                tracer.end_pass(start)
                tracer.restore()
    return walls, reported


def layer_metrics(
    tracer: Any, untraced: List[float], reported: Dict[str, List[float]]
) -> Dict[str, float]:
    """Per-pass per-layer values from the tracer and the workload."""
    from tracer import FRAME_SPANS

    n = len(tracer.passes)
    self_times = tracer.self_times()
    calls = tracer.call_counts()
    counts = tracer.counts
    wall = tracer.wall_s()
    attributed = sum(
        t for name, t in self_times.items() if name not in FRAME_SPANS
    )
    traced_walls = [end - start for start, end in tracer.passes]

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    metrics = {name: self_times.get(span, 0.0) / n for name, span in SELF_TIME.items()}
    metrics.update({name: calls.get(span, 0) / n for name, span in CALLS.items()})
    metrics.update({name: counts.get(name, 0.0) / n for name in SAMPLES})
    detected = counts.get("phy.demod.detected", 0.0)
    metrics["phy.demod.detect_ratio"] = ratio(detected, counts.get("phy.demod.records", 0.0))
    metrics["phy.demod.crc_ok_ratio"] = ratio(counts.get("phy.demod.crc_ok", 0.0), detected)
    metrics["sim.unattributed_s"] = (wall - attributed) / n
    metrics["trace.coverage"] = ratio(attributed, wall)
    metrics["trace.overhead_frac"] = (
        statistics.median(traced_walls) / statistics.median(untraced) - 1.0
    )
    for name in FROM_PASSES:
        values = reported.get(name)
        if values:
            metrics[name] = statistics.fmean(values)
        metrics.setdefault(name, 0.0)
    return metrics


def companion_metrics(
    cls: Any, seed: int, work_dir: Path, check: Checker, seconds: float
) -> Tuple[Dict[str, float], int]:
    """:data:`COMPANION_METRICS` from a traced run of a companion workload.

    Returns (metrics, traced passes). The companion's checked items count
    into ``check``.
    """
    from tracer import Tracer
    from workloads import load_goldens

    work_dir.mkdir()
    companion = cls(seed, work_dir)
    try:
        own = Checker(companion, companion.reference(load_goldens()))
        tracer = Tracer()
        walls, reported = run_traced(companion, own, seconds, tracer)
        metrics = layer_metrics(tracer, walls[companion.cycle[0]], reported)
    finally:
        companion.close()
    check.attempted += own.attempted
    check.failed += own.failed
    return {name: metrics[name] for name in COMPANION_METRICS}, len(tracer.passes)


def write_trace(tracer: Any, args: argparse.Namespace) -> Path:
    from repro.obs.trace import validate_trace_events

    doc = tracer.chrome_trace()
    validate_trace_events(doc)
    out = WORK_ROOT / "traces" / f"{args.workload}-seed{args.seed}.trace.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(doc))
    return out


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no library sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    pin_environment()

    from workloads import WORKLOADS, load_goldens

    cls = WORKLOADS.get(args.workload)
    if cls is None:
        print(
            f"perfbench: unknown workload {args.workload!r}; "
            f"choose from {', '.join(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    (WORK_ROOT / "tmp").mkdir(parents=True, exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT / "tmp"))
    workload = None
    try:
        workload, setup_s = timed_setup(cls, args.seed, work_dir)
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        check = Checker(workload, workload.reference(load_goldens()))
        main_kind, last_kind = workload.cycle[0], workload.cycle[-1]
        if args.trace:
            from tracer import Tracer

            companion = WORKLOADS.get(workload.companion)
            share = COMPANION_SHARE if companion else 0.0
            tracer = Tracer()
            walls, reported = run_traced(
                workload, check, args.seconds * (1.0 - share), tracer
            )
            metrics = layer_metrics(tracer, walls[main_kind], reported)
            trace_path = write_trace(tracer, args)
            units = dict(PER_LAYER)
            passes = {kind: len(w) for kind, w in walls.items()}
            passes["traced"] = len(tracer.passes)
            if companion is not None:
                extra_metrics, passes["companion_traced"] = companion_metrics(
                    companion, args.seed, work_dir / "companion", check,
                    args.seconds * share,
                )
                metrics.update(extra_metrics)
            extra = {"trace_file": str(trace_path.relative_to(ROOT)),
                     "trace_missing_targets": tracer.missing}
        else:
            walls = run_timed(workload, check, args.seconds)
            workload.close()
            # Read before the set-up probes, which are children too.
            rss_mb = peak_rss_mb()
            setups = setup_samples(args, setup_s)
            metrics = {
                "wall_s": statistics.median(walls[main_kind]),
                "trials_per_s": workload.items_per_pass
                / statistics.median(walls[last_kind]),
                "setup_s": statistics.median(setups),
                "peak_rss_mb": rss_mb,
            }
            units = dict(END_TO_END)
            passes = {kind: len(w) for kind, w in walls.items()}
            extra = {"setup_samples_s": setups}
        record = conditions(args, workload, passes)
        record.update(extra)
        print(json.dumps({"conditions": record}))
        print(json.dumps({
            "correct": check.failed == 0 and check.attempted > 0,
            "attempted": check.attempted,
            "failed": check.failed,
            "metrics": {
                name: {"value": metrics[name], "unit": units[name]}
                for name in units
            },
        }))
        return 0
    finally:
        if workload is not None:
            workload.close()
        stop_resource_tracker()
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    become_subreaper()
    try:
        code = main(sys.argv[1:])
    finally:
        reap_children()
    sys.exit(code)
