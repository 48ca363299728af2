"""Shared plumbing of the benchmark: paths, pinned environment, bounded
subprocesses, the host-drift probe, statistics and the result line.

Everything the benchmark writes lives under ``.bench_build/hmbench`` of the
checkout it runs in; each run gets a fresh directory there and removes it
when it ends.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence

ROOT = Path.cwd()
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
WORK = ROOT / ".bench_build" / "hmbench"
CORPUS = ROOT / "tests" / "data" / "traces"
CHECKED_IN_ARTIFACTS = ROOT / "artifacts"

#: Every paper bench plus the real-trace bench; ``perf`` times the repo
#: itself with best-of-N loops and is left out.
GALLERY_BENCHES = ("fig01", "fig02", "fig11", "fig12", "fig13", "fig14",
                   "fig15", "fig16", "fig17", "fig18", "table1", "table2",
                   "trace01")

#: Settings ``artifacts/`` was generated with (the fixture seed is 1).
GALLERY_SETTINGS = {"refs": 16_000, "per_class": 2, "scale": 256}
FIXTURE_SEED = 1


def workers() -> int:
    return max(1, min(8, os.cpu_count() or 1))


def require_checkout() -> None:
    """Refuse to run outside a checkout of the program (exit code 2)."""
    if not (SRC / "repro" / "__init__.py").is_file() or not CORPUS.is_dir():
        print(f"hmbench: {ROOT} holds no repro checkout (src/repro and "
              f"tests/data/traces are required)", file=sys.stderr)
        raise SystemExit(2)


def import_repro() -> None:
    """Make the checkout's ``repro`` package importable in this process."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def pinned_env(run_dir: Path, seed: int, store: str = "",
               **extra: str) -> Dict[str, str]:
    """The environment every program process runs under.

    All ``REPRO_*`` knobs are set explicitly (``REPRO_FAULTS`` is removed),
    so nothing from the caller's shell changes what is measured.
    """
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env.update({
        "PYTHONPATH": str(SRC),
        "PYTHONUNBUFFERED": "1",
        "REPRO_BENCH_REFS": str(GALLERY_SETTINGS["refs"]),
        "REPRO_BENCH_WORKLOADS_PER_CLASS": str(GALLERY_SETTINGS["per_class"]),
        "REPRO_BENCH_SCALE": str(GALLERY_SETTINGS["scale"]),
        "REPRO_BENCH_SEED": str(seed),
        "REPRO_BENCH_WORKERS": str(workers()),
        "REPRO_BENCH_STORE": store or "off",
        "REPRO_STORE_BACKEND": "sqlite",
        "REPRO_SWEEP_MAX_ATTEMPTS": "3",
        "REPRO_SWEEP_BACKOFF": "0.5",
        "REPRO_SWEEP_TIMEOUT": "0",
        "REPRO_FULL": "0",
        "REPRO_STRICT": "0",
        "REPRO_TRACE_CORPUS": str(run_dir / "corpus"),
    })
    env.update(extra)
    return env


def fresh_run_dir(workload: str, seed: int) -> Path:
    """A new, empty per-run directory holding a private corpus copy."""
    run_dir = WORK / f"run-{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    copy_corpus(run_dir / "corpus")
    return run_dir


def copy_corpus(dest: Path) -> None:
    """Copy the trace files only: the corpus README's relative links would
    dangle in the copy and fail the repository's markdown link check."""
    shutil.copytree(CORPUS, dest, ignore=shutil.ignore_patterns("*.md"))


# ---------------------------------------------------------------------------
# bounded subprocesses
# ---------------------------------------------------------------------------
@dataclass
class Done:
    """Outcome of one bounded program call."""

    returncode: Optional[int]       # None when the call timed out
    stdout: str
    stderr: str
    wall_s: float

    @property
    def ok(self) -> bool:
        return self.returncode == 0


def kill_group(proc: subprocess.Popen) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run(argv: Sequence[str], env: Dict[str, str], timeout: float) -> Done:
    """Run ``argv`` in its own process group; kill the group on timeout."""
    start = time.perf_counter()
    proc = subprocess.Popen(list(argv), env=env, cwd=str(ROOT),
                            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
        code: Optional[int] = proc.returncode
    except subprocess.TimeoutExpired:
        kill_group(proc)
        out, err = proc.communicate()
        code = None
    wall = time.perf_counter() - start
    return Done(code, out, err, wall)


def repro(*args: str) -> List[str]:
    return [sys.executable, "-m", "repro", *args]


def peak_rss_mb() -> float:
    """Largest RSS of any finished child process (KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# host-drift probe
# ---------------------------------------------------------------------------
def host_probe_ms() -> float:
    """Time a fixed pure-Python loop; its drift shows a slow host period."""
    start = time.perf_counter()
    x = 0
    for i in range(200_000):
        x = (x * 1103515245 + i) & 0xFFFFFFFF
    return (time.perf_counter() - start) * 1e3


class HostProbe:
    """Probe samples taken before and after a workload."""

    def __init__(self) -> None:
        self.samples: List[float] = []

    def take(self, n: int = 3) -> None:
        self.samples.extend(host_probe_ms() for _ in range(n))

    def value(self) -> float:
        return median(self.samples)


# ---------------------------------------------------------------------------
# set-up time
# ---------------------------------------------------------------------------
#: Wall time of the reference start-up, ``python3 -c "import numpy"``, on
#: the 2-vCPU VM the bounds were set on.
REFERENCE_S = 0.170


class Setup:
    """Set-up samples, each followed at once by a reference start-up.

    The host's speed drifts by 20% and more over minutes, and start-up
    time with it: the raw medians of two sets of runs a quarter of an hour
    apart differed by up to 23%.  The reference (interpreter start and the
    numpy import, no ``repro`` code) slows down in step, so ``setup_s`` is
    the median ratio of each sample to the reference taken right after it,
    in seconds at the reference's speed on that VM (``REFERENCE_S``).  Work
    the program adds to its own start-up still shows in full; over two
    minutes the ratio varied by +-6% where the raw time varied by +-20%.
    """

    def __init__(self, env: Dict[str, str]) -> None:
        self.env = env
        self.walls: List[float] = []
        self.references: List[float] = []

    def add(self, wall: float) -> None:
        done = run([sys.executable, "-c", "import numpy"], self.env, 60)
        self.walls.append(wall)
        self.references.append(done.wall_s if done.ok else float("nan"))

    def value(self) -> float:
        return REFERENCE_S * median([wall / ref for wall, ref
                                     in zip(self.walls, self.references)])

    def info(self) -> Dict[str, List[float]]:
        return {"setup_wall_s": self.walls, "reference_s": self.references}


# ---------------------------------------------------------------------------
# statistics and reporting
# ---------------------------------------------------------------------------
def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    if not ordered:
        return float("nan")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def tail(values: Sequence[float], beyond: int = 10) -> float:
    """The highest order statistic with ``beyond`` samples above it."""
    ordered = sorted(values)
    return ordered[max(0, len(ordered) - beyond - 1)]


class Ops:
    """Operations attempted and failed, with the reason of each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []

    def record(self, ok: bool, what: str = "", count: int = 1) -> bool:
        self.attempted += count
        if not ok:
            self.failed += count
            if len(self.errors) < 20:
                self.errors.append(what)
        return ok

    @property
    def ok_frac(self) -> float:
        return (self.attempted - self.failed) / max(1, self.attempted)


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": float(value), "unit": unit}


def manifest_metrics(kind: str) -> Dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics that
    ``BENCHMARK.json`` lists."""
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {entry["name"]: entry["unit"] for entry in manifest[kind]}


def emit(ops: Ops, metrics: Dict[str, Dict[str, object]],
         info: Optional[Dict[str, object]] = None,
         traced: bool = False) -> None:
    """Print diagnostics, then the result object as the last stdout line.

    Every workload prints every metric of the manifest's ``end_to_end``
    list (``traced`` false) or ``per_layer`` list (``traced`` true).  A
    metric that could not be measured (no samples, or a failed phase) counts
    as a failed operation and reads 0.  A per-layer metric of a layer the
    workload never enters reads 0 too: its calls, time and samples are
    none.  ``ok_frac`` is taken from ``ops`` once every check has counted.
    """
    wanted = manifest_metrics("per_layer" if traced else "end_to_end")
    printed = {}
    for name, unit in wanted.items():
        if name == "ok_frac":
            continue
        entry = metrics.get(name)
        if entry is None or not math.isfinite(entry["value"]):
            if entry is not None or not traced:
                ops.record(False, f"{name} was not measured")
            entry = metric(0.0, unit)
        elif entry["unit"] != unit:
            ops.record(False, f"{name} measured in {entry['unit']}")
            entry = metric(entry["value"], unit)
        printed[name] = entry
    metrics = printed
    if "ok_frac" in wanted:
        metrics["ok_frac"] = metric(ops.ok_frac, "frac")
    for error in ops.errors:
        print(f"check failed: {error}", file=sys.stderr)
    if info:
        print(json.dumps(info, sort_keys=True))
    print(json.dumps({"correct": ops.failed == 0 and ops.attempted > 0,
                      "attempted": max(1, ops.attempted),
                      "failed": ops.failed if ops.attempted else 1,
                      "metrics": metrics}, sort_keys=True))


def _picked(spans: List[dict], name: str, run: Optional[str]) -> List[dict]:
    return [span for span in spans if span["name"] == name
            and (run is None or span["run"] == run)]


def span_count(spans: List[dict], name: str,
               run: Optional[str] = None) -> int:
    """Spans called ``name`` (of run ``run``, or of every run)."""
    return len(_picked(spans, name, run))


def span_total(spans: List[dict], name: str, run: Optional[str] = None,
               key: str = "dur") -> float:
    """Summed duration (or ``key``, e.g. ``self_s``) of the named spans."""
    return sum((span["end"] - span["start"]) if key == "dur" else span[key]
               for span in _picked(spans, name, run))


def span_attr(spans: List[dict], name: str, run: Optional[str],
              attr: str) -> float:
    """Summed attribute ``attr`` of the named spans."""
    return sum((span["attrs"] or {}).get(attr, 0)
               for span in _picked(spans, name, run))


#: The seven designs of the paper's comparison.
DESIGNS = ("BASELINE", "DFC", "TAGLESS", "MPOD", "CHA", "LGM", "HYBRID2")


def span_metrics(dump: dict, run: Optional[str] = None
                 ) -> Dict[str, Dict[str, object]]:
    """The per-layer metrics read from the spans of run ``run`` (or of
    every run) of a traced process.  A layer with no spans reads 0."""
    spans = dump["spans"]
    m = metric

    def total(name: str, key: str = "dur") -> float:
        return span_total(spans, name, run, key)

    def attr(name: str, key: str) -> float:
        return span_attr(spans, name, run, key)

    def count(name: str) -> int:
        return span_count(spans, name, run)

    out = {
        "workloads.gen_s": m(total("workloads.generate"), "s"),
        "sim.calls": m(count("sim.simulate"), "count"),
        "sim.refs": m(attr("sim.simulate", "refs"), "count"),
        "sim.self_s": m(total("sim.simulate", "self_s"), "s"),
        "baselines.fast_path_s": m(total("baselines.fast_path"), "s"),
    }
    for design in DESIGNS:
        picked = [s for s in _picked(spans, "sim.simulate", run)
                  if s["attrs"]["design"] == design]
        busy = sum(s["end"] - s["start"] for s in picked)
        refs = sum(s["attrs"]["refs"] for s in picked)
        out[f"sim.refs_per_s.{design}"] = m(refs / busy if busy else 0.0,
                                            "1/s")
    # The memory fallback's leaves are tallied per process, not per run.
    for leaf, prefix in (("memory.transfer_block", "memory.transfer"),
                         ("memory.device_access", "memory.device")):
        slot = dump["leaves"].get(leaf, {"calls": 0, "s": 0.0})
        out[f"{prefix}_calls"] = m(slot["calls"], "count")
        out[f"{prefix}_s"] = m(slot["s"], "s")
    for key in ("jobs", "simulated", "attempts", "failed"):
        out[f"sweep.{key}"] = m(attr("sweep.run_jobs", key), "count")
    out["sweep.run_jobs_calls"] = m(count("sweep.run_jobs"), "count")
    out["sweep.self_s"] = m(total("sweep.run_jobs", "self_s"), "s")
    out["store.probe_s"] = m(total("store.probe_many"), "s")
    out["store.hit_ratio"] = m(attr("store.probe_many", "hits")
                               / max(1, attr("store.probe_many", "keys")),
                               "frac")
    out["store.put_calls"] = m(count("store.put"), "count")
    out["store.put_s"] = m(total("store.put"), "s")
    out["trace.parse_s"] = m(total("trace.parse"), "s")
    out["trace.hash_s"] = m(total("trace.hash"), "s")
    out["trace.cache_write_s"] = m(total("trace.write_cache"), "s")
    out["trace.cache_load_s"] = m(total("trace.load_cached"), "s")
    out["trace.records"] = m(attr("trace.parse", "records"), "count")
    out["report.bench_s"] = m(total("report.run_bench"), "s")
    out["report.render_s"] = m(total("report.render"), "s")
    out["report.gallery_s"] = m(total("report.rebuild_gallery"), "s")
    return out


def tree_digest(*roots: Path) -> str:
    """SHA-256 over the relative paths and bytes of the files at or under
    ``roots``."""
    digest = hashlib.sha256()
    for root in roots:
        paths = [root] if root.is_file() else sorted(root.rglob("*"))
        for path in (p for p in paths if p.is_file()
                     and "__pycache__" not in p.parts):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def save_spans(workload: str, seed: int, dump: dict) -> None:
    """Keep the spans of a traced run under ``.bench_build/hmbench``."""
    out = WORK / "spans"
    out.mkdir(parents=True, exist_ok=True)
    (out / f"{workload}-seed{seed}.json").write_text(json.dumps(dump))
