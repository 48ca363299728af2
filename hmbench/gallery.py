"""The ``gallery`` workload: ``repro report`` over every bench but ``perf``.

A timed run does a cold report over an empty store, then a warm report over
the store the cold run left.  The traced run repeats the report serially
in-process, once without and once with spans, and reads the per-layer
metrics from the spans.
"""

from __future__ import annotations

import json
import re
import shutil
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import harness as h

#: A timed run does one cold report over an empty store, then one checked
#: warm report over the store it left, with no-op calls spread before,
#: between and after them.  Both reports are timed as per-layer metrics
#: only: on a shared 2-vCPU VM the host's speed drifts by 20-30% over
#: minutes, so the medians of runs minutes apart spread 13-30%, above any
#: bound the benchmark may set, however many reports one run repeats.
SETUP_CALLS = 4
#: Warm reports the traced run times for ``warm_report_s``.
WARM_REPORTS = 3
REPORT_TIMEOUT_S = 120.0
JOBS_LINE = re.compile(r"^jobs: (\d+) total, (\d+) simulated, (\d+) from "
                       r"store$", re.M)

Snapshot = Dict[str, Tuple[object, object]]


def report_cmd(run_dir: Path, seed: int) -> List[str]:
    return h.repro("report", "--bench", *h.GALLERY_BENCHES,
                   "--store", f"sqlite:{run_dir / 'store'}",
                   "--out-dir", str(run_dir / "artifacts"),
                   "--gallery", str(run_dir / "EXPERIMENTS.md"),
                   "--workers", str(h.workers()), "--seed", str(seed))


def snapshot(art_dir: Path, corpus: Optional[Path] = None) -> Snapshot:
    """``(result, deviations)`` of every gallery artifact present.

    ``trace01`` names its trace files by absolute path; ``corpus`` is
    replaced by a placeholder so runs over different corpus copies compare.
    """
    out: Snapshot = {}
    for bench in h.GALLERY_BENCHES:
        path = art_dir / f"{bench}.json"
        if path.is_file():
            text = path.read_text()
            if corpus is not None:
                text = text.replace(json.dumps(str(corpus))[1:-1],
                                    "<corpus>")
            payload = json.loads(text)
            out[bench] = (payload.get("result"), payload.get("deviations"))
    return out


def check_report(done: h.Done, art_dir: Path, ops: h.Ops, what: str,
                 expect: Optional[Snapshot], cold: bool,
                 corpus: Optional[Path] = None) -> Snapshot:
    """Count one operation per bench: the run finished, the store was used
    as expected and the artifact equals the reference snapshot."""
    jobs = JOBS_LINE.search(done.stdout)
    if not done.ok or jobs is None:
        reason = "timed out" if done.returncode is None else \
            f"exit {done.returncode}: {done.stderr.strip()[-300:]}"
        ops.record(False, f"{what}: {reason}", count=len(h.GALLERY_BENCHES))
        return {}
    total, simulated, cached = map(int, jobs.groups())
    store_ok = (simulated + cached == total and simulated > 0) if cold \
        else (simulated == 0 and cached == total)
    if not store_ok:
        ops.record(False, f"{what}: unexpected store use {jobs.group(0)!r}",
                   count=len(h.GALLERY_BENCHES))
        return {}
    snap = snapshot(art_dir, corpus)
    for bench in h.GALLERY_BENCHES:
        ok = bench in snap and (expect is None or snap[bench] == expect.get(
            bench))
        ops.record(ok, f"{what}: artifact {bench} missing or differs")
    return snap


def check_seed1(snap: Snapshot, ops: h.Ops) -> None:
    """At seed 1 the artifacts equal the checked-in ``artifacts/*.json``."""
    reference = snapshot(h.CHECKED_IN_ARTIFACTS)
    for bench, value in reference.items():
        ops.record(snap.get(bench) == value,
                   f"{bench} differs from the checked-in artifact")


def setup_call(env: Dict[str, str], ops: h.Ops, setup: h.Setup) -> None:
    """A no-op ``report --list``: interpreter, import, registry load."""
    done = h.run(h.repro("report", "--list"), env, timeout=60)
    if ops.record(done.ok and "fig01" in done.stdout,
                  "report --list failed"):
        setup.add(done.wall_s)


def timed(seed: int) -> None:
    ops = h.Ops()
    probe = h.HostProbe()
    run_dir = h.fresh_run_dir("gallery", seed)
    walls: Dict[str, float] = {}
    env = h.pinned_env(run_dir, seed)
    setup = h.Setup(env)
    try:
        cmd = report_cmd(run_dir, seed)
        probe.take()
        reference: Optional[Snapshot] = None
        for kind in ("cold", "warm"):
            for _ in range(SETUP_CALLS):
                setup_call(env, ops, setup)
            done = h.run(cmd, env, REPORT_TIMEOUT_S)
            walls[f"{kind}_report_s"] = done.wall_s
            snap = check_report(done, run_dir / "artifacts", ops,
                                f"{kind} report", reference, kind == "cold")
            if not snap:
                break
            if reference is None:
                reference = snap
                if seed == h.FIXTURE_SEED:
                    check_seed1(reference, ops)
        for _ in range(SETUP_CALLS):
            setup_call(env, ops, setup)
        probe.take()
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    h.emit(ops, {
        "setup_s": h.metric(setup.value(), "s"),
        "peak_rss_mb": h.metric(h.peak_rss_mb(), "MB"),
    }, {"host.probe_ms": probe.value(), **setup.info(), **walls})


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------
def spans_child(run_dir: Path, seed: int, env: Dict[str, str], spans: int,
                tag: str) -> Tuple[Optional[dict], Path]:
    """Serial in-process cold+warm report in a child; returns its dump.

    The child gets its own corpus copy, so its trace loads start cold.
    """
    out_dir = run_dir / tag
    out_dir.mkdir()
    h.copy_corpus(out_dir / "corpus")
    env = dict(env, REPRO_TRACE_CORPUS=str(out_dir / "corpus"))
    out = out_dir / "spans.json"
    done = h.run([sys.executable, str(h.BENCH_DIR / "spans.py"), "gallery",
                  str(out), "--spans", str(spans), "--seed", str(seed),
                  "--store", f"sqlite:{out_dir / 'store'}",
                  "--out-dir", str(out_dir / "artifacts"),
                  "--gallery", str(out_dir / "EXPERIMENTS.md")],
                 env, timeout=170)
    if not done.ok or not out.is_file():
        print(done.stderr[-2000:], file=sys.stderr)
        return None, out_dir
    return json.loads(out.read_text()), out_dir


def layer_metrics(dump: dict) -> Dict[str, Dict[str, object]]:
    """Layer metrics of the cold pass; store metrics over both passes and
    report metrics of the warm pass, which simulates nothing."""
    out = h.span_metrics(dump, "cold")
    warm = h.span_metrics(dump, "warm")
    every = h.span_metrics(dump)
    for name in ("report.bench_s", "report.render_s", "report.gallery_s"):
        out[name] = warm[name]
    for name in ("store.probe_s", "store.hit_ratio", "store.put_calls",
                 "store.put_s"):
        out[name] = every[name]
    return out


def store_scan_ms(store: Path, repeats: int = 3) -> float:
    """Median time of one ``stats_dict()`` scan over ``store``."""
    h.import_repro()
    from repro.sim.store import ResultStore

    rs = ResultStore(f"sqlite:{store}", read_only=True)
    times = []
    try:
        for _ in range(repeats):
            start = time.perf_counter()
            rs.stats_dict()
            times.append((time.perf_counter() - start) * 1e3)
    finally:
        rs.backend.close()
    return h.median(times)


def traced(seed: int) -> None:
    ops = h.Ops()
    probe = h.HostProbe()
    run_dir = h.fresh_run_dir("gallery-trace", seed)
    try:
        env = h.pinned_env(run_dir, seed)
        probe.take()
        cold = h.run(report_cmd(run_dir, seed), env, REPORT_TIMEOUT_S)
        reference = check_report(cold, run_dir / "artifacts", ops,
                                 "parallel cold report", None, True,
                                 run_dir / "corpus")
        warm = []
        for i in range(WARM_REPORTS if reference else 0):
            done = h.run(report_cmd(run_dir, seed), env, REPORT_TIMEOUT_S)
            check_report(done, run_dir / "artifacts", ops,
                         f"warm report {i}", reference, False,
                         run_dir / "corpus")
            warm.append(done.wall_s)
        plain, _ = spans_child(run_dir, seed, env, 0, "serial")
        dump, traced_dir = spans_child(run_dir, seed, env, 1, "traced")
        for name, payload, tag in (("serial", plain, "serial"),
                                   ("traced", dump, "traced")):
            ok = payload is not None and all(
                not r["failed"] and not r["check_failures"]
                for r in payload["result"].values()) and (
                payload["result"]["cold"]["jobs"]["simulated"] > 0
                and payload["result"]["warm"]["jobs"]["simulated"] == 0)
            ops.record(ok, f"{name} in-process report failed")
            if ok:
                snap = snapshot(run_dir / tag / "artifacts",
                                run_dir / tag / "corpus")
                for bench in h.GALLERY_BENCHES:
                    ops.record(snap.get(bench) == reference.get(bench),
                               f"{name} artifact {bench} differs")
        metrics: Dict[str, Dict[str, object]] = {}
        if plain is not None and dump is not None:
            metrics.update(layer_metrics(dump))
            serial_s = plain["result"]["cold"]["wall_s"]
            plain_s = sum(r["wall_s"] for r in plain["result"].values())
            traced_s = sum(r["wall_s"] for r in dump["result"].values())
            metrics["sweep.parallel_efficiency"] = h.metric(
                serial_s / (h.workers() * cold.wall_s), "frac")
            metrics["bench.trace_overhead_frac"] = h.metric(
                traced_s / plain_s - 1.0, "frac")
            metrics["store.scan_ms"] = h.metric(
                store_scan_ms(traced_dir / "store"), "ms")
            metrics["cold_report_s"] = h.metric(cold.wall_s, "s")
            metrics["warm_report_s"] = h.metric(h.median(warm), "s")
            h.save_spans("gallery", seed, dump)
        probe.take()
        metrics["host.probe_ms"] = h.metric(probe.value(), "ms")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    h.emit(ops, metrics, traced=True)

