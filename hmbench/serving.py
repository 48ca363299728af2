"""The ``serve-read`` and ``serve-mixed`` workloads: ``repro serve`` over
the gallery's store and artifacts.

``serve-read`` drives a read-only server with two keep-alive closed-loop
connections from one process.  ``serve-mixed`` drives a writable server on a
fresh copy of the same fixture with one closed-loop reader plus one
open-loop submitter that POSTs uncached jobs at a fixed rate and long-polls
their events.  Requests go through plain ``http.client``, with no socket
options.

The request mix is seeded and skewed and covers every read family.  Cells
are picked by (design, workload, NM size) from each cell's job spec, never
by key: the store key folds in a fingerprint of the package source, so two
commits store the same cells under different keys.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import random
import select
import shutil
import signal
import subprocess
import sys
import threading
import time
import xml.etree.ElementTree as ElementTree
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import gallery
import harness as h

#: Reads per run, fixed so the tail percentile is fixed: 400 reads give
#: p97.5 (10 samples beyond), 200 give p95.
READS = {"serve-read": 400, "serve-mixed": 200}
CONNECTIONS = {"serve-read": 2, "serve-mixed": 1}
#: ``setup_s`` is the median of 10 launches: 4 before the load phase, the
#: loaded server's own and 5 after it, so the median spans the run.  The
#: extra launches serve a pristine copy of the fixture store, which the
#: jobs of serve-mixed never write to.
LAUNCHES_BEFORE = 4
LAUNCHES_AFTER = 5
REQUEST_TIMEOUT_S = 20.0
LONG_POLL_S = 10.0
JOB_DEADLINE_S = 60.0
#: Reads still unsent this long after the phase began count as failed.
READ_DEADLINE_S = 120.0
#: Submitted jobs: every design on two workloads per MPKI class, one every
#: JOB_PERIOD_S seconds, in the same order for every seed (the seed sets
#: their traces).  A job runs for under half a period on this code, so the
#: queue's thread is busy well under half the time and a slower host does
#: not tip it into a growing backlog.
JOB_WORKLOADS = ("cg.D", "sp.D", "mg.C", "omnetpp", "wrf", "xalanc")
JOB_REFS = 12_000
JOB_PERIOD_S = 0.3

#: Request-mix weights (per cent).  ``conditional`` re-requests a URL this
#: connection fetched before with its ETag (expects 304); ``stale`` sends a
#: wrong ETag (expects 200).  The 304 share sits below the median.  In
#: serve-read the O(cells) families (health, cells page) get 24 reads per
#: run, so the tail (the 11th slowest read) falls in the middle of their
#: mode.  In serve-mixed an O(cells) read that overlaps a job takes about
#: twice as long as one that does not, and how many overlap follows the
#: job's run time, so the tail would sit on the edge between those modes;
#: there they get 4 reads, and the tail falls among the ordinary reads
#: delayed by a running job (30-60 per run).
WEIGHTS = {"cell_chart": 15, "bench": 10, "bench_chart": 8, "registry": 10,
           "conditional": 20, "stale": 2}
OCELLS_WEIGHT = {"serve-read": 3, "serve-mixed": 1}
FAMILIES = ("health", "cells", "cell", "cell_chart", "bench", "bench_chart",
            "registry", "conditional")
CACHEABLE = ("cell", "cell_chart", "bench", "bench_chart", "registry")
REGISTRY_URLS = ("/v1/designs", "/v1/workloads", "/v1/workloads?class=high",
                 "/v1/workloads?class=medium", "/v1/workloads?class=low",
                 "/v1/benches")
HISTOGRAM_MS = (1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 5000)


# ---------------------------------------------------------------------------
# fixture: the gallery's store and artifacts, built once per commit
# ---------------------------------------------------------------------------
def fixture() -> Path:
    """The seed-1 gallery (store + artifacts) of the code under test.

    Built by this checkout's own ``repro report`` outside any timed run and
    kept under ``.bench_build/hmbench``, keyed by a digest of the package
    source, the corpus and the code that builds it, so every run of one
    commit serves the same cells.
    """
    digest = h.tree_digest(h.SRC / "repro", h.CORPUS,
                           h.BENCH_DIR / "harness.py",
                           h.BENCH_DIR / "gallery.py")[:16]
    target = h.WORK / f"fixture-{digest}"
    if (target / "ready").is_file():
        return target
    h.WORK.mkdir(parents=True, exist_ok=True)
    for old in h.WORK.glob("fixture-*"):
        shutil.rmtree(old, ignore_errors=True)
    build = h.fresh_run_dir("fixture-build", h.FIXTURE_SEED)
    done = h.run(gallery.report_cmd(build, h.FIXTURE_SEED),
                 h.pinned_env(build, h.FIXTURE_SEED), timeout=600)
    if not done.ok:
        shutil.rmtree(build, ignore_errors=True)
        print(f"hmbench: fixture report failed: {done.stderr[-2000:]}",
              file=sys.stderr)
        raise SystemExit(1)
    (build / "ready").write_text(done.stdout)
    os.replace(build, target)
    return target


@dataclass
class Cells:
    """The fixture's cells in a commit-independent order."""

    keys: List[str]                  # ordered by (design, workload, NM, spec)
    results: Dict[str, object]       # key -> result dict, as served


def load_cells(store: Path) -> Cells:
    h.import_repro()
    from repro.sim.store import ResultStore

    rs = ResultStore(f"sqlite:{store}", read_only=True)
    try:
        rows = []
        results = {}
        for key in rs.keys():
            spec = rs.job_spec(key)
            status, result = rs.probe(key)
            if spec is None or result is None:
                continue
            order = (spec["design"]["label"], spec["workload"]["name"],
                     spec["config"]["near"]["capacity_bytes"],
                     json.dumps(spec, sort_keys=True))
            rows.append((order, key))
            results[key] = json.loads(json.dumps(result.as_dict()))
    finally:
        rs.backend.close()
    rows.sort()
    return Cells([key for _, key in rows], results)


# ---------------------------------------------------------------------------
# request schedule
# ---------------------------------------------------------------------------
@dataclass
class Req:
    family: str
    url: str
    expect: int = 200
    #: index (in this connection's schedule) of the request whose ETag is
    #: sent as If-None-Match; ``stale`` sends a wrong one instead.
    cond_of: Optional[int] = None
    stale: bool = False
    check: Tuple[str, str] = ("", "")     # (kind, argument) for the check


def schedule(rng: random.Random, cells: Cells, benches: Sequence[str],
             charted: Sequence[str], count: int,
             ocells: int) -> List[Req]:
    """One connection's seeded request sequence.

    The family counts are fixed by the weights (only their order and the
    URLs vary with the seed), so every seed offers the same mix; single
    cells take the share left over.
    """
    weights = dict(WEIGHTS, health=ocells, cells=ocells)
    families = [f for f, w in weights.items()
                for _ in range(count * w // 100)]
    families += ["cell"] * (count - len(families))
    rng.shuffle(families)
    hot = list(range(len(cells.keys)))
    rng.shuffle(hot)
    # Zipf-like skew over a seeded ranking of the cells.
    cell_weights = [1.0 / (rank + 1) ** 0.9 for rank in range(len(hot))]
    reqs: List[Req] = []
    earlier: List[int] = []          # cacheable, unconditional requests
    deferred = 0
    for family in families:
        if family in ("conditional", "stale") and not earlier:
            deferred += 1            # nothing to revalidate yet
            family = "cell"
        elif family == "cell" and deferred and earlier:
            deferred -= 1
            family = "conditional"
        if family in ("conditional", "stale"):
            ref = rng.choice(earlier)
            base = reqs[ref]
            if family == "conditional":
                reqs.append(Req("conditional", base.url, 304, ref,
                                check=base.check))
            else:
                reqs.append(Req(base.family, base.url, 200, ref, True,
                                check=base.check))
            continue
        if family in CACHEABLE:
            earlier.append(len(reqs))
        if family == "health":
            reqs.append(Req(family, "/v1/health", check=("health", "")))
        elif family == "cells":
            offset = rng.randrange(0, len(cells.keys), 10)
            reqs.append(Req(family, f"/v1/cells?offset={offset}&limit=50",
                            check=("cells", "")))
        elif family in ("cell", "cell_chart"):
            key = cells.keys[hot[rng.choices(range(len(hot)),
                                             cell_weights)[0]]]
            if family == "cell":
                reqs.append(Req(family, f"/v1/cells/{key}",
                                check=("cell", key)))
            else:
                reqs.append(Req(family, f"/v1/charts/{key}.svg",
                                check=("svg", "")))
        elif family == "bench":
            name = rng.choice(benches)
            reqs.append(Req(family, f"/v1/benches/{name}",
                            check=("bench", name)))
        elif family == "bench_chart":
            reqs.append(Req(family, f"/v1/charts/{rng.choice(charted)}.svg",
                            check=("svg", "")))
        else:
            reqs.append(Req(family, rng.choice(REGISTRY_URLS),
                            check=("registry", "")))
    return reqs


# ---------------------------------------------------------------------------
# client side
# ---------------------------------------------------------------------------
@dataclass
class Sample:
    req: Req
    status: Optional[int]
    latency_ms: float
    body: bytes = b""
    sent_etag: Optional[str] = None
    error: str = ""


def _connect(port: int) -> http.client.HTTPConnection:
    return http.client.HTTPConnection("127.0.0.1", port,
                                      timeout=REQUEST_TIMEOUT_S)


def closed_loop(port: int, reqs: List[Req], out: List[Sample],
                deadline: float) -> None:
    """Send ``reqs`` one after another on one keep-alive connection,
    until all are answered or ``deadline`` passes."""
    conn = _connect(port)
    etags: Dict[int, Optional[str]] = {}
    try:
        for i, req in enumerate(reqs):
            if time.perf_counter() > deadline:
                return
            headers = {}
            sent = None
            if req.cond_of is not None:
                sent = '"0000stale"' if req.stale else etags.get(req.cond_of)
                if sent:
                    headers["If-None-Match"] = sent
            start = time.perf_counter()
            try:
                conn.request("GET", req.url, headers=headers)
                resp = conn.getresponse()
                body = resp.read()
                elapsed = (time.perf_counter() - start) * 1e3
                etags[i] = resp.getheader("ETag")
                out.append(Sample(req, resp.status, elapsed, body, sent))
            except (OSError, http.client.HTTPException) as exc:
                elapsed = (time.perf_counter() - start) * 1e3
                out.append(Sample(req, None, elapsed, sent_etag=sent,
                                  error=f"{type(exc).__name__}: {exc}"))
                conn.close()
                conn = _connect(port)
    finally:
        conn.close()


def check_sample(sample: Sample, cells: Cells, seen: Dict[str, str],
                 writable: bool) -> str:
    """Empty string when the response is right, else the reason."""
    req = sample.req
    if sample.status is None:
        return f"{req.url}: {sample.error}"
    if req.cond_of is not None and not req.stale and not sample.sent_etag:
        return f"{req.url}: no ETag to revalidate with"
    if sample.status != req.expect:
        return f"{req.url}: status {sample.status}, expected {req.expect}"
    if sample.status == 304:
        return ""
    body = sample.body
    digest = hashlib.sha256(body).hexdigest()
    if req.family in CACHEABLE and seen.setdefault(req.url, digest) != digest:
        return f"{req.url}: body changed between requests"
    kind, arg = req.check
    try:
        if kind == "svg":
            root = ElementTree.fromstring(body)
            return "" if root.tag.endswith("svg") else f"{req.url}: not SVG"
        payload = json.loads(body)
    except (ValueError, ElementTree.ParseError) as exc:
        return f"{req.url}: unparsable body ({exc})"
    if kind == "cell":
        ok = payload.get("key") == arg and \
            payload.get("result") == cells.results[arg]
        return "" if ok else f"{req.url}: cell differs from the store"
    if kind == "health":
        store = payload.get("store") or {}
        n = len(cells.keys)
        ok = payload.get("status") == "ok" and (
            store.get("ok", 0) >= n if writable else store.get("ok") == n)
        return "" if ok else f"{req.url}: unhealthy {store}"
    if kind == "cells":
        keys = payload.get("keys") or []
        ok = keys == sorted(keys) and 0 < len(keys) <= 50 and (
            writable or set(keys) <= set(cells.results))
        return "" if ok else f"{req.url}: bad cell listing"
    if kind == "bench":
        ok = payload.get("name") == arg and payload.get("artifact")
        return "" if ok else f"{req.url}: bench without artifact"
    return "" if isinstance(payload, dict) and payload else \
        f"{req.url}: empty registry payload"


# ---------------------------------------------------------------------------
# the server process
# ---------------------------------------------------------------------------
class Server:
    """One ``repro serve`` process on an ephemeral port."""

    def __init__(self, argv: List[str], env: Dict[str, str],
                 log: Path) -> None:
        self.argv, self.env, self.log = argv, env, log
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0

    def start(self, timeout: float = 60.0) -> float:
        """Launch; returns seconds until the first 200 from /v1/health."""
        start = time.perf_counter()
        deadline = start + timeout
        with open(self.log, "ab") as log:
            self.proc = subprocess.Popen(
                self.argv, env=self.env, cwd=str(h.ROOT),
                stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                stderr=log, start_new_session=True)
        line = b""
        while not line.endswith(b"\n"):
            left = deadline - time.perf_counter()
            ready, _, _ = select.select([self.proc.stdout], [], [],
                                        max(0.0, left))
            if not ready:
                raise TimeoutError("server printed no address")
            chunk = os.read(self.proc.stdout.fileno(), 4096)
            if not chunk:
                raise RuntimeError("server exited before listening")
            line += chunk
        self.port = int(line.split(b"http://", 1)[1].split(b" ", 1)[0]
                        .rsplit(b":", 1)[1])
        while time.perf_counter() < deadline:
            conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                              timeout=5)
            try:
                conn.request("GET", "/v1/health")
                if conn.getresponse().status == 200:
                    return time.perf_counter() - start
            except (OSError, http.client.HTTPException):
                time.sleep(0.001)
            finally:
                conn.close()
        raise TimeoutError("server never answered /v1/health")

    def peak_rss_mb(self) -> float:
        """``VmHWM`` of the server: its largest resident set so far."""
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        for row in status.splitlines():
            if row.startswith("VmHWM:"):
                return int(row.split()[1]) / 1024.0
        return float("nan")

    def stop(self) -> None:
        """SIGINT (clean shutdown), then SIGKILL the group after 15 s."""
        if self.proc is None:
            return
        try:
            os.killpg(self.proc.pid, signal.SIGINT)
            self.proc.wait(timeout=15)
        except ProcessLookupError:
            self.proc.wait(timeout=15)
        except subprocess.TimeoutExpired:
            h.kill_group(self.proc)
            self.proc.wait(timeout=15)
        self.proc.stdout.close()
        self.proc = None


def serve_argv(store: Path, art: Path, read_only: bool,
               spans_out: Optional[Path] = None) -> List[str]:
    args = ["--port", "0", "--store", f"sqlite:{store}",
            "--artifacts", str(art)]
    if read_only:
        args.append("--read-only")
    if spans_out is None:
        return h.repro("serve", *args)
    return [sys.executable, str(h.BENCH_DIR / "spans.py"), "serve",
            str(spans_out), "--spans", "1", "--", *args]


# ---------------------------------------------------------------------------
# the open-loop job submitter
# ---------------------------------------------------------------------------
@dataclass
class Job:
    payload: Dict[str, object]
    due: float = 0.0
    lag_s: float = 0.0
    posted: float = 0.0
    job_id: str = ""
    events: Dict[str, float] = field(default_factory=dict)
    status: str = ""
    error: str = ""


def job_plan(seed: int) -> List[Job]:
    return [Job({"design": d, "workload": w, "refs": JOB_REFS,
                 "seed": seed, "nm_gb": 1, "scale": 256})
            for w in JOB_WORKLOADS for d in h.DESIGNS]


def _get_json(conn: http.client.HTTPConnection, url: str) -> dict:
    conn.request("GET", url)
    resp = conn.getresponse()
    body = resp.read()
    if resp.status != 200:
        raise RuntimeError(f"GET {url}: status {resp.status}")
    return json.loads(body)


def follow(port: int, job: Job) -> None:
    """Long-poll a job's events until it is terminal or overdue."""
    conn = _connect(port)
    after = 0
    try:
        while time.perf_counter() < job.due + JOB_DEADLINE_S:
            data = _get_json(conn, f"/v1/jobs/{job.job_id}/events?"
                                   f"after={after}&wait={LONG_POLL_S}")
            now = time.perf_counter()
            for event in data["events"]:
                job.events.setdefault(event["event"], now)
            after = data["next"]
            job.status = data["status"]
            if job.status in ("done", "failed", "cached"):
                return
        job.error = "job did not finish in time"
    except (OSError, http.client.HTTPException, RuntimeError,
            ValueError) as exc:
        job.error = f"{type(exc).__name__}: {exc}"
    finally:
        conn.close()


def submit_all(port: int, jobs: List[Job], start: float) -> None:
    """POST each job at its scheduled time; a thread follows each one."""
    conn = _connect(port)
    followers = []
    try:
        for i, job in enumerate(jobs):
            job.due = start + i * JOB_PERIOD_S
            pause = job.due - time.perf_counter()
            if pause > 0:
                time.sleep(pause)
            job.lag_s = time.perf_counter() - job.due
            try:
                conn.request("POST", "/v1/jobs",
                             body=json.dumps(job.payload),
                             headers={"Content-Type": "application/json"})
                resp = conn.getresponse()
                data = json.loads(resp.read())
                job.posted = time.perf_counter()
                if resp.status != 202 or data.get("deduped"):
                    job.error = f"POST answered {resp.status} {data}"
                    continue
                job.job_id = data["job"]["id"]
            except (OSError, http.client.HTTPException, ValueError) as exc:
                job.error = f"POST failed: {type(exc).__name__}: {exc}"
                conn.close()
                conn = _connect(port)
                continue
            thread = threading.Thread(target=follow, args=(port, job),
                                      daemon=True)
            thread.start()
            followers.append(thread)
    finally:
        conn.close()
    for thread in followers:
        thread.join(timeout=JOB_DEADLINE_S + REQUEST_TIMEOUT_S)


def check_jobs(port: int, jobs: List[Job], ops: h.Ops) -> None:
    """Every job ended ``finished`` and its result is the cell it wrote."""
    conn = _connect(port)
    try:
        for job in jobs:
            what = f"job {job.payload['design']}/{job.payload['workload']}"
            if job.error or "finished" not in job.events:
                ops.record(False, f"{what}: {job.error or job.status}")
                continue
            try:
                record = _get_json(conn, f"/v1/jobs/{job.job_id}")["job"]
                cell = _get_json(conn, f"/v1/cells/{record['key']}")
                ok = record["status"] == "done" and record["simulated"] == 1 \
                    and cell["result"] == record["result"]
                ops.record(ok, f"{what}: result differs from its cell")
            except (OSError, http.client.HTTPException, RuntimeError,
                    ValueError, KeyError) as exc:
                ops.record(False, f"{what}: {type(exc).__name__}: {exc}")
                conn.close()
                conn = _connect(port)
    finally:
        conn.close()


# ---------------------------------------------------------------------------
# one loaded phase
# ---------------------------------------------------------------------------
@dataclass
class Phase:
    samples: List[Sample]
    read_s: float
    jobs: List[Job]


def load_phase(workload: str, seed: int, port: int, cells: Cells,
               art: Path) -> Phase:
    benches = sorted(p.stem for p in art.glob("*.json"))
    charted = sorted({p.name.split(".", 1)[0] for p in art.glob("*.svg")})
    rng = random.Random(seed)
    per_conn = READS[workload] // CONNECTIONS[workload]
    plans = [schedule(rng, cells, benches, charted, per_conn,
                      OCELLS_WEIGHT[workload])
             for _ in range(CONNECTIONS[workload])]
    outs: List[List[Sample]] = [[] for _ in plans]
    jobs = job_plan(seed) if workload == "serve-mixed" else []
    start = time.perf_counter()
    deadline = start + READ_DEADLINE_S
    threads = [threading.Thread(target=closed_loop,
                                args=(port, p, o, deadline), daemon=True)
               for p, o in zip(plans, outs)]
    submitter = threading.Thread(target=submit_all,
                                 args=(port, jobs, start), daemon=True)
    for thread in threads:
        thread.start()
    if jobs:
        submitter.start()
    for thread in threads:
        thread.join(timeout=READ_DEADLINE_S + REQUEST_TIMEOUT_S)
    read_s = time.perf_counter() - start
    if jobs:
        submitter.join(timeout=len(jobs) * JOB_PERIOD_S + JOB_DEADLINE_S
                       + 2 * REQUEST_TIMEOUT_S)
    return Phase([s for out in outs for s in out], read_s, jobs)


def check_phase(phase: Phase, workload: str, cells: Cells, port: int,
                ops: h.Ops) -> None:
    writable = workload == "serve-mixed"
    seen: Dict[str, str] = {}
    missing = READS[workload] - len(phase.samples)
    if missing:
        ops.record(False, f"{missing} reads never completed", count=missing)
    for sample in phase.samples:
        reason = check_sample(sample, cells, seen, writable)
        ops.record(not reason, reason)
    if phase.jobs:
        check_jobs(port, phase.jobs, ops)


def read_metrics(phase: Phase) -> Dict[str, Dict[str, object]]:
    lat = [s.latency_ms for s in phase.samples if s.status is not None]
    return {
        "read_rps": h.metric(len(phase.samples) / phase.read_s, "1/s"),
        "read_p50_ms": h.metric(h.median(lat), "ms"),
        "read_tail_ms": h.metric(h.tail(lat), "ms"),
    }


def job_latencies(jobs: List[Job]) -> List[float]:
    return [job.events["finished"] - job.due for job in jobs
            if "finished" in job.events]


def prepare(workload: str, seed: int, tag: str) -> Tuple[Path, Path, Path,
                                                        Cells]:
    """A fresh run directory with a private copy of the fixture."""
    source = fixture()
    run_dir = h.fresh_run_dir(tag, seed)
    shutil.copytree(source / "store", run_dir / "store")
    shutil.copytree(source / "artifacts", run_dir / "artifacts")
    cells = load_cells(run_dir / "store")
    return run_dir, run_dir / "store", run_dir / "artifacts", cells


def launch_times(count: int, argv: List[str], env: Dict[str, str],
                 log: Path, ops: h.Ops, setup: h.Setup) -> None:
    """Launch and stop a server ``count`` times, adding its start-up times
    to ``setup``."""
    for _ in range(count):
        server = Server(argv, env, log)
        try:
            wall = server.start()
            ops.record(True)
        except (TimeoutError, RuntimeError, OSError) as exc:
            ops.record(False, f"server start: {exc}")
            continue
        finally:
            server.stop()
        setup.add(wall)


def timed(workload: str, seed: int) -> None:
    ops = h.Ops()
    probe = h.HostProbe()
    run_dir, store, art, cells = prepare(workload, seed, workload)
    read_only = workload == "serve-read"
    env = h.pinned_env(run_dir, seed)
    setup = h.Setup(env)
    log = run_dir / "server.log"
    spare = run_dir / "setup-store"
    spare_argv = serve_argv(spare, art, read_only)
    server = Server(serve_argv(store, art, read_only), env, log)
    metrics: Dict[str, Dict[str, object]] = {}
    info: Dict[str, object] = {}
    try:
        shutil.copytree(store, spare)
        probe.take()
        launch_times(LAUNCHES_BEFORE, spare_argv, env, log, ops, setup)
        try:
            setup.add(server.start())
            ops.record(True)
        except (TimeoutError, RuntimeError, OSError) as exc:
            ops.record(False, f"server start: {exc}")
        else:
            phase = load_phase(workload, seed, server.port, cells, art)
            check_phase(phase, workload, cells, server.port, ops)
            metrics["peak_rss_mb"] = h.metric(server.peak_rss_mb(), "MB")
            info.update({name: entry["value"] for name, entry
                         in read_metrics(phase).items()})
            if phase.jobs:
                info["job_p50_s"] = h.median(job_latencies(phase.jobs))
            info["histograms_ms"] = histograms(phase.samples)
        finally:
            server.stop()
        launch_times(LAUNCHES_AFTER, spare_argv, env, log, ops, setup)
        metrics["setup_s"] = h.metric(setup.value(), "s")
        info.update(setup.info())
        probe.take()
        info["host.probe_ms"] = probe.value()
    finally:
        server.stop()
        shutil.rmtree(run_dir, ignore_errors=True)
    h.emit(ops, metrics, info)


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------
def family_of(target: str, conditional: bool) -> str:
    path = target.split("?", 1)[0]
    if conditional:
        return "conditional"
    if path == "/v1/health":
        return "health"
    if path == "/v1/cells":
        return "cells"
    if path.startswith("/v1/cells/"):
        return "cell"
    if path.startswith("/v1/charts/"):
        stem = path[len("/v1/charts/"):-len(".svg")]
        return "cell_chart" if len(stem) == 64 else "bench_chart"
    if path.startswith("/v1/benches/"):
        return "bench"
    if path.startswith("/v1/jobs"):
        return "jobs"
    return "registry"


def histograms(samples: List[Sample]) -> Dict[str, Dict[str, int]]:
    """Per-family latency histograms: upper bucket edge (ms) -> count."""
    out: Dict[str, Dict[str, int]] = {}
    for s in samples:
        edge = next((e for e in HISTOGRAM_MS if s.latency_ms <= e), "inf")
        bucket = out.setdefault(s.req.family, {})
        bucket[str(edge)] = bucket.get(str(edge), 0) + 1
    return out


def traced(workload: str, seed: int) -> None:
    ops = h.Ops()
    probe = h.HostProbe()
    read_only = workload == "serve-read"
    metrics: Dict[str, Dict[str, object]] = {}
    phases: Dict[str, Phase] = {}
    dump: Optional[dict] = None
    hit_ratio = float("nan")
    probe.take()
    for mode in ("plain", "traced"):
        run_dir, store, art, cells = prepare(workload, seed,
                                             f"{workload}-{mode}")
        if mode == "plain":
            metrics["store.scan_ms"] = h.metric(
                gallery.store_scan_ms(store), "ms")
        spans_out = run_dir / "spans.json" if mode == "traced" else None
        server = Server(serve_argv(store, art, read_only, spans_out),
                        h.pinned_env(run_dir, seed), run_dir / "server.log")
        try:
            server.start()
            phase = load_phase(workload, seed, server.port, cells, art)
            check_phase(phase, workload, cells, server.port, ops)
            phases[mode] = phase
            if mode == "traced":
                conn = _connect(server.port)
                try:
                    cache = _get_json(conn, "/v1/health")["cache"]
                finally:
                    conn.close()
                hit_ratio = cache["hits"] / max(1, cache["hits"]
                                                + cache["misses"])
        except (TimeoutError, RuntimeError, OSError, ValueError) as exc:
            ops.record(False, f"{mode} server: {exc}")
        finally:
            server.stop()
            if spans_out is not None and spans_out.is_file():
                dump = json.loads(spans_out.read_text())
            shutil.rmtree(run_dir, ignore_errors=True)
    probe.take()
    metrics["host.probe_ms"] = h.metric(probe.value(), "ms")
    if dump is None or len(phases) < 2:
        ops.record(False, "traced server left no spans")
        h.emit(ops, metrics, traced=True)
        return
    h.save_spans(workload, seed, dump)
    metrics.update(h.span_metrics(dump))
    metrics.update(serve_layers(phases, dump, hit_ratio))
    metrics.update(read_metrics(phases["plain"]))
    if workload == "serve-mixed":
        metrics.update(job_layers(phases["traced"], dump))
        metrics["job_p50_s"] = h.metric(
            h.median(job_latencies(phases["plain"].jobs)), "s")
    h.emit(ops, metrics,
           {"histograms_ms": histograms(phases["traced"].samples)},
           traced=True)


def serve_layers(phases: Dict[str, Phase], dump: dict,
                 hit_ratio: float) -> Dict[str, Dict[str, object]]:
    m = h.metric
    handles: Dict[str, List[float]] = {}
    for span in dump["spans"]:
        if span["name"] == "serve.handle":
            family = family_of(span["attrs"]["target"],
                               span["attrs"]["conditional"])
            handles.setdefault(family, []).append(
                (span["end"] - span["start"]) * 1e3)
    samples = phases["traced"].samples
    out: Dict[str, Dict[str, object]] = {}
    for family in FAMILIES:
        lat = [s.latency_ms for s in samples if s.status is not None
               and family_of(s.req.url, s.req.family == "conditional")
               == family]
        out[f"serve.handle_ms.{family}"] = m(
            h.median(handles.get(family, [])), "ms")
        out[f"serve.http_ms.{family}"] = m(h.median(lat), "ms")
    reads = [v for f, vals in handles.items() if f != "jobs" for v in vals]
    http_lat = [s.latency_ms for s in samples if s.status is not None]
    out["serve.transport_ms"] = m(h.median(http_lat) - h.median(reads), "ms")
    out["serve.cache_hit_ratio"] = m(hit_ratio, "frac")
    out["serve.not_modified_frac"] = m(
        sum(1 for s in samples if s.status == 304) / max(1, len(samples)),
        "frac")
    out["bench.trace_overhead_frac"] = m(
        phases["traced"].read_s / phases["plain"].read_s - 1.0, "frac")
    return out


def job_layers(phase: Phase, dump: dict) -> Dict[str, Dict[str, object]]:
    m = h.metric
    spans = dump["spans"]
    runs = [s for s in spans if s["name"] == "sweep.run_jobs"]
    waits = [job.events["started"] - job.posted for job in phase.jobs
             if "started" in job.events and job.posted]
    return {
        "serve.job_wait_s": m(h.median(waits), "s"),
        "serve.job_run_s": m(h.median([s["end"] - s["start"]
                                       for s in runs]), "s"),
        "serve.jobs_simulated": m(h.span_attr(spans, "sweep.run_jobs", None,
                                              "simulated"), "count"),
        "loadgen.lag_ms": m(max((j.lag_s for j in phase.jobs),
                                default=0.0) * 1e3, "ms"),
    }
