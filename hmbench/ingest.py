"""The ``trace-ingest`` workload: ``repro trace convert`` of a large TSV.

Before timing starts the benchmark writes a seeded multi-million-record TSV
trace.  A timed run converts it with the cache dropped (``--force``), so
the conversion parses the text, builds the columns, hashes the content and
writes the mmap cache, and checks the result; no-op calls of the same
subcommand come before and after it.  The conversion's records per second
is a per-layer metric of the traced run only: it is CPU-bound, and on a
shared 2-vCPU VM the host's speed drifts by 20-35% over minutes, so runs
minutes apart differ by more than any bound the benchmark may set.  The
traced run times one CLI conversion, then converts the file in-process,
once without and once with spans.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path
from typing import Dict, Optional

import numpy as np

import harness as h

RECORDS = 2_000_000
#: No-op calls before the conversion and after it.
SETUP_CALLS = 6
CONVERT_TIMEOUT_S = 120.0
#: A small corpus file whose cache is built once per run: converting it
#: again finds the cache valid, which makes the subcommand's no-op call.
NOOP_SOURCE = "stream8.tsv"
NOOP_RECORDS = 2000


def make_trace(path: Path, seed: int) -> Dict[str, object]:
    """Write the seeded TSV; return the ``trace inspect`` fields it must give.

    Half the references walk sequential streams, half hit random lines of a
    1 GiB footprint; about one in four is a write.
    """
    rng = np.random.default_rng(seed)
    gaps = rng.geometric(1 / 40, RECORDS) - 1
    seq = np.cumsum(gaps + 1) - 1
    streams = rng.integers(0, 1 << 24, 64) + np.arange(RECORDS // 64 + 1)[
        :, None]
    lines = np.where(rng.random(RECORDS) < 0.5,
                     streams.ravel()[:RECORDS] % (1 << 24),
                     rng.integers(0, 1 << 24, RECORDS))
    addresses = lines * 64 + rng.integers(0, 8, RECORDS) * 8
    writes = (rng.random(RECORDS) < 0.25).astype(np.int64)
    with open(path, "w") as out:
        out.write("\n".join(f"{s}\t{a:x}\t{w}" for s, a, w in zip(
            seq.tolist(), addresses.tolist(), writes.tolist())))
        out.write("\n")
    return {
        "records": RECORDS,
        "instructions": int(seq[-1]) + 1,
        "demand_references": RECORDS,
        "write_fraction": round(int(writes.sum()) / RECORDS, 6),
        "footprint_bytes": int(np.unique(lines).size) * 64,
        "cores": {"0": RECORDS},
    }


def convert(source: Path, env: Dict[str, str], force: bool) -> h.Done:
    args = ["trace", "convert", str(source), "--json"]
    return h.run(h.repro(*args, *(["--force"] if force else [])), env,
                 CONVERT_TIMEOUT_S)


def converted(done: h.Done, records: int, from_cache: bool) -> bool:
    """The call succeeded and reported the expected load."""
    if not done.ok:
        return False
    try:
        payload = json.loads(done.stdout)
    except ValueError:
        return False
    return (payload.get("records") == records
            and payload.get("from_cache") is from_cache)


def check_inspect(source: Path, env: Dict[str, str],
                  expect: Dict[str, object], ops: h.Ops) -> None:
    """``trace inspect`` (from the cache) matches the generated file."""
    done = h.run(h.repro("trace", "inspect", str(source), "--json"), env,
                 CONVERT_TIMEOUT_S)
    try:
        payload = json.loads(done.stdout) if done.ok else {}
    except ValueError:
        payload = {}
    ops.record(payload.get("from_cache") is True and all(
        payload.get(key) == value for key, value in expect.items()),
        f"trace inspect differs from the generated file: {payload}")


def check_columns(source: Path, ops: h.Ops) -> None:
    """The cached columns equal a fresh parse of the text."""
    h.import_repro()
    from repro.trace import load_cached, parse_trace

    cached = load_cached(source)
    parsed = parse_trace(source)
    ok = cached is not None and all(
        np.array_equal(getattr(cached, name), getattr(parsed, name))
        for name in ("gaps", "addresses", "is_write", "is_writeback",
                     "core_ids"))
    ops.record(ok, "cached columns differ from the parsed ones")


def timed(seed: int) -> None:
    ops = h.Ops()
    probe = h.HostProbe()
    run_dir = h.fresh_run_dir("trace-ingest", seed)
    wall = float("nan")
    env = h.pinned_env(run_dir, seed)
    setup = h.Setup(env)
    try:
        source = run_dir / "trace.tsv"
        expect = make_trace(source, seed)
        noop = run_dir / "corpus" / NOOP_SOURCE
        ops.record(converted(convert(noop, env, False), NOOP_RECORDS, False),
                   f"convert of {NOOP_SOURCE} failed")

        def setup_calls() -> None:
            for _ in range(SETUP_CALLS):
                done = convert(noop, env, False)
                if ops.record(converted(done, NOOP_RECORDS, True),
                              "no-op convert did not find its cache"):
                    setup.add(done.wall_s)

        probe.take()
        setup_calls()
        done = convert(source, env, True)
        if ops.record(converted(done, RECORDS, False),
                      f"convert failed: {done.stderr[-300:]}"):
            wall = done.wall_s
        setup_calls()
        probe.take()
        check_inspect(source, env, expect, ops)
        check_columns(source, ops)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    h.emit(ops, {
        "setup_s": h.metric(setup.value(), "s"),
        "peak_rss_mb": h.metric(h.peak_rss_mb(), "MB"),
    }, {"host.probe_ms": probe.value(), **setup.info(), "convert_s": wall})


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------
def spans_child(source: Path, env: Dict[str, str], spans: int,
                out: Path) -> Optional[dict]:
    """In-process convert + cached inspect in a child; returns its dump."""
    done = h.run([sys.executable, str(h.BENCH_DIR / "spans.py"), "ingest",
                  str(out), "--spans", str(spans), "--", str(source)],
                 env, timeout=2 * CONVERT_TIMEOUT_S)
    if not done.ok or not out.is_file():
        print(done.stderr[-2000:], file=sys.stderr)
        return None
    return json.loads(out.read_text())


def traced(seed: int) -> None:
    ops = h.Ops()
    probe = h.HostProbe()
    run_dir = h.fresh_run_dir("trace-ingest-trace", seed)
    metrics: Dict[str, Dict[str, object]] = {}
    try:
        env = h.pinned_env(run_dir, seed)
        source = run_dir / "trace.tsv"
        make_trace(source, seed)
        probe.take()
        done = convert(source, env, True)
        ops.record(converted(done, RECORDS, False), "CLI convert failed")
        plain = spans_child(source, env, 0, run_dir / "plain.json")
        dump = spans_child(source, env, 1, run_dir / "traced.json")
        probe.take()
        ops.record(plain is not None and dump is not None,
                   "in-process convert failed")
        if plain is not None and dump is not None:
            metrics.update(h.span_metrics(dump, "convert"))
            metrics["trace.cache_load_s"] = h.span_metrics(
                dump, "load")["trace.cache_load_s"]
            records = metrics["trace.records"]["value"]
            ops.record(records == RECORDS,
                       f"traced convert parsed {records} records")
            m = h.metric
            metrics.update({
                "ingest_records_per_s": m(RECORDS / done.wall_s, "1/s"),
                "bench.trace_overhead_frac": m(
                    sum(dump["result"].values())
                    / sum(plain["result"].values()) - 1.0, "frac"),
            })
            h.save_spans("trace-ingest", seed, dump)
        metrics["host.probe_ms"] = h.metric(probe.value(), "ms")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    h.emit(ops, metrics, traced=True)
