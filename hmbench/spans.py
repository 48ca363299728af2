"""Span recording around the public functions of each repro layer.

The spans are recorded from the benchmark's files: :func:`install` replaces
the public functions the layers call each other through (``simulate``,
``run_jobs``, ``ResultStore.put``, ``ServeApp.handle``, ...) with wrappers
that time each call.  Each span holds a name, start, end, parent span and
run id; spans stay in memory and are written out when the process ends.
The two hot leaves of the memory fallback (``MemoryController.
transfer_block`` and ``DramDevice.access``, tens of thousands of calls per
simulation) are folded into per-name counters instead of one span per call;
their time still counts as child time of the enclosing span, so self times
stay exact.

Run as a script, this file is the in-process side of the traced runs::

    python hmbench/spans.py gallery OUT.json --spans 1 --seed 1 --store S \
        --out-dir A --gallery G
    python hmbench/spans.py serve OUT.json --spans 1 -- <repro serve args>
    python hmbench/spans.py ingest OUT.json --spans 1 -- TRACE.tsv
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

Attrs = Optional[Callable[[tuple, dict, Any], Dict[str, Any]]]


class Tracer:
    """In-memory span recorder; one span stack (and leaf tally) per thread."""

    def __init__(self) -> None:
        self.run_id = "run"
        #: (id, name, start, end, parent id, run id, child seconds, attrs)
        self.spans: List[tuple] = []
        #: per-thread leaf tallies: name -> [calls, inclusive seconds]
        self._tallies: List[Dict[str, List[float]]] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = 0

    def _state(self) -> tuple:
        """This thread's (span stack, leaf tally)."""
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = ([], {})
            with self._lock:
                self._tallies.append(state[1])
        return state

    def wrap(self, fn: Callable, name: str, leaf: bool = False,
             attrs: Attrs = None) -> Callable:
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            stack, tally = tracer._state()
            # A leaf records no span; spans under it attach to its parent.
            frame = [0.0, stack[-1][1] if stack else 0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                slot = tally.get(name)
                if slot is None:
                    slot = tally[name] = [0, 0.0]
                slot[0] += 1
                slot[1] += duration

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, _ = tracer._state()
            with tracer._lock:
                tracer._ids += 1
                span_id = tracer._ids
            frame = [0.0, span_id]          # [child seconds, id]
            parent = stack[-1][1] if stack else 0
            stack.append(frame)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                if stack:
                    stack[-1][0] += end - start
                extra = attrs(args, kwargs, result) if attrs else None
                with tracer._lock:
                    tracer.spans.append((span_id, name, start, end, parent,
                                         tracer.run_id, frame[0], extra))
        return counted if leaf else traced

    def dump(self) -> Dict[str, Any]:
        with self._lock:
            leaves: Dict[str, Dict[str, float]] = {}
            for tally in self._tallies:
                for name, (calls, seconds) in tally.items():
                    slot = leaves.setdefault(name, {"calls": 0, "s": 0.0})
                    slot["calls"] += calls
                    slot["s"] += seconds
            return {
                "spans": [{"id": s[0], "name": s[1], "start": s[2],
                           "end": s[3], "parent": s[4], "run": s[5],
                           "self_s": s[3] - s[2] - s[6], "attrs": s[7]}
                          for s in self.spans],
                "leaves": leaves,
            }


def _refs(args: tuple, kwargs: dict, result: Any) -> Dict[str, Any]:
    refs = args[2] if len(args) > 2 else kwargs.get("num_references", 50_000)
    return {"design": getattr(args[0], "name", "?"), "refs": int(refs)}


def _sweep(args: tuple, kwargs: dict, result: Any) -> Dict[str, Any]:
    if result is None:
        return {"jobs": len(args[0]), "error": True}
    return {"jobs": len(args[0]), "simulated": result.simulated,
            "cached": result.cached, "attempts": result.attempts,
            "failed": len(result.failures),
            "workers": kwargs.get("workers", 1)}


def _records(args: tuple, kwargs: dict, result: Any) -> Dict[str, Any]:
    return {"records": len(result) if result is not None else 0}


def _probe(args: tuple, kwargs: dict, result: Any) -> Dict[str, Any]:
    hits = (sum(1 for status, _ in result.values() if status == "ok")
            if result else 0)
    return {"keys": len(args[1]), "hits": hits}


def _handle(args: tuple, kwargs: dict, result: Any) -> Dict[str, Any]:
    headers = args[3] if len(args) > 3 else kwargs.get("headers") or {}
    conditional = any(k.lower() == "if-none-match" for k in headers)
    return {"method": args[1], "target": args[2],
            "conditional": conditional,
            "status": getattr(result, "status", None)}


def install(tracer: Tracer) -> None:
    """Wrap the public functions each layer is entered through."""
    from repro.baselines.base import MemorySystem
    from repro.memory.controller import MemoryController
    from repro.memory.device import DramDevice
    from repro.report import pipeline, render
    from repro.serve import jobqueue
    from repro.serve.app import ServeApp
    from repro.sim import runner, simulator, sweep
    from repro.sim.store import ResultStore
    from repro.trace import frontend
    from repro.workloads import tracefile

    spans = [
        (sweep, "simulate", "sim.simulate", _refs),
        (simulator, "generate_multiprogrammed", "workloads.generate", None),
        (runner, "run_jobs", "sweep.run_jobs", _sweep),
        (jobqueue, "run_jobs", "sweep.run_jobs", _sweep),
        (ResultStore, "probe_many", "store.probe_many", _probe),
        (ResultStore, "put", "store.put", None),
        (ResultStore, "stats_dict", "store.stats_dict", None),
        (pipeline, "run_bench", "report.run_bench", None),
        (pipeline, "rebuild_gallery", "report.rebuild_gallery", None),
        (render, "chart_for_table", "report.render", None),
        (render, "render_bench_page", "report.render", None),
        (render, "render_gallery", "report.render", None),
        (ServeApp, "handle", "serve.handle", _handle),
        (frontend, "parse_trace", "trace.parse", _records),
        (frontend, "content_hash", "trace.hash", None),
        (tracefile, "content_hash", "trace.hash", None),
        (frontend, "write_cache", "trace.write_cache", None),
        (frontend, "load_cached", "trace.load_cached", None),
    ]
    todo = [MemorySystem]
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        if "fast_path" in cls.__dict__:
            spans.append((cls, "fast_path", "baselines.fast_path", None))
    for owner, attr, name, attrs in spans:
        setattr(owner, attr, tracer.wrap(getattr(owner, attr), name,
                                         attrs=attrs))
    for owner, attr, name in ((MemoryController, "transfer_block",
                               "memory.transfer_block"),
                              (DramDevice, "access", "memory.device_access")):
        setattr(owner, attr, tracer.wrap(getattr(owner, attr), name,
                                         leaf=True))


# ---------------------------------------------------------------------------
# in-process tasks
# ---------------------------------------------------------------------------
def _gallery(args: argparse.Namespace, tracer: Tracer) -> Dict[str, Any]:
    """Cold then warm report, serially in this process."""
    from harness import GALLERY_BENCHES, GALLERY_SETTINGS
    from repro.report import ReportSettings, generate_report

    settings = ReportSettings(refs=GALLERY_SETTINGS["refs"],
                              per_class=GALLERY_SETTINGS["per_class"],
                              scale=GALLERY_SETTINGS["scale"],
                              seed=args.seed, workers=1, store=args.store)
    walls = {}
    for run_id in ("cold", "warm"):
        tracer.run_id = run_id
        start = time.perf_counter()
        summary = generate_report(list(GALLERY_BENCHES), settings=settings,
                                  out_dir=args.out_dir, gallery=args.gallery)
        walls[run_id] = {"wall_s": time.perf_counter() - start,
                         "jobs": summary["jobs"],
                         "failed": summary["failed"],
                         "check_failures": summary["check_failures"]}
    return walls


def _serve(args: argparse.Namespace, tracer: Tracer) -> Dict[str, Any]:
    """``repro serve`` until SIGINT, with the layers traced."""
    from repro.cli import main

    tracer.run_id = "serve"
    return {"exit": main(["serve", *args.rest])}


def _ingest(args: argparse.Namespace, tracer: Tracer) -> Dict[str, Any]:
    """``trace convert --force`` then a cached ``trace inspect``."""
    from repro.cli import main

    source = args.rest[0]
    walls = {}
    for run_id, argv in (("convert", ["convert", source, "--force"]),
                         ("load", ["inspect", source])):
        tracer.run_id = run_id
        start = time.perf_counter()
        code = main(["trace", *argv, "--json"])
        walls[run_id] = time.perf_counter() - start
        if code:
            raise SystemExit(code)
    return walls


def main_task(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("task", choices=("gallery", "serve", "ingest"))
    parser.add_argument("out")
    parser.add_argument("--spans", type=int, default=1)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--store")
    parser.add_argument("--out-dir")
    parser.add_argument("--gallery")
    argv = sys.argv[1:] if argv is None else argv
    cut = argv.index("--") if "--" in argv else len(argv)
    args = parser.parse_args(argv[:cut])
    args.rest = argv[cut + 1:]
    tracer = Tracer()
    if args.spans:
        install(tracer)
    task = {"gallery": _gallery, "serve": _serve, "ingest": _ingest}
    result = task[args.task](args, tracer)
    payload = {"task": args.task, "result": result, **tracer.dump()}
    Path(args.out).write_text(json.dumps(payload))
    return 0


if __name__ == "__main__":
    from harness import import_repro

    import_repro()
    sys.exit(main_task())
