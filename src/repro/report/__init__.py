"""Paper-artifact report pipeline.

One command — ``python -m repro report`` — regenerates the paper's whole
evaluation (Figures 1-18, Tables 1-2, plus a real-trace twin) through
the sweep engine and result store, and renders it into a browsable gallery:

* ``artifacts/<bench>.json`` — machine-readable result + deviations;
* ``artifacts/<bench>.md`` (+ ``.svg`` charts) — one page per bench;
* ``EXPERIMENTS.md`` — the gallery, measured values side-by-side with the
  paper's published numbers, deviations beyond tolerance flagged.

The registry (:mod:`repro.report.registry`) is shared with the pytest
benches under ``benchmarks/``, so both harnesses execute identical bench
definitions.
"""

from .artifacts import (ARTIFACT_FORMAT, STATUS_FAILED, artifact_path,
                        load_artifact, result_from_artifact, status_of,
                        write_artifact, write_failure_artifact)
from .context import ReportContext
from .pipeline import (DEFAULT_GALLERY, DEFAULT_OUT_DIR, DEFAULT_STORE,
                       BenchOutcome, ReportSettings, generate_report,
                       rebuild_gallery, resolve_benches, run_bench,
                       run_bench_guarded, store_path_from_env,
                       workers_from_env)
from .registry import (REGISTRY, BenchResult, BenchSpec, Expectation, Table,
                       all_benches, get_bench)

__all__ = [
    "ARTIFACT_FORMAT",
    "BenchOutcome",
    "BenchResult",
    "BenchSpec",
    "DEFAULT_GALLERY",
    "DEFAULT_OUT_DIR",
    "DEFAULT_STORE",
    "Expectation",
    "REGISTRY",
    "ReportContext",
    "ReportSettings",
    "STATUS_FAILED",
    "Table",
    "all_benches",
    "artifact_path",
    "generate_report",
    "get_bench",
    "load_artifact",
    "rebuild_gallery",
    "resolve_benches",
    "result_from_artifact",
    "run_bench",
    "run_bench_guarded",
    "status_of",
    "store_path_from_env",
    "workers_from_env",
    "write_artifact",
    "write_failure_artifact",
]
