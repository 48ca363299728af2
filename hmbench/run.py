"""Benchmark of the Hybrid2 reproduction: one command per workload.

    python3 hmbench/run.py --workload gallery --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``).  See ``hmbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402

WORKLOADS = ("gallery", "serve-read", "serve-mixed", "trace-ingest")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10,
                        help="accepted and not used: each workload runs a "
                             "fixed amount of work")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    harness.require_checkout()
    if args.workload == "gallery":
        import gallery

        (gallery.traced if args.trace else gallery.timed)(args.seed)
    elif args.workload == "trace-ingest":
        import ingest

        (ingest.traced if args.trace else ingest.timed)(args.seed)
    else:
        import serving

        (serving.traced if args.trace else serving.timed)(args.workload,
                                                          args.seed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
