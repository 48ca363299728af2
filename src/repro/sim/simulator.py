"""Trace-driven simulation of one memory-system design.

Two entry points are provided:

* :func:`simulate` — the fast path used by the benchmark harness.  It drives
  *memory-level* traces (already LLC-filtered, produced by the workload
  generators) through the interval core model and the memory system under
  test.  This is what makes the paper's large design-space sweeps tractable
  in pure Python.
* :class:`Simulator` — the full path: *processor-level* traces are filtered
  through the SRAM cache hierarchy first, LLC misses and dirty evictions
  reach the memory system.  It is slower and is used by the integration
  tests and examples that want the complete pipeline.

Both produce a :class:`RunResult` with the counters every figure of the
evaluation is computed from.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import count, islice, repeat
from typing import Optional, Sequence, Union

import numpy as np

from ..baselines.base import MemorySystem
from ..cache.hierarchy import CacheHierarchy
from ..cpu.core import IntervalCore
from ..cpu.trace import Trace, TraceRecord
from ..stats import Stats
from ..workloads.synthetic import WorkloadSpec, generate_multiprogrammed


@dataclass
class RunResult:
    """Outcome of simulating one workload on one memory-system design."""

    design: str
    workload: str
    cycles: float
    instructions: int
    references: int
    nm_service_ratio: float
    nm_traffic_bytes: float
    fm_traffic_bytes: float
    energy_pj: float
    flat_capacity_bytes: int
    stats: Stats = field(default_factory=Stats)

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    def as_dict(self) -> dict:
        """JSON-serialisable rendering (used by the result store and CLI)."""
        return {
            "design": self.design,
            "workload": self.workload,
            "cycles": self.cycles,
            "instructions": self.instructions,
            "references": self.references,
            "nm_service_ratio": self.nm_service_ratio,
            "nm_traffic_bytes": self.nm_traffic_bytes,
            "fm_traffic_bytes": self.fm_traffic_bytes,
            "energy_pj": self.energy_pj,
            "flat_capacity_bytes": self.flat_capacity_bytes,
            "stats": self.stats.as_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RunResult":
        """Inverse of :meth:`as_dict`."""
        stats = Stats()
        stats.merge(data.get("stats", {}))
        return cls(
            design=data["design"],
            workload=data["workload"],
            cycles=data["cycles"],
            instructions=data["instructions"],
            references=data["references"],
            nm_service_ratio=data["nm_service_ratio"],
            nm_traffic_bytes=data["nm_traffic_bytes"],
            fm_traffic_bytes=data["fm_traffic_bytes"],
            energy_pj=data["energy_pj"],
            flat_capacity_bytes=data["flat_capacity_bytes"],
            stats=stats,
        )

    @property
    def time_ns(self) -> float:
        """Wall-clock time of the simulated region (3.2 GHz cores)."""
        return self.cycles / 3.2

    def speedup_over(self, baseline: "RunResult") -> float:
        """Speedup of this run relative to ``baseline`` (same workload)."""
        if self.cycles == 0:
            return 0.0
        return baseline.cycles / self.cycles


def _collect_result(system: MemorySystem, cores: Sequence[IntervalCore],
                    workload_name: str, references: int,
                    cycles_offset: float = 0.0,
                    instruction_offset: int = 0) -> RunResult:
    stats = system.collect_stats()
    cycles = max((core.time_cycles for core in cores), default=0.0) - cycles_offset
    instructions = sum(core.stats.instructions for core in cores) - instruction_offset
    return RunResult(
        design=system.name,
        workload=workload_name,
        cycles=cycles,
        instructions=instructions,
        references=references,
        nm_service_ratio=system.nm_service_ratio,
        nm_traffic_bytes=stats.get("nm.bytes"),
        fm_traffic_bytes=stats.get("fm.bytes"),
        energy_pj=stats.get("energy_pj"),
        flat_capacity_bytes=system.flat_capacity_bytes,
        stats=stats,
    )


def simulate(system: MemorySystem,
             workload: Union[WorkloadSpec, Trace, Sequence[Trace]],
             num_references: int = 50_000, *, seed: int = 1,
             num_cores: Optional[int] = None,
             llc_latency_cycles: int = 14,
             warmup_fraction: float = 0.25) -> RunResult:
    """Drive a memory-level trace through ``system`` (fast path).

    ``workload`` may be a :class:`WorkloadSpec` (a per-core trace is
    generated for each core following the paper's eight-copy methodology), a
    single :class:`Trace`, or one trace per core.

    The first ``warmup_fraction`` of every core's trace warms the structures
    (DRAM caches, XTA, remap state); counters are then reset so the reported
    cycles, traffic and energy describe the measured region only — the usual
    SimPoint-style methodology.

    The driver iterates trace *columns* directly with the interval-core
    timing arithmetic inlined over locals, instead of materialising a
    ``TraceRecord`` and paying three method calls per reference; per-core
    state is written back into :class:`IntervalCore` objects at the end so
    result collection (and callers inspecting cores) see the classic model.
    Counters are bit-identical to the seed per-record driver preserved in
    :mod:`repro.sim.legacy`, which the equivalence tests pin.
    """
    config = system.config
    cores_wanted = num_cores or config.cores.num_cores

    if isinstance(workload, WorkloadSpec):
        per_core = max(1, num_references // cores_wanted)
        traces = generate_multiprogrammed(
            workload, per_core, num_cores=cores_wanted, scale=config.scale,
            seed=seed, address_limit=system.flat_capacity_bytes)
        name = workload.name
    elif hasattr(workload, "load_traces"):
        # Trace-backed workloads (repro.workloads.tracefile): the handle
        # loads its file through the content-hashed mmap cache and splits
        # the stream per core; num_references caps the total record count.
        traces = workload.load_traces(num_references)
        name = workload.name
    elif isinstance(workload, Trace):
        traces = [workload]
        name = "trace"
    else:
        traces = list(workload)
        name = "trace"

    n_cores = len(traces)
    params = config.cores
    cores = [IntervalCore(params, i) for i in range(n_cores)]
    lengths = [len(t) for t in traces]
    total_records = sum(lengths)
    warmup_records = int(total_records * max(0.0, min(0.9, warmup_fraction)))

    # Flatten the round-robin schedule up front.  The seed driver's order is
    # one reference per live core per pass, cores in index order; for the
    # common equal-length case that is a plain numpy column interleave.
    # Columns become Python lists because native ints/bools iterate several
    # times faster than numpy scalars in a Python loop.  The address column
    # is kept as one int64 array as well: it is what ``system.fast_path``
    # vectorizes its per-design precomputation over.
    if n_cores and lengths.count(lengths[0]) == n_cores:
        per_core = lengths[0]
        if n_cores == 1:
            trace = traces[0]
            core_col = repeat(0, per_core)
            gap_col = trace.gaps.tolist()
            addr_arr = trace.addresses
            write_col = trace.is_write.tolist()
        else:
            core_col = list(range(n_cores)) * per_core
            gap_col = np.stack([t.gaps for t in traces],
                               axis=1).ravel().tolist()
            addr_arr = np.stack([t.addresses for t in traces],
                                axis=1).ravel()
            write_col = np.stack([t.is_write for t in traces],
                                 axis=1).ravel().tolist()
    else:
        gap_cols = [t.gaps.tolist() for t in traces]
        addr_cols = [t.addresses.tolist() for t in traces]
        write_cols = [t.is_write.tolist() for t in traces]
        order = [(idx, pos)
                 for pos in range(max(lengths, default=0))
                 for idx in range(n_cores) if pos < lengths[idx]]
        core_col = [idx for idx, _ in order]
        gap_col = [gap_cols[idx][pos] for idx, pos in order]
        addr_arr = np.asarray([addr_cols[idx][pos] for idx, pos in order],
                              dtype=np.int64)
        write_col = [write_cols[idx][pos] for idx, pos in order]

    # Every design is driven as a batch operator: it gets the whole address
    # column at once and returns a per-reference step closure (the
    # ``MemorySystem`` default adapts ``access``).
    step = system.fast_path(addr_arr)
    stream = zip(count(), core_col, gap_col, write_col)

    # Per-core mutable state, shared with the IntervalCore objects where it
    # can be (the outstanding-miss windows) and written back at the end.
    time_cycles = [0.0] * n_cores
    instructions = [0] * n_cores
    memory_references = [0] * n_cores
    llc_misses = [0] * n_cores
    compute_cycles = [0.0] * n_cores
    sram_cycles = [0.0] * n_cores
    stall_cycles = [0.0] * n_cores
    state = (time_cycles, instructions, memory_references, llc_misses,
             compute_cycles, sram_cycles, stall_cycles,
             [core._outstanding for core in cores])

    # The first ``warmup_records`` references warm the structures, then the
    # measured region runs with counters reset — two plain drains instead of
    # a per-reference warmup branch.
    cycles_offset = 0.0
    instruction_offset = 0
    if warmup_records:
        _drive_columns(islice(stream, warmup_records), step, state, params,
                       llc_latency_cycles)
        system.reset_measurement()
        cycles_offset = max(time_cycles)
        instruction_offset = sum(instructions)
    _drive_columns(stream, step, state, params, llc_latency_cycles)
    references = total_records - warmup_records

    for idx, core in enumerate(cores):
        core.time_cycles = time_cycles[idx]
        core.stats.instructions = instructions[idx]
        core.stats.memory_references = memory_references[idx]
        core.stats.llc_misses = llc_misses[idx]
        core.stats.compute_cycles = compute_cycles[idx]
        core.stats.sram_cycles = sram_cycles[idx]
        core.stats.stall_cycles = stall_cycles[idx]

    return _collect_result(system, cores, name, references, cycles_offset,
                           instruction_offset)


def _drive_columns(stream, step, state: tuple, params,
                   llc_cycles: float) -> None:
    """Hot loop of :func:`simulate`: drain ``(i, core, gap, is_write)``
    tuples through a :meth:`~repro.baselines.base.MemorySystem.fast_path`
    step with the interval-core timing model inlined.

    The address is already baked into the step closure's precomputed
    columns, indexed by ``i``, and the step returns the latency directly.
    All per-core state lives in the ``state`` lists (indexed by core) and
    every constant is bound to a local before the loop.  The ``cycle_ns`` /
    ``frequency_ghz`` multiplications are exactly the expressions
    ``CoreParams.cycles_to_ns`` / ``ns_to_cycles`` evaluate and the update
    order mirrors ``IntervalCore.execute`` / ``memory_miss``, so every float
    stays bit-identical to the seed per-record driver
    (:func:`repro.sim.legacy.simulate_reference`).
    """
    (time_cycles, instructions, memory_references, llc_misses,
     compute_cycles, sram_cycles, stall_cycles, outstanding) = state
    issue_width = params.issue_width
    cycle_ns = params.cycle_ns
    ghz = params.frequency_ghz
    rob_window = params.rob_size
    max_outstanding = params.max_outstanding_misses

    for i, idx, gap, is_write in stream:
        now = time_cycles[idx]
        if gap > 0:
            cycles = gap / issue_width
            now += cycles
            instructions[idx] += gap
            compute_cycles[idx] += cycles

        latency_ns = step(i, is_write, now * cycle_ns)

        # IntervalCore.memory_miss, inlined.
        memory_references[idx] += 1
        instruction_now = instructions[idx] + 1
        instructions[idx] = instruction_now
        llc_misses[idx] += 1
        if llc_cycles:
            now += llc_cycles
            sram_cycles[idx] += llc_cycles
        latency_cycles = latency_ns * ghz
        window = outstanding[idx]
        while window and instruction_now - window[0] > rob_window:
            window.popleft()
        while len(window) >= max_outstanding:
            window.popleft()
        exposed = latency_cycles / (len(window) + 1)
        window.append(instruction_now)
        stall_cycles[idx] += exposed
        time_cycles[idx] = now + exposed


class Simulator:
    """Full pipeline: processor-level traces -> SRAM hierarchy -> memory system."""

    def __init__(self, system: MemorySystem,
                 hierarchy: Optional[CacheHierarchy] = None) -> None:
        self.system = system
        config = system.config
        self.hierarchy = hierarchy or CacheHierarchy(
            config.cores, config.l1, config.l2, config.l3)
        self.cores = [IntervalCore(config.cores, i)
                      for i in range(config.cores.num_cores)]
        self.references = 0

    def run(self, traces: Sequence[Trace],
            workload_name: str = "trace") -> RunResult:
        """Interleave ``traces`` (one per core) through the full pipeline."""
        if len(traces) > len(self.cores):
            raise ValueError("more traces than cores")
        # Deque rotation keeps the classic pass-based round-robin order while
        # dropping exhausted traces in O(1) (no ``list.remove`` draining).
        queue = deque((idx, iter(t)) for idx, t in enumerate(traces))
        while queue:
            idx, iterator = queue.popleft()
            try:
                record = next(iterator)
            except StopIteration:
                continue
            self._step(idx, record)
            queue.append((idx, iterator))
        return _collect_result(self.system, self.cores, workload_name,
                               self.references)

    def _step(self, core_id: int, record: TraceRecord) -> None:
        core = self.cores[core_id]
        core.execute(record.gap_instructions)
        self.references += 1
        result = self.hierarchy.access(core_id, record.address, record.is_write)
        for victim in result.writebacks:
            self.system.writeback(victim, core.time_ns)
        if result.llc_miss:
            outcome = self.system.access(record.address, record.is_write,
                                         core.time_ns)
            core.memory_miss(outcome.latency_ns,
                             sram_latency_cycles=result.latency_cycles)
        else:
            core.sram_hit(result.latency_cycles)
