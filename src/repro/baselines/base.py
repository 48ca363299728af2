"""Abstract interface shared by every memory-system design.

Every design in the paper's evaluation — the no-NM baseline, the DRAM
caches, the migration schemes and Hybrid2 itself — presents the same
interface to the simulator:

* :meth:`MemorySystem.access` serves one processor-critical 64 B request and
  returns its latency and where it was served from;
* :meth:`MemorySystem.writeback` accepts LLC dirty evictions (not latency
  critical, but they consume bandwidth);
* :attr:`MemorySystem.flat_capacity_bytes` reports how much main memory the
  design exposes to software (the capacity argument of the paper);
* :meth:`MemorySystem.collect_stats` returns the counters every figure of
  the evaluation is built from (NM/FM traffic, energy, NM service ratio).

Paper anchor: the common interface behind every design compared in the
evaluation (Section 5, Figures 12-18) and the motivation study (Section 2,
Figures 1-2).
"""

from __future__ import annotations

import abc
from typing import Callable, Optional

from ..common import AccessOutcome
from ..memory.controller import MemoryController
from ..params import DramParams, SystemConfig
from ..stats import Stats


class MemorySystem(abc.ABC):
    """One memory-system organisation under evaluation."""

    #: Short identifier used in result tables ("HYBRID2", "MPOD", ...).
    name: str = "memory-system"

    def __init__(self, config: SystemConfig) -> None:
        self.config = config
        self.near: Optional[MemoryController] = None
        self.far: Optional[MemoryController] = None
        self.requests = 0
        self.requests_from_nm = 0
        self.write_requests = 0

    # ------------------------------------------------------------------
    # mandatory interface
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def access(self, address: int, is_write: bool, now_ns: float) -> AccessOutcome:
        """Serve one processor-critical 64 B request."""

    @property
    @abc.abstractmethod
    def flat_capacity_bytes(self) -> int:
        """Main-memory capacity visible to software."""

    # ------------------------------------------------------------------
    # optional interface with sensible defaults
    # ------------------------------------------------------------------
    def writeback(self, address: int, now_ns: float) -> None:
        """Accept an LLC dirty eviction (default: treat as a write access)."""
        self.access(address, True, now_ns)

    def fast_path(self, addresses) -> Callable[[int, bool, float], float]:
        """Compile a batch step function for the columnar driver.

        ``addresses`` is the full flattened int64 address column of the run
        (scheduler order, warmup included).  Implementations vectorize every
        pure address-derived quantity (wrapping, set indices, segment/offset
        splits, placement addresses) over the whole column with numpy once,
        and return a closure ``step(i, is_write, now_ns) -> latency_ns``
        that serves reference ``i`` with the same state mutations — and the
        same device-access order — as :meth:`access`, so all counters stay
        bit-identical (``tests/test_engine_equivalence.py``).  Rare events
        (evictions, swaps, interval migrations, XTA misses) fall back to the
        existing slow-path methods, which share the same state objects.

        The default adapts :meth:`access`: the column becomes a list once
        and each step serves ``access(column[i], ...)``.
        """
        column = addresses.tolist()
        access = self.access

        def step(i: int, is_write: bool, now_ns: float) -> float:
            return access(column[i], is_write, now_ns).latency_ns

        return step

    def reset_measurement(self) -> None:
        """Zero the measured counters after a warm-up phase.

        The structural state of the design (cache contents, XTA, remap
        tables, DRAM timing state) is kept; only the request/traffic/energy
        accounting restarts, so results reflect warmed-up behaviour.
        """
        self.requests = 0
        self.requests_from_nm = 0
        self.write_requests = 0
        if self.near is not None:
            self.near.reset_counters()
        if self.far is not None:
            self.far.reset_counters()
        self._reset_extra()

    def _reset_extra(self) -> None:
        """Subclasses reset design-specific measured counters here."""

    # ------------------------------------------------------------------
    # shared helpers
    # ------------------------------------------------------------------
    def _make_controllers(self, near: Optional[DramParams],
                          far: DramParams) -> None:
        self.near = MemoryController(near) if near is not None else None
        self.far = MemoryController(far)

    def _record_request(self, is_write: bool, served_from_nm: bool) -> None:
        self.requests += 1
        if is_write:
            self.write_requests += 1
        if served_from_nm:
            self.requests_from_nm += 1

    def _outcome(self, latency_ns: float, served_from_nm: bool,
                 is_write: bool, dram_cache_hit: bool = False,
                 path: str = "") -> AccessOutcome:
        self._record_request(is_write, served_from_nm)
        return AccessOutcome(latency_ns=latency_ns, served_from_nm=served_from_nm,
                             dram_cache_hit=dram_cache_hit, path=path)

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    @property
    def nm_service_ratio(self) -> float:
        """Fraction of processor requests served from near memory (Fig. 15)."""
        return self.requests_from_nm / self.requests if self.requests else 0.0

    def collect_stats(self) -> Stats:
        """Counters used by the evaluation figures."""
        stats = Stats()
        stats.set("requests", self.requests)
        stats.set("requests.writes", self.write_requests)
        stats.set("requests.from_nm", self.requests_from_nm)
        stats.set("nm_service_ratio", self.nm_service_ratio)
        stats.set("flat_capacity_bytes", self.flat_capacity_bytes)
        if self.near is not None:
            stats.set("nm.bytes", self.near.total_bytes)
            stats.set("nm.read_bytes", self.near.read_bytes)
            stats.set("nm.write_bytes", self.near.write_bytes)
            stats.set("nm.metadata_bytes", self.near.metadata_bytes)
            stats.set("nm.energy_pj", self.near.energy_pj)
        if self.far is not None:
            stats.set("fm.bytes", self.far.total_bytes)
            stats.set("fm.read_bytes", self.far.read_bytes)
            stats.set("fm.write_bytes", self.far.write_bytes)
            stats.set("fm.energy_pj", self.far.energy_pj)
        stats.set("energy_pj",
                  (self.near.energy_pj if self.near else 0.0) +
                  (self.far.energy_pj if self.far else 0.0))
        self._extra_stats(stats)
        return stats

    def _extra_stats(self, stats: Stats) -> None:
        """Subclasses add design-specific counters here."""

    def describe(self) -> str:
        """One-line human summary: design name plus exposed capacity."""
        return f"{self.name} (flat capacity {self.flat_capacity_bytes // (1 << 20)} MB)"
