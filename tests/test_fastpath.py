"""Bit-identity of the inlined access kernels and the fast-path dispatch.

``tests/test_engine_equivalence.py`` pins the end-to-end contract; the tests
here pin the layers underneath it:

* :func:`repro.memory.kernels.make_kernels` against the
  ``controller.access`` / ``transfer_block`` method chain on a randomized
  schedule (state and returned latencies must match float for float);
* the ``MemorySystem.fast_path`` protocol (the default adapter over
  ``access``, step closures mutating the same counters as ``access``);
* the single ``simulate()`` driver on empty runs.
"""

import numpy as np
import pytest

from repro.baselines import DESIGN_FACTORIES
from repro.baselines.base import MemorySystem
from repro.cpu.trace import Trace
from repro.common import LINE_SIZE
from repro.memory.controller import MemoryController
from repro.memory.kernels import make_kernels
from repro.params import ddr4_params, hbm2_params, make_config
from repro.sim.perfbench import NullMemorySystem
from repro.sim.simulator import simulate

CONFIG = make_config(nm_gb=1, fm_gb=16, scale=256)


def _controller_state(controller: MemoryController) -> dict:
    device = controller.device
    return {
        "demand_bytes": controller.demand_bytes,
        "background_bytes": controller.background_bytes,
        "metadata_bytes": controller.metadata_bytes,
        "reads": device.reads,
        "writes": device.writes,
        "read_bytes": device.traffic.read_bytes,
        "write_bytes": device.traffic.write_bytes,
        "rw_pj": device.energy.counter.rw_pj,
        "act_pre_pj": device.energy.counter.act_pre_pj,
        "banks": [
            (bank.open_row, bank.ready_at_ns, bank.row_hits, bank.row_misses,
             bank.activations)
            for channel in device.channels for bank in channel.banks
        ],
        "buses": [(c.bus_free_at_ns, c.busy_ns) for c in device.channels],
    }


def _random_schedule(seed: int, n: int = 400):
    rng = np.random.default_rng(seed)
    addresses = (rng.integers(0, 1 << 28, size=n) // LINE_SIZE) * LINE_SIZE
    writes = rng.random(n) < 0.3
    kinds = rng.integers(0, 3, size=n)
    times = np.cumsum(rng.random(n) * 40.0)
    return zip(addresses.tolist(), writes.tolist(), kinds.tolist(),
               times.tolist())


@pytest.mark.parametrize("params_factory", [hbm2_params, ddr4_params],
                         ids=["hbm2", "ddr4"])
def test_line_kernel_matches_controller_access(params_factory):
    params = params_factory(1 << 27)
    slow = MemoryController(params)
    fast = MemoryController(params)
    line_access, _ = make_kernels(fast)
    for address, is_write, kind, now_ns in _random_schedule(7):
        expected = slow.access(address, is_write, now_ns, LINE_SIZE,
                               demand=(kind == 0), metadata=(kind == 2))
        got = line_access(address, is_write, now_ns, kind)
        assert got == expected.latency_ns
    assert _controller_state(fast) == _controller_state(slow)


def test_block_kernel_matches_transfer_block():
    params = hbm2_params(1 << 27)
    slow = MemoryController(params)
    fast = MemoryController(params)
    _, block_transfer = make_kernels(fast)
    rng = np.random.default_rng(3)
    now = 0.0
    for _ in range(60):
        address = int(rng.integers(0, 1 << 24)) * LINE_SIZE
        nbytes = int(rng.choice([64, 256, 1024, 2048, 4096]))
        is_write = bool(rng.random() < 0.5)
        demand = bool(rng.random() < 0.5)
        now += float(rng.random() * 200.0)
        expected = slow.transfer_block(address, nbytes, is_write, now,
                                       demand=demand)
        got = block_transfer(address, nbytes, is_write, now, demand)
        assert got == expected.latency_ns
    assert _controller_state(fast) == _controller_state(slow)


def test_kernel_interleaves_with_slow_path():
    """Kernel and method-chain accesses share the same live state."""
    params = ddr4_params(1 << 28)
    slow = MemoryController(params)
    fast = MemoryController(params)
    line_access, _ = make_kernels(fast)
    for i, (address, is_write, kind, now_ns) in enumerate(_random_schedule(11)):
        expected = slow.access(address, is_write, now_ns, LINE_SIZE,
                               demand=(kind == 0), metadata=(kind == 2))
        if i % 3 == 0:
            got = fast.access(address, is_write, now_ns, LINE_SIZE,
                              demand=(kind == 0),
                              metadata=(kind == 2)).latency_ns
        else:
            got = line_access(address, is_write, now_ns, kind)
        assert got == expected.latency_ns
    assert _controller_state(fast) == _controller_state(slow)


def test_kernel_counters_reset_in_place():
    """reset_counters() must be visible to already-compiled kernels."""
    controller = MemoryController(hbm2_params(1 << 27))
    line_access, _ = make_kernels(controller)
    line_access(0, False, 0.0, 0)
    controller.reset_counters()
    assert controller.demand_bytes == 0
    line_access(LINE_SIZE, True, 500.0, 1)
    assert controller.background_bytes == LINE_SIZE
    assert controller.device.traffic.write_bytes == LINE_SIZE
    assert controller.device.reads == 0  # zeroed by the reset


def _request_counters(system) -> tuple:
    return (system.requests, system.requests_from_nm, system.write_requests,
            system.collect_stats().as_dict())


@pytest.mark.parametrize("design", sorted(DESIGN_FACTORIES) + ["NULL"])
def test_default_fast_path_adapts_access(design):
    """The base-class step serves ``access(column[i], ...)``: same
    latencies, same request and traffic counters as calling ``access``."""
    factory = DESIGN_FACTORIES.get(design, NullMemorySystem)
    adapted, direct = factory(CONFIG), factory(CONFIG)
    rng = np.random.default_rng(5)
    addresses = (rng.integers(0, adapted.flat_capacity_bytes // LINE_SIZE,
                              size=200) * LINE_SIZE).astype(np.int64)
    writes = (rng.random(200) < 0.3).tolist()
    step = MemorySystem.fast_path(adapted, addresses)
    for i, (address, is_write) in enumerate(zip(addresses.tolist(), writes)):
        now_ns = 50.0 * i
        assert step(i, is_write, now_ns) == \
            direct.access(address, is_write, now_ns).latency_ns
    assert _request_counters(adapted) == _request_counters(direct)


@pytest.mark.parametrize("design", sorted(DESIGN_FACTORIES))
def test_every_design_compiles_a_fast_path(design):
    system = DESIGN_FACTORIES[design](CONFIG)
    addresses = (np.arange(64, dtype=np.int64) * 8192) % \
        system.flat_capacity_bytes
    step = system.fast_path(addresses)
    assert step is not None
    latency = step(0, False, 0.0)
    assert latency > 0.0
    assert system.requests == 1


@pytest.mark.parametrize("design", sorted(DESIGN_FACTORIES) + ["NULL"])
@pytest.mark.parametrize("workload", [Trace(), [Trace(), Trace()], []],
                         ids=["one-empty-trace", "two-empty-traces",
                              "no-traces"])
def test_empty_run_goes_through_the_single_driver(design, workload):
    system = DESIGN_FACTORIES.get(design, NullMemorySystem)(CONFIG)
    result = simulate(system, workload)
    assert result.references == 0
    assert result.cycles == 0.0
