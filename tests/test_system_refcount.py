"""A finished System is freed by reference counting alone.

A System holds the LLC (megabytes of slot arrays), the trace windows
and every controller.  If any object it owns referred back to it (a
closure over ``self``, a bound method stored on a child, a generator
left suspended), the whole platform would wait for the cyclic
collector, and a sweep that builds one System per point would grow
until the collector ran.  So with the collector off, dropping the last
reference to a finished System must free it, and a collection
afterwards must find nothing.
"""

import gc
import weakref

import pytest

from repro.core.schemes import ALL_SCHEMES
from repro.sim.config import CacheConfig, SystemConfig
from repro.sim.system import System
from repro.workloads.mixes import workload

#: The golden-digest configuration (tests/test_engine_identity.py).
EVENTS = 400
WARMUP = 1500


def _build(scheme, **kwargs):
    config = SystemConfig(scheme=scheme, cache=CacheConfig(llc_bytes=256 * 1024))
    return System(
        config, workload("MIX2"), EVENTS, seed=1, warmup_events_per_core=WARMUP, **kwargs
    )


def _run_and_drop(build):
    """Build and run a System with the collector off; a weakref to it."""
    gc.collect()
    gc.disable()
    try:
        system = build()
        system.run()
        ref = weakref.ref(system)
        restored = system.snapshot_restored
        del system
        alive = ref() is not None
        garbage = gc.collect()
    finally:
        gc.enable()
    return restored, alive, garbage


@pytest.mark.parametrize("name", sorted(ALL_SCHEMES))
def test_cold_system_freed_without_collector(name):
    restored, alive, garbage = _run_and_drop(
        lambda: _build(ALL_SCHEMES[name], use_snapshots=False)
    )
    assert not restored
    assert not alive
    assert garbage == 0


@pytest.mark.parametrize("name", sorted(ALL_SCHEMES))
def test_restored_system_freed_without_collector(name):
    _build(ALL_SCHEMES[name])  # leaves the warm snapshot to restore
    restored, alive, garbage = _run_and_drop(lambda: _build(ALL_SCHEMES[name]))
    assert restored
    assert not alive
    assert garbage == 0
