"""System configuration (Table 3 of the paper).

Bundles every knob of the CPU + cache + DRAM platform.  Defaults
reproduce the paper's baseline: 4-core 3.2 GHz CMP, 32 kB L1s, 4 MB
shared L2, 8 GB DDR3-1600 over 2 channels x 2 ranks, FR-FCFS with
64/64-entry queues and 48/16 write watermarks, relaxed close-page with
precharge power-down and row-interleaved mapping (line-interleaved for
the restricted close-page studies).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from repro.cache.set_assoc import num_sets
from repro.controller.policies import ROW_HIT_CAP, RowPolicy
from repro.core.schemes import BASELINE, Scheme
from repro.dram.geometry import SystemGeometry
from repro.dram.mapping import Interleaving
from repro.dram.timing import DDR3_1600, TimingParams
from repro.power.params import DDR3_1600_POWER, PowerParams


@dataclass(frozen=True)
class CoreConfig:
    """Core-model parameters (Table 3, processor section)."""

    cpu_per_mem_clock: float = 4.0
    nonmem_cpi: float = 0.5
    max_outstanding_misses: int = 8
    rob_instructions: int = 192


@dataclass(frozen=True)
class CacheConfig:
    """Cache hierarchy parameters (Table 3)."""

    llc_bytes: int = 4 * 1024 * 1024
    llc_ways: int = 8
    l1_bytes: int = 32 * 1024
    l1_ways: int = 4
    #: Use per-core L1s in front of the LLC.  The calibrated workload
    #: profiles are LLC-level, so the big experiments run LLC-only.
    use_l1: bool = False
    dbi_max_writebacks: int = 16

    def __post_init__(self) -> None:
        # Reject a cache no run can build here, where the config is
        # made, rather than when a (possibly remote) run starts.
        num_sets(self.llc_bytes, self.llc_ways)
        if self.use_l1:
            num_sets(self.l1_bytes, self.l1_ways)


@dataclass(frozen=True)
class ControllerConfig:
    """Memory-controller parameters (Table 3)."""

    read_queue_size: int = 64
    write_queue_size: int = 64
    drain_high_watermark: int = 48
    drain_low_watermark: int = 16
    row_hit_cap: int = ROW_HIT_CAP
    scan_depth: int = 12
    #: "frfcfs" (paper) or "fcfs" (ablation without the hit-first pass).
    scheduler: str = "frfcfs"


@dataclass(frozen=True)
class SystemConfig:
    """Full platform configuration."""

    scheme: Scheme = BASELINE
    policy: RowPolicy = RowPolicy.RELAXED_CLOSE
    geometry: SystemGeometry = SystemGeometry()
    timing: TimingParams = DDR3_1600
    power: PowerParams = DDR3_1600_POWER
    #: None picks the paper's pairing: row-interleaved for relaxed /
    #: open-page, line-interleaved for restricted close-page.
    interleaving: Optional[Interleaving] = None
    core: CoreConfig = CoreConfig()
    cache: CacheConfig = CacheConfig()
    controller: ControllerConfig = ControllerConfig()
    #: Extra ECC chips per rank (x72 DIMM).  Section 4.2: the ECC
    #: chip's PRA pin is tied high, so it always activates full rows
    #: and transfers full bursts; PRA savings apply to data chips only.
    ecc_chips: int = 0
    seed: int = 1
    #: Run under the runtime sanitizer (:mod:`repro.sim.sanitize`):
    #: protocol checkers on every controller, snapshot-restore digest
    #: verification and finalize-time invariant checks.  The
    #: ``REPRO_SANITIZE`` environment variable enables the same thing
    #: without touching configs.
    sanitize: bool = False

    def __post_init__(self) -> None:
        # A negative count would subtract chips from every rank; type(),
        # not isinstance(), because a bool is an int but no chip count.
        if type(self.ecc_chips) is not int or self.ecc_chips < 0:
            raise ValueError(
                f"ecc_chips must be a non-negative integer, got {self.ecc_chips!r}"
            )

    @property
    def effective_interleaving(self) -> Interleaving:
        """Resolved address interleaving (explicit or policy default)."""
        if self.interleaving is not None:
            return self.interleaving
        if self.policy is RowPolicy.RESTRICTED_CLOSE:
            return Interleaving.LINE
        return Interleaving.ROW

    def with_scheme(self, scheme: Scheme) -> "SystemConfig":
        return replace(self, scheme=scheme)

    def with_policy(self, policy: RowPolicy) -> "SystemConfig":
        return replace(self, policy=policy)
