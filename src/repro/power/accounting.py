"""Runtime DRAM power/energy accounting (Micron power-calculator style).

The simulator reports events (activations with their granularity, read
and write bursts with the fraction of bytes actually driven, refreshes)
and background residencies; the accountant converts them to energy per
category and produces the breakdowns used by Figures 2 and 12 and the
energy/EDP results of Figure 13.

Categories follow Figure 2 of the paper:

* ``act_pre`` — row activation + bank precharge pairs,
* ``rd`` / ``wr`` — column-access core power,
* ``rd_io`` — read I/O + read termination,
* ``wr_io`` — write ODT + write termination,
* ``bg`` — background standby/power-down,
* ``ref`` — refresh.

Energies are tracked in pJ; reported in mJ / mW.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

from repro.dram.timing import TimingParams
from repro.power.params import PowerParams

#: Breakdown category names in the order of Figure 2.
CATEGORIES = ("act_pre", "rd", "wr", "rd_io", "wr_io", "bg", "ref")


@dataclass
class PowerBreakdown:
    """Energy per category plus derived powers and fractions."""

    energy_pj: Dict[str, float]
    runtime_ns: float

    @property
    def total_pj(self) -> float:
        return sum(self.energy_pj.values())

    @property
    def total_mj(self) -> float:
        return self.total_pj * 1e-9

    def energy_mj(self, category: str) -> float:
        return self.energy_pj[category] * 1e-9

    def power_mw(self, category: str) -> float:
        if self.runtime_ns <= 0:
            return 0.0
        return self.energy_pj[category] / self.runtime_ns

    @property
    def total_power_mw(self) -> float:
        """Average total DRAM power over the run (mW)."""
        if self.runtime_ns <= 0:
            return 0.0
        return self.total_pj / self.runtime_ns

    def fraction(self, category: str) -> float:
        total = self.total_pj
        return self.energy_pj[category] / total if total else 0.0

    def fractions(self) -> Dict[str, float]:
        return {c: self.fraction(c) for c in CATEGORIES}

    def as_dict_mw(self) -> Dict[str, float]:
        return {c: self.power_mw(c) for c in CATEGORIES}


class PowerAccountant:
    """Accumulates DRAM energy from simulator events.

    One accountant covers the whole DRAM system; per-chip parameter
    values are multiplied by ``chips_per_rank`` internally.
    """

    def __init__(
        self,
        params: PowerParams,
        timing: TimingParams,
        chips_per_rank: int = 8,
        scale_wr_core_with_mask: bool = True,
        ecc_chips: int = 0,
    ) -> None:
        self.params = params
        self.timing = timing
        self.chips_per_rank = chips_per_rank
        #: Extra chips storing ECC codes (x72 DIMMs).  Per Section 4.2
        #: an ECC chip's PRA pin is tied off, so it always performs
        #: full-row activations and receives/sends full bursts.
        self.ecc_chips = ecc_chips
        #: Whether the core write power scales with the driven-byte
        #: fraction under PRA (unselected MATs see "don't care" data).
        self.scale_wr_core_with_mask = scale_wr_core_with_mask
        self.energy_pj: Dict[str, float] = {c: 0.0 for c in CATEGORIES}
        # Event counters (useful for stats and tests).
        self.activations_by_granularity: Dict[int, int] = {g: 0 for g in range(1, 9)}
        self.read_bursts = 0
        self.write_bursts = 0
        self.refreshes = 0
        #: fraction -> (granularity bucket, energy in pJ).  Activation
        #: energy is a pure function of the fraction, and a run sees
        #: only a handful of distinct fractions (9 mask popcounts under
        #: PRA), so memoizing it keeps the per-ACT cost to a dict probe
        #: while adding bit-identical energy values.
        self._act_cache: Dict[float, tuple] = {}
        #: One data burst's duration (ns).
        self._burst_ns = timing.cycles_to_ns(timing.tburst)
        #: One burst's (core, I/O) energies in pJ: reads keyed by
        #: ``other_ranks``, writes by ``(driven_fraction, other_ranks)``.
        #: Each is computed as the uncached expression computed it, so
        #: ``energy * count`` adds the same float as before.
        self._read_cache: Dict[int, Tuple[float, float]] = {}
        self._write_cache: Dict[Tuple[float, int], Tuple[float, float]] = {}

    # ------------------------------------------------------------------
    def on_activate(self, granularity_eighths: int) -> None:
        """One ACT-PRE pair at the given granularity (rank-wide)."""
        self.activations_by_granularity[granularity_eighths] += 1
        power = self.params.act_power(granularity_eighths)
        energy = power * self.timing.row_cycle_ns * self.chips_per_rank
        if self.ecc_chips:
            energy += (
                self.params.act_power(8) * self.timing.row_cycle_ns * self.ecc_chips
            )
        self.energy_pj["act_pre"] += energy

    def on_activate_fraction(self, fraction: float) -> None:
        """One ACT-PRE pair opening an arbitrary fraction of the row.

        Used by Half-DRAM (0.5) and Half-DRAM + PRA (g/16); the
        granularity histogram buckets by the nearest eighth (min 1).
        """
        cached = self._act_cache.get(fraction)
        if cached is None:
            bucket = min(8, max(1, round(fraction * 8)))
            power = self.params.act_power_fraction(fraction)
            energy = power * self.timing.row_cycle_ns * self.chips_per_rank
            if self.ecc_chips:
                energy += (
                    self.params.act_power(8) * self.timing.row_cycle_ns * self.ecc_chips
                )
            cached = (bucket, energy)
            self._act_cache[fraction] = cached
        self.activations_by_granularity[cached[0]] += 1
        self.energy_pj["act_pre"] += cached[1]

    def on_read_burst(self, other_ranks: int = 1, count: int = 1) -> None:
        """``count`` cache-line read bursts from a rank.

        The batched form exists for burst-streak commits: all bursts of
        a streak share ``other_ranks``, so their energy is ``count``
        times one burst's.  ``count=1`` is bitwise-identical to the
        historical single-burst call (``x * 1`` is exact in floats).
        """
        if count < 1:
            raise ValueError(f"count must be positive, got {count}")
        self.read_bursts += count
        cached = self._read_cache.get(other_ranks)
        if cached is None:
            chips = self.chips_per_rank + self.ecc_chips
            burst = self._burst_ns
            p = self.params
            io = p.rd_io_mw * burst * chips
            io += p.rd_term_mw * burst * chips * other_ranks
            cached = (p.rd_mw * burst * chips, io * p.io_scale)
            self._read_cache[other_ranks] = cached
        energy = self.energy_pj
        energy["rd"] += cached[0] * count
        energy["rd_io"] += cached[1] * count

    def on_write_burst(
        self, driven_fraction: float = 1.0, other_ranks: int = 1, count: int = 1
    ) -> None:
        """``count`` cache-line write bursts to a rank.

        ``driven_fraction`` is the share of bytes actually driven on
        the bus: under PRA only the dirty words are transferred, so
        ODT/termination (and optionally core write) energy scale down.
        Batched calls (streak commits group writes by driven fraction)
        charge ``count`` times one burst's energy; ``count=1`` matches
        the historical single-burst call bit for bit.
        """
        if count < 1:
            raise ValueError(f"count must be positive, got {count}")
        cached = self._write_cache.get((driven_fraction, other_ranks))
        if cached is None:
            if not 0.0 < driven_fraction <= 1.0:
                raise ValueError(
                    f"driven_fraction must be in (0, 1], got {driven_fraction}"
                )
            chips = self.chips_per_rank
            ecc = self.ecc_chips
            burst = self._burst_ns
            p = self.params
            core_fraction = driven_fraction if self.scale_wr_core_with_mask else 1.0
            io = p.wr_odt_mw * burst * (chips * driven_fraction + ecc)
            io += p.wr_term_mw * burst * other_ranks * (
                chips * driven_fraction + ecc
            )
            cached = (
                p.wr_mw * burst * (chips * core_fraction + ecc),
                io * p.io_scale,
            )
            self._write_cache[(driven_fraction, other_ranks)] = cached
        self.write_bursts += count
        energy = self.energy_pj
        energy["wr"] += cached[0] * count
        energy["wr_io"] += cached[1] * count

    def on_refresh(self) -> None:
        """One all-bank refresh of a rank (duration tRFC)."""
        self.refreshes += 1
        trfc_ns = self.timing.cycles_to_ns(self.timing.trfc)
        chips = self.chips_per_rank + self.ecc_chips
        self.energy_pj["ref"] += self.params.ref_mw * trfc_ns * chips

    def add_background(self, residency_cycles: Dict[str, int]) -> None:
        """Charge one rank's background residency (from ``Rank``)."""
        tck = self.timing.tck_ns
        chips = self.chips_per_rank + self.ecc_chips
        p = self.params
        self.energy_pj["bg"] += residency_cycles.get("act_stby", 0) * tck * p.act_stby_mw * chips
        self.energy_pj["bg"] += residency_cycles.get("pre_stby", 0) * tck * p.pre_stby_mw * chips
        self.energy_pj["bg"] += residency_cycles.get("pre_pdn", 0) * tck * p.pre_pdn_mw * chips

    # ------------------------------------------------------------------
    def breakdown(self, runtime_cycles: int) -> PowerBreakdown:
        """Finalize into a :class:`PowerBreakdown` for a run length."""
        runtime_ns = self.timing.cycles_to_ns(runtime_cycles)
        return PowerBreakdown(energy_pj=dict(self.energy_pj), runtime_ns=runtime_ns)
