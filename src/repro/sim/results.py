"""Simulation results: everything the paper's figures are derived from."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.cache.set_assoc import CacheStats
from repro.controller.stats import ControllerStats
from repro.power.accounting import PowerBreakdown


@dataclass
class CoreResult:
    """Per-core outcome of a run."""

    core_id: int
    app_name: str
    retired_instructions: int
    finish_cycle: int
    ipc: float


@dataclass
class SimResult:
    """Outcome of one full-system simulation."""

    scheme_name: str
    policy_name: str
    workload_name: str
    runtime_cycles: int
    cores: List[CoreResult]
    controller: ControllerStats
    power: PowerBreakdown
    #: Activations by granularity in eighths (Fig. 11 numerator).
    activation_histogram: Dict[int, int]
    llc: CacheStats
    #: Figure 3: dirty-word distribution of evicted LLC lines.
    dirty_word_fractions: Dict[int, float] = field(default_factory=dict)
    #: DBI bookkeeping (proactive writebacks / triggers), when enabled.
    dbi_proactive_writebacks: int = 0

    # ------------------------------------------------------------------
    @property
    def ipcs(self) -> List[float]:
        return [c.ipc for c in self.cores]

    @property
    def total_energy_mj(self) -> float:
        return self.power.total_mj

    @property
    def avg_power_mw(self) -> float:
        return self.power.total_power_mw

    @property
    def runtime_ns(self) -> float:
        return self.power.runtime_ns

    @property
    def edp(self) -> float:
        """Energy-delay product (mJ x ns); compared normalized."""
        return self.total_energy_mj * self.runtime_ns

    # ------------------------------------------------------------------
    def granularity_fractions(self) -> Dict[int, float]:
        """Proportion of activations per granularity (Figure 11)."""
        total = sum(self.activation_histogram.values())
        if not total:
            return {g: 0.0 for g in range(1, 9)}
        return {g: n / total for g, n in self.activation_histogram.items()}

    def mean_activation_granularity(self) -> float:
        """Average activated fraction of a row across all activations."""
        total = sum(self.activation_histogram.values())
        if not total:
            return 1.0
        weighted = sum(g * n for g, n in self.activation_histogram.items())
        return weighted / (8.0 * total)

    def summary(self) -> Dict[str, float]:
        """Flat summary used by examples and the benchmark harness."""
        return {
            "runtime_cycles": float(self.runtime_cycles),
            "total_power_mw": self.avg_power_mw,
            "act_pre_mw": self.power.power_mw("act_pre"),
            "rd_io_mw": self.power.power_mw("rd_io"),
            "wr_io_mw": self.power.power_mw("wr_io"),
            "energy_mj": self.total_energy_mj,
            "edp": self.edp,
            "read_hit_rate": self.controller.reads.hit_rate,
            "write_hit_rate": self.controller.writes.hit_rate,
            "total_hit_rate": self.controller.total_hit_rate,
            "read_false_hit_rate": self.controller.reads.false_hit_rate,
            "write_false_hit_rate": self.controller.writes.false_hit_rate,
            "mean_granularity": self.mean_activation_granularity(),
        }


    def to_dict(self) -> Dict:
        """JSON-serializable snapshot of the run (for archival/plots)."""
        return {
            "scheme": self.scheme_name,
            "policy": self.policy_name,
            "workload": self.workload_name,
            "runtime_cycles": self.runtime_cycles,
            "cores": [
                {
                    "core_id": c.core_id,
                    "app": c.app_name,
                    "retired": c.retired_instructions,
                    "finish_cycle": c.finish_cycle,
                    "ipc": c.ipc,
                }
                for c in self.cores
            ],
            "power_mw": self.power.as_dict_mw(),
            "total_power_mw": self.avg_power_mw,
            "energy_mj": self.total_energy_mj,
            "edp": self.edp,
            "activation_histogram": dict(self.activation_histogram),
            "row_buffer": {
                "read_hit_rate": self.controller.reads.hit_rate,
                "write_hit_rate": self.controller.writes.hit_rate,
                "read_false_hit_rate": self.controller.reads.false_hit_rate,
                "write_false_hit_rate": self.controller.writes.false_hit_rate,
            },
            "traffic": self.controller.traffic_split(),
            "activations": self.controller.activation_split(),
            "dirty_word_fractions": dict(self.dirty_word_fractions),
            "dbi_proactive_writebacks": self.dbi_proactive_writebacks,
        }

    def save_json(self, path: str) -> None:
        """Write :meth:`to_dict` to ``path`` as pretty-printed JSON."""
        import json

        with open(path, "w") as handle:
            json.dump(self.to_dict(), handle, indent=2, sort_keys=True)
