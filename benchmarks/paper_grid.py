"""The paper's evaluation grid, declared once as ten sweep blocks.

Every simulated figure and table reads rows of these blocks (through
:class:`repro.sim.metrics.Grid`); ``conftest.py`` runs each block as
one :class:`repro.sim.sweep.Sweep` the first time a test names it, so
a module run on its own simulates only the blocks it reads.  The
blocks are disjoint, 160 points in all:

* relaxed close-page, the 14 workloads: Baseline; PRA; FGA and
  Half-DRAM (Figs. 12-13); DBI and DBI+PRA (Fig. 15);
* restricted close-page, the 14 workloads: Baseline; PRA; Half-DRAM
  and Half-DRAM+PRA (Fig. 14);
* open-page: PRA on lbm, libquantum, MIX1 and MIX5 (the false-hit
  study);
* Baseline on each benchmark alone on one core, once per close-page
  policy: Eq. 3's denominators, and the single-core runs of Table 1
  and Figs. 2-3.
"""

from typing import Dict, List

from repro.workloads.mixes import ALONE_WORKLOADS, MIXES
from repro.workloads.profiles import BENCHMARKS

#: The paper's 14 multiprogrammed workloads, in presentation order.
WORKLOAD_ORDER = list(BENCHMARKS) + list(MIXES)


def _block(schemes: List[str], workloads: List[str], policy: str) -> Dict[str, List[str]]:
    return {"scheme": schemes, "workload": workloads, "policy": [policy]}


#: Block name -> sweep axes (``scheme``, ``workload``, ``policy``).
BLOCKS: Dict[str, Dict[str, List[str]]] = {
    "relaxed-base": _block(["Baseline"], WORKLOAD_ORDER, "relaxed"),
    "relaxed-pra": _block(["PRA"], WORKLOAD_ORDER, "relaxed"),
    "relaxed-fga-half": _block(["FGA", "Half-DRAM"], WORKLOAD_ORDER, "relaxed"),
    "relaxed-dbi": _block(["DBI", "DBI+PRA"], WORKLOAD_ORDER, "relaxed"),
    "restricted-base": _block(["Baseline"], WORKLOAD_ORDER, "restricted"),
    "restricted-pra": _block(["PRA"], WORKLOAD_ORDER, "restricted"),
    "restricted-half": _block(
        ["Half-DRAM", "Half-DRAM+PRA"], WORKLOAD_ORDER, "restricted"
    ),
    "open-pra": _block(["PRA"], ["lbm", "libquantum", "MIX1", "MIX5"], "open"),
    "alone-relaxed": _block(["Baseline"], list(ALONE_WORKLOADS), "relaxed"),
    "alone-restricted": _block(["Baseline"], list(ALONE_WORKLOADS), "restricted"),
}
