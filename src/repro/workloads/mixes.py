"""Workload definitions: homogeneous 4-copy runs and MIX1-6 (Table 4).

The paper evaluates 14 multiprogrammed workloads on the 4-core CMP:
four identical instances of each of the eight benchmarks, plus the six
heterogeneous mixes of Table 4.  Each benchmark also runs alone on one
core (``<app>-alone``): Eq. 3's IPC denominators and the single-core
runs of Table 1 and Figs. 2-3.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.workloads.profiles import BENCHMARKS, BenchmarkProfile, profile


@dataclass(frozen=True)
class Workload:
    """A named multiprogrammed workload (one profile per core)."""

    name: str
    apps: Tuple[BenchmarkProfile, ...]

    @property
    def num_cores(self) -> int:
        return len(self.apps)

    @property
    def app_names(self) -> Tuple[str, ...]:
        return tuple(p.name for p in self.apps)


def homogeneous(name: str, copies: int = 4) -> Workload:
    """Four identical instances of a single benchmark."""
    prof = profile(name)
    return Workload(name=prof.name, apps=(prof,) * copies)


def _mix(name: str, *apps: str) -> Workload:
    return Workload(name=name, apps=tuple(profile(a) for a in apps))


MIX1 = _mix("MIX1", "bzip2", "lbm", "libquantum", "omnetpp")
MIX2 = _mix("MIX2", "mcf", "em3d", "GUPS", "LinkedList")
MIX3 = _mix("MIX3", "bzip2", "mcf", "lbm", "em3d")
MIX4 = _mix("MIX4", "libquantum", "GUPS", "omnetpp", "LinkedList")
MIX5 = _mix("MIX5", "bzip2", "LinkedList", "lbm", "GUPS")
MIX6 = _mix("MIX6", "libquantum", "em3d", "omnetpp", "mcf")

MIXES: Dict[str, Workload] = {
    m.name: m for m in (MIX1, MIX2, MIX3, MIX4, MIX5, MIX6)
}

#: The 14 workloads of the evaluation: 8 homogeneous + 6 mixes.
ALL_WORKLOADS: Dict[str, Workload] = {
    **{name: homogeneous(name) for name in BENCHMARKS},
    **MIXES,
}


#: Each benchmark alone on one core, named ``<app>-alone``.  Reached by
#: name through :func:`workload`, but not one of the 14.
ALONE_WORKLOADS: Dict[str, Workload] = {
    f"{name}-alone": Workload(name=f"{name}-alone", apps=(profile(name),))
    for name in BENCHMARKS
}


def workload(name: str) -> Workload:
    """Look up one of the 14 evaluation workloads or an ``<app>-alone``."""
    for table in (ALL_WORKLOADS, ALONE_WORKLOADS):
        for key, value in table.items():
            if key.lower() == name.lower():
                return value
    raise KeyError(
        f"unknown workload {name!r}; known: {sorted(ALL_WORKLOADS)}, "
        f"or '<app>-alone' for one of {sorted(BENCHMARKS)}"
    )
