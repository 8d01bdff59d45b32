"""DRAM device substrate: geometry, timing, requests, ranks, channels.

This package is the reproduction's stand-in for DRAMSim2: a cycle-level
model of a DDR3-1600 memory system with the additional device behaviour
introduced by the paper (the PRA command, masked activations, relaxed
tRRD/tFAW for partial activations).

One model holds the device state.  Each channel's
:class:`~repro.dram.soa.TimingCore` is that state; the controller
(:mod:`repro.controller.memctrl`) is its only writer for ACT, RD/WR
and PRE, and :class:`~repro.dram.rank.Rank` for refresh and
power-down.  :mod:`repro.dram.protocol` re-derives the DDR3 rules from
the command stream alone and is the oracle the tests hold it to.
"""

from repro.dram.channel import Channel
from repro.dram.commands import Address, ReqKind, Request
from repro.dram.geometry import (
    BASELINE_GEOMETRY,
    FULL_MASK,
    LINE_BYTES,
    WORD_BYTES,
    WORDS_PER_LINE,
    ChipGeometry,
    SystemGeometry,
)
from repro.dram.mapping import (
    AddressMapper,
    Interleaving,
    dirty_words_to_mask,
    mats_activated,
    word_index_to_mat_group,
)
from repro.dram.rank import ActivationWindow, BankStateError, Rank
from repro.dram.timing import DDR3_1600, DDR4_2400, TimingParams

__all__ = [
    "ActivationWindow",
    "Address",
    "AddressMapper",
    "BankStateError",
    "BASELINE_GEOMETRY",
    "Channel",
    "ChipGeometry",
    "DDR3_1600",
    "DDR4_2400",
    "dirty_words_to_mask",
    "FULL_MASK",
    "Interleaving",
    "LINE_BYTES",
    "mats_activated",
    "Rank",
    "ReqKind",
    "Request",
    "SystemGeometry",
    "TimingParams",
    "WORD_BYTES",
    "word_index_to_mat_group",
    "WORDS_PER_LINE",
]
