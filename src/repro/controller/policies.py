"""Row-buffer management policies (Section 5.1.2).

* **relaxed close-page** — the paper's default: a row stays open while
  any queued request targets it, is closed otherwise, and idle ranks
  drop into precharge power-down.  Row reuse is additionally capped at
  four accesses per activation to avoid starvation (per the Minimalist
  Open-page argument the paper adopts).
* **restricted close-page** — every access is an atomic
  ACT + column + PRE (auto-precharge); used with line-interleaved
  mapping for the Figure 11(a)/Figure 14 studies.
* **open page** — classical open-row policy, kept as an extension for
  ablation studies (not a paper configuration).
"""

from __future__ import annotations

import enum


class RowPolicy(enum.Enum):
    RELAXED_CLOSE = "relaxed-close-page"
    RESTRICTED_CLOSE = "restricted-close-page"
    OPEN_PAGE = "open-page"

    @property
    def auto_precharge(self) -> bool:
        """Column accesses implicitly precharge (restricted policy)."""
        return self is RowPolicy.RESTRICTED_CLOSE

    @property
    def allows_row_hits(self) -> bool:
        return self is not RowPolicy.RESTRICTED_CLOSE

    @property
    def closes_idle_rows(self) -> bool:
        """Proactively close rows nothing in the queues can use."""
        return self is RowPolicy.RELAXED_CLOSE

    @property
    def uses_power_down(self) -> bool:
        """Idle, fully precharged ranks enter precharge power-down."""
        return self is not RowPolicy.OPEN_PAGE


#: Row-hit cap per activation under the relaxed policy (Section 5.1.2).
ROW_HIT_CAP = 4

#: FR-FCFS scan window: the oldest requests a scheduling pass visits.
SCAN_DEPTH = 12
