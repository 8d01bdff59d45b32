"""Property-based controller tests: random request streams always drain.

For any random batch of requests and any scheme/policy, the controller
must serve everything without deadlock, and its counters must remain
consistent (served = enqueued, hits + misses partition services,
activation histogram totals match activation counts).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.controller.memctrl import ChannelController
from repro.controller.policies import RowPolicy
from repro.core.schemes import BASELINE, FGA, HALF_DRAM, HALF_DRAM_PRA, PRA
from repro.dram.channel import Channel
from repro.dram.commands import Address, ReqKind, Request
from repro.dram.protocol import ProtocolChecker
from repro.dram.timing import DDR3_1600
from repro.power.accounting import PowerAccountant
from repro.power.params import DDR3_1600_POWER

T = DDR3_1600

request_specs = st.lists(
    st.tuples(
        st.booleans(),                          # is_write
        st.integers(min_value=0, max_value=1),  # rank
        st.integers(min_value=0, max_value=7),  # bank
        st.integers(min_value=0, max_value=7),  # row
        st.integers(min_value=0, max_value=15),  # column
        st.integers(min_value=1, max_value=255),  # dirty mask
        st.integers(min_value=0, max_value=30),  # arrival stride
    ),
    min_size=1,
    max_size=60,
)

schemes = st.sampled_from([BASELINE, FGA, HALF_DRAM, PRA, HALF_DRAM_PRA])
policies = st.sampled_from(
    [RowPolicy.RELAXED_CLOSE, RowPolicy.RESTRICTED_CLOSE, RowPolicy.OPEN_PAGE]
)


def build_controller(scheme, policy):
    channel = Channel(
        T,
        num_ranks=2,
        burst_cycles_multiplier=scheme.burst_multiplier,
    )
    acct = PowerAccountant(DDR3_1600_POWER, T, chips_per_rank=8)
    return (
        ChannelController(channel, scheme, T, policy, acct, read_queue_size=16,
                          write_queue_size=16, drain_high_watermark=12,
                          drain_low_watermark=4),
        acct,
    )


@given(request_specs, schemes, policies)
@settings(max_examples=60, deadline=None)
def test_random_streams_drain_and_counters_balance(specs, scheme, policy):
    ctrl, acct = build_controller(scheme, policy)
    cycle = 0
    total_reads = total_writes = 0
    for is_write, rank, bank, row, col, mask, stride in specs:
        cycle += stride
        req = Request(
            kind=ReqKind.WRITE if is_write else ReqKind.READ,
            addr=Address(channel=0, rank=rank, bank=bank, row=row, column=col),
            arrive_cycle=cycle,
            dirty_mask=mask,
        )
        if is_write:
            total_writes += 1
        else:
            total_reads += 1
        ctrl.submit(req)
        # Interleave a little scheduling with arrivals.
        issued, hint = ctrl.step(cycle)
        cycle = cycle + 1 if issued else cycle

    guard = 0
    while ctrl.pending and guard < 400_000:
        issued, hint = ctrl.step(cycle)
        cycle = cycle + 1 if issued else max(hint, cycle + 1)
        guard += 1
    assert not ctrl.pending, f"deadlock with {scheme.name}/{policy.value}"

    stats = ctrl.stats
    assert stats.reads.served == total_reads
    assert stats.writes.served == total_writes
    assert stats.reads.row_hits <= stats.reads.served
    assert stats.writes.row_hits <= stats.writes.served
    assert stats.reads.false_hits <= stats.reads.served
    assert len(ctrl.completed_reads) == total_reads
    # The accountant's histogram covers exactly the issued activations.
    assert sum(acct.activations_by_granularity.values()) == stats.total_activations
    assert acct.read_bursts == total_reads
    assert acct.write_bursts == total_writes
    if not scheme.write_uses_mask:
        assert stats.reads.false_hits == 0
        assert stats.writes.false_hits == 0


@given(request_specs)
@settings(max_examples=30, deadline=None)
def test_pra_activation_granularity_covers_masks(specs):
    """Every PRA write is served by an activation covering its mask."""
    ctrl, acct = build_controller(PRA, RowPolicy.RELAXED_CLOSE)
    cycle = 0
    for is_write, rank, bank, row, col, mask, stride in specs:
        cycle += stride
        req = Request(
            kind=ReqKind.WRITE if is_write else ReqKind.READ,
            addr=Address(channel=0, rank=rank, bank=bank, row=row, column=col),
            arrive_cycle=cycle,
            dirty_mask=mask,
        )
        ctrl.submit(req)
    guard = 0
    while ctrl.pending and guard < 400_000:
        issued, hint = ctrl.step(cycle)
        cycle = cycle + 1 if issued else max(hint, cycle + 1)
        guard += 1
    assert not ctrl.pending
    # Writes were all served despite partial activations: the service
    # loop itself is the oracle (a non-covering activation would strand
    # the request as an endless false hit and trip the guard).


# High-locality streams: a tiny rank x bank x row space with bursty
# arrivals piles mask-compatible column hits onto open rows, which is
# exactly what makes the scheduler commit multi-command burst streaks.
streak_specs = st.lists(
    st.tuples(
        st.booleans(),                           # is_write
        st.integers(min_value=0, max_value=1),   # rank
        st.integers(min_value=0, max_value=1),   # bank
        st.integers(min_value=0, max_value=1),   # row
        st.integers(min_value=0, max_value=15),  # column
        st.integers(min_value=1, max_value=255),  # dirty mask
        st.integers(min_value=0, max_value=2),   # arrival stride
    ),
    min_size=8,
    max_size=60,
)

streak_schemes = st.sampled_from([BASELINE, PRA, HALF_DRAM_PRA])


@given(streak_specs, streak_schemes, policies)
@settings(max_examples=60, deadline=None)
def test_streak_schedules_obey_protocol(specs, scheme, policy):
    """Burst-streak commits never violate DDR3 rules or PRA masking.

    The :class:`ProtocolChecker` shadows every command the controller
    claims to issue and raises on any tCCD/tRTRS/tRRD/tFAW spacing
    breach, command-bus conflict, or a column command whose needed mask
    is not covered by the open activation — so a clean drain of a
    streak-heavy stream is the whole assertion.
    """
    ctrl, acct = build_controller(scheme, policy)
    ctrl.protocol_checker = ProtocolChecker(
        T, relax_act_constraints=scheme.relax_act_constraints
    )
    cycle = 0
    for is_write, rank, bank, row, col, mask, stride in specs:
        cycle += stride
        ctrl.submit(Request(
            kind=ReqKind.WRITE if is_write else ReqKind.READ,
            addr=Address(channel=0, rank=rank, bank=bank, row=row, column=col),
            arrive_cycle=cycle,
            dirty_mask=mask,
        ))
    guard = 0
    while ctrl.pending and guard < 400_000:
        issued, hint = ctrl.step(cycle)
        cycle = cycle + 1 if issued else max(hint, cycle + 1)
        guard += 1
    assert not ctrl.pending, f"deadlock with {scheme.name}/{policy.value}"
    assert ctrl.protocol_checker.commands_checked > 0
    stats = ctrl.stats
    # Streak accounting: each committed streak covers >= 2 column
    # commands, and no streak can serve more than the queue could hold.
    assert stats.streak_commands >= 2 * stats.streaks
    assert stats.streak_commands <= stats.reads.served + stats.writes.served


def test_same_row_read_run_commits_a_streak():
    """A stack of same-row reads must go out as one multi-command streak."""
    ctrl, acct = build_controller(PRA, RowPolicy.OPEN_PAGE)
    ctrl.protocol_checker = ProtocolChecker(T, relax_act_constraints=True)
    for col in range(8):
        ctrl.submit(Request(
            kind=ReqKind.READ,
            addr=Address(channel=0, rank=0, bank=0, row=3, column=col),
            arrive_cycle=0,
        ))
    cycle = 0
    guard = 0
    while ctrl.pending and guard < 100_000:
        issued, hint = ctrl.step(cycle)
        cycle = cycle + 1 if issued else max(hint, cycle + 1)
        guard += 1
    assert not ctrl.pending
    assert ctrl.stats.reads.served == 8
    assert ctrl.stats.streaks >= 1
    assert ctrl.stats.streak_commands >= 2
    # Every service that didn't need its own ACT rode an open-row hit
    # (the row-hit cap may split the run across several activations).
    assert ctrl.stats.reads.row_hits == 8 - ctrl.stats.reads.activations
    assert ctrl.stats.reads.activations <= 2
