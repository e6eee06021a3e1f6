"""Unit tests for the discrete-event kernel."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import BudgetExhausted
from repro.sim.kernel import EventQueue


def test_events_run_in_time_order():
    q = EventQueue()
    order = []
    q.schedule(30, lambda: order.append("c"))
    q.schedule(10, lambda: order.append("a"))
    q.schedule(20, lambda: order.append("b"))
    q.run()
    assert order == ["a", "b", "c"]


def test_ties_break_by_insertion_order():
    q = EventQueue()
    order = []
    for tag in "xyz":
        q.schedule(5, lambda t=tag: order.append(t))
    q.run()
    assert order == ["x", "y", "z"]


def test_now_advances_to_event_time():
    q = EventQueue()
    seen = []
    q.schedule(7, lambda: seen.append(q.now))
    q.schedule(42, lambda: seen.append(q.now))
    q.run()
    assert seen == [7, 42]


def test_nested_scheduling_is_relative_to_current_time():
    q = EventQueue()
    seen = []

    def outer():
        q.schedule(5, lambda: seen.append(q.now))

    q.schedule(10, outer)
    q.run()
    assert seen == [15]


def test_cancelled_event_is_skipped():
    q = EventQueue()
    hit = []
    ev = q.schedule(1, lambda: hit.append(1))
    ev.cancel()
    q.schedule(2, lambda: hit.append(2))
    q.run()
    assert hit == [2]


def test_negative_delay_rejected():
    q = EventQueue()
    with pytest.raises(ValueError):
        q.schedule(-1, lambda: None)


def test_at_schedules_absolute_time():
    q = EventQueue()
    seen = []
    q.schedule(3, lambda: q.at(9, lambda: seen.append(q.now)))
    q.run()
    assert seen == [9]


def test_event_budget_guard():
    q = EventQueue()

    def rearm():
        q.schedule(1, rearm)

    q.schedule(1, rearm)
    with pytest.raises(RuntimeError, match="event budget"):
        q.run(max_events=100)


def test_time_budget_guard():
    q = EventQueue()

    def rearm():
        q.schedule(10, rearm)

    q.schedule(10, rearm)
    with pytest.raises(RuntimeError, match="time budget"):
        q.run(max_time=1000)


def test_len_counts_live_events():
    q = EventQueue()
    a = q.schedule(1, lambda: None)
    q.schedule(2, lambda: None)
    assert len(q) == 2
    a.cancel()
    assert len(q) == 1


def test_run_returns_executed_count():
    q = EventQueue()
    for i in range(5):
        q.schedule(i, lambda: None)
    assert q.run() == 5


def test_peak_queue_tracks_live_events_only():
    # regression: cancelled entries awaiting pop are queue garbage, not
    # queue pressure — peak_queue must not count them
    q = EventQueue()
    events = [q.schedule(5, lambda: None) for _ in range(10)]
    assert q.peak_queue == 10
    for ev in events[:8]:
        ev.cancel()
    q.schedule(1, lambda: None)  # live: 2 pending + this = 3 < 10
    q.run()
    assert q.peak_queue == 10

    q2 = EventQueue()
    for _ in range(4):
        q2.schedule(3, lambda: None).cancel()
    q2.schedule(2, lambda: None)
    q2.run()
    # each event is cancelled before the next schedule, so at most one
    # event is ever live; counting cancelled garbage would report 5 here
    assert q2.peak_queue == 1


@given(st.lists(st.integers(min_value=0, max_value=6),
                min_size=1, max_size=40))
@settings(max_examples=60, deadline=None)
def test_schedule_fast_order_matches_schedule(delays):
    # schedule_fast shares schedule's sequence: interleaving the two
    # delivers in the same (time, call order) as schedule alone
    orders = []
    for fast in (False, True):
        q = EventQueue()
        log = []
        for i, delay in enumerate(delays):
            call = q.schedule_fast if fast and i % 2 else q.schedule
            call(delay, lambda i=i: log.append((q.now, i)))
        q.run()
        orders.append(log)
    assert orders[0] == orders[1]
    assert orders[0] == sorted(orders[0])


def test_zero_delay_mid_drain_runs_same_cycle():
    # zero-delay events scheduled mid-drain run in the same cycle, ahead
    # of events already queued for a later one
    q = EventQueue()
    log = []

    def chain(n):
        log.append((q.now, n))
        if n < 3:
            q.schedule_fast(0, lambda: chain(n + 1))

    q.schedule(5, lambda: chain(0))
    q.schedule(6, lambda: log.append((q.now, "later")))
    q.run()
    assert log == [(5, 0), (5, 1), (5, 2), (5, 3), (6, "later")]


def test_event_budget_leaves_tail_resumable():
    q = EventQueue()
    log = []
    for i in range(6):
        q.schedule(i, lambda i=i: log.append(i))
    with pytest.raises(BudgetExhausted) as exc_info:
        q.run(max_events=3)
    assert exc_info.value.context.get("events") == 3
    assert log == [0, 1, 2]
    assert q.run() == 3
    assert log == [0, 1, 2, 3, 4, 5]


def test_time_budget_ignores_cancelled_events():
    # only a *live* event past the limit exhausts the budget
    q = EventQueue()
    log = []
    q.schedule(1, lambda: log.append(1))
    q.schedule(9, lambda: log.append(9)).cancel()
    assert q.run(max_time=5) == 1
    assert log == [1]


def test_step_advances_now_and_len():
    q = EventQueue()
    q.schedule(4, lambda: None)
    q.schedule(7, lambda: None)
    assert len(q) == 2
    assert q.step()
    assert (q.now, len(q)) == (4, 1)
    assert q.step()
    assert (q.now, len(q)) == (7, 0)
    assert not q.step()


def test_schedule_fast_rejects_negative_delay():
    q = EventQueue()
    with pytest.raises(ValueError):
        q.schedule_fast(-1, lambda: None)


# -- repeating events -------------------------------------------------------
# A repeating event must be indistinguishable from a callback whose only
# effect is ``schedule(period, itself)``: same executed order, same
# (time, seq) keys, same executed count, same live count and peak.


def _poll_scenario(q, repeat, period, first, events, stop, unrepeat_at):
    """Schedule a self-rescheduling poll among ordinary events.

    Each ordinary event logs the poll's current ``(time, seq)`` key, so
    any tie broken differently from the literal chain shows up in the
    log.  Some ordinary events schedule a follow-up when they run, i.e.
    after the poll's re-push has taken its ``seq``.
    """
    log = []
    cur = []

    def poll():
        cur[0] = q.schedule(period, poll)

    def note(tag):
        log.append((q.now, tag, cur[0].time, cur[0].seq))

    cur.append(q.schedule(first, poll))
    if repeat:
        cur[0].repeat(period)
    for i, (delay, follow) in enumerate(events):
        def fire(i=i, follow=follow):
            note(i)
            if follow is not None:
                q.schedule(follow, lambda: note(-1 - i))
        q.schedule(delay, fire)
    if unrepeat_at is not None:
        q.schedule(unrepeat_at, lambda: cur[0].stop_repeating())
    q.schedule(stop, lambda: cur[0].cancel())
    return log


def _drive(q, loop, limit):
    """Run ``q`` under one of the loops; the outcome, budget included."""
    try:
        if loop == "run":
            # a hang guard, not a budget under test: an event that kept
            # repeating after its cancel would never drain
            return q.run(max_events=10_000)
        if loop == "max_events":
            return q.run(max_events=limit)
        if loop == "max_time":
            return q.run(max_time=limit)
        steps = 0
        while steps < limit and q.step():
            steps += 1
        return steps
    except BudgetExhausted as exc:
        return ("exhausted", str(exc), exc.context.get("events"))


@given(
    period=st.integers(min_value=1, max_value=5),
    first=st.integers(min_value=1, max_value=5),
    events=st.lists(
        st.tuples(st.integers(min_value=0, max_value=25),
                  st.none() | st.integers(min_value=0, max_value=6)),
        max_size=12),
    stop=st.integers(min_value=1, max_value=40),
    unrepeat_at=st.none() | st.integers(min_value=0, max_value=30),
    loop=st.sampled_from(["run", "max_events", "max_time", "step"]),
    limit=st.integers(min_value=0, max_value=40),
)
@settings(max_examples=300, deadline=None)
def test_repeating_event_matches_a_self_rescheduling_callback(
        period, first, events, stop, unrepeat_at, loop, limit):
    outcomes = []
    for repeat in (False, True):
        q = EventQueue()
        log = _poll_scenario(q, repeat, period, first, events, stop,
                             unrepeat_at)
        outcome = _drive(q, loop, limit)
        outcomes.append((log, outcome, q.now, len(q), q.peak_queue))
        if not repeat:
            assert q.repeats == 0
    assert outcomes[0] == outcomes[1]


def test_zero_period_repeat_matches_a_zero_delay_callback():
    # the literal reschedule goes through the zero-delay FIFO, the
    # repeat through the heap; keys order them identically
    outcomes = []
    for repeat in (False, True):
        q = EventQueue()
        log = _poll_scenario(q, repeat, 0, 2, [(2, 0), (2, None), (3, 1)],
                             9, None)
        outcomes.append((log, _drive(q, "max_events", 40), q.now))
    assert outcomes[0] == outcomes[1]


def test_repeating_event_runs_no_callback_and_counts_as_executed():
    q = EventQueue()
    calls = []
    ev = q.schedule(10, lambda: calls.append(q.now))
    ev.repeat(10)
    q.schedule(45, ev.cancel)
    assert q.run(max_events=100) == 5  # pops at 10, 20, 30, 40, then the cancel
    assert (calls, q.repeats, len(q), q.now) == ([], 4, 0, 45)


def test_cancelling_a_repeating_event_drains_the_queue():
    q = EventQueue()
    ev = q.schedule(3, lambda: None)
    ev.repeat(3)
    assert ev.repeating and len(q) == 1
    ev.cancel()
    assert ev.cancelled and not ev.repeating and len(q) == 0
    assert q.run(max_events=100) == 0


def test_stop_repeating_runs_fn_at_the_current_key():
    q = EventQueue()
    seen = []
    ev = q.schedule(4, lambda: seen.append((q.now, ev.seq)))
    ev.repeat(4)
    q.schedule(9, ev.stop_repeating)  # after the repeats at 4 and 8
    assert q.run(max_events=100) == 4
    # the third pop runs fn with the key the repeat at 8 gave it
    assert seen == [(12, 3)] and q.repeats == 2


def test_compaction_keeps_a_pending_repeat():
    q = EventQueue()
    ev = q.schedule(5, lambda: None)
    ev.repeat(5)
    doomed = [q.schedule(7, lambda: None) for _ in range(100)]
    for d in doomed:
        d.cancel()  # triggers compaction once cancellations dominate
    assert len(q._heap) < 101  # compacted
    assert ev.repeating and any(item[2] is ev for item in q._heap)
    q.schedule(23, ev.cancel)
    assert q.run(max_events=100) == 5 and q.repeats == 4


def test_repeat_rejects_bad_periods_and_finished_events():
    q = EventQueue()
    ev = q.schedule(1, lambda: None)
    with pytest.raises(ValueError):
        ev.repeat(-1)
    q.run()
    with pytest.raises(ValueError):
        ev.repeat(3)
