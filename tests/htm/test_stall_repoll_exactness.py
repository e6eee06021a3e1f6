"""Differential check: cheap stall re-polls change nothing observable.

A stalled core re-polls its request every ``stall_retry_period``
cycles.  The simulator answers a poll without rescanning or
re-resolving when nothing the full poll reads has changed (DESIGN §11,
"Stall re-polls"): in Python when the run records trace events or
injects faults, otherwise in the event kernel, which re-pushes the
armed poll event without calling it.  :class:`LiteralPollSimulator`
keeps the literal poll — unstall, re-issue the access, rescan,
re-resolve — and every run here must produce the same ``SimResult``
(and, when traced, the same trace event stream) under both, with the
atomicity oracle armed.
"""

import pytest

from repro.config import LINE_SHIFT, HTMConfig, SignatureConfig, SimConfig
from repro.faults import parse_plan
from repro.errors import BudgetExhausted
from repro.htm.ops import Read, Tx, Work, Write
from repro.htm.policy import ConflictResolution
from repro.runner import ExperimentSpec
from repro.signatures.hashes import H3HashFamily
from repro.simulator import STALLED, Simulator
from repro.trace import TX_STALL, Tracer
from repro.workloads import make_workload

#: counters that tell the two poll paths apart, so they differ by design
POLL_COUNTERS = ("stall_polls", "stall_repolls_skipped")

SCHEMES = [
    "logtm-se", "fastm", "suv", "lazy", "dyntm", "dyntm+suv",
    "undo+eager+polite+serial", "undo+eager+karma+serial",
    "undo+eager+greedy+serial", "undo+eager+timestamp+serial",
]
WORKLOADS = ["bayes", "yada", "labyrinth"]
#: every scheme fault-free; stall jitter (randomized poll periods) on
#: the default policy, a lazy/eager hybrid and a counting policy
CASES = [(w, s, "") for w in WORKLOADS for s in SCHEMES] + [
    (w, s, "jitter") for w in WORKLOADS
    for s in ("logtm-se", "dyntm+suv", "undo+eager+polite+serial")
]
#: untraced and fault-free, so armed polls run in the kernel
KERNEL_CASES = [
    (w, s) for w in WORKLOADS for s in ("logtm-se", "suv", "dyntm+suv")
]
MULTIPLEXED = ExperimentSpec(
    "bayes", scheme="logtm-se", scale="tiny", seed=5, cores=4, threads=7)


class LiteralPollSimulator(Simulator):
    """Every stall poll unstalls the core and re-issues its request."""

    def _stall_retry(self, core):
        if core.status != STALLED:
            return
        self._unstall(core)
        self._retry_pending(core)


def _run(sim_cls, config, scheme, build, seed=3, fault_plan="",
         traced=True):
    threads, verify = build()
    tracer = Tracer(events=traced, capacity=10**7)
    sim = sim_cls(
        config, scheme=scheme, seed=seed, faults=parse_plan(fault_plan),
        oracle=True, trace=tracer,
    )
    result = sim.run(threads)
    result.oracle = sim.oracle.verify()
    if verify is not None:
        verify(result.memory)
    kernel = result.phase_breakdown["kernel"]
    polls = {name: kernel.pop(name, None) for name in POLL_COUNTERS}
    polls["kernel_repeats"] = sim.queue.repeats
    assert tracer.dropped == 0
    return result, list(tracer.events or ()), polls


def _compare(config, scheme, build, **kw):
    """Run both simulators; return the literal run and the poll counters."""
    literal, literal_trace, _ = _run(
        LiteralPollSimulator, config, scheme, build, **kw)
    result, trace, polls = _run(Simulator, config, scheme, build, **kw)
    assert result.to_json() == literal.to_json()
    assert trace == literal_trace
    assert 0 <= polls["stall_repolls_skipped"] <= polls["stall_polls"]
    if kw.get("traced", True) or kw.get("fault_plan"):
        assert polls["kernel_repeats"] == 0
    return literal, literal_trace, polls


def _compare_spec(spec, traced=True):
    config = spec.build_config()

    def build():
        program = make_workload(
            spec.workload, n_threads=spec.threads or config.n_cores,
            seed=spec.seed, scale=spec.scale,
        )
        return program.threads, program.verify

    return _compare(config, spec.scheme, build, seed=spec.seed,
                    fault_plan=spec.fault_plan, traced=traced)


def _holders(trace, core):
    """The holder of every stall ``core`` entered, in order."""
    return [data["holder"] for _, kind, c, _, data in trace
            if kind == TX_STALL and c == core]


@pytest.mark.parametrize("workload,scheme,fault_plan", CASES)
def test_cheap_polls_match_literal_polls(workload, scheme, fault_plan):
    _, _, polls = _compare_spec(ExperimentSpec(
        workload, scheme=scheme, scale="tiny", seed=3, cores=8,
        fault_plan=fault_plan,
    ))
    if scheme == "logtm-se":
        # the comparison is not vacuous: the cheap path fired
        assert polls["stall_repolls_skipped"] > 0


@pytest.mark.parametrize("workload,scheme", KERNEL_CASES)
def test_kernel_polls_match_literal_polls(workload, scheme):
    _, _, polls = _compare_spec(ExperimentSpec(
        workload, scheme=scheme, scale="tiny", seed=3, cores=8,
    ), traced=False)
    if scheme == "logtm-se":
        assert polls["kernel_repeats"] > 0


def test_cheap_polls_match_literal_polls_multiplexed():
    _, _, polls = _compare_spec(MULTIPLEXED)
    assert polls["stall_repolls_skipped"] > 0


def test_kernel_polls_match_literal_polls_multiplexed():
    _, _, polls = _compare_spec(MULTIPLEXED, traced=False)
    assert polls["kernel_repeats"] > 0


# -- one hand-built case per disarm rule ------------------------------------
# core 2 (core 1 in the park case) waits on core 1 (core 0); each case
# changes what its next full poll would find without waking it


def test_parking_the_holder_disarms_its_waiters():
    # the holder is preempted mid-transaction: the waiter's next full
    # poll finds it suspended (and parks) instead of stalling again
    a = 0x1000

    def holder():
        def body():
            yield Write(a, 1)
            for _ in range(30):
                yield Work(400)
        yield Tx(body)

    def waiter():
        yield Work(50)
        yield Read(a)

    def filler():
        for _ in range(50):
            yield Work(200)

    config = SimConfig(
        n_cores=2, htm=HTMConfig(time_slice=1000, tx_slice_grace=1))
    literal, _, polls = _compare(
        config, "logtm-se", lambda: ([holder, waiter, filler], None))
    assert literal.context_switches >= 2
    assert polls["stall_repolls_skipped"] > 0


def test_a_nested_merge_ahead_of_the_holder_disarms():
    # with a 64-bit signature, lines p and c together (not alone) set
    # every bit of line x: core 0 covers x only once its child commits
    sig = SignatureConfig(bits=64, hashes=2)
    mask = H3HashFamily.shared(sig.hashes, sig.bits, sig.seed).mask

    def covers(bits, line):
        return bits & mask(line) == mask(line)

    x, p, c = next(
        (x, p, c)
        for x in range(1, 200) for p in range(200, 400)
        for c in range(400, 600)
        if covers(mask(p) | mask(c), x) and not covers(mask(p), x)
        and not covers(mask(c), x) and not covers(mask(x), p)
        and not covers(mask(x), c)
    )
    x, p, c = (line << LINE_SHIFT for line in (x, p, c))

    def merger():
        def child():
            yield Write(c, 1)

        def body():
            yield Write(p, 1)
            yield Tx(child)
            yield Work(300)
        yield Work(200)
        yield Tx(body)

    def holder():
        def body():
            yield Write(x, 1)
            yield Work(2000)
        yield Tx(body)

    def waiter():
        yield Work(50)
        yield Read(x)

    _, trace, polls = _compare(
        SimConfig(n_cores=3, signature=sig), "logtm-se",
        lambda: ([merger, holder, waiter], None))
    assert _holders(trace, 2)[0] == 1 and 0 in _holders(trace, 2)
    assert polls["stall_repolls_skipped"] > 0


def test_a_lazy_frame_publishing_ahead_of_the_holder_disarms():
    # core 0's lazy transaction read b while invisible; once it starts
    # publishing, the waiter's write to b hits core 0 before core 1
    b = 0x10000

    def publisher():
        def body():
            yield Read(b)
            for i in range(20):
                yield Write(0x80000 + 64 * i, i)
        yield Work(18_200)
        yield Tx(body)

    def holder():
        def body():
            yield Read(b)
            for i in range(120):
                yield Write(0x40000 + 64 * i, i)
        yield Tx(body)

    def waiter():
        yield Work(21_300)
        yield Write(b, 5)

    _, trace, polls = _compare(
        SimConfig(n_cores=3), "buffer+lazy+stall+width2",
        lambda: ([publisher, holder, waiter], None))
    assert _holders(trace, 2)[0] == 1 and 0 in _holders(trace, 2)
    assert polls["stall_repolls_skipped"] > 0


class _UncheckedStall(ConflictResolution):
    """Stalls on every conflict without looking for a wait-for cycle,
    so the requester's new edge can close one in ``_stall_on``."""

    name = "unchecked_stall"
    repoll_is_pure = True

    def resolve(self, sim, core, holder_idx, op):
        sim._stall_on(core, holder_idx, op)


def test_a_wait_for_cycle_closing_in_stall_on_disarms_its_members():
    # core 0 stalls on core 1 and is armed; core 1 then stalls on core
    # 0, closing the cycle 0 -> 1 -> 0: both must poll in full from
    # then on, since only a full poll can resolve a cycle
    x, y = 0x1000, 0x2000

    def first():
        def body():
            yield Write(x, 1)
            yield Work(100)
            yield Read(y)
        yield Tx(body)

    def second():
        def body():
            yield Write(y, 1)
            yield Work(1000)
            yield Read(x)
        yield Tx(body)

    sim = Simulator(SimConfig(n_cores=2), scheme="logtm-se")
    sim._resolution = _UncheckedStall()
    with pytest.raises(BudgetExhausted):
        sim.run([first, second], max_events=200)
    assert [c.waiting_on for c in sim.cores] == [1, 0]
    # core 0 polled in the kernel until the cycle closed ...
    assert sim.queue.repeats > 0
    # ... and neither core is armed or repeating afterwards
    assert sim._armed == {}
    assert not any(c.retry_event.repeating for c in sim.cores)
    assert sim._stall_polls > 0
