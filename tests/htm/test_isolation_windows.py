"""Quantitative isolation-window tests: the paper's central mechanism.

A neighbour that conflicts with a transaction in its end-of-transaction
processing must wait for the *whole* processing window.  These tests
measure that window directly per scheme and check the paper's ordering:
LogTM-SE's abort window grows with the write set; SUV's does not.
"""

import pytest

from repro.config import HTMConfig, SimConfig
from repro.htm.ops import Read, Tx, Work, Write
from repro.runner import ExperimentSpec, execute_spec
from repro.simulator import Simulator
from repro.workloads import make_workload

SHARED = 0x9000


def big_abort_run(scheme: str, n_lines: int, seed=3):
    """A transaction with an n-line write set loses to an older holder
    and must roll back; returns its Aborting time."""
    cfg = SimConfig(n_cores=4, htm=HTMConfig(resolution="abort_requester"))
    sim = Simulator(cfg, scheme=scheme, seed=seed)

    def holder():
        def body():
            yield Write(SHARED, 1)
            yield Work(100_000)
        yield Tx(body)

    def victim():
        def body():
            for i in range(n_lines):
                yield Write(0x20000 + i * 64, i)
            yield Write(SHARED, 2)
        yield Work(200)
        yield Tx(body)

    res = sim.run([holder, victim], max_events=20_000_000)
    assert res.aborts >= 1
    return res.breakdown.cycles["Aborting"] / max(res.aborts, 1)


def test_logtm_abort_window_scales_with_write_set():
    trap = HTMConfig().abort_trap_cycles
    small = big_abort_run("logtm-se", 8) - trap
    large = big_abort_run("logtm-se", 64) - trap
    # the software walk restores per logged line: ~8x the records
    assert large > 4 * small


def test_suv_abort_window_is_flat():
    small = big_abort_run("suv", 8)
    large = big_abort_run("suv", 64)
    # flipping 64 L1-table-resident entries costs (almost) the same as 8
    assert large <= 2 * small + 16


def test_fastm_abort_window_is_flat_without_overflow():
    small = big_abort_run("fastm", 8)
    large = big_abort_run("fastm", 64)
    assert large <= 2 * small + 16


def test_scheme_ordering_of_abort_windows():
    sizes = {s: big_abort_run(s, 48) for s in ("logtm-se", "fastm", "suv")}
    assert sizes["suv"] <= sizes["fastm"] <= sizes["logtm-se"]


@pytest.mark.parametrize("scheme,expect_flat",
                         [("logtm-se", False), ("suv", True)])
def test_neighbour_stall_tracks_abort_window(scheme, expect_flat):
    """A third thread touching the victim's data during rollback stalls
    for (roughly) the length of the repair window."""
    cfg = SimConfig(n_cores=4, htm=HTMConfig(resolution="abort_requester"))
    sim = Simulator(cfg, scheme=scheme, seed=4)
    lines = [0x20000 + i * 64 for i in range(64)]

    def holder():
        def body():
            yield Write(SHARED, 1)
            yield Work(60_000)
        yield Tx(body)

    def victim():
        def body():
            for addr in lines:
                yield Write(addr, 7)
            yield Write(SHARED, 2)
        yield Work(200)
        yield Tx(body)

    def prober():
        # repeatedly touch one of the victim's lines, non-transactionally
        for _ in range(60):
            yield Read(lines[0])
            yield Work(400)

    res = sim.run([holder, victim, prober], max_events=20_000_000)
    stalled = res.per_core[2].get("Stalled", 0)
    if expect_flat:
        assert stalled < 6000, f"SUV prober stalled {stalled} cycles"
    # in both cases the run completed and the final data is committed
    assert res.memory[lines[0]] == 7


#: Fidelity pins over a 4-core ``tiny`` matrix at seed 3: total cycles,
#: commits, aborts and the per-run isolation-window accounting
#: (``phase_breakdown["isolation"]``).  The golden digests pin ssca2 at
#: seed 3 but synthetic only at seed 7, and neither pins the window
#: accounting, so a change that shifts the paper's central quantity
#: without moving the digested fields still fails here.
ISOLATION_PINS = [
    ("ssca2", "logtm-se", 8792, 126, 40, dict(
        abort_processing_cycles=3276, aborted=40,
        commit_processing_cycles=1008, committed=126, open_cycles_max=1187,
        open_cycles_mean=167.12, open_cycles_total=27742, windows=166
    )),
    ("ssca2", "fastm", 6637, 126, 36, dict(
        abort_processing_cycles=504, aborted=36, commit_processing_cycles=756,
        committed=126, open_cycles_max=408, open_cycles_mean=135.648,
        open_cycles_total=21975, windows=162
    )),
    ("ssca2", "suv", 2744, 126, 33, dict(
        abort_processing_cycles=99, aborted=33, commit_processing_cycles=498,
        committed=126, open_cycles_max=192, open_cycles_mean=50.962,
        open_cycles_total=8103, windows=159
    )),
    ("synthetic", "logtm-se", 30257, 32, 70, dict(
        abort_processing_cycles=5768, aborted=70,
        commit_processing_cycles=256, committed=32, open_cycles_max=4241,
        open_cycles_mean=1056.51, open_cycles_total=107764, windows=102
    )),
    ("synthetic", "fastm", 21944, 32, 42, dict(
        abort_processing_cycles=588, aborted=42, commit_processing_cycles=192,
        committed=32, open_cycles_max=3332, open_cycles_mean=1073.757,
        open_cycles_total=79458, windows=74
    )),
    ("synthetic", "suv", 20606, 32, 40, dict(
        abort_processing_cycles=120, aborted=40, commit_processing_cycles=96,
        committed=32, open_cycles_max=3324, open_cycles_mean=1038.306,
        open_cycles_total=74758, windows=72
    )),
]


@pytest.mark.parametrize(
    "workload,scheme,cycles,commits,aborts,isolation",
    ISOLATION_PINS,
    ids=[f"{w}/{s}" for w, s, *_ in ISOLATION_PINS],
)
def test_isolation_accounting_is_pinned(
    workload, scheme, cycles, commits, aborts, isolation
):
    res = execute_spec(ExperimentSpec(
        workload=workload, scheme=scheme, scale="tiny", seed=3, cores=4
    ))
    assert (res.total_cycles, res.commits, res.aborts) == (cycles, commits, aborts)
    assert res.phase_breakdown["isolation"] == isolation


def test_stall_poll_counters_are_pinned():
    # bayes under logtm-se is stall-heavy: most polls find the same
    # holder and take the cheap path (DESIGN §11, "Stall re-polls").
    # The digests cannot see which path a poll took, so a change that
    # silently stops the cheap path from firing fails here instead.
    res = execute_spec(ExperimentSpec(
        workload="bayes", scheme="logtm-se", scale="tiny", seed=3, cores=4
    ))
    assert res.phase_breakdown["kernel"] == {
        "events": 3616, "peak_queue": 4,
        "stall_polls": 1985, "stall_repolls_skipped": 1965,
    }


def test_conflict_scan_counters_are_pinned():
    # kmeans is read-heavy with little contention: nearly every scan
    # misses, and the prefilter answers all but the real signature hits
    # without walking the frames (DESIGN §11, "Conflict-scan
    # prefilter").  The digests cannot see which path a scan took, so
    # a change that silently stops the prefilter from firing fails here.
    spec = ExperimentSpec(
        workload="kmeans", scheme="suv", scale="tiny", seed=3, cores=4)
    config = spec.build_config()
    program = make_workload(spec.workload, n_threads=config.n_cores,
                            seed=spec.seed, scale=spec.scale)
    sim = Simulator(config, scheme=spec.scheme, seed=spec.seed)
    res = sim.run(program.threads)
    assert res.total_cycles == 10264
    cover = sim._cover
    assert (cover.conflict_scans, cover.conflict_scans_prefiltered) == (
        8269, 8251)
