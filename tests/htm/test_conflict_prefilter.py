"""Differential check: the conflict-scan prefilter changes nothing.

``Simulator._find_conflict`` answers "no conflict" without walking the
frames when no other thread context's cover words contain the probe
mask (DESIGN §11, "Conflict-scan prefilter").  :class:`PlainScanSimulator`
keeps the literal scan, and every run here must produce the same
``SimResult`` under both, with the atomicity oracle armed.  The plain
simulator also checks each scan on its own: whenever the prefilter
would have answered "no conflict", the literal scan must miss too.
"""

import pytest

from repro.config import HTMConfig, SimConfig
from repro.faults import parse_plan
from repro.htm.conflicts import visible
from repro.htm.ops import OpenTx, Read, Tx, Work, Write
from repro.htm.policy import legal_combinations
from repro.runner import ExperimentSpec
from repro.simulator import Simulator
from repro.workloads import make_workload

CANONICAL = ["logtm-se", "fastm", "suv", "lazy", "dyntm", "dyntm+suv", "mvsuv"]


class PlainScanSimulator(Simulator):
    """Every conflict scan walks every other context's visible frames."""

    def _find_conflict(self, core, line, is_write, *, mask):
        result = self._literal_scan(core, mask, is_write)
        # exactness per scan, not just per run: a prefilter miss
        # implies a literal miss
        assert result is None or not self._cover.misses(
            core.ctx.tid, mask, is_write), (core.idx, line, is_write)
        return result

    def _literal_scan(self, core, mask, is_write):
        def hits(frames):
            return any(
                visible(f) and (
                    f.write_sig._word & mask == mask
                    or (is_write and f.read_sig._word & mask == mask))
                for f in frames
            )

        for other in self.cores:
            if other.ctx is not None and other is not core and hits(
                    other.ctx.frames):
                return ("core", other.idx)
        if self._multiplex:
            mounted = {c.ctx for c in self.cores}
            for ctx in self._ctxs:
                if (ctx.done or not ctx.frames or ctx is core.ctx
                        or ctx in mounted):
                    continue
                if hits(ctx.frames):
                    return ("suspended", ctx)
        return None


def _run(sim_cls, config, scheme, threads, seed=3, fault_plan=""):
    sim = sim_cls(config, scheme=scheme, seed=seed,
                  faults=parse_plan(fault_plan), oracle=True)
    result = sim.run(threads)
    result.oracle = sim.oracle.verify()
    assert result.oracle["passed"]
    return result, sim._cover


def _compare(config, scheme, build, seed=3, fault_plan=""):
    """Run both simulators on fresh threads; return the prefiltered
    run's cover, whose counters show the prefilter fired."""
    plain, _ = _run(PlainScanSimulator, config, scheme, build(), seed,
                    fault_plan)
    result, cover = _run(Simulator, config, scheme, build(), seed,
                         fault_plan)
    assert result.to_json() == plain.to_json()
    return cover


def _compare_spec(spec):
    config = spec.build_config()

    def build():
        return make_workload(
            spec.workload, n_threads=spec.threads or config.n_cores,
            seed=spec.seed, scale=spec.scale,
        ).threads

    return _compare(config, spec.scheme, build, seed=spec.seed,
                    fault_plan=spec.fault_plan)


@pytest.mark.parametrize(
    "combo", legal_combinations(), ids=lambda c: c.name)
def test_every_legal_combo_multiplexed(combo):
    cover = _compare_spec(ExperimentSpec(
        "synthetic", scheme=combo.name, scale="tiny", seed=3, cores=4,
        threads=6,
    ))
    # lazy detection keeps every transactional access out of the scan
    assert cover.conflict_scans_prefiltered > 0 or combo.cd == "lazy"


@pytest.mark.parametrize("scheme", CANONICAL)
@pytest.mark.parametrize("workload", ["kmeans", "bayes", "labyrinth"])
def test_canonical_schemes_on_stamp_apps(workload, scheme):
    cover = _compare_spec(ExperimentSpec(
        workload, scheme=scheme, scale="tiny", seed=3, cores=8))
    assert cover.conflict_scans_prefiltered > 0


@pytest.mark.parametrize("scheme", ["logtm-se", "suv", "dyntm+suv"])
@pytest.mark.parametrize("fault_plan", ["tx-kill", "table-squeeze"])
def test_fault_presets(fault_plan, scheme):
    _compare_spec(ExperimentSpec(
        "bayes", scheme=scheme, scale="tiny", seed=3, cores=8,
        fault_plan=fault_plan,
    ))


# -- hand-built programs for the rebuild points ------------------------------
COUNTER, SHARED = 0x1000, 0x9000


def _open_nesting_threads():
    """Open-nested bumps publish and leave the scan mid-transaction;
    conflicts on ``SHARED`` abort parents, whose compensations run."""
    def worker(i):
        def bump():
            n = yield Read(COUNTER)
            yield Write(COUNTER, n + 1)

        def unbump():
            n = yield Read(COUNTER)
            yield Write(COUNTER, n - 1)

        def outer():
            yield OpenTx(bump, compensate=unbump, site=9)
            yield Read(0x4000 + 64 * i)
            yield Write(SHARED, i)
            yield Work(300)

        for _ in range(3):
            yield Work(100 * i)
            yield Tx(outer)
    return [lambda i=i: worker(i) for i in range(4)]


def _partial_abort_threads():
    """Inner levels conflict and re-execute alone; the outer levels keep
    their signatures in the scan across the partial abort."""
    def worker(i):
        def inner():
            yield Write(SHARED, i)
            yield Work(200)

        def outer():
            yield Write(0x5000 + 64 * i, i)
            yield Read(0x6000)
            yield Tx(inner)
            yield Write(0x7000 + 64 * i, i)

        for _ in range(3):
            yield Work(50 * i)
            yield Tx(outer)
    return [lambda i=i: worker(i) for i in range(4)]


@pytest.mark.parametrize("resolution", ["stall", "abort_requester"])
@pytest.mark.parametrize("scheme", ["logtm-se", "fastm", "suv"])
@pytest.mark.parametrize("program", [_open_nesting_threads,
                                     _partial_abort_threads])
def test_open_nesting_and_partial_abort(program, scheme, resolution):
    config = SimConfig(n_cores=4, htm=HTMConfig(resolution=resolution))
    cover = _compare(config, scheme, program)
    assert cover.conflict_scans_prefiltered > 0
