"""The benchmark's workloads and the code that runs one pass of them.

Every run is built through the simulator's public entry points
(``ExperimentSpec.build_config``, ``make_workload``, ``Simulator``,
``Simulator.run``, ``Program.verify``) at 16 cores, ``small`` scale and
the pure backend, on a cold modelled machine: each run constructs a
fresh ``Simulator``, so its caches, directory and redirect tables start
empty.
"""

from __future__ import annotations

import gc
import hashlib
import json
import random
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from hostref import HostGauge, rescale

ROOT = Path(__file__).resolve().parent.parent
SCALE = "small"
CORES = 16
DEFAULT_WORKLOAD_SEED = 3
#: a run may execute this many times its seed-3 event count before it
#: counts as livelocked (the largest seed-3 multiple seen on seeds 0-11
#: that complete is 1.3x, for bayes)
BUDGET_MULTIPLE = 2


@dataclass(frozen=True)
class RunDef:
    """One simulation of a workload: an app under a scheme."""

    app: str
    scheme: str
    #: kernel events of the seed-3 run, measured on the parent revision
    seed3_events: int

    @property
    def label(self) -> str:
        return f"{self.app}/{self.scheme}"

    @property
    def event_budget(self) -> int:
        return BUDGET_MULTIPLE * self.seed3_events


WORKLOADS: dict[str, tuple[RunDef, ...]] = {
    "stall-storm": (
        RunDef("bayes", "logtm-se", 228_067),
        RunDef("yada", "logtm-se", 277_355),
    ),
    "read-scan": (
        RunDef("kmeans", "logtm-se", 123_985),
        RunDef("kmeans", "suv", 122_963),
    ),
    "write-overflow": (
        RunDef("labyrinth", "suv", 420_605),
    ),
}


def digest_fields() -> list[str]:
    """The golden-digest field set the repository pins results by."""
    path = ROOT / "tests" / "data" / "golden_schemes.json"
    return json.loads(path.read_text())["fields"]


@dataclass
class Prepared:
    """A run's inputs: its spec, machine configuration and program."""

    run: RunDef
    spec: Any
    config: Any
    program: Any

    def simulator(self) -> Any:
        from repro.simulator import Simulator

        return Simulator(self.config, scheme=self.spec.scheme,
                         seed=self.spec.seed)


def prepare(workload: str, workload_seed: int) -> list[Prepared]:
    """Build the configuration and program of every run of a workload."""
    from repro.runner import ExperimentSpec
    from repro.workloads import make_workload

    out = []
    for run in WORKLOADS[workload]:
        spec = ExperimentSpec(run.app, scheme=run.scheme, scale=SCALE,
                              seed=workload_seed, cores=CORES)
        config = spec.build_config()
        program = make_workload(run.app, n_threads=config.n_cores,
                                seed=spec.seed, scale=spec.scale)
        out.append(Prepared(run, spec, config, program))
    return out


@dataclass
class Outcome:
    """What one run produced."""

    label: str
    cpu_s: float = 0.0
    cycles: int = 0
    events: int = 0
    digest: str | None = None
    #: why the run failed ("" = it did not)
    error: str = ""
    #: the program's own check rejected the result
    wrong: bool = False
    #: median host-gauge loop time during the run
    loop_s: float = 0.0

    @property
    def scaled_cpu_s(self) -> float:
        """``cpu_s`` at the nominal host speed (see :mod:`hostref`)."""
        return rescale(self.cpu_s, self.loop_s)


def execute(
    prep: Prepared,
    fields: list[str],
    gauge: HostGauge,
    instrument: Callable[[Any, Any], None] | None = None,
    release: Callable[[], None] | None = None,
) -> Outcome:
    """Run one simulation on a fresh machine and check its output.

    The timed region is ``Simulator.run`` plus ``Program.verify``, less
    the time the host gauge spent sampling.  A raised exception
    (``BudgetExhausted`` included) or a failed check makes the run
    fail; the pass goes on.
    """
    sim = prep.simulator()
    if instrument is not None:
        instrument(sim, prep.program)
    out = Outcome(prep.run.label)
    mark = gauge.mark()
    t0 = time.process_time()
    try:
        try:
            result = sim.run(prep.program.threads,
                             max_events=prep.run.event_budget)
        except Exception as exc:  # a failed run is reported, not fatal
            traceback.print_exc()
            out.error = f"{type(exc).__name__}: {exc}".splitlines()[0]
            out.cycles = sim.queue.now
            out.events = getattr(exc, "context", {}).get("events", 0)
            result = None
        else:
            try:
                prep.program.verify(result.memory)
            except AssertionError as exc:
                out.error = f"verify failed: {exc}"
                out.wrong = True
        cpu = time.process_time() - t0
    finally:
        if release is not None:
            release()
    out.loop_s, spent = gauge.since(mark)
    out.cpu_s = cpu - spent
    if result is not None:
        out.cycles = result.total_cycles
        out.events = result.events_executed
        res = result.to_dict()
        payload = {k: res[k] for k in fields}
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        out.digest = hashlib.sha256(canonical.encode()).hexdigest()
    return out


def run_pass(
    prepared: list[Prepared],
    fields: list[str],
    rng: random.Random,
    gauge: HostGauge,
    **hooks: Any,
) -> list[Outcome]:
    """One pass: every run of the workload once, in a seeded order."""
    order = list(prepared)
    rng.shuffle(order)
    gc.collect()
    return [execute(prep, fields, gauge, **hooks) for prep in order]


def drift(passes: list[list[Outcome]]) -> dict[str, list[str]]:
    """Runs whose digest differed between passes: label -> digests."""
    seen: dict[str, set[str]] = {}
    for outcomes in passes:
        for out in outcomes:
            if out.digest is not None:
                seen.setdefault(out.label, set()).add(out.digest)
    return {k: sorted(v) for k, v in seen.items() if len(v) > 1}
