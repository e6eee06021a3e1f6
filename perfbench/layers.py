"""Which boundary calls the traced run wraps, and the per-layer metrics.

One :class:`LayerProbe` instruments the simulators of one traced pass.
Its observers measure the attribution ratios from outside the
simulator, by reading ``core.waiting_on`` and the holder frames' exact
``read_lines``/``write_lines`` around the wrapped calls:

* a stall poll *repeats* when the core is stalled on the same holder
  after the poll as before it;
* a conflict-scan hit is a Bloom *false positive* when no frame of the
  holder has the line in its exact sets in a conflicting way (a write
  by the holder, or a read by the holder when the probe is a write).
"""

from __future__ import annotations

from typing import Any

from spans import SpanRecorder

#: per-layer metric -> unit; the names match BENCHMARK.json ``per_layer``
UNITS = {
    "sim.events": "count",
    "sim.peak_queue": "count",
    "sim.self_s": "s",
    "sim.us_per_event": "us",
    "simulator.steps": "count",
    "simulator.stall_polls": "count",
    "simulator.stall_poll_share": "ratio",
    "simulator.stall_poll_repeat_ratio": "ratio",
    "simulator.self_s": "s",
    "simulator.conflict_scans": "count",
    "simulator.frames_probed": "count",
    "simulator.conflict_hit_ratio": "ratio",
    "simulator.conflict_false_positive_ratio": "ratio",
    "simulator.conflict_scan_s": "s",
    "policy.resolve_calls": "count",
    "policy.self_s": "s",
    "vm.pre_read_calls": "count",
    "vm.pre_write_calls": "count",
    "vm.commit_calls": "count",
    "vm.abort_calls": "count",
    "vm.self_s": "s",
    "core.rt_lookups": "count",
    "core.rt_l1_miss_rate": "ratio",
    "core.summary_tests": "count",
    "core.summary_filter_rate": "ratio",
    "core.pool_allocs": "count",
    "core.self_s": "s",
    "mem.reads": "count",
    "mem.writes": "count",
    "mem.l1_hit_ratio": "ratio",
    "mem.directory_ops": "count",
    "mem.self_s": "s",
    "signatures.adds": "count",
    "signatures.clears": "count",
    "signatures.self_s": "s",
    "workloads.build_s": "s",
    "workloads.verify_s": "s",
    "trace.overhead_ratio": "ratio",
}

_VM_CALLS = (
    "on_begin", "pre_read", "pre_write", "post_write", "commit", "abort",
    "nontx_translate", "validate", "note_outcome", "merge_nested", "mode_for",
)
_MEM_READS = ("read",)
_MEM_WRITES = ("write", "local_write", "allocate_write")
_MEM_OTHER = (
    "invalidate_remote", "flush_to_l2", "drop_speculative", "mark_speculative",
)
_DIRECTORY_CALLS = (
    "entry", "record_shared", "record_owner", "drop", "holders", "owner_of",
)


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


class LayerProbe:
    """Wraps one simulator (and its program) for the traced pass."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.rec = recorder
        self.counts = recorder.counts
        self._peak_queue = 0
        self._sim: Any = None

    # ------------------------------------------------------------------
    def instrument(self, sim: Any, program: Any) -> None:
        """Wrap every layer boundary of ``sim`` before ``sim.run``.

        Call :meth:`release` once the run and its check are done, before
        instrumenting the next run.
        """
        from repro.signatures.bloom import BloomSignature

        rec = self.rec
        self._sim = sim

        # sim: the kernel's run loop and the scheduling calls into it;
        # every event callback becomes a simulator span under ``run``
        rec.wrap(sim, "run", "simulator")
        rec.wrap(sim.queue, "run", "sim")
        for attr in ("schedule", "schedule_fast"):
            rec.wrap(sim.queue, attr, "sim")
        rec.wrap_callbacks(sim.queue, "simulator", "event")

        # simulator: step machine, stall/retry, conflict scan
        rec.wrap(sim, "_step", "simulator", after=self._counter("steps"))
        rec.wrap(sim, "_stall_retry", "simulator",
                 before=self._poll_before, after=self._poll_after)
        rec.wrap(sim, "_find_conflict", "simulator", after=self._scan_after)
        rec.wrap(sim, "_stall_on", "simulator")
        rec.wrap(sim, "_begin_abort", "simulator")

        # policy: conflict resolution
        rec.wrap(sim._resolution, "resolve", "policy",
                 after=self._counter("resolve"))

        # vm: the version manager's hooks
        for attr in _VM_CALLS:
            rec.wrap(sim.scheme, attr, "vm",
                     after=self._counter(f"vm.{attr}"))

        # core: SUV's redirect table, summary filter and preserved pool
        self._instrument_core(sim.scheme)

        # mem: the hierarchy's access entry points and its directory
        hierarchy = sim.hierarchy
        for attr in _MEM_READS + _MEM_WRITES:
            rec.wrap(hierarchy, attr, "mem", after=self._mem_after(attr))
        for attr in _MEM_OTHER:
            rec.wrap(hierarchy, attr, "mem")
        for attr in _DIRECTORY_CALLS:
            rec.count_calls(hierarchy.directory, attr, "directory_ops")

        # signatures: per-line masks and the frames' read/write filters
        rec.wrap(sim, "_mask_of", "signatures", "mask_of")
        rec.wrap(BloomSignature, "add", "signatures",
                 after=self._counter("sig.add"))
        rec.wrap(BloomSignature, "clear", "signatures",
                 after=self._counter("sig.clear"))
        rec.wrap(BloomSignature, "union_inplace", "signatures")

        # workloads: the functional check of the result
        rec.wrap(program, "verify", "workloads")

    def _instrument_core(self, scheme: Any) -> None:
        from repro.core.preserved_pool import PreservedPool
        from repro.core.redirect_table import RedirectTable
        from repro.core.summary import RedirectSummaryFilter

        rec = self.rec
        for part in list(vars(scheme).values()):
            if isinstance(part, RedirectTable):
                rec.wrap(part, "lookup", "core", "rt_lookup",
                         after=self._rt_after)
                for attr in ("insert", "remove", "squeeze"):
                    rec.wrap(part, attr, "core", f"rt_{attr}")
            elif isinstance(part, RedirectSummaryFilter):
                rec.wrap(part, "might_be_redirected", "core", "summary_test",
                         after=self._summary_after)
                for attr in ("add", "remove", "maybe_rebuild"):
                    rec.wrap(part, attr, "core", f"summary_{attr}")
            elif isinstance(part, PreservedPool):
                rec.wrap(part, "allocate_line", "core", "pool_allocate",
                         after=self._counter("pool.allocate"))
                rec.wrap(part, "free_line", "core", "pool_free")

    def release(self) -> None:
        """Collect the run's end-of-run gauges, then unwrap everything."""
        self._peak_queue = max(self._peak_queue, self._sim.queue.peak_queue)
        self.rec.restore()

    # -- observers ------------------------------------------------------
    def _counter(self, name: str):
        counts = self.counts

        def after(token: Any, result: Any, *args: Any) -> None:
            counts[name] += 1
        return after

    def _poll_before(self, core: Any) -> int | None:
        return core.waiting_on

    def _poll_after(self, holder: int | None, result: Any, core: Any) -> None:
        self.counts["stall_polls"] += 1
        if core.waiting_on is not None and core.waiting_on == holder:
            self.counts["stall_poll_repeats"] += 1

    def _scan_after(self, token: Any, result: Any, core: Any, line: int,
                    is_write: bool) -> None:
        counts = self.counts
        counts["conflict_scans"] += 1
        sim = self._sim
        holder_idx = result[1] if result is not None and result[0] == "core" else None
        mask = None
        probed = 0
        # replay the scan order: other mounted cores, their visible
        # frames, stopping at the frame that matched
        for other in sim.cores:
            octx = other.ctx
            if octx is None or other is core:
                continue
            for frame in octx.frames:
                if frame.mode == "lazy" and not frame.vm.get("publishing"):
                    continue
                probed += 1
                if other.idx == holder_idx:
                    if mask is None:
                        mask = frame.write_sig.line_mask(line)
                    hit = (frame.may_read_conflict_mask(mask) if is_write
                           else frame.may_write_conflict_mask(mask))
                    if hit:
                        break
            else:
                continue
            break
        counts["frames_probed"] += probed
        if result is None:
            return
        counts["conflict_hits"] += 1
        holder_frames = (
            sim.cores[result[1]].frames if result[0] == "core"
            else result[1].frames
        )
        real = any(
            line in frame.write_lines or (is_write and line in frame.read_lines)
            for frame in holder_frames
        )
        if not real:
            counts["conflict_false_positives"] += 1

    def _mem_after(self, attr: str):
        counts = self.counts
        kind = "mem.reads" if attr in _MEM_READS else "mem.writes"

        def after(token: Any, result: Any, *args: Any) -> None:
            counts[kind] += 1
            if result.l1_hit:
                counts["mem.l1_hits"] += 1
        return after

    def _rt_after(self, token: Any, result: Any, core: int, line: int) -> None:
        self.counts["rt_lookups"] += 1
        if result.level != "l1":
            self.counts["rt_l1_misses"] += 1

    def _summary_after(self, token: Any, result: bool, line: int) -> None:
        self.counts["summary_tests"] += 1
        if not result:
            self.counts["summary_filtered"] += 1

    # ------------------------------------------------------------------
    def metrics(self, untraced_cpu_s: float, traced_cpu_s: float,
                build_s: float) -> dict[str, float]:
        """Every per-layer metric of the pass (see :data:`UNITS`); call
        once the recorder has finished."""
        c = self.counts
        rec = self.rec
        own = rec.layer_self_s()
        by_fn = {f: (calls, total) for f, calls, total in zip(
            rec.functions, rec.calls, rec.total_s)}
        events = by_fn[("simulator", "event")][0]
        polls = c["stall_polls"]
        scans = c["conflict_scans"]
        hits = c["conflict_hits"]
        accesses = c["mem.reads"] + c["mem.writes"]
        return {
            "sim.events": events,
            "sim.peak_queue": self._peak_queue,
            "sim.self_s": own["sim"],
            "sim.us_per_event": 1e6 * _ratio(untraced_cpu_s, events),
            "simulator.steps": c["steps"],
            "simulator.stall_polls": polls,
            "simulator.stall_poll_share": _ratio(polls, events),
            "simulator.stall_poll_repeat_ratio": _ratio(
                c["stall_poll_repeats"], polls),
            "simulator.self_s": own["simulator"],
            "simulator.conflict_scans": scans,
            "simulator.frames_probed": c["frames_probed"],
            "simulator.conflict_hit_ratio": _ratio(hits, scans),
            "simulator.conflict_false_positive_ratio": _ratio(
                c["conflict_false_positives"], hits),
            "simulator.conflict_scan_s": by_fn[("simulator", "find_conflict")][1],
            "policy.resolve_calls": c["resolve"],
            "policy.self_s": own["policy"],
            "vm.pre_read_calls": c["vm.pre_read"],
            "vm.pre_write_calls": c["vm.pre_write"],
            "vm.commit_calls": c["vm.commit"],
            "vm.abort_calls": c["vm.abort"],
            "vm.self_s": own["vm"],
            "core.rt_lookups": c["rt_lookups"],
            "core.rt_l1_miss_rate": _ratio(c["rt_l1_misses"], c["rt_lookups"]),
            "core.summary_tests": c["summary_tests"],
            "core.summary_filter_rate": _ratio(
                c["summary_filtered"], c["summary_tests"]),
            "core.pool_allocs": c["pool.allocate"],
            "core.self_s": own["core"],
            "mem.reads": c["mem.reads"],
            "mem.writes": c["mem.writes"],
            "mem.l1_hit_ratio": _ratio(c["mem.l1_hits"], accesses),
            "mem.directory_ops": c["directory_ops"],
            "mem.self_s": own["mem"],
            "signatures.adds": c["sig.add"],
            "signatures.clears": c["sig.clear"],
            "signatures.self_s": own["signatures"],
            "workloads.build_s": build_s,
            "workloads.verify_s": by_fn[("workloads", "verify")][1],
            "trace.overhead_ratio": _ratio(traced_cpu_s, untraced_cpu_s),
        }
