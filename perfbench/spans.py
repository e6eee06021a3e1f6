"""Span recording around the simulator's layer boundaries.

The traced run wraps the calls each layer receives — from the
benchmark's own files, without touching ``src/`` — and records one span
per call.  While the run executes, a wrapper appends only an open record
(function id, timestamp) and a close record (-1, timestamp) to two flat
arrays; :meth:`SpanRecorder.finish` turns the log into spans
(function, start, duration, parent span) once the run has ended, and
:meth:`SpanRecorder.write` saves them.

A layer's self time is the time of its spans minus the time of their
child spans.  Observers that compute attribution counts run in spans of
the pseudo-layer ``trace``, so their time never inflates a program
layer.  The wrappers' own cost is measured by :func:`calibrate` and
subtracted: per span from its own duration, and per child span from
its parent's self time; the subtracted time is booked to ``trace``.

Wrapping replaces attributes: bound methods on instances (the simulator
looks them up on ``self`` at call time) and, for the ``__slots__``
signature class, the class attribute.  :meth:`SpanRecorder.restore`
puts every original back.
"""

from __future__ import annotations

import json
import statistics
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter_ns
from typing import Any, Callable

#: the layers, in report order (``trace`` is the recorder itself)
LAYERS = (
    "sim", "simulator", "policy", "vm", "core", "mem", "signatures",
    "workloads", "trace",
)

_CLOSE = -1
_NO_PARENT = -1


class SpanRecorder:
    """Span log, span table and per-function time accounting."""

    def __init__(self) -> None:
        #: function id -> (layer, function name)
        self.functions: list[tuple[str, str]] = []
        self._fids: dict[tuple[str, str], int] = {}
        #: the raw log: one function id (or _CLOSE) and one ns timestamp
        #: per record
        self._ids = array("i")
        self._ts = array("q")
        self.counts: Counter[str] = Counter()
        self._observer = self.function_id("trace", "observer")
        self._undo: list[tuple[Any, str, Any, bool]] = []
        #: filled by finish()
        self.span_fid = array("H")
        self.span_start_ns = array("q")
        self.span_dur_ns = array("q")
        self.span_parent = array("i")
        self.calls: list[int] = []
        self.total_s: list[float] = []
        self.self_s: list[float] = []

    def function_id(self, layer: str, name: str) -> int:
        key = (layer, name)
        fid = self._fids.get(key)
        if fid is None:
            fid = self._fids[key] = len(self.functions)
            self.functions.append(key)
        return fid

    # -- wrapping -------------------------------------------------------
    def wrap(
        self,
        owner: Any,
        attr: str,
        layer: str,
        name: str | None = None,
        before: Callable[..., Any] | None = None,
        after: Callable[..., None] | None = None,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``before(*args)`` runs ahead of the call and returns a token;
        ``after(token, result, *args)`` runs once it returned.  Both run
        in ``trace`` spans beside the wrapped call's span.
        """
        orig = getattr(owner, attr)
        fid = self.function_id(layer, name or attr.lstrip("_"))
        ids, ts, now, obs = self._ids.append, self._ts.append, perf_counter_ns, self._observer

        if before is None and after is None:
            def traced(*args: Any, **kwargs: Any) -> Any:
                ids(fid)
                ts(now())
                try:
                    return orig(*args, **kwargs)
                finally:
                    ts(now())
                    ids(_CLOSE)
        else:
            def traced(*args: Any, **kwargs: Any) -> Any:
                token = None
                if before is not None:
                    ids(obs)
                    ts(now())
                    token = before(*args)
                    ts(now())
                    ids(_CLOSE)
                ids(fid)
                ts(now())
                try:
                    result = orig(*args, **kwargs)
                finally:
                    ts(now())
                    ids(_CLOSE)
                if after is not None:
                    ids(obs)
                    ts(now())
                    after(token, result, *args)
                    ts(now())
                    ids(_CLOSE)
                return result

        self._replace(owner, attr, traced)

    def count_calls(self, owner: Any, attr: str, counter: str) -> None:
        """Replace ``owner.attr`` with a wrapper that only counts calls."""
        orig = getattr(owner, attr)
        counts = self.counts

        def counted(*args: Any, **kwargs: Any) -> Any:
            counts[counter] += 1
            return orig(*args, **kwargs)

        self._replace(owner, attr, counted)

    def wrap_callbacks(self, queue: Any, layer: str, name: str) -> None:
        """Make every event the queue schedules run inside a span."""
        fid = self.function_id(layer, name)
        ids, ts, now = self._ids.append, self._ts.append, perf_counter_ns

        def traced_callback(fn: Callable[[], None]) -> Callable[[], None]:
            def event() -> None:
                ids(fid)
                ts(now())
                try:
                    fn()
                finally:
                    ts(now())
                    ids(_CLOSE)
            return event

        for attr in ("schedule", "schedule_fast"):
            orig = getattr(queue, attr)

            def schedule(delay: int, fn: Callable[[], None], _orig=orig) -> Any:
                return _orig(delay, traced_callback(fn))

            self._replace(queue, attr, schedule)

    def _replace(self, owner: Any, attr: str, new: Any) -> None:
        own = vars(owner) if hasattr(owner, "__dict__") else {}
        self._undo.append((owner, attr, own.get(attr), attr in own))
        setattr(owner, attr, new)

    def restore(self) -> None:
        """Undo every wrap, newest first."""
        while self._undo:
            owner, attr, previous, had_own = self._undo.pop()
            if had_own:
                setattr(owner, attr, previous)
            else:
                delattr(owner, attr)

    # -- results ------------------------------------------------------
    def finish(self, overhead: "Overhead") -> None:
        """Turn the log into spans and per-function times.

        ``overhead`` is the wrapper cost :func:`calibrate` measured; it
        is subtracted from self times and booked to ``trace``.
        """
        n_fn = len(self.functions)
        calls = [0] * n_fn
        total = [0] * n_fn
        own = [0] * n_fn
        children = [0] * n_fn
        fids, starts, durs, parents = (
            self.span_fid, self.span_start_ns, self.span_dur_ns,
            self.span_parent)
        t0 = self._ts[0] if self._ts else 0
        stack: list[list[int]] = []   # [span index, fid, start, child ns]
        for fid, t in zip(self._ids, self._ts):
            if fid != _CLOSE:
                idx = len(fids)
                fids.append(fid)
                starts.append(t - t0)
                durs.append(0)
                parents.append(stack[-1][0] if stack else _NO_PARENT)
                stack.append([idx, fid, t, 0])
                continue
            idx, fid, start, child = stack.pop()
            dur = t - start
            durs[idx] = dur
            calls[fid] += 1
            total[fid] += dur
            own[fid] += dur - child
            if stack:
                stack[-1][3] += dur
                children[stack[-1][1]] += 1
        if stack:
            raise RuntimeError(f"{len(stack)} spans never closed")
        self._ids = array("i")
        self._ts = array("q")
        self.calls = calls
        self.total_s = [ns / 1e9 for ns in total]
        booked = 0.0
        self.self_s = []
        for fid in range(n_fn):
            correction = (calls[fid] * overhead.in_span_ns
                          + children[fid] * overhead.in_parent_ns)
            booked += correction
            self.self_s.append((own[fid] - correction) / 1e9)
        self.self_s[self._observer] += booked / 1e9

    def layer_self_s(self) -> dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for (layer, _), secs in zip(self.functions, self.self_s):
            out[layer] += secs
        return out

    def function_rows(self) -> list[dict[str, Any]]:
        return [
            {"layer": layer, "function": name, "calls": calls,
             "total_s": total, "self_s": own}
            for (layer, name), calls, total, own in zip(
                self.functions, self.calls, self.total_s, self.self_s)
        ]

    def write(self, stem: Path, header: dict[str, Any]) -> tuple[Path, Path]:
        """Write ``<stem>.json`` (header, per-function table, counters)
        and ``<stem>.spans.npz`` (every span as parallel arrays)."""
        import numpy as np

        stem.parent.mkdir(parents=True, exist_ok=True)
        doc = dict(header)
        doc["functions"] = self.function_rows()
        doc["counts"] = dict(sorted(self.counts.items()))
        doc["spans"] = {
            "file": stem.name + ".spans.npz",
            "count": len(self.span_fid),
            "arrays": {
                "function_id": "index into functions",
                "start_ns": "ns since the first span opened",
                "duration_ns": "ns",
                "parent": "index of the enclosing span, -1 at top level",
            },
        }
        meta = stem.with_suffix(".json")
        meta.write_text(json.dumps(doc, indent=1) + "\n")
        spans = stem.parent / doc["spans"]["file"]
        with spans.open("wb") as out:
            np.savez_compressed(
                out,
                function_id=np.frombuffer(self.span_fid, dtype=np.uint16),
                start_ns=np.frombuffer(self.span_start_ns, dtype=np.int64),
                duration_ns=np.frombuffer(self.span_dur_ns, dtype=np.int64),
                parent=np.frombuffer(self.span_parent, dtype=np.int32),
            )
        return meta, spans


class Overhead:
    """What one wrapped call costs beyond the call itself, in ns."""

    def __init__(self, in_span_ns: float, in_parent_ns: float) -> None:
        #: added to the wrapped call's own measured duration
        self.in_span_ns = in_span_ns
        #: added to the enclosing span's self time
        self.in_parent_ns = in_parent_ns


def calibrate(n: int = 20_000, repeats: int = 7) -> Overhead:
    """Measure the wrapper's cost on a no-op method (median of repeats).

    The wrapped no-op's span should last as long as the bare call; the
    excess is ``in_span_ns``.  A loop of wrapped calls inside a span
    should leave the outer span the loop's own iteration cost as self
    time; the excess per call is ``in_parent_ns``.
    """

    class Target:
        def noop(self) -> None:
            return None

    bare = Target()
    in_span, in_parent = [], []
    for _ in range(repeats):
        t = perf_counter_ns()
        for _ in range(n):
            pass
        loop_ns = (perf_counter_ns() - t) / n
        t = perf_counter_ns()
        for _ in range(n):
            bare.noop()
        call_ns = (perf_counter_ns() - t) / n - loop_ns

        rec = SpanRecorder()
        wrapped = Target()
        rec.wrap(wrapped, "noop", "trace", "calibration")
        outer = Target()

        def loop() -> None:
            for _ in range(n):
                wrapped.noop()

        outer.loop = loop
        rec.wrap(outer, "loop", "trace", "calibration-loop")
        outer.loop()
        rec.finish(Overhead(0.0, 0.0))
        inner = rec.function_id("trace", "calibration")
        loop_fid = rec.function_id("trace", "calibration-loop")
        in_span.append(rec.total_s[inner] * 1e9 / n - call_ns)
        in_parent.append(rec.self_s[loop_fid] * 1e9 / n - loop_ns)
    return Overhead(max(0.0, statistics.median(in_span)),
                    max(0.0, statistics.median(in_parent)))
