"""Timing of the benchmark's calls into the program, spans and profiler counts.

Every public call a pass makes goes through `Recorder.call`, which times it
for the per-call latency metrics.  With tracing on, the recorder also keeps
a span per call and per group of calls: name, tag, start, end, parent span
and pass number.  Spans stay in memory and are written out as JSON when the
run ends.  The profiler is used only in the traced run, for call counts and
self time of private functions that the benchmark cannot wrap itself.
"""

from __future__ import annotations

import cProfile
import json
import multiprocessing
import pstats
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import hostspeed

SEGMENT_S = 0.1


def reap_children() -> None:
    """Wait for every worker process the program left running."""
    for proc in multiprocessing.active_children():
        proc.join(timeout=60)
        if proc.is_alive():
            proc.terminate()
            proc.join()


class Recorder:
    """Times the calls of a run's passes, scaled to reference host speed.

    A pass is cut into segments of at least SEGMENT_S; the host-speed loop
    runs between segments, never inside a call, and each segment's times
    are scaled by hostspeed.REFERENCE_S over the mean loop time at its two
    ends.  So that no worker competes with the loop, a segment ends by
    waiting for the worker processes the program left running, and that
    wait counts in the segment's time.  `latencies` holds the scaled time
    of every call, and `scaled_s` and `raw_s` the summed segment times,
    loop runs left out.
    """

    def __init__(self, traced: bool):
        self.traced = traced
        self.spans: list[dict] = []
        self.latencies: list[float] = []
        self.pass_no = 0
        self.raw_s = 0.0
        self.scaled_s = 0.0
        self._open: list[int] = []
        self._pending: list[float] = []
        self._first_span = 0
        self._ref_s = hostspeed.loop_s()
        self._seg_start = perf_counter()

    def begin(self) -> None:
        self.pass_no += 1
        self._seg_start = perf_counter()

    def end(self) -> None:
        """Close a segment; the caller has waited for any worker processes."""
        seg_end = perf_counter()
        ref = hostspeed.loop_s()
        scale = hostspeed.scale(self._ref_s, ref)
        self.latencies += [t * scale for t in self._pending]
        self._pending = []
        for span in self.spans[self._first_span:]:
            span["scale"] = scale
        self._first_span = len(self.spans)
        self.raw_s += seg_end - self._seg_start
        self.scaled_s += (seg_end - self._seg_start) * scale
        self._ref_s = ref
        self._seg_start = perf_counter()

    def call(self, name: str, tag: str, fn, *args, **kwargs):
        if perf_counter() - self._seg_start >= SEGMENT_S:
            reap_children()
            self.end()
        start = perf_counter()
        out = fn(*args, **kwargs)
        end = perf_counter()
        self._pending.append(end - start)
        if self.traced:
            self.spans.append({"id": len(self.spans), "parent": self._open[-1] if self._open else None,
                               "name": name, "tag": tag, "start": start, "end": end,
                               "pass": self.pass_no})
        return out

    @contextmanager
    def group(self, name: str):
        if not self.traced:
            yield
            return
        span = {"id": len(self.spans), "parent": self._open[-1] if self._open else None,
                "name": name, "tag": "", "start": perf_counter(), "end": None,
                "pass": self.pass_no}
        self.spans.append(span)
        self._open.append(span["id"])
        try:
            yield
        finally:
            self._open.pop()
            span["end"] = perf_counter()

    def totals(self, pass_no: int) -> dict[tuple[str, str], float]:
        """Summed scaled span seconds of one pass, by (name, tag) and by (name, "")."""
        out: dict[tuple[str, str], float] = {}
        for s in self.spans:
            if s["pass"] != pass_no or s["end"] is None or "scale" not in s:
                continue
            dt = (s["end"] - s["start"]) * s["scale"]
            out[(s["name"], s["tag"])] = out.get((s["name"], s["tag"]), 0.0) + dt
            if s["tag"]:
                out[(s["name"], "")] = out.get((s["name"], ""), 0.0) + dt
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans}, fh)


def profile(fn) -> dict[tuple[str, str], tuple[int, float, float]]:
    """Run fn under cProfile; map (module file stem, function) to
    (calls including recursive ones, self seconds, cumulative seconds)."""
    prof = cProfile.Profile()
    prof.enable()
    try:
        fn()
    finally:
        prof.disable()
    out: dict[tuple[str, str], tuple[int, float, float]] = {}
    for (filename, _line, func), (_cc, nc, tt, ct, _callers) in pstats.Stats(prof).stats.items():
        path = Path(filename)
        if path.parent.name == "folkman":
            prev = out.get((path.stem, func), (0, 0.0, 0.0))
            out[(path.stem, func)] = (prev[0] + nc, prev[1] + tt, prev[2] + ct)
    return out
