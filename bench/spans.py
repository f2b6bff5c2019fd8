"""Spans recorded by the benchmark around its own calls into quadsys.

A span has a name, start, end, parent span and the id of the run that made
it.  Spans stay in memory until the run writes them out.  Nothing inside
``src/`` is instrumented: a span covers one call made from the benchmark's
files, so a layer's time is the time of the calls into its public functions.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        rec = {
            "id": len(self.spans),
            "parent": self._stack[-1] if self._stack else None,
            "run": self.run_id,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            **attrs,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def adopt(self, spans: list[dict], proc: str) -> None:
        """Append spans recorded by a child process under the current span.

        ``time.perf_counter`` reads CLOCK_MONOTONIC on Linux, one clock for
        every process, so the child's times line up with the parent's.
        """
        base = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        for s in spans:
            self.spans.append({
                **s,
                "id": base + s["id"],
                "parent": parent if s["parent"] is None else base + s["parent"],
                "run": self.run_id,
                "proc": proc,
            })

    def self_times(self) -> list[float]:
        """Each span's duration minus the part of it its children cover."""
        children: dict[int, list[dict]] = {}
        for s in self.spans:
            if s["parent"] is not None:
                children.setdefault(s["parent"], []).append(s)
        out = []
        for s in self.spans:
            covered, reach = 0.0, s["start"]
            for c in sorted(children.get(s["id"], ()), key=lambda c: c["start"]):
                lo, hi = max(c["start"], reach), min(c["end"], s["end"])
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out.append(s["end"] - s["start"] - covered)
        return out

    def under(self, stage: str | None):
        """Spans that have an ancestor named ``stage`` (all spans for None)."""
        by_id = {s["id"]: s for s in self.spans}
        for s in self.spans:
            p = s["parent"]
            while stage is not None and p is not None and by_id[p]["name"] != stage:
                p = by_id[p]["parent"]
            if stage is None or p is not None:
                yield s

    def total(self, name: str, stage: str | None = None) -> float:
        """Summed self time of the spans called ``name`` (under ``stage``)."""
        selfs = self.self_times()
        return sum(selfs[s["id"]] for s in self.under(stage) if s["name"] == name)

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        selfs = self.self_times()
        with path.open("w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({**s, "self": selfs[s["id"]]}) + "\n")


def spanner(tracer: Tracer | None):
    """``tracer.span``, or a no-op with the same signature when untraced."""
    if tracer is None:
        return lambda name, **attrs: nullcontext()
    return tracer.span
