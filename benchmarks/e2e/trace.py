"""In-memory span recorder for the traced benchmark run.

A span is ``(id, name, start, end, parent, epoch)``: the parent is the
span that was open when this one started, and spans of one training
epoch share its ``epoch`` id.  Spans live in a list until the run ends
and are written out once (:meth:`Tracer.dump`) — nothing touches the
disk inside a timed region.  A layer's *self* time is its span minus
the part of it its children cover (:meth:`Tracer.self_seconds`).

Calls that happen thousands of times per epoch for well under a
microsecond of work each (byte metering) are not given a span apiece:
:meth:`Tracer.add` folds their accumulated busy time into one span per
epoch that carries the call count.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Optional

__all__ = ["Tracer"]


class Tracer:
    def __init__(self) -> None:
        self.origin = time.perf_counter()
        self.spans: List[dict] = []
        self._open: List[int] = []
        self.epoch: Optional[int] = None

    @contextmanager
    def span(self, name: str) -> Iterator[dict]:
        record = {
            "id": len(self.spans),
            "name": name,
            "start": time.perf_counter() - self.origin,
            "end": None,
            "parent": self._open[-1] if self._open else None,
            "epoch": self.epoch,
            "calls": 1,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            self._open.pop()
            record["end"] = time.perf_counter() - self.origin

    def add(self, name: str, seconds: float, calls: int) -> None:
        """One aggregated child span of the open span: ``calls`` short
        operations that together took ``seconds``."""
        now = time.perf_counter() - self.origin
        self.spans.append({
            "id": len(self.spans),
            "name": name,
            "start": now - seconds,
            "end": now,
            "parent": self._open[-1] if self._open else None,
            "epoch": self.epoch,
            "calls": calls,
        })

    # -- queries -------------------------------------------------------
    def durations(self, name: str) -> List[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def per_epoch(self, name: str) -> Dict[int, float]:
        """Summed duration of ``name`` spans by epoch id."""
        out: Dict[int, float] = {}
        for s in self.spans:
            if s["name"] == name and s["epoch"] is not None:
                out[s["epoch"]] = out.get(s["epoch"], 0.0) + s["end"] - s["start"]
        return out

    def calls(self, name: str) -> int:
        return sum(s["calls"] for s in self.spans if s["name"] == name)

    def self_seconds(self) -> List[float]:
        """Self time per span, indexed by span id."""
        own = [s["end"] - s["start"] for s in self.spans]
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= s["end"] - s["start"]
        return own

    def dump(self, path: Path, extra: dict) -> None:
        own = self.self_seconds()
        by_name: Dict[str, dict] = {}
        for s, self_s in zip(self.spans, own):
            row = by_name.setdefault(
                s["name"], {"spans": 0, "calls": 0, "total_s": 0.0, "self_s": 0.0}
            )
            row["spans"] += 1
            row["calls"] += s["calls"]
            row["total_s"] += s["end"] - s["start"]
            row["self_s"] += self_s
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({**extra, "summary": by_name, "spans": self.spans}, fh)
