"""In-memory spans recorded around the benchmark's calls into the library.

A span has a name (``<module>.<layer>``), a start and an end on the
``perf_counter`` clock, the id of its parent span, the id of the operation it
belongs to, and a few counts.  Spans stay in memory while the benchmark runs
and are written out as JSON lines once it ends, so writing never lands inside
a timed region.

A layer's self time ("busy") is its span duration minus the time its direct
child spans cover.
"""

from __future__ import annotations

import contextlib
import json
from time import perf_counter


class Tracer:
    """Records spans; ``op`` is the id stamped on every span opened next."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self.op: int | str | None = None
        self._raised: BaseException | None = None

    @contextlib.contextmanager
    def span(self, name: str, **counts):
        """Time the block; the yielded dict takes counts known only after it."""
        rec = {
            "id": len(self.spans),
            "name": name,
            "op": self.op,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "counts": counts,
            "failed": False,
        }
        self.spans.append(rec)
        self._stack.append(rec)
        rec["start"] = perf_counter()
        try:
            yield counts
        except BaseException as exc:
            # mark only the innermost span the exception leaves
            if exc is not self._raised:
                rec["failed"] = True
                self._raised = exc
            raise
        finally:
            rec["end"] = perf_counter()
            self._stack.pop()

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")

    def aggregate(self, keep=None) -> dict[str, float]:
        """Per span name: ``.busy_s`` (self time), ``.calls`` and summed counts.

        Counts whose key ends in ``_max`` are combined with max, the others
        summed.  ``keep`` selects the spans that take part.
        """
        child_time: dict[int, float] = {}
        for rec in self.spans:
            if rec["parent"] is not None:
                child_time[rec["parent"]] = child_time.get(rec["parent"], 0.0) + (
                    rec["end"] - rec["start"]
                )
        out: dict[str, float] = {}
        for rec in self.spans:
            if keep is not None and not keep(rec):
                continue
            name = rec["name"]
            busy = rec["end"] - rec["start"] - child_time.get(rec["id"], 0.0)
            out[f"{name}.busy_s"] = out.get(f"{name}.busy_s", 0.0) + busy
            out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
            for key, value in rec["counts"].items():
                metric = f"{name}.{key}"
                if key.endswith("_max"):
                    out[metric] = max(out.get(metric, value), value)
                else:
                    out[metric] = out.get(metric, 0) + value
        return out


class NullTracer:
    """Tracing off: the same interface, recording nothing."""

    op = None

    def span(self, name: str, **counts):
        return contextlib.nullcontext(counts)
