"""In-memory span tracer for the bank-build benchmark.

The tracer wraps public functions and methods of the ``repro`` package from
outside it (it patches attributes at run time and restores them afterwards),
so a traced build runs exactly the code an untraced build runs, plus one
timing wrapper per call.  Each call records one span — ``(id, parent, name,
start, end)`` under the tracer's run id — in a list that is written out only
when the run ends.

A wrapper whose caller is a span of the same name records nothing: backends
and scorers delegate to each other under one layer name (``AutoBackend`` to
``StatevectorBackend``, ``score_pose`` to ``score_coords``), and a layer's
time and counts must not include itself twice.
"""

from __future__ import annotations

import functools
import gzip
import json
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Any, Callable


class Tracer:
    """Records spans and counters around wrapped calls; see the module docstring."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        #: Finished spans as ``(span_id, parent_id, name, start, end)`` tuples.
        self.spans: list[tuple[int, int | None, str, float, float]] = []
        #: Work counters recorded at the same boundaries (shots, poses, ...).
        self.counts: Counter[str] = Counter()
        self._stack: list[tuple[int, str]] = []
        self._next_id = 0
        self._patches: list[tuple[Any, str, Any]] = []

    # -- recording -------------------------------------------------------------------

    def call(
        self,
        name: str,
        fn: Callable[..., Any],
        args: tuple,
        kwargs: dict,
        after: Callable[[tuple, dict, Any, float, float], None] | None = None,
    ) -> Any:
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        if self._stack and self._stack[-1][1] == name:
            return fn(*args, **kwargs)
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        self._stack.append((span_id, name))
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((span_id, parent, name, start, end))
        if after is not None:
            after(args, kwargs, result, start, end)
        return result

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str | Callable[[tuple], str],
        after: Callable[[tuple, dict, Any, float, float], None] | None = None,
        transform: Callable[[tuple, dict], tuple[tuple, dict]] | None = None,
    ) -> None:
        """Replace ``owner.attr`` with a traced wrapper until :meth:`restore`.

        ``name`` may be a function of the call's positional arguments (so one
        method can record under several names); ``after`` sees the arguments,
        result and span bounds; ``transform`` may rewrite the arguments before
        the call (used to count calls of a callback argument).
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if transform is not None:
                args, kwargs = transform(args, kwargs)
            label = name(args) if callable(name) else name
            return tracer.call(label, original, args, kwargs, after)

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        """Put back every wrapped attribute (latest first)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reporting -------------------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, inclusive seconds and self seconds.

        A span's self time is its duration minus the durations of its direct
        child spans.
        """
        child_time: dict[int, float] = defaultdict(float)
        for _sid, parent, _name, start, end in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for sid, _parent, name, start, end in self.spans:
            row = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["s"] += end - start
            row["self_s"] += end - start - child_time[sid]
        return out

    def write(self, path: Path, extra: dict[str, Any] | None = None) -> None:
        """Write the spans, the summary and ``extra`` as one gzipped JSON file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        record = {
            "run_id": self.run_id,
            "fields": ["id", "parent", "name", "start", "end"],
            "spans": self.spans,
            "summary": self.summary(),
            "counts": dict(self.counts),
            **(extra or {}),
        }
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            json.dump(record, handle, separators=(",", ":"))
