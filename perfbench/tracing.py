"""In-memory spans around calls into the package, recorded from outside it.

A Tracer swaps module attributes for timing wrappers, so a call is traced when
its caller looks the name up in that module at call time. Spans nest by call
order, which is only true in one thread of one process: traced work runs at
workers=1. Spans stay in memory until dump() writes them out.
"""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path
from typing import Any, Callable

# One span: [name, start, end, parent index or -1, work count or None].
Span = list


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._saved: list[tuple[Any, str, Any]] = []

    def wrap(
        self,
        module: Any,
        attr: str,
        name: str | Callable[[tuple], str],
        count: Callable[[Any], int] | None = None,
    ) -> None:
        """Replace module.attr by a wrapper that records one span per call.

        name is the span name, or a function of the call's positional
        arguments that returns it. count maps the call's result to a work
        count stored with the span.
        """
        fn = getattr(module, attr)
        spans, open_ = self.spans, self._open

        def traced(*args: Any, **kwargs: Any) -> Any:
            label = name if isinstance(name, str) else name(args)
            span = [label, 0.0, 0.0, open_[-1] if open_ else -1, None]
            open_.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                open_.pop()
            if count is not None:
                span[4] = count(result)
            return result

        self._saved.append((module, attr, fn))
        setattr(module, attr, traced)

    def __enter__(self) -> Tracer:
        return self

    def __exit__(self, *exc: object) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def durations(self, name: str) -> list[float]:
        return [s[2] - s[1] for s in self.spans if s[0] == name]

    def counts(self, name: str) -> list[int]:
        return [s[4] for s in self.spans if s[0] == name]

    def self_times(self, name: str) -> list[float]:
        """Duration of each span called name, minus the time its child spans cover."""
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s[3] >= 0:
                covered[s[3]] += s[2] - s[1]
        return [
            s[2] - s[1] - covered[i] for i, s in enumerate(self.spans) if s[0] == name
        ]

    def median(self, name: str) -> float:
        return statistics.median(self.durations(name))

    def dump(self, path: Path, header: dict) -> None:
        payload = {
            **header,
            "fields": ["name", "start", "end", "parent", "count"],
            "spans": self.spans,
        }
        path.write_text(json.dumps(payload) + "\n", encoding="utf-8")
