"""In-memory span recording around public calls of the placement layers.

A :class:`Tracer` installs wrappers on named methods, records one
:class:`~stats.Span` per call (with the innermost open span as parent)
and counts calls.  Spans stay in memory; :func:`dump_spans` writes them
out once the run is over.  :meth:`Tracer.uninstall` restores every
wrapped attribute, so traced and untraced jobs can alternate in one
process.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import Counter
from typing import Any, Dict, Iterator, List

from stats import Span


class Tracer:
    """Records spans and call counts from wrapped methods (one thread)."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self.trace = ""
        self._open: List[int] = []
        self._patched: List[tuple] = []

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[int]:
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent,
                               self.trace))
        self._open.append(index)
        try:
            yield index
        finally:
            self._open.pop()
            self.spans[index].end = time.perf_counter()

    def wrap(self, owner: Any, attr: str, name: str,
             count_only: bool = False) -> None:
        """Replace ``owner.attr`` with a recording wrapper.

        ``count_only`` wrappers bump ``counts[name]`` without a span, for
        calls too frequent to time one by one.
        """
        original = owner.__dict__[attr]
        tracer = self
        if count_only:
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                tracer.counts[name] += 1
                return original(*args, **kwargs)
        else:
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                tracer.counts[name] += 1
                with tracer.span(name):
                    return original(*args, **kwargs)
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


def dump_spans(path: str, spans: List[Span], extra: Dict[str, Any]) -> None:
    """Write spans (and ``extra`` context) as one JSON document."""
    payload = dict(extra)
    payload["spans"] = [
        {"name": s.name, "start": s.start, "end": s.end,
         "parent": s.parent, "trace": s.trace}
        for s in spans
    ]
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True, default=str)
