"""In-memory span recorder for the traced run.

A span is one call across a layer boundary: its name, start and end
(``time.perf_counter`` seconds), the index of the span that was open when it
started (its parent, ``-1`` for none) and the run's id.  Spans stay in
memory while the run executes and are written out once it ends.

Wrappers are installed on the *classes* (or modules) of the program from
this package only; :func:`instrument` restores every patched attribute on
exit, so an untraced run in the same process executes the original code.
"""

from __future__ import annotations

import contextlib
import gzip
import json
import time
from collections import defaultdict
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

_MISSING = object()

#: ``(owner, attribute, span name, count hook)``.  ``span name`` may be a
#: callable ``(args, kwargs) -> str``; the optional hook is called as
#: ``hook(recorder, args, kwargs, result)`` after the call returns.
Patch = Tuple[object, str, object, Optional[Callable]]


class SpanRecorder:
    """Stack-disciplined span log plus named counters for one run."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._stack: List[int] = []

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        if not self._stack or self._stack[-1] != idx:
            raise RuntimeError(f"span {self.names[idx]!r} closed out of order")
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[int]:
        idx = self.open(name)
        try:
            yield idx
        finally:
            self.close(idx)

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counts[name] += amount

    def wrap(self, fn: Callable, name, hook: Optional[Callable] = None) -> Callable:
        """``fn`` with every call recorded as a span (and counted)."""
        rec = self
        named = callable(name)

        def traced(*args, **kwargs):
            label = name(args, kwargs) if named else name
            idx = rec.open(label)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.close(idx)
            if hook is not None:
                hook(rec, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # ------------------------------------------------------------------
    def durations(self) -> List[float]:
        return [e - s for s, e in zip(self.starts, self.ends)]

    def self_times(self) -> Dict[str, float]:
        """Self time per span name: duration minus its children's durations.

        Spans nest strictly (one thread, stack discipline), so the children
        of a span cover disjoint parts of its interval and the part they
        cover is the sum of their durations.
        """
        durations = self.durations()
        own = list(durations)
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= durations[idx]
        totals: Dict[str, float] = defaultdict(float)
        for name, value in zip(self.names, own):
            totals[name] += value
        return dict(totals)

    def calls(self) -> Dict[str, int]:
        totals: Dict[str, int] = defaultdict(int)
        for name in self.names:
            totals[name] += 1
        return dict(totals)

    def write(self, path: str) -> None:
        """Write every span and counter as gzipped JSON columns."""
        index: Dict[str, int] = {}
        name_ids = [index.setdefault(n, len(index)) for n in self.names]
        payload = {"run_id": self.run_id, "names": list(index),
                   "name": name_ids, "start": self.starts, "end": self.ends,
                   "parent": self.parents, "counts": dict(self.counts)}
        with gzip.open(path, "wt", compresslevel=1) as handle:
            json.dump(payload, handle)


@contextlib.contextmanager
def instrument(recorder: SpanRecorder, patches: Sequence[Patch]) -> Iterator[None]:
    """Install span wrappers for ``patches``; restore the originals on exit."""
    saved = []
    try:
        for owner, attr, name, hook in patches:
            original = owner.__dict__.get(attr, _MISSING) if isinstance(owner, type) \
                else getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, recorder.wrap(getattr(owner, attr), name, hook))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
