"""Span tracing from the benchmark's side of each layer boundary.

The program under test carries no tracing of its own, so the traced run
wraps the *calls into* each layer — public methods, module functions and
the per-layer plan objects — with spans recorded here.  A span has a
name, a start, an end and the span that was open when it began (its
parent).  Spans stay in memory, in flat arrays, until :meth:`Tracer.dump`
writes them out when the run ends.

Self time is computed as spans close: a span's duration minus the
durations of its direct children.  Calls are single-threaded and nested,
so children never overlap and the self times of every span under a root
add up to the root's wall time exactly.
"""

from __future__ import annotations

import time
from array import array
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional

import numpy as np

Counter = Callable[[tuple, object], Dict[str, float]]


class Tracer:
    """Records nested spans and per-name self/total time and counters."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self._name = array("H")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        # Open spans: [span index, start, summed child duration].
        self._stack: List[list] = []
        self.self_s: Dict[str, float] = {}
        self.total_s: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self.counters: Dict[str, float] = {}
        self._patches: List[tuple] = []

    # -- spans ------------------------------------------------------------
    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.self_s[name] = 0.0
            self.total_s[name] = 0.0
            self.calls[name] = 0
        return nid

    def enter(self, nid: int) -> None:
        index = len(self._start)
        self._name.append(nid)
        self._parent.append(self._stack[-1][0] if self._stack else -1)
        self._start.append(0.0)
        self._end.append(0.0)
        self._stack.append([index, time.perf_counter(), 0.0])

    def exit(self) -> None:
        end = time.perf_counter()
        index, start, child = self._stack.pop()
        duration = end - start
        self._start[index] = start
        self._end[index] = end
        name = self.names[self._name[index]]
        self.self_s[name] += duration - child
        self.total_s[name] += duration
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][2] += duration

    @contextmanager
    def root(self, name: str) -> Iterator["Tracer"]:
        """The span that covers the whole timed phase."""
        self.enter(self._id(name))
        try:
            yield self
        finally:
            self.exit()

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + amount

    @property
    def num_spans(self) -> int:
        return len(self._start)

    # -- instrumentation --------------------------------------------------
    def wrap(
        self,
        owner,
        attr: str,
        name: Optional[str],
        counter: Optional[Counter] = None,
    ) -> None:
        """Replace ``owner.attr`` with a traced call until :meth:`restore`.

        ``owner`` may be a class (every instance is traced), a module (its
        function is traced where callers look it up through the module),
        or one object (only that object's method).  ``name=None`` records
        no span, only ``counter``'s increments — for calls whose time
        belongs to the caller's span, such as a blocking RPC.
        ``counter(args, result)`` returns counter increments.
        """
        had_own = attr in vars(owner)
        # Set on a class, the wrapper binds ``self`` like the function it
        # replaces; set on one object, it shadows the bound method.
        call = original = vars(owner)[attr] if had_own else getattr(owner, attr)
        nid = None if name is None else self._id(name)
        tracer = self

        def traced(*args, **kwargs):
            if nid is None:
                result = call(*args, **kwargs)
            else:
                tracer.enter(nid)
                try:
                    result = call(*args, **kwargs)
                finally:
                    tracer.exit()
            if counter is not None:
                for key, amount in counter(args, result).items():
                    tracer.count(key, amount)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original, had_own))

    def restore(self) -> None:
        """Undo every :meth:`wrap`, newest first."""
        while self._patches:
            owner, attr, original, had_own = self._patches.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # -- reporting --------------------------------------------------------
    def ms(self, name: str) -> float:
        return 1e3 * self.self_s.get(name, 0.0)

    def total_ms(self, name: str) -> float:
        return 1e3 * self.total_s.get(name, 0.0)

    def n(self, name: str) -> int:
        return self.calls.get(name, 0)

    def dump(self, path: Path) -> None:
        """Write every span (name id, parent index, start, end) and the
        name table to ``path`` as ``.npz``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self._name, dtype=np.uint16),
            parent=np.frombuffer(self._parent, dtype=np.int32),
            start=np.frombuffer(self._start, dtype=np.float64),
            end=np.frombuffer(self._end, dtype=np.float64),
        )
