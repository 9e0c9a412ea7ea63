"""Class-level span and count wrappers for the traced benchmark run.

The tracer patches methods on the program's classes before a workload
builds its objects, so every instance goes through the wrapper, and so
does every bound method an object caches when it is built (an
interface's transmit-done callback, a qdisc's dequeue). Nothing under
``src/`` changes, and nothing is patched in an untraced run.

There are two kinds of probe:

* A *span* times a call and files it under a layer. Its self time is
  its duration minus the time covered by spans opened inside it. Spans
  sit where one layer calls into another, for example the kernel's run
  loop calling into the network, or the network calling a DiffServ
  qdisc. So a layer's self time is the host time spent in that layer's
  own code. Time in code that no probe wraps is charged to the
  innermost open span.
* A *count* only tallies calls, plus the calls whose outcome a
  classifier marks as a hit (a policer returning False, a dequeue
  returning a packet). Counts are exact and repeat across runs of one
  seed.

Aggregates cover every call. The span log keeps the first
``SPAN_LOG_LIMIT`` spans (id, parent id, name, start, end, run id) in
memory; the benchmark writes it out when the run ends.
"""

from __future__ import annotations

import importlib
from itertools import count
from time import perf_counter
from typing import Callable, Dict, List, Optional

__all__ = ["Patches", "Tracer", "resolve"]

#: Spans kept in the in-memory log of one traced run. Aggregates are
#: exact regardless; the log is for inspecting the nesting.
SPAN_LOG_LIMIT = 200_000


def resolve(target: str):
    """``"pkg.module:Class.attr"`` -> (class, attribute name), and
    ``"pkg.module:function"`` -> (module, function name)."""
    module_name, _, qualname = target.partition(":")
    owner = importlib.import_module(module_name)
    holder, _, attr = qualname.rpartition(".")
    return (getattr(owner, holder) if holder else owner), attr


class Patches:
    """Replaces class (or module) attributes and puts the originals back."""

    def __init__(self) -> None:
        self._saved: list = []

    def wrap(self, cls, attr: str, make: Callable) -> None:
        """Set ``cls.attr`` to ``make(original)``.

        The attribute must be defined on ``cls`` itself: patching an
        inherited one would shadow it for this subclass only and make
        a probe on the base class miss or double-count calls.
        """
        if attr not in cls.__dict__:
            raise AttributeError(f"{cls.__name__} does not define {attr!r}")
        original = cls.__dict__[attr]
        setattr(cls, attr, make(original))
        self._saved.append((cls, attr, original))

    def restore(self) -> None:
        while self._saved:
            cls, attr, original = self._saved.pop()
            setattr(cls, attr, original)


class Tracer:
    """In-memory spans and counts for one traced workload run."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        #: name -> [calls, hits, inclusive seconds, self seconds]
        self.stats: Dict[str, list] = {}
        #: name -> layer
        self.layers: Dict[str, str] = {}
        #: (span id, parent id, name, start, end, run id); parent 0 is none.
        self.spans: List[tuple] = []
        #: Stats as they stood when the timed phase began (see mark_run).
        self.setup_stats: Optional[Dict[str, list]] = None
        self._stack: List[list] = []
        self._ids = count(1)
        self._patches = Patches()

    def _stat(self, name: str, layer: str) -> list:
        if name in self.stats:
            raise ValueError(f"probe {name!r} registered twice")
        self.layers[name] = layer
        stat = self.stats[name] = [0, 0, 0.0, 0.0]
        return stat

    def span(self, name: str, layer: str, fn: Callable, hit=None) -> Callable:
        """A wrapper that times every call of ``fn`` as a span."""
        stat = self._stat(name, layer)
        stack = self._stack
        spans = self.spans
        ids = self._ids
        run_id = self.run_id
        clock = perf_counter

        def traced(*args, **kwargs):
            frame = [0.0, next(ids)]
            parent = stack[-1][1] if stack else 0
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                stat[0] += 1
                stat[2] += duration
                stat[3] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                if len(spans) < SPAN_LOG_LIMIT:
                    spans.append((frame[1], parent, name, start, end, run_id))
            if hit is not None and hit(args, kwargs, result):
                stat[1] += 1
            return result

        return traced

    def count(self, name: str, layer: str, fn: Callable, hit=None,
              before: bool = False) -> Callable:
        """A wrapper that only tallies calls of ``fn`` (and hits).

        ``hit(args, kwargs, result)`` classifies a call after it
        returns; with ``before`` it is asked before the call, with
        ``result`` None, for outcomes the call itself erases.
        """
        stat = self._stat(name, layer)
        if hit is None:
            def counted(*args, **kwargs):
                stat[0] += 1
                return fn(*args, **kwargs)
        elif before:
            def counted(*args, **kwargs):
                stat[0] += 1
                if hit(args, kwargs, None):
                    stat[1] += 1
                return fn(*args, **kwargs)
        else:
            def counted(*args, **kwargs):
                stat[0] += 1
                result = fn(*args, **kwargs)
                if hit(args, kwargs, result):
                    stat[1] += 1
                return result
        return counted

    def install(self, probes) -> None:
        """Patch every probe's method; see :mod:`layers` for the list."""
        for probe in probes:
            cls, attr = resolve(probe.target)
            if probe.kind == "span":
                make = lambda fn, p=probe: self.span(p.name, p.layer, fn, p.hit)
            else:
                make = lambda fn, p=probe: self.count(
                    p.name, p.layer, fn, p.hit, p.before
                )
            self._patches.wrap(cls, attr, make)

    def uninstall(self) -> None:
        self._patches.restore()

    def mark_run(self) -> None:
        """The timed phase starts now: snapshot the set-up totals."""
        self.setup_stats = {k: list(v) for k, v in self.stats.items()}

    def phase(self, which: str) -> Dict[str, list]:
        """Totals for ``"setup"`` (before mark_run) or ``"run"`` (after)."""
        before = self.setup_stats or {}
        if which == "setup":
            return {k: list(before.get(k, (0, 0, 0.0, 0.0))) for k in self.stats}
        return {
            k: [v[i] - before.get(k, (0, 0, 0.0, 0.0))[i] for i in range(4)]
            for k, v in self.stats.items()
        }
