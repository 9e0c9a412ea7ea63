"""Suspend the cyclic garbage collector around allocation-heavy work.

Building a topology or running a simulation allocates long-lived
objects at a steady rate (queues, timer handles, flow tuples) and
frees whole object graphs at once. The generational collector keeps
scanning that growing heap and reclaims nothing, so builds and runs
pause it. Reference counting still frees acyclic garbage as usual.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from typing import Iterator

__all__ = ["paused_gc"]


@contextmanager
def paused_gc() -> Iterator[None]:
    """Disable the cyclic collector for the body of the ``with``.

    On exit the collector is restored to the state the caller left it
    in: re-enabled only if it was enabled on entry, so nesting, or
    entering with GC already off, never turns it back on early. No
    collection runs on exit; callers that want one call ``gc.collect()``.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()
