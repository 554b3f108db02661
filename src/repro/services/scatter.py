"""The fan-out seam: all fragments of one pushed-down statement pass
through a single :meth:`ScatterGather.run` call, in shard order, on the
calling thread.

Nothing here runs concurrently (DESIGN.md, "One thread").  The seam
stays because it is where a statement's fan-out can be watched from
outside: the pushdown bench counts the ``run`` calls a statement makes,
and the wall-clock harness wraps ``run`` to count fragments.
"""

from __future__ import annotations

from typing import Callable, List, Sequence, Tuple

__all__ = ["ScatterGather", "shared_pool"]


class ScatterGather:
    """Runs thunks one after another; one failure never hides another
    thunk's answer."""

    max_workers = 1

    def run(self, thunks: Sequence[Callable]) -> List[Tuple]:
        """``[(result, exception), ...]`` in input order."""
        results = []
        for thunk in thunks:
            try:
                results.append((thunk(), None))
            except Exception as exc:  # the caller classifies per shard
                results.append((None, exc))
        return results


_SHARED = ScatterGather()


def shared_pool() -> ScatterGather:
    """The process-wide instance."""
    return _SHARED
