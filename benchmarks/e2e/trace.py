"""Per-layer attribution from outside the program.

The tracer wraps the *public* boundaries between the layers the paper
draws — the procedure vectors in ``db.registry``, the methods of
``DataManager``/``Executor``/``PlanCache``/``Session``/``QueryEngine``,
the common services, ``RemoteTransport.call`` and the action it is
handed, the scatter pool's ``run``, and a few module-level names — and
removes every wrapper again in :meth:`Tracer.uninstall`.  Nothing under
``src/`` knows it exists.

Each wrapper pushes a frame on a thread-local stack, so a layer's *self
time* is its span minus the spans of the wrapped calls it made.  Spans
are aggregated per ``(layer, boundary)`` as they close (count, self
seconds, inclusive seconds): a run closes millions of them, too many to
keep one by one.  :meth:`Tracer.root` opens the span of one benchmark
operation; its self time is the part of the operation no wrapper saw
(``trace.unattributed_share``).

Limits, stated once: code that runs inside a generator is charged to
whoever iterates it (the executor's batch pump runs under
``query.ir``'s span); a layer that calls itself through a wrapped name
counts every such call; wrappers cost about a microsecond per call, so
layers crossed very often (locks, buffer) look relatively heavier under
tracing than they are — ``trace.overhead_ratio`` says by how much the
whole run slowed.
"""

from __future__ import annotations

import inspect
import threading
from time import perf_counter
from typing import Callable, Dict, Iterable, List, Tuple

__all__ = ["Tracer", "layer_of"]

#: Procedure vectors of ``ExtensionRegistry`` (one entry per extension).
VECTORS = (
    "storage_insert", "storage_update", "storage_delete", "storage_fetch",
    "storage_fetch_many", "storage_open_scan", "storage_insert_batch",
    "storage_update_batch", "storage_delete_batch", "attached_insert",
    "attached_update", "attached_delete", "attached_insert_batch",
    "attached_update_batch", "attached_delete_batch")
SERVICES = ("locks", "buffer", "disk", "wal", "transactions", "recovery")
SESSION_METHODS = ("execute", "begin", "commit", "rollback", "table")
ENGINE_METHODS = ("execute", "explain")
EXECUTOR_METHODS = ("run_select", "run_insert", "run_update", "run_delete")
#: The harness's own layers.
ROOT = ("harness", "op")
REMOTE_ACTION = ("remote.action", "action")


def layer_of(obj) -> str:
    """``repro.storage.heap.HeapStorageMethod`` instance -> ``storage.heap``."""
    module = type(obj).__module__
    return module[len("repro."):] if module.startswith("repro.") else module


def _public_methods(obj) -> List[str]:
    """Names of the plain public methods of ``obj``'s class (no
    properties, no context-manager generators: a wrapper around those
    would time their creation, not their work)."""
    names = []
    for name, member in inspect.getmembers(type(obj), inspect.isfunction):
        if not name.startswith("_") \
                and not inspect.isgeneratorfunction(
                    getattr(member, "__wrapped__", member)):
            names.append(name)
    return names


class _ThreadState:
    __slots__ = ("stack", "acc")

    def __init__(self):
        self.stack: List[list] = []
        #: (layer, boundary) -> [calls, self seconds, inclusive seconds]
        self.acc: Dict[Tuple[str, str], list] = {}


class Tracer:
    """Install wrappers, aggregate spans, remove the wrappers."""

    def __init__(self):
        self.enabled = False
        self.scatter_tasks = 0
        self._local = threading.local()
        self._states: List[_ThreadState] = []
        self._lock = threading.Lock()
        #: Undo log: ("attr", owner, name, had_own, original) or
        #: ("item", list, index, original).
        self._patches: List[tuple] = []
        self._seen = set()

    # -- span bookkeeping ----------------------------------------------------
    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState()
            with self._lock:
                self._states.append(state)
        return state

    def wrap(self, key: Tuple[str, str], fn: Callable,
             after: Callable = None) -> Callable:
        """``fn`` timed under ``key``; ``after(result)`` may post-process
        the result inside the span (used to time returned scan objects)."""
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            state = tracer._state()
            stack = state.stack
            frame = [0.0]
            stack.append(frame)
            started = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result if after is None else after(result)
            finally:
                elapsed = perf_counter() - started
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                entry = state.acc.get(key)
                if entry is None:
                    state.acc[key] = [1, elapsed - frame[0], elapsed]
                else:
                    entry[0] += 1
                    entry[1] += elapsed - frame[0]
                    entry[2] += elapsed

        traced.__wrapped__ = fn
        return traced

    def root(self, fn: Callable, *args):
        """Run one benchmark operation as the root span of its tree."""
        return self.wrap(ROOT, fn)(*args)

    def totals(self) -> Dict[Tuple[str, str], Tuple[int, float, float]]:
        """Aggregated spans over every thread that ran a wrapper."""
        merged: Dict[Tuple[str, str], list] = {}
        with self._lock:
            states = list(self._states)
        for state in states:
            for key, (calls, self_s, total_s) in state.acc.items():
                entry = merged.setdefault(key, [0, 0.0, 0.0])
                entry[0] += calls
                entry[1] += self_s
                entry[2] += total_s
        return {key: tuple(entry) for key, entry in merged.items()}

    # -- installing ----------------------------------------------------------
    def _boundary(self, layer: str, name: str, fn: Callable) -> Callable:
        """The wrapper for boundary ``name`` of ``layer``.  Whatever opens
        a scan hands back an object that does the layer's work later, in
        ``next``/``next_batch``: those are timed under the layer too."""
        after = self._timed_scan(layer) if name.endswith("open_scan") \
            else None
        return self.wrap((layer, name), fn, after)

    def _timed_scan(self, layer: str) -> Callable:
        """Scans are short lived, so the wrappers set here are never
        removed — they die with the scan.  A scan that passes through two
        boundaries (storage method, then dispatch) is wrapped once."""
        def after(scan):
            for name in ("next", "next_batch"):
                method = getattr(scan, name, None)
                if callable(method) and name not in getattr(
                        scan, "__dict__", {name: None}):
                    setattr(scan, name,
                            self.wrap((layer, "scan." + name), method))
            return scan
        return after

    def _patch_attr(self, owner, name: str, wrapper: Callable) -> None:
        self._patches.append(("attr", owner, name, name in vars(owner),
                              getattr(owner, name)))
        setattr(owner, name, wrapper)

    def _patch_object(self, obj, names: Iterable[str],
                      layer: str = None) -> None:
        """Wrap the named methods of one object, once per object."""
        if id(obj) in self._seen:
            return
        self._seen.add(id(obj))
        layer = layer or layer_of(obj)
        for name in names:
            method = getattr(obj, name, None)
            if callable(method):
                self._patch_attr(obj, name,
                                 self._boundary(layer, name, method))

    def install(self, databases: Iterable) -> None:
        """Wrap every boundary of ``databases`` (a coordinator and, for
        sharded relations, its children and standbys) plus the
        process-wide ones."""
        from repro.query import engine, fragments, ir
        from repro.services.remote import RemoteTransport
        from repro.services.scatter import shared_pool

        for db in databases:
            self._install_database(db)
        for name, layer in (("parse_statement", "query.parser"),
                            ("plan_select", "query.planner"),
                            ("plan_table_access", "query.planner")):
            self._patch_attr(engine, name, self._boundary(
                layer, name, getattr(engine, name)))
        for name, member in inspect.getmembers(fragments,
                                               inspect.isfunction):
            if not name.startswith("_") \
                    and member.__module__ == fragments.__name__:
                self._patch_attr(fragments, name, self._boundary(
                    "query.fragments", name, member))
        self._patch_attr(ir.Program, "run",
                         self._boundary("query.ir", "run", ir.Program.run))
        self._patch_attr(RemoteTransport, "call",
                         self._remote_call(RemoteTransport.call))
        pool = shared_pool()
        self._patch_attr(pool, "run", self._scatter_run(pool.run))

    def _install_database(self, db) -> None:
        registry = db.registry
        for vector_name in VECTORS:
            vector = getattr(registry, vector_name)
            for index, proc in enumerate(vector):
                if proc is not None:
                    vector[index] = self._boundary(
                        layer_of(proc.__self__), vector_name, proc)
                    self._patches.append(("item", vector, index, proc))
        # The executor and the planner reach extensions by attribute as
        # well (``method.fetch_many``, ``attachment.open_scan``,
        # ``rebuild``), not only through the vectors.
        for extension in registry.storage_methods + registry.attachment_types:
            self._patch_object(extension, _public_methods(extension))
        self._patch_object(db.data, _public_methods(db.data))
        query_engine = db.query_engine
        self._patch_object(query_engine, ENGINE_METHODS, "query.engine")
        self._patch_object(query_engine.executor, EXECUTOR_METHODS)
        self._patch_object(query_engine.cache, ("execute",))
        self._patch_object(db.kernel_backend,
                           _public_methods(db.kernel_backend),
                           "query.backends")
        for session in db.sessions():
            self._patch_object(session, SESSION_METHODS)
        for name in SERVICES:
            service = getattr(db.services, name)
            self._patch_object(service, _public_methods(service))
        for entry in db.catalog.relations():
            descriptor = entry.handle.descriptor.storage_descriptor
            replication = (descriptor.get("replication")
                           if isinstance(descriptor, dict) else None)
            if replication is not None:
                self._patch_object(replication,
                                   _public_methods(replication))

    def _remote_call(self, original: Callable) -> Callable:
        """``RemoteTransport.call(channel, stats, action)``: the call is
        ``services.remote``; the action it is handed runs the other
        database, so its inclusive time is the child's busy time."""
        def call(transport, channel, stats, action):
            return original(transport, channel, stats,
                            self.wrap(REMOTE_ACTION, action))
        return self.wrap(("services.remote", "call"), call)

    def _scatter_run(self, original: Callable) -> Callable:
        """``ScatterGather.run(tasks)``: tasks run on pool threads with
        their own span stacks, so the time the caller spends waiting for
        them would be counted twice.  Each task reports how long it ran;
        what ran on another thread is charged to ``run`` as child time
        (never more than the wait itself)."""
        def run(tasks):
            caller = threading.get_ident()
            elsewhere = []

            def timed(task):
                def invoke():
                    started = perf_counter()
                    try:
                        return task()
                    finally:
                        if threading.get_ident() != caller:
                            elsewhere.append(perf_counter() - started)
                return invoke

            self.scatter_tasks += len(tasks)
            started = perf_counter()
            results = original([timed(task) for task in tasks])
            waited = perf_counter() - started
            stack = self._state().stack
            if self.enabled and stack:
                stack[-1][0] += min(sum(elsewhere), waited)
            return results
        return self.wrap(("services.scatter", "run"), run)

    # -- removing --------------------------------------------------------------
    def uninstall(self) -> None:
        """Put every original back, newest patch first."""
        self.enabled = False
        while self._patches:
            patch = self._patches.pop()
            if patch[0] == "item":
                __, vector, index, original = patch
                vector[index] = original
            else:
                __, owner, name, had_own, original = patch
                if had_own:
                    setattr(owner, name, original)
                else:
                    delattr(owner, name)
        self._seen.clear()
