"""Pluggable kernel backends for the columnar operator IR.

The IR (:mod:`.ir`) describes *what* column-level work a plan performs;
a backend decides *how* each vector primitive runs.  The contract is
deliberately narrow — lists of Python values in, lists of Python values
out, ``None`` meaning SQL NULL throughout — so a backend can be swapped
behind the same compiled program with zero planner changes and
bit-identical results.

Two backends ship:

* :class:`PythonBackend` — the default.  Per-row work stays inside
  C-implemented primitives (comprehension bytecode, ``zip``, ``sorted``,
  ``dict``).  Its scalar-expression primitives are the predicate
  service's :class:`~repro.services.vectors.VectorOps`, unchanged.
* :class:`NumpyBackend` — optional (``pip install repro[numpy]``).  It
  packs homogeneous columns into ``ndarray`` storage per call and runs
  comparisons, float arithmetic and stable sorts through NumPy, falling
  back to the Python primitive whenever a column does not pack or the
  operation's SQL semantics (NULL propagation, exact int arithmetic,
  division errors) cannot be reproduced exactly.  Results are
  bit-identical by construction: every value crossing the boundary
  round-trips through ``ndarray.tolist()``, aggregate folds reuse the
  shared sequential-order kernels, and any case NumPy would answer
  differently (int overflow, division by zero, mixed-type columns) is
  delegated to the Python primitive instead.

Backend selection: ``Database(kernel_backend=...)`` accepts ``"python"``,
``"numpy"``, a backend instance, or ``None`` for auto-detection (NumPy
when importable, unless ``REPRO_DISABLE_NUMPY`` is set — the CI leg that
proves the pure-Python fallback sets it).
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import PredicateError
from ..services.vectors import VectorOps

__all__ = ["KernelBackend", "PythonBackend", "NumpyBackend",
           "numpy_available", "resolve"]

#: Environment switch: pretend NumPy is absent (CI fallback leg, tests).
_DISABLE_ENV = "REPRO_DISABLE_NUMPY"


def numpy_available() -> bool:
    """Whether the NumPy backend can be used in this process."""
    if os.environ.get(_DISABLE_ENV):
        return False
    try:
        import numpy  # noqa: F401
    except Exception:
        return False
    return True


def resolve(spec=None) -> "KernelBackend":
    """Resolve a ``Database(kernel_backend=...)`` argument to a backend.

    ``None`` auto-detects (NumPy when available), strings name a backend,
    and instances pass through unchanged.
    """
    if spec is None:
        return NumpyBackend() if numpy_available() else PythonBackend()
    if isinstance(spec, KernelBackend):
        return spec
    if isinstance(spec, str):
        name = spec.lower()
        if name == "python":
            return PythonBackend()
        if name == "numpy":
            if not numpy_available():
                raise PredicateError(
                    "kernel_backend='numpy' requested but NumPy is not "
                    "importable (install repro[numpy])")
            return NumpyBackend()
        raise PredicateError(f"unknown kernel backend {spec!r}")
    raise PredicateError(f"cannot resolve kernel backend from {spec!r}")


class KernelBackend(VectorOps):
    """The vector-primitive protocol the IR programs against.

    The scalar-expression half (``arith`` … ``apply``, ``select_true``,
    ``gather``) is inherited from the predicate service's
    :class:`~repro.services.vectors.VectorOps`, the pure-Python reference
    that storage scans filter their batches with; a backend adds the join
    and grouping primitives below and may override any inherited one with
    a faster body that answers bit-identically.
    """

    name = "abstract"

    def hash_build(self, keys) -> Dict[object, List[int]]:
        raise NotImplementedError

    def hash_probe(self, table: Dict[object, List[int]], keys
                   ) -> Tuple[List[int], List[int]]:
        raise NotImplementedError

    def merge_pairs(self, left_keys, right_keys
                    ) -> Tuple[List[int], List[int]]:
        raise NotImplementedError

    def group_runs(self, keys) -> Tuple[List[int], List[int]]:
        raise NotImplementedError


class PythonBackend(KernelBackend):
    """Pure-Python vector primitives (the default backend).

    Each method is one Python-level dispatch per batch; the per-row work
    runs inside C-implemented primitives.  This is the reference
    implementation every other backend must match bit-for-bit.
    """

    name = "python"

    # -- join / group primitives ---------------------------------------
    def hash_build(self, keys) -> Dict[object, List[int]]:
        """Key → build-side ordinals (insertion order); NULL keys never
        join, so they are left out of the table."""
        table: Dict[object, List[int]] = {}
        setdefault = table.setdefault
        for ordinal, key in enumerate(keys):
            if key is not None:
                setdefault(key, []).append(ordinal)
        return table

    def hash_probe(self, table: Dict[object, List[int]], keys
                   ) -> Tuple[List[int], List[int]]:
        """Parallel (probe ordinal, build ordinal) match lists, probe-major
        with build matches in insertion order."""
        probe_out: List[int] = []
        build_out: List[int] = []
        get = table.get
        for ordinal, key in enumerate(keys):
            if key is None:
                continue
            bucket = get(key)
            if bucket:
                probe_out.extend([ordinal] * len(bucket))
                build_out.extend(bucket)
        return probe_out, build_out

    def merge_pairs(self, left_keys, right_keys
                    ) -> Tuple[List[int], List[int]]:
        """Equi-join two key vectors that already arrive sorted ascending:
        detect runs of equal keys on each side and emit the cross product
        of matching runs, left-major."""
        left_out: List[int] = []
        right_out: List[int] = []
        i = j = 0
        nl, nr = len(left_keys), len(right_keys)
        while i < nl and j < nr:
            lk = left_keys[i]
            if lk is None:
                i += 1
                continue
            rk = right_keys[j]
            if rk is None:
                j += 1
                continue
            if lk < rk:
                i += 1
            elif rk < lk:
                j += 1
            else:
                i_end = i + 1
                while i_end < nl and left_keys[i_end] == lk:
                    i_end += 1
                j_end = j + 1
                while j_end < nr and right_keys[j_end] == rk:
                    j_end += 1
                span = j_end - j
                for li in range(i, i_end):
                    left_out.extend([li] * span)
                    right_out.extend(range(j, j_end))
                i, j = i_end, j_end
        return left_out, right_out

    def group_runs(self, keys) -> Tuple[List[int], List[int]]:
        """Sort-based grouping: a stable order over the key vector plus
        the start offset of each run of equal keys.

        The sort key is ``repr`` so mixed-type and NULL keys order
        deterministically; stability preserves arrival order within each
        group, so a float fold sees its values in the same order on every
        backend.
        """
        n = len(keys)
        reprs = list(map(repr, keys))
        order = sorted(range(n), key=reprs.__getitem__)
        ordered = [keys[i] for i in order]
        starts = [0] if n else []
        starts.extend(i for i in range(1, n)
                      if ordered[i] != ordered[i - 1])
        return order, starts


class NumpyBackend(PythonBackend):
    """NumPy-accelerated primitives behind the same IR.

    Falls back to the Python primitive per call whenever a column does
    not pack into a homogeneous ``ndarray`` or NumPy's semantics would
    diverge from SQL's (int overflow wraps, ``/0`` yields ``inf``), so
    swapping this backend in can change only the speed of an answer.
    """

    name = "numpy"

    def __init__(self):
        import numpy
        self._np = numpy

    # -- packing -------------------------------------------------------
    def _pack(self, values, numeric_only: bool = False):
        """``values`` as a homogeneous ndarray, or ``None``.

        Only exact-typed columns pack: all-int (int64 range), all-float,
        or — unless ``numeric_only`` — all-str.  Mixed int/float columns
        are refused because packing would turn exact int arithmetic into
        float arithmetic and break bit-identity with the Python backend.
        """
        np = self._np
        if isinstance(values, np.ndarray):
            return values
        if not values:
            return None
        first_type = type(values[0])
        if first_type is int:
            if any(type(v) is not int for v in values):
                return None
            try:
                return np.asarray(values, dtype=np.int64)
            except OverflowError:
                return None
        if first_type is float:
            if any(type(v) is not float for v in values):
                return None
            return np.asarray(values, dtype=np.float64)
        if first_type is str and not numeric_only:
            if any(type(v) is not str for v in values):
                return None
            return np.asarray(values)
        return None

    # -- scalar expression primitives ----------------------------------
    def arith(self, op: str, left, right) -> list:
        np = self._np
        lhs = self._pack(left, numeric_only=True)
        rhs = self._pack(right, numeric_only=True) if lhs is not None \
            else None
        # Exact-int arithmetic must stay in Python (int64 overflow wraps
        # silently); float results are IEEE-754 either way.
        if lhs is None or rhs is None \
                or (lhs.dtype.kind != "f" and rhs.dtype.kind != "f"):
            return super().arith(op, left, right)
        if op == "+":
            return (lhs + rhs).tolist()
        if op == "-":
            return (lhs - rhs).tolist()
        if op == "*":
            return (lhs * rhs).tolist()
        if op in ("/", "%"):
            if bool((rhs == 0).any()):
                # Python raises through ZeroDivisionError; NumPy
                # would answer inf/nan.  Delegate for identical errors.
                return super().arith(op, left, right)
            divided = lhs / rhs if op == "/" else np.mod(lhs, rhs)
            return divided.tolist()
        return super().arith(op, left, right)

    def compare(self, op: str, left, right) -> list:
        lhs = self._pack(left)
        rhs = self._pack(right) if lhs is not None else None
        # Mixed kinds fall back: int64 vs float64 comparison would route
        # through lossy float conversion (Python compares exactly).
        if lhs is None or rhs is None or lhs.dtype.kind != rhs.dtype.kind:
            return super().compare(op, left, right)
        if op == "=":
            return (lhs == rhs).tolist()
        if op == "!=":
            return (lhs != rhs).tolist()
        if op == "<":
            return (lhs < rhs).tolist()
        if op == "<=":
            return (lhs <= rhs).tolist()
        if op == ">":
            return (lhs > rhs).tolist()
        if op == ">=":
            return (lhs >= rhs).tolist()
        return super().compare(op, left, right)

    # -- selection / materialisation -----------------------------------
    def select_true(self, values) -> List[int]:
        np = self._np
        if values and all(type(v) is bool for v in values):
            return np.nonzero(np.asarray(values, dtype=bool))[0].tolist()
        return super().select_true(values)

    def gather(self, values, selection: Sequence[int]) -> list:
        packed = self._pack(values)
        if packed is None or not selection:
            return super().gather(values, selection)
        np = self._np
        return packed[np.asarray(selection, dtype=np.intp)].tolist()

    # -- group primitive (a hash probe runs on the Python body) --------
    def group_runs(self, keys) -> Tuple[List[int], List[int]]:
        np = self._np
        packed = self._pack(keys)
        if packed is None:
            return super().group_runs(keys)
        order = np.argsort(packed, kind="stable")
        ordered = packed[order]
        if len(ordered):
            starts = [0]
            starts.extend(
                (np.nonzero(ordered[1:] != ordered[:-1])[0] + 1).tolist())
        else:
            starts = []
        return order.tolist(), starts
