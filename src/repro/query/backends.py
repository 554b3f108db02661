"""The kernel backend of the columnar operator IR.

The IR (:mod:`.ir`) describes *what* column-level work a plan performs;
the backend is *how* each vector primitive runs: lists of Python values
in, lists of Python values out, ``None`` meaning SQL NULL throughout.
Per-row work stays inside C-implemented primitives (comprehension
bytecode, ``zip``, ``sorted``, ``dict``).  Scalar expressions are not
here: each bound tree generates its own comprehensions
(:mod:`repro.services.predicate`).  What is left is selection-vector
work and the join primitives.  ``Database.kernel_backend`` holds one per
database.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

__all__ = ["PythonBackend"]


class PythonBackend:
    """The vector primitives the IR programs against: selection vectors
    plus the hash and merge join primitives."""

    def gather(self, values, selection: Sequence[int]) -> list:
        return [values[i] for i in selection]

    # -- join primitives -----------------------------------------------
    def hash_build(self, keys) -> Dict[object, List[int]]:
        """Key → build-side ordinals (insertion order); NULL and NaN keys
        never join, so they are left out of the table (and so a probe
        finds no NaN, though a dict finds a key by identity first)."""
        table: Dict[object, List[int]] = {}
        setdefault = table.setdefault
        for ordinal, key in enumerate(keys):
            if key is not None and key == key:
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
        of matching runs, left-major.  A NULL or a NaN (which orders
        against nothing) is passed over."""
        left_out: List[int] = []
        right_out: List[int] = []
        i = j = 0
        nl, nr = len(left_keys), len(right_keys)
        while i < nl and j < nr:
            lk = left_keys[i]
            if lk is None or lk != lk:
                i += 1
                continue
            rk = right_keys[j]
            if rk is None or rk != rk:
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
