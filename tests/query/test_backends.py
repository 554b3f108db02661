"""The kernel backend's join primitives against a nested loop.

Every primitive returns plain Python lists with ``None`` for SQL NULL;
the hash and merge primitives must pair exactly what a nested loop over
the two key vectors pairs, NULL keys never joining.
"""

from __future__ import annotations

import pytest

from repro import Database
from repro.query import backends


def nested_loop(left_keys, right_keys):
    """Every (left ordinal, right ordinal) whose keys are equal and not
    NULL, left-major, right matches in arrival order."""
    return [(i, j) for i, lk in enumerate(left_keys)
            for j, rk in enumerate(right_keys)
            if lk is not None and lk == rk]


def test_each_database_has_one_python_backend():
    first, second = Database(), Database()
    assert isinstance(first.kernel_backend, backends.PythonBackend)
    assert first.kernel_backend is first.kernel_backend
    assert first.kernel_backend is not second.kernel_backend


PAIRS = [
    ([3, None, 1, 3, 2], [3, 1, None, 4]),
    (["b", "a", None, "b"], ["a", "b", "c"]),
    ([1.5, 2.5, 1.5], [1.5, 1.5, 9.0]),
    ([], [1, 2]),
    ([True, False, None], [False, True]),
]


@pytest.mark.parametrize("build_keys,probe_keys", PAIRS)
def test_hash_join_primitives_parity(build_keys, probe_keys):
    """Build on one side, probe with the other: probe-major pairs, build
    matches in insertion order — the nested loop with its sides swapped."""
    backend = backends.PythonBackend()
    table = backend.hash_build(build_keys)
    assert None not in table
    probe, build = backend.hash_probe(table, probe_keys)
    assert list(zip(probe, build)) == nested_loop(probe_keys, build_keys)


def test_merge_pairs_parity():
    left = [None, 1, 1, 2, 4, 4, 4, 7]
    right = [None, 1, 2, 2, 4, 5]
    left_sel, right_sel = backends.PythonBackend().merge_pairs(left, right)
    assert list(zip(left_sel, right_sel)) == nested_loop(left, right)
