"""Kernel backend protocol: resolution and python ↔ NumPy parity.

The NumPy backend must be an *implementation detail*: every primitive
returns plain Python lists with ``None`` for SQL NULL, bit-identical to
the pure-Python backend — including the places NumPy would naturally
diverge (int64 overflow, float coercion of large ints, division by
zero), where the backend detects the hazard and delegates to the Python
implementation instead.
"""

from __future__ import annotations

import pytest

from repro.errors import PredicateError
from repro.query import backends

requires_numpy = pytest.mark.skipif(not backends.numpy_available(),
                                    reason="NumPy not available")


def test_resolve_default_and_names(monkeypatch):
    assert backends.resolve("python").name == "python"
    auto = backends.resolve(None)
    assert auto.name == ("numpy" if backends.numpy_available()
                         else "python")
    monkeypatch.setenv(backends._DISABLE_ENV, "1")
    assert backends.resolve(None).name == "python"
    with pytest.raises(PredicateError):
        backends.resolve("numpy")


def test_resolve_rejects_unknown_spec():
    with pytest.raises(PredicateError):
        backends.resolve("vectorwise")


def test_backend_instance_passes_through():
    backend = backends.PythonBackend()
    assert backends.resolve(backend) is backend


PAIRS = [
    ([3, None, 1, 3, 2], [3, 1, None, 4]),
    (["b", "a", None, "b"], ["a", "b", "c"]),
    ([1.5, 2.5, 1.5], [1.5, 1.5, 9.0]),
    ([], [1, 2]),
    ([True, False, None], [False, True]),
]


@requires_numpy
@pytest.mark.parametrize("build_keys,probe_keys", PAIRS)
def test_hash_join_primitives_parity(build_keys, probe_keys):
    """NumPy has no join primitive of its own: a probe is the Python
    body on either backend."""
    py, np_b = backends.PythonBackend(), backends.NumpyBackend()
    table_py = py.hash_build(build_keys)
    table_np = np_b.hash_build(build_keys)
    assert {k: list(v) for k, v in table_py.items()} \
        == {k: list(v) for k, v in table_np.items()}
    assert type(np_b).hash_probe is backends.PythonBackend.hash_probe


@requires_numpy
@pytest.mark.parametrize("keys", [
    [3, 1, 2, 1, 3, 3, None, 2],
    ["b", "a", "b", "a"],
    [1.0, 2.0, 1.0],
    [True, False, True, None],
    [],
])
def test_group_runs_parity(keys):
    py, np_b = backends.PythonBackend(), backends.NumpyBackend()
    py_order, py_starts = py.group_runs(keys)
    np_order, np_starts = np_b.group_runs(keys)
    assert list(py_order) == list(np_order)
    assert list(py_starts) == list(np_starts)


@requires_numpy
def test_merge_pairs_parity():
    left = [1, 1, 2, 4, 4, 4, 7]
    right = [1, 2, 2, 4, 5]
    py, np_b = backends.PythonBackend(), backends.NumpyBackend()
    assert tuple(map(list, py.merge_pairs(left, right))) \
        == tuple(map(list, np_b.merge_pairs(left, right)))


@requires_numpy
def test_numpy_arith_bit_identity_hazards():
    py, np_b = backends.PythonBackend(), backends.NumpyBackend()
    big = 2**62
    # Pure-int arithmetic that would overflow int64 must match Python's
    # arbitrary precision, not wrap.
    assert np_b.arith("+", [big, 1, None], [big, 2, 3]) \
        == py.arith("+", [big, 1, None], [big, 2, 3])
    # Large ints compared against floats: float64 is lossy past 2^53,
    # so the comparison must not round-trip through it.
    huge = 2**53 + 1
    assert np_b.compare("=", [huge], [float(2**53)]) \
        == py.compare("=", [huge], [float(2**53)])
    # Division by zero raises PredicateError on both.
    for backend in (py, np_b):
        with pytest.raises(PredicateError):
            backend.arith("/", [1.0], [0])


@requires_numpy
def test_numpy_three_valued_logic_parity():
    py, np_b = backends.PythonBackend(), backends.NumpyBackend()
    a = [True, False, None, True, None]
    b = [None, None, None, True, False]
    for op in ("logical_and", "logical_or"):
        assert getattr(np_b, op)([a, b]) == getattr(py, op)([a, b])
    assert np_b.logical_not(a) == py.logical_not(a)
    assert np_b.select_true(a) == py.select_true(a)
