"""Seeded input generators owned by the benchmark.

Nothing here imports ``repro``: a change under ``src/`` can never alter
the inputs, and the program under test only ever sees generated values.
``--seed`` is the only source of randomness.  Every stream is a
``random.Random`` seeded with a *string* (hashed with SHA-512, so it is
independent of ``PYTHONHASHSEED``).

Generators draw from fixed multisets (shuffled balanced lists, permuted
arithmetic sequences) rather than independent uniform draws, so group
sizes, filter selectivities and aggregates are identical for every seed:
a different seed moves *where* values sit, not how much work a query
does.  That keeps seed-to-seed spread a measure of the machine, not of
the data.
"""

from __future__ import annotations

import random
from typing import Dict, List, Sequence, Tuple

DEPTS = tuple(f"d{i}" for i in range(8))
#: department -> floor (the 8-row dimension table of the join shape).
FLOORS = {dept: i % 3 for i, dept in enumerate(DEPTS)}
REGIONS = tuple(f"r{i}" for i in range(8))
ZONES = {region: i % 3 for i, region in enumerate(REGIONS)}
BRANCHES = tuple(f"b{i}" for i in range(8))
BRANCH_REGION = {branch: i % 3 for i, branch in enumerate(BRANCHES)}

#: Base salaries are ``SALARY_BASE + SALARY_STEP * j`` for a permutation
#: ``j`` of ``range(n)``: unique, so ``ORDER BY salary`` has no ties.
SALARY_BASE = 30_000
SALARY_STEP = 20
#: Rows inserted while a workload runs sit above every base salary.
FRESH_SALARY_BASE = 1_000_000
OPENING_BALANCE = 1000


def stream(seed: int, name: str) -> random.Random:
    """An independent random stream for ``name`` under ``seed``."""
    return random.Random(f"e2e/{seed}/{name}")


def _balanced(rng: random.Random, values: Sequence, n: int) -> list:
    """``n`` draws from ``values`` with equal quotas, in shuffled order."""
    out = [values[i % len(values)] for i in range(n)]
    rng.shuffle(out)
    return out


def employee_rows(rng: random.Random, n: int) -> List[Tuple]:
    """``(id, name, dept, salary, active)`` for ids ``0..n-1``: balanced
    departments, unique salaries, exactly four fifths active."""
    depts = _balanced(rng, DEPTS, n)
    active = _balanced(rng, (True, True, True, True, False), n)
    ranks = list(range(n))
    rng.shuffle(ranks)
    return [(i, f"emp{i}", depts[i],
             float(SALARY_BASE + SALARY_STEP * ranks[i]), active[i])
            for i in range(n)]


def salary_threshold(n: int) -> float:
    """The filter shape's threshold: the top quarter of base salaries."""
    return float(SALARY_BASE + SALARY_STEP * (n - n // 4) - 1)


def fresh_employee(row_id: int) -> Tuple:
    """A row inserted during a run; a pure function of its id."""
    return (row_id, f"emp{row_id}", DEPTS[row_id % len(DEPTS)],
            float(FRESH_SALARY_BASE + row_id), row_id % 5 != 0)


def department_rows() -> List[Tuple]:
    return list(FLOORS.items())


def sales_rows(rng: random.Random, n: int) -> List[Tuple]:
    """``(id, region, amount)``: balanced regions, unique amounts."""
    regions = _balanced(rng, REGIONS, n)
    amounts = list(range(1, n + 1))
    rng.shuffle(amounts)
    return [(i, regions[i], amounts[i]) for i in range(n)]


def region_rows() -> List[Tuple]:
    return list(ZONES.items())


def ledger_row(row_id: int) -> Tuple:
    """``(id, acct, amount)``; a pure function of its id."""
    return (row_id, row_id % 100, row_id * 3)


def account_rows(rng: random.Random, n: int) -> List[Tuple]:
    """``(id, branch, balance)`` with every balance ``OPENING_BALANCE``."""
    branches = _balanced(rng, BRANCHES, n)
    return [(i, branches[i], OPENING_BALANCE) for i in range(n)]


def branch_rows() -> List[Tuple]:
    return list(BRANCH_REGION.items())


def op_mix(rng: random.Random, quotas: Dict[str, int]) -> List[str]:
    """A shuffled op sequence holding exactly ``quotas[op]`` of each op, so
    every round of every seed does the same amount of each kind of work."""
    ops = [op for op, count in quotas.items() for _ in range(count)]
    rng.shuffle(ops)
    return ops


def transfer_ids(rng: random.Random, n_accounts: int, writers: int
                 ) -> List[Tuple[int, int]]:
    """One wave of transfers: a (debit, credit) pair per writer, all ids
    distinct so concurrent writers never touch the same row."""
    ids = rng.sample(range(n_accounts), 2 * writers)
    return [(ids[2 * i], ids[2 * i + 1]) for i in range(writers)]
