"""Deterministic fault-injection service."""

import pytest

from repro import Database
from repro.errors import ChecksumError, InjectedFault, ReproError
from repro.services import SystemServices
from repro.services.faults import FaultInjector


def test_disarmed_injector_is_inert():
    faults = FaultInjector()
    assert not faults.armed
    faults.fire("disk.read")  # no plan for the point: no-op
    assert faults.injected() == 0


def test_fail_on_nth_call_one_shot():
    faults = FaultInjector()
    faults.arm("disk.read", nth=3)
    for __ in range(2):
        faults.fire("disk.read")
    with pytest.raises(InjectedFault):
        faults.fire("disk.read")
    # One-shot: the plan disarms itself after firing.
    faults.fire("disk.read")
    assert faults.injected("disk.read") == 1


def test_persistent_nth_fires_every_nth_call():
    faults = FaultInjector()
    faults.arm("wal.append", nth=2, one_shot=False)
    fired = 0
    for __ in range(10):
        try:
            faults.fire("wal.append")
        except InjectedFault:
            fired += 1
    assert fired == 5
    assert faults.injected("wal.append") == 5


def test_seeded_probability_is_reproducible():
    def run(seed):
        faults = FaultInjector()
        faults.arm("buffer.write_back", probability=0.3, seed=seed,
                   one_shot=False)
        outcomes = []
        for __ in range(50):
            try:
                faults.fire("buffer.write_back")
                outcomes.append(False)
            except InjectedFault:
                outcomes.append(True)
        return outcomes

    assert run(7) == run(7)
    assert any(run(7))
    assert not all(run(7))
    assert run(7) != run(8)


def test_custom_error_instance_class_and_factory():
    faults = FaultInjector()
    faults.arm("a", nth=1, error=ChecksumError("boom"))
    with pytest.raises(ChecksumError):
        faults.fire("a")
    faults.arm("b", nth=1, error=RuntimeError)
    with pytest.raises(RuntimeError):
        faults.fire("b")
    faults.arm("c", nth=1, error=lambda: ValueError("made to order"))
    with pytest.raises(ValueError):
        faults.fire("c")


def test_injected_fault_is_a_repro_error_with_point():
    faults = FaultInjector()
    faults.arm("disk.write", nth=1)
    with pytest.raises(InjectedFault) as excinfo:
        faults.fire("disk.write")
    assert isinstance(excinfo.value, ReproError)
    assert excinfo.value.point == "disk.write"


def test_disarm_specific_point_and_all():
    faults = FaultInjector()
    faults.arm("x", nth=1)
    faults.arm("y", nth=1)
    faults.disarm("x")
    faults.fire("x")  # no longer armed
    assert "y" in faults._plans
    faults.disarm()
    assert not faults.armed
    faults.fire("y")


def test_injection_counters_reported_via_stats():
    services = SystemServices(page_size=1024)
    services.faults.arm("disk.read", nth=1)
    with pytest.raises(InjectedFault):
        services.faults.fire("disk.read")
    assert services.stats.get("faults.injected") == 1
    assert services.stats.get("faults.injected.disk.read") == 1


def test_services_wire_injector_into_disk_wal_and_buffer():
    services = SystemServices(page_size=1024)
    assert services.disk.faults is services.faults
    assert services.wal.faults is services.faults
    assert services.buffer.faults is services.faults


def test_database_level_injection_at_disk_read():
    db = Database(page_size=1024, buffer_capacity=4)
    table = db.create_table("t", [("a", "INT"), ("pad", "STRING")])
    table.insert_many([(i, "x" * 100) for i in range(200)])
    db.services.faults.arm("disk.read", nth=1)
    with pytest.raises(InjectedFault):
        # Wide rows overflow the tiny pool: the scan must hit the device.
        table.rows()
    assert db.services.stats.get("faults.injected.disk.read") == 1
    # One-shot: the workload proceeds normally afterwards.
    assert len(table.rows()) == 200
