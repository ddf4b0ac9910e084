"""Failure-injection tests: dead disks must degrade, not crash."""

import numpy as np
import pytest

from repro.core import EEVFSConfig
from repro.core.filesystem import EEVFSCluster
from repro.disk import ATA_80GB_TYPE1, DiskState, SimDisk
from repro.disk.drive import DiskFailureError
from repro.faults import FaultSchedule
from repro.sim import Simulator
from repro.traces import generate_synthetic_trace
from repro.traces.synthetic import MB, SyntheticWorkload

SPEC = ATA_80GB_TYPE1


class TestDriveFailure:
    def test_failed_disk_draws_no_power(self):
        sim = Simulator()
        disk = SimDisk(sim, SPEC)

        def proc():
            yield sim.timeout(10.0)
            disk.fail()
            yield sim.timeout(100.0)

        sim.process(proc())
        sim.run()
        disk.finalize()
        assert disk.state is DiskState.FAILED
        assert disk.energy_j() == pytest.approx(10.0 * SPEC.power_idle_w)

    def test_submit_to_failed_disk_fails_fast(self):
        sim = Simulator()
        disk = SimDisk(sim, SPEC)
        outcomes = []

        def proc():
            disk.fail()
            req = disk.submit(1 * MB)
            try:
                yield req.done
            except DiskFailureError as exc:
                outcomes.append(str(exc))

        sim.process(proc())
        sim.run()
        assert outcomes and "failed" in outcomes[0]

    def test_queued_requests_fail_on_injection(self):
        sim = Simulator()
        disk = SimDisk(sim, SPEC)
        outcomes = []

        def waiter(req):
            try:
                yield req.done
                outcomes.append("ok")
            except DiskFailureError:
                outcomes.append("failed")

        def proc():
            # First request starts service; the rest queue behind it.
            for _ in range(3):
                sim.process(waiter(disk.submit(50 * MB)))
            yield sim.timeout(0.1)  # mid-service of request 1
            disk.fail()

        sim.process(proc())
        sim.run()
        # The in-service request completes; the two queued ones fail.
        assert sorted(outcomes) == ["failed", "failed", "ok"]

    def test_fail_is_idempotent(self):
        sim = Simulator()
        disk = SimDisk(sim, SPEC)
        disk.fail()
        disk.fail()
        assert disk.state is DiskState.FAILED

    def test_fail_during_spinup_settles_cleanly(self):
        sim = Simulator()
        disk = SimDisk(sim, SPEC)
        outcomes = []

        def proc():
            disk.request_sleep()
            yield sim.timeout(SPEC.spindown_s + 1.0)
            req = disk.submit(1 * MB)  # triggers a spin-up
            yield sim.timeout(0.5)  # mid-spin-up
            disk.fail()
            try:
                yield req.done
                outcomes.append("ok")
            except DiskFailureError:
                outcomes.append("failed")

        sim.process(proc())
        sim.run()
        assert outcomes == ["failed"]
        assert disk.state is DiskState.FAILED

    def test_fail_before_a_failed_spinup_starts(self):
        """An injected failed spin-up queued behind fail() must leave the
        FAILED state alone instead of raising IllegalTransition."""
        sim = Simulator()
        disk = SimDisk(sim, SPEC)
        assert disk.request_sleep()
        sim.run()
        assert disk.state is DiskState.STANDBY
        disk.inject_spinup_failures(1)
        assert disk.wake()
        disk.fail()
        sim.run()
        assert disk.state is DiskState.FAILED
        assert disk.spinup_failures == 1

    def test_fail_at_schedules_failure_but_is_deprecated(self):
        sim = Simulator()
        disk = SimDisk(sim, SPEC)
        with pytest.warns(DeprecationWarning, match="FaultSchedule"):
            disk.fail_at(25.0)
        sim.run(until=30.0)
        assert disk.state is DiskState.FAILED
        with pytest.warns(DeprecationWarning), pytest.raises(ValueError):
            disk.fail_at(1.0)  # the past

    def test_power_manager_ignores_failed_disk(self):
        from repro.core.power import PowerManager

        sim = Simulator()
        disk = SimDisk(sim, SPEC)
        pm = PowerManager(sim, [disk], idle_threshold_s=5.0)
        disk.fail()
        pm.set_hints([[]], [[]])
        sim.run(until=1.0)
        assert disk.state is DiskState.FAILED  # no sleep attempted


class TestClusterUnderFailure:
    @pytest.fixture(scope="class")
    def trace(self):
        return generate_synthetic_trace(
            SyntheticWorkload(n_requests=300, mu=1000),
            rng=np.random.default_rng(6),
        )

    def test_cluster_survives_data_disk_failure(self, trace):
        cluster = EEVFSCluster(
            config=EEVFSConfig(),
            faults=FaultSchedule().disk_fail("node1/data0", at=50.0),
        )
        result = cluster.run(trace)
        # Every request got *an* answer -- data or explicit failure.
        assert result.requests_total + result.requests_failed == trace.n_requests
        assert result.requests_failed > 0
        assert len(cluster.client.failures) == result.requests_failed
        assert result.fault_events == 1

    def test_prefetched_files_survive_their_data_disks(self, trace):
        """Buffer copies act as accidental replicas: reads of prefetched
        files keep succeeding after their data disk dies."""
        cluster = EEVFSCluster(
            config=EEVFSConfig(prefetch_files=70),
            faults=FaultSchedule().disk_fail("node1/data0", at=10.0),
        )
        node = cluster.nodes[0]
        cluster.run(trace)
        failed_files = {file_id for _, file_id, _ in cluster.client.failures}
        for file_id in failed_files:
            assert not node.metadata.is_prefetched(file_id)

    def test_npf_cluster_survives_failure_too(self, trace):
        cluster = EEVFSCluster(
            config=EEVFSConfig(prefetch_enabled=False),
            faults=FaultSchedule().disk_fail("node3/data1", at=30.0),
        )
        result = cluster.run(trace)
        assert result.requests_total + result.requests_failed == trace.n_requests

    def test_no_failures_without_injection(self, trace):
        result = EEVFSCluster(config=EEVFSConfig()).run(trace)
        assert result.requests_failed == 0


def test_striped_read_survives_both_stripe_disks_failing():
    """A striped read whose two data disks fail together: the all_of over
    the stripe reads fires on the first failure and must absorb the
    second, or the run dies with an unhandled DiskFailureError."""
    trace = generate_synthetic_trace(
        SyntheticWorkload(n_requests=400, inter_arrival_s=0.05),
        rng=np.random.default_rng(1),
    )
    cluster = EEVFSCluster(
        config=EEVFSConfig(stripe_width=2),
        seed=1,
        faults=FaultSchedule().node_fail("node1", at=5.0),
    )
    result = cluster.run(trace)
    assert result.requests_total + result.requests_failed == trace.n_requests
    assert result.requests_failed > 0
