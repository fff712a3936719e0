"""End-to-end integration tests across the full stack.

Each test exercises workload → scheduler → device → metrics paths and
asserts one of the paper's cross-cutting claims at reduced scale.
"""

import pytest

from repro import (
    DiskDevice,
    MEMSDevice,
    MEMSParameters,
    RandomWorkload,
    Simulation,
    atlas_10k,
    make_scheduler,
    simulate,
)
from repro.core.power import (
    EnergyAccountant,
    ImmediateStandbyPolicy,
    mems_power_model,
)
from repro.core.scheduling import FCFSScheduler
from repro.workloads import CelloLikeWorkload, TPCCLikeWorkload


class TestDeviceContrast:
    def test_mems_order_of_magnitude_faster_random(self):
        """MEMS random 4 KB accesses land ~10x below the disk's (§2.1)."""
        def mean_response(device):
            workload = RandomWorkload(device.capacity_sectors, rate=10.0,
                                      seed=11)
            result = simulate(device, FCFSScheduler(), workload.generate(300))
            return result.mean_response_time

        mems = mean_response(MEMSDevice())
        disk = mean_response(DiskDevice(atlas_10k()))
        assert disk / mems > 5

    def test_conservation_all_requests_complete(self):
        device = MEMSDevice()
        workload = RandomWorkload(device.capacity_sectors, rate=800, seed=3)
        requests = workload.generate(2000)
        result = simulate(device, make_scheduler("SPTF", device), requests)
        assert len(result) == 2000
        completed_ids = sorted(r.request.request_id for r in result.records)
        assert completed_ids == list(range(2000))

    def test_response_time_at_least_service_time(self):
        device = MEMSDevice()
        workload = RandomWorkload(device.capacity_sectors, rate=1000, seed=5)
        result = simulate(
            device, make_scheduler("C-LOOK", device), workload.generate(500)
        )
        for record in result.records:
            assert record.response_time >= record.service_time - 1e-12
            assert record.queue_time >= -1e-12


class TestSchedulingClaims:
    def test_scheduling_gains_grow_with_load(self):
        """At low load scheduling barely matters; near saturation the gap
        between FCFS and SPTF opens wide (Figs. 5/6)."""
        def gap(rate):
            results = {}
            for name in ("FCFS", "SPTF"):
                device = MEMSDevice()
                workload = RandomWorkload(device.capacity_sectors, rate=rate,
                                          seed=42)
                result = simulate(
                    device,
                    make_scheduler(name, device),
                    workload.generate(1200),
                )
                results[name] = result.mean_response_time
            return results["FCFS"] / results["SPTF"]

        assert gap(1200) > gap(200)

    def test_all_schedulers_complete_identical_request_sets(self):
        device_capacity = MEMSDevice().capacity_sectors
        requests = RandomWorkload(device_capacity, rate=900, seed=7).generate(600)
        totals = {}
        for name in ("FCFS", "SSTF_LBN", "C-LOOK", "SPTF", "SXTF"):
            device = MEMSDevice()
            scheduler = make_scheduler(
                name, device,
                sectors_per_cylinder=device.geometry.sectors_per_cylinder,
            )
            result = simulate(device, scheduler, requests)
            totals[name] = len(result)
        assert set(totals.values()) == {600}

    def test_sxtf_between_sstf_and_sptf(self):
        """The settle-aware extension should be at least as good as plain
        SSTF_LBN under load (it never mistakes Y distance for X)."""
        device_capacity = MEMSDevice().capacity_sectors
        requests = RandomWorkload(device_capacity, rate=1300, seed=13).generate(1500)
        response = {}
        for name in ("SSTF_LBN", "SXTF"):
            device = MEMSDevice()
            scheduler = make_scheduler(
                name, device,
                sectors_per_cylinder=device.geometry.sectors_per_cylinder,
            )
            result = simulate(device, scheduler, requests)
            response[name] = result.drop_warmup(200).mean_response_time
        assert response["SXTF"] < response["SSTF_LBN"] * 1.1


class TestTraceReplay:
    def test_cello_like_replay_end_to_end(self):
        device = MEMSDevice()
        trace = CelloLikeWorkload(device.capacity_sectors, seed=1).generate(400)
        scaled = trace.scale_arrivals(2.0)
        result = simulate(device, make_scheduler("SPTF", device), scaled)
        assert len(result) == 400

    def test_tpcc_like_replay_end_to_end(self):
        device = MEMSDevice()
        trace = TPCCLikeWorkload(device.capacity_sectors, seed=1).generate(400)
        result = simulate(device, make_scheduler("C-LOOK", device), trace)
        assert len(result) == 400


class TestPowerIntegration:
    def test_energy_accounting_over_simulation(self):
        device = MEMSDevice()
        workload = RandomWorkload(device.capacity_sectors, rate=5.0, seed=2)
        result = simulate(device, FCFSScheduler(), workload.generate(200))
        accountant = EnergyAccountant(mems_power_model(), ImmediateStandbyPolicy())
        report = accountant.evaluate(result.records)
        assert report.total_energy > 0
        assert report.wakeups > 0
        # Idle-dominated workload: access energy is a small share of what
        # the never-standby baseline would burn.
        assert report.total_energy < 0.05 * (
            mems_power_model().idle_power * report.span
        )


class TestSettleAblation:
    def test_settle_dominates_mems_positioning(self):
        """Settle time is the single biggest positioning lever (§4.4)."""
        def mean_service(params):
            device = MEMSDevice(params)
            workload = RandomWorkload(device.capacity_sectors, rate=10,
                                      seed=21)
            result = simulate(device, FCFSScheduler(), workload.generate(200))
            return result.mean_service_time

        none = mean_service(MEMSParameters(settle_constants=0.0))
        one = mean_service(MEMSParameters(settle_constants=1.0))
        two = mean_service(MEMSParameters(settle_constants=2.0))
        settle = MEMSParameters().settle_time
        assert one - none == pytest.approx(settle, rel=0.25)
        assert two - one == pytest.approx(settle, rel=0.35)


class TestDecoratorComposition:
    def test_cached_array_of_flaky_mems(self):
        """Decorators compose: a buffered RAID-5 array whose members
        inject seek errors still behaves like a storage device."""
        from repro import ArrayLevel, CachedDevice, StorageArray
        from repro.core.faults import SeekErrorDevice
        from repro.workloads import SequentialWorkload

        def member():
            return SeekErrorDevice(MEMSDevice(), 0.02, seed=9)

        array = StorageArray(ArrayLevel.RAID5, member, members=4)
        device = CachedDevice(array)
        workload = SequentialWorkload(
            device.capacity_sectors, rate=100.0, request_sectors=16, seed=2
        )
        result = simulate(device, FCFSScheduler(), workload.generate(300))
        assert len(result) == 300
        assert result.mean_response_time > 0
        # Prefetching still engages through the stack.
        assert device.cache.stats.prefetched_sectors > 0

    def test_power_managed_fault_tolerant_device(self):
        from repro.core.faults import FaultTolerantMEMSDevice
        from repro.core.power import (
            ImmediateStandbyPolicy,
            PowerManagedDevice,
            mems_power_model,
        )

        inner = FaultTolerantMEMSDevice()
        inner.fail_tip(7)
        device = PowerManagedDevice(
            inner, mems_power_model(), ImmediateStandbyPolicy()
        )
        workload = RandomWorkload(device.capacity_sectors, rate=5.0, seed=3)
        result = simulate(device, FCFSScheduler(), workload.generate(100))
        assert len(result) == 100
        assert device.wakeups > 0
        assert device.energy_joules > 0
