"""Tests for the scheduler registry (SCHEDULERS / make_scheduler)."""

import pytest

from repro.core.scheduling import (
    PAPER_ALGORITHMS,
    SCHEDULERS,
    default_sectors_per_cylinder,
    make_scheduler,
)
from repro.disk import DiskDevice, atlas_10k
from repro.mems import MEMSDevice


class TestRegistryContents:
    def test_names(self):
        assert SCHEDULERS.names() == [
            "FCFS",
            "SSTF_LBN",
            "C-LOOK",
            "SCAN",
            "SPTF",
            "ASPTF",
            "SXTF",
        ]

    def test_paper_algorithms_all_registered(self):
        for name in PAPER_ALGORITHMS:
            assert name in SCHEDULERS

    @pytest.mark.parametrize(
        "spelling", ["sptf", "SPTF", "s-p-t-f", "c_look", "C-LOOK", "sstf"]
    )
    def test_spelling_tolerance(self, spelling):
        device = MEMSDevice()
        scheduler = make_scheduler(spelling, device)
        assert scheduler.name in ("SPTF", "C-LOOK", "SSTF_LBN")

    def test_sstf_alias(self):
        assert SCHEDULERS.canonical_name("SSTF") == "SSTF_LBN"


class TestMakeScheduler:
    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown scheduler"):
            make_scheduler("LIFO", MEMSDevice())

    def test_kwargs_forwarded(self):
        scheduler = make_scheduler("ASPTF", MEMSDevice(), age_weight=0.07)
        assert scheduler.age_weight == 0.07

    def test_sptf_cache_kwarg(self):
        # SPTF takes no options: a saved config that sets ``cache`` must
        # fail loudly rather than silently run something else.
        with pytest.raises(ValueError) as excinfo:
            make_scheduler("SPTF", MEMSDevice(), cache=False)
        message = str(excinfo.value)
        assert "SPTF" in message
        assert "'cache'" in message
        assert "accepted: none" in message

    @pytest.mark.parametrize(
        "name, options, accepted",
        [
            ("FCFS", {"prune": "never"}, "none"),
            ("SPTF", {"age_weight": 0.5}, "none"),
            ("ASPTF", {"age_weight": 0.5, "prune": False}, "'age_weight'"),
            ("SXTF", {"cache": True}, "'sectors_per_cylinder'"),
        ],
    )
    def test_unknown_options_rejected(self, name, options, accepted):
        with pytest.raises(ValueError) as excinfo:
            make_scheduler(name, MEMSDevice(), **options)
        message = str(excinfo.value)
        assert f"scheduler {name} does not accept" in message
        assert message.endswith(f"accepted: {accepted}")
        for option in options:
            if option != "age_weight" or name != "ASPTF":
                assert repr(option) in message.split(";")[0]

    @pytest.mark.parametrize("name", SCHEDULERS.names())
    def test_sectors_per_cylinder_accepted_by_every_scheduler(self, name):
        device = MEMSDevice()
        spc = device.geometry.sectors_per_cylinder
        scheduler = make_scheduler(name, device, sectors_per_cylinder=spc)
        assert scheduler.name == SCHEDULERS.canonical_name(name)


class TestSXTFAutoGeometry:
    def test_mems_derives_from_geometry(self):
        device = MEMSDevice()
        scheduler = make_scheduler("SXTF", device)
        assert (
            scheduler._spc
            == device.geometry.sectors_per_cylinder
        )

    def test_disk_derives_from_cylinders(self):
        device = DiskDevice(atlas_10k())
        scheduler = make_scheduler("SXTF", device)
        expected = device.capacity_sectors // device.params.cylinders
        assert scheduler._spc == expected

    def test_explicit_override_wins(self):
        scheduler = make_scheduler(
            "SXTF", MEMSDevice(), sectors_per_cylinder=1234
        )
        assert scheduler._spc == 1234

    def test_default_sectors_per_cylinder_values(self):
        mems = MEMSDevice()
        assert (
            default_sectors_per_cylinder(mems)
            == mems.geometry.sectors_per_cylinder
        )
        disk = DiskDevice(atlas_10k())
        assert default_sectors_per_cylinder(disk) > 0

    def test_geometry_free_device_rejected(self):
        class Bare:
            pass

        with pytest.raises(ValueError):
            default_sectors_per_cylinder(Bare())
