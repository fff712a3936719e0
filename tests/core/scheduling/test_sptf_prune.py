"""SPTF's best-first selection must dispatch exactly what a plain scan does.

Deeper than ``SCAN_DEPTH`` pending requests, SPTF prices candidates in
order of an admissible lower bound and stops at the first bound strictly
greater than the best exact score.  These tests pin the properties that
rests on:

* **equivalence** — every selection matches
  :class:`~tests.core.scheduling.sptf_reference.ReferenceSPTF`, a plain
  full scan, on both devices and both SPTF variants: on seeded and
  hypothesis-generated queues from 0 to 1024 deep (random, duplicated,
  single-cylinder and clustered streams), on layout-driven streams, and
  over whole traced and untraced simulations;
* **bound order** — every hypothesis-generated selection also prices
  exactly the candidates
  :func:`~tests.core.scheduling.sptf_reference.bound_order_selection`
  prices, on both devices and on :class:`StepDevice`, whose staircase
  bound table makes equal bounds span many cylinders and makes exact
  scores equal bounds;
* **admissibility** — the dense ``positioning_lower_bounds`` table never
  exceeds ``estimate_positioning`` for any sampled (device state,
  request, now) triple, and it is monotone in cylinder distance;
* **pricing** — deep queues price fewer candidates than are pending.
"""

import math
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.layout import LAYOUTS, make_layout
from repro.core.layout.base import FileSet
from repro.core.scheduling import make_scheduler
from repro.core.scheduling.sptf import (
    SCAN_DEPTH,
    AgedSPTFScheduler,
    SPTFScheduler,
    device_supports_pruning,
)
from repro.disk.atlas10k import atlas_10k
from repro.disk.device import DiskDevice
from repro.mems.device import MEMSDevice
from repro.mems.parameters import MEMSParameters
from repro.sim.device import StorageDevice
from repro.sim.request import AccessResult, IOKind, Request
from tests.core.scheduling.sptf_reference import (
    ReferenceSPTF,
    bound_order_selection,
    drain_order,
)


class StepDevice(StorageDevice):
    """A prunable device double with a staircase bound table.

    A cylinder is 200 sectors.  The bound at distance ``d`` is ``d // 8``,
    so equal bounds span many cylinders on both sides, and the exact
    estimate adds ``lbn % 3`` whole steps, so scores often equal bounds
    and each other.  Above ``limit`` the estimate answers with the least
    float above it, which the oracle contract allows.
    """

    capacity_sectors = 2_000_000
    positioning_lower_bounds = tuple(float(d // 8) for d in range(10_000))

    def __init__(self):
        self.current_cylinder = 0
        self._last_lbn = 0

    @property
    def last_lbn(self):
        return self._last_lbn

    def request_cylinder(self, request):
        return request.lbn // 200

    def estimate_positioning(self, request, now=0.0, limit=math.inf):
        distance = abs(self.request_cylinder(request) - self.current_cylinder)
        exact = self.positioning_lower_bounds[distance] + request.lbn % 3
        return exact if exact <= limit else math.nextafter(limit, math.inf)

    def service(self, request, now=0.0):
        self.current_cylinder = self.request_cylinder(request)
        self._last_lbn = request.last_lbn
        return AccessResult(total=1e-3)


def _make_device(kind):
    if kind == "mems":
        return MEMSDevice()
    if kind == "mems-nospring":
        # spring_factor=0 makes the analytic X-seek bound exactly tight —
        # the regime where float rounding is most likely to break
        # admissibility (guarded by the bound table's margin).
        return MEMSDevice(MEMSParameters(spring_factor=0.0))
    if kind == "steps":
        return StepDevice()
    return DiskDevice(atlas_10k())


def _make_pair(kind, device, age_weight=0.01):
    """(production scheduler, reference scan) for one SPTF variant."""
    if kind == "sptf":
        return SPTFScheduler(device), ReferenceSPTF(device)
    return (
        AgedSPTFScheduler(device, age_weight=age_weight),
        ReferenceSPTF(device, age_weight=age_weight, name="ASPTF"),
    )


def _random_stream(capacity, count, seed, writes=False):
    rng = random.Random(seed)
    kinds = (IOKind.READ, IOKind.WRITE) if writes else (IOKind.READ,)
    requests = []
    for index in range(count):
        sectors = rng.choice((1, 2, 4, 8, 16, 64))
        requests.append(
            Request(
                index * 2e-4,
                lbn=rng.randrange(0, capacity - sectors),
                sectors=sectors,
                kind=rng.choice(kinds),
                request_id=index,
            )
        )
    return requests


DEVICE_KINDS = ("mems", "mems-nospring", "disk")


class TestDispatchEquivalence:
    @pytest.mark.parametrize("device_kind", DEVICE_KINDS)
    @pytest.mark.parametrize("scheduler_kind", ["sptf", "asptf"])
    @pytest.mark.parametrize("seed", [7, 19])
    def test_random_streams(self, device_kind, scheduler_kind, seed):
        capacity = _make_device(device_kind).capacity_sectors
        requests = _random_stream(capacity, 140, seed, writes=True)
        orders = []
        for side in (0, 1):
            device = _make_device(device_kind)
            scheduler = _make_pair(scheduler_kind, device)[side]
            orders.append(drain_order(device, scheduler, requests))
        assert orders[0] == orders[1]

    @pytest.mark.parametrize("device_kind", ["mems", "disk"])
    def test_duplicate_requests_tie_break_identically(self, device_kind):
        # Equal-valued requests are distinct pending entries; ties must
        # resolve to the earliest queue index in both paths.
        capacity = _make_device(device_kind).capacity_sectors
        base = _random_stream(capacity, 30, seed=3)
        requests = []
        for index, request in enumerate(base):
            requests.append(request)
            requests.append(request._replace(request_id=1000 + index))
        orders = []
        for side in (0, 1):
            device = _make_device(device_kind)
            scheduler = _make_pair("sptf", device)[side]
            orders.append(drain_order(device, scheduler, requests))
        assert orders[0] == orders[1]

    @pytest.mark.parametrize("device_kind", ["mems", "disk"])
    def test_single_cylinder_queue_degenerates_to_full_scan(self, device_kind):
        # Every pending request on one cylinder: every bound is 0, so no
        # bound can beat an exact score and best-first prices everything —
        # and must still agree with the scan.
        requests = [
            Request(0.0, lbn=slot, sectors=1, kind=IOKind.READ, request_id=slot)
            for slot in range(12)
        ]
        orders = []
        for side in (0, 1):
            device = _make_device(device_kind)
            scheduler = _make_pair("sptf", device)[side]
            orders.append(drain_order(device, scheduler, requests, 0))
        assert orders[0] == orders[1]
        scheduler = SPTFScheduler(_make_device(device_kind))
        for request in requests:
            scheduler.add(request)
        scheduler.pop_next(0.0)
        assert scheduler.last_fast_path == "pruned"
        assert scheduler.last_candidates == len(requests)
        assert scheduler.last_pruned == 0
        # Down to one candidate, nothing is priced at all.
        while len(scheduler) > 1:
            scheduler.pop_next(0.0)
        scheduler.pop_next(0.0)
        assert scheduler.last_candidates == 1
        assert scheduler.last_priced == 0

    def test_layout_driven_streams(self):
        # Request streams drawn from every layout scheme's placement: the
        # organ-pipe/columnar/subregioned placements concentrate load in
        # ways random streams don't (heavy cylinder reuse, Y-constrained
        # placements), which stresses tie-breaking.
        fileset = FileSet(small_blocks=120, large_files=4)
        for layout_name in LAYOUTS.names():
            for device_kind in ("mems", "disk"):
                probe = _make_device(device_kind)
                try:
                    layout = make_layout(layout_name, probe)
                except Exception:
                    continue  # e.g. subregioned needs the MEMS geometry
                placement = layout.place(fileset, probe.capacity_sectors)
                rng = random.Random(11)
                requests = []
                for index in range(120):
                    if rng.random() < 0.75:
                        lbn = rng.choice(placement.small_lbns)
                        sectors = fileset.small_sectors
                    else:
                        lbn = rng.choice(placement.large_lbns)
                        sectors = fileset.large_sectors
                    requests.append(
                        Request(index * 1e-4, lbn, sectors, IOKind.READ, index)
                    )
                orders = []
                for side in (0, 1):
                    device = _make_device(device_kind)
                    scheduler = _make_pair("sptf", device)[side]
                    orders.append(drain_order(device, scheduler, requests))
                assert orders[0] == orders[1], (layout_name, device_kind)


def _stream(device, shape, depth, now, rng):
    """``depth`` requests shaped ``shape``, arriving in ``[0, now]``."""
    capacity = device.capacity_sectors

    def cylinder(lbn):
        return device.request_cylinder(Request(0.0, lbn, 1, IOKind.READ))

    if shape == "one-cylinder":
        base = rng.randrange(0, capacity - 128)
        while cylinder(base) != cylinder(base + 71):
            base = rng.randrange(0, capacity - 128)
    elif shape == "cluster":
        base = rng.randrange(0, capacity - 60_000)
    requests = []
    for index in range(depth):
        if shape == "duplicates" and requests and rng.random() < 0.5:
            requests.append(
                rng.choice(requests)._replace(request_id=index)
            )
            continue
        if shape == "one-cylinder":
            sectors = rng.randint(1, 8)
            lbn = base + rng.randrange(0, 64)
        elif shape == "cluster":
            sectors = rng.choice((1, 8, 64))
            lbn = base + rng.randrange(0, 60_000 - sectors)
        else:
            sectors = rng.choice((1, 2, 4, 8, 16, 64))
            lbn = rng.randrange(0, capacity - sectors)
        kind = IOKind.WRITE if rng.random() < 0.25 else IOKind.READ
        requests.append(
            Request(rng.uniform(0.0, now), lbn, sectors, kind, index)
        )
    return requests


class TestSelectionProperty:
    @settings(
        max_examples=80,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        device_kind=st.sampled_from(["mems", "disk", "steps"]),
        age_weight=st.one_of(st.just(0.0), st.floats(0.01, 5.0)),
        depth=st.one_of(
            st.integers(0, 2 * SCAN_DEPTH + 2), st.integers(0, 1024)
        ),
        shape=st.sampled_from(
            ["random", "duplicates", "one-cylinder", "cluster"]
        ),
        warmup=st.integers(0, 4),
        now=st.floats(0.0, 2.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_every_selection_matches_the_scan(
        self, device_kind, age_weight, depth, shape, warmup, now, seed
    ):
        rng = random.Random(seed)
        device = _make_device(device_kind)
        # Move the mechanics off their initial state.
        for request in _stream(device, "random", warmup, now, rng):
            now += device.service(request, now).total
        requests = _stream(device, shape, depth, now, rng)
        scheduler, reference = _make_pair(
            "asptf" if age_weight else "sptf", device, age_weight
        )
        for request in requests:
            scheduler.add(request)
            reference.add(request)
        # A full drain up to 128 deep; deeper queues check their first 128
        # selections (the reference scan is quadratic over a drain).  Each
        # selection picks what the scan picks, and prices exactly what the
        # bound-order model prices.
        for _ in range(min(depth, 128)):
            pending = scheduler.pending()
            index, priced, fast_path = bound_order_selection(
                device, pending, now, age_weight
            )
            expected = reference.pop_next(now)
            picked = scheduler.pop_next(now)
            assert picked.request_id == expected.request_id
            assert picked is pending[index]
            assert scheduler.last_priced == priced
            assert scheduler.last_fast_path == fast_path
            assert (
                scheduler.last_priced + scheduler.last_pruned
                == scheduler.last_candidates
            )
            now += device.service(picked, now).total


class TestSimulationEquivalence:
    @pytest.mark.parametrize("device", ["mems", "atlas10k"])
    @pytest.mark.parametrize("scheduler", ["SPTF", "ASPTF"])
    @pytest.mark.parametrize("traced", [False, True])
    def test_end_to_end_results_identical(self, device, scheduler, traced):
        from repro.obs.tracer import RingBufferTracer, TRACE_SCHEMA
        from repro.obs.validate import validate_events
        from repro.sim import Simulation
        from repro.sim.config import SimConfig

        config = SimConfig(
            device=device,
            scheduler=scheduler,
            rate=2000.0 if device == "mems" else 160.0,
            num_requests=600,
            seed=5,
        )

        def run(reference):
            tracer = RingBufferTracer() if traced else None
            if reference:
                sim_device = config.build_device()
                sim = Simulation(
                    sim_device,
                    ReferenceSPTF(
                        sim_device,
                        age_weight=0.01 if scheduler == "ASPTF" else 0.0,
                        name=scheduler,
                    ),
                    tracer=tracer,
                )
            else:
                sim = Simulation.from_config(config, tracer=tracer)
            return sim.run(config.build_requests(sim.device)), tracer

        expected, _ = run(reference=True)
        result, tracer = run(reference=False)
        assert result.records == expected.records
        assert result.end_time == expected.end_time
        if traced:
            dispatches = tracer.by_kind("sched.dispatch")
            assert {event["fast_path"] for event in dispatches} == {
                "scan",
                "pruned",
            }
            assert any(event["candidates_pruned"] > 0 for event in dispatches)
            for event in dispatches:
                assert (
                    event["candidates_priced"] + event["candidates_pruned"]
                    == event["candidates"]
                )
            meta = {"kind": "trace.meta", "t": 0.0, "schema": TRACE_SCHEMA}
            assert validate_events([meta] + tracer.events) == []


class TestLowerBoundAdmissibility:
    @pytest.mark.parametrize("device_kind", DEVICE_KINDS)
    def test_bound_never_exceeds_exact_estimate(self, device_kind):
        device = _make_device(device_kind)
        table = device.positioning_lower_bounds
        capacity = device.capacity_sectors
        rng = random.Random(23)
        now = 0.0
        for step in range(400):
            sectors = rng.choice((1, 4, 8, 64))
            request = Request(
                0.0,
                rng.randrange(0, capacity - sectors),
                sectors,
                rng.choice((IOKind.READ, IOKind.WRITE)),
            )
            distance = abs(
                device.request_cylinder(request) - device.current_cylinder
            )
            bound = table[distance]
            exact = device.estimate_positioning(request, now)
            assert bound <= exact, (
                f"step {step}: lower bound {bound!r} exceeds exact "
                f"estimate {exact!r} for lbn {request.lbn}"
            )
            # Mutate the mechanical state so later samples bound from
            # many different positions.
            if step % 3 == 0:
                now += device.service(request, now).total

    @pytest.mark.parametrize("device_kind", DEVICE_KINDS)
    def test_bound_table_is_monotone_from_zero(self, device_kind):
        device = _make_device(device_kind)
        table = device.positioning_lower_bounds
        assert table[0] == 0.0
        assert all(b >= 0.0 for b in table)
        assert all(
            table[d] <= table[d + 1] for d in range(len(table) - 1)
        ), "bound table must be nondecreasing in cylinder distance"

    def test_tables_shared_between_devices(self):
        # Module-level memoization on the frozen parameter sets: two
        # devices built from the same design point share one table object
        # (and forked sweep workers inherit it copy-on-write).
        assert (
            MEMSDevice().positioning_lower_bounds
            is MEMSDevice().positioning_lower_bounds
        )
        assert (
            DiskDevice(atlas_10k()).positioning_lower_bounds
            is DiskDevice(atlas_10k()).positioning_lower_bounds
        )


class TestPruneToggleAndFallback:
    def test_factory_and_config_plumb_prune_flag(self):
        # The selection has no modes: configs that set ``prune`` or
        # ``cache`` are rejected rather than silently run another way.
        from repro.sim.config import SimConfig

        device = MEMSDevice()
        for name in ("SPTF", "ASPTF"):
            for option in ("prune", "cache"):
                with pytest.raises(ValueError, match=repr(option)):
                    make_scheduler(name, device, **{option: False})
        config = SimConfig(scheduler_params={"prune": False})
        with pytest.raises(ValueError, match="'prune'"):
            config.build_scheduler(config.build_device())

    def test_device_without_oracle_falls_back_to_full_scan(self):
        class OracleOnlyDevice:
            """Bare positioning oracle without the bound surface."""

            def __init__(self):
                self._inner = MEMSDevice()
                self.capacity_sectors = self._inner.capacity_sectors

            def estimate_positioning(self, request, now=0.0):
                return self._inner.estimate_positioning(request, now)

            def service(self, request, now=0.0):
                return self._inner.service(request, now)

        device = OracleOnlyDevice()
        assert not device_supports_pruning(device)
        assert device_supports_pruning(MEMSDevice())
        scheduler = SPTFScheduler(device)
        requests = _random_stream(device.capacity_sectors, 40, seed=2)
        reference_dev = MEMSDevice()
        reference = drain_order(
            reference_dev, ReferenceSPTF(reference_dev), requests
        )
        assert drain_order(device, scheduler, requests) == reference
        # Without the oracle every selection is a scan: the drain's final
        # single-candidate pop prices nothing, and a deep queue is priced
        # in full.
        assert scheduler.last_candidates == 1
        assert scheduler.last_priced == 0
        for request in requests[: 2 * SCAN_DEPTH]:
            scheduler.add(request)
        scheduler.pop_next(0.0)
        assert scheduler.last_fast_path == "scan"
        assert scheduler.last_priced == 2 * SCAN_DEPTH
        assert scheduler.last_pruned == 0

    @pytest.mark.parametrize("device_kind", ["mems", "disk"])
    def test_pruning_actually_prunes_on_spread_queues(self, device_kind):
        # Every dispatch from 64 or more pending requests on a random
        # stream prices fewer candidates than are pending.
        device = _make_device(device_kind)
        scheduler = SPTFScheduler(device)
        requests = _random_stream(device.capacity_sectors, 160, seed=13)
        for request in requests:
            scheduler.add(request)
        now = 0.0
        while len(scheduler) >= 64:
            request = scheduler.pop_next(now)
            assert scheduler.last_fast_path == "pruned"
            assert 0 < scheduler.last_priced < scheduler.last_candidates
            assert (
                scheduler.last_priced + scheduler.last_pruned
                == scheduler.last_candidates
            )
            now += device.service(request, now).total


class TestPricingCounts:
    def test_aged_pricing_stays_small_on_deep_queues(self):
        # ASPTF subtracts each candidate's own aging credit from its bound,
        # so old requests do not unlock every other candidate: on MEMS at
        # 2000 req/s the dispatches from 64+ pending price a handful each.
        from repro.obs.tracer import RingBufferTracer
        from repro.sim import Simulation
        from repro.sim.config import SimConfig

        config = SimConfig(
            device="mems", scheduler="ASPTF", rate=2000.0,
            num_requests=3000, seed=42,
        )
        tracer = RingBufferTracer()
        sim = Simulation.from_config(config, tracer=tracer)
        sim.run(config.build_requests(sim.device))
        deep = [
            event
            for event in tracer.by_kind("sched.dispatch")
            if event["candidates"] >= 64
        ]
        assert len(deep) > 1000
        priced = sum(event["candidates_priced"] for event in deep)
        assert priced / len(deep) <= 10
