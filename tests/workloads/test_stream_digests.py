"""Golden stream digests: every generator's stream, pinned byte for byte.

The paper tables cover only the parameter points they print, so a stream
could drift elsewhere unnoticed.  Each entry below is one sha256 over the
five columns' little-endian bytes (arrival, lbn, sectors, is_write, rid) of
a 2,000-request stream, recorded from the generators before they returned
``RequestBatch`` objects.  A deliberate change to a stream re-records the
digest it moves and says why.
"""

import hashlib

import pytest

from repro.sim.request import IOKind
from repro.workloads import (
    CelloLikeWorkload,
    RandomWorkload,
    SequentialWorkload,
    TPCCLikeWorkload,
    UniformFixedWorkload,
)

CAPACITY = 6_750_000  # the default MEMS device
COUNT = 2_000
POOL = [0, 512, 1024, 65536]


def _streams():
    streams = {}
    for seed in (1, 42):
        for rate in (300.0, 1500.0):
            streams[f"random-seed{seed}-rate{rate:g}"] = RandomWorkload(
                CAPACITY, rate=rate, seed=seed
            )
    streams["uniform"] = UniformFixedWorkload(
        CAPACITY, sectors=8, read_fraction=0.5, seed=9
    )
    streams["uniform-pool"] = UniformFixedWorkload(
        CAPACITY, sectors=8, read_fraction=0.5, lbn_pool=POOL, seed=9
    )
    # 4096 / 64 = 64 requests per pass: the stream wraps 31 times.
    streams["sequential-wrap"] = SequentialWorkload(
        CAPACITY,
        rate=400.0,
        request_sectors=64,
        start_lbn=1000,
        extent_sectors=4096,
        kind=IOKind.WRITE,
        seed=3,
    )
    for generator, label in (
        (CelloLikeWorkload, "cello"),
        (TPCCLikeWorkload, "tpcc"),
    ):
        for scale in (1.0, 4.0):
            for seed in (1, 8):
                streams[f"{label}-scale{scale:g}-seed{seed}"] = generator(
                    CAPACITY, seed=seed, scale=scale
                )
    return streams


GOLDEN = {
    "random-seed1-rate300": "2641c0f995e538caa11b4275a99fdfcc84aa623fc386d15325883d90afd80d5b",
    "random-seed1-rate1500": "b340b3fac75d87e0c480b09e39f97ff8ca6a4ffa466664446467c3fe46d6461d",
    "random-seed42-rate300": "eee0f38441a6422b21345ad1589b445d85439a52279eaea7f1c1b3b8a10c6055",
    "random-seed42-rate1500": "4275d95aa7400e812f8ff78f6d34486704c2a1e71bd19779d60305ac26b94cef",
    "uniform": "b2b550653d01ca1bd3b9136cc3ed26e038a71678c98b30cf72c4c976ca93dbd2",
    "uniform-pool": "579d01cbd79dec9a50053ace7be70384f639fd7971bdc3699f0b82c8e7b15770",
    "sequential-wrap": "56f1125e0691c24988764bd1dbd943d5bb21a9a33640cca66d0a77a50ea507af",
    "cello-scale1-seed1": "9d881dadef10198ef916ce3f4babf1d8bd2952c38f7d26559b2a77d037bda8e2",
    "cello-scale1-seed8": "492b296e23aff6ac33bf0fbb925111b667c1b8094f363ee1f2682981f832c2e5",
    "cello-scale4-seed1": "b36f67bde6a666acd5aab439df0b3f9e297466536cba6281cc0b39872d2424b8",
    "cello-scale4-seed8": "224774ad106af61b592b85913a4487ec8ed6ae4be1d67c55e7b7599775cc956b",
    "tpcc-scale1-seed1": "7eee0edd7a2f8b01e41f51e32bec0b49b8db38387966db46d8611fd7eb389cdb",
    "tpcc-scale1-seed8": "afd091a9cc4666594e6c798aecc91cc81983f826b16d7ed18bdc8c0c66b260bf",
    "tpcc-scale4-seed1": "6fff392dc2a7ca020ccf778caa0cf9e668cd1fb629046344cf90c5df869120ec",
    "tpcc-scale4-seed8": "3256564078fcd052447914894026c0bd17665acbff524d28ca19d94acb7189d4",
}


def stream_digest(batch) -> str:
    """sha256 over the five columns' little-endian bytes, in field order."""
    digest = hashlib.sha256()
    for name in ("arrival", "lbn", "sectors", "is_write", "rid"):
        column = getattr(batch, name)
        little = column.dtype.newbyteorder("<")
        digest.update(column.astype(little, copy=False).tobytes())
    return digest.hexdigest()


def test_every_stream_is_pinned():
    assert sorted(_streams()) == sorted(GOLDEN)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_stream_matches_golden_digest(name):
    batch = _streams()[name].generate(COUNT)
    assert len(batch) == COUNT
    assert stream_digest(batch) == GOLDEN[name]
