"""``fleet-subspace`` pinned to the per-tenant statistic it replaces.

The registry builds ``fleet-subspace`` as the ``union``-fused sharded
plane with one link zone per tenant.  The frozen reference below is the
statistic the registry served before: one lifecycle bootstrap per zone,
each zone's SPE over its Q-limit, the worst zone per row, and an
empirical training quantile as the threshold.

The zone fits take different routes — the plane fits each zone with
``SPEDetector.fit`` on the block, the reference from tile statistics —
so ranks and thresholds agree bit for bit and SPE agrees in all but
the last bits.  One rule changed: at a zero threshold the reference
scored ``inf`` for a positive SPE, where ``union`` fusion scores the
raw energy.  A full-rank zone scores exactly 0 under both.
"""

import numpy as np
import pytest

from repro import detectors
from repro.detectors.sharded import ShardedSubspaceDetector
from repro.pipeline.sharded import partition_links
from repro.service.lifecycle import ModelLifecycleManager


def contract_block():
    """The detector-contract suite's (320, 8) block."""
    rng = np.random.default_rng(4242)
    t, m = 320, 8
    base = 1e7 * (1.2 + np.sin(2 * np.pi * np.arange(t) / 144.0))[:, None]
    block = np.abs(base * rng.uniform(0.5, 1.5, size=m) * (
        1.0 + 0.05 * rng.standard_normal((t, m))
    ))
    block[200] *= 3.0
    block[295, :4] *= 4.0
    return block


@pytest.fixture(scope="module")
def worlds():
    from repro.scenarios import compile_scenario, get_spec

    spike = compile_scenario(get_spec("spike-classic")).dataset
    return {"contract": contract_block(), "spike-classic": spike.link_traffic}


def reference_fit(block, tenants, **knobs):
    """The zones and each zone's bootstrapped model version."""
    zones = partition_links(
        block.shape[1], min(tenants, block.shape[1]), "contiguous"
    )
    return zones, [
        ModelLifecycleManager(**knobs).bootstrap(block[:, zone])
        for zone in zones
    ]


def reference_scores(zones, versions, block):
    """Worst per-zone ``SPE / δ²`` per row (``inf`` over a zero limit)."""
    ratios = []
    for zone, version in zip(zones, versions):
        threshold = float(version.threshold)
        spe = version.detector.model.score_block(
            np.ascontiguousarray(block[:, zone]), threshold=threshold
        ).spe
        ratios.append(
            spe / threshold
            if threshold > 0
            else np.where(spe > 0, np.inf, 0.0)
        )
    return np.stack(ratios).max(axis=0)


def test_registry_builds_the_union_plane_under_its_own_name():
    for name in ("fleet-subspace", "multi-tenant-subspace", "tenant-subspace"):
        detector = detectors.get(name, tenants=3, bin_seconds=600.0)
        assert isinstance(detector, ShardedSubspaceDetector)
        assert detector.name == "fleet-subspace"
        assert detector.fusion == "union" and detector.num_zones == 3


@pytest.mark.parametrize("tenants", [2, 3])
@pytest.mark.parametrize("world", ["contract", "spike-classic"])
def test_matches_the_frozen_per_tenant_statistic(worlds, world, tenants):
    block = worlds[world]
    detector = detectors.get("fleet-subspace", tenants=tenants).fit(block)
    zones, versions = reference_fit(block, tenants)

    plane = detector.model
    assert [z.tolist() for z in plane.zones] == [z.tolist() for z in zones]
    for zone_detector, version in zip(plane.detectors, versions):
        assert zone_detector.normal_rank == version.normal_rank
        assert zone_detector.threshold == version.threshold

    train = reference_scores(zones, versions, block)
    np.testing.assert_allclose(detector.score(block), train, rtol=1e-12)
    for confidence in (0.99, 0.999):
        flags = train > np.quantile(train, confidence)
        assert np.array_equal(
            detector.detect(block, confidence=confidence).flags, flags
        )


def test_full_rank_zones_score_exactly_zero_under_both():
    block = contract_block()
    detector = detectors.get("fleet-subspace", tenants=2, normal_rank=4)
    detector.fit(block)
    zones, versions = reference_fit(block, 2, normal_rank=4)
    assert all(version.threshold == 0.0 for version in versions)
    assert not detector.score(block).any()
    assert not reference_scores(zones, versions, block).any()
