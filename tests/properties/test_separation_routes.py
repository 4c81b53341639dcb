"""One 3σ separation on every fit route, bit for bit.

Every fit computes one score-moments call per canonical tile and folds
the tiles in ascending order, so the separation is a pure function of
the rows, as the PCA is: the monolithic detector, the sharded
coordinator at any shard and worker count, fits from statistics merged
over any chunking, service histories built from any request sizes
(refitted and restored) and the tenants of a multi-tenant service agree on
``max_deviations``, the first anomalous axis, the rank, the threshold,
the mean and the components.  The histories span two to six tiles,
so some shards hold several tiles and some none.
"""

import random
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core import SPEDetector, SufficientStats
from repro.core.suffstats import DEFAULT_TILE_ROWS, canonical_units
from repro.pipeline.sharded import TemporalCoordinator
from repro.service.lifecycle import ModelLifecycleManager
from repro.service.tenants import MultiTenantService


@st.composite
def histories(draw):
    """Traffic-like blocks of 2–6 canonical tiles, with a few spikes."""
    tiles = draw(st.integers(1, 5))
    t = tiles * DEFAULT_TILE_ROWS + draw(st.integers(1, DEFAULT_TILE_ROWS))
    m = draw(st.integers(2, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    base = 1e7 * (1.5 + np.sin(2 * np.pi * np.arange(t) / 144.0))
    block = np.abs(
        base[:, None]
        * rng.uniform(0.5, 2.0, size=m)
        * (1.0 + 0.08 * rng.standard_normal((t, m)))
    )
    spikes = rng.choice(t, size=draw(st.integers(0, 4)), replace=False)
    block[spikes] *= 2.5
    return block


def chunk_sizes(rng: random.Random, total: int) -> list[int]:
    """A random cut of ``total`` rows: single rows, short and long runs."""
    sizes: list[int] = []
    while sum(sizes) < total:
        sizes.append(
            rng.choice([1, rng.randint(2, 64), rng.randint(65, 1500)])
        )
    return sizes


def pieces(block: np.ndarray, sizes: list[int]):
    start = 0
    for size in sizes:
        if start >= block.shape[0]:
            return
        yield start, block[start : start + size]
        start += size


def signature(detector: SPEDetector) -> tuple:
    model = detector.model
    return (
        model.pca.mean.tobytes(),
        model.pca.components.tobytes(),
        model.separation.max_deviations.tobytes(),
        model.separation.first_anomalous_axis,
        detector.normal_rank,
        detector.threshold,
    )


@settings(max_examples=20, deadline=None)
@given(block=histories(), seed=st.integers(0, 2**32 - 1))
def test_every_fit_route_gives_the_same_separation_bits(block, seed):
    rng = random.Random(seed)
    t = block.shape[0]
    reference = signature(SPEDetector(svd_method="gram").fit(block))

    routes: dict[str, SPEDetector] = {}
    for workers in (1, 2):
        for shards in sorted({1, 2, rng.randint(3, 8), 8}):
            fit = TemporalCoordinator(num_shards=shards, workers=workers).fit(
                block
            )
            routes[f"fit shards={shards} workers={workers}"] = fit.detector

    stats = SufficientStats.empty(block.shape[1])
    for start, chunk in pieces(block, chunk_sizes(rng, t)):
        stats = stats.merge(SufficientStats.from_block(chunk, start_row=start))
    tiles = [
        block[lo:hi] for lo, hi in canonical_units([(0, t)], DEFAULT_TILE_ROWS)
    ]
    routes["fit_from_stats"] = TemporalCoordinator().fit_from_stats(
        stats, tiles
    ).detector

    requests = list(pieces(block, chunk_sizes(rng, t)))
    warmup = max(2, requests[0][1].shape[0])
    lifecycle = ModelLifecycleManager()
    lifecycle.bootstrap(block[:warmup])
    for start, chunk in requests:
        if start + chunk.shape[0] > warmup:
            lifecycle.append_rows(chunk[max(0, warmup - start) :])
    assert lifecycle.rows == t
    routes["lifecycle refit"] = lifecycle.refit().detector
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "state.ckpt"
        lifecycle.checkpoint(path)
        routes["lifecycle restore"] = ModelLifecycleManager.restore(
            path
        ).current.detector

    tenants = MultiTenantService.from_warmups({"a": block, "b": block[: t // 2]})
    routes["tenant bootstrap"] = tenants.service("a").lifecycle.current.detector

    for name, detector in routes.items():
        assert signature(detector) == reference, name
