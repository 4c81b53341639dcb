"""Shared fixtures.

Expensive artifacts (the three paper datasets, fitted detectors) are
session-scoped; small structural fixtures are function-scoped so tests may
mutate them freely.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.datasets import build_dataset
from repro.datasets.synthetic import dataset_from_config
from repro.routing import SPFRouting, build_routing_matrix
from repro.topology import line_network, toy_network
from repro.traffic.workloads import workload_for


def pytest_addoption(parser):
    parser.addoption(
        "--update-goldens",
        action="store_true",
        default=False,
        help="rewrite golden files from the current outputs instead of "
        "comparing against them",
    )


@pytest.fixture
def golden_check(request):
    """Compare a JSON payload against a pinned golden file.

    ``golden_check(path, payload)`` canonicalizes the payload (sorted
    keys, two-space indent, trailing newline) and asserts the file
    matches byte-for-byte.  Under ``pytest --update-goldens`` it
    rewrites the file instead — the refresh path after an intentional
    behavior change.  Regeneration on an unchanged tree is
    byte-identical because every producer is fully seeded and floats
    are rounded to a fixed number of significant digits upstream.
    """
    from repro.scenarios import canonical_json

    update = request.config.getoption("--update-goldens")

    def check(path: Path, payload: dict) -> None:
        path = Path(path)
        text = canonical_json(payload)
        if update:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
            return
        assert path.exists(), (
            f"golden file {path} is missing; create it with "
            f"`pytest {path.parent} --update-goldens`"
        )
        on_disk = path.read_text()
        assert on_disk == text, (
            f"golden drift in {path.name}: the current output no longer "
            "matches the pinned file. If the change is intentional, "
            "refresh with `pytest --update-goldens` and review the diff."
        )

    return check


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def toy_net():
    """4-PoP square-with-diagonal network, intra-PoP links included."""
    return toy_network()


@pytest.fixture
def toy_routing(toy_net):
    """Single-path routing matrix over the toy network."""
    table = SPFRouting(toy_net).compute()
    return build_routing_matrix(toy_net, table)


@pytest.fixture
def line_net():
    """5-PoP chain (unique paths everywhere)."""
    return line_network(5)


@pytest.fixture(scope="session")
def sprint1():
    """The Sprint-1 evaluation dataset (seeded, deterministic)."""
    return build_dataset("sprint-1")


@pytest.fixture(scope="session")
def abilene_ds():
    """The Abilene evaluation dataset (seeded, deterministic)."""
    return build_dataset("abilene")


@pytest.fixture(scope="session")
def small_dataset():
    """A fast two-day Sprint-like dataset for integration tests."""
    config = workload_for("sprint-1").with_overrides(
        name="sprint-small",
        num_bins=288,
        num_anomalies=8,
        traffic_seed=777,
        anomaly_seed=778,
    )
    return dataset_from_config(config)


@pytest.fixture(scope="session")
def blind_routing():
    """A model no OD flow is visible to, and an alarm it cannot explain.

    Three links; two flows, on links 0 and 1 only.  The 200-row
    warmup's variance sits on links 0–1; link 2 carries a small ±1
    wiggle uncorrelated with them, so at ``normal_rank=2`` the residual
    subspace is link 2 alone and ``‖C̃ θ_j‖² ≈ 0`` for both flows.
    Returns ``(warmup, routing, block)``: the block's middle row spikes
    link 2 and is the only row flagged.
    """
    from repro.routing.routing_matrix import RoutingMatrix

    rng = np.random.default_rng(5)
    wiggle = np.tile([1.0, -1.0], 100)
    noise = rng.normal(size=(200, 2)) * 1e4
    noise -= noise.mean(axis=0)
    noise -= np.outer(wiggle, wiggle @ noise) / 200.0
    warmup = np.empty((200, 3))
    warmup[:, :2] = 1e6 + noise
    warmup[:, 2] = 1e5 + wiggle
    routing = RoutingMatrix(
        np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]),
        ["l0", "l1", "l2"],
        [("a", "b"), ("b", "a")],
    )
    block = warmup[:3].copy()
    block[1, 2] += 1e3
    return warmup, routing, block
