"""Seeded traffic for every workload.

All traffic comes from ``dataset_from_config`` on the sprint-1 topology
(49 links, 169 OD flows) with anomalies injected at the preset density
(40 per 1008 bins, about one per 25 bins).  Every generator seed is
derived from the workload seed and a label, so one ``--seed`` fixes
every input of a run.  The programs under test only ever receive the
generated link-count blocks and the routing matrix, through the files
written here.
"""

from __future__ import annotations

import zlib
from pathlib import Path

import numpy as np

PRESET = "sprint-1"


def derived_seed(seed: int, *labels: str) -> int:
    """A 32-bit generator seed for ``labels`` under the workload seed."""
    words = [int(seed)] + [zlib.crc32(label.encode()) for label in labels]
    return int(np.random.SeedSequence(words).generate_state(1)[0])


def generate(seed: int, num_bins: int, *labels: str, anomaly_label: str = ""):
    """``(link_traffic, routing)`` for ``num_bins`` bins of sprint-1 traffic.

    ``labels`` pick the traffic seed; ``anomaly_label`` additionally
    varies the anomaly seed, so blocks can share their normal traffic
    while their anomalies differ.
    """
    from repro.datasets.synthetic import dataset_from_config
    from repro.traffic.workloads import workload_for

    preset = workload_for(PRESET)
    density = preset.num_anomalies / preset.num_bins
    config = preset.with_overrides(
        name=f"{PRESET}-bench",
        num_bins=num_bins,
        num_anomalies=max(1, round(num_bins * density)),
        traffic_seed=derived_seed(seed, *labels, "traffic"),
        anomaly_seed=derived_seed(seed, *labels, anomaly_label, "anomalies"),
    )
    dataset = dataset_from_config(config)
    return np.ascontiguousarray(dataset.link_traffic), dataset.routing


def write_history(seed: int, path: Path, chunks: int, chunk_bins: int):
    """Write ``chunks * chunk_bins`` rows straight into a ``.npy`` file.

    The chunks share one normal-traffic seed and differ in their
    anomalies, so the whole history follows one normal subspace; no
    more than one chunk is ever held in memory.  Returns the routing.
    """
    routing = None
    out = None
    try:
        for chunk in range(chunks):
            block, routing = generate(
                seed, chunk_bins, "history", anomaly_label=f"chunk{chunk}"
            )
            if out is None:
                out = np.lib.format.open_memmap(
                    path,
                    mode="w+",
                    dtype=np.float64,
                    shape=(chunks * chunk_bins, block.shape[1]),
                )
            out[chunk * chunk_bins : (chunk + 1) * chunk_bins] = block
        out.flush()
    finally:
        del out
    return routing


def save_routing(routing, path: Path) -> None:
    np.savez(
        path,
        matrix=routing.matrix,
        links=np.array(routing.link_names),
        od_pairs=np.array(routing.od_pairs),
    )


def load_routing(path):
    from repro.routing.routing_matrix import RoutingMatrix

    with np.load(path, allow_pickle=False) as archive:
        return RoutingMatrix(
            archive["matrix"],
            [str(name) for name in archive["links"]],
            [(str(a), str(b)) for a, b in archive["od_pairs"]],
        )
