"""Dataset persistence.

Datasets round-trip through a single ``.npz`` archive: numeric arrays are
stored natively, the topology as embedded JSON, and the ground-truth event
ledger as parallel arrays.  The workload config is stored as JSON too, so
a loaded dataset remembers how it was generated.

For traffic matrices too large to hold in memory, the raw ``(t, m)``
link-measurement block additionally round-trips through a plain ``.npy``
file opened as a read-only :class:`numpy.memmap`
(:func:`save_traffic_memmap` / :func:`open_traffic_memmap`): row slices
of the map are ordinary float64 views that go zero-copy through
:func:`~repro._util.ensure_matrix` into block scoring and
:meth:`~repro.pipeline.sharded.TemporalCoordinator.fit`, which reads
the map one row range at a time — the OS pages rows in and out on
demand and the matrix is never materialized.  :func:`traffic_chunks`
cuts a block into row slices for chunked scoring.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np

from repro._util import ensure_matrix
from repro.datasets.dataset import Dataset
from repro.exceptions import DatasetError
from repro.routing.routing_matrix import RoutingMatrix
from repro.topology.serialization import network_from_json, network_to_json
from repro.traffic.anomalies import AnomalyEvent, AnomalyShape
from repro.traffic.matrix import TrafficMatrix
from repro.traffic.workloads import WorkloadConfig

__all__ = [
    "save_dataset",
    "load_dataset",
    "save_traffic_memmap",
    "open_traffic_memmap",
    "traffic_chunks",
]

_FORMAT_VERSION = 1


def save_traffic_memmap(measurements: np.ndarray, path: str | Path) -> Path:
    """Write a ``(t, m)`` traffic block as a memmap-ready ``.npy`` file.

    Uses the standard ``.npy`` container (``np.save``), so the file is
    also loadable with plain ``np.load``; stored as C-contiguous float64
    because that is the layout :func:`open_traffic_memmap` hands back as
    zero-copy views.
    """
    path = Path(path)
    if path.suffix != ".npy":
        path = path.with_suffix(path.suffix + ".npy")
    measurements = ensure_matrix(
        measurements, name="measurements", error=DatasetError
    )
    np.save(path, measurements, allow_pickle=False)
    return path


def open_traffic_memmap(path: str | Path) -> np.ndarray:
    """Open a :func:`save_traffic_memmap` file as a read-only memmap.

    The returned array reads pages from disk on demand; row slices are
    views onto the map, so chunked scoring and fits touch only the rows
    they are currently processing.
    """
    path = Path(path)
    if not path.exists():
        raise DatasetError(f"traffic file not found: {path}")
    try:
        mapped = np.load(path, mmap_mode="r", allow_pickle=False)
    except ValueError as err:
        raise DatasetError(f"not a .npy traffic file: {path}: {err}") from err
    if mapped.ndim != 2:
        raise DatasetError(
            f"traffic file must hold a (t, m) block, got shape {mapped.shape}"
        )
    if mapped.dtype != np.float64:
        raise DatasetError(
            f"traffic file must hold float64, got {mapped.dtype}"
        )
    return mapped


def traffic_chunks(source: np.ndarray | str | Path, chunk_rows: int = 8192):
    """A re-iterable chunk source over a traffic block or ``.npy`` path.

    Returns a zero-argument callable; each call yields fresh ``(k, m)``
    row slices, oldest first, for chunked scoring
    (:meth:`~repro.core.subspace.SubspaceModel.score_block` per slice).
    Slices are views (zero-copy) whether ``source`` is an in-memory
    array or a path opened through :func:`open_traffic_memmap`.  A fit
    needs no chunks: pass the map itself to
    :meth:`~repro.pipeline.sharded.TemporalCoordinator.fit`.
    """
    if chunk_rows < 1:
        raise DatasetError(f"chunk_rows must be >= 1, got {chunk_rows}")
    if isinstance(source, (str, Path)):
        block = open_traffic_memmap(source)
    else:
        block = ensure_matrix(
            source, name="source", error=DatasetError, check_finite=False
        )

    def chunks():
        for start in range(0, block.shape[0], chunk_rows):
            yield block[start : start + chunk_rows]

    return chunks


def save_dataset(dataset: Dataset, path: str | Path) -> Path:
    """Write ``dataset`` to ``path`` (``.npz`` appended when missing)."""
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(path.suffix + ".npz")
    events = dataset.true_events
    config_json = (
        json.dumps(dataclasses.asdict(dataset.config))
        if dataset.config is not None
        else ""
    )
    np.savez_compressed(
        path,
        format_version=np.array(_FORMAT_VERSION),
        name=np.array(dataset.name),
        topology_json=np.array(network_to_json(dataset.network, indent=None)),
        routing_matrix=dataset.routing.matrix,
        od_values=dataset.od_traffic.values,
        bin_seconds=np.array(dataset.bin_seconds),
        link_traffic=dataset.link_traffic,
        event_time_bins=np.array([e.time_bin for e in events], dtype=np.int64),
        event_flow_indices=np.array([e.flow_index for e in events], dtype=np.int64),
        event_amplitudes=np.array([e.amplitude_bytes for e in events]),
        event_shapes=np.array([e.shape.value for e in events]),
        event_durations=np.array([e.duration_bins for e in events], dtype=np.int64),
        config_json=np.array(config_json),
    )
    return path


def load_dataset(path: str | Path) -> Dataset:
    """Load a dataset previously written by :func:`save_dataset`."""
    path = Path(path)
    if not path.exists():
        raise DatasetError(f"dataset file not found: {path}")
    with np.load(path, allow_pickle=False) as archive:
        version = int(archive["format_version"])
        if version != _FORMAT_VERSION:
            raise DatasetError(
                f"unsupported dataset format version {version} "
                f"(expected {_FORMAT_VERSION})"
            )
        network = network_from_json(str(archive["topology_json"]))
        routing = RoutingMatrix(
            archive["routing_matrix"],
            [link.name for link in network.links],
            network.od_pairs,
        )
        od_traffic = TrafficMatrix(
            archive["od_values"],
            network.od_pairs,
            bin_seconds=float(archive["bin_seconds"]),
        )
        events = tuple(
            AnomalyEvent(
                time_bin=int(t),
                flow_index=int(f),
                amplitude_bytes=float(a),
                shape=AnomalyShape(str(s)),
                duration_bins=int(d),
            )
            for t, f, a, s, d in zip(
                archive["event_time_bins"],
                archive["event_flow_indices"],
                archive["event_amplitudes"],
                archive["event_shapes"],
                archive["event_durations"],
            )
        )
        config_json = str(archive["config_json"])
        config = None
        if config_json:
            payload = json.loads(config_json)
            payload["anomaly_size_range"] = tuple(payload["anomaly_size_range"])
            config = WorkloadConfig(**payload)
        return Dataset(
            name=str(archive["name"]),
            network=network,
            routing=routing,
            od_traffic=od_traffic,
            link_traffic=archive["link_traffic"],
            true_events=events,
            config=config,
        )
