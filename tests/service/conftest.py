"""Shared fixtures for the always-on service suite.

The engine and lifecycle tests drive :class:`DetectionService` directly;
the HTTP and fault suites run a real ``asyncio`` server on a loopback
socket in a background thread and talk to it over plain sockets /
``urllib`` — no test framework magic between the suite and the wire.
"""

from __future__ import annotations

import asyncio
import json
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.core.incremental import principal_angles
from repro.core.qstatistic import q_threshold
from repro.core.suffstats import DEFAULT_TILE_ROWS
from repro.pipeline import DetectionPipeline
from repro.service import DetectionService, ServiceConfig
from repro.service.http import ServiceHTTPServer


def refit_version(summary, rows, warmup, **fit):
    """``(detector, lo, hi)`` of the model version ``summary`` records.

    ``rows`` is the warmup rows, then every accepted row.  ``detector``
    is an offline gram fit of the version's recorded slice, rows
    ``[0, trained_rows)``, with the ``DetectionPipeline`` settings
    ``fit``: the lifecycle's parity guarantee says it is the detector
    that version served, bit for bit.  The version served stream rows
    ``[lo, hi)``, from its activation to its retirement, or to the end
    of ``rows`` while it is active.
    """
    detector = (
        DetectionPipeline(svd_method="gram", **fit)
        .fit(rows[: summary["trained_rows"]])
        .detector
    )
    retired = summary["retired_at_row"]
    end = len(rows) if retired is None else retired
    return detector, summary["activated_at_row"] - warmup, end - warmup


@pytest.fixture(scope="session")
def service_split(small_dataset):
    """(dataset, warmup_rows): 200 warmup bins, 88 streamable bins."""
    return small_dataset, 200


@pytest.fixture
def make_service(service_split):
    """Factory for a bootstrapped service over the small dataset."""
    dataset, warmup = service_split

    def build(
        routing: bool = True,
        config: ServiceConfig | None = None,
        **kwargs,
    ) -> DetectionService:
        return DetectionService.from_warmup(
            dataset.link_traffic[:warmup],
            routing=dataset.routing if routing else None,
            config=config or ServiceConfig(),
            **kwargs,
        )

    return build


@pytest.fixture(scope="session")
def drift_replay():
    """``replay(version, history) -> (threshold, drift)``: the drift
    gauges by their rule, recomputed from the rows.

    ``history`` is the warmup rows, then every accepted row, however
    the rows were split into requests.  The reference takes the last
    complete ``DEFAULT_TILE_ROWS``-row tile of it, computes the tile's
    centered second moment with the history's per-tile arithmetic (sum,
    deviations from the tile mean, ``Dᵀ D``) without a ``RowStore``, and
    solves its covariance: the threshold is the Q-limit of the
    eigenvalues past ``version``'s normal rank, and the drift the
    largest principal angle between the tile's top axes and the
    version's normal basis.  Before the first tile completes the gauges
    read the version's threshold and 0.
    """

    def replay(version, history):
        history = np.asarray(history, dtype=np.float64)
        tiles = history.shape[0] // DEFAULT_TILE_ROWS
        if tiles == 0:
            return float(version.threshold), 0.0
        start = (tiles - 1) * DEFAULT_TILE_ROWS
        rows = history[start : start + DEFAULT_TILE_ROWS].copy()
        deviations = rows - rows.sum(axis=0) / DEFAULT_TILE_ROWS
        covariance = (deviations.T @ deviations) / (DEFAULT_TILE_ROWS - 1)
        eigenvalues, eigenvectors = np.linalg.eigh(covariance)
        order = np.argsort(eigenvalues)[::-1]
        eigenvalues = np.maximum(eigenvalues[order], 0.0)
        rank = version.normal_rank
        angles = principal_angles(
            eigenvectors[:, order][:, :rank],
            version.detector.model.pca.components[:, :rank],
        )
        confidence = ServiceConfig().confidence
        return (
            q_threshold(eigenvalues[rank:], confidence=confidence),
            float(angles.max()) if angles.size else 0.0,
        )

    return replay


class FakeClock:
    """Deterministic clock: starts at ``start``, advances ``step``/call."""

    def __init__(self, start: float = 1000.0, step: float = 1.0) -> None:
        self.now = start
        self.step = step

    def __call__(self) -> float:
        value = self.now
        self.now += self.step
        return value


@pytest.fixture
def fake_clock():
    return FakeClock()


class ServerThread:
    """A live service daemon on a loopback socket, in a thread.

    With ``tenants`` (a :class:`MultiTenantService`) the daemon also
    serves the per-tenant ingest routes and fleet metrics.
    """

    def __init__(self, service: DetectionService, tenants=None) -> None:
        self.service = service
        self.tenants = tenants
        self.server: ServiceHTTPServer | None = None
        self.host: str | None = None
        self.port: int | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        asyncio.run(self._main())

    async def _main(self) -> None:
        self.server = ServiceHTTPServer(
            self.service, port=0, tenants=self.tenants
        )
        await self.server.start()
        self.host, self.port = self.server.host, self.server.port
        self._loop = asyncio.get_running_loop()
        self._ready.set()
        await self.server.serve_until_shutdown()

    def start(self) -> "ServerThread":
        self._thread.start()
        if not self._ready.wait(timeout=10):
            raise RuntimeError("service daemon failed to bind in time")
        return self

    def stop(self) -> None:
        if self._thread.is_alive() and self._loop is not None:
            self._loop.call_soon_threadsafe(self.server.shutdown_event.set)
        self._thread.join(timeout=10)
        assert not self._thread.is_alive(), "daemon did not stop cleanly"

    @property
    def alive(self) -> bool:
        return self._thread.is_alive()

    def url(self, path: str) -> str:
        return f"http://{self.host}:{self.port}{path}"

    # -- tiny HTTP client ---------------------------------------------
    def get(self, path: str) -> tuple[int, str]:
        try:
            with urllib.request.urlopen(self.url(path), timeout=10) as resp:
                return resp.status, resp.read().decode("utf-8")
        except urllib.error.HTTPError as err:
            return err.code, err.read().decode("utf-8")

    def get_json(self, path: str) -> tuple[int, dict]:
        status, body = self.get(path)
        return status, json.loads(body)

    def post_json(self, path: str, payload) -> tuple[int, dict]:
        data = (
            payload
            if isinstance(payload, bytes)
            else json.dumps(payload).encode("utf-8")
        )
        request = urllib.request.Request(
            self.url(path), data=data, method="POST"
        )
        try:
            with urllib.request.urlopen(request, timeout=10) as resp:
                return resp.status, json.loads(resp.read())
        except urllib.error.HTTPError as err:
            return err.code, json.loads(err.read())


@pytest.fixture
def run_server():
    """Factory starting daemons that are always stopped at teardown."""
    servers: list[ServerThread] = []

    def launch(service: DetectionService, tenants=None) -> ServerThread:
        server = ServerThread(service, tenants=tenants).start()
        servers.append(server)
        return server

    yield launch
    for server in servers:
        if server.alive:
            server.stop()
