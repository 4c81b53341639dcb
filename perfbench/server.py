"""The process under test for the HTTP workloads.

Usage: ``python3 perfbench/server.py SPEC.json`` with the checkout's
``src`` on ``PYTHONPATH``.  The spec names the warmup block of every
tenant, the routing matrix, the service configuration and whether to
trace.  The process builds its engines through the public constructors
(``DetectionService.from_warmup``, ``MultiTenantService`` and
``ServiceHTTPServer``), binds an ephemeral port, announces it as one
JSON line, and serves until ``POST /shutdown``.

When tracing, every layer in :data:`layers.TARGETS` is wrapped after the
engines are built (so bootstrap fits are not traced), tracing stops when
the shutdown path closes the primary engine, and the spans and marks
are written to the spec's ``trace_out`` file before the process exits.
"""

from __future__ import annotations

import asyncio
import json
import os
import sys
from pathlib import Path

import common
import traffic


def build(spec: dict):
    import numpy as np

    from repro.service import DetectionService, ServiceConfig, ServiceHTTPServer
    from repro.service.tenants import MultiTenantService

    routing = traffic.load_routing(spec["routing"])
    base = ServiceConfig(**spec["config"])
    services = {}
    for tenant in spec["tenants"]:
        config = base
        if tenant.get("checkpoint"):
            config = base.with_overrides(checkpoint_path=tenant["checkpoint"])
        services[tenant["name"]] = DetectionService.from_warmup(
            np.load(tenant["warmup"]), routing=routing, config=config
        )
    if spec["multi_tenant"]:
        fleet = MultiTenantService(services, checkpoint_dir=spec.get("checkpoint_dir"))
        return services, ServiceHTTPServer.for_tenants(fleet)
    (service,) = services.values()
    return services, ServiceHTTPServer(service)


async def serve(server) -> None:
    _, port = await server.start()
    common.announce(
        {
            "event": "ready",
            "port": port,
            "pid": os.getpid(),
            "thread_env": common.thread_env(),
        }
    )
    await server.serve_until_shutdown()


def main(argv: list[str]) -> int:
    spec = json.loads(Path(argv[1]).read_text())
    services, server = build(spec)
    tracer = probe = None
    if spec.get("trace"):
        from layers import LayerProbe
        from spans import Tracer

        from repro.service import DetectionService

        tracer = Tracer()
        probe = LayerProbe(tracer)
        probe.install()
        for name, service in services.items():
            probe.label(service.lifecycle, name)
        close = DetectionService.close

        def close_untraced(self):
            tracer.enabled = False
            return close(self)

        DetectionService.close = close_untraced
    asyncio.run(serve(server))
    if tracer is not None:
        dump = {
            "spans": tracer.export(),
            **probe.export(),
            "history_rows": sum(s.lifecycle.rows for s in services.values()),
        }
        Path(spec["trace_out"]).write_text(json.dumps(dump))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
