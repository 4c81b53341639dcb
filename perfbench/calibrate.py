"""Closed-loop capacity of the fleet-bins request mix on this host.

Usage, from the root of a checkout::

    python3 perfbench/calibrate.py [--seconds 10]

Sends the fleet-bins window (one 1-row ingest per tenant, then one
scrape, per bin round) as fast as the server answers, one request at a
time, and prints the capacity in bin rounds per second.  The open loop
of ``fleet-bins`` offers about half of it (``FLEET_ROUNDS_PER_S``).
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys

import common

os.environ.update(common.PINNED_THREAD_ENV)
sys.dont_write_bytecode = True


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    sys.path.insert(0, str(common.source_dir()))
    import http_workloads as hw
    from loadgen import clock

    work = common.work_root() / f"calibrate-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        rounds = int(4 * hw.FLEET_ROUNDS_PER_S * args.seconds)
        tenants, _ = hw.fleet_inputs(args.seed, rounds, work)
        spec = hw.fleet_spec(tenants, work, False, work / "ckpt")
        server, _, _ = hw.launch(spec, work, 1, lambda launched: [])
        try:
            hw.fleet_offsets(server.conn, tenants)
            window = hw.fleet_window(tenants, rounds)
            begin = clock()
            end = begin + int(args.seconds * 1e9)
            done = 0
            for exchange in window:
                server.conn.call(exchange)
                done += 1
                if exchange.done_ns >= end:
                    break
            elapsed = (clock() - begin) / 1e9
        finally:
            server.stop()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    per_s = done / elapsed
    print(f"closed-loop capacity: {per_s:.1f} requests/s = "
          f"{per_s / hw.FLEET_REQUESTS_PER_ROUND:.2f} bin rounds/s "
          f"({done} requests in {elapsed:.2f} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
