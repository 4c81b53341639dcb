"""Each entry point imports only the modules it runs.

The service, the offline analysis's history reader and the CLI's help
start in a fraction of the time a full import takes because the package
roots resolve their re-exports lazily and the heavy third-party modules
are imported where they are called.  The service and the offline fit
and detection run without scipy; only Box's fallback limit imports
``scipy.special``, when a spectrum first needs it.  Every check runs in
a fresh interpreter: this one has long since imported whatever the
suite touched.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

import repro
import repro.pipeline

#: Modules the serving path never needs: scipy (a package is loaded
#: whenever any of its modules is), the graph library, and the
#: comparison, validation, scenario, baseline, detector-registry and
#: synthetic-tenant-traffic code.
NOT_SERVED = (
    "scipy",
    "networkx",
    "repro.validation",
    "repro.scenarios",
    "repro.baselines",
    "repro.detectors",
    "repro.pipeline.compare",
    "repro.pipeline.fleet",
)

_SOURCE = str(Path(repro.__file__).resolve().parents[1])


def fresh(code: str) -> tuple[set[str], str]:
    """``(modules loaded, stdout)`` after running ``code`` in a new
    interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [_SOURCE] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    script = (
        code + "\nimport json, sys\nprint('\\n' + json.dumps(sorted(sys.modules)))"
    )
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    output, _, modules = done.stdout.rstrip("\n").rpartition("\n")
    return set(json.loads(modules)), output.rstrip("\n")


def loaded(modules: set[str], names) -> list[str]:
    return [name for name in names if name in modules]


@pytest.mark.parametrize(
    "code",
    [
        "import repro.service",
        "from repro.service.tenants import MultiTenantService",
        "from repro.pipeline.sharded import TemporalCoordinator",
    ],
)
def test_service_path_loads_nothing_it_does_not_serve(code):
    modules, _ = fresh(code)
    assert loaded(modules, NOT_SERVED) == []


@pytest.mark.parametrize(
    "code",
    [
        "import repro.service",
        "from repro.service.tenants import MultiTenantService",
    ],
)
def test_serving_path_loads_no_process_pool(code):
    """The service fits every model in process: it loads no module of
    the sharded plane, whose coordinators fan out over worker pools."""
    modules, _ = fresh(code)
    assert sorted(
        name
        for name in modules
        if name.split(".")[0] == "multiprocessing"
        or name.startswith("repro.pipeline")
    ) == []


def test_history_reader_loads_no_scipy():
    """The offline analysis maps its history before anything else; that
    step loads nothing the service does not, scipy included."""
    modules, _ = fresh("from repro.datasets.io import open_traffic_memmap")
    assert loaded(modules, NOT_SERVED) == []


#: A service's life and the offline fits, printed as JSON: bootstrap
#: with a routing matrix, 1,200 rows past the first 1,024-row tile, a
#: scrape of the tile's drift gauges, a refit, a checkpoint and a
#: restore, two tenants checkpointed and restored, then the sharded fit
#: and the batch pipeline's fit and detect.  ``data`` holds the rows and
#: the routing arrays; ``out`` takes the checkpoints.
LIFE = """
import json
from pathlib import Path

import numpy as np

from repro.pipeline import DetectionPipeline
from repro.pipeline.sharded import TemporalCoordinator
from repro.routing.routing_matrix import RoutingMatrix
from repro.service import DetectionService, ServiceConfig
from repro.service.tenants import MultiTenantService

data, out = Path({data!r}), Path({out!r})
rows = np.load(data / "rows.npy")
with np.load(data / "routing.npz") as saved:
    routing = RoutingMatrix(
        saved["matrix"],
        [str(link) for link in saved["links"]],
        [(str(a), str(b)) for a, b in saved["od_pairs"]],
    )
stream = np.vstack([rows[300:], rows[:492]])
config = ServiceConfig(checkpoint_path=str(out / "service.ckpt"))
service = DetectionService.from_warmup(rows[:300], routing=routing, config=config)
alarms = [
    [row.bin, row.od_pair, row.estimated_bytes.hex()]
    for start in range(0, len(stream), 50)
    for row in service.ingest_block(stream[start : start + 50]).outcomes
    if row.flag
]
gauges = [
    line for line in service.metrics_text().splitlines()
    if line.startswith("repro_tracker_")
]
refit = service.refit()
service.checkpoint()
restored = DetectionService.from_checkpoint(out / "service.ckpt", routing=routing)
served = [
    s.ingest_block(rows[:50]).segments[0].spe.tobytes()
    for s in (service, restored)
]
service.close()
restored.close()

fleet = MultiTenantService.from_warmups(
    {{"east": rows[:300], "west": rows[300:600]}}, checkpoint_dir=out / "fleet"
)
fleet_alarms = [fleet.ingest_block(t, rows[600:]).alarms for t in fleet.tenants]
fleet.checkpoint()
fleet.close()
back = MultiTenantService.restore(out / "fleet")
fleet_restored = [
    back.service(t).lifecycle.current.threshold.hex() for t in back.tenants
]
back.close()

sharded = TemporalCoordinator(num_shards=4, workers=1).fit(rows)
found = DetectionPipeline().fit(rows, routing=routing).detect(rows)
print(json.dumps({{
    "alarms": alarms,
    "gauges": gauges,
    "refit": [refit.version, refit.threshold.hex()],
    "restored_scores_alike": served[0] == served[1],
    "fleet": [fleet_alarms, fleet_restored],
    "sharded": sharded.detector.threshold.hex(),
    "detected": found.anomalous_bins.tolist(),
    "identified": [list(pair) for pair in found.od_pairs],
}}))
"""


def test_service_and_offline_paths_run_without_scipy(sprint1, tmp_path):
    """With scipy unimportable, a service lives its whole life and the
    offline fit and detection run, printing what an ordinary run prints:
    no limit of this traffic falls back to Box, so nothing needs scipy.
    The inputs are arrays on disk; building a preset would validate its
    topology with ``scipy.sparse``."""
    routing = sprint1.routing
    np.save(tmp_path / "rows.npy", sprint1.link_traffic)
    np.savez(
        tmp_path / "routing.npz",
        matrix=routing.matrix,
        links=np.array(routing.link_names),
        od_pairs=np.array(routing.od_pairs),
    )
    runs = {}
    for run, prelude in (("blocked", "import sys\nsys.modules['scipy'] = None\n"),
                         ("ordinary", "")):
        out = tmp_path / run
        out.mkdir()
        _, runs[run] = fresh(prelude + LIFE.format(data=str(tmp_path), out=str(out)))
    assert runs["blocked"] == runs["ordinary"]
    life = json.loads(runs["blocked"])
    assert len(life["alarms"]) >= 10
    assert all(pair is not None for _, pair, _ in life["alarms"])
    gauges = dict(line.split() for line in life["gauges"])
    assert float(gauges["repro_tracker_drift_radians"]) > 0.0  # tile 0 solved
    assert life["refit"][0] == 2
    assert life["restored_scores_alike"]
    assert min(life["fleet"][0]) > 0
    assert life["detected"] and len(life["identified"]) == len(life["detected"])


def test_box_fallback_loads_scipy_special_when_first_needed():
    """Box's chi-square quantile is the one limit that needs scipy: a
    spectrum with ``h₀ ≤ 0`` loads ``scipy.special`` at that call, not
    before, and its limit has the bits ``scipy.stats`` gives."""
    modules, output = fresh(
        "import sys\n"
        "import numpy as np\n"
        "from repro.core.qstatistic import q_threshold\n"
        "print('scipy.special' in sys.modules)\n"
        "print(q_threshold(np.array([1.0] + [0.01] * 100), 0.999).hex())\n"
    )
    before, limit = output.split()
    assert before == "False"
    assert "scipy.special" in modules
    spectrum = np.array([1.0] + [0.01] * 100)
    phi1, phi2, phi3 = (float(np.sum(spectrum**k)) for k in (1, 2, 3))
    assert 1.0 - (2.0 * phi1 * phi3) / (3.0 * phi2**2) <= 0.0
    box = float(phi2 / phi1 * stats.chi2.ppf(0.999, df=phi1**2 / phi2))
    assert limit == box.hex()


def test_dataset_build_loads_no_networkx():
    """Building a preset validates its topology with scipy's sparse
    graph routines: the library runs on numpy and scipy alone."""
    modules, output = fresh(
        "from repro.datasets import build_dataset\n"
        "print(build_dataset('abilene').num_links)\n"
    )
    assert output == "41"
    assert "networkx" not in modules


def test_cli_help_loads_only_the_parser():
    modules, output = fresh(
        "import runpy, sys\n"
        "sys.argv = ['repro', '--help']\n"
        "try:\n"
        "    runpy.run_module('repro', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as done:\n"
        "    assert done.code == 0, done.code\n"
    )
    assert "usage: repro" in output
    assert loaded(modules, NOT_SERVED + ("numpy",)) == []


def test_every_public_name_resolves_and_star_import_works():
    """``repro.__all__`` and ``repro.pipeline.__all__`` resolve from a
    fresh start, ``dir()`` lists them, and ``from repro import *`` binds
    every name."""
    modules, output = fresh(
        "import repro, repro.pipeline\n"
        "for package in (repro, repro.pipeline):\n"
        "    for name in package.__all__:\n"
        "        assert getattr(package, name) is not None, name\n"
        "    assert set(package.__all__) <= set(dir(package))\n"
        "namespace = {}\n"
        "exec('from repro import *', namespace)\n"
        "assert set(repro.__all__) <= set(namespace)\n"
        "print(repro.detectors.__name__, repro.DetectionPipeline.__module__)\n"
    )
    assert output == "repro.detectors repro.pipeline.pipeline"
    assert "repro.pipeline.compare" in modules


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'NoSuchThing'"):
        getattr(repro, "NoSuchThing")
    assert not hasattr(repro.pipeline, "NoSuchThing")
