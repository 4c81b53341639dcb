"""Each entry point imports only the modules it runs.

The service, the offline analysis's history reader and the CLI's help
start in a fraction of the time a full import takes because the package
roots resolve their re-exports lazily and the heavy third-party modules
are imported where they are called.  Every check runs in a fresh
interpreter: this one has long since imported whatever the suite
touched.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
import repro.pipeline

#: Modules the serving path never needs: the baselines' filter, the
#: distribution machinery, the graph library, and the comparison,
#: validation, scenario, baseline, detector-registry and fleet-harness
#: code.
NOT_SERVED = (
    "scipy.signal",
    "scipy.stats",
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


def test_history_reader_loads_no_scipy():
    """The offline analysis maps its history before anything else; that
    step loads no scipy at all, nor anything the service does not."""
    modules, _ = fresh("from repro.datasets.io import open_traffic_memmap")
    assert [m for m in modules if m == "scipy" or m.startswith("scipy.")] == []
    assert loaded(modules, NOT_SERVED) == []


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
    assert loaded(modules, NOT_SERVED + ("numpy", "scipy")) == []


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
