"""The import boundary: each heavy dependency loads only where it is used.

numpy is imported only by the packed engine (``--engine packed``) and the
discovery-model fits; scipy is the optional ``fit`` extra, imported only by
``DiscoveryModelAnalysis.fit_logistic``; networkx is imported only by the
``graph`` selection strategy.  The CLI commands and the service must
therefore run with all three missing, which the subprocess tests check
behind a meta-path finder that refuses them.  ``repro`` resolves its
re-exports on first access, so ``import repro.cli`` loads neither the server
nor asyncio.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = Path(__file__).resolve().parent.parent / "src"

#: Prepended to each child program: refuses numpy, scipy and networkx (and
#: their submodules) as an install without them would.
BLOCKER = """
import sys

class _Blocker:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] in ("numpy", "scipy", "networkx"):
            raise ImportError(f"blocked {name}")
        return None

sys.meta_path.insert(0, _Blocker())
"""

#: ``python -m repro ARGS`` inside the child.
RUN_CLI = "import runpy; runpy.run_module('repro', run_name='__main__', alter_sys=True)"


def run_child(program: str, *args: str, blocked: bool = True) -> subprocess.CompletedProcess:
    """Run ``program`` in a fresh interpreter on ``src/``, optionally blocked."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, "-c", (BLOCKER if blocked else "") + program, *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


class TestWithoutScipyOrNetworkx:
    def test_blocker_refuses_scipy_and_networkx(self):
        for module in ("numpy", "scipy.optimize", "networkx"):
            child = run_child(f"import {module}")
            assert child.returncode != 0
            assert f"ImportError: blocked {module.partition('.')[0]}" in child.stderr

    def test_help_runs(self):
        child = run_child(RUN_CLI, "--help")
        assert child.returncode == 0, child.stderr
        assert "experiments" in child.stdout

    def test_experiments_run(self):
        child = run_child(RUN_CLI, "experiments")
        assert child.returncode == 0, child.stderr
        assert "Table III" in child.stdout

    def test_tables_run(self):
        child = run_child(RUN_CLI, "tables")
        assert child.returncode == 0, child.stderr
        assert "Table VI" in child.stdout

    def test_simulate_runs(self):
        child = run_child(RUN_CLI, "simulate", "--runs", "20", "--json")
        assert child.returncode == 0, child.stderr
        assert json.loads(child.stdout)["engine"] == "bitset"

    def test_sweep_runs(self):
        child = run_child(
            RUN_CLI, "sweep", "--runs", "5", "--workers", "1", "--no-cache", "--json"
        )
        assert child.returncode == 0, child.stderr
        assert json.loads(child.stdout)["cells"]

    def test_service_answers_shared_query(self):
        program = """
from repro.service import DiversityService, ServiceConfig
from repro.service.server import HttpRequest

app = DiversityService(ServiceConfig())
query = {"os": ("Debian,OpenBSD",)}
response = app.dispatch(HttpRequest(method="GET", path="/v1/shared", query=query, headers={}))
print(response.status)
"""
        child = run_child(program)
        assert child.returncode == 0, child.stderr
        assert child.stdout.split() == ["200"]


def test_cli_import_loads_no_heavy_module():
    program = """
import json, sys
import repro.cli
print(json.dumps([name for name in ("numpy", "scipy", "networkx", "asyncio",
                                    "repro.service")
                  if name in sys.modules]))
"""
    child = run_child(program, blocked=False)
    assert child.returncode == 0, child.stderr
    assert json.loads(child.stdout) == []


def test_numpy_loads_with_the_packed_engine_only():
    program = """
import contextlib, io, json, sys
from repro.cli import main

loaded = []
for engine in ("bitset", "naive", "packed"):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["--engine", engine, "table", "--id", "Table III"]) == 0
    loaded.append("numpy" in sys.modules)
print(json.dumps(loaded))
"""
    child = run_child(program, blocked=False)
    assert child.returncode == 0, child.stderr
    assert json.loads(child.stdout) == [False, False, True]


@pytest.mark.parametrize("name", repro.__all__)
def test_public_name_resolves_to_its_subpackage_object(name):
    assert name in dir(repro)
    owner = importlib.import_module(repro._EXPORTS.get(name, "repro"))
    assert getattr(repro, name) is getattr(owner, name)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        repro.no_such_name
