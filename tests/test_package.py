"""Public API surface tests."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SUBPACKAGES = (
    "repro.core",
    "repro.experiments",
    "repro.lp",
    "repro.obs",
    "repro.routing",
    "repro.simulation",
    "repro.telemetry",
    "repro.testbed",
    "repro.topology",
)


def test_version_exposed():
    assert repro.__version__ == "1.0.0"


@pytest.mark.parametrize("name", SUBPACKAGES)
def test_subpackage_all_resolves(name):
    """Every name in a package's __all__ must actually exist."""
    module = importlib.import_module(name)
    assert hasattr(module, "__all__") and module.__all__
    for symbol in module.__all__:
        assert hasattr(module, symbol), f"{name}.{symbol} missing"


def _run_with_repro(code):
    """Run ``code`` in a fresh interpreter that can import ``repro``."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_import_does_not_load_networkx():
    """networkx and scipy are test-only oracle dependencies: importing
    the package and every subpackage must load neither."""
    _run_with_repro(
        f"import repro, sys; import {', '.join(SUBPACKAGES)}; "
        "assert 'networkx' not in sys.modules; "
        "assert not [m for m in sys.modules if m.split('.')[0] == 'scipy']"
    )


def test_placement_solves_with_scipy_unimportable():
    """scipy is not a runtime dependency: with every scipy import
    failing, the package imports and a placement solve returns its
    optimum and its capacity duals."""
    _run_with_repro(
        "import sys\n"
        "class NoScipy:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name.split('.')[0] == 'scipy':\n"
        "            raise ImportError(f'{name} is blocked')\n"
        "sys.meta_path.insert(0, NoScipy())\n"
        "import numpy as np\n"
        f"import repro, {', '.join(SUBPACKAGES)}\n"
        "from repro.core import PlacementEngine, PlacementProblem\n"
        "topology = repro.build_fat_tree(4)\n"
        "problem = PlacementProblem(\n"
        "    topology=topology, busy=(0, 1), candidates=(2, 3, 4),\n"
        "    cs=np.array([5.0, 3.0]), cd=np.array([4.0, 4.0, 4.0]),\n"
        "    data_mb=np.array([10.0, 10.0]),\n"
        ")\n"
        "report = PlacementEngine().solve(problem)\n"
        "assert report.feasible, report.status\n"
        "assert sorted(report.capacity_duals) == [2, 3, 4], report.capacity_duals\n"
        "assert not [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
    )


def test_every_run_stays_in_the_calling_process():
    """No module under ``src/repro`` imports ``multiprocessing`` or
    ``concurrent.futures``: the experiment sweeps, zoned placement and
    route pricing all run in the process that calls them."""
    root = Path(repro.__file__).parent
    found = []
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module] + [f"{node.module}.{a.name}" for a in node.names]
            else:
                continue
            found += [
                f"{path.relative_to(root)}:{node.lineno} {name}"
                for name in names
                if name.split(".")[0] == "multiprocessing"
                or name.startswith("concurrent.futures")
            ]
    assert found == []


def test_top_level_all_resolves():
    for symbol in repro.__all__:
        assert hasattr(repro, symbol)


def test_exception_hierarchy():
    from repro.errors import (
        CapacityError,
        PlacementError,
        ProtocolError,
        ReproError,
        RoutingError,
        SimulationError,
        SolverError,
        TelemetryError,
        TopologyError,
    )

    for exc in (
        CapacityError, PlacementError, ProtocolError, RoutingError,
        SimulationError, SolverError, TelemetryError, TopologyError,
    ):
        assert issubclass(exc, ReproError)


def test_headline_workflow_via_top_level_imports_only():
    """The README quickstart works using only `repro` top-level names."""
    import numpy as np

    topo = repro.build_fat_tree(4)
    repro.LinkUtilizationModel(0.2, 0.8, seed=1).apply(topo)
    policy = repro.ThresholdPolicy()
    caps = repro.CapacityModel(x_min=policy.x_min, seed=2).sample(topo.num_nodes)
    from repro.core import classify_network

    roles = classify_network(caps, policy)
    if roles.busy and roles.candidates:
        problem = repro.PlacementProblem(
            topology=topo,
            busy=tuple(roles.busy),
            candidates=tuple(roles.candidates),
            cs=np.array([policy.excess_load(caps[b]) for b in roles.busy]),
            cd=np.array([policy.spare_capacity(caps[c]) for c in roles.candidates]),
            data_mb=np.full(len(roles.busy), 10.0),
        )
        report = repro.PlacementEngine().solve(problem)
        heuristic = repro.solve_heuristic(problem)
        assert report.status is not None
        assert 0.0 <= heuristic.hfr_pct <= 100.0
