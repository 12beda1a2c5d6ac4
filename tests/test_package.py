"""Public API surface tests."""

import importlib
import os
import subprocess
import sys

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
    """networkx is a test-only oracle dependency and scipy.optimize is
    only the HiGHS solver's: importing the package and every subpackage
    must load neither."""
    _run_with_repro(
        f"import repro, sys; import {', '.join(SUBPACKAGES)}; "
        "assert 'networkx' not in sys.modules; "
        "assert 'scipy.optimize' not in sys.modules"
    )


def test_solve_scipy_imports_highs_on_first_call():
    """After the plain package import, ``repro.lp.solve_scipy`` still
    solves: max x + 2y s.t. x + y <= 4, 0 <= x, y <= 3 is (1, 3)."""
    _run_with_repro(
        "import sys, repro\n"
        "from repro.lp import LinearProgram, lp_sum, solve_scipy\n"
        "lp = LinearProgram()\n"
        "x = lp.add_variable('x', upper=3.0)\n"
        "y = lp.add_variable('y', upper=3.0)\n"
        "lp.add_constraint(x + y <= 4.0)\n"
        "lp.set_objective(lp_sum([x * -1.0, y * -2.0]))\n"
        "solution = solve_scipy(lp)\n"
        "assert solution.status.is_optimal, solution.status\n"
        "assert abs(solution.objective + 7.0) < 1e-9, solution.objective\n"
        "assert abs(solution.values['x'] - 1.0) < 1e-9, solution.values\n"
        "assert abs(solution.values['y'] - 3.0) < 1e-9, solution.values\n"
        "assert 'scipy.optimize' in sys.modules\n"
    )


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

    from repro.errors import InfeasibleProblemError, UnboundedProblemError

    assert issubclass(InfeasibleProblemError, SolverError)
    assert issubclass(UnboundedProblemError, SolverError)


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
