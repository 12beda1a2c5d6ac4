"""Call census: which functions of ``src/repro`` no shipped run enters.

    python tests/tools/census.py                  # drive every run, then report
    python tests/tools/census.py --hits DIR       # keep the hit files in DIR
    python tests/tools/census.py --hits DIR --no-run   # re-report recorded hits

Each run starts with a generated ``sitecustomize.py`` first on
``PYTHONPATH``. It installs ``sys.setprofile`` and
``threading.setprofile`` hooks that append every first-seen code object
under ``src/repro`` to ``hits-<pid>.tsv``, one line each and
line-buffered, so forked pool workers that leave through ``os._exit``
and the benchmark's unit subprocesses are counted too.

The report walks ``src/repro`` as parsed with :mod:`ast` before the
runs started and matches each function on ``(file, first line,
name)``: a decorated function's ``co_firstlineno`` is its first
decorator's line. A function that was never entered is one row, sized
in lines from its first decorator to its last line; the functions
nested in it are not rows of their own.
Rows on :data:`ALLOWLIST` are kept on purpose and say why. The script
prints the rest and exits 1 when there are any, and it names allowlist
rows that no longer match a never-entered function.

The runs take ≈ 2 minutes on a 2-vCPU box. pytest does not collect this
file; ``tests/tools/test_census.py`` tests the analysis.
"""

from __future__ import annotations

import argparse
import ast
import os
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Set, Tuple

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
PACKAGE = SRC / "repro"

#: (file relative to ``src/``, first line, function name).
Key = Tuple[str, int, str]

EXTRAS = ("hops", "convention", "overhead", "resilience", "soak", "distributed")
EXAMPLES = (
    "datacenter_offload", "failure_recovery", "heuristic_vs_ilp", "qos_congestion",
    "quickstart", "switch_offload_testbed", "zoned_deployment",
)
WORKLOADS = ("lp_churn_k16", "dist_churn_k16", "fig11_sweep_k8", "soak_chaos_k8")
EXPERIMENTS = [sys.executable, "-m", "repro.experiments"]
BENCH = [sys.executable, "benchmarks/e2e/run.py"]
#: Every run the repo ships, as argv lists run from the repo root.
#: ``{out}`` is replaced by a scratch directory for written artifacts.
RUNS: List[List[str]] = (
    [EXPERIMENTS + ["all", "--quick"]]
    + [EXPERIMENTS + ["scorecard", "--quick", "--json", "{out}/scorecard.json"]]
    + [EXPERIMENTS + [x, "--quick", "--json", f"{{out}}/{x}.json"] for x in EXTRAS]
    + [[sys.executable, f"examples/{x}.py"] for x in EXAMPLES]
    + [BENCH + ["--smoke", "--seed", "0"], BENCH + ["--smoke", "--traced", "--seed", "0"]]
    + [BENCH + ["--workload", w, "--seed", "0", "--seconds", "2", "--traced"] for w in WORKLOADS]
    + [
        EXPERIMENTS + [x, "--quick", "--trace", f"{{out}}/{x}.trace.json"]
        for x in ("fig7", "fig11", "resilience")
    ]
)

#: Why each never-entered row stays, with the rows it covers as
#: ``"file-under-src/repro qualname"``.
_KEPT: Dict[str, Tuple[str, ...]] = {
    "disk path of the snapshot store: a deployment setting, and its fsync/CRC "
    "code is safety code; tests/core/test_failover.py covers it": (
        "core/failover.py SnapshotStore.persist",
        "core/failover.py SnapshotStore._load_from_disk",
    ),
    "leaves src/ with the enumeration engine (ROADMAP 20); tests and "
    "benchmarks/bench_*.py use it": (
        "routing/shortest.py HopConstrainedResult.best",
        "routing/shortest.py HopConstrainedResult.best_hops",
        "routing/shortest.py HopConstrainedResult.path_to",
        "routing/shortest.py hop_constrained_shortest",
        "routing/shortest.py shortest_path",
    ),
    "an accessor the tests read (<= 6 lines, or a one-line body under a "
    "docstring)": (
        "core/audit.py AuditReport.clean",
        "core/audit.py AuditReport.__bool__",
        "core/audit.py AuditReport.__repr__",
        "core/client.py DUSTClient.base_load",
        "core/failover.py SnapshotStore.version",
        "core/failover.py StandbyManager.promoted",
        "core/heuristic.py _LazyAssignments.__len__",
        "core/heuristic.py _LazyAssignments.__getitem__",
        "core/messages.py DedupCache.__len__",
        "core/messages.py ReliableSender.pending",
        "core/nmdb.py NetworkSnapshot.busy",
        "core/nmdb.py NetworkSnapshot.candidates",
        "core/nmdb.py NMDB.record",
        "core/offload.py OffloadLedger.hosted_amount",
        "core/offload.py OffloadLedger.destinations",
        "core/placement.py PlacementReport.flows_from",
        "core/placement.py PlacementReport.flows_to",
        "core/postoffload.py KeepaliveTracker.last_seen",
        "core/postoffload.py KeepaliveTracker.tracked",
        "core/roles.py RoleAssignment.relays",
        "core/roles.py RoleAssignment.opted_out",
        "core/roles.py RoleAssignment.counts",
        "core/zoning.py Zone.__len__",
        "core/zoning.py ZonedPlacementReport.assignments",
        "lp/distributed.py DistributedSolveResult.feasible",
        "obs/registry.py Counter.set_max",
        "obs/registry.py Counter.value",
        "obs/registry.py Counter._reset",
        "obs/registry.py Gauge.value",
        "obs/registry.py Histogram.mean",
        "obs/registry.py Histogram._reset",
        "obs/registry.py MetricsRegistry.__contains__",
        "obs/registry.py MetricsRegistry.names",
        "obs/registry.py MetricsRegistry.get",
        "obs/registry.py MetricsRegistry.value",
        "obs/registry.py MetricsRegistry.reset",
        "obs/tracer.py _NoopSpan.tag",
        "obs/tracer.py _LiveSpan.tag",
        "obs/tracer.py Tracer.span",
        "obs/tracer.py Tracer.disable",
        "obs/tracer.py Tracer.clear",
        "obs/tracer.py Tracer.__len__",
        "routing/response_time.py _DPRoutes.__contains__",
        "routing/response_time.py _DPRoutes._keys",
        "routing/response_time.py _DPRoutes.__iter__",
        "routing/response_time.py _DPRoutes.__len__",
        "routing/routes.py Path.source",
        "routing/routes.py Path.destination",
        "routing/routes.py Path.num_hops",
        "routing/routes.py Path.relay_nodes",
        "routing/routes.py RouteChoice.num_hops",
        "simulation/engine.py SimulationEngine.pending_events",
        "simulation/network_sim.py Message.latency",
        "simulation/profiles.py ArrivalProcess.take",
        "simulation/profiles.py BurstyArrivals.bursting",
        "simulation/random.py rng_from",
        "telemetry/agents.py MonitorAgent.pending_updates",
        "telemetry/device.py NetworkDevice.offloaded_agents",
        "telemetry/device.py NetworkDevice.remote_agents",
        "telemetry/workload.py UpdateRateProfile.total_rate_per_s",
        "telemetry/workload.py UpdateRateProfile.scaled",
        "topology/fattree.py FatTreeLayout.switches",
        "topology/fattree.py fat_tree_node_count",
        "topology/fattree.py fat_tree_edge_count",
        "topology/fattree.py fat_tree_cache_info",
        "topology/fattree.py fat_tree_cache_clear",
        "topology/graph.py _LinkView.capacity_mbps",
        "topology/graph.py _LinkView.utilization",
        "topology/graph.py _LinkView.latency_ms",
        "topology/graph.py Topology.version",
        "topology/graph.py Topology.set_capacity",
        "topology/graph.py Topology.edges",
        "topology/graph.py Topology.link",
        "topology/graph.py Topology.has_edge",
        "topology/graph.py Topology.neighbors",
        "topology/graph.py Topology.incident",
        "topology/graph.py Topology.degree",
        "topology/graph.py Topology.nodes_of_kind",
        "topology/graph.py Topology.__iter__",
    ),
    "Eq. 1 for one path; tests and benchmarks/bench_enum_kernel.py check "
    "routes with it": (
        "routing/routes.py Path.response_time",
    ),
    "the experiment CLI's `table1` target": (
        "experiments/common.py notation_table",
    ),
    "part of a protocol the language or a sibling class calls: pickle and "
    "copy of a message record (the explorer and the message-family test "
    "round-trip them), tuple semantics of a lazy view (a "
    "HeuristicReport's == and repr go through it), a repr, an abstract "
    "method, or the gauge/histogram half of the registry's "
    "value/merge/reset interface": (
        "core/messages.py _rebuild",
        "core/messages.py ControlMessage.__reduce__",
        "core/messages.py ControlMessage.__repr__",
        "core/heuristic.py _LazyAssignments.__eq__",
        "core/heuristic.py _LazyAssignments.__repr__",
        "obs/registry.py Gauge._merge",
        "obs/registry.py Gauge._reset",
        "obs/registry.py Histogram.value",
        "obs/registry.py MetricsRegistry.__len__",
        "routing/routes.py Path.__repr__",
        "simulation/profiles.py ArrivalProcess._gap",
    ),
    "a handler for an event no shipped run produces: the manager calls it "
    "when it evicts a node": (
        "simulation/soak.py _SoakDriver._on_eviction",
    ),
    "setter behind Topology.from_arrays's branch for a TopologyArrays "
    "built without CSR wiring (a public input)": (
        "topology/graph.py Topology._adjacency",
    ),
}

#: (file relative to ``src/``, qualified name) -> why the row stays.
ALLOWLIST: Dict[Tuple[str, str], str] = {
    ("repro/" + row.split()[0], row.split()[1]): reason
    for reason, rows in _KEPT.items()
    for row in rows
}


@dataclass(frozen=True)
class Row:
    """One never-entered outermost function."""

    path: str
    line: int
    qualname: str
    lines: int


SITECUSTOMIZE = '''\
import os, sys, threading

_HITS = {hits!r}
_SRC = {src!r}
_seen = set()
_keep = []  # every seen code object, so that no id in _seen is reused
_files = {{}}


def _hook(frame, event, arg):
    if event != "call":
        return
    code = frame.f_code
    if id(code) in _seen:
        return
    _seen.add(id(code))
    _keep.append(code)
    if not code.co_filename.startswith(_SRC):
        return
    pid = os.getpid()
    out = _files.get(pid)
    if out is None:
        out = _files[pid] = open(os.path.join(_HITS, "hits-%d.tsv" % pid), "a", buffering=1)
    out.write("%s\\t%d\\t%s\\n" % (code.co_filename, code.co_firstlineno, code.co_name))


sys.setprofile(_hook)
threading.setprofile(_hook)
'''


def install_hook(hook_dir: Path, hits_dir: Path) -> None:
    """Write the recording ``sitecustomize.py`` into ``hook_dir``."""
    text = SITECUSTOMIZE.format(hits=str(hits_dir), src=str(PACKAGE) + os.sep)
    (hook_dir / "sitecustomize.py").write_text(text, encoding="utf-8")


def drive(runs: Iterable[List[str]], hits_dir: Path) -> List[str]:
    """Run every command under the hook; returns the failed commands."""
    failed = []
    with tempfile.TemporaryDirectory() as scratch:
        hook_dir = Path(scratch) / "hook"
        out_dir = Path(scratch) / "out"
        hook_dir.mkdir()
        out_dir.mkdir()
        install_hook(hook_dir, hits_dir)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([str(hook_dir), str(SRC)])
        for argv in runs:
            argv = [a.replace("{out}", str(out_dir)) for a in argv]
            print("census: running", " ".join(argv[1:]), flush=True)
            done = subprocess.run(
                argv, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True
            )
            if done.returncode != 0:
                failed.append(" ".join(argv[1:]))
                print(done.stderr[-2000:], file=sys.stderr)
    return failed


def read_hits(hits_dir: Path, src: Path = SRC) -> Set[Key]:
    """Entered ``(file relative to src, first line, name)`` keys."""
    entered: Set[Key] = set()
    prefix = str(src) + os.sep
    for path in hits_dir.glob("hits-*.tsv"):
        for line in path.read_text(encoding="utf-8").splitlines():
            filename, first, name = line.split("\t")
            if filename.startswith(prefix):
                entered.add((Path(filename[len(prefix):]).as_posix(), int(first), name))
    return entered


def never_entered(tree: ast.AST, path: str, entered: Set[Key]) -> List[Row]:
    """Outermost functions of one module whose key is not in ``entered``."""
    rows: List[Row] = []

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = child.decorator_list[0].lineno if child.decorator_list else child.lineno
                qualname = prefix + child.name
                if (path, first, child.name) in entered:
                    visit(child, qualname + ".")
                else:
                    rows.append(Row(path, first, qualname, child.end_lineno - first + 1))
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".")
            else:
                visit(child, prefix)

    visit(tree, "")
    return rows


def snapshot(package: Path = PACKAGE) -> List[Tuple[str, ast.AST]]:
    """``(file relative to src, parsed tree)`` of every module under
    ``package``. Taken before the runs, so that a file edited while they
    run is matched as the runs loaded it."""
    return [
        (
            module.relative_to(package.parent).as_posix(),
            ast.parse(module.read_text(encoding="utf-8"), filename=str(module)),
        )
        for module in sorted(package.rglob("*.py"))
    ]


def census(entered: Set[Key], modules: List[Tuple[str, ast.AST]]) -> List[Row]:
    """Never-entered rows of every snapshotted module."""
    rows: List[Row] = []
    for path, tree in modules:
        rows.extend(never_entered(tree, path, entered))
    return rows


def report(rows: List[Row], allowlist: Dict[Tuple[str, str], str] = ALLOWLIST) -> int:
    """Print the census; returns the number of rows outside the allowlist."""
    kept = [r for r in rows if (r.path, r.qualname) in allowlist]
    loose = [r for r in rows if (r.path, r.qualname) not in allowlist]
    for row in loose:
        print(f"{row.path}:{row.line}  {row.qualname}  {row.lines}")
    for row in kept:
        print(f"kept  {row.path}:{row.line}  {row.qualname}  {row.lines}  "
              f"({allowlist[(row.path, row.qualname)]})")
    matched = {(r.path, r.qualname) for r in kept}
    for key in sorted(set(allowlist) - matched):
        print(f"stale allowlist row: {key[0]} {key[1]}")
    total = sum(r.lines for r in rows)
    print(f"never entered: {len(rows)} functions, {total} function-lines; "
          f"kept on purpose: {len(kept)} functions, {sum(r.lines for r in kept)}; "
          f"outside the allowlist: {len(loose)} functions, {sum(r.lines for r in loose)}")
    return len(loose)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--hits", type=Path, default=None,
                        help="directory for the hit files (default: a temporary one)")
    parser.add_argument("--no-run", action="store_true",
                        help="report the hits already in --hits without running anything")
    args = parser.parse_args(argv)
    if args.no_run and args.hits is None:
        parser.error("--no-run needs --hits")
    with tempfile.TemporaryDirectory() as default_hits:
        hits_dir = (args.hits or Path(default_hits)).resolve()
        hits_dir.mkdir(parents=True, exist_ok=True)
        modules = snapshot()
        failed = [] if args.no_run else drive(RUNS, hits_dir)
        loose = report(census(read_hits(hits_dir), modules))
    for command in failed:
        print(f"run failed: {command}")
    return 1 if loose or failed else 0


if __name__ == "__main__":
    sys.exit(main())
