"""Documentation is executable: every ``python`` block in
``docs/observability.md``, ``docs/distributed_solve.md`` and
``README.md`` runs, and the documented metric catalog matches the
live registry in both directions."""

import re
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
OBS_DOC = REPO_ROOT / "docs" / "observability.md"
DSOLVE_DOC = REPO_ROOT / "docs" / "distributed_solve.md"
README = REPO_ROOT / "README.md"

_FENCE = re.compile(r"```python\n(.*?)```", re.DOTALL)
_CATALOG_SECTION = re.compile(
    r"<!-- metric-catalog:begin -->\n(.*?)<!-- metric-catalog:end -->",
    re.DOTALL,
)
_METRIC_ROW = re.compile(r"^\| `([a-z0-9_.]+)` \|", re.MULTILINE)


def python_blocks(path):
    return [(path.name, i, block) for i, block in
            enumerate(_FENCE.findall(path.read_text(encoding="utf-8")))]


def documented_metric_names():
    section = _CATALOG_SECTION.search(OBS_DOC.read_text(encoding="utf-8"))
    assert section, "docs/observability.md lost its metric-catalog markers"
    return _METRIC_ROW.findall(section.group(1))


@pytest.mark.parametrize(
    "doc,index,block",
    python_blocks(OBS_DOC) + python_blocks(DSOLVE_DOC) + python_blocks(README),
    ids=lambda v: v if isinstance(v, (str, int)) else "code",
)
def test_documented_python_block_runs(doc, index, block):
    # Each block is a self-contained example; a failure means the
    # docs show code that no longer works.
    exec(compile(block, f"{doc}[block {index}]", "exec"), {"__name__": "__doc_example__"})


class TestMetricCatalogSync:
    """The docs table and the registry must agree exactly — these fail
    the tier-1 suite on drift in either direction."""

    def test_table_is_generated_from_the_catalog(self):
        from repro.obs import CATALOG

        assert [name for _, name, *_ in CATALOG] == documented_metric_names()

    def test_every_documented_metric_is_registered(self):
        from repro.obs import get_registry

        registry = get_registry()
        undocumented_sources = [
            name for name in documented_metric_names() if name not in registry
        ]
        assert not undocumented_sources, (
            f"documented but unregistered: {undocumented_sources}"
        )

    def test_every_registered_metric_is_documented(self):
        from repro.obs import get_registry

        documented = set(documented_metric_names())
        # Tests and examples may register scratch metrics on the shared
        # registry; only the catalog namespaces are doc-mandatory.
        prefixes = tuple(sorted({name.split(".")[0] for name in documented}))
        undocumented = [
            name for name in get_registry().names()
            if name.startswith(prefixes) and name not in documented
        ]
        assert not undocumented, f"registered but undocumented: {undocumented}"

    def test_dsolve_owners_exist_and_are_documented(self):
        # The dsolve.* rows name one owner module; it must be
        # importable and the public API it exports must carry
        # NumPy-style docstrings (the distributed solve is spec'd in
        # docs/distributed_solve.md, so its API is doc-mandatory).
        import importlib
        import inspect

        section = _CATALOG_SECTION.search(OBS_DOC.read_text(encoding="utf-8"))
        owners = {
            match.group(1)
            for match in re.finditer(r"\| `(repro\.[a-z_.]+)` \|", section.group(1))
        }
        dsolve_owners = {o for o in owners if "distributed" in o}
        assert dsolve_owners == {"repro.lp.distributed"}, dsolve_owners
        for owner in sorted(dsolve_owners):
            module = importlib.import_module(owner)
            for name in module.__all__:
                doc = inspect.getdoc(getattr(module, name)) or ""
                assert doc, f"{owner}.{name} has no docstring"
                has_section = any(
                    f"{header}\n" + "-" * len(header) in doc
                    for header in ("Parameters", "Attributes", "Returns")
                )
                assert has_section, (
                    f"{owner}.{name} docstring lacks a NumPy-style "
                    "Parameters/Attributes/Returns section"
                )

    def test_documented_rows_carry_unit_and_owner(self):
        section = _CATALOG_SECTION.search(OBS_DOC.read_text(encoding="utf-8"))
        rows = [
            line for line in section.group(1).splitlines()
            if line.startswith("| `")
        ]
        assert rows, "metric-catalog table is empty"
        for row in rows:
            cells = [c.strip() for c in row.strip("|").split("|")]
            assert len(cells) == 5, row
            name, kind, unit, owner, description = cells
            assert kind in ("counter", "gauge", "histogram"), row
            assert unit, row
            assert owner.startswith("`repro."), row
            assert description, row
