"""Tests for the self-contained PEP 517/660 build backend."""

import sys
import tarfile
import zipfile
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "_build"))
import dust_build_backend as backend  # noqa: E402


class TestRequirementHooks:
    def test_zero_build_requirements(self):
        """The whole point: nothing to download in isolated builds."""
        assert backend.get_requires_for_build_wheel() == []
        assert backend.get_requires_for_build_sdist() == []
        assert backend.get_requires_for_build_editable() == []


class TestEditableWheel:
    def test_editable_wheel_contents(self, tmp_path):
        name = backend.build_editable(str(tmp_path))
        assert name == "repro-1.0.0-py3-none-any.whl"
        with zipfile.ZipFile(tmp_path / name) as whl:
            names = whl.namelist()
            assert "__editable__.repro-1.0.0.pth" in names
            assert "repro-1.0.0.dist-info/METADATA" in names
            assert "repro-1.0.0.dist-info/WHEEL" in names
            assert "repro-1.0.0.dist-info/RECORD" in names
            pth = whl.read("__editable__.repro-1.0.0.pth").decode().strip()
            assert pth.endswith("src")
            assert (Path(pth) / "repro" / "__init__.py").exists()

    def test_editable_wheel_has_console_script(self, tmp_path):
        name = backend.build_editable(str(tmp_path))
        with zipfile.ZipFile(tmp_path / name) as whl:
            eps = whl.read("repro-1.0.0.dist-info/entry_points.txt").decode()
        assert "dust-experiments = repro.experiments.cli:main" in eps

    def test_record_lists_every_member(self, tmp_path):
        name = backend.build_editable(str(tmp_path))
        with zipfile.ZipFile(tmp_path / name) as whl:
            names = set(whl.namelist())
            record = whl.read("repro-1.0.0.dist-info/RECORD").decode()
        recorded = {line.split(",")[0] for line in record.strip().splitlines()}
        assert recorded == names


class TestFullWheel:
    def test_wheel_packages_source_tree(self, tmp_path):
        name = backend.build_wheel(str(tmp_path))
        with zipfile.ZipFile(tmp_path / name) as whl:
            names = whl.namelist()
        assert "repro/__init__.py" in names
        assert "repro/core/placement.py" in names
        assert "repro/lp/transportation.py" in names
        assert not any("__pycache__" in n or n.endswith(".pyc") for n in names)

    def test_metadata_declares_runtime_deps(self, tmp_path):
        name = backend.build_wheel(str(tmp_path))
        with zipfile.ZipFile(tmp_path / name) as whl:
            metadata = whl.read("repro-1.0.0.dist-info/METADATA").decode()
        assert "Requires-Dist: numpy" in metadata
        # networkx and scipy are test-only oracle dependencies: only the
        # dev extra requires them.
        for dep in ("networkx", "scipy"):
            lines = [l for l in metadata.splitlines() if l.startswith(f"Requires-Dist: {dep}")]
            assert lines and all(l.endswith('; extra == "dev"') for l in lines), dep

    def test_extras_match_pyproject(self, tmp_path):
        """CI installs ``.[dev]``, so the backend must publish the same
        extra pyproject.toml declares."""
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        project = tomllib.loads(pyproject.read_text())["project"]
        assert {k: tuple(v) for k, v in project["optional-dependencies"].items()} == backend.EXTRAS
        name = backend.build_wheel(str(tmp_path))
        with zipfile.ZipFile(tmp_path / name) as whl:
            metadata = whl.read("repro-1.0.0.dist-info/METADATA").decode()
        assert "Provides-Extra: dev" in metadata
        assert 'Requires-Dist: pytest-timeout>=2.0; extra == "dev"' in metadata


class TestSdist:
    def test_sdist_contains_project_layout(self, tmp_path):
        name = backend.build_sdist(str(tmp_path))
        assert name == "repro-1.0.0.tar.gz"
        with tarfile.open(tmp_path / name) as tar:
            names = tar.getnames()
        assert "repro-1.0.0/pyproject.toml" in names
        assert "repro-1.0.0/src/repro/__init__.py" in names
        assert "repro-1.0.0/_build/dust_build_backend.py" in names
        assert not any("__pycache__" in n for n in names)
