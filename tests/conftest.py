import os
import shutil
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent

# Tests that start `python -m paircompare.cli` run it from a temporary
# directory, where a relative PYTHONPATH no longer finds the package; put the
# absolute src path first so subprocesses import this checkout.
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")]))


@pytest.fixture(scope="session")
def configs_dir() -> Path:
    return REPO_ROOT / "configs"


@pytest.fixture(scope="session")
def data_dir() -> Path:
    return REPO_ROOT / "data"


@pytest.fixture()
def fixture_tree(tmp_path) -> Path:
    """Copy of the shipped configs/ and data/ trees, safe to run against."""
    shutil.copytree(REPO_ROOT / "configs", tmp_path / "configs")
    shutil.copytree(REPO_ROOT / "data", tmp_path / "data")
    return tmp_path
