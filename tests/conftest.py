import os
import shutil
from pathlib import Path

import numpy as np
import pytest

from paircompare.numerics import sample_beta

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


def seed_sequence_generator(seed: int, index: int) -> np.random.Generator:
    """Stream ``(seed, index)`` built through numpy's own ``SeedSequence``.

    An oracle independent of ``numerics.stream_keys``' port of that hash, so
    pinned draws are rebuilt from numpy's hash, not from the code under test.
    """
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=seed,
                                                                       spawn_key=(index,))))


def posterior_diff_draws(posts, n: int, seed: int, index: int) -> np.ndarray:
    """``n`` draws of theta1 - theta2 under the posterior pair ``posts``:
    theta1's ``n`` draws, then theta2's, from stream ``(seed, index)``, as
    ``reporting._posterior_sample`` draws them, unsorted."""
    gen = seed_sequence_generator(seed, index)
    theta1 = sample_beta(posts.post1.alpha, posts.post1.beta, gen, size=n)
    return theta1 - sample_beta(posts.post2.alpha, posts.post2.beta, gen, size=n)
