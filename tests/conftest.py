import os
import shutil
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

import invbargraph
from invbargraph import invseq, recur

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture
def fresh_copy(tmp_path):
    """Copy the package, without its __pycache__, into a fresh directory.

    Returns a function of `with_cc` that gives the environment in which
    `python -m invbargraph` (run with cwd `tmp_path`) imports that copy.
    Without `cc` the PATH is one empty directory: no compiler, so the copy
    falls back to the pure-Python kernel, as it does for users who have none.
    """
    shutil.copytree(Path(invbargraph.__file__).resolve().parent, tmp_path / "invbargraph",
                    ignore=shutil.ignore_patterns("__pycache__"))
    empty = tmp_path / "bin"
    empty.mkdir()

    def environment(with_cc: bool) -> dict[str, str]:
        env = {**os.environ, "PYTHONPATH": str(tmp_path)}
        if not with_cc:
            env["PATH"] = str(empty)
        return env

    return environment


@pytest.fixture(scope="session")
def a_lemma_8():
    return recur.a_table_lemma(8)


@pytest.fixture(scope="session")
def a_three_8():
    return recur.a_table_threeterm(8)


@pytest.fixture(scope="session")
def a_brute_8():
    return invseq.brute_dist_area_sper(8)


@pytest.fixture(scope="session")
def b_lemma_9():
    return recur.b_table_lemma(9)


@pytest.fixture(scope="session")
def b_three_9():
    return recur.b_table_threeterm(9)


@pytest.fixture(scope="session")
def b_brute_9():
    return invseq.brute_dist_lda(9)
