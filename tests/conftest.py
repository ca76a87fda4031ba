import os
import shutil
import sysconfig
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

import invbargraph
from invbargraph import _kernel_py, invseq, kernel, recur

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

# Where the compiled kernel library can be built (a C compiler on PATH and
# this interpreter's Python.h), it must load, and the C backend runs all
# five kernel functions; anywhere else the pure-Python kernel runs them.
COMPILES = shutil.which("cc") is not None and os.path.exists(
    os.path.join(sysconfig.get_path("include"), "Python.h"))

# Polynomial texts at the edges of the compiled reader's form: zeros, leading
# zeros, monomials given twice or with a numeric factor, digit runs around
# the long long and int-string limits, exponents at the range's ends, stray
# spaces and signs, and text with no UTF-8 form.
EDGE_TEXTS = [
    "0", "-0", "007*p", "-007", "p + p", "p - p", "2*p*2 - 4*p", "p*q + q*p", "1*p",
    "-" + "9" * 19 + "*p - " + "9" * 18, "9" * 4300 + "*p", "9" * 4301 + "*p",
    "p - " + "9" * 4301, "p^-1 + q^16383", "p^16383*p", "- p", "--p", "p  + q", " p", "p ",
    "p +q", "p + ", "-", "", "x", "p + x", "p\t+ q", "3*", "*p", "p - + q", "p + - + q",
    "p\ud800", "p + \udcff",
]


@pytest.fixture(autouse=True)
def no_child_outlives_a_test():
    """Every child process a test starts is reaped by the time it ends.

    `verify` forks one to run its sweep suites; it must wait for it on every
    path (pass, fail, an exception on either side, a child that dies).
    """
    yield
    if hasattr(os, "fork"):
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


def _verify_with_cpus(monkeypatch, cpus: int) -> list[int]:
    """Lets the process see `cpus` CPUs; returns the pids that fork from now on."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    forks: list[int] = []
    if hasattr(os, "fork"):
        fork = os.fork

        def counted_fork():
            forks.append(os.getpid())
            return fork()

        monkeypatch.setattr(os, "fork", counted_fork)
    return forks


@pytest.fixture
def forked(monkeypatch):
    """`verify` with its sweep suites in a forked child; the pids that fork.

    The path follows the CPUs the process may use, two here.  Each
    `run_verify` of a sweep suite and a table suite forks once.
    """
    if not hasattr(os, "fork"):
        pytest.skip("no os.fork on this platform")
    return _verify_with_cpus(monkeypatch, 2)


@pytest.fixture(scope="session")
def unpack_scans():
    """The scans of a packed cell that `kernel.unpack_slots` can be: the pure one, and the compiled.

    The compiled scan is left out only where it cannot be built (no C
    compiler, or no Python.h for this interpreter); anywhere else it must have
    loaded.  A test runs its body once per scan, with `kernel.unpack_slots`
    patched, so its ids are those of a single run.
    """
    scans = [_kernel_py.unpack_slots]
    if COMPILES:
        assert kernel.BACKEND == "c", "the compiled library did not load"
        scans.append(kernel.unpack_slots)
    return scans


@pytest.fixture(scope="session")
def compiled_text():
    """The compiled text codec of `kernel`: (format_terms, parse_terms).

    Skipped only where it cannot be built (no C compiler, or no Python.h for
    this interpreter); anywhere else it must have loaded.
    """
    if not COMPILES:
        pytest.skip("no C compiler, or no Python.h")
    assert kernel.BACKEND == "c", "the compiled library did not load"
    return kernel.format_terms, kernel.parse_terms


@pytest.fixture
def in_process(monkeypatch):
    """`verify` with every suite in this process (one CPU); the pids that fork, none."""
    return _verify_with_cpus(monkeypatch, 1)


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
