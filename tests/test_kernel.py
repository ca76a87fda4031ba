import os
import shutil
import subprocess
import sys
from math import factorial
from pathlib import Path

import pytest

from invbargraph import _kernel_py, kernel

# Without a compiler the C backend cannot load; anywhere else it must, so a
# broken build fails here instead of silently running the pure kernel.
needs_c = pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")


def test_selected_backend_exposed():
    assert kernel.BACKEND in ("c", "python")


@needs_c
def test_c_backend_selected():
    assert kernel.BACKEND == "c"


def test_n1_base_cases():
    assert _kernel_py.area_sper_counts(1) == {(1, 1, 2): 1}
    assert _kernel_py.lda_counts(1) == {(1, 0, 0, 0): 1}


def test_n2_counts():
    assert _kernel_py.area_sper_counts(2) == {(1, 2, 3): 1, (2, 3, 4): 1}
    assert _kernel_py.lda_counts(2) == {(1, 1, 0, 0): 1, (2, 0, 0, 1): 1}


@pytest.mark.parametrize("n", range(1, 10))
def test_counts_sum_to_factorial(n):
    assert sum(_kernel_py.area_sper_counts(n).values()) == factorial(n)
    assert sum(_kernel_py.lda_counts(n).values()) == factorial(n)


def test_lda_keys_partition_positions():
    for (last, lev, des, asc), _ in _kernel_py.lda_counts(6).items():
        assert 1 <= last <= 6
        assert lev + des + asc == 5


def test_guard():
    with pytest.raises(ValueError):
        _kernel_py.area_sper_counts(0)
    with pytest.raises(ValueError):
        _kernel_py.lda_counts(13)


@needs_c
@pytest.mark.parametrize("n", range(1, 9))
def test_backends_agree(n):
    assert kernel.area_sper_counts(n) == _kernel_py.area_sper_counts(n)
    assert kernel.lda_counts(n) == _kernel_py.lda_counts(n)


class _NoCalls:
    def __getattr__(self, name):
        raise AssertionError(f"C walker {name} reached")


@needs_c
def test_compiled_guard(monkeypatch):
    monkeypatch.setattr(kernel, "_lib", _NoCalls())
    with pytest.raises(ValueError):
        kernel.area_sper_counts(0)
    with pytest.raises(ValueError):
        kernel.lda_counts(13)


_PROBE = """
from invbargraph import _kernel_py, kernel
assert kernel.area_sper_counts(7) == _kernel_py.area_sper_counts(7)
assert kernel.lda_counts(7) == _kernel_py.lda_counts(7)
print(kernel.BACKEND)
"""


@pytest.mark.parametrize("with_cc", [
    pytest.param(True, marks=needs_c),
    False,
])
def test_first_import_of_a_fresh_copy(tmp_path, fresh_copy, with_cc):
    """A copy with no built kernel compiles it on import, or falls back without a compiler.

    The fallback says why in one stderr line.
    """
    proc = subprocess.run([sys.executable, "-c", _PROBE], env=fresh_copy(with_cc), cwd=tmp_path,
                          capture_output=True, text=True, timeout=120, check=False)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ("c\n" if with_cc else "python\n")
    built = list((tmp_path / "invbargraph" / "__pycache__").glob("_kernel-*"))
    assert [p.suffix for p in built] == ([".so"] if with_cc else [])
    fallback = ("invbargraph: C kernel unavailable ([Errno 2] No such file or directory: 'cc'); "
                "using the pure-Python kernel\n")
    assert proc.stderr == ("" if with_cc else fallback)


@needs_c
def test_no_environment_variable_picks_the_kernel():
    """With a compiler the backend is C, whatever package-named switches are set."""
    env = {**os.environ, **{f"INVBARGRAPH_{name}": "1" for name in ("PURE", "PYTHON", "NO_C")},
           "PYTHONPATH": str(Path(kernel.__file__).resolve().parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", "import invbargraph; print(invbargraph.KERNEL_BACKEND)"],
        env=env, capture_output=True, text=True, timeout=120, check=False)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "c\n", "")
