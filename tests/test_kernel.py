import ast
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


def _filled(scan, *args, terms=None):
    """The term map `scan` fills: `terms`, or a fresh one."""
    terms = {} if terms is None else terms
    assert scan(*args, terms) is terms
    return terms


def test_unpack_slots_checks_its_input(unpack_scans):
    """Every scan reads no slot without a key, and refuses alike what it cannot read."""
    key = 1 << 80
    for scan in unpack_scans:
        assert _filled(scan, bytes(16), [key, 2], 1, 0) == {}
        terms = _filled(scan, (5).to_bytes(16, "little") + (7 << 64).to_bytes(16, "little"),
                        [key, 2, 3], 2, 0)
        assert terms == {key: 5, 2: 7 << 64} and next(iter(terms)) is key  # shared key
        assert _filled(scan, (1 << 128).to_bytes(24, "little"), [key], 3, 10) == \
            {key + 10: 1 << 128}
        with pytest.raises(ValueError, match="^3 slots but only 2 keys$"):
            scan(bytes(24), [key, 2], 1, 0, {})
        with pytest.raises(ValueError, match="^24 bytes are not whole slots of 2 words$"):
            scan(bytes(24), [key, 2], 2, 0, {})


def test_unpack_slots_fills_the_callers_map(unpack_scans):
    """The terms join those already in the map; a zero slot adds nothing."""
    data = b"".join(c.to_bytes(8, "little") for c in (3, 0, 9))
    for scan in unpack_scans:
        terms = {1: 4}
        _filled(scan, data, [10, 20, 30], 1, 0, terms=terms)
        assert terms == {1: 4, 10: 3, 30: 9}
        _filled(scan, data, [10, 20, 30], 1, 100, terms=terms)
        assert terms == {1: 4, 10: 3, 30: 9, 110: 3, 130: 9}


@pytest.mark.parametrize("keys, offset, before, message", [
    ([10, 20, 30], 0, {30: 1}, "1 of 2 keys are already in the term map"),
    ([10, 20, 30], 20, {30: 1, 50: 1}, "2 of 2 keys are already in the term map"),
    ([10, 20, 10], 0, {}, "1 of 2 keys are already in the term map"),
], ids=["in-the-map", "after-the-offset", "twice-in-one-cell"])
def test_unpack_slots_refuses_a_key_already_in_the_map(unpack_scans, keys, offset, before,
                                                        message):
    """A key is new exactly when the map grows by one; both scans refuse one that is not alike."""
    data = b"".join(c.to_bytes(8, "little") for c in (3, 0, 9))
    for scan in unpack_scans:
        with pytest.raises(ValueError, match=f"^{message}$"):
            scan(data, keys, 1, offset, dict(before))


@pytest.mark.parametrize("words", [1, 2, 3])
def test_unpack_slots_reads_every_word(unpack_scans, words):
    """An all-ones slot, and a slot with only its top word set, each beside a one-word value."""
    top = 64 * (words - 1)
    values = [(1 << 64 * words) - 1, 5, 0xDEADBEEF << top, 1 << top, (1 << 64) - 1 << top]
    data = b"".join(c.to_bytes(8 * words, "little") for c in values)
    for scan in unpack_scans:
        assert _filled(scan, data, list(range(len(values))), words, 0) == dict(enumerate(values))


@pytest.mark.skipif(kernel._pylib is None or shutil.which("nm") is None,
                    reason="no compiled unpacking, or no nm")
def test_compiled_unpacking_uses_only_the_public_c_api():
    """The library refers to no private `_Py` symbol of the interpreter."""
    proc = subprocess.run(["nm", "-u", kernel._lib._name], capture_output=True, text=True,
                          check=True)
    assert "PyDict_SetItem" in proc.stdout and "PyUnicode_AsUTF8AndSize" in proc.stdout
    assert [line for line in proc.stdout.splitlines() if "_Py" in line] == []


@pytest.mark.skipif(shutil.which("cc") is None or kernel._pylib is None,
                    reason="no C compiler, or no Python.h")
def test_the_source_builds_clean_with_warnings_as_errors(tmp_path):
    """The walkers and the functions on Python objects compile with -Wall -Wextra -Werror."""
    proc = subprocess.run([*kernel._CC, "-Wall", "-Wextra", "-Werror", "-o",
                           str(tmp_path / "kernel.so"), kernel._SOURCE],
                          capture_output=True, text=True, timeout=120, check=False)
    assert proc.returncode == 0, proc.stderr


_PROBE = """
from invbargraph import _kernel_py, kernel, recur
assert kernel.area_sper_counts(7) == _kernel_py.area_sper_counts(7)
assert kernel.lda_counts(7) == _kernel_py.lda_counts(7)
ours = [getattr(kernel, name) is getattr(_kernel_py, name)
        for name in ("unpack_slots", "format_terms", "parse_terms")]
assert len(set(ours)) == 1
table = recur.b_table_lemma(24)
text = table.to_csv()
assert recur.DistTable.from_csv(text) == table
for name in ("unpack_slots", "format_terms", "parse_terms"):
    setattr(kernel, name, getattr(_kernel_py, name))
assert table == recur.b_table_lemma(24) and text == table.to_csv()
print(kernel.BACKEND, "pure" if ours[0] else "compiled")
"""
_NO_CC = ("invbargraph: C kernel unavailable ([Errno 2] No such file or directory: 'cc'); "
          "using the pure-Python kernel\n")


@pytest.mark.parametrize("with_cc, headers, stdout, stderr", [
    pytest.param(True, True, "c compiled\n", "", marks=needs_c),
    pytest.param(True, False, "c pure\n", "invbargraph: compiled unpacking and text codec "
                 "unavailable (no Python.h in {include}); using the C walkers and the "
                 "pure-Python unpacking and text\n", marks=needs_c),
    (False, True, "python pure\n", _NO_CC),
], ids=["True", "no-headers", "False"])
def test_first_import_of_a_fresh_copy(tmp_path, fresh_copy, with_cc, headers, stdout, stderr):
    """A copy with no built kernel compiles it on import, or falls back without a compiler.

    With the interpreter's headers the library also unpacks packed cells;
    without them (here: the copy looks for them in an empty directory) the
    walkers stay compiled and only the unpacking falls back.  Each fallback
    says why in one stderr line.
    """
    include = tmp_path / "include"
    if not headers:
        include.mkdir()
        source = tmp_path / "invbargraph" / "kernel.py"
        text = source.read_text()
        assert text.count('sysconfig.get_path("include")') == 1
        source.write_text(text.replace('sysconfig.get_path("include")', repr(str(include))))
    proc = subprocess.run([sys.executable, "-c", _PROBE], env=fresh_copy(with_cc), cwd=tmp_path,
                          capture_output=True, text=True, timeout=120, check=False)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == stdout
    built = list((tmp_path / "invbargraph" / "__pycache__").glob("_kernel-*"))
    assert [p.suffix for p in built] == ([".so"] if with_cc else [])
    assert proc.stderr == stderr.format(include=include)


@needs_c
def test_a_rebuild_removes_the_old_library(tmp_path, fresh_copy):
    """After an edit of the source the next import builds a new library and removes the old one.

    A library it cannot remove (here a directory of that name) stays, and the
    import still succeeds.
    """
    cache = tmp_path / "invbargraph" / "__pycache__"
    probe = [sys.executable, "-c", "from invbargraph import kernel; print(kernel.BACKEND)"]

    def run():
        proc = subprocess.run(probe, env=fresh_copy(True), cwd=tmp_path, capture_output=True,
                              text=True, timeout=120, check=False)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "c\n", "")
        return sorted(p.name for p in cache.glob("_kernel-*"))

    def edit():
        source = tmp_path / "invbargraph" / "_kernel.c"
        source.write_text(source.read_text() + "/* edited */\n")

    [first] = run()
    assert run() == [first]  # nothing built, nothing removed
    edit()
    [second] = run()
    assert second != first
    (cache / "_kernel-stuck.so").mkdir()
    edit()
    [third, stuck] = run()
    assert third not in (first, second) and stuck == "_kernel-stuck.so"


def test_the_kernel_modules_import_no_recur():
    """recur imports mpoly, which imports kernel: an import of recur here would be a cycle."""
    for module in (kernel, _kernel_py):
        tree = ast.parse(Path(module.__file__).read_text())
        names = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                names.add(node.module or "")
                names.update(f"{node.module or ''}.{alias.name}" for alias in node.names)
        assert [name for name in names if "recur" in name.split(".")] == [], module.__name__


@needs_c
def test_no_environment_variable_picks_the_kernel():
    """With a compiler the backend is C, whatever package-named switches are set."""
    env = {**os.environ, **{f"INVBARGRAPH_{name}": "1" for name in ("PURE", "PYTHON", "NO_C")},
           "PYTHONPATH": str(Path(kernel.__file__).resolve().parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", "import invbargraph; print(invbargraph.KERNEL_BACKEND)"],
        env=env, capture_output=True, text=True, timeout=120, check=False)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "c\n", "")
