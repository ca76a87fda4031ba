import ast
import json
import os
import shlex
import shutil
import subprocess
import sys
from math import factorial
from pathlib import Path

import pytest

from conftest import COMPILES, EDGE_TEXTS
from invbargraph import _kernel_py, kernel

# Without a compiler or Python.h the C backend cannot load; anywhere else it
# must, so a broken build fails here instead of silently running the pure kernel.
needs_c = pytest.mark.skipif(not COMPILES, reason="no C compiler, or no Python.h")
FUNCTIONS = ("area_sper_counts", "lda_counts", "unpack_slots", "format_terms", "parse_terms")


def test_selected_backend_exposed():
    assert kernel.BACKEND in ("c", "python")


@needs_c
def test_c_backend_selected():
    assert kernel.BACKEND == "c"


def test_one_backend_runs_all_five_functions():
    """Each function is the pure one exactly when the backend is Python.

    The compiled walkers are wrappers around the library's, so they are
    never `_kernel_py`'s; the other three are the library's own functions.
    """
    for name in FUNCTIONS:
        assert (getattr(kernel, name) is getattr(_kernel_py, name)) == \
            (kernel.BACKEND == "python"), name


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


def _no_walk(walker, *args):
    raise AssertionError(f"C walker {walker.__name__} reached")


@needs_c
def test_compiled_guard(monkeypatch):
    monkeypatch.setattr(kernel, "_walk", _no_walk)
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


@pytest.mark.skipif(not COMPILES or shutil.which("nm") is None,
                    reason="no C compiler, no Python.h, or no nm")
def test_compiled_unpacking_uses_only_the_public_c_api():
    """The library refers to no private `_Py` symbol of the interpreter."""
    proc = subprocess.run(["nm", "-u", kernel._lib._name], capture_output=True, text=True,
                          check=True)
    assert "PyDict_SetItem" in proc.stdout and "PyUnicode_AsUTF8AndSize" in proc.stdout
    assert [line for line in proc.stdout.splitlines() if "_Py" in line] == []


@pytest.mark.skipif(not COMPILES, reason="no C compiler, or no Python.h")
def test_the_source_builds_clean_with_warnings_as_errors(tmp_path):
    """The walkers and the functions on Python objects compile with -Wall -Wextra -Werror."""
    proc = subprocess.run([*kernel._CC, "-Wall", "-Wextra", "-Werror", "-o",
                           str(tmp_path / "kernel.so"), kernel._SOURCE],
                          capture_output=True, text=True, timeout=120, check=False)
    assert proc.returncode == 0, proc.stderr


# Runs every function of a library built from _kernel.c (its path is argv[1])
# on fixed inputs: the walkers (against the pure ones up to n = 6, by their
# totals beyond), unpack_slots on 1-3-word slots (also the refused calls),
# format_terms/parse_terms round trips of wide-coefficient polynomials, and
# parse_terms on the texts of argv[2] (a JSON list) and on one-byte edits of
# the round trips' texts, where it must give None or what the loop reads.
_SANITIZED_PROBE = """
import ctypes, json, random, sys
from math import factorial
from unittest import mock
from invbargraph import _kernel_py, kernel, mpoly
from invbargraph.mpoly import MPoly

area_sper, lda, unpack, write, read = kernel._bind(ctypes.PyDLL(sys.argv[1]))

for n in range(1, 10):
    for walk, pure in ((area_sper, _kernel_py.area_sper_counts), (lda, _kernel_py.lda_counts)):
        counts = walk(n)
        assert sum(counts.values()) == factorial(n)
        assert n > 6 or counts == pure(n)

keys = [10, 20, 30, 40]
for words in 1, 2, 3:
    values = [5, 0, (1 << 64 * words) - 1, 1 << 64 * (words - 1)]
    data = b"".join(v.to_bytes(8 * words, "little") for v in values)
    for offset in 0, 1000:
        want = {k + offset: v for k, v in zip(keys, values) if v}
        assert unpack(data, keys, words, offset, {}) == want
    for args in ((data, keys[:3], words, 0, {}), (data, keys, words, 0, {30: 1}),
                 (data[1:], keys, words, 0, {})):
        try:
            unpack(*args)
        except ValueError:
            continue
        raise AssertionError(args)

def loop(text):
    with mock.patch.object(kernel, "parse_terms", lambda *args: None):
        try:
            return MPoly.from_text(text)._terms
        except (ValueError, OverflowError):
            return None

def check_read(text):
    got = read(text, mpoly._MONOMIAL_KEYS, mpoly._parse_monomial, mpoly._CONSTANT,
               mpoly.DIGITS_MAX)
    assert got is None or got == loop(text), text

rng = random.Random(30)
coefficients = [1, -1, 7, 2**63 - 1, 2**63, -2**63, -2**63 - 1, 10**18, -10**19]
texts = []
for _ in range(100):
    poly = MPoly({tuple(rng.randrange(-3, 12) for _ in range(5)):
                  rng.choice(coefficients + [rng.randrange(-10**30, 10**30)])
                  for _ in range(rng.randrange(9))})
    text = write(poly._terms, mpoly._MONOMIAL_TEXT, mpoly._monomial_text)
    assert text == _kernel_py.format_terms(poly._terms, mpoly._MONOMIAL_TEXT,
                                           mpoly._monomial_text)
    assert read(text, mpoly._MONOMIAL_KEYS, mpoly._parse_monomial, mpoly._CONSTANT,
                mpoly.DIGITS_MAX) == poly._terms
    texts.append(text)
for text in json.loads(sys.argv[2]):
    check_read(text)
for text in texts[:20]:
    for i in range(len(text) + 1):
        check_read(text[:i] + text[i + 1:])
        for c in "9 -*":
            check_read(text[:i] + c + text[i:])
            check_read(text[:i] + c + text[i + 1:])
print("ok")
"""


def _libasan() -> str | None:
    """The path of gcc's AddressSanitizer runtime, or None without cc or the runtime."""
    if shutil.which("cc") is None:
        return None
    path = subprocess.run(["cc", "-print-file-name=libasan.so"], capture_output=True,
                          text=True, check=False).stdout.strip()
    return path if os.path.isabs(path) and os.path.exists(path) else None


_LIBASAN = _libasan()


@pytest.mark.skipif(_LIBASAN is None or not COMPILES,
                    reason="no C compiler, no libasan, or no Python.h")
def test_the_library_runs_clean_under_address_and_undefined_sanitizers(tmp_path):
    """A build of _kernel.c with ASan and UBSan runs a fixed probe of every function without a report.

    UBSan does not recover, so any undefined behaviour ends the probe with
    exit code 1; leak detection is off, since the interpreter leaves objects
    alive at exit, and PYTHONMALLOC=malloc puts every object under ASan.
    """
    library = tmp_path / "kernel.so"
    proc = subprocess.run(
        ["cc", "-shared", "-fPIC", f"-I{kernel._INCLUDE}", "-O1", "-g",
         "-fsanitize=address,undefined", "-fno-sanitize-recover=undefined",
         "-fno-omit-frame-pointer", "-o", str(library), kernel._SOURCE],
        capture_output=True, text=True, timeout=120, check=False)
    assert proc.returncode == 0, proc.stderr
    env = {**os.environ, "LD_PRELOAD": _LIBASAN, "PYTHONMALLOC": "malloc",
           "ASAN_OPTIONS": "detect_leaks=0",
           "PYTHONPATH": str(Path(kernel.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-c", _SANITIZED_PROBE, str(library),
                           json.dumps(EDGE_TEXTS)],
                          env=env, capture_output=True, text=True, timeout=300, check=False)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "ok\n", "")


_PROBE = f"""
from invbargraph import _kernel_py, kernel, recur
assert kernel.area_sper_counts(7) == _kernel_py.area_sper_counts(7)
assert kernel.lda_counts(7) == _kernel_py.lda_counts(7)
ours = [getattr(kernel, name) is getattr(_kernel_py, name) for name in {FUNCTIONS!r}]
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


@pytest.mark.parametrize("cc, headers, stdout, stderr", [
    pytest.param("real", True, "c compiled\n", "", marks=needs_c),
    ("fake", False, "python pure\n", "invbargraph: C kernel unavailable (no Python.h in "
     "{include}); using the pure-Python kernel\n"),
    (None, True, "python pure\n", _NO_CC),
], ids=["True", "no-headers", "False"])
def test_first_import_of_a_fresh_copy(tmp_path, fresh_copy, cc, headers, stdout, stderr):
    """A copy with no built kernel compiles it on import, or falls back to the pure kernel.

    There are two outcomes: the compiled library runs all five functions, or
    the pure kernel does, and one stderr line says why.  Without the
    interpreter's headers (here: the copy looks for them in an empty
    directory) no compiler runs: the `cc` on PATH is then a fake that only
    records that it ran.
    """
    include = tmp_path / "include"
    env = fresh_copy(cc == "real")
    ran = tmp_path / "cc-ran"
    if not headers:
        include.mkdir()
        source = tmp_path / "invbargraph" / "kernel.py"
        text = source.read_text()
        assert text.count('sysconfig.get_path("include")') == 1
        source.write_text(text.replace('sysconfig.get_path("include")', repr(str(include))))
    if cc == "fake":
        fake = tmp_path / "fake-bin" / "cc"
        fake.parent.mkdir()
        fake.write_text(f"#!/bin/sh\n: > {shlex.quote(str(ran))}\nexit 1\n")
        fake.chmod(0o755)
        env["PATH"] = str(fake.parent)
    proc = subprocess.run([sys.executable, "-c", _PROBE], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=120, check=False)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == stdout
    built = list((tmp_path / "invbargraph" / "__pycache__").glob("_kernel-*"))
    assert [p.suffix for p in built] == ([".so"] if cc == "real" else [])
    assert proc.stderr == stderr.format(include=include)
    assert not ran.exists()


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
