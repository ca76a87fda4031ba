"""Backend selection for the brute-force enumeration kernels, cell unpacking and table text.

On import, loads the compiled ``_kernel.c`` with ``ctypes`` from
``__pycache__/_kernel-<crc32>.so`` next to this file (the checksum covers the
source and the compiler command), compiling it there first with ``cc`` if
that file is missing.  The command includes the running interpreter's header
directory, so each interpreter gets its own library.  The library includes
that directory's ``Python.h``, so it is built whole or not at all.  If
anything on that path fails (no ``Python.h``, which is checked before any
compiler runs; no compiler; a directory that cannot be written; a load
error), the pure-Python ``_kernel_py`` runs all five functions instead, and
one line on stderr gives the reason.  ``BACKEND`` says which implementation
runs them: ``"c"`` or ``"python"``.  Only the machine decides, and no
setting forces either kernel; the pure functions can still be called
directly from ``_kernel_py``.

The five are the walkers ``area_sper_counts`` and ``lda_counts``;
``unpack_slots``, which reads a packed table cell into its term map for
``mpoly.Kronecker.unpack``; and the text codec of ``mpoly.MPoly``:
``format_terms`` writes a term map's canonical text (``to_text``), and
``parse_terms`` reads a text in exactly that form back into a term map, or
gives None for any other text, which ``from_text`` then reads with its own
loop.  The last three use the Python C API.  The library is reached through
one ``ctypes.PyDLL`` handle, so every call, the walks included, holds the
GIL; ``_bind`` declares the types of all five.

Both backends return the same values; see ``_kernel_py`` for the conventions.
"""

from __future__ import annotations

import ctypes
import os
import sys
import sysconfig
import zlib
from collections.abc import Callable, Iterator

from invbargraph import _kernel_py

_HERE = os.path.dirname(os.path.abspath(__file__))
_SOURCE = os.path.join(_HERE, "_kernel.c")
_CACHE = os.path.join(_HERE, "__pycache__")
_INCLUDE = sysconfig.get_path("include")
# -O3: at -O2 gcc's area/sper walk is about 30% slower (n = 11).
_CC = ("cc", "-O3", "-shared", "-fPIC", f"-I{_INCLUDE}")


def _compile(target: str) -> None:
    """Build the shared library at ``target``, atomically: readers never see a partial file."""
    import subprocess
    import tempfile

    if not os.path.exists(os.path.join(_INCLUDE, "Python.h")):
        raise OSError(f"no Python.h in {_INCLUDE}")
    os.makedirs(_CACHE, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix="_kernel-", suffix=".so.tmp", dir=_CACHE)
    os.close(fd)
    try:
        proc = subprocess.run([*_CC, "-o", tmp, _SOURCE],
                              capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            raise OSError(f"cc exited with code {proc.returncode}: {proc.stderr.strip()}")
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _remove_other_libraries(target: str) -> None:
    """Delete every library in the cache but `target`, which this process built and loaded.

    Each edit of the source or change of the command leaves a library under
    another checksum, so without this a checkout collects them.  Removal is
    best effort: a file that cannot be removed stays, and the import goes on.
    Another interpreter sharing the directory builds its own library (the
    command holds its header directory), so two of them take turns
    rebuilding.
    """
    try:
        names = os.listdir(_CACHE)
    except OSError:
        return
    for name in names:
        path = os.path.join(_CACHE, name)
        if name.startswith("_kernel-") and name.endswith(".so") and path != target:
            try:
                os.remove(path)
            except OSError:
                pass


def _load() -> ctypes.PyDLL | None:
    """The compiled library, or None if it could not be built or loaded."""
    try:
        with open(_SOURCE, "rb") as fh:
            # The command is hashed too, so a change of flags rebuilds.
            crc = zlib.crc32(" ".join(_CC).encode(), zlib.crc32(fh.read()))
        target = os.path.join(_CACHE, f"_kernel-{crc:08x}.so")
        built = not os.path.exists(target)
        if built:
            _compile(target)
        lib = ctypes.PyDLL(target)
    except OSError as err:
        reason = " ".join(str(err).split())  # compiler output can span lines
        print(f"invbargraph: C kernel unavailable ({reason}); using the pure-Python kernel",
              file=sys.stderr)
        return None
    if built:
        _remove_other_libraries(target)
    return lib


def _walk(walker, n: int, dim1: int, dim2: int) -> Iterator[tuple[int, int, int, int]]:
    """Run a C walker into a fresh zeroed array of shape (n + 1, dim1, dim2).

    Yields (last, i1, i2, count) for every nonzero cell.  The caller checks
    n first: the walkers trust it.
    """
    counts = (ctypes.c_longlong * ((n + 1) * dim1 * dim2))()
    walker(n, dim1, dim2, counts)
    plane = dim1 * dim2
    for idx, c in enumerate(memoryview(counts).cast("B").cast("q")):
        if c:
            last, rest = divmod(idx, plane)
            yield last, *divmod(rest, dim2), c


def _bind(lib: ctypes.PyDLL) -> tuple[Callable[..., object], ...]:
    """The five functions of a loaded library, with their argument and result types set.

    Returns (area_sper_counts, lda_counts, unpack_slots, format_terms,
    parse_terms); the walkers are wrapped to return the count dicts of
    ``_kernel_py`` and check n first, since the C walkers trust it.
    """
    for walker in (lib.area_sper_counts, lib.lda_counts):
        walker.argtypes = (ctypes.c_int, ctypes.c_int, ctypes.c_int,
                           ctypes.POINTER(ctypes.c_longlong))
        walker.restype = None
    obj = ctypes.py_object
    for fn, argtypes in ((lib.unpack_slots, (obj, obj, ctypes.c_int, obj, obj)),
                         (lib.format_terms, (obj, obj, obj)),
                         (lib.parse_terms, (obj, obj, obj, obj, obj))):
        fn.argtypes = argtypes
        fn.restype = obj

    def area_sper_counts(n: int) -> dict[tuple[int, int, int], int]:
        """{(last, area, sper): multiplicity} over all inversion sequences of length n."""
        _kernel_py._guard(n)
        # the walker writes only inside this box; it gets one sper slot more
        area_max, sper_slots = _kernel_py.area_sper_box(n)
        return {(last, area, sper): c
                for last, area, sper, c in _walk(lib.area_sper_counts, n, area_max + 1,
                                                 sper_slots + 1)}

    def lda_counts(n: int) -> dict[tuple[int, int, int, int], int]:
        """{(last, levels, descents, ascents): multiplicity} over length-n inversion sequences."""
        _kernel_py._guard(n)
        return {(last, lev, des, n - 1 - lev - des): c
                for last, lev, des, c in _walk(lib.lda_counts, n, n, n)}

    return area_sper_counts, lda_counts, lib.unpack_slots, lib.format_terms, lib.parse_terms


_lib = _load()

MAX_N = _kernel_py.MAX_N

if _lib is None:
    BACKEND = "python"
    area_sper_counts, lda_counts = _kernel_py.area_sper_counts, _kernel_py.lda_counts
    unpack_slots, format_terms = _kernel_py.unpack_slots, _kernel_py.format_terms
    parse_terms = _kernel_py.parse_terms
else:
    BACKEND = "c"
    area_sper_counts, lda_counts, unpack_slots, format_terms, parse_terms = _bind(_lib)
