"""Backend selection for the brute-force enumeration kernels, cell unpacking and table text.

On import, loads the plain-C walkers of ``_kernel.c`` with ``ctypes`` from
``__pycache__/_kernel-<crc32>.so`` next to this file (the checksum covers the
source and the compiler command), compiling them there first with ``cc`` if
that file is missing.  The command includes the running interpreter's header
directory, so each interpreter gets its own library.  If anything on that
path fails (no compiler, a directory that cannot be written, a load error),
the pure-Python ``_kernel_py`` is used instead, and one line on stderr gives
the reason.  ``BACKEND`` says which walkers are active: ``"c"`` or
``"python"``.  Only the machine decides, and no setting forces either kernel;
the pure functions can still be called directly from ``_kernel_py``.

The same library holds three functions on Python objects: ``unpack_slots``,
which reads a packed table cell into its term map for
``mpoly.Kronecker.unpack``, and the text codec of ``mpoly.MPoly``:
``format_terms`` writes a term map's canonical text (``to_text``), and
``parse_terms`` reads a text in exactly that form back into a term map, or
gives None for any other text, which ``from_text`` then reads with its own
loop.  They use the Python C API, so they are reached through a
``ctypes.PyDLL`` handle (the GIL stays held) and are compiled only where the
interpreter's headers are found; without them the compiled walkers stay,
``_kernel_py`` unpacks and writes, ``from_text``'s loop reads every text, and
one stderr line says so.

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


def _load() -> tuple[ctypes.CDLL | None, ctypes.PyDLL | None]:
    """The compiled walkers, and the functions on Python objects: each None if not loaded."""
    try:
        with open(_SOURCE, "rb") as fh:
            # The command and whether the headers are there are hashed too,
            # so a change of flags or headers rebuilds.
            key = f"{' '.join(_CC)} {os.path.exists(os.path.join(_INCLUDE, 'Python.h'))}"
            crc = zlib.crc32(key.encode(), zlib.crc32(fh.read()))
        target = os.path.join(_CACHE, f"_kernel-{crc:08x}.so")
        built = not os.path.exists(target)
        if built:
            _compile(target)
        lib = ctypes.CDLL(target)
    except OSError as err:
        reason = " ".join(str(err).split())  # compiler output can span lines
        print(f"invbargraph: C kernel unavailable ({reason}); using the pure-Python kernel",
              file=sys.stderr)
        return None, None
    if built:
        _remove_other_libraries(target)
    for fn in (lib.area_sper_counts, lib.lda_counts):
        fn.argtypes = (ctypes.c_int, ctypes.c_int, ctypes.c_int,
                       ctypes.POINTER(ctypes.c_longlong))
        fn.restype = None
    pylib = ctypes.PyDLL(target)
    if not hasattr(pylib, "unpack_slots"):  # built without Python.h
        print(f"invbargraph: compiled unpacking and text codec unavailable (no Python.h in "
              f"{_INCLUDE}); using the C walkers and the pure-Python unpacking and text",
              file=sys.stderr)
        return lib, None
    return lib, pylib


def _on_objects(name: str, *argtypes) -> Callable[..., object]:
    """The function `name` of the library, called with the GIL held and returning an object."""
    fn = getattr(_pylib, name)
    fn.argtypes = argtypes
    fn.restype = ctypes.py_object
    return fn


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


def _area_sper_counts_c(n: int) -> dict[tuple[int, int, int], int]:
    """{(last, area, sper): multiplicity} over all inversion sequences of length n."""
    _kernel_py._guard(n)
    # the walker writes only inside this box; it gets one sper slot more
    area_max, sper_slots = _kernel_py.area_sper_box(n)
    return {(last, area, sper): c
            for last, area, sper, c in _walk(_lib.area_sper_counts, n, area_max + 1,
                                             sper_slots + 1)}


def _lda_counts_c(n: int) -> dict[tuple[int, int, int, int], int]:
    """{(last, levels, descents, ascents): multiplicity} over length-n inversion sequences."""
    _kernel_py._guard(n)
    return {(last, lev, des, n - 1 - lev - des): c
            for last, lev, des, c in _walk(_lib.lda_counts, n, n, n)}


_lib, _pylib = _load()

MAX_N = _kernel_py.MAX_N

if _lib is None:
    BACKEND = "python"
    area_sper_counts = _kernel_py.area_sper_counts
    lda_counts = _kernel_py.lda_counts
else:
    BACKEND = "c"
    area_sper_counts = _area_sper_counts_c
    lda_counts = _lda_counts_c
if _pylib is None:
    unpack_slots = _kernel_py.unpack_slots
    format_terms = _kernel_py.format_terms
    parse_terms = _kernel_py.parse_terms
else:
    _OBJ = ctypes.py_object
    unpack_slots = _on_objects("unpack_slots", _OBJ, _OBJ, ctypes.c_int, _OBJ, _OBJ)
    format_terms = _on_objects("format_terms", _OBJ, _OBJ, _OBJ)
    parse_terms = _on_objects("parse_terms", _OBJ, _OBJ, _OBJ, _OBJ, _OBJ)
