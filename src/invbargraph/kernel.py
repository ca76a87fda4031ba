"""Backend selection for the brute-force enumeration kernels.

On import, loads the plain-C walkers of ``_kernel.c`` with ``ctypes`` from
``__pycache__/_kernel-<crc32>.so`` next to this file (the checksum covers the
source and the compiler command), compiling them there first with ``cc`` if
that file is missing.  If anything on that path fails (no compiler, a
directory that cannot be written, a load error), the pure-Python
``_kernel_py`` is used instead, and one line on stderr gives the reason.
``BACKEND`` says which one is active: ``"c"`` or ``"python"``.  Only the
machine decides, and no setting forces either kernel; the pure walkers can
still be called directly from ``_kernel_py``.

Both backends return the same dicts; see ``_kernel_py`` for the conventions.
"""

from __future__ import annotations

import ctypes
import os
import sys
import zlib
from collections.abc import Iterator

from invbargraph import _kernel_py

_HERE = os.path.dirname(os.path.abspath(__file__))
_SOURCE = os.path.join(_HERE, "_kernel.c")
_CACHE = os.path.join(_HERE, "__pycache__")
# -O3: at -O2 gcc's area/sper walk is about 30% slower (n = 11).
_CC = ("cc", "-O3", "-shared", "-fPIC")


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


def _load() -> ctypes.CDLL | None:
    """The compiled kernel, or None if it cannot be built or loaded."""
    try:
        with open(_SOURCE, "rb") as fh:
            # The command is hashed too, so a change of flags rebuilds.
            crc = zlib.crc32(" ".join(_CC).encode(), zlib.crc32(fh.read()))
        target = os.path.join(_CACHE, f"_kernel-{crc:08x}.so")
        if not os.path.exists(target):
            _compile(target)
        lib = ctypes.CDLL(target)
    except OSError as err:
        reason = " ".join(str(err).split())  # compiler output can span lines
        print(f"invbargraph: C kernel unavailable ({reason}); using the pure-Python kernel",
              file=sys.stderr)
        return None
    for fn in (lib.area_sper_counts, lib.lda_counts):
        fn.argtypes = (ctypes.c_int, ctypes.c_int, ctypes.c_int,
                       ctypes.POINTER(ctypes.c_longlong))
        fn.restype = None
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


def _area_sper_counts_c(n: int) -> dict[tuple[int, int, int], int]:
    """{(last, area, sper): multiplicity} over all inversion sequences of length n."""
    _kernel_py._guard(n)
    adim = n * (n + 1) // 2 + 1
    sdim = n + (1 + n * (n - 1) // 2 + n) // 2 + 2
    return {(last, area, sper): c
            for last, area, sper, c in _walk(_lib.area_sper_counts, n, adim, sdim)}


def _lda_counts_c(n: int) -> dict[tuple[int, int, int, int], int]:
    """{(last, levels, descents, ascents): multiplicity} over length-n inversion sequences."""
    _kernel_py._guard(n)
    return {(last, lev, des, n - 1 - lev - des): c
            for last, lev, des, c in _walk(_lib.lda_counts, n, n, n)}


_lib = _load()

MAX_N = _kernel_py.MAX_N

if _lib is None:
    BACKEND = "python"
    area_sper_counts = _kernel_py.area_sper_counts
    lda_counts = _kernel_py.lda_counts
else:
    BACKEND = "c"
    area_sper_counts = _area_sper_counts_c
    lda_counts = _lda_counts_c
