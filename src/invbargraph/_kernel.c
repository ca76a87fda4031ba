/* Compiled enumeration kernels for invbargraph.kernel.
 *
 * Walks all n! inversion sequences with an incremental depth-first sweep and
 * tallies joint statistic counts into a flat array of long long that the
 * caller allocates zeroed and sizes from n.  The walkers use no Python API:
 * the module is loaded with ctypes, and kernel.py checks 1 <= n <= MAX_N and
 * turns the array into the same dicts as invbargraph._kernel_py.  Every
 * sequence is visited; no states are merged, so the walk stays independent
 * of the recurrences it is checked against.
 *
 * One more function, unpack_slots (at the end), reads a packed table cell
 * (mpoly.Kronecker) into its term dict.  It uses the public CPython C API,
 * is called through ctypes.PyDLL (so with the GIL held) and is compiled only
 * where the interpreter's headers are found.
 */

/* counts[(last * adim + area) * sdim + sper], where
 * boundary = rho_1 + sum_{2<=j<=i} |rho_j - rho_{j-1}|. */
static void walk_area_sper(int i, int n, int prev, int area, int boundary,
                           long long *counts, int adim, int sdim)
{
    int v, d, nxt = i + 1;
    if (nxt == n) {
        for (v = 1; v <= n; v++) {
            d = v >= prev ? v - prev : prev - v;
            counts[(v * adim + area + v) * sdim + n + (boundary + d + v) / 2] += 1;
        }
    } else {
        for (v = 1; v <= nxt; v++) {
            d = v >= prev ? v - prev : prev - v;
            walk_area_sper(nxt, n, v, area + v, boundary + d, counts, adim, sdim);
        }
    }
}

/* counts[(last * ldim + levels) * ddim + descents]; ascents are implied,
 * n - 1 - levels - descents. */
static void walk_lda(int i, int n, int prev, int lev, int des,
                     long long *counts, int ldim, int ddim)
{
    int v, nxt = i + 1;
    if (nxt == n) {
        for (v = 1; v <= n; v++) {
            if (v == prev)
                counts[(v * ldim + lev + 1) * ddim + des] += 1;
            else if (v < prev)
                counts[(v * ldim + lev) * ddim + des + 1] += 1;
            else
                counts[(v * ldim + lev) * ddim + des] += 1;
        }
    } else {
        for (v = 1; v <= nxt; v++) {
            if (v == prev)
                walk_lda(nxt, n, v, lev + 1, des, counts, ldim, ddim);
            else if (v < prev)
                walk_lda(nxt, n, v, lev, des + 1, counts, ldim, ddim);
            else
                walk_lda(nxt, n, v, lev, des, counts, ldim, ddim);
        }
    }
}

void area_sper_counts(int n, int adim, int sdim, long long *counts)
{
    if (n == 1)
        counts[(1 * adim + 1) * sdim + 2] = 1;
    else
        walk_area_sper(1, n, 1, 1, 1, counts, adim, sdim);
}

void lda_counts(int n, int ldim, int ddim, long long *counts)
{
    if (n == 1)
        counts[(1 * ldim + 0) * ddim + 0] = 1;
    else
        walk_lda(1, n, 1, 0, 0, counts, ldim, ddim);
}

#if defined(__has_include)
#if __has_include(<Python.h>)
#define PY_SSIZE_T_CLEAN
#include <Python.h>

/* References are released with Py_DecRef, the function form of Py_XDECREF
 * (NULL is allowed), so the library refers to no private (_Py) symbol. */

static unsigned long long load_le64(const unsigned char *b)
{
    return (unsigned long long)b[0] | (unsigned long long)b[1] << 8
        | (unsigned long long)b[2] << 16 | (unsigned long long)b[3] << 24
        | (unsigned long long)b[4] << 32 | (unsigned long long)b[5] << 40
        | (unsigned long long)b[6] << 48 | (unsigned long long)b[7] << 56;
}

/* The value of a slot whose highest nonzero word is word top > 0 (of 64
 * bits each, little-endian): shifts and ors of 64-bit ints. */
static PyObject *slot_value(const unsigned char *slot, int top)
{
    PyObject *value = PyLong_FromUnsignedLongLong(load_le64(slot + 8 * top));
    PyObject *shift = PyLong_FromLong(64), *next, *word;
    int j;

    if (!shift) {
        Py_DecRef(value);
        return NULL;
    }
    for (j = top - 1; j >= 0 && value; j--) {
        next = PyNumber_Lshift(value, shift);
        Py_DecRef(value);
        word = next ? PyLong_FromUnsignedLongLong(load_le64(slot + 8 * j)) : NULL;
        value = word ? PyNumber_Or(next, word) : NULL;
        Py_DecRef(next);
        Py_DecRef(word);
    }
    Py_DecRef(shift);
    return value;
}

/* {keys[i] + offset: c_i} over the slots i whose value c_i is nonzero.
 * `data` holds the slots as bytes, each of `words` little-endian 64-bit
 * words; `keys` is a list with at least one key per slot, checked here;
 * `offset` is an int added to every key; when it is 0 the dict shares the
 * list's key objects. */
PyObject *unpack_slots(PyObject *data, PyObject *keys, int words, PyObject *offset)
{
    char *buf;
    Py_ssize_t size, nslots, nkeys, i, stride;
    PyObject *terms, *key, *value;
    const unsigned char *slot;
    int top, ok, shifted;

    if (PyBytes_AsStringAndSize(data, &buf, &size) < 0)
        return NULL;
    if (!PyList_Check(keys)) {
        PyErr_SetString(PyExc_TypeError, "keys must be a list");
        return NULL;
    }
    if (words < 1 || size % (8 * (Py_ssize_t)words)) {
        PyErr_Format(PyExc_ValueError, "%zd bytes are not whole slots of %d words",
                     size, words);
        return NULL;
    }
    stride = 8 * (Py_ssize_t)words;
    nslots = size / stride;
    nkeys = PyList_Size(keys);
    if (nslots > nkeys) {
        PyErr_Format(PyExc_ValueError, "%zd slots but only %zd keys", nslots, nkeys);
        return NULL;
    }
    if ((shifted = PyObject_IsTrue(offset)) < 0 || !(terms = PyDict_New()))
        return NULL;
    for (i = 0; i < nslots; i++) {
        slot = (const unsigned char *)buf + stride * i;
        for (top = words - 1; top >= 0 && !load_le64(slot + 8 * top); top--)
            ;
        if (top < 0)
            continue;
        if (!(value = top ? slot_value(slot, top)
                          : PyLong_FromUnsignedLongLong(load_le64(slot))))
            goto fail;
        key = PyList_GetItem(keys, i);
        if (shifted && !(key = PyNumber_Add(key, offset))) {
            Py_DecRef(value);
            goto fail;
        }
        ok = PyDict_SetItem(terms, key, value) == 0;
        if (shifted)
            Py_DecRef(key);
        Py_DecRef(value);
        if (!ok)
            goto fail;
    }
    return terms;
fail:
    Py_DecRef(terms);
    return NULL;
}
#endif
#endif
