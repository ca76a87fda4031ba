/* Compiled kernels for invbargraph.kernel: the enumeration walkers, the
 * packed-cell unpacker and the polynomial text codec.  The library is built
 * whole or not at all: it includes Python.h, and kernel.py compiles it only
 * where that header is found (else the pure invbargraph._kernel_py runs all
 * five functions).  It is loaded with ctypes.PyDLL, so every call holds the
 * GIL.
 *
 * The walkers, area_sper_counts and lda_counts, walk all n! inversion
 * sequences with an incremental depth-first sweep and tally joint statistic
 * counts into a flat array of long long that the caller allocates zeroed
 * and sizes from n.  They use no Python API: kernel.py checks
 * 1 <= n <= MAX_N and turns the array into the same dicts as _kernel_py.
 * Every sequence is visited; no states are merged, so the walk stays
 * independent of the recurrences it is checked against.
 *
 * unpack_slots (after them) reads a packed table cell (mpoly.Kronecker) into
 * a term dict the caller passes, with the public CPython C API.  A
 * coefficient of one word is one PyLong_FromUnsignedLongLong; a wider one
 * (two or three words for the lda tables from n = 22 and 36, which is 180 k
 * of the 288 k coefficients of b_table_lemma(40)) is written as one hex
 * string and read by one PyLong_FromString, instead of a shift and an or
 * per word.
 *
 * format_terms and parse_terms (after it) write and read the canonical text
 * of an mpoly.MPoly term map, with the same API.  The reader takes exactly
 * the texts _kernel_py.parse_terms takes, into the same term map and with
 * the same calls on its cache.  It gives None exactly where that reference
 * refuses a text itself (MPoly.from_text then calls it for the message),
 * and an error of the monomial parser propagates from both.  It only
 * inserts: a monomial given twice is refused, since the writer never
 * writes one.  Every read is bounded by the text's UTF-8 length, no array
 * is sized at run time on the stack, and the writer's buffer grows with an
 * overflow check.
 */

#include <Python.h>
#include <string.h>

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

/* References are released with Py_DecRef, the function form of Py_XDECREF
 * (NULL is allowed), and None is returned as Py_BuildValue(""), so the
 * library refers to no private (_Py) symbol.  PY_SSIZE_T_CLEAN is left
 * undefined: it would rename Py_BuildValue to a private function, and no
 * format here has a '#'. */

static unsigned long long load_le64(const unsigned char *b)
{
    return (unsigned long long)b[0] | (unsigned long long)b[1] << 8
        | (unsigned long long)b[2] << 16 | (unsigned long long)b[3] << 24
        | (unsigned long long)b[4] << 32 | (unsigned long long)b[5] << 40
        | (unsigned long long)b[6] << 48 | (unsigned long long)b[7] << 56;
}

/* The value of a slot whose highest nonzero word is word top > 0 (of 64
 * bits each, little-endian): its bytes from the top down, written as two hex
 * digits each into `hex` (room for 16 * (top + 1) digits and a NUL), and read
 * back by one PyLong_FromString call.  Leading zero digits are left out,
 * since the int is allocated for every digit of the string: with them, the
 * lda table at n = 40 held about 1 MB more. */
static PyObject *slot_value(const unsigned char *slot, int top, char *hex)
{
    static const char digits[] = "0123456789abcdef";
    const unsigned char *byte = slot + 8 * top + 7;
    char *out = hex;

    while (!*byte)
        byte--;
    if (*byte < 16)
        *out++ = digits[*byte--];
    for (; byte >= slot; byte--) {
        *out++ = digits[*byte >> 4];
        *out++ = digits[*byte & 15];
    }
    *out = '\0';
    return PyLong_FromString(hex, NULL, 16);
}

/* Adds {keys[i] + offset: c_i} to the dict `terms` over the slots i whose
 * value c_i is nonzero, and returns `terms`.  `data` holds the slots as
 * bytes, each of `words` little-endian 64-bit words; `keys` is a list with
 * at least one key per slot, checked here; `offset` is an int added to every
 * key; when it is 0 the dict shares the list's key objects.  Every key must
 * be new to `terms`: a key is new exactly when the dict's size grows by
 * one, and otherwise (the value is overwritten then) a ValueError counts
 * those that were not. */
PyObject *unpack_slots(PyObject *data, PyObject *keys, int words, PyObject *offset,
                       PyObject *terms)
{
    char *buf, *hex = NULL;
    Py_ssize_t size, nslots, nkeys, i, stride, before, added = 0;
    PyObject *key, *value;
    const unsigned char *slot;
    int top, ok, shifted;

    if (PyBytes_AsStringAndSize(data, &buf, &size) < 0)
        return NULL;
    if (!PyList_Check(keys) || !PyDict_Check(terms)) {
        PyErr_SetString(PyExc_TypeError, "keys must be a list and terms a dict");
        return NULL;
    }
    /* the bound on words keeps the hex buffer's 16 * words + 1 bytes in range
     * (a size_t comparison: where Py_ssize_t is wider than int it cannot fail) */
    if (words < 1 || (size_t)words > (size_t)PY_SSIZE_T_MAX / 16
        || size % (8 * (Py_ssize_t)words)) {
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
    if ((shifted = PyObject_IsTrue(offset)) < 0)
        return NULL;
    if (words > 1 && nslots && !(hex = PyMem_Malloc(2 * stride + 1)))
        return PyErr_NoMemory();
    before = PyDict_Size(terms);
    for (i = 0; i < nslots; i++) {
        slot = (const unsigned char *)buf + stride * i;
        for (top = words - 1; top >= 0 && !load_le64(slot + 8 * top); top--)
            ;
        if (top < 0)
            continue;
        if (!(value = top ? slot_value(slot, top, hex)
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
        added++;
    }
    PyMem_Free(hex);
    if (PyDict_Size(terms) != before + added) {
        PyErr_Format(PyExc_ValueError, "%zd of %zd keys are already in the term map",
                     before + added - PyDict_Size(terms), added);
        return NULL;
    }
    Py_IncRef(terms);
    return terms;
fail:
    PyMem_Free(hex);
    return NULL;
}

/* The canonical text form of mpoly.MPoly, written and read in one pass.
 *
 * format_terms writes the text of a term map, keys sorted; parse_terms
 * reads back a text in exactly the form the writer gives and returns None
 * for any other.  A digit run the reader converts itself is at most
 * LL_DIGITS long, so it fits a long long; a longer one is copied to the
 * heap and read by PyLong_FromString. */
#define LL_DIGITS 18

/* A growable output buffer; `cap` bytes at `data`, `len` of them used. */
struct text_buf {
    char *data;
    size_t len, cap;
};

/* Room for `more` bytes after the used ones, doubling the capacity; -1 with
 * MemoryError set if the text would not fit in memory or in a Py_ssize_t. */
static int buf_reserve(struct text_buf *b, size_t more)
{
    size_t need, cap;
    char *data;

    if (more <= b->cap - b->len)
        return 0;
    if (more > (size_t)PY_SSIZE_T_MAX - b->len) {
        PyErr_NoMemory();
        return -1;
    }
    need = b->len + more;
    for (cap = b->cap ? b->cap : 256; cap < need; )
        cap = cap <= (size_t)PY_SSIZE_T_MAX / 2 ? 2 * cap : (size_t)PY_SSIZE_T_MAX;
    if (!(data = PyMem_Realloc(b->data, cap))) {
        PyErr_NoMemory();
        return -1;
    }
    b->data = data;
    b->cap = cap;
    return 0;
}

/* Appends the `n` bytes at `src`.  Nothing is done for n = 0: the first
 * term's empty sign comes before any buffer exists, and memcpy to NULL is
 * undefined even for no bytes. */
static int buf_add(struct text_buf *b, const char *src, size_t n)
{
    if (!n)
        return 0;
    if (buf_reserve(b, n) < 0)
        return -1;
    memcpy(b->data + b->len, src, n);
    b->len += n;
    return 0;
}

/* Appends one term: its sign (" + " or " - ", "" or "-" for the first),
 * then the coefficient's absolute value `a` (of `alen` digits) and the
 * monomial text `mono` as MPoly.to_text writes them: a alone for the
 * constant, the monomial alone for a = 1, "a*monomial" otherwise. */
static int add_term(struct text_buf *b, int first, int negative, const char *a,
                    size_t alen, const char *mono, size_t mlen)
{
    const char *sign = first ? (negative ? "-" : "") : (negative ? " - " : " + ");

    if (buf_add(b, sign, strlen(sign)) < 0)
        return -1;
    if (!mlen)
        return buf_add(b, a, alen);
    if (!(alen == 1 && a[0] == '1'))
        if (buf_add(b, a, alen) < 0 || buf_add(b, "*", 1) < 0)
            return -1;
    return buf_add(b, mono, mlen);
}

/* The canonical text of the term dict `terms` (packed key -> nonzero int),
 * terms in ascending key order: the str that _kernel_py.format_terms
 * returns, byte for byte.  The monomial text of a key is read from the dict
 * `texts`, or on a miss from monomial_text(key), which fills that cache. */
PyObject *format_terms(PyObject *terms, PyObject *texts, PyObject *monomial_text)
{
    struct text_buf b = {NULL, 0, 0};
    PyObject *keys, *key, *mono, *coeff, *digits = NULL, *out = NULL;
    Py_ssize_t i, nkeys, mlen, dlen;
    const char *mtext, *a;
    char small[24], *w;
    unsigned long long u;
    long long v;
    int overflow, negative, ok;

    if (!PyDict_Check(terms) || !PyDict_Check(texts)) {
        PyErr_SetString(PyExc_TypeError, "terms and texts must be dicts");
        return NULL;
    }
    if (!PyDict_Size(terms))
        return PyUnicode_FromString("0");
    if (!(keys = PyDict_Keys(terms)) || PyList_Sort(keys) < 0)
        goto done;
    nkeys = PyList_Size(keys);
    for (i = 0; i < nkeys; i++) {
        key = PyList_GetItem(keys, i);
        if ((mono = PyDict_GetItemWithError(texts, key)))
            Py_IncRef(mono);
        else if (PyErr_Occurred()
                 || !(mono = PyObject_CallFunctionObjArgs(monomial_text, key, NULL)))
            goto done;
        if (!(mtext = PyUnicode_AsUTF8AndSize(mono, &mlen))) {
            Py_DecRef(mono);
            goto done;
        }
        if (!(coeff = PyDict_GetItemWithError(terms, key))) {
            if (!PyErr_Occurred())
                PyErr_SetString(PyExc_RuntimeError, "the term map changed while written");
            Py_DecRef(mono);
            goto done;
        }
        v = PyLong_AsLongLongAndOverflow(coeff, &overflow);
        if (v == -1 && PyErr_Occurred()) {
            Py_DecRef(mono);
            goto done;
        }
        if (!overflow) {  /* one conversion of |v| into the end of `small` */
            negative = v <= 0;
            u = negative ? 0ULL - (unsigned long long)v : (unsigned long long)v;
            w = small + sizeof small;
            do {
                *--w = (char)('0' + u % 10);
                u /= 10;
            } while (u);
            a = w;
            dlen = small + sizeof small - w;
        } else {  /* beyond a long long: str(coeff), without its minus */
            negative = overflow < 0;
            if (!(digits = PyObject_Str(coeff)) || !(a = PyUnicode_AsUTF8AndSize(digits, &dlen))) {
                Py_DecRef(mono);
                goto done;
            }
            a += negative;
            dlen -= negative;
        }
        ok = add_term(&b, i == 0, negative, a, (size_t)dlen, mtext, (size_t)mlen) == 0;
        Py_DecRef(digits);
        digits = NULL;
        Py_DecRef(mono);
        if (!ok)
            goto done;
    }
    out = PyUnicode_FromStringAndSize(b.data, (Py_ssize_t)b.len);
done:
    Py_DecRef(keys);
    PyMem_Free(b.data);
    return out;
}

/* The end of the term that starts at `p`: the first byte from `p` on that is
 * not printable ASCII other than space. */
static const unsigned char *term_end(const unsigned char *p, const unsigned char *end)
{
    while (p < end && *p > ' ' && *p < 0x7f)
        p++;
    return p;
}

/* Whether the `len` bytes at `s` are in the writer's form: terms of
 * printable ASCII without spaces, joined by " + " or " - ", the first led by
 * at most one "-". */
static int writer_form(const unsigned char *s, Py_ssize_t len)
{
    const unsigned char *end = s + len, *p = s, *q;

    if (p < end && *p == '-')
        p++;
    for (;;) {
        q = term_end(p, end);
        if (q == p)
            return 0;
        if (q == end)
            return 1;
        if (end - q < 4 || q[0] != ' ' || (q[1] != '+' && q[1] != '-') || q[2] != ' ')
            return 0;
        p = q + 3;
    }
}

/* The signed value of the ASCII digit run at `p` (`n` > 0 digits) as a new
 * int, or NULL with the error set.  A run of up to LL_DIGITS digits is
 * converted here; a longer one is copied, NUL-ended and after a '-' when
 * negative, to the heap, and read as int() would read it. */
static PyObject *digit_run(const unsigned char *p, Py_ssize_t n, int sign)
{
    PyObject *value;
    long long v = 0;
    char *copy;
    Py_ssize_t i;

    if (n <= LL_DIGITS) {
        for (i = 0; i < n; i++)
            v = 10 * v + (p[i] - '0');
        return PyLong_FromLongLong(sign * v);
    }
    if (!(copy = PyMem_Malloc((size_t)n + 2)))
        return PyErr_NoMemory();
    copy[0] = '-';
    memcpy(copy + 1, p, (size_t)n);
    copy[n + 1] = '\0';
    value = PyLong_FromString(copy + (sign > 0), NULL, 10);
    PyMem_Free(copy);
    return value;
}

/* The term dict {packed key: coefficient} of `text` if it is in the
 * writer's form (see writer_form), or None.  Each term is digits,
 * digits*body or body.  A body is looked up in the dict `bodies`; on a miss,
 * parse_monomial(rest, body, text) gives its key and fills that cache.  A
 * digit-only term is the monomial `zero_key` with its digits as
 * coefficient.  A term of coefficient 0 adds nothing; any other is
 * inserted, and the text refused if its monomial is already in the map.
 * None is also returned for a digit run longer than `digits_max` and for a
 * text that is not a str or has no UTF-8 form.  _kernel_py.parse_terms
 * raises exactly there (a ValueError naming the fault, or a TypeError for
 * a text that is not a str), after the same parse_monomial calls, so the
 * cache ends the same.  Any other error,
 * parse_monomial's included, propagates: both readers raise it from the
 * same call. */
PyObject *parse_terms(PyObject *text, PyObject *bodies, PyObject *parse_monomial,
                      PyObject *zero_key, PyObject *digits_max)
{
    const unsigned char *s, *end, *p, *q, *star;
    PyObject *terms = NULL, *rest = NULL, *body = NULL, *key = NULL, *coeff = NULL;
    Py_ssize_t len, limit, nhead, size;
    int sign = 1, nonzero;

    if (!PyUnicode_Check(text))
        return Py_BuildValue("");
    if (!PyDict_Check(bodies)) {
        PyErr_SetString(PyExc_TypeError, "bodies must be a dict");
        return NULL;
    }
    if ((limit = PyLong_AsSsize_t(digits_max)) == -1 && PyErr_Occurred())
        return NULL;
    s = (const unsigned char *)PyUnicode_AsUTF8AndSize(text, &len);
    if (!s)  /* a lone surrogate, say: not the writer's form either */
        PyErr_Clear();
    /* the whole form is checked before any term is read, so that the cache
     * sees only the calls the reference makes on the same text */
    if (!s || !writer_form(s, len))
        return Py_BuildValue("");
    if (!(terms = PyDict_New()))
        return NULL;
    end = s + len;
    p = s;
    if (*p == '-') {
        sign = -1;
        p++;
    }
    for (;;) {
        q = term_end(p, end);
        for (star = p; star < q && *star >= '0' && *star <= '9'; star++)
            ;
        nhead = star - p;
        if (nhead && (star == q || *star == '*')) {  /* a leading coefficient */
            if (nhead > limit)
                goto refuse;
            if (!(coeff = digit_run(p, nhead, sign)))
                goto fail;
            if (star == q) {
                key = zero_key;
                Py_IncRef(key);
            } else {
                star++;
            }
        } else {
            if (!(coeff = PyLong_FromLong(sign)))
                goto fail;
            star = p;
        }
        if (!key) {
            if (!(rest = PyUnicode_FromStringAndSize((const char *)star, q - star)))
                goto fail;
            if ((key = PyDict_GetItemWithError(bodies, rest)))
                Py_IncRef(key);
            else if (PyErr_Occurred()
                     || !(body = PyUnicode_FromStringAndSize((const char *)p, q - p))
                     || !(key = PyObject_CallFunctionObjArgs(parse_monomial, rest, body, text,
                                                             NULL)))
                goto fail;
        }
        if ((nonzero = PyObject_IsTrue(coeff)) < 0)
            goto fail;
        if (nonzero) {  /* a key is new exactly when the map grows */
            size = PyDict_Size(terms);
            if (PyDict_SetItem(terms, key, coeff) < 0)
                goto fail;
            if (PyDict_Size(terms) == size)
                goto refuse;
        }
        Py_DecRef(key);
        Py_DecRef(coeff);
        Py_DecRef(rest);
        Py_DecRef(body);
        key = coeff = rest = body = NULL;
        if (q == end)
            break;
        sign = q[1] == '+' ? 1 : -1;
        p = q + 3;
    }
    return terms;
refuse:
    Py_DecRef(terms);
    terms = Py_BuildValue("");
    goto done;
fail:
    Py_DecRef(terms);
    terms = NULL;
done:
    Py_DecRef(key);
    Py_DecRef(coeff);
    Py_DecRef(rest);
    Py_DecRef(body);
    return terms;
}
