/* Compiled fiber-walk kernel: the same results as `pure`, byte for byte.

   Tables are bytes objects with one byte per cell.  pack_moves flattens the
   negative and positive part of each move into one C array of (cell, count)
   entries.  Applying a move checks the part it removes, copies the table into
   a new bytes object and edits a few bytes, so neighbour generation never
   touches a Python integer.

   A move can apply only to a table that is nonzero on every cell it subtracts
   from, so pack_moves also files each forward and each directed move under the
   smallest such cell (per-cell CSR offsets; a move that subtracts nothing goes
   in a last bucket that every table tries).  A scan marks the buckets of the
   table's nonzero cells in a bitmap over the directed moves and applies the
   marked moves lowest first: the results are those of trying every move, in
   the same order.

   pack_moves rejects negative cells, and every call rejects a table shorter
   than the largest packed cell + 1, so no move reads or writes outside its
   table.  Moves keep the degree and engine.pack_table caps it at 255, so no
   cell leaves 0..255.

   Build in a checkout with `python setup.py build_ext --inplace`.
*/

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>

typedef struct {
    Py_ssize_t cell;
    long count;
} Entry;

/* Directed moves d filed by the smallest cell their part d subtracts from:
   bucket c is ids[start[c]:start[c + 1]] for c <= max_cell, and bucket
   max_cell + 1 holds the moves that subtract nothing.  Each bucket is
   ascending. */
typedef struct {
    Py_ssize_t *start;
    Py_ssize_t *ids;
} Index;

/* Part 2k is the negative part of move k, part 2k + 1 its positive part;
   part j is entries[off[j]:off[j + 1]].  Directed move d removes part d and
   adds part d ^ 1, so `forward` indexes the even d and `directed` all d. */
typedef struct {
    PyObject_HEAD
    Py_ssize_t n_moves;
    Py_ssize_t max_cell; /* -1 when no move has a cell */
    Py_ssize_t *off;
    Entry *entries;
    Index forward, directed;
} PackedMoves;

static void
PackedMoves_dealloc(PackedMoves *pm)
{
    PyMem_Free(pm->off);
    PyMem_Free(pm->entries);
    PyMem_Free(pm->forward.start);
    PyMem_Free(pm->forward.ids);
    PyMem_Free(pm->directed.start);
    PyMem_Free(pm->directed.ids);
    PyObject_Free(pm);
}

static Py_ssize_t
PackedMoves_len(PackedMoves *pm)
{
    return pm->n_moves;
}

static PySequenceMethods PackedMoves_as_sequence = {
    .sq_length = (lenfunc)PackedMoves_len,
};

static PyTypeObject PackedMovesType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "fiberwalk._kernel._fast.PackedMoves",
    .tp_basicsize = sizeof(PackedMoves),
    .tp_dealloc = (destructor)PackedMoves_dealloc,
    .tp_as_sequence = &PackedMoves_as_sequence,
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_doc = "Moves flattened to (cell, count) arrays; len() is the number of moves.",
};

/* Part j of the moves as a tuple (new reference): the negative part of move
   j / 2 when j is even, its positive part when j is odd.  Tuples cannot change
   size while the entries are parsed, so the precounted arrays stay large
   enough. */
static PyObject *
move_part(PyObject *moves, Py_ssize_t j)
{
    PyObject *move, *minus, *plus, *part = NULL;

    move = PySequence_Tuple(PyTuple_GET_ITEM(moves, j / 2));
    if (move != NULL
        && PyArg_ParseTuple(move, "OO;a move must be a (minus, plus) pair", &minus, &plus))
        part = PySequence_Tuple(j % 2 ? plus : minus);
    Py_XDECREF(move);
    return part;
}

/* The bucket of directed move d: the smallest cell part d subtracts from,
   or max_cell + 1 when it subtracts from none. */
static Py_ssize_t
bucket_of(const PackedMoves *pm, Py_ssize_t d)
{
    Py_ssize_t key = pm->max_cell + 1;
    const Entry *e;

    for (e = pm->entries + pm->off[d]; e < pm->entries + pm->off[d + 1]; e++)
        if (e->count > 0 && e->cell < key)
            key = e->cell;
    return key;
}

/* Counting sort of the directed moves 0, step, 2 * step, ... by bucket. */
static int
build_index(const PackedMoves *pm, Index *ix, Py_ssize_t step)
{
    Py_ssize_t n_buckets = pm->max_cell + 2, c, d, *fill;

    ix->start = PyMem_New(Py_ssize_t, n_buckets + 1);
    ix->ids = PyMem_New(Py_ssize_t, 2 * pm->n_moves / step);
    fill = PyMem_New(Py_ssize_t, n_buckets);
    if (ix->start == NULL || ix->ids == NULL || fill == NULL) {
        PyMem_Free(fill);
        PyErr_NoMemory();
        return -1;
    }
    memset(fill, 0, n_buckets * sizeof(Py_ssize_t));
    for (d = 0; d < 2 * pm->n_moves; d += step)
        fill[bucket_of(pm, d)]++;
    ix->start[0] = 0;
    for (c = 0; c < n_buckets; c++) {
        ix->start[c + 1] = ix->start[c] + fill[c];
        fill[c] = ix->start[c];
    }
    for (d = 0; d < 2 * pm->n_moves; d += step)
        ix->ids[fill[bucket_of(pm, d)]++] = d;
    PyMem_Free(fill);
    return 0;
}

static PyObject *
pack_moves(PyObject *self, PyObject *moves)
{
    PyObject *seq, *parts = NULL, *part, *pair;
    PackedMoves *pm = NULL;
    Py_ssize_t n, j, i, e = 0, total = 0, cell;
    long count;

    if ((seq = PySequence_Tuple(moves)) == NULL)
        return NULL;
    n = PyTuple_GET_SIZE(seq);
    if ((parts = PyList_New(2 * n)) == NULL)
        goto error;
    for (j = 0; j < 2 * n; j++) {
        if ((part = move_part(seq, j)) == NULL)
            goto error;
        PyList_SET_ITEM(parts, j, part);
        total += PyTuple_GET_SIZE(part);
    }

    if ((pm = PyObject_New(PackedMoves, &PackedMovesType)) == NULL)
        goto error;
    pm->n_moves = n;
    pm->max_cell = -1;
    pm->forward = pm->directed = (Index){NULL, NULL};
    pm->off = PyMem_New(Py_ssize_t, 2 * n + 1);
    pm->entries = PyMem_New(Entry, total);
    if (pm->off == NULL || pm->entries == NULL) {
        PyErr_NoMemory();
        goto error;
    }
    for (j = 0; j < 2 * n; j++) {
        part = PyList_GET_ITEM(parts, j);
        pm->off[j] = e;
        for (i = 0; i < PyTuple_GET_SIZE(part); i++, e++) {
            pair = PySequence_Tuple(PyTuple_GET_ITEM(part, i));
            if (pair == NULL
                || !PyArg_ParseTuple(pair, "nl;a move entry must be a (cell, count) pair", &cell,
                                     &count)) {
                Py_XDECREF(pair);
                goto error;
            }
            Py_DECREF(pair);
            if (cell < 0) {
                PyErr_Format(PyExc_ValueError, "negative cell index %zd", cell);
                goto error;
            }
            pm->entries[e].cell = cell;
            pm->entries[e].count = count;
            if (cell > pm->max_cell)
                pm->max_cell = cell;
        }
    }
    pm->off[2 * n] = e;
    if (build_index(pm, &pm->forward, 2) < 0 || build_index(pm, &pm->directed, 1) < 0)
        goto error;
    Py_DECREF(parts);
    Py_DECREF(seq);
    return (PyObject *)pm;

error:
    Py_XDECREF(pm);
    Py_XDECREF(parts);
    Py_DECREF(seq);
    return NULL;
}

static int
check_table(const PackedMoves *pm, PyObject *t)
{
    if (PyBytes_GET_SIZE(t) > pm->max_cell)
        return 0;
    PyErr_Format(PyExc_ValueError, "table has %zd cells but a move uses cell %zd",
                 PyBytes_GET_SIZE(t), pm->max_cell);
    return -1;
}

/* Directed move d is move d / 2, forward when d is even: it removes part d
   and adds part d ^ 1.  Returns 1 and sets *out to the new table when it
   applies to t, 0 when it does not, and -1 with an exception set on error. */
static int
apply(const PackedMoves *pm, const char *t, Py_ssize_t n, Py_ssize_t d, PyObject **out)
{
    const Entry *sub = pm->entries + pm->off[d], *sub_end = pm->entries + pm->off[d + 1];
    const Entry *add = pm->entries + pm->off[d ^ 1], *add_end = pm->entries + pm->off[(d ^ 1) + 1];
    const Entry *e;
    unsigned char *b;

    for (e = sub; e < sub_end; e++)
        if ((unsigned char)t[e->cell] < e->count)
            return 0;
    if ((*out = PyBytes_FromStringAndSize(t, n)) == NULL)
        return -1;
    b = (unsigned char *)PyBytes_AS_STRING(*out);
    for (e = sub; e < sub_end; e++)
        b[e->cell] -= (unsigned char)e->count;
    for (e = add; e < add_end; e++)
        b[e->cell] += (unsigned char)e->count;
    return 1;
}

/* A set of directed moves: a bitmap over d, popped lowest first. */
typedef struct {
    uint64_t *bits;
    Py_ssize_t n_words, w; /* w: no set bit lies below word w */
} Candidates;

static int
candidates_init(Candidates *cs, const PackedMoves *pm)
{
    cs->n_words = (2 * pm->n_moves + 63) / 64;
    cs->w = cs->n_words;
    if ((cs->bits = PyMem_Calloc(cs->n_words, sizeof(uint64_t))) == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    return 0;
}

/* Adds the moves of ix that may apply to t: those filed under its nonzero
   cells and those that subtract nothing. */
static void
candidates_mark(Candidates *cs, const PackedMoves *pm, const Index *ix, const char *t)
{
    Py_ssize_t c, i, d;

    for (c = 0; c <= pm->max_cell + 1; c++) {
        if (c <= pm->max_cell && t[c] == 0)
            continue;
        for (i = ix->start[c]; i < ix->start[c + 1]; i++) {
            d = ix->ids[i];
            cs->bits[d / 64] |= (uint64_t)1 << (d % 64);
        }
    }
    cs->w = 0;
}

/* Removes and returns the lowest move of the set, or -1 when it is empty. */
static Py_ssize_t
candidates_pop(Candidates *cs)
{
    uint64_t word;
    Py_ssize_t b = 0;

    while (cs->w < cs->n_words && cs->bits[cs->w] == 0)
        cs->w++;
    if (cs->w == cs->n_words)
        return -1;
    word = cs->bits[cs->w];
    cs->bits[cs->w] = word & (word - 1);
#if defined(__GNUC__) || defined(__clang__)
    b = __builtin_ctzll(word);
#else
    while (!(word >> b & 1))
        b++;
#endif
    return cs->w * 64 + b;
}

/* Images of t under the forward moves, or under both orientations labelled
   (move index, forward?, image) when `both` is set. */
static PyObject *
scan(PyObject *args, int both)
{
    PyObject *t, *out, *nb, *item;
    PackedMoves *pm;
    Candidates cs;
    Py_ssize_t d;
    int r = 0;

    if (!PyArg_ParseTuple(args, "SO!", &t, &PackedMovesType, &pm) || check_table(pm, t) < 0
        || candidates_init(&cs, pm) < 0)
        return NULL;
    if ((out = PyList_New(0)) == NULL) {
        PyMem_Free(cs.bits);
        return NULL;
    }
    candidates_mark(&cs, pm, both ? &pm->directed : &pm->forward, PyBytes_AS_STRING(t));
    while (r >= 0 && (d = candidates_pop(&cs)) >= 0) {
        r = apply(pm, PyBytes_AS_STRING(t), PyBytes_GET_SIZE(t), d, &nb);
        if (r > 0) {
            item = both ? Py_BuildValue("(nOO)", d / 2, d % 2 ? Py_False : Py_True, nb)
                        : Py_NewRef(nb);
            Py_DECREF(nb);
            r = item == NULL ? -1 : PyList_Append(out, item);
            Py_XDECREF(item);
        }
    }
    PyMem_Free(cs.bits);
    if (r < 0)
        Py_CLEAR(out);
    return out;
}

static PyObject *
forward_neighbors(PyObject *self, PyObject *args)
{
    return scan(args, 0);
}

static PyObject *
neighbors_signed(PyObject *self, PyObject *args)
{
    return scan(args, 1);
}

static PyObject *
component(PyObject *self, PyObject *args)
{
    PyObject *start, *visited, *frontier, *nxt = NULL, *nb, *result = NULL;
    PackedMoves *pm;
    Candidates cs;
    Py_ssize_t cap, n, i, d;
    int truncated = 0, r;

    if (!PyArg_ParseTuple(args, "SO!n", &start, &PackedMovesType, &pm, &cap)
        || check_table(pm, start) < 0 || candidates_init(&cs, pm) < 0)
        return NULL;
    n = PyBytes_GET_SIZE(start);
    visited = PySet_New(NULL);
    frontier = PyList_New(0);
    if (visited == NULL || frontier == NULL || PySet_Add(visited, start) < 0
        || PyList_Append(frontier, start) < 0)
        goto done;
    while (PyList_GET_SIZE(frontier) > 0 && !truncated) {
        if (PyList_Sort(frontier) < 0 || (nxt = PyList_New(0)) == NULL)
            goto done;
        for (i = 0; i < PyList_GET_SIZE(frontier) && !truncated; i++) {
            const char *t = PyBytes_AS_STRING(PyList_GET_ITEM(frontier, i));
            candidates_mark(&cs, pm, &pm->directed, t);
            while (!truncated && (d = candidates_pop(&cs)) >= 0) {
                if ((r = apply(pm, t, n, d, &nb)) < 0)
                    goto done;
                if (r == 0)
                    continue;
                r = PySet_Contains(visited, nb);
                if (r == 0 && PySet_GET_SIZE(visited) >= cap)
                    truncated = 1;
                else if (r == 0 && (PySet_Add(visited, nb) < 0 || PyList_Append(nxt, nb) < 0))
                    r = -1;
                Py_DECREF(nb);
                if (r < 0)
                    goto done;
            }
        }
        Py_SETREF(frontier, nxt);
        nxt = NULL;
    }
    result = PyTuple_Pack(2, visited, truncated ? Py_True : Py_False);

done:
    PyMem_Free(cs.bits);
    Py_XDECREF(visited);
    Py_XDECREF(frontier);
    Py_XDECREF(nxt);
    return result;
}

static PyMethodDef methods[] = {
    {"pack_moves", pack_moves, METH_O,
     "pack_moves(moves) -> PackedMoves, where moves is a sequence of\n"
     "(minus, plus) pairs of ((cell, count), ...) entries."},
    {"forward_neighbors", forward_neighbors, METH_VARARGS,
     "forward_neighbors(t, pm) -> images of t under each move applied forward."},
    {"neighbors_signed", neighbors_signed, METH_VARARGS,
     "neighbors_signed(t, pm) -> [(move index, forward?, image), ...] over both orientations."},
    {"component", component, METH_VARARGS,
     "component(start, pm, cap) -> (visited, truncated): breadth-first closure of\n"
     "start, expanding each frontier in sorted order and stopping at cap tables."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "fiberwalk._kernel._fast",
    .m_doc = "Compiled fiber-walk kernel; byte for byte the same results as pure.",
    .m_size = -1,
    .m_methods = methods,
};

PyMODINIT_FUNC
PyInit__fast(void)
{
    PyObject *m;

    if (PyType_Ready(&PackedMovesType) < 0)
        return NULL;
    m = PyModule_Create(&module);
    if (m != NULL && PyModule_AddStringConstant(m, "BACKEND", "fast") < 0)
        Py_CLEAR(m);
    return m;
}
