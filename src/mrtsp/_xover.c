/* The compiled GA operators of mrtsp.ga, a CPython extension module.

   greedy_crossover(genes_a, genes_b, distances, getrandbits) -> (child, length)
   mirrors ga.greedy_crossover's Python loop step for step: from parent a's
   first city take the cheaper unvisited parental successor (a tie goes to
   parent a's), else the only unvisited one, else the k-th unvisited city in
   ascending order for k = rng.randrange(unvisited), drawn from rng.getrandbits
   as random.Random._randbelow_with_getrandbits does, which consumes the same
   bits as the randrange call. It reads distances through the buffer protocol
   and returns None, before any draw, unless it is a C-ordered n x n int64
   array. The length is summed in 128 bits, exact for non-negative weights.

   canonical_rows and select_pair run ga.select_parents' retry loop: the first
   turns a Ranking's tours into byte rows once per generation, the second
   draws through the rng's own random method and compares the rows' share of
   equal bytes with the threshold, the same double that ga.similarity returns. */
#define PY_SSIZE_T_CLEAN
#include <Python.h>

/* succ[c] = city after c on the closed tour; 0 with ValueError unless genes is
   a tuple holding a permutation of 0..n-1 (n >= 1). */
static int successors(PyObject *genes, Py_ssize_t n, int *succ, unsigned char *seen)
{
    if (!PyTuple_Check(genes) || PyTuple_GET_SIZE(genes) != n)
        goto bad;
    memset(seen, 0, n);
    long prev = PyLong_AsLong(PyTuple_GET_ITEM(genes, n - 1));
    if (prev < 0 || prev >= n)
        goto bad;
    for (Py_ssize_t i = 0; i < n; i++) {
        long city = PyLong_AsLong(PyTuple_GET_ITEM(genes, i));
        if (city < 0 || city >= n || seen[city])
            goto bad;
        seen[city] = 1;
        succ[prev] = (int)city;
        prev = city;
    }
    return 1;
bad:
    PyErr_Clear();
    PyErr_Format(PyExc_ValueError, "parent genes are not a tuple permuting 0..%zd", n - 1);
    return 0;
}

/* k uniform in [0, m) from getrandbits(m.bit_length()) redrawn until below m;
   -1 with an exception set on failure. */
static long draw_below(PyObject *getrandbits, Py_ssize_t m)
{
    int bits = 0;
    while (m >> bits)
        bits++;
    PyObject *arg = PyLong_FromLong(bits), *r;
    long k = -1;
    while (arg != NULL && (r = PyObject_CallOneArg(getrandbits, arg)) != NULL) {
        k = PyLong_AsLong(r);
        Py_DECREF(r);
        if (k < m)
            break;
    }
    Py_XDECREF(arg);
    if (k < 0 && !PyErr_Occurred())
        PyErr_Format(PyExc_ValueError, "getrandbits(%d) gave %ld", bits, k);
    return PyErr_Occurred() ? -1 : k;
}

/* The length as a Python int, through hex digits when it needs more than 64 bits. */
static PyObject *length_to_int(unsigned __int128 length)
{
    char hex[33];
    if (length >> 64 == 0)
        return PyLong_FromUnsignedLongLong((unsigned long long)length);
    snprintf(hex, sizeof hex, "%llx%016llx", (unsigned long long)(length >> 64),
             (unsigned long long)length);
    return PyLong_FromString(hex, NULL, 16);
}

static PyObject *crossover(PyObject *genes_a, PyObject *genes_b, const Py_buffer *view,
                           PyObject *getrandbits)
{
    Py_ssize_t n = view->shape[0];
    const long long *dist = view->buf;
    int sa[n], sb[n], tour[n];
    unsigned char visited[n];
    if (!successors(genes_a, n, sa, visited) || !successors(genes_b, n, sb, visited))
        return NULL;
    memset(visited, 0, n);
    int current = tour[0] = (int)PyLong_AsLong(PyTuple_GET_ITEM(genes_a, 0));
    visited[current] = 1;
    unsigned __int128 length = 0;
    for (Py_ssize_t i = 1; i < n; i++) {
        const long long *row = dist + (Py_ssize_t)current * n;
        int ea = sa[current], eb = sb[current], nxt;
        if (!visited[ea])
            nxt = (!visited[eb] && row[eb] < row[ea]) ? eb : ea;
        else if (!visited[eb])
            nxt = eb;
        else {
            long k = draw_below(getrandbits, n - i);
            if (k < 0)
                return NULL;
            for (nxt = 0; visited[nxt] || k-- > 0; nxt++)
                ;
        }
        visited[nxt] = 1;
        length += (unsigned long long)row[nxt];
        current = tour[i] = nxt;
    }
    length += (unsigned long long)dist[(Py_ssize_t)current * n + tour[0]];
    PyObject *child = PyList_New(n);
    for (Py_ssize_t i = 0; child != NULL && i < n; i++) {
        PyObject *city = PyLong_FromLong(tour[i]);
        if (city == NULL)
            Py_CLEAR(child);
        else
            PyList_SET_ITEM(child, i, city);
    }
    return child == NULL ? NULL : Py_BuildValue("(NN)", child, length_to_int(length));
}

/* A C-ordered n x n matrix, n >= 1, of native 8-byte integers. */
static int is_int64_matrix(const Py_buffer *view)
{
    const char *format = view->format ? view->format + (view->format[0] == '@') : "B";
    return view->ndim == 2 && view->shape[0] == view->shape[1] && view->shape[0] > 0
           && view->itemsize == 8 && (strcmp(format, "l") == 0 || strcmp(format, "q") == 0)
           && PyBuffer_IsContiguous(view, 'C');
}

static PyObject *greedy_crossover(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    Py_buffer view;
    if (nargs != 4)
        return PyErr_Format(PyExc_TypeError, "expected 4 arguments, got %zd", nargs);
    if (PyObject_GetBuffer(args[2], &view, PyBUF_RECORDS_RO) < 0) {
        PyErr_Clear();
        Py_RETURN_NONE;
    }
    PyObject *result = is_int64_matrix(&view) ? crossover(args[0], args[1], &view, args[3])
                                              : Py_NewRef(Py_None);
    PyBuffer_Release(&view);
    return result;
}

/* canonical_rows(genes): the list's P gene tuples as P rows of n bytes, row i
   holding tour i rotated to start at city 0; None unless each is a tuple
   permuting 0..n-1 for the first tuple's n, 1 <= n <= 256. */
static PyObject *canonical_rows(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 1 || !PyList_Check(args[0]))
        return PyErr_Format(PyExc_TypeError, "expected one list of gene tuples");
    PyObject *tours = args[0];
    Py_ssize_t p = PyList_GET_SIZE(tours);
    PyObject *first = p ? PyList_GET_ITEM(tours, 0) : NULL;
    Py_ssize_t n = first && PyTuple_Check(first) ? PyTuple_GET_SIZE(first) : 0;
    if (n < 1 || n > 256)
        Py_RETURN_NONE;
    PyObject *rows = PyBytes_FromStringAndSize(NULL, p * n);
    unsigned char *row = rows ? (unsigned char *)PyBytes_AS_STRING(rows) : NULL, seen[256];
    int succ[256];
    for (Py_ssize_t i = 0; row != NULL && i < p; i++, row += n) {
        if (!successors(PyList_GET_ITEM(tours, i), n, succ, seen)) {
            PyErr_Clear();
            Py_DECREF(rows);
            Py_RETURN_NONE;
        }
        for (int j = 0, city = 0; j < n; j++, city = succ[city])
            row[j] = (unsigned char)city;
    }
    return rows;
}

/* One Ranking.draw, order[bisect_right(cum, random())], as a member index below
   p; -1 with an exception set when random() fails or the draw is out of range. */
static long draw(PyObject *random, const double *cum, PyObject *order, Py_ssize_t p)
{
    PyObject *r = PyObject_CallNoArgs(random);
    if (r == NULL)
        return -1;
    double x = PyFloat_AsDouble(r);
    Py_DECREF(r);
    if (x == -1.0 && PyErr_Occurred())
        return -1;
    Py_ssize_t lo = 0, hi = p;
    while (lo < hi) {
        Py_ssize_t mid = (lo + hi) / 2;
        if (x < cum[mid])
            hi = mid;
        else
            lo = mid + 1;
    }
    if (lo >= PyList_GET_SIZE(order)) {
        PyErr_SetString(PyExc_IndexError, "list index out of range");
        return -1;
    }
    long index = PyLong_AsLong(PyList_GET_ITEM(order, lo));
    if ((index < 0 || index >= p) && !PyErr_Occurred())
        PyErr_Format(PyExc_ValueError, "order holds %ld, not a member index", index);
    return PyErr_Occurred() ? -1 : index;
}

/* select_pair(canon, n, order, cum, threshold, retries, random) -> (ia, ib):
   up to retries tries of two draws, ib redrawn while it equals ia, ending at
   the first pair whose rows agree in at most threshold of their n bytes, else
   at the last pair; None when the arguments do not describe P >= 2 rows. */
static PyObject *select_pair(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 7)
        return PyErr_Format(PyExc_TypeError, "expected 7 arguments, got %zd", nargs);
    PyObject *canon = args[0], *order = args[2], *cum_list = args[3], *random = args[6];
    Py_ssize_t n = PyLong_AsSsize_t(args[1]);
    Py_ssize_t retries = n == -1 && PyErr_Occurred() ? -1 : PyLong_AsSsize_t(args[5]);
    double threshold = retries == -1 && PyErr_Occurred() ? -1.0 : PyFloat_AsDouble(args[4]);
    if (PyErr_Occurred())
        return NULL;
    if (!PyBytes_Check(canon) || !PyList_Check(order) || !PyList_Check(cum_list))
        Py_RETURN_NONE;
    Py_ssize_t p = PyList_GET_SIZE(order);
    if (p < 2 || n < 1 || retries < 1 || PyList_GET_SIZE(cum_list) != p
        || PyBytes_GET_SIZE(canon) != p * n)
        Py_RETURN_NONE;
    double *cum = PyMem_New(double, p);
    if (cum == NULL)
        return PyErr_NoMemory();
    for (Py_ssize_t i = 0; i < p && !PyErr_Occurred(); i++)
        cum[i] = PyFloat_AsDouble(PyList_GET_ITEM(cum_list, i));
    const unsigned char *rows = (const unsigned char *)PyBytes_AS_STRING(canon);
    long ia = -1, ib = -1;
    for (Py_ssize_t t = 0; t < retries && !PyErr_Occurred(); t++) {
        if ((ia = draw(random, cum, order, p)) < 0)
            break;
        do
            ib = draw(random, cum, order, p);
        while (ib == ia);
        if (ib < 0)
            break;
        const unsigned char *ra = rows + ia * n, *rb = rows + ib * n;
        Py_ssize_t same = 0;
        for (Py_ssize_t j = 0; j < n; j++)
            same += ra[j] == rb[j];
        if ((double)same / (double)n <= threshold)
            break;
    }
    PyMem_Free(cum);
    return PyErr_Occurred() ? NULL : Py_BuildValue("(ll)", ia, ib);
}

static PyMethodDef methods[] = {
    {"greedy_crossover", (PyCFunction)(void (*)(void))greedy_crossover, METH_FASTCALL, NULL},
    {"canonical_rows", (PyCFunction)(void (*)(void))canonical_rows, METH_FASTCALL, NULL},
    {"select_pair", (PyCFunction)(void (*)(void))select_pair, METH_FASTCALL, NULL},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {PyModuleDef_HEAD_INIT, "_xover", NULL, 0, methods};

PyMODINIT_FUNC PyInit__xover(void)
{
    return PyModuleDef_Init(&module);
}
