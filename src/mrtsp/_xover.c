/* Greedy crossover kernel for mrtsp.ga.greedy_crossover, a CPython extension module.

   greedy_crossover(genes_a, genes_b, distances, getrandbits) -> (child, length)
   mirrors the Python loop step for step: from parent a's first city take the
   cheaper unvisited parental successor (a tie goes to parent a's), else the
   only unvisited one, else the k-th unvisited city in ascending order for
   k = rng.randrange(unvisited), drawn from rng.getrandbits as
   random.Random._randbelow_with_getrandbits does, which consumes the same
   bits as the randrange call. It reads distances through the buffer protocol
   and returns None, before any draw, unless it is a C-ordered n x n int64
   array. The length is summed in 128 bits, exact for non-negative weights. */
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

static PyMethodDef methods[] = {
    {"greedy_crossover", (PyCFunction)(void (*)(void))greedy_crossover, METH_FASTCALL, NULL},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {PyModuleDef_HEAD_INIT, "_xover", NULL, 0, methods};

PyMODINIT_FUNC PyInit__xover(void)
{
    return PyModuleDef_Init(&module);
}
