/* Greedy crossover kernel for mrtsp.ga.greedy_crossover, loaded through ctypes.PyDLL.

   Mirrors the Python loop step for step: from parent a's first city take the
   cheaper unvisited parental successor (a tie goes to parent a's), else the
   only unvisited one, else the k-th unvisited city in ascending order for
   k = rng.randrange(unvisited), drawn from rng.getrandbits as
   random.Random._randbelow_with_getrandbits does, which consumes the same
   bits as the randrange call. The int64 length cannot overflow: the caller
   guarantees n * max weight < 2**63. Fills the list child, of n items, with
   the child tour and returns its length, or -1 with a Python exception set.

   It declares the stable-ABI functions it calls instead of including
   Python.h: the build needs no Python headers, and the compiler, a child of
   the importing process, peaks at 28 MB instead of 41 MB. */
#include <string.h>
#include <sys/types.h>

typedef struct _object PyObject;
extern PyObject *PyExc_ValueError;
PyObject *PyObject_CallFunctionObjArgs(PyObject *callable, ...);
PyObject *PyErr_Occurred(void);
void PyErr_Clear(void);
PyObject *PyErr_Format(PyObject *exception, const char *format, ...);
long PyLong_AsLong(PyObject *obj);
PyObject *PyLong_FromLong(long value);
ssize_t PyTuple_Size(PyObject *tuple);
PyObject *PyTuple_GetItem(PyObject *tuple, ssize_t index);
ssize_t PyList_Size(PyObject *list);
int PyList_SetItem(PyObject *list, ssize_t index, PyObject *item);
void Py_DecRef(PyObject *obj);

/* succ[c] = city after c on the closed tour; 0 with ValueError unless genes is
   a tuple holding a permutation of 0..n-1. */
static int successors(PyObject *genes, int n, int *succ, unsigned char *seen)
{
    if (PyTuple_Size(genes) != n)
        goto bad;
    memset(seen, 0, n);
    long prev = -1, first = -1;
    for (int i = 0; i < n; i++) {
        long city = PyLong_AsLong(PyTuple_GetItem(genes, i));
        if (city < 0 || city >= n || seen[city])
            goto bad;
        seen[city] = 1;
        if (prev >= 0)
            succ[prev] = (int)city;
        else
            first = city;
        prev = city;
    }
    succ[prev] = (int)first;
    return 1;
bad:
    PyErr_Clear();
    PyErr_Format(PyExc_ValueError, "parent genes are not a tuple permuting 0..%d", n - 1);
    return 0;
}

/* PyLong_AsLong of a new reference, released; -1 with the exception kept
   when r is NULL. */
static long take_long(PyObject *r)
{
    if (r == NULL)
        return -1;
    long value = PyLong_AsLong(r);
    Py_DecRef(r);
    return value;
}

/* k uniform in [0, m) from getrandbits(m.bit_length()) redrawn until below m;
   -1 with an exception set on failure. */
static long draw_below(PyObject *getrandbits, int m)
{
    long k;
    int bits = 0;
    while (m >> bits)
        bits++;
    PyObject *arg = PyLong_FromLong(bits);
    if (arg == NULL)
        return -1;
    do
        k = take_long(PyObject_CallFunctionObjArgs(getrandbits, arg, NULL));
    while (k >= m);
    Py_DecRef(arg);
    if (k < 0 && !PyErr_Occurred())
        PyErr_Format(PyExc_ValueError, "getrandbits(%d) gave %ld", bits, k);
    return k < 0 ? -1 : k;
}

static int set_city(PyObject *child, int i, int city)
{
    PyObject *item = PyLong_FromLong(city);
    return item != NULL && PyList_SetItem(child, i, item) == 0;
}

long long greedy_crossover(int n, PyObject *genes_a, PyObject *genes_b, const long long *dist,
                           PyObject *getrandbits, PyObject *child)
{
    int sa[n], sb[n];
    unsigned char visited[n];
    if (!successors(genes_a, n, sa, visited) || !successors(genes_b, n, sb, visited))
        return -1;
    if (PyList_Size(child) != n) {
        PyErr_Clear();
        PyErr_Format(PyExc_ValueError, "child must be a list of %d items", n);
        return -1;
    }
    memset(visited, 0, n);
    int first = (int)PyLong_AsLong(PyTuple_GetItem(genes_a, 0)), current = first;
    long long length = 0;
    if (!set_city(child, 0, first))
        return -1;
    visited[first] = 1;
    for (int i = 1; i < n; i++) {
        const long long *row = dist + (long long)current * n;
        int ea = sa[current], eb = sb[current], nxt;
        if (!visited[ea])
            nxt = (!visited[eb] && row[eb] < row[ea]) ? eb : ea;
        else if (!visited[eb])
            nxt = eb;
        else {
            long k = draw_below(getrandbits, n - i);
            if (k < 0)
                return -1;
            for (nxt = 0; visited[nxt] || k-- > 0; nxt++)
                ;
        }
        if (!set_city(child, i, nxt))
            return -1;
        visited[nxt] = 1;
        length += row[nxt];
        current = nxt;
    }
    return length + dist[(long long)current * n + first];
}
