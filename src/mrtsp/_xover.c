/* The compiled GA steps of mrtsp.ga, a CPython extension module.

   breed runs ga.next_generation's per-child loop for a whole generation, in
   the loop's order: select_parents' retry loop, drawing through the rng's own
   random method and comparing canonical rows as ga.similarity does; the
   crossover draw; ga.greedy_crossover step for step, or a copy of the better
   parent; and mutate's draw and swap. A crossover dead end draws k from
   getrandbits as random.Random._randbelow_with_getrandbits draws randrange's
   and takes the k-th open city in ascending order from a bitmap, as the loop
   takes it from its sorted list. A crossover child's length is summed as it
   is built; only a mutated child is summed again.

   random_tours makes ga.random_population's tours, each shuffled with the
   getrandbits calls random.shuffle makes, and sums their lengths.

   Both read the weights through the buffer protocol and return None, before
   any draw, unless they are a C-ordered n x n int64 matrix; breed also
   declines a negative count and members whose genes are not tuples permuting
   0..n-1. Lengths are summed in 128 bits, exact for non-negative weights.
   Float weights, rngs that are not an exact random.Random and declined genes
   run ga's Python loops.

   decode_records decodes all of one reduce key's codec records in one call.
   It returns None unless every record passes codec.decode_chromosome's checks
   and carries the key as its pop_id and the N of the first, and island.py
   then decodes record by record, so that the codec names the first fault.
   encode_records packs a reduce key's members as codec.encode_chromosome
   does; it returns None unless every member fits the layout, and island.py
   then encodes record by record, so that the codec names the first fault. */
#define PY_SSIZE_T_CLEAN
#include <Python.h>

/* succ[c] = city after c on the closed tour; 0, with no exception set, unless
   genes is a tuple holding a permutation of 0..n-1 (n >= 1). */
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

/* The cities as a tuple, or NULL with an exception set. */
static PyObject *cities(const int *tour, Py_ssize_t n)
{
    PyObject *genes = PyTuple_New(n);
    for (Py_ssize_t i = 0; genes != NULL && i < n; i++) {
        PyObject *city = PyLong_FromLong(tour[i]);
        if (city == NULL)
            Py_CLEAR(genes);
        else
            PyTuple_SET_ITEM(genes, i, city);
    }
    return genes;
}

/* The directed length of the closed tour, summed in 128 bits. */
static unsigned __int128 tour_length(const int *tour, const long long *dist, Py_ssize_t n)
{
    unsigned __int128 length = 0;
    for (Py_ssize_t i = 1; i < n; i++)
        length += (unsigned long long)dist[(Py_ssize_t)tour[i - 1] * n + tour[i]];
    return length + (unsigned long long)dist[(Py_ssize_t)tour[n - 1] * n + tour[0]];
}

/* Whether city c's bit is set in the bitmap open_cities. */
static int is_open(const uint64_t *open_cities, int c)
{
    return (open_cities[c >> 6] >> (c & 63)) & 1;
}

/* Fills tour[] with the greedy crossover of the parents whose successor arrays
   are sa and sb, from city first, and *length with its length, summed as the
   tour is built. open_cities is scratch for (n + 63) / 64 words, one set bit
   per unvisited city. A dead end draws k below the open count as randrange
   does and takes the k-th set bit in ascending order, skipping whole words by
   their popcount. 0 with an exception set when a dead-end draw fails. */
static int crossover(const int *sa, const int *sb, int first, const long long *dist,
                     Py_ssize_t n, PyObject *getrandbits, uint64_t *open_cities, int *tour,
                     unsigned __int128 *length)
{
    Py_ssize_t words = (n + 63) / 64;
    memset(open_cities, 0xff, words * sizeof *open_cities);
    if (n % 64)
        open_cities[words - 1] = (UINT64_C(1) << (n % 64)) - 1;
    int current = tour[0] = first;
    open_cities[current >> 6] &= ~(UINT64_C(1) << (current & 63));
    unsigned __int128 sum = 0;
    for (Py_ssize_t i = 1; i < n; i++) {
        const long long *row = dist + (Py_ssize_t)current * n;
        int ea = sa[current], eb = sb[current], nxt;
        if (is_open(open_cities, ea))
            nxt = (is_open(open_cities, eb) && row[eb] < row[ea]) ? eb : ea;
        else if (is_open(open_cities, eb))
            nxt = eb;
        else {
            long k = draw_below(getrandbits, n - i);
            if (k < 0)
                return 0;
            /* k is below the open count: the walk stops on a word with more than k bits */
            const uint64_t *word = open_cities;
            for (; k >= __builtin_popcountll(*word); word++)
                k -= __builtin_popcountll(*word);
            uint64_t bits = *word;
            for (; k > 0; k--)
                bits &= bits - 1;
            nxt = (int)((word - open_cities) * 64 + __builtin_ctzll(bits));
        }
        open_cities[nxt >> 6] &= ~(UINT64_C(1) << (nxt & 63));
        sum += (unsigned long long)row[nxt];
        current = tour[i] = nxt;
    }
    *length = sum + (unsigned long long)dist[(Py_ssize_t)current * n + first];
    return 1;
}

/* n, holding view, when obj is a C-ordered n x n matrix (n >= 1) of native
   8-byte integers; else 0, holding nothing, with no exception set. */
static Py_ssize_t int64_matrix(PyObject *obj, Py_buffer *view)
{
    if (PyObject_GetBuffer(obj, view, PyBUF_RECORDS_RO) < 0) {
        PyErr_Clear();
        return 0;
    }
    const char *format = view->format ? view->format + (view->format[0] == '@') : "B";
    if (view->ndim == 2 && view->shape[0] == view->shape[1] && view->shape[0] > 0
        && view->itemsize == 8 && (strcmp(format, "l") == 0 || strcmp(format, "q") == 0)
        && PyBuffer_IsContiguous(view, 'C'))
        return view->shape[0];
    PyBuffer_Release(view);
    return 0;
}

/* *x = random(); 0 with an exception set when the call or its conversion fails. */
static int uniform(PyObject *random, double *x)
{
    PyObject *r = PyObject_CallNoArgs(random);
    *x = r ? PyFloat_AsDouble(r) : -1.0;
    Py_XDECREF(r);
    return !(*x == -1.0 && PyErr_Occurred());
}

/* One Ranking.draw, order[bisect_right(cum, random())], as a member index below
   p; -1 with an exception set when random() fails or the draw is out of range. */
static long draw(PyObject *random, const double *cum, PyObject *order, Py_ssize_t p)
{
    double x;
    if (!uniform(random, &x))
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

/* ga.select_parents' retry loop over p canonical rows of n cities: up to retries
   tries of two draws, *ib redrawn while it equals *ia, ending at the first pair
   whose rows agree in at most threshold of their n places, else at the last
   pair; 0 with an exception set when a draw fails. */
static int select_retry(PyObject *random, const double *cum, PyObject *order, Py_ssize_t p,
                        const int *rows, Py_ssize_t n, double threshold,
                        Py_ssize_t retries, long *ia, long *ib)
{
    for (Py_ssize_t t = 0; t < retries; t++) {
        if ((*ia = draw(random, cum, order, p)) < 0)
            return 0;
        do
            *ib = draw(random, cum, order, p);
        while (*ib == *ia);
        if (*ib < 0)
            return 0;
        const int *ra = rows + *ia * n, *rb = rows + *ib * n;
        Py_ssize_t same = 0;
        for (Py_ssize_t j = 0; j < n; j++)
            same += ra[j] == rb[j];
        if ((double)same / (double)n <= threshold)
            break;
    }
    return 1;
}

/* breed(genes, lengths, order, cum, distances, threshold, retries, crossover_prob,
   mutation_prob, count, random, getrandbits) -> (children, lengths): count
   children of ga.next_generation's loop, drawing as it does; None, before any
   draw, unless distances is a C-ordered n x n int64 matrix with n >= 2 and the
   P >= 2 members' genes are tuples permuting 0..n-1. */
static PyObject *breed(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 12)
        return PyErr_Format(PyExc_TypeError, "expected 12 arguments, got %zd", nargs);
    PyObject *genes = args[0], *lengths = args[1], *order = args[2], *cum_list = args[3];
    PyObject *random = args[10], *getrandbits = args[11];
    double threshold = PyFloat_AsDouble(args[5]), cross_prob = PyFloat_AsDouble(args[7]);
    double mutation_prob = PyFloat_AsDouble(args[8]), x;
    Py_ssize_t retries = PyLong_AsSsize_t(args[6]), count = PyLong_AsSsize_t(args[9]);
    if (PyErr_Occurred())
        return NULL;
    Py_buffer view;
    Py_ssize_t n = int64_matrix(args[4], &view);
    Py_ssize_t p = PyList_Check(genes) ? PyList_GET_SIZE(genes) : 0;
    int *succ = NULL, *rows = NULL, *tour = NULL;
    unsigned char *seen = NULL;
    uint64_t *open_cities = NULL;
    double *cum = NULL;
    PyObject *children = NULL, *child_lengths = NULL, *result = Py_None;  /* borrowed until done */
    if (n < 2 || p < 2 || retries < 1 || count < 0 || !PyList_Check(lengths)
        || !PyList_Check(order) || !PyList_Check(cum_list) || PyList_GET_SIZE(lengths) != p
        || PyList_GET_SIZE(order) != p || PyList_GET_SIZE(cum_list) != p)
        goto done;
    succ = PyMem_New(int, p * n);
    rows = PyMem_New(int, p * n);
    tour = PyMem_New(int, n);
    seen = PyMem_Malloc(n);
    open_cities = PyMem_New(uint64_t, (n + 63) / 64);
    cum = PyMem_New(double, p);
    if (succ == NULL || rows == NULL || tour == NULL || seen == NULL || open_cities == NULL
        || cum == NULL) {
        result = PyErr_NoMemory();
        goto done;
    }
    for (Py_ssize_t i = 0; i < p; i++) {
        if (!successors(PyList_GET_ITEM(genes, i), n, succ + i * n, seen))
            goto done;
        for (int j = 0, city = 0; j < n; j++, city = succ[i * n + city])
            rows[i * n + j] = city;
    }
    result = NULL;
    for (Py_ssize_t i = 0; i < p && !PyErr_Occurred(); i++)
        cum[i] = PyFloat_AsDouble(PyList_GET_ITEM(cum_list, i));
    if (PyErr_Occurred() || (children = PyList_New(count)) == NULL
        || (child_lengths = PyList_New(count)) == NULL)
        goto done;
    for (Py_ssize_t k = 0; k < count; k++) {
        long ia, ib, copy = -1;
        unsigned __int128 length = 0;
        if (!select_retry(random, cum, order, p, rows, n, threshold, retries, &ia, &ib)
            || !uniform(random, &x))
            goto done;
        if (x < cross_prob) {
            int first = (int)PyLong_AsLong(PyTuple_GET_ITEM(PyList_GET_ITEM(genes, ia), 0));
            if (!crossover(succ + ia * n, succ + ib * n, first, view.buf, n, getrandbits,
                           open_cities, tour, &length))
                goto done;
        }
        else {
            int le = PyObject_RichCompareBool(PyList_GET_ITEM(lengths, ia),
                                              PyList_GET_ITEM(lengths, ib), Py_LE);
            if (le < 0)
                goto done;
            copy = le ? ia : ib;
        }
        if (mutation_prob > 0.0 && !uniform(random, &x))
            goto done;
        if (mutation_prob > 0.0 && x < mutation_prob) {
            for (Py_ssize_t i = 0; copy >= 0 && i < n; i++)
                tour[i] = (int)PyLong_AsLong(PyTuple_GET_ITEM(PyList_GET_ITEM(genes, copy), i));
            long i = draw_below(getrandbits, n), j = i < 0 ? -1 : draw_below(getrandbits, n - 1);
            if (j < 0)
                goto done;
            j += j >= i;
            int city = tour[i];
            tour[i] = tour[j];
            tour[j] = city;
            copy = -1;
            length = tour_length(tour, view.buf, n);
        }
        PyObject *child = copy >= 0 ? Py_NewRef(PyList_GET_ITEM(genes, copy)) : cities(tour, n);
        PyObject *size = copy >= 0 ? Py_NewRef(PyList_GET_ITEM(lengths, copy))
                                   : length_to_int(length);
        PyList_SET_ITEM(children, k, child);
        PyList_SET_ITEM(child_lengths, k, size);
        if (child == NULL || size == NULL)
            goto done;
    }
    result = PyTuple_Pack(2, children, child_lengths);
done:
    Py_XDECREF(children);
    Py_XDECREF(child_lengths);
    PyMem_Free(cum);
    PyMem_Free(open_cities);
    PyMem_Free(seen);
    PyMem_Free(tour);
    PyMem_Free(rows);
    PyMem_Free(succ);
    if (n > 0)
        PyBuffer_Release(&view);
    return result == Py_None ? Py_NewRef(Py_None) : result;
}

/* random_tours(count, distances, getrandbits) -> (tours, lengths): count
   tours, each list(range(n)) with i swapped for randbelow(i + 1) at
   i = n-1 ... 1 as random.shuffle does, and their lengths; None, before any
   draw, unless distances is a C-ordered n x n int64 matrix with n >= 2. */
static PyObject *random_tours(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 3)
        return PyErr_Format(PyExc_TypeError, "expected 3 arguments, got %zd", nargs);
    Py_ssize_t count = PyLong_AsSsize_t(args[0]);
    if (count == -1 && PyErr_Occurred())
        return NULL;
    Py_buffer view;
    Py_ssize_t n = int64_matrix(args[1], &view);
    if (n < 2 || count < 0) {
        if (n > 0)
            PyBuffer_Release(&view);
        Py_RETURN_NONE;
    }
    int tour[n];
    PyObject *tours = PyList_New(count), *lengths = tours ? PyList_New(count) : NULL;
    PyObject *result = NULL;
    for (Py_ssize_t k = 0; lengths != NULL && k < count; k++) {
        for (int i = 0; i < n; i++)
            tour[i] = i;
        for (Py_ssize_t i = n - 1; i > 0; i--) {
            long j = draw_below(args[2], i + 1);
            if (j < 0)
                goto done;
            int city = tour[i];
            tour[i] = tour[j];
            tour[j] = city;
        }
        PyObject *genes = cities(tour, n), *length = length_to_int(tour_length(tour, view.buf, n));
        PyList_SET_ITEM(tours, k, genes);
        PyList_SET_ITEM(lengths, k, length);
        if (genes == NULL || length == NULL)
            goto done;
    }
    if (lengths != NULL)
        result = PyTuple_Pack(2, tours, lengths);
done:
    Py_XDECREF(tours);
    Py_XDECREF(lengths);
    PyBuffer_Release(&view);
    return result;
}

/* The little-endian u32 at p. */
static unsigned long u32_at(const unsigned char *p)
{
    return p[0] | (unsigned long)p[1] << 8 | (unsigned long)p[2] << 16 | (unsigned long)p[3] << 24;
}

/* N of the record at value when it is a bytes of exactly 16 + 4N bytes, with
   pop_id == key and 1 <= N and, when n > 0, N == n; else 0. */
static Py_ssize_t record_size(PyObject *value, unsigned long key, Py_ssize_t n)
{
    if (!PyBytes_Check(value) || PyBytes_GET_SIZE(value) < 8)
        return 0;
    const unsigned char *data = (const unsigned char *)PyBytes_AS_STRING(value);
    unsigned long size = u32_at(data + 4);
    if (size == 0 || size > (unsigned long)((PY_SSIZE_T_MAX - 16) / 4)
        || PyBytes_GET_SIZE(value) != 16 + 4 * (Py_ssize_t)size || u32_at(data) != key
        || (n > 0 && (Py_ssize_t)size != n))
        return 0;
    return (Py_ssize_t)size;
}

/* decode_records(values, key) -> (genes, lengths): the gene tuples and tour
   lengths of a list or tuple of codec records, in order; None, with no
   exception set, unless there is at least one record and every record passes
   codec.decode_chromosome's checks, carries pop_id == key and has the N of
   the first. */
static PyObject *decode_records(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 2)
        return PyErr_Format(PyExc_TypeError, "expected 2 arguments, got %zd", nargs);
    PyObject *values = args[0];
    unsigned long key = PyLong_AsUnsignedLong(args[1]);
    if (key == (unsigned long)-1 && PyErr_Occurred()) {
        PyErr_Clear();
        Py_RETURN_NONE;
    }
    if (!PyList_Check(values) && !PyTuple_Check(values))
        Py_RETURN_NONE;
    /* a tuple of the records, so that no code run by an allocation can free one */
    PyObject *records = PySequence_Tuple(values);
    if (records == NULL)
        return NULL;
    Py_ssize_t count = PyTuple_GET_SIZE(records), n = 0;
    PyObject **items = &PyTuple_GET_ITEM(records, 0);
    unsigned char *seen = NULL;
    PyObject **ints = NULL, *genes = NULL, *lengths = NULL, *result = Py_None;  /* borrowed until done */
    if (count == 0 || (n = record_size(items[0], key, 0)) == 0)
        goto done;
    seen = PyMem_Malloc(n);
    ints = PyMem_Calloc(n, sizeof(PyObject *));
    if (seen == NULL || ints == NULL) {
        result = PyErr_NoMemory();
        goto done;
    }
    for (Py_ssize_t k = 0; k < count; k++) {
        if (record_size(items[k], key, n) == 0)
            goto done;
        const unsigned char *gene = (const unsigned char *)PyBytes_AS_STRING(items[k]) + 8;
        memset(seen, 0, n);
        for (Py_ssize_t i = 0; i < n; i++, gene += 4) {
            unsigned long city = u32_at(gene);
            if (city >= (unsigned long)n || seen[city])
                goto done;
            seen[city] = 1;
        }
    }
    result = NULL;
    for (Py_ssize_t i = 0; i < n; i++)
        if ((ints[i] = PyLong_FromSsize_t(i)) == NULL)
            goto done;
    if ((genes = PyList_New(count)) == NULL || (lengths = PyList_New(count)) == NULL)
        goto done;
    for (Py_ssize_t k = 0; k < count; k++) {
        const unsigned char *data = (const unsigned char *)PyBytes_AS_STRING(items[k]);
        PyObject *tour = PyTuple_New(n);
        PyList_SET_ITEM(genes, k, tour);
        if (tour == NULL)
            goto done;
        for (Py_ssize_t i = 0; i < n; i++)
            PyTuple_SET_ITEM(tour, i, Py_NewRef(ints[u32_at(data + 8 + 4 * i)]));
        const unsigned char *tail = data + 8 + 4 * n;
        PyObject *length = PyLong_FromUnsignedLongLong(
            u32_at(tail) | (unsigned long long)u32_at(tail + 4) << 32);
        PyList_SET_ITEM(lengths, k, length);
        if (length == NULL)
            goto done;
    }
    result = PyTuple_Pack(2, genes, lengths);
done:
    Py_XDECREF(genes);
    Py_XDECREF(lengths);
    for (Py_ssize_t i = 0; ints != NULL && i < n; i++)
        Py_XDECREF(ints[i]);
    PyMem_Free(ints);
    PyMem_Free(seen);
    Py_DECREF(records);
    return result == Py_None ? Py_NewRef(Py_None) : result;
}

/* Stores the low 32 bits of x at p, little-endian. */
static void put_u32(unsigned char *p, unsigned long x)
{
    p[0] = (unsigned char)x;
    p[1] = (unsigned char)(x >> 8);
    p[2] = (unsigned char)(x >> 16);
    p[3] = (unsigned char)(x >> 24);
}

/* 1, storing obj at *x, when obj is an int in [0, max]; else 0, with no
   exception set. */
static int bounded(PyObject *obj, unsigned long long max, unsigned long long *x)
{
    if (!PyLong_CheckExact(obj))
        return 0;
    *x = PyLong_AsUnsignedLongLong(obj);
    if (*x == (unsigned long long)-1 && PyErr_Occurred()) {
        PyErr_Clear();
        return 0;
    }
    return *x <= max;
}

/* encode_records(genes, lengths, key) -> list of bytes: the record that
   codec.encode_chromosome(genes[k], lengths[k], key) packs, for every k; None,
   with no exception set, unless genes and lengths are lists or tuples of one
   size, key is an int below 2**32, every genes is a non-empty tuple of ints
   below 2**32 and every length an int below 2**64. */
static PyObject *encode_records(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 3)
        return PyErr_Format(PyExc_TypeError, "expected 3 arguments, got %zd", nargs);
    unsigned long long key, length, city;
    if (!bounded(args[2], 0xFFFFFFFFULL, &key)
        || (!PyList_Check(args[0]) && !PyTuple_Check(args[0]))
        || (!PyList_Check(args[1]) && !PyTuple_Check(args[1])))
        Py_RETURN_NONE;
    /* tuples of the inputs, so that no code run by an allocation can free one */
    PyObject *genes = PySequence_Tuple(args[0]);
    PyObject *lengths = genes ? PySequence_Tuple(args[1]) : NULL;
    PyObject *records = NULL, *result = Py_None;  /* borrowed until done */
    if (lengths == NULL) {
        result = NULL;
        goto done;
    }
    Py_ssize_t count = PyTuple_GET_SIZE(genes);
    if (PyTuple_GET_SIZE(lengths) != count)
        goto done;
    if ((records = PyList_New(count)) == NULL) {
        result = NULL;
        goto done;
    }
    for (Py_ssize_t k = 0; k < count; k++) {
        PyObject *tour = PyTuple_GET_ITEM(genes, k);
        if (!PyTuple_Check(tour) || PyTuple_GET_SIZE(tour) == 0
            || PyTuple_GET_SIZE(tour) > 0xFFFFFFFFLL
            || !bounded(PyTuple_GET_ITEM(lengths, k), 0xFFFFFFFFFFFFFFFFULL, &length))
            goto done;
        Py_ssize_t n = PyTuple_GET_SIZE(tour);
        PyObject *value = PyBytes_FromStringAndSize(NULL, 16 + 4 * n);
        if (value == NULL) {
            result = NULL;
            goto done;
        }
        PyList_SET_ITEM(records, k, value);
        unsigned char *data = (unsigned char *)PyBytes_AS_STRING(value);
        put_u32(data, (unsigned long)key);
        put_u32(data + 4, (unsigned long)n);
        for (Py_ssize_t i = 0; i < n; i++) {
            if (!bounded(PyTuple_GET_ITEM(tour, i), 0xFFFFFFFFULL, &city))
                goto done;
            put_u32(data + 8 + 4 * i, (unsigned long)city);
        }
        put_u32(data + 8 + 4 * n, (unsigned long)(length & 0xFFFFFFFFULL));
        put_u32(data + 12 + 4 * n, (unsigned long)(length >> 32));
    }
    result = Py_NewRef(records);
done:
    Py_XDECREF(records);
    Py_XDECREF(lengths);
    Py_XDECREF(genes);
    return result == Py_None ? Py_NewRef(Py_None) : result;
}

static PyMethodDef methods[] = {
    {"breed", (PyCFunction)(void (*)(void))breed, METH_FASTCALL, NULL},
    {"random_tours", (PyCFunction)(void (*)(void))random_tours, METH_FASTCALL, NULL},
    {"decode_records", (PyCFunction)(void (*)(void))decode_records, METH_FASTCALL, NULL},
    {"encode_records", (PyCFunction)(void (*)(void))encode_records, METH_FASTCALL, NULL},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {PyModuleDef_HEAD_INIT, "_xover", NULL, 0, methods};

PyMODINIT_FUNC PyInit__xover(void)
{
    return PyModuleDef_Init(&module);
}
