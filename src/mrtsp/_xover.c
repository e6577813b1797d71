/* The compiled GA steps of mrtsp.ga and island.py, and the Held-Karp DP of
   mrtsp.oracle, a CPython extension module.

   evolve runs ga.evolve's generations in the loop's order: the elite pick and
   the Ranking as stable sorts of the member indices by length;
   select_parents' retry loop, comparing canonical rows as ga.similarity does,
   its rank draws started from a guide table and pairs of identical members
   judged by their duplicate class with no row scan; the crossover draw;
   ga.greedy_crossover step for step, or a copy of the better parent; and
   mutate's draw and swap. A crossover dead end takes the k-th open city in
   ascending order from a bitmap, as the loop takes it from its sorted list,
   and a child's length is summed as it is built. The population stays in C
   arrays; gene tuples and length ints are built once, at the end.
   evolve_island runs the same loop (run, below) as an island's reduce task:
   it checks and decodes the island's codec records into the C arrays as
   island.decode_island does, city count included, keeps the population_size
   shortest as ga.shortest does, and returns the records island.EvolveReducer
   emits, the residents and then the best re-addressed to every other
   island, as codec.encode_chromosome packs them, so no gene tuple is built.
   random_tours makes ga.random_population's tours, shuffled as
   random.shuffle shuffles them, and sums their lengths.

   All three draw from CPython's Mersenne Twister (Modules/_randommodule.c) in
   place: twister hands them the rng's own state, through a mirror of
   _random.Random's struct whose layout the first such call checks against
   getstate, and every entry that takes an rng declines if it differs.
   random() and getrandbits(k) use its words as CPython does, so draws and
   the rng's state equal the Python loops', and nothing calls back into
   Python between the first draw and the last. They sum lengths in 64 bits,
   the record layout's width.

   held_karp runs oracle.held_karp's DP over float64 weights with the numpy
   DP's tie rule, so their results are equal.

   Each entry's comment states its contract: the inputs it declines, by
   returning None before it touches the rng or allocates anything, and what
   its callers check. */
#define PY_SSIZE_T_CLEAN
#include <Python.h>

/* An MT19937 state as CPython's RandomObject (Modules/_randommodule.c) holds
   it: index, the place of the next word, then the 624 words. getstate()
   returns the words and then index. */
typedef struct {
    int index;
    uint32_t state[624];
} Twister;

/* The next tempered word of mt, twisting all 624 once they are used, as
   genrand_uint32 in Modules/_randommodule.c does. */
static uint32_t next_word(Twister *mt)
{
    uint32_t y, *s = mt->state;
    if (mt->index >= 624) {
        for (int k = 0; k < 624; k++) {
            y = (s[k] & 0x80000000U) | (s[k < 623 ? k + 1 : 0] & 0x7fffffffU);
            s[k] = s[k < 227 ? k + 397 : k - 227] ^ (y >> 1) ^ (-(y & 1U) & 0x9908b0dfU);
        }
        mt->index = 0;
    }
    y = s[mt->index++];
    y ^= y >> 11;
    y ^= (y << 7) & 0x9d2c5680U;
    y ^= (y << 15) & 0xefc60000U;
    return y ^ (y >> 18);
}

/* random.Random.random(): 53 bits from two words. */
static double random_float(Twister *mt)
{
    uint32_t a = next_word(mt) >> 5, b = next_word(mt) >> 6;
    return (a * 67108864.0 + b) * (1.0 / 9007199254740992.0);
}

/* k uniform in [0, m), 1 <= m < 2**32: getrandbits(m.bit_length()), one word
   shifted right, redrawn until below m, as _randbelow_with_getrandbits does. */
static long draw_below(Twister *mt, long m)
{
    long k;
    do
        k = next_word(mt) >> __builtin_clz((uint32_t)m);
    while (k >= m);
    return k;
}

/* A _random.Random's layout, RandomObject in Modules/_randommodule.c. */
typedef struct {
    PyObject_HEAD
    Twister mt;
} RandomObject;

static PyTypeObject *random_type;  /* _random.Random, imported at the first handover */
static int same_layout = -1;       /* whether RandomObject is its layout; -1 until checked */

/* rng's Twister, for the kernel to draw from in place; NULL with TypeError
   set when rng is not a _random.Random, and NULL with no exception set, to
   decline, when RandomObject is not its layout. The first call imports
   _random.Random and checks the layout: the type's basic size holds the
   struct, and a seeded instance, drawn from once so that index is 2 and not
   the 624 that seeding leaves, has the fields its getstate() returns. */
static Twister *twister(PyObject *rng)
{
    if (same_layout < 0) {
        PyObject *module = PyImport_ImportModule("_random");
        PyObject *fresh = module ? PyObject_CallMethod(module, "Random", "i", 1) : NULL;
        random_type = fresh ? (PyTypeObject *)Py_NewRef(Py_TYPE(fresh)) : NULL;
        Py_XDECREF(fresh ? PyObject_CallMethod(fresh, "random", NULL) : NULL);
        PyObject *state = PyErr_Occurred() ? NULL : PyObject_CallMethod(fresh, "getstate", NULL);
        const Twister *mt = fresh ? &((RandomObject *)fresh)->mt : NULL;
        same_layout = state != NULL && PyTuple_Check(state) && PyTuple_GET_SIZE(state) == 625
                      && random_type->tp_basicsize >= (Py_ssize_t)sizeof(RandomObject);
        for (Py_ssize_t i = 0; same_layout && i < 625; i++)
            same_layout = PyLong_AsUnsignedLong(PyTuple_GET_ITEM(state, i))
                          == (i < 624 ? mt->state[i] : (unsigned long)mt->index);
        PyErr_Clear();
        Py_XDECREF(module);
        Py_XDECREF(fresh);
        Py_XDECREF(state);
    }
    if (same_layout && !PyObject_TypeCheck(rng, random_type))
        return (Twister *)PyErr_Format(PyExc_TypeError, "rng must be a _random.Random, not %.200s",
                                       Py_TYPE(rng)->tp_name);
    return same_layout ? &((RandomObject *)rng)->mt : NULL;
}

/* Copies genes into tour when it is a tuple of ints permuting 0..n-1 (n >= 1);
   else 0, with no exception set. */
static int read_tour(PyObject *genes, Py_ssize_t n, int *tour, unsigned char *seen)
{
    if (!PyTuple_Check(genes) || PyTuple_GET_SIZE(genes) != n)
        return 0;
    memset(seen, 0, n);
    for (Py_ssize_t i = 0; i < n; i++) {
        PyObject *item = PyTuple_GET_ITEM(genes, i);
        long city = PyLong_CheckExact(item) ? PyLong_AsLong(item) : -1;
        if (city < 0 || city >= n || seen[city]) {
            PyErr_Clear();
            return 0;
        }
        seen[city] = 1;
        tour[i] = (int)city;
    }
    return 1;
}

/* 1, storing obj at *x, when obj is an int in [0, max], max below 2**64;
   else 0, with no exception set. */
static int bounded(PyObject *obj, uint64_t max, uint64_t *x)
{
    if (!PyLong_CheckExact(obj))
        return 0;
    *x = PyLong_AsUnsignedLongLong(obj);
    if (*x == (uint64_t)-1 && PyErr_Occurred()) {  /* negative, or 2**64 or more */
        PyErr_Clear();
        return 0;
    }
    return *x <= max;
}

/* The list of count tours of n cities, as tuples of ints, and the list of
   their lengths, as a pair, or NULL with an exception set. */
static PyObject *population(const int *tours, const uint64_t *lengths, Py_ssize_t count,
                            Py_ssize_t n)
{
    PyObject **ints = PyMem_Calloc(n, sizeof(PyObject *)), *result = NULL;
    PyObject *genes = ints ? PyList_New(count) : PyErr_NoMemory();
    PyObject *sizes = genes ? PyList_New(count) : NULL;
    int ok = sizes != NULL;
    for (Py_ssize_t i = 0; ok && i < n; i++)
        ok = (ints[i] = PyLong_FromSsize_t(i)) != NULL;
    for (Py_ssize_t k = 0; ok && k < count; k++) {
        PyObject *tour = PyTuple_New(n);
        PyObject *length = tour ? PyLong_FromUnsignedLongLong(lengths[k]) : NULL;
        for (Py_ssize_t i = 0; tour != NULL && i < n; i++)
            PyTuple_SET_ITEM(tour, i, Py_NewRef(ints[tours[k * n + i]]));
        PyList_SET_ITEM(genes, k, tour);
        PyList_SET_ITEM(sizes, k, length);
        ok = tour != NULL && length != NULL;
    }
    if (ok)
        result = PyTuple_Pack(2, genes, sizes);
    for (Py_ssize_t i = 0; ints != NULL && i < n; i++)
        Py_XDECREF(ints[i]);
    PyMem_Free(ints);
    Py_XDECREF(genes);
    Py_XDECREF(sizes);
    return result;
}

/* The directed length of the closed tour. */
static uint64_t tour_length(const int *tour, const long long *dist, Py_ssize_t n)
{
    uint64_t length = 0;
    for (Py_ssize_t i = 0, prev = tour[n - 1]; i < n; prev = tour[i++])
        length += dist[prev * n + tour[i]];
    return length;
}

/* Whether city c's bit is set in the bitmap open_cities. */
static int is_open(const uint64_t *open_cities, int c)
{
    return (open_cities[c >> 6] >> (c & 63)) & 1;
}

/* Fills tour[] with the greedy crossover of the parents whose successor arrays
   are sa and sb, from city first, and returns its length, summed as the tour
   is built. open_cities is scratch for (n + 63) / 64 words, one set bit per
   unvisited city. A dead end draws k below the open count as randrange does
   and takes the k-th set bit in ascending order, skipping whole words by
   their popcount. */
static uint64_t crossover(const int *sa, const int *sb, int first, const long long *dist,
                          Py_ssize_t n, Twister *mt, uint64_t *open_cities, int *tour)
{
    Py_ssize_t words = (n + 63) / 64;
    memset(open_cities, 0xff, words * sizeof *open_cities);
    if (n % 64)
        open_cities[words - 1] = (UINT64_C(1) << (n % 64)) - 1;
    int current = tour[0] = first;
    open_cities[current >> 6] &= ~(UINT64_C(1) << (current & 63));
    uint64_t sum = 0;
    for (Py_ssize_t i = 1; i < n; i++) {
        const long long *row = dist + (Py_ssize_t)current * n;
        int ea = sa[current], eb = sb[current], nxt;
        if (is_open(open_cities, ea))
            nxt = (is_open(open_cities, eb) && row[eb] < row[ea]) ? eb : ea;
        else if (is_open(open_cities, eb))
            nxt = eb;
        else {
            long k = draw_below(mt, n - i);
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
        sum += row[nxt];
        current = tour[i] = nxt;
    }
    return sum + dist[(Py_ssize_t)current * n + first];
}

/* n, holding view, when obj is a C-ordered n x n matrix with n >= 2 of
   native 8-byte items whose struct format is one of the letters in formats
   ("lq" for integers, "d" for doubles); else 0, holding nothing, with no
   exception set. It is every entry's one check of n >= 2. */
static Py_ssize_t matrix(PyObject *obj, Py_buffer *view, const char *formats)
{
    if (PyObject_GetBuffer(obj, view, PyBUF_RECORDS_RO) < 0) {
        PyErr_Clear();
        return 0;
    }
    const char *format = view->format ? view->format + (view->format[0] == '@') : "B";
    if (view->ndim == 2 && view->shape[0] == view->shape[1] && view->shape[0] >= 2
        && view->itemsize == 8 && format[0] != '\0' && format[1] == '\0'
        && strchr(formats, format[0]) != NULL && PyBuffer_IsContiguous(view, 'C'))
        return view->shape[0];
    PyBuffer_Release(view);
    return 0;
}

/* A member's length and index; qsort by_length orders them as a stable sort
   by length does. */
typedef struct {
    uint64_t length;
    Py_ssize_t index;
} Ranked;

static int by_length(const void *a, const void *b)
{
    const Ranked *x = a, *y = b;
    return x->length != y->length ? (x->length > y->length) - (x->length < y->length)
                                  : (x->index > y->index) - (x->index < y->index);
}

/* A kernel call's GaParams and generations, and its population: p members of
   n cities in one block of C arrays, with the scratch of their generations
   and room to stage count >= p records. */
typedef struct {
    double threshold, cross_prob, mutation_prob;
    Py_ssize_t retries, elite, generations, n, p;
    uint64_t *sizes, *open_cities;  /* p + count lengths; (n + 63) / 64 words */
    double *cum;
    Ranked *ranked;                 /* count */
    int *tours;                     /* 3p + count tours, then 4p ints (see run) */
    unsigned char *seen;
    int *now;                       /* the last generation, set by run */
    uint64_t *length;
    int *guide, *class_of, *first_of;  /* p each, set by run; see draw and select_retry */
    Py_ssize_t classes;             /* -1 until the generation's first rejected try */
} Population;

/* One Ranking.draw, order[bisect_right(cum, random())], from a guide table
   (Chen & Asau 1974; Devroye 1986, III.2.4): guide[b] is the first rank whose
   cum exceeds b / p. The walk starts at x's bucket, steps back while x is
   below the rank before and forward while it is not below its own, so it
   ends on bisect_right's rank whatever the rounding of x * p; random() is
   below 1.0, which is cum[p - 1], so it never passes the last rank. */
static int draw(Twister *mt, const Population *pop, const int *order)
{
    double x = random_float(mt);
    Py_ssize_t b = (Py_ssize_t)(x * (double)pop->p);
    Py_ssize_t lo = pop->guide[b < pop->p ? b : pop->p - 1];
    while (lo > 0 && x < pop->cum[lo - 1])
        lo--;
    while (x >= pop->cum[lo])
        lo++;
    return order[lo];
}

/* Member i's duplicate class in this generation: that of the first
   classified member whose canonical row equals i's, or a new one. */
static int duplicate_class(Population *pop, const int *rows, int i)
{
    if (pop->class_of[i] < 0) {
        Py_ssize_t n = pop->n, c = 0;
        while (c < pop->classes
               && memcmp(rows + (Py_ssize_t)pop->first_of[c] * n, rows + (Py_ssize_t)i * n,
                         n * sizeof *rows) != 0)
            c++;
        if (c == pop->classes)
            pop->first_of[pop->classes++] = i;
        pop->class_of[i] = (int)c;
    }
    return pop->class_of[i];
}

/* ga.select_parents' retry loop over pop's p canonical rows of n cities: up
   to retries tries of two draws, *ib redrawn while it equals *ia, ending at
   the first pair whose rows agree in at most threshold of their n places,
   else at the last pair. From the generation's first rejected try on, each
   member is put in a duplicate class at its first try, and a pair of one
   class agrees in all n places with no scan; a generation with no rejected
   try, as on a diverse population, classifies nothing. */
static void select_retry(Population *pop, Twister *mt, const int *order, const int *rows,
                         int *ia, int *ib)
{
    Py_ssize_t n = pop->n;
    for (Py_ssize_t t = 0; t < pop->retries; t++) {
        *ia = draw(mt, pop, order);
        do
            *ib = draw(mt, pop, order);
        while (*ib == *ia);
        Py_ssize_t same = 0;
        if (pop->classes >= 0
            && duplicate_class(pop, rows, *ia) == duplicate_class(pop, rows, *ib))
            same = n;
        else {
            const int *ra = rows + (Py_ssize_t)*ia * n, *rb = rows + (Py_ssize_t)*ib * n;
            for (Py_ssize_t j = 0; j < n; j++)
                same += ra[j] == rb[j];
        }
        if ((double)same / (double)n <= pop->threshold)
            break;
        pop->classes += pop->classes < 0;  /* the first rejected try starts the classes */
    }
}

/* n, holding view, when args are (distances, threshold, retries,
   crossover_prob, mutation_prob, elite_count, generations) with distances a
   C-ordered n x n int64 matrix, n >= 2, the numbers converting, retries >= 1,
   elite_count >= 1 and generations >= 0, which it stores in pop; else 0,
   holding nothing, with no exception set. */
static Py_ssize_t read_ga(PyObject *const *args, Population *pop, Py_buffer *view)
{
    pop->threshold = PyFloat_AsDouble(args[1]);
    pop->cross_prob = PyFloat_AsDouble(args[3]);
    pop->mutation_prob = PyFloat_AsDouble(args[4]);
    pop->retries = PyLong_AsSsize_t(args[2]);
    pop->elite = PyLong_AsSsize_t(args[5]);
    pop->generations = PyLong_AsSsize_t(args[6]);
    Py_ssize_t n = PyErr_Occurred() || pop->retries < 1 || pop->elite < 1
                   || pop->generations < 0 ? 0 : matrix(args[0], view, "lq");
    PyErr_Clear();
    return n;
}

/* 1 when pop's block is allocated for p members of n cities and count >= p
   records, PyMem_Free(pop->sizes) freeing it; else 0. */
static int alloc_population(Population *pop, Py_ssize_t n, Py_ssize_t p, Py_ssize_t count)
{
    Py_ssize_t words = (n + 63) / 64, ints = (3 * p + count) * n + 4 * p;
    /* the 8-byte arrays first, then the ints and the bytes */
    pop->sizes = PyMem_Malloc(8 * (p + count + words + p) + sizeof(Ranked) * count
                              + sizeof(int) * ints + n);
    if (pop->sizes == NULL)
        return 0;
    pop->n = n;
    pop->p = p;
    pop->open_cities = pop->sizes + p + count;
    pop->cum = (double *)(pop->open_cities + words);
    pop->ranked = (Ranked *)(pop->cum + p);
    pop->tours = (int *)(pop->ranked + count);
    pop->seen = (unsigned char *)(pop->tours + ints);
    return 1;
}

/* ga.evolve's loop over pop, its first p tours and lengths, with dist's
   weights: up to pop->generations generations, stopping after the first at
   which stop_reason would fire for patience (0: never) and target (None:
   never), with each generation's shortest length appended to bests unless
   bests is NULL (then patience and target are not read). Draws from mt. 1
   when done, pop->now and pop->length then holding the last generation; 0
   with an exception set. */
static int run(Population *pop, const long long *dist, Twister *mt, Py_ssize_t patience,
               PyObject *target, PyObject *bests)
{
    Py_ssize_t p = pop->p, n = pop->n;
    for (Py_ssize_t r = 1, total = p * (p + 1) / 2; r <= p; r++)
        pop->cum[r - 1] = (double)(r * (r + 1) / 2) / (double)total;
    int *now = pop->tours, *next = now + p * n, *succ = next + p * n, *rows = succ + p * n;
    int *order = rows + p * n;
    pop->guide = order + p;
    pop->class_of = pop->guide + p;
    pop->first_of = pop->class_of + p;
    /* guide[b]: the first rank whose cum exceeds b / p (see draw) */
    for (Py_ssize_t b = 0, r = 0; b < p; pop->guide[b++] = (int)r)
        while (pop->cum[r] <= (double)b / (double)p)
            r++;
    uint64_t *length = pop->sizes, *next_length = length + p, best = 0;
    Ranked *ranked = pop->ranked;
    for (Py_ssize_t i = 0; i < p; i++)
        best = i == 0 || length[i] < best ? length[i] : best;
    /* same: how many of the last history entries equal the last one; stop_reason's
       tail of a negative patience is one entry or none, so it fires at once */
    Py_ssize_t same = 1;
    for (Py_ssize_t g = 1, stop = 0; !stop && g <= pop->generations; g++) {
        for (Py_ssize_t i = 0; i < p; i++) {
            const int *tour = now + i * n;
            int *s = succ + i * n;
            for (Py_ssize_t j = 0, prev = tour[n - 1]; j < n; prev = tour[j++])
                s[prev] = tour[j];
            for (Py_ssize_t j = 0, city = 0; j < n; j++, city = s[city])
                rows[i * n + j] = (int)city;
            ranked[i] = (Ranked){length[i], i};
            pop->class_of[i] = -1;
        }
        pop->classes = -1;
        qsort(ranked, p, sizeof *ranked, by_length);
        /* the Ranking's order: longest first, ties in member order */
        for (Py_ssize_t end = p, k = 0, start; end > 0; end = start) {
            for (start = end - 1; start > 0 && ranked[start - 1].length == ranked[end - 1].length;)
                start--;
            for (Py_ssize_t i = start; i < end; i++)
                order[k++] = (int)ranked[i].index;
        }
        for (Py_ssize_t k = 0; k < p; k++) {
            int *child = next + k * n, ia = (int)ranked[k].index, ib = ia;
            if (k >= pop->elite) {
                select_retry(pop, mt, order, rows, &ia, &ib);
                if (random_float(mt) < pop->cross_prob) {
                    next_length[k] = crossover(succ + (Py_ssize_t)ia * n, succ + (Py_ssize_t)ib * n,
                                               now[(Py_ssize_t)ia * n], dist, n, mt,
                                               pop->open_cities, child);
                    ia = -1;
                }
                else if (length[ib] < length[ia])
                    ia = ib;
            }
            if (ia >= 0) {
                memcpy(child, now + (Py_ssize_t)ia * n, n * sizeof *child);
                next_length[k] = length[ia];
            }
            if (k >= pop->elite && pop->mutation_prob > 0.0
                && random_float(mt) < pop->mutation_prob) {
                long i = draw_below(mt, n), j = draw_below(mt, n - 1);
                j += j >= i;
                int city = child[i];
                child[i] = child[j];
                child[j] = city;
                next_length[k] = tour_length(child, dist, n);
            }
        }
        int *swap = now;
        now = next;
        next = swap;
        uint64_t *swap_length = length, last = best;
        length = next_length;
        next_length = swap_length;
        for (Py_ssize_t i = 0; i < p; i++)
            best = i == 0 || length[i] < best ? length[i] : best;
        same = best == last ? same + 1 : 1;
        if (bests != NULL) {
            PyObject *value = PyLong_FromUnsignedLongLong(best);
            stop = value == NULL || PyList_Append(bests, value) < 0
                   || (patience != 0 && same >= patience)
                   || (target != Py_None && PyObject_RichCompareBool(value, target, Py_LE) != 0);
            Py_XDECREF(value);
        }
    }
    pop->now = now;
    pop->length = length;
    return !PyErr_Occurred();
}

/* evolve(genes, lengths, distances, threshold, retries, crossover_prob,
   mutation_prob, elite_count, generations, patience, target, rng) -> (genes,
   lengths, bests): run's loop over the population. None, before rng is
   touched, unless distances is a C-ordered n x n int64 matrix with n >= 2,
   genes a list of p >= 2 tuples permuting 0..n-1, lengths a list of p ints
   below 2**64, 0 < elite_count < p, generations >= 0, retries >= 1, patience
   None or an int, target None, an int or a float, and the numbers convert,
   or when twister declines; TypeError when rng is not a _random.Random.
   Its callers check that rng is an exact random.Random with no instance
   override of a method and that no tour weighs more than 2**64 - 1. */
static PyObject *evolve(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 12)
        return PyErr_Format(PyExc_TypeError, "expected 12 arguments, got %zd", nargs);
    PyObject *genes = args[0], *lengths = args[1], *target = args[10];
    Py_ssize_t patience = args[9] == Py_None ? 0 : PyLong_AsSsize_t(args[9]);
    int declined = PyErr_Occurred() != NULL
        || (target != Py_None && !PyLong_CheckExact(target) && !PyFloat_CheckExact(target));
    PyErr_Clear();
    Population pop = {0};
    Py_buffer view;
    Py_ssize_t n = declined ? 0 : read_ga(args + 2, &pop, &view);
    Py_ssize_t p = PyList_Check(genes) ? PyList_GET_SIZE(genes) : 0;
    PyObject *bests = NULL, *made = NULL, *result = Py_None;  /* borrowed until done */
    if (n == 0 || p < 2 || pop.elite >= p || !PyList_Check(lengths) || PyList_GET_SIZE(lengths) != p)
        goto done;
    if (!alloc_population(&pop, n, p, p)) {
        result = PyErr_NoMemory();
        goto done;
    }
    for (Py_ssize_t i = 0; i < p; i++)
        if (!read_tour(PyList_GET_ITEM(genes, i), n, pop.tours + i * n, pop.seen)
            || !bounded(PyList_GET_ITEM(lengths, i), UINT64_MAX, pop.sizes + i))
            goto done;
    Twister *mt = twister(args[11]);
    result = mt == NULL && !PyErr_Occurred() ? Py_None : NULL;
    if (mt != NULL && (bests = PyList_New(0)) != NULL
        && run(&pop, view.buf, mt, patience, target, bests)
        && (made = population(pop.now, pop.length, p, n)) != NULL)
        result = PyTuple_Pack(3, PyTuple_GET_ITEM(made, 0), PyTuple_GET_ITEM(made, 1), bests);
done:
    Py_XDECREF(made);
    Py_XDECREF(bests);
    PyMem_Free(pop.sizes);
    if (n > 0)
        PyBuffer_Release(&view);
    return result == Py_None ? Py_NewRef(Py_None) : result;
}

/* random_tours(count, distances, rng) -> (tours, lengths): count tours, each
   list(range(n)) with i swapped for randbelow(i + 1) at i = n-1 ... 1 as
   random.shuffle does, and their lengths. None, before rng is touched, unless
   count >= 0 and distances is a C-ordered n x n int64 matrix with n >= 2,
   or when twister declines; TypeError when rng is not a _random.Random.
   Its callers check rng and the tour lengths as evolve's do. */
static PyObject *random_tours(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 3)
        return PyErr_Format(PyExc_TypeError, "expected 3 arguments, got %zd", nargs);
    Py_ssize_t count = PyLong_AsSsize_t(args[0]);
    if (count == -1 && PyErr_Occurred())
        return NULL;
    Py_buffer view;
    Py_ssize_t n = matrix(args[1], &view, "lq");
    Twister *mt = n > 0 && count >= 0 ? twister(args[2]) : NULL;
    if (mt == NULL) {
        if (n > 0)
            PyBuffer_Release(&view);
        return PyErr_Occurred() ? NULL : Py_NewRef(Py_None);
    }
    int *tours = count <= PY_SSIZE_T_MAX / 16 / n ? PyMem_New(int, count * n) : NULL;
    uint64_t *lengths = PyMem_New(uint64_t, count);
    PyObject *result = NULL;
    if (tours == NULL || lengths == NULL)
        PyErr_NoMemory();
    else {
        for (Py_ssize_t k = 0; k < count; k++) {
            int *tour = tours + k * n;
            for (int i = 0; i < n; i++)
                tour[i] = i;
            for (Py_ssize_t i = n - 1; i > 0; i--) {
                long j = draw_below(mt, i + 1);
                int city = tour[i];
                tour[i] = tour[j];
                tour[j] = city;
            }
            lengths[k] = tour_length(tour, view.buf, n);
        }
        result = population(tours, lengths, count, n);
    }
    PyMem_Free(lengths);
    PyMem_Free(tours);
    PyBuffer_Release(&view);
    return result;
}

/* The little-endian u32 at p. */
static unsigned long u32_at(const unsigned char *p)
{
    return p[0] | (unsigned long)p[1] << 8 | (unsigned long)p[2] << 16 | (unsigned long)p[3] << 24;
}

/* 1 when each of the count records is a bytes of 16 + 4n bytes that passes
   codec.decode_chromosome's checks with pop_id == key and N == n, copying its
   genes into tours and its length into lengths; else 0, with no exception
   set. seen is scratch for n bytes. */
static int read_records(PyObject *const *items, Py_ssize_t count, unsigned long key,
                        Py_ssize_t n, int *tours, uint64_t *lengths, unsigned char *seen)
{
    for (Py_ssize_t k = 0; k < count; k++) {
        if (!PyBytes_Check(items[k]) || PyBytes_GET_SIZE(items[k]) != 16 + 4 * n)
            return 0;
        const unsigned char *data = (const unsigned char *)PyBytes_AS_STRING(items[k]);
        if (u32_at(data) != key || u32_at(data + 4) != (unsigned long)n)
            return 0;
        const unsigned char *gene = data + 8;
        memset(seen, 0, n);
        for (Py_ssize_t i = 0; i < n; i++, gene += 4) {
            unsigned long city = u32_at(gene);
            if (city >= (unsigned long)n || seen[city])
                return 0;
            seen[city] = 1;
            tours[k * n + i] = (int)city;
        }
        lengths[k] = u32_at(gene) | (uint64_t)u32_at(gene + 4) << 32;
    }
    return 1;
}

/* Stores the low 32 bits of x at p, little-endian. */
static void put_u32(unsigned char *p, unsigned long x)
{
    p[0] = (unsigned char)x;
    p[1] = (unsigned char)(x >> 8);
    p[2] = (unsigned char)(x >> 16);
    p[3] = (unsigned char)(x >> 24);
}

/* The records of pop's members keyed to key, then the first shortest one's
   re-addressed to each island below islands but key, in ascending order, as
   a list of bytes; NULL with an exception set. */
static PyObject *island_records(const Population *pop, unsigned long key, unsigned long islands)
{
    Py_ssize_t p = pop->p, n = pop->n, best = 0, size = 16 + 4 * n;
    for (Py_ssize_t k = 1; k < p; k++)
        best = pop->length[k] < pop->length[best] ? k : best;
    Py_ssize_t count = p + (Py_ssize_t)islands - (key < islands);
    PyObject *records = PyList_New(count);
    for (Py_ssize_t k = 0, other = 0; records != NULL && k < count; k++) {
        PyObject *value = PyBytes_FromStringAndSize(NULL, size);
        if (value == NULL) {
            Py_CLEAR(records);
            break;
        }
        PyList_SET_ITEM(records, k, value);
        unsigned char *data = (unsigned char *)PyBytes_AS_STRING(value);
        if (k < p) {  /* pop_id, N, the N genes, and the length's low and high words */
            put_u32(data, key);
            put_u32(data + 4, (unsigned long)n);
            for (Py_ssize_t i = 0; i < n; i++)
                put_u32(data + 8 + 4 * i, (unsigned long)pop->now[k * n + i]);
            put_u32(data + 8 + 4 * n, (unsigned long)(pop->length[k] & 0xFFFFFFFF));
            put_u32(data + 12 + 4 * n, (unsigned long)(pop->length[k] >> 32));
            continue;
        }
        memcpy(data, PyBytes_AS_STRING(PyList_GET_ITEM(records, best)), size);
        other += (unsigned long)other == key;
        put_u32(data, (unsigned long)other++);
    }
    return records;
}

/* evolve_island(values, key, islands, size, distances, threshold, retries,
   crossover_prob, mutation_prob, elite_count, generations, rng) -> list of
   bytes: an island's reduce task. It decodes the records, as
   island.decode_island does with n the instance's city count, keeps the size
   shortest when there are more (ga.shortest's order), runs run's loop over
   them for generations generations and returns the records of the p members
   kept, keyed to key, then the first shortest one's re-addressed to every
   other island below islands, in ascending order, as island.EvolveReducer's
   reference path encodes them with codec.encode_chromosome. None,
   before rng is touched, unless distances, the numbers and generations are
   as evolve takes them, key and islands are ints below 2**32, values is a
   list or tuple of records that all pass codec.decode_chromosome's checks
   with pop_id == key and N == n, and 0 < elite_count < p with p =
   min(len(values), size), or when twister declines; TypeError when rng is not
   a _random.Random. Its callers check rng and the tour lengths as evolve's
   do. */
static PyObject *evolve_island(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 12)
        return PyErr_Format(PyExc_TypeError, "expected 12 arguments, got %zd", nargs);
    Py_ssize_t size = PyLong_AsSsize_t(args[3]);
    PyErr_Clear();
    uint64_t key, islands;
    Population pop = {0};
    Py_buffer view;
    Py_ssize_t n = read_ga(args + 4, &pop, &view);
    PyObject *result = Py_None;
    if (n == 0 || !bounded(args[1], 0xFFFFFFFF, &key) || !bounded(args[2], 0xFFFFFFFF, &islands)
        || (!PyList_Check(args[0]) && !PyTuple_Check(args[0])))
        goto done;
    Py_ssize_t count = PySequence_Fast_GET_SIZE(args[0]), p = count < size ? count : size;
    if (p < 2 || pop.elite >= p)
        goto done;
    if (!alloc_population(&pop, n, p, count)) {
        result = PyErr_NoMemory();
        goto done;
    }
    /* more than p records are staged past the first p tours and lengths; they are
       read before any call that could run Python code and change values */
    int *tours = pop.tours + (count > p) * p * n;
    uint64_t *lengths = pop.sizes + (count > p) * p;
    if (!read_records(PySequence_Fast_ITEMS(args[0]), count, (unsigned long)key, n, tours, lengths,
                      pop.seen))
        goto done;
    if (count > p) {
        for (Py_ssize_t k = 0; k < count; k++)
            pop.ranked[k] = (Ranked){lengths[k], k};
        qsort(pop.ranked, count, sizeof *pop.ranked, by_length);
        for (Py_ssize_t k = 0; k < p; k++) {
            memcpy(pop.tours + k * n, tours + pop.ranked[k].index * n, n * sizeof *tours);
            pop.sizes[k] = pop.ranked[k].length;
        }
    }
    Twister *mt = twister(args[11]);
    result = mt == NULL && !PyErr_Occurred() ? Py_None : NULL;
    if (mt != NULL && run(&pop, view.buf, mt, 0, Py_None, NULL))
        result = island_records(&pop, (unsigned long)key, (unsigned long)islands);
done:
    PyMem_Free(pop.sizes);
    if (n > 0)
        PyBuffer_Release(&view);
    return result == Py_None ? Py_NewRef(Py_None) : result;
}

/* held_karp(distances) -> (length, tour): oracle.held_karp's DP over (visited
   set, last city), giving the optimum directed tour's length as a float and
   the tour as a tuple of ints from city 0, equal to the numpy DP's. Masks are
   visited in ascending order; dp[mask][j], the shortest path from 0 through
   the cities of mask to j, is the first minimum, in ascending i over the
   cities of mask ^ 1 << j, of dp[mask ^ 1 << j][i] + d[i][j], which is what
   numpy's argmin over all n cities picks, since dp is +inf outside a mask and
   city 0 is in every one. Every mask holds city 0, so the tables are indexed
   by mask >> 1 and take 9 * 2**(n-1) * n bytes. None, before anything is
   allocated, unless distances is a C-ordered n x n float64 matrix with
   2 <= n <= 18 and no NaN or -inf entry, whose sums outside a mask argmin
   would pick; MemoryError if the tables cannot be allocated. */
static PyObject *held_karp(PyObject *module, PyObject *distances)
{
    Py_buffer view;
    Py_ssize_t n = matrix(distances, &view, "d");
    const double *d = n > 0 ? view.buf : NULL;
    int ok = n > 0 && n <= 18;
    for (Py_ssize_t k = 0; ok && k < n * n; k++)
        ok = d[k] > -INFINITY;
    if (!ok) {
        if (n > 0)
            PyBuffer_Release(&view);
        Py_RETURN_NONE;
    }
    Py_ssize_t rows = (Py_ssize_t)1 << (n - 1);  /* row = mask >> 1; city c >= 1 is bit c - 1 */
    double *dp = PyMem_Malloc(rows * n * (sizeof *dp + 1));
    if (dp == NULL) {
        PyBuffer_Release(&view);
        return PyErr_NoMemory();
    }
    signed char *parent = (signed char *)(dp + rows * n);
    for (Py_ssize_t row = 0; row < rows; row++)
        dp[row * n] = row == 0 ? 0.0 : INFINITY;  /* only the empty path ends at city 0 */
    for (Py_ssize_t row = 1; row < rows; row++)
        for (Py_ssize_t js = row; js; js &= js - 1) {
            int j = __builtin_ctzl(js) + 1, arg = 0;
            Py_ssize_t prev = row ^ (js & -js);
            const double *from = dp + prev * n;
            double best = from[0] + d[j];
            for (Py_ssize_t is = prev; is; is &= is - 1) {
                int i = __builtin_ctzl(is) + 1;
                double sum = from[i] + d[i * n + j];
                if (sum < best) {
                    best = sum;
                    arg = i;
                }
            }
            dp[row * n + j] = best;
            parent[row * n + j] = (signed char)arg;
        }
    /* the closing edge; dp[full][0] is +inf, so city 0 wins only when all are */
    const double *full = dp + (rows - 1) * n;
    double length = full[0] + d[0];
    int last = 0, cities[18], count = 0;
    for (int i = 1; i < n; i++) {
        double sum = full[i] + d[i * n];
        if (sum < length) {
            length = sum;
            last = i;
        }
    }
    for (Py_ssize_t row = rows - 1, j = last; j;) {
        cities[count++] = (int)j;
        Py_ssize_t i = parent[row * n + j];
        row ^= (Py_ssize_t)1 << (j - 1);
        j = i;
    }
    PyMem_Free(dp);
    PyBuffer_Release(&view);
    PyObject *tour = PyTuple_New(count + 1);
    for (int t = 0; tour != NULL && t <= count; t++) {
        PyObject *city = PyLong_FromLong(t == 0 ? 0 : cities[count - t]);
        if (city == NULL)
            Py_CLEAR(tour);
        else
            PyTuple_SET_ITEM(tour, t, city);
    }
    return tour == NULL ? NULL : Py_BuildValue("(dN)", length, tour);
}

static PyMethodDef methods[] = {
    {"evolve", (PyCFunction)(void (*)(void))evolve, METH_FASTCALL, NULL},
    {"evolve_island", (PyCFunction)(void (*)(void))evolve_island, METH_FASTCALL, NULL},
    {"random_tours", (PyCFunction)(void (*)(void))random_tours, METH_FASTCALL, NULL},
    {"held_karp", held_karp, METH_O, NULL},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {PyModuleDef_HEAD_INIT, "_xover", NULL, 0, methods};

PyMODINIT_FUNC PyInit__xover(void)
{
    return PyModuleDef_Init(&module);
}
