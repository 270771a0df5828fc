/* Compiled twin of matching._scan_states, the pure-Python reference kernel.
 *
 * scan(delta, accept, data, depth) walks data through the dense table
 * delta[state * 256 + byte] (uint32 items, one row per state) and returns the
 * set of states s with accept[s] != 0 that the walk from state 0 enters.
 * depth is the length of the longest pattern, the deepest state of the trie.
 *
 * One walk is a chain of dependent loads: each byte's table read needs the
 * state the previous read returned, so the walk runs at load latency. Long
 * data is therefore walked as LANES interleaved lanes in one lockstep loop,
 * whose independent loads overlap. The lanes record the same states as the
 * single walk because an automaton state is the longest suffix of the input
 * read so far that is also a trie prefix, and that suffix is never longer
 * than depth: a walk started at state 0 anywhere is in the single walk's
 * state once it has read depth bytes. So:
 *   - lane j starts at byte j * region from state 0 and takes the same number
 *     of steps as every other lane;
 *   - lane 0 records every state it enters; lane j >= 1 first walks depth - 1
 *     bytes without recording, and from then on is in the single walk's state;
 *   - the recorded stretches tile the data, and the last lane runs on alone to
 *     its end, so its final state is the single walk's end state.
 * Lanes are used only when each region is at least depth - 1 + MIN_REGION
 * bytes; shorter data is walked by the last lane alone, from byte 0. A depth
 * smaller than the true one cannot make a read leave the data or the tables;
 * it only changes which states are recorded near lane starts.
 *
 * Every state is checked against the table size before it is used, so a
 * table entry naming a state that does not exist raises ValueError instead of
 * reading past the table.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>

/* Chosen by measurement on a 2-vCPU x86-64 host (see CHANGES.md). With the
 * 314-state corpus automaton, 6 to 10 lanes cut a 1,446-byte walk about 3x;
 * with a 38k-state automaton, whose rows miss the L1 cache, 8 lanes beat 6.
 * Lanes already beat one walk when each region is only depth - 1 bytes long;
 * MIN_REGION keeps the lockstep loop off data of a few dozen bytes, where the
 * call's fixed cost dominates either way. */
#define LANES 8
#define MIN_REGION 4

static int
get_buffer(PyObject *obj, Py_buffer *view, Py_ssize_t itemsize, const char *what)
{
    if (PyObject_GetBuffer(obj, view, PyBUF_STRIDES) < 0)
        return -1;
    if (!PyBuffer_IsContiguous(view, 'C')) {
        PyErr_Format(PyExc_ValueError, "%s buffer is not C-contiguous", what);
        return -1;
    }
    if (view->itemsize != itemsize) {
        PyErr_Format(PyExc_TypeError, "%s items must be %zd bytes, not %zd", what, itemsize, view->itemsize);
        return -1;
    }
    return 0;
}

static int
add_hit(PyObject *hits, uint64_t state)
{
    PyObject *v = PyLong_FromUnsignedLongLong(state);
    int rc = v == NULL ? -1 : PySet_Add(hits, v);
    Py_XDECREF(v);
    return rc;
}

/* X(j) for each lane j < LANES. Each lane's state is its own variable, not an
 * array item, so that the compiler keeps it in a register. */
#define EACH_LANE(X) X(0) X(1) X(2) X(3) X(4) X(5) X(6) X(7)
#define LAST_LANE 7
#define S(j) S_(j) /* lane j's state: s0, s1, ... */
#define S_(j) s##j
#define LAST(j) LAST_(j) /* the state lane j added to hits last; n while none */
#define LAST_(j) last##j

/* Take lane j's next step, reading byte pos; an out-of-range entry would index past the table. */
#define STEP(j, pos)                                                                                               \
    do {                                                                                                           \
        S(j) = delta[(S(j) << 8) | p[pos]];                                                                        \
        if (S(j) >= n) {                                                                                           \
            bad = S(j);                                                                                            \
            goto bad_state;                                                                                        \
        }                                                                                                          \
    } while (0)

/* Add lane j's state to hits if it accepts and is not the state the lane added last. */
#define RECORD(j)                                                                                                  \
    do {                                                                                                           \
        if (accept[S(j)] && S(j) != LAST(j)) {                                                                     \
            if (add_hit(hits, S(j)) < 0)                                                                           \
                goto fail;                                                                                         \
            LAST(j) = S(j);                                                                                        \
        }                                                                                                          \
    } while (0)

#define DECLARE_LANE(j) uint64_t S(j) = 0, LAST(j) = n;
#define STEP_LANE(j) STEP(j, j * region + t);
#define RECORD_LANE(j) RECORD(j);
#define OR_ACCEPT(j) | accept[S(j)]

static PyObject *
scan(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    Py_buffer tb = {0}, ab = {0}, db = {0};
    PyObject *hits = NULL;

    (void)self;
    if (nargs != 4) {
        PyErr_Format(PyExc_TypeError, "scan() takes 4 arguments (%zd given)", nargs);
        return NULL;
    }
    const Py_ssize_t depth = PyNumber_AsSsize_t(args[3], PyExc_OverflowError);
    if (depth == -1 && PyErr_Occurred())
        return NULL;
    if (depth < 0) {
        PyErr_Format(PyExc_ValueError, "depth must be >= 0, not %zd", depth);
        return NULL;
    }
    if (get_buffer(args[0], &tb, 4, "table") < 0 || get_buffer(args[1], &ab, 1, "accept") < 0
        || get_buffer(args[2], &db, 1, "data") < 0)
        goto done;
    if (ab.len == 0 || tb.len != ab.len * 256 * 4) {
        PyErr_Format(PyExc_ValueError, "table must hold 256 entries per accept flag (%zd entries, %zd flags)",
                     tb.len / 4, ab.len);
        goto done;
    }
    if ((hits = PySet_New(NULL)) == NULL)
        goto done;

    const uint32_t *delta = tb.buf;
    const unsigned char *accept = ab.buf, *p = db.buf;
    const uint64_t n = (uint64_t)ab.len;
    const Py_ssize_t len = db.len, warm = depth > 0 ? depth - 1 : 0;
    /* Lane j walks bytes [j * region, j * region + steps) and records from its
     * step quiet on, lane 0 from its first. With one lane there is no lockstep
     * step, and the last lane walks the data alone. */
    Py_ssize_t region = 0, quiet = 0, steps = 0;
    if (len > warm && (len - warm) / LANES - MIN_REGION >= warm) {
        region = (len - warm) / LANES;
        quiet = warm;
        steps = region + warm;
    }
    uint64_t bad;
    EACH_LANE(DECLARE_LANE)

    Py_ssize_t t = 0;
    for (; t < quiet; t++) {
        EACH_LANE(STEP_LANE)
        RECORD(0);
    }
    for (; t < steps; t++) {
        EACH_LANE(STEP_LANE)
        if (0 EACH_LANE(OR_ACCEPT)) { /* one branch for all lanes: accepting states are rare */
            EACH_LANE(RECORD_LANE)
        }
    }
    for (Py_ssize_t i = (LANES - 1) * region + steps; i < len; i++) { /* the last lane runs on to the end */
        STEP(LAST_LANE, i);
        RECORD(LAST_LANE);
    }
    goto done;
bad_state:
    PyErr_Format(PyExc_ValueError, "table entry names state %llu of %llu", (unsigned long long)bad,
                 (unsigned long long)n);
fail:
    Py_CLEAR(hits);
done:
    PyBuffer_Release(&tb);
    PyBuffer_Release(&ab);
    PyBuffer_Release(&db);
    return hits;
}

static PyMethodDef methods[] = {
    {"scan", (PyCFunction)(void (*)(void))scan, METH_FASTCALL,
     "scan(delta, accept, data, depth) -> set of accepting states the walk over data from state 0 entered.\n\n"
     "depth is the length of the longest pattern. Data of at least\n"
     "LANES * (depth - 1 + MIN_REGION) + depth - 1 bytes is walked as LANES interleaved lanes."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, .m_name = "_dfa", .m_doc = "Dense-DFA scan kernel.", .m_size = -1, .m_methods = methods,
};

PyMODINIT_FUNC
PyInit__dfa(void)
{
    PyObject *m = PyModule_Create(&module);
    if (m != NULL
        && (PyModule_AddIntConstant(m, "LANES", LANES) < 0 || PyModule_AddIntConstant(m, "MIN_REGION", MIN_REGION) < 0))
        Py_CLEAR(m);
    return m;
}
