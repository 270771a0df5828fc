/* Compiled twins of two pure-Python reference functions, one optional extension.
 *
 * A build has both twins or none, so matching.kernel_name() names the switch
 * for both: "native" where this module imports, "pure-python" where it
 * does not. Each reference stays in Python, is what its parity tests compare
 * the twin against, and is the fallback where no C compiler exists.
 *
 *   scan      twin of matching._scan_states, the phase-1 automaton walk
 *   decoder   builds the twin of packet._decode, the frame decode + pool store
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

/* ---- frame decoder ---------------------------------------------------- */

/* The items of the state tuple a decoder holds: what decoder() takes, in its order, then the name "store". */
enum { DESCRIPTOR, FIVE_TUPLE, OTHER, ICMP, TCP, UDP, TRUNCATED, UNSUPPORTED, N_BOUND, STORE = N_BOUND, N_STATE };
#define BOUND(i) PyTuple_GET_ITEM(state, i)

#define ETHER_HDR_LEN 14
#define ETHERTYPE_IPV4 0x0800

static unsigned
be16(const unsigned char *p)
{
    return (unsigned)p[0] << 8 | p[1];
}

static uint32_t
be32(const unsigned char *p)
{
    return (uint32_t)p[0] << 24 | (uint32_t)p[1] << 16 | (uint32_t)p[2] << 8 | p[3];
}

/* An instance of the tuple subclass type holding the n new references in
 * items. It consumes them, also when one is NULL (a failed build) or it fails. */
static PyObject *
record(PyObject *type, PyObject **items, Py_ssize_t n)
{
    PyObject *rec = NULL;
    Py_ssize_t i;

    for (i = 0; i < n; i++)
        if (items[i] == NULL)
            goto done;
#if PY_VERSION_HEX < 0x030E0000
    /* what tuple.__new__(type, items) does, without building and parsing its arguments */
    if ((rec = ((PyTypeObject *)type)->tp_alloc((PyTypeObject *)type, n)) != NULL)
        for (i = 0; i < n; i++) {
            PyTuple_SET_ITEM(rec, i, items[i]);
            items[i] = NULL;
        }
#else
    /* from 3.14 a tuple caches its hash, which tuple.__new__ sets up */
    PyObject *fields = PyTuple_New(n), *args = NULL;
    if (fields != NULL) {
        for (i = 0; i < n; i++) {
            PyTuple_SET_ITEM(fields, i, items[i]);
            items[i] = NULL;
        }
        if ((args = PyTuple_Pack(1, fields)) != NULL)
            rec = PyTuple_Type.tp_new((PyTypeObject *)type, args, NULL);
    }
    Py_XDECREF(args);
    Py_XDECREF(fields);
#endif
done:
    for (i = 0; i < n; i++)
        Py_XDECREF(items[i]);
    return rec;
}

/* decode(frame, arrival_us, pool): the twin of packet._decode that decoder() binds to the package's records. */
static PyObject *
decode(PyObject *state, PyObject *const *args, Py_ssize_t nargs)
{
    Py_buffer view;
    char msg[64];
    PyObject *error = BOUND(TRUNCATED);

    if (nargs != 3) {
        PyErr_Format(PyExc_TypeError, "decode() takes 3 arguments (%zd given)", nargs);
        return NULL;
    }
    if (PyObject_GetBuffer(args[0], &view, PyBUF_SIMPLE) < 0)
        return NULL;
    const unsigned char *p = view.buf;
    const Py_ssize_t flen = view.len;

    /* every check of packet._decode, in its order and with its messages */
    if (flen < ETHER_HDR_LEN) {
        snprintf(msg, sizeof msg, "%zdB frame shorter than Ethernet header", flen);
        goto reject;
    }
    const unsigned ethertype = be16(p + 12);
    if (ethertype != ETHERTYPE_IPV4) {
        error = BOUND(UNSUPPORTED);
        snprintf(msg, sizeof msg, "ethertype 0x%04x is not IPv4", ethertype);
        goto reject;
    }
    const Py_ssize_t l3 = ETHER_HDR_LEN;
    if (flen < l3 + 20) {
        snprintf(msg, sizeof msg, "frame too short for IPv4 header");
        goto reject;
    }
    const unsigned ver_ihl = p[l3], tot_len = be16(p + l3 + 2), frag = be16(p + l3 + 6);
    if (ver_ihl >> 4 != 4) {
        error = BOUND(UNSUPPORTED);
        snprintf(msg, sizeof msg, "IP version %u behind an IPv4 ethertype", ver_ihl >> 4);
        goto reject;
    }
    const Py_ssize_t ihl = (Py_ssize_t)(ver_ihl & 0x0F) * 4;
    if (ihl < 20 || flen < l3 + ihl) {
        snprintf(msg, sizeof msg, "IPv4 header length inconsistent with frame");
        goto reject;
    }
    if ((Py_ssize_t)tot_len < ihl || (Py_ssize_t)tot_len > flen - l3) {
        snprintf(msg, sizeof msg, "IPv4 total length inconsistent with frame");
        goto reject;
    }

    /* each transport header read below ends at or before ip_end, which is at most flen */
    const Py_ssize_t l4 = l3 + ihl, ip_end = l3 + (Py_ssize_t)tot_len;
    const uint32_t src_ip = be32(p + l3 + 12), dst_ip = be32(p + l3 + 16);
    /* a non-zero fragment offset: these bytes hold no transport header, as with protocol 0 */
    const unsigned proto_num = frag & 0x1FFF ? 0 : p[l3 + 9];
    unsigned src_port = 0, dst_port = 0, tcp_flags = 0;
    uint32_t tcp_seq = 0;
    Py_ssize_t payload_off = l4;
    PyObject *proto = BOUND(OTHER);
    if (proto_num == 6) {
        if (ip_end < l4 + 20) {
            snprintf(msg, sizeof msg, "TCP header does not fit");
            goto reject;
        }
        const Py_ssize_t doff = (Py_ssize_t)(p[l4 + 12] >> 4) * 4;
        if (doff < 20 || ip_end < l4 + doff) {
            snprintf(msg, sizeof msg, "TCP data offset inconsistent");
            goto reject;
        }
        src_port = be16(p + l4);
        dst_port = be16(p + l4 + 2);
        tcp_seq = be32(p + l4 + 4);
        tcp_flags = p[l4 + 13];
        payload_off = l4 + doff;
        proto = BOUND(TCP);
    }
    else if (proto_num == 17) {
        if (ip_end < l4 + 8) {
            snprintf(msg, sizeof msg, "UDP header does not fit");
            goto reject;
        }
        src_port = be16(p + l4);
        dst_port = be16(p + l4 + 2);
        payload_off = l4 + 8;
        proto = BOUND(UDP);
    }
    else if (proto_num == 1) {
        if (ip_end < l4 + 8) {
            snprintf(msg, sizeof msg, "ICMP header does not fit");
            goto reject;
        }
        payload_off = l4 + 8;
        proto = BOUND(ICMP);
    }
    PyBuffer_Release(&view);

    /* after the last check: the pool raises FrameTooLarge and PoolExhausted before it takes a slot */
    PyObject *slot = PyObject_CallMethodOneArg(args[2], BOUND(STORE), args[0]);
    if (slot == NULL)
        return NULL;
    PyObject *tuple_items[] = {
        Py_NewRef(proto), PyLong_FromUnsignedLong(src_ip), PyLong_FromLong(src_port),
        PyLong_FromUnsignedLong(dst_ip), PyLong_FromLong(dst_port),
    };
    PyObject *desc_items[] = {
        slot, PyLong_FromSsize_t(flen), Py_NewRef(args[1]),
        record(BOUND(FIVE_TUPLE), tuple_items, Py_ARRAY_LENGTH(tuple_items)),
        PyLong_FromSsize_t(payload_off), PyLong_FromSsize_t(ip_end - payload_off), PyLong_FromLong(tcp_flags),
        PyLong_FromUnsignedLong(tcp_seq),
    };
    return record(BOUND(DESCRIPTOR), desc_items, Py_ARRAY_LENGTH(desc_items));

reject:
    PyBuffer_Release(&view);
    PyErr_SetString(error, msg);
    return NULL;
}

static PyMethodDef decode_def = {
    "decode", (PyCFunction)(void (*)(void))decode, METH_FASTCALL,
    "decode(frame, arrival_us, pool) -> PacketDescriptor; the compiled twin of packet._decode.",
};

static PyObject *
decoder(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    (void)self;
    if (nargs != N_BOUND) {
        PyErr_Format(PyExc_TypeError, "decoder() takes %d arguments (%zd given)", N_BOUND, nargs);
        return NULL;
    }
    for (int i = DESCRIPTOR; i <= FIVE_TUPLE; i++)
        if (!PyType_Check(args[i]) || !PyType_IsSubtype((PyTypeObject *)args[i], &PyTuple_Type)) {
            PyErr_Format(PyExc_TypeError, "decoder() record types must be tuple subclasses, not %R", args[i]);
            return NULL;
        }
    for (int i = TRUNCATED; i <= UNSUPPORTED; i++)
        if (!PyExceptionClass_Check(args[i])) {
            PyErr_Format(PyExc_TypeError, "decoder() errors must be exception classes, not %R", args[i]);
            return NULL;
        }
    PyObject *state = PyTuple_New(N_STATE), *store = PyUnicode_InternFromString("store");
    if (state == NULL || store == NULL) {
        Py_XDECREF(state);
        Py_XDECREF(store);
        return NULL;
    }
    for (int i = 0; i < N_BOUND; i++)
        PyTuple_SET_ITEM(state, i, Py_NewRef(args[i]));
    PyTuple_SET_ITEM(state, STORE, store);
    PyObject *fn = PyCFunction_NewEx(&decode_def, state, NULL);
    Py_DECREF(state);
    return fn;
}

static PyMethodDef methods[] = {
    {"scan", (PyCFunction)(void (*)(void))scan, METH_FASTCALL,
     "scan(delta, accept, data, depth) -> set of accepting states the walk over data from state 0 entered.\n\n"
     "depth is the length of the longest pattern. Data of at least\n"
     "LANES * (depth - 1 + MIN_REGION) + depth - 1 bytes is walked as LANES interleaved lanes."},
    {"decoder", (PyCFunction)(void (*)(void))decoder, METH_FASTCALL,
     "decoder(PacketDescriptor, FiveTuple, OTHER, ICMP, TCP, UDP, TruncatedFrame, UnsupportedL3) -> decode\n\n"
     "The frame decoder bound to the given record types, protocol members and errors:\n"
     "decode(frame, arrival_us, pool) -> PacketDescriptor, the twin of packet._decode."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_dfa",
    .m_doc = "Compiled twins: the dense-DFA scan kernel and the frame decoder.",
    .m_size = -1,
    .m_methods = methods,
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
