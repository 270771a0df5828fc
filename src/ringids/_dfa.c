/* Compiled twin of matching._scan_states, the pure-Python reference kernel.
 *
 * scan(delta, accept, data) walks data from state 0 through the dense table
 * delta[state * 256 + byte] (uint32 items, one row per state) and returns the
 * set of states s with accept[s] != 0 that the walk entered.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>

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

static PyObject *
scan(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    Py_buffer tb = {0}, ab = {0}, db = {0};
    PyObject *hits = NULL;

    (void)self;
    if (nargs != 3) {
        PyErr_Format(PyExc_TypeError, "scan() takes 3 arguments (%zd given)", nargs);
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
    uint64_t state = 0, last = n; /* last state added; n means none yet */
    for (Py_ssize_t i = 0; i < db.len; i++) {
        state = delta[(state << 8) | p[i]];
        if (state >= n) { /* an out-of-range entry would index past the table */
            PyErr_Format(PyExc_ValueError, "table entry names state %llu of %llu", (unsigned long long)state,
                         (unsigned long long)n);
            Py_CLEAR(hits);
            break;
        }
        if (accept[state] && state != last) {
            PyObject *v = PyLong_FromUnsignedLongLong(state);
            if (v == NULL || PySet_Add(hits, v) < 0) {
                Py_XDECREF(v);
                Py_CLEAR(hits);
                break;
            }
            Py_DECREF(v);
            last = state;
        }
    }
done:
    PyBuffer_Release(&tb);
    PyBuffer_Release(&ab);
    PyBuffer_Release(&db);
    return hits;
}

static PyMethodDef methods[] = {
    {"scan", (PyCFunction)(void (*)(void))scan, METH_FASTCALL,
     "scan(delta, accept, data) -> set of accepting states the walk over data entered."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, .m_name = "_dfa", .m_doc = "Dense-DFA scan kernel.", .m_size = -1, .m_methods = methods,
};

PyMODINIT_FUNC
PyInit__dfa(void)
{
    return PyModule_Create(&module);
}
