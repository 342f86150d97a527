/*
 * Native twin of CompiledSimulator._advance and CompiledNetlist.dc_update
 * (src/repro/core/compiled.py).
 *
 * The C loop runs over the very Python objects the Python loop uses: the
 * lowering lists, the engine's state lists, queue._heap and its list
 * entries, the pin stacks, the KernelRecord lists and the trace row
 * appenders.  Nothing is copied in or out, so a fault patch to a table
 * or an arc is seen at once, and a cone run (stacks[uid] None off the
 * cone, golden entries preloaded) needs nothing special.
 *
 * Exactness rules (the Python loop is the parity reference):
 *   - the loop stores the objects the Python loop stores: the `now`
 *     object (an int after run(until=<int>)), a source's t50, duration
 *     and rising as given, the uid objects of fanout_targets and the
 *     table outputs;
 *   - heap operations mirror CPython heapq's siftdown/siftup, and heap
 *     entries compare numerically on (time, uid, seq), as the list
 *     comparison does;
 *   - arithmetic keeps the Python expression order; the build uses no
 *     FMA contraction and no fast-math, and exp is libm's, the function
 *     math.exp calls (with math.exp's overflow check);
 *   - min/max follow the builtins' tie rules;
 *   - every exit writes back now, _seq, queue._live, the statistics
 *     counters and _toggles_dirty, as the Python loop's `finally` does
 *     (skipping those that did not change).
 *
 * Only C API present on both CPython 3.11 and 3.12 is used; int values
 * are read through PyLong_As*, never through the object layout.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>

/* entry slots (compiled.E_*) and entry states (compiled._PENDING, ...) */
enum { E_TIME, E_UID, E_SEQ, E_VALUE, E_T50, E_DUR, E_RISING, E_STATE, E_SIZE };
enum { PENDING, CANCELLED, EXECUTED };

/* bound once by bind() */
static PyObject *limit_error;      /* repro.errors.SimulationLimitError */
static PyObject *waveform_error;   /* repro.errors.WaveformError */
static PyObject *filtered_record;  /* repro.core.engine.FilteredEventRecord */
static PyObject *evaluate_fn;      /* repro.circuit.logic.evaluate */

static PyObject *small_int[3];     /* the ints 0, 1, 2: states and bits */
static PyObject *budget_format;    /* the SimulationLimitError text */

/* interned attribute names */
static PyObject *s_stats, *s_queue, *s_heap, *s_live, *s_cn, *s_gate_tables,
    *s_arc_rise, *s_arc_fall, *s_input_gate, *s_gate_input_offsets,
    *s_gate_output_net, *s_fanout_offsets, *s_fanout_targets, *s_vt_fraction,
    *s_input_values, *s_gate_out, *s_gate_last, *s_stacks, *s_toggles,
    *s_trace_appenders, *s_use_ddm, *s_event_order, *s_min_delay,
    *s_resolution, *s_max_events, *s_config, *s_record_filtered, *s_record,
    *s_executed, *s_gate_last_time, *s_gate_degraded, *s_gate_fully,
    *s_net_scheduled, *s_net_filtered, *s_net_late, *s_now, *s_seq,
    *s_events_executed, *s_events_scheduled, *s_events_filtered,
    *s_late_events, *s_transitions_emitted, *s_transitions_degraded,
    *s_transitions_fully_degraded, *s_toggles_dirty, *s_t50, *s_duration,
    *s_rising, *s_index, *s_gate_functions, *s_gate_names, *s_input_pin,
    *s_net_names, *s_filtered_log, *s_gate_value;

/* ------------------------------------------------------------------ */
/* small helpers                                                      */
/* ------------------------------------------------------------------ */

/* list[i] with Python's negative-index rule; borrowed, NULL + IndexError */
static inline PyObject *
item_at(PyObject *list, Py_ssize_t i)
{
    Py_ssize_t n = PyList_GET_SIZE(list);
    if (i < 0)
        i += n;
    if (i < 0 || i >= n) {
        PyErr_SetString(PyExc_IndexError, "list index out of range");
        return NULL;
    }
    return PyList_GET_ITEM(list, i);
}

/* list[i] = value with Python's negative-index rule */
static inline int
set_at(PyObject *list, Py_ssize_t i, PyObject *value)
{
    Py_ssize_t n = PyList_GET_SIZE(list);
    if (i < 0)
        i += n;
    if (i < 0 || i >= n) {
        PyErr_SetString(PyExc_IndexError,
                        "list assignment index out of range");
        return -1;
    }
    PyObject *old = PyList_GET_ITEM(list, i);
    Py_INCREF(value);
    PyList_SET_ITEM(list, i, value);
    Py_DECREF(old);
    return 0;
}

static inline int
as_index(PyObject *obj, Py_ssize_t *out)
{
    Py_ssize_t value = PyLong_Check(obj) ? PyLong_AsSsize_t(obj)
                                         : PyNumber_AsSsize_t(obj, PyExc_IndexError);
    if (value == -1 && PyErr_Occurred())
        return -1;
    *out = value;
    return 0;
}

static inline int
as_double(PyObject *obj, double *out)
{
    if (PyFloat_CheckExact(obj)) {
        *out = PyFloat_AS_DOUBLE(obj);
        return 0;
    }
    double value = PyFloat_AsDouble(obj);
    if (value == -1.0 && PyErr_Occurred())
        return -1;
    *out = value;
    return 0;
}

static inline int
as_long(PyObject *obj, long *out)
{
    long value = PyLong_AsLong(obj);
    if (value == -1 && PyErr_Occurred())
        return -1;
    *out = value;
    return 0;
}

/* list[i] read as an index (e.g. input_gate[uid]) */
static inline int
index_at(PyObject *list, Py_ssize_t i, Py_ssize_t *out)
{
    PyObject *obj = item_at(list, i);
    return obj == NULL ? -1 : as_index(obj, out);
}

static inline int
double_at(PyObject *list, Py_ssize_t i, double *out)
{
    PyObject *obj = item_at(list, i);
    return obj == NULL ? -1 : as_double(obj, out);
}

/* list[i] += 1 over Python ints */
static inline int
increment_at(PyObject *list, Py_ssize_t i, long long by)
{
    PyObject *obj = item_at(list, i);
    if (obj == NULL)
        return -1;
    PyObject *sum = NULL;
    if (PyLong_CheckExact(obj)) {
        long long count = PyLong_AsLongLong(obj);
        if (count == -1 && PyErr_Occurred())
            return -1;
        sum = PyLong_FromLongLong(count + by);
    } else {
        PyObject *step = PyLong_FromLongLong(by);
        if (step == NULL)
            return -1;
        sum = PyNumber_Add(obj, step);
        Py_DECREF(step);
    }
    if (sum == NULL)
        return -1;
    int status = set_at(list, i, sum);
    Py_DECREF(sum);
    return status;
}

/* a + b as Python adds two numbers given with their values: a float
 * when either is one, else (two ints) Python's own sum */
static inline PyObject *
add_numbers(PyObject *a, double a_value, PyObject *b, double b_value)
{
    if (PyFloat_Check(a) || PyFloat_Check(b))
        return PyFloat_FromDouble(a_value + b_value);
    return PyNumber_Add(a, b);
}

static inline int
need_list(PyObject *obj, const char *what)
{
    if (!PyList_Check(obj)) {
        PyErr_Format(PyExc_TypeError, "native kernel: %s must be a list, "
                     "not %.100s", what, Py_TYPE(obj)->tp_name);
        return -1;
    }
    return 0;
}

static inline int
need_entry(PyObject *entry)
{
    if (!PyList_Check(entry) || PyList_GET_SIZE(entry) < E_SIZE) {
        PyErr_SetString(PyExc_TypeError,
                        "native kernel: a queue entry must be a list of "
                        "8 slots");
        return -1;
    }
    return 0;
}

/* an entry's state slot as 0/1/2 (-1 on error) */
static inline int
entry_state(PyObject *entry)
{
    PyObject *state = PyList_GET_ITEM(entry, E_STATE);
    if (state == small_int[PENDING])
        return PENDING;
    if (state == small_int[CANCELLED])
        return CANCELLED;
    if (state == small_int[EXECUTED])
        return EXECUTED;
    long value;
    if (as_long(state, &value) < 0)
        return -1;
    return (int)value;
}

static inline void
set_state(PyObject *entry, int state)
{
    PyObject *old = PyList_GET_ITEM(entry, E_STATE);
    Py_INCREF(small_int[state]);
    PyList_SET_ITEM(entry, E_STATE, small_int[state]);
    Py_DECREF(old);
}

/* the 6 floats of an arc_rise/arc_fall entry (tuple unpacking) */
static int
unpack_arc(PyObject *arc, double out[6])
{
    PyObject *fast = PySequence_Fast(arc, "cannot unpack non-iterable object");
    if (fast == NULL)
        return -1;
    Py_ssize_t n = PySequence_Fast_GET_SIZE(fast);
    if (n != 6) {
        if (n > 6)
            PyErr_SetString(PyExc_ValueError,
                            "too many values to unpack (expected 6)");
        else
            PyErr_Format(PyExc_ValueError,
                         "not enough values to unpack (expected 6, got %zd)",
                         n);
        Py_DECREF(fast);
        return -1;
    }
    PyObject **items = PySequence_Fast_ITEMS(fast);
    for (int i = 0; i < 6; i++) {
        if (as_double(items[i], &out[i]) < 0) {
            Py_DECREF(fast);
            return -1;
        }
    }
    Py_DECREF(fast);
    return 0;
}

/* table[index] for a truth table (a list, or any indexable) */
static inline PyObject *
table_item(PyObject *table, long index)
{
    if (PyList_Check(table)) {
        PyObject *value = item_at(table, index);
        Py_XINCREF(value);
        return value;
    }
    PyObject *key = PyLong_FromLong(index);
    if (key == NULL)
        return NULL;
    PyObject *value = PyObject_GetItem(table, key);
    Py_DECREF(key);
    return value;
}

/* ------------------------------------------------------------------ */
/* the heap: CPython heapq over (time, uid, seq)                      */
/* ------------------------------------------------------------------ */

static inline int
key_of(PyObject *entry, double *time, long *uid, long *seq)
{
    if (need_entry(entry) < 0)
        return -1;
    if (as_double(PyList_GET_ITEM(entry, E_TIME), time) < 0)
        return -1;
    if (as_long(PyList_GET_ITEM(entry, E_UID), uid) < 0)
        return -1;
    return as_long(PyList_GET_ITEM(entry, E_SEQ), seq);
}

/* a < b on the head slots; -1 on error */
static inline int
entry_less(PyObject *a, PyObject *b)
{
    double ta, tb;
    long ua, ub, sa, sb;
    if (key_of(a, &ta, &ua, &sa) < 0 || key_of(b, &tb, &ub, &sb) < 0)
        return -1;
    if (ta != tb)
        return ta < tb;
    if (ua != ub)
        return ua < ub;
    return sa < sb;
}

static int
sift_down(PyObject *heap, Py_ssize_t startpos, Py_ssize_t pos)
{
    PyObject **arr = ((PyListObject *)heap)->ob_item;
    PyObject *newitem = arr[pos];
    while (pos > startpos) {
        Py_ssize_t parentpos = (pos - 1) >> 1;
        PyObject *parent = arr[parentpos];
        int less = entry_less(newitem, parent);
        if (less < 0)
            return -1;
        if (less == 0)
            break;
        arr[parentpos] = newitem;
        arr[pos] = parent;
        pos = parentpos;
    }
    return 0;
}

static int
sift_up(PyObject *heap, Py_ssize_t pos)
{
    PyObject **arr = ((PyListObject *)heap)->ob_item;
    Py_ssize_t endpos = PyList_GET_SIZE(heap);
    Py_ssize_t startpos = pos;
    Py_ssize_t limit = endpos >> 1;
    while (pos < limit) {
        Py_ssize_t childpos = 2 * pos + 1;
        if (childpos + 1 < endpos) {
            int less = entry_less(arr[childpos], arr[childpos + 1]);
            if (less < 0)
                return -1;
            childpos += ((unsigned)less ^ 1);
        }
        PyObject *child = arr[childpos];
        arr[childpos] = arr[pos];
        arr[pos] = child;
        pos = childpos;
    }
    return sift_down(heap, startpos, pos);
}

static int
heap_push(PyObject *heap, PyObject *entry)
{
    if (PyList_Append(heap, entry) < 0)
        return -1;
    return sift_down(heap, 0, PyList_GET_SIZE(heap) - 1);
}

/* heapq.heappop on a non-empty heap: a new reference */
static PyObject *
heap_pop(PyObject *heap)
{
    Py_ssize_t n = PyList_GET_SIZE(heap);
    PyObject *last = PyList_GET_ITEM(heap, n - 1);
    Py_INCREF(last);
    if (PyList_SetSlice(heap, n - 1, n, NULL) < 0) {
        Py_DECREF(last);
        return NULL;
    }
    if (n == 1)
        return last;
    PyObject *top = PyList_GET_ITEM(heap, 0);
    PyList_SET_ITEM(heap, 0, last);  /* the heap's reference moves to top */
    if (sift_up(heap, 0) < 0) {
        Py_DECREF(top);
        return NULL;
    }
    return top;
}

/* ------------------------------------------------------------------ */
/* advance(engine, until, steps, sources)                             */
/* ------------------------------------------------------------------ */

#define MAX_HELD 48

typedef struct {
    PyObject *held[MAX_HELD];
    int count;
} Held;

/* getattr(obj, name), kept until the call ends */
static PyObject *
hold_attr(Held *held, PyObject *obj, PyObject *name)
{
    PyObject *value = PyObject_GetAttr(obj, name);
    if (value != NULL)
        held->held[held->count++] = value;
    return value;
}

static PyObject *
hold_list(Held *held, PyObject *obj, PyObject *name)
{
    PyObject *value = hold_attr(held, obj, name);
    if (value == NULL || need_list(value, PyUnicode_AsUTF8(name)) < 0)
        return NULL;
    return value;
}

static void
release(Held *held)
{
    while (held->count > 0)
        Py_DECREF(held->held[--held->count]);
}

static int
read_counter(PyObject *obj, PyObject *name, long long *out)
{
    PyObject *value = PyObject_GetAttr(obj, name);
    if (value == NULL)
        return -1;
    *out = PyLong_AsLongLong(value);
    Py_DECREF(value);
    return (*out == -1 && PyErr_Occurred()) ? -1 : 0;
}

static int
write_counter(PyObject *obj, PyObject *name, long long value)
{
    PyObject *number = PyLong_FromLongLong(value);
    if (number == NULL)
        return -1;
    int status = PyObject_SetAttr(obj, name, number);
    Py_DECREF(number);
    return status;
}

/* the engine's FilteredEventRecord log entry of one annihilation */
static int
log_filtered(PyObject *engine, PyObject *cn, PyObject *now, Py_ssize_t uid,
             Py_ssize_t gate, Py_ssize_t out_net, PyObject *previous_time,
             double crossing)
{
    int status = -1;
    PyObject *gate_names = NULL, *input_pin = NULL, *net_names = NULL;
    PyObject *new_time = NULL, *record = NULL, *log = NULL;
    PyObject *gate_name, *pin_index, *net_name;
    if ((gate_names = PyObject_GetAttr(cn, s_gate_names)) == NULL
        || need_list(gate_names, "gate_names") < 0
        || (gate_name = item_at(gate_names, gate)) == NULL)
        goto done;
    if ((input_pin = PyObject_GetAttr(cn, s_input_pin)) == NULL
        || need_list(input_pin, "input_pin") < 0
        || (pin_index = item_at(input_pin, uid)) == NULL)
        goto done;
    if ((net_names = PyObject_GetAttr(cn, s_net_names)) == NULL
        || need_list(net_names, "net_names") < 0
        || (net_name = item_at(net_names, out_net)) == NULL)
        goto done;
    if ((new_time = PyFloat_FromDouble(crossing)) == NULL)
        goto done;
    record = PyObject_CallFunctionObjArgs(filtered_record, now, gate_name,
                                          pin_index, net_name, previous_time,
                                          new_time, NULL);
    if (record == NULL || (log = PyObject_GetAttr(engine, s_filtered_log)) == NULL)
        goto done;
    if (PyList_CheckExact(log)) {
        status = PyList_Append(log, record);
    } else {
        PyObject *result = PyObject_CallMethod(log, "append", "O", record);
        status = result == NULL ? -1 : 0;
        Py_XDECREF(result);
    }
done:
    Py_XDECREF(gate_names);
    Py_XDECREF(input_pin);
    Py_XDECREF(net_names);
    Py_XDECREF(new_time);
    Py_XDECREF(record);
    Py_XDECREF(log);
    return status;
}

/* What the loop reads besides the queue and the counters: fetched by
 * load_loop() only once a source or an event needs it, so a call that
 * finds nothing to run (most run(until) calls between stimulus steps)
 * costs no more than the Python loop's. */
typedef struct {
    int ready;
    PyObject *cn, *gate_tables, *arc_rise, *arc_fall, *input_gate,
        *gate_offsets, *gate_out_net, *fanout_offsets, *fanout_targets,
        *vt_fraction, *input_values, *gate_out, *gate_last, *stacks, *toggles,
        *appenders, *min_delay_obj, *resolution_obj;
    PyObject *rec_executed, *rec_gate_last, *rec_gate_degraded,
        *rec_gate_fully, *rec_net_scheduled, *rec_net_filtered, *rec_net_late;
    double min_delay, resolution;
    int use_ddm, event_order, record_filtered, recording;
} Loop;

static int
load_loop(Held *held, PyObject *engine, Loop *L)
{
    PyObject *config, *record, *flag;
    if ((L->cn = hold_attr(held, engine, s_cn)) == NULL
        || (L->gate_tables = hold_list(held, L->cn, s_gate_tables)) == NULL
        || (L->arc_rise = hold_list(held, L->cn, s_arc_rise)) == NULL
        || (L->arc_fall = hold_list(held, L->cn, s_arc_fall)) == NULL
        || (L->input_gate = hold_list(held, L->cn, s_input_gate)) == NULL
        || (L->gate_offsets = hold_list(held, L->cn, s_gate_input_offsets)) == NULL
        || (L->gate_out_net = hold_list(held, L->cn, s_gate_output_net)) == NULL
        || (L->fanout_offsets = hold_list(held, L->cn, s_fanout_offsets)) == NULL
        || (L->fanout_targets = hold_list(held, L->cn, s_fanout_targets)) == NULL
        || (L->vt_fraction = hold_list(held, L->cn, s_vt_fraction)) == NULL
        || (L->input_values = hold_list(held, engine, s_input_values)) == NULL
        || (L->gate_out = hold_list(held, engine, s_gate_out)) == NULL
        || (L->gate_last = hold_list(held, engine, s_gate_last)) == NULL
        || (L->stacks = hold_list(held, engine, s_stacks)) == NULL
        || (L->toggles = hold_list(held, engine, s_toggles)) == NULL
        || (L->appenders = hold_attr(held, engine, s_trace_appenders)) == NULL
        || (L->min_delay_obj = hold_attr(held, engine, s_min_delay)) == NULL
        || (L->resolution_obj = hold_attr(held, engine, s_resolution)) == NULL
        || (config = hold_attr(held, engine, s_config)) == NULL
        || (record = hold_attr(held, engine, s_record)) == NULL)
        return -1;
    if (L->appenders != Py_None && need_list(L->appenders, "_trace_appenders") < 0)
        return -1;
    if ((flag = hold_attr(held, engine, s_use_ddm)) == NULL
        || (L->use_ddm = PyObject_IsTrue(flag)) < 0
        || (flag = hold_attr(held, engine, s_event_order)) == NULL
        || (L->event_order = PyObject_IsTrue(flag)) < 0
        || (flag = hold_attr(held, config, s_record_filtered)) == NULL
        || (L->record_filtered = PyObject_IsTrue(flag)) < 0)
        return -1;
    if (as_double(L->min_delay_obj, &L->min_delay) < 0
        || as_double(L->resolution_obj, &L->resolution) < 0)
        return -1;
    L->recording = record != Py_None;
    if (L->recording
        && ((L->rec_executed = hold_list(held, record, s_executed)) == NULL
            || (L->rec_gate_last = hold_list(held, record, s_gate_last_time)) == NULL
            || (L->rec_gate_degraded = hold_list(held, record, s_gate_degraded)) == NULL
            || (L->rec_gate_fully = hold_list(held, record, s_gate_fully)) == NULL
            || (L->rec_net_scheduled = hold_list(held, record, s_net_scheduled)) == NULL
            || (L->rec_net_filtered = hold_list(held, record, s_net_filtered)) == NULL
            || (L->rec_net_late = hold_list(held, record, s_net_late)) == NULL))
        return -1;
    L->ready = 1;
    return 0;
}

static PyObject *
advance(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 4) {
        PyErr_SetString(PyExc_TypeError,
                        "advance(engine, until, steps, sources)");
        return NULL;
    }
    if (limit_error == NULL) {
        PyErr_SetString(PyExc_RuntimeError, "native kernel not bound");
        return NULL;
    }
    PyObject *engine = args[0], *until = args[1], *steps = args[2];
    PyObject *sources = args[3];

    Held held = {.count = 0};
    PyObject *result = NULL;
    PyObject *now = NULL, *event = NULL, *source_list = NULL;
    PyObject *stats, *queue, *heap, *max_events_obj;
    Loop L = {.ready = 0};  /* fetched once a source or an event needs it */
    long long live, seq, executed, scheduled, filtered, late, emitted,
        degraded, fully, max_events, stop = 0, limit;
    long long before[9] = {0};  /* the values read: write back only changes */
    int has_stop;
    double horizon, now_value;
    int loaded = 0;  /* write back only once the counters were read */
    PyObject *now_before = NULL;

    if ((stats = hold_attr(&held, engine, s_stats)) == NULL
        || (queue = hold_attr(&held, engine, s_queue)) == NULL
        || (heap = hold_list(&held, queue, s_heap)) == NULL
        || (max_events_obj = hold_attr(&held, engine, s_max_events)) == NULL)
        goto done;
    max_events = PyLong_AsLongLong(max_events_obj);
    if (max_events == -1 && PyErr_Occurred())
        goto done;
    if (until == Py_None)
        horizon = INFINITY;
    else if (as_double(until, &horizon) < 0)
        goto done;
    if ((source_list = PySequence_Fast(sources, "sources must be a sequence")) == NULL)
        goto done;
    if ((now = PyObject_GetAttr(engine, s_now)) == NULL
        || as_double(now, &now_value) < 0)
        goto done;
    {
        PyObject *value = PyObject_GetAttr(queue, s_live);
        if (value == NULL)
            goto done;
        live = PyLong_AsLongLong(value);
        Py_DECREF(value);
        if (live == -1 && PyErr_Occurred())
            goto done;
    }
    if (read_counter(engine, s_seq, &seq) < 0
        || read_counter(stats, s_events_executed, &executed) < 0
        || read_counter(stats, s_events_scheduled, &scheduled) < 0
        || read_counter(stats, s_events_filtered, &filtered) < 0
        || read_counter(stats, s_late_events, &late) < 0
        || read_counter(stats, s_transitions_emitted, &emitted) < 0
        || read_counter(stats, s_transitions_degraded, &degraded) < 0
        || read_counter(stats, s_transitions_fully_degraded, &fully) < 0)
        goto done;
    now_before = Py_NewRef(now);
    before[0] = seq, before[1] = live, before[2] = executed;
    before[3] = scheduled, before[4] = filtered, before[5] = late;
    before[6] = emitted, before[7] = degraded, before[8] = fully;
    has_stop = steps != Py_None;
    if (has_stop) {
        long long count = PyLong_AsLongLong(steps);
        if (count == -1 && PyErr_Occurred())
            goto done;
        stop = executed + count;
    }
    limit = (!has_stop || stop > max_events) ? max_events : stop;
    loaded = 1;
    event = Py_NewRef(Py_None);

    Py_ssize_t source_count = PySequence_Fast_GET_SIZE(source_list);
    Py_ssize_t next_source = 0;
    unsigned long pops = 0;
    for (;;) {
        /* the transition fanned out this turn (strong references) */
        PyObject *t50 = NULL, *tau_out = NULL, *rising = NULL;
        double t50_value, tau_value;
        int is_rising;
        Py_ssize_t out_net;

        if (next_source < source_count) {
            if (!L.ready && load_loop(&held, engine, &L) < 0)
                goto done;
            PyObject *pair = PySequence_Fast_GET_ITEM(source_list, next_source);
            next_source++;
            PyObject *fast = PySequence_Fast(pair, "cannot unpack non-iterable object");
            if (fast == NULL)
                goto done;
            if (PySequence_Fast_GET_SIZE(fast) != 2) {
                PyErr_SetString(PyExc_ValueError,
                                "a source must be a (transition, net) pair");
                Py_DECREF(fast);
                goto done;
            }
            PyObject *transition = PySequence_Fast_GET_ITEM(fast, 0);
            PyObject *net = PySequence_Fast_GET_ITEM(fast, 1);
            PyObject *index = PyObject_GetAttr(net, s_index);
            int bad = index == NULL || as_index(index, &out_net) < 0;
            Py_XDECREF(index);
            if (!bad) {
                t50 = PyObject_GetAttr(transition, s_t50);
                tau_out = t50 == NULL ? NULL : PyObject_GetAttr(transition, s_duration);
                rising = tau_out == NULL ? NULL : PyObject_GetAttr(transition, s_rising);
            }
            Py_DECREF(fast);
            if (bad || rising == NULL || as_double(t50, &t50_value) < 0
                || as_double(tau_out, &tau_value) < 0
                || (is_rising = PyObject_IsTrue(rising)) < 0)
                goto turn_failed;
        } else {
            /* -- pop the next live entry -------------------------- */
            if (executed >= limit) {
                if (has_stop && executed == stop)
                    break;
                while (PyList_GET_SIZE(heap) > 0) {
                    PyObject *top = PyList_GET_ITEM(heap, 0);
                    if (need_entry(top) < 0)
                        goto done;
                    int state = entry_state(top);
                    if (state < 0)
                        goto done;
                    if (state != CANCELLED)
                        break;
                    PyObject *dropped = heap_pop(heap);
                    if (dropped == NULL)
                        goto done;
                    Py_DECREF(dropped);
                }
                if (PyList_GET_SIZE(heap) > 0) {
                    double top_time;
                    if (as_double(PyList_GET_ITEM(PyList_GET_ITEM(heap, 0), E_TIME),
                                  &top_time) < 0)
                        goto done;
                    if (top_time <= horizon) {
                        PyObject *values = PyTuple_Pack(2, max_events_obj, now);
                        PyObject *message = values == NULL ? NULL
                            : PyUnicode_Format(budget_format, values);
                        Py_XDECREF(values);
                        if (message != NULL) {
                            PyErr_SetObject(limit_error, message);
                            Py_DECREF(message);
                        }
                        goto done;
                    }
                }
                break;
            }
            if (PyList_GET_SIZE(heap) == 0)
                break;
            /* let Ctrl-C stop a long run, as it stops the Python loop */
            if ((++pops & 0xFFFF) == 0 && PyErr_CheckSignals() < 0)
                goto done;
            PyObject *head = heap_pop(heap);
            if (head == NULL)
                goto done;
            if (need_entry(head) < 0) {
                Py_DECREF(head);
                goto done;
            }
            int state = entry_state(head);
            if (state < 0) {
                Py_DECREF(head);
                goto done;
            }
            if (state == CANCELLED) {
                Py_DECREF(head);
                continue;
            }
            double head_time;
            if (as_double(PyList_GET_ITEM(head, E_TIME), &head_time) < 0) {
                Py_DECREF(head);
                goto done;
            }
            if (head_time > horizon) {
                int status = heap_push(heap, head);  /* the same key */
                Py_DECREF(head);
                if (status < 0)
                    goto done;
                break;
            }
            if (!L.ready && load_loop(&held, engine, &L) < 0) {
                Py_DECREF(head);
                goto done;
            }
            Py_SETREF(event, head);
            live -= 1;
            set_state(event, EXECUTED);
            Py_SETREF(now, Py_NewRef(PyList_GET_ITEM(event, E_TIME)));
            now_value = head_time;
            executed += 1;

            /* -- the event step ----------------------------------- */
            Py_ssize_t uid, gate, start, stop_pin;
            if (as_index(PyList_GET_ITEM(event, E_UID), &uid) < 0
                || index_at(L.input_gate, uid, &gate) < 0)
                goto done;
            if (L.recording) {
                PyObject *pin_log = item_at(L.rec_executed, uid);
                if (pin_log == NULL || need_list(pin_log, "executed[uid]") < 0
                    || PyList_Append(pin_log, event) < 0
                    || set_at(L.rec_gate_last, gate, now) < 0)
                    goto done;
            }
            PyObject *value = PyList_GET_ITEM(event, E_VALUE);
            PyObject *current = item_at(L.input_values, uid);
            if (current == NULL)
                goto done;
            int same = PyObject_RichCompareBool(current, value, Py_EQ);
            if (same < 0)
                goto done;
            if (same)
                continue;  /* defensive: alternation guarantees a change */
            if (set_at(L.input_values, uid, value) < 0
                || index_at(L.gate_offsets, gate, &start) < 0
                || index_at(L.gate_offsets, gate + 1, &stop_pin) < 0)
                goto done;
            Py_ssize_t arity = stop_pin - start;
            PyObject *table = item_at(L.gate_tables, gate);
            if (table == NULL)
                goto done;
            PyObject *output;
            if (table == Py_None) {  /* hand-built cells only */
                PyObject *functions = PyObject_GetAttr(L.cn, s_gate_functions);
                if (functions == NULL)
                    goto done;
                PyObject *function = need_list(functions, "gate_functions") < 0
                    ? NULL : item_at(functions, gate);
                PyObject *pins = function == NULL ? NULL
                    : PyList_GetSlice(L.input_values, start, start + arity);
                output = pins == NULL ? NULL
                    : PyObject_CallFunctionObjArgs(evaluate_fn, function, pins, NULL);
                Py_XDECREF(pins);
                Py_DECREF(functions);
                if (output == NULL)
                    goto done;
            } else {
                Py_INCREF(table);
                long index = 0, bit_value = 0;
                int bad = 0;
                if (arity == 2) {
                    long second = 0;
                    PyObject *a = item_at(L.input_values, start);
                    PyObject *b = a == NULL ? NULL : item_at(L.input_values, start + 1);
                    bad = b == NULL || as_long(a, &bit_value) < 0
                        || as_long(b, &second) < 0;
                    index = bit_value | second << 1;
                } else if (arity == 1) {
                    PyObject *a = item_at(L.input_values, start);
                    bad = a == NULL || as_long(a, &index) < 0;
                } else {
                    for (Py_ssize_t bit = 0; bit < arity && !bad; bit++) {
                        PyObject *a = item_at(L.input_values, start + bit);
                        bad = a == NULL || as_long(a, &bit_value) < 0;
                        index |= bit_value << bit;
                    }
                }
                output = bad ? NULL : table_item(table, index);
                Py_DECREF(table);
                if (output == NULL)
                    goto done;
            }
            PyObject *held_out = item_at(L.gate_out, gate);
            int unchanged = held_out == NULL ? -1
                : PyObject_RichCompareBool(output, held_out, Py_EQ);
            if (unchanged != 0) {
                Py_DECREF(output);
                if (unchanged < 0)
                    goto done;
                continue;
            }
            if (set_at(L.gate_out, gate, output) < 0) {
                Py_DECREF(output);
                goto done;
            }
            if (PyLong_CheckExact(output)) {
                long bit;
                if (as_long(output, &bit) < 0) {
                    Py_DECREF(output);
                    goto done;
                }
                is_rising = bit == 1;
            } else {
                PyObject *one = PyLong_FromLong(1);
                is_rising = one == NULL ? -1
                    : PyObject_RichCompareBool(output, one, Py_EQ);
                Py_XDECREF(one);
            }
            Py_DECREF(output);
            if (is_rising < 0)
                goto done;
            rising = Py_NewRef(is_rising ? Py_True : Py_False);

            double tau_in, arc[6];
            PyObject *arc_entry;
            if (as_double(PyList_GET_ITEM(event, E_DUR), &tau_in) < 0
                || (arc_entry = item_at(is_rising ? L.arc_rise : L.arc_fall, uid)) == NULL
                || unpack_arc(arc_entry, arc) < 0)
                goto turn_failed;
            /* tp0_base, d_slew, tau_base, s_slew, tau_deg, t0_coef */
            double tp0 = arc[0] + arc[1] * tau_in;
            tau_value = arc[2] + arc[3] * tau_in;
            PyObject *last = item_at(L.gate_last, gate);
            if (last == NULL)
                goto turn_failed;
            double factor, tp;
            int tp_is_min;
            if (!L.use_ddm || last == Py_None) {
                factor = 1.0;
                tp_is_min = !(tp0 > L.min_delay);
                tp = tp_is_min ? L.min_delay : tp0;
            } else {
                /* paper eq. 1 with eq. 2/3 folded into tau_deg / t0_coef */
                double last_value;
                if (as_double(last, &last_value) < 0)
                    goto turn_failed;
                double elapsed = now_value - last_value;
                double t_offset = arc[5] * tau_in;
                if (arc[4] <= 0.0) {
                    factor = elapsed > t_offset ? 1.0 : 0.0;
                } else {
                    double x = -(elapsed - t_offset) / arc[4];
                    double decay = exp(x);
                    if (isinf(decay) && isfinite(x)) {  /* math.exp's check */
                        PyErr_SetString(PyExc_OverflowError, "math range error");
                        goto turn_failed;
                    }
                    factor = 1.0 - decay;
                }
                if (factor <= 0.0) {
                    tp_is_min = 1;
                    tp = L.min_delay;
                } else {
                    tp = tp0 * factor;
                    tp_is_min = tp < L.min_delay;
                    if (tp_is_min)
                        tp = L.min_delay;
                }
            }
            t50 = tp_is_min ? add_numbers(now, now_value, L.min_delay_obj, L.min_delay)
                            : PyFloat_FromDouble(now_value + tp);
            if (t50 == NULL || as_double(t50, &t50_value) < 0
                || set_at(L.gate_last, gate, t50) < 0
                || index_at(L.gate_out_net, gate, &out_net) < 0)
                goto turn_failed;
            emitted += 1;
            if (increment_at(L.toggles, out_net, 1) < 0)
                goto turn_failed;
            if (factor < 1.0) {
                degraded += 1;
                if (L.recording && increment_at(L.rec_gate_degraded, gate, 1) < 0)
                    goto turn_failed;
                if (factor <= 0.0) {
                    fully += 1;
                    if (L.recording && increment_at(L.rec_gate_fully, gate, 1) < 0)
                        goto turn_failed;
                }
            }
            if ((tau_out = PyFloat_FromDouble(tau_value)) == NULL)
                goto turn_failed;
            if (L.appenders != Py_None) {
                if (tau_value <= 0.0) {
                    /* what constructing the Transition would raise */
                    PyErr_SetString(waveform_error,
                                    "transition duration must be positive");
                    goto turn_failed;
                }
                PyObject *append = item_at(L.appenders, out_net);
                if (append == NULL)
                    goto turn_failed;
                Py_INCREF(append);
                PyObject *factor_obj = PyFloat_FromDouble(factor);
                PyObject *row = factor_obj == NULL ? NULL
                    : PyTuple_Pack(5, t50, tau_out, rising, factor_obj, now);
                Py_XDECREF(factor_obj);
                PyObject *appended = row == NULL ? NULL
                    : PyObject_CallOneArg(append, row);
                Py_XDECREF(row);
                Py_DECREF(append);
                if (appended == NULL)
                    goto turn_failed;
                Py_DECREF(appended);
            }
        }

        /* -- the fan-out: one threshold crossing per fanout input,
         * through the inertial filter (see repro.core.inertial) -- */
        {
            PyObject *value = small_int[is_rising ? 1 : 0];
            long long first_seq = seq;
            Py_ssize_t low, high;
            if (index_at(L.fanout_offsets, out_net, &low) < 0
                || index_at(L.fanout_offsets, out_net + 1, &high) < 0)
                goto turn_failed;
            for (Py_ssize_t position = low; position < high; position++) {
                PyObject *uid_obj = item_at(L.fanout_targets, position);
                Py_ssize_t uid;
                double fraction;
                if (uid_obj == NULL || as_index(uid_obj, &uid) < 0
                    || double_at(L.vt_fraction, uid, &fraction) < 0)
                    goto turn_failed;
                double crossing = is_rising
                    ? t50_value + tau_value * (fraction - 0.5)
                    : t50_value + tau_value * (0.5 - fraction);
                PyObject *stack = item_at(L.stacks, uid);
                if (stack == NULL)
                    goto turn_failed;
                PyObject *previous = NULL;
                if (stack != Py_None) {
                    if (need_list(stack, "L.stacks[uid]") < 0)
                        goto turn_failed;
                    Py_ssize_t depth = PyList_GET_SIZE(stack);
                    if (depth > 0) {
                        previous = PyList_GET_ITEM(stack, depth - 1);
                        if (need_entry(previous) < 0)
                            goto turn_failed;
                    }
                }
                Py_INCREF(uid_obj);
                Py_INCREF(stack);
                Py_XINCREF(previous);
                PyObject *event_time = NULL;
                int state = previous == NULL ? -2 : entry_state(previous);
                if (state == -1)
                    goto fanout_failed;
                if (state == PENDING) {
                    PyObject *previous_time = PyList_GET_ITEM(previous, E_TIME);
                    double previous_value, floor_value;
                    if (as_double(previous_time, &previous_value) < 0)
                        goto fanout_failed;
                    floor_value = previous_value + L.resolution;
                    int annihilate;
                    PyObject *leading_rising = PyList_GET_ITEM(previous, E_RISING);
                    int same_direction = L.event_order ? 1
                        : PyObject_RichCompareBool(leading_rising, rising, Py_EQ);
                    if (same_direction < 0)
                        goto fanout_failed;
                    if (same_direction) {
                        /* EVENT_ORDER, or PEAK_VOLTAGE's same-direction
                         * fallback to it */
                        annihilate = crossing <= floor_value;
                        if (!annihilate)
                            event_time = PyFloat_FromDouble(crossing);
                    } else {
                        /* inertial.peak_voltage_time */
                        double leading_t50, leading_duration, peak;
                        if (as_double(PyList_GET_ITEM(previous, E_T50), &leading_t50) < 0
                            || as_double(PyList_GET_ITEM(previous, E_DUR),
                                         &leading_duration) < 0)
                            goto fanout_failed;
                        if (leading_duration <= 0.0) {
                            peak = 1.0;
                        } else {
                            double progress = ((t50_value - 0.5 * tau_value)
                                               - (leading_t50 - 0.5 * leading_duration))
                                              / leading_duration;
                            /* min(1.0, max(0.0, progress)) */
                            double floor_progress = progress > 0.0 ? progress : 0.0;
                            peak = floor_progress < 1.0 ? floor_progress : 1.0;
                        }
                        int leading_up = PyObject_IsTrue(leading_rising);
                        if (leading_up < 0)
                            goto fanout_failed;
                        double threshold = leading_up ? fraction : 1.0 - fraction;
                        annihilate = peak <= threshold;
                        if (!annihilate) {
                            double corrected = crossing - (1.0 - peak) * tau_value;
                            /* max(corrected, previous_time + L.resolution) */
                            event_time = floor_value > corrected
                                ? add_numbers(previous_time, previous_value,
                                              L.resolution_obj, L.resolution)
                                : PyFloat_FromDouble(corrected);
                        }
                    }
                    if (annihilate) {
                        /* the pulse never crossed this input */
                        set_state(previous, CANCELLED);
                        live -= 1;
                        Py_ssize_t depth = PyList_GET_SIZE(stack);
                        if (PyList_SetSlice(stack, depth - 1, depth, NULL) < 0)
                            goto fanout_failed;
                        filtered += 1;
                        if (L.recording && increment_at(L.rec_net_filtered, out_net, 1) < 0)
                            goto fanout_failed;
                        if (L.record_filtered) {
                            Py_ssize_t gate;
                            if (index_at(L.input_gate, uid, &gate) < 0
                                || log_filtered(engine, L.cn, now, uid, gate, out_net,
                                                previous_time, crossing) < 0)
                                goto fanout_failed;
                        }
                        Py_DECREF(uid_obj);
                        Py_DECREF(stack);
                        Py_DECREF(previous);
                        continue;
                    }
                    if (event_time == NULL)
                        goto fanout_failed;
                } else {
                    if (stack == Py_None) {
                        PyErr_SetString(PyExc_TypeError,
                                        "object of type 'NoneType' has no len()");
                        goto fanout_failed;
                    }
                    Py_ssize_t depth = PyList_GET_SIZE(stack);
                    if (depth > 1 && PyList_SetSlice(stack, 0, depth - 1, NULL) < 0)
                        goto fanout_failed;
                    /* Every entry here has executed, and only the top one is
                     * ever read again. */
                    double previous_value = 0.0;
                    if (previous != NULL
                        && as_double(PyList_GET_ITEM(previous, E_TIME),
                                     &previous_value) < 0)
                        goto fanout_failed;
                    int clamp = 0;
                    if (previous != NULL && crossing <= previous_value) {
                        /* the predecessor already executed: the restoring
                         * event runs immediately */
                        late += 1;
                        if (L.recording && increment_at(L.rec_net_late, out_net, 1) < 0)
                            goto fanout_failed;
                        clamp = crossing < now_value;
                    } else if (crossing < now_value) {
                        late += 1;
                        if (L.recording && increment_at(L.rec_net_late, out_net, 1) < 0)
                            goto fanout_failed;
                        clamp = 1;
                    }
                    event_time = clamp ? Py_NewRef(now) : PyFloat_FromDouble(crossing);
                    if (event_time == NULL)
                        goto fanout_failed;
                }

                seq += 1;
                {
                    PyObject *entry = PyList_New(E_SIZE);
                    PyObject *seq_obj = PyLong_FromLongLong(seq);
                    if (entry == NULL || seq_obj == NULL) {
                        Py_XDECREF(entry);
                        Py_XDECREF(seq_obj);
                        Py_DECREF(event_time);
                        goto fanout_failed;
                    }
                    PyList_SET_ITEM(entry, E_TIME, event_time);
                    PyList_SET_ITEM(entry, E_UID, Py_NewRef(uid_obj));
                    PyList_SET_ITEM(entry, E_SEQ, seq_obj);
                    PyList_SET_ITEM(entry, E_VALUE, Py_NewRef(value));
                    PyList_SET_ITEM(entry, E_T50, Py_NewRef(t50));
                    PyList_SET_ITEM(entry, E_DUR, Py_NewRef(tau_out));
                    PyList_SET_ITEM(entry, E_RISING, Py_NewRef(rising));
                    PyList_SET_ITEM(entry, E_STATE, Py_NewRef(small_int[PENDING]));
                    int status = heap_push(heap, entry);
                    if (status == 0)
                        status = PyList_Append(stack, entry);
                    Py_DECREF(entry);
                    if (status < 0)
                        goto fanout_failed;
                }
                Py_DECREF(uid_obj);
                Py_DECREF(stack);
                Py_XDECREF(previous);
                continue;
            fanout_failed:
                Py_DECREF(uid_obj);
                Py_DECREF(stack);
                Py_XDECREF(previous);
                goto turn_failed;
            }
            if (L.recording
                && increment_at(L.rec_net_scheduled, out_net, seq - first_seq) < 0)
                goto turn_failed;
            scheduled += seq - first_seq;
            live += seq - first_seq;
        }
        Py_DECREF(t50);
        Py_DECREF(tau_out);
        Py_DECREF(rising);
        continue;
    turn_failed:
        Py_XDECREF(t50);
        Py_XDECREF(tau_out);
        Py_XDECREF(rising);
        goto done;
    }
    result = Py_NewRef(event);

done:
    if (loaded) {
        /* the Python loop's `finally`: write the locals back (those that
         * changed: an unchanged one already holds its value), keeping a
         * pending exception */
        PyObject *type, *error, *traceback;
        PyErr_Fetch(&type, &error, &traceback);
        int failed = (now != now_before && PyObject_SetAttr(engine, s_now, now) < 0)
            || (seq != before[0] && write_counter(engine, s_seq, seq) < 0)
            || (live != before[1] && write_counter(queue, s_live, live) < 0)
            || (executed != before[2]
                && write_counter(stats, s_events_executed, executed) < 0)
            || (scheduled != before[3]
                && write_counter(stats, s_events_scheduled, scheduled) < 0)
            || (filtered != before[4]
                && write_counter(stats, s_events_filtered, filtered) < 0)
            || (late != before[5] && write_counter(stats, s_late_events, late) < 0)
            || (emitted != before[6]
                && (write_counter(stats, s_transitions_emitted, emitted) < 0
                    || PyObject_SetAttr(engine, s_toggles_dirty, Py_True) < 0))
            || (degraded != before[7]
                && write_counter(stats, s_transitions_degraded, degraded) < 0)
            || (fully != before[8]
                && write_counter(stats, s_transitions_fully_degraded, fully) < 0);
        if (type != NULL) {
            if (failed)
                PyErr_Clear();
            PyErr_Restore(type, error, traceback);
        }
        if (failed || type != NULL)
            Py_CLEAR(result);
    }
    Py_XDECREF(event);
    Py_XDECREF(now);
    Py_XDECREF(now_before);
    Py_XDECREF(source_list);
    release(&held);
    return result;
}

/* ------------------------------------------------------------------ */
/* dc_update(cn, row, sweep)                                          */
/* ------------------------------------------------------------------ */

static PyObject *
dc_update(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 3) {
        PyErr_SetString(PyExc_TypeError, "dc_update(cn, row, sweep)");
        return NULL;
    }
    PyObject *cn = args[0], *row = args[1], *sweep = args[2];
    if (need_list(row, "row") < 0)
        return NULL;
    PyObject *tables = PyObject_GetAttr(cn, s_gate_tables);
    if (tables == NULL)
        return NULL;
    PyObject *steps = need_list(tables, "gate_tables") < 0 ? NULL
        : PySequence_Fast(sweep, "sweep must be a sequence");
    if (steps == NULL) {
        Py_DECREF(tables);
        return NULL;
    }
    Py_ssize_t count = PySequence_Fast_GET_SIZE(steps);
    for (Py_ssize_t i = 0; i < count; i++) {
        PyObject *step = PySequence_Fast_GET_ITEM(steps, i);
        PyObject *fields = PySequence_Fast(step, "cannot unpack non-iterable object");
        if (fields == NULL)
            goto failed;
        if (PySequence_Fast_GET_SIZE(fields) != 3) {
            PyErr_SetString(PyExc_ValueError,
                            "a sweep step must be (gate, output net, input nets)");
            Py_DECREF(fields);
            goto failed;
        }
        PyObject *gate_obj = PySequence_Fast_GET_ITEM(fields, 0);
        PyObject *in_nets = PySequence_Fast_GET_ITEM(fields, 2);
        Py_ssize_t gate, out_net, arity;
        PyObject *table, *value = NULL;
        if (as_index(gate_obj, &gate) < 0
            || as_index(PySequence_Fast_GET_ITEM(fields, 1), &out_net) < 0
            || (table = item_at(tables, gate)) == NULL
            || (arity = PyObject_Length(in_nets)) < 0) {
            Py_DECREF(fields);
            goto failed;
        }
        if (table != Py_None && (arity == 1 || arity == 2)) {
            long index = 0, bit_value = 0;
            int bad = 0;
            for (Py_ssize_t bit = 0; bit < arity && !bad; bit++) {
                PyObject *net_obj = PySequence_GetItem(in_nets, bit);
                Py_ssize_t net;
                bad = net_obj == NULL || as_index(net_obj, &net) < 0;
                Py_XDECREF(net_obj);
                PyObject *level = bad ? NULL : item_at(row, net);
                bad = level == NULL || as_long(level, &bit_value) < 0;
                index |= bit_value << bit;
            }
            Py_INCREF(table);
            value = bad ? NULL : table_item(table, index);
            Py_DECREF(table);
        } else {
            /* the generic bit-packing path and table-less cells */
            value = PyObject_CallMethodObjArgs(cn, s_gate_value, gate_obj, row,
                                               in_nets, NULL);
        }
        Py_DECREF(fields);
        if (value == NULL)
            goto failed;
        int status = set_at(row, out_net, value);
        Py_DECREF(value);
        if (status < 0)
            goto failed;
    }
    Py_DECREF(steps);
    Py_DECREF(tables);
    return Py_NewRef(row);
failed:
    Py_DECREF(steps);
    Py_DECREF(tables);
    return NULL;
}

/* ------------------------------------------------------------------ */
/* bind(limit_error, waveform_error, filtered_record, evaluate)        */
/* ------------------------------------------------------------------ */

static PyObject *
bind(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 4) {
        PyErr_SetString(PyExc_TypeError,
                        "bind(limit_error, waveform_error, filtered_record, "
                        "evaluate)");
        return NULL;
    }
    Py_XSETREF(limit_error, Py_NewRef(args[0]));
    Py_XSETREF(waveform_error, Py_NewRef(args[1]));
    Py_XSETREF(filtered_record, Py_NewRef(args[2]));
    Py_XSETREF(evaluate_fn, Py_NewRef(args[3]));
    Py_RETURN_NONE;
}

static PyMethodDef kernel_methods[] = {
    {"advance", (PyCFunction)(void (*)(void))advance, METH_FASTCALL,
     "advance(engine, until, steps, sources): CompiledSimulator._advance."},
    {"dc_update", (PyCFunction)(void (*)(void))dc_update, METH_FASTCALL,
     "dc_update(cn, row, sweep): CompiledNetlist.dc_update."},
    {"bind", (PyCFunction)(void (*)(void))bind, METH_FASTCALL,
     "bind(limit_error, waveform_error, filtered_record, evaluate)."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef kernel_module = {
    PyModuleDef_HEAD_INIT, "_kernel",
    "Native twin of the compiled event loop (see _kernel.c).", -1,
    kernel_methods, NULL, NULL, NULL, NULL,
};

#define INTERN(var, text) \
    if ((var = PyUnicode_InternFromString(text)) == NULL) return NULL

PyMODINIT_FUNC
PyInit__kernel(void)
{
    for (int state = 0; state < 3; state++)
        if ((small_int[state] = PyLong_FromLong(state)) == NULL)
            return NULL;
    budget_format = PyUnicode_FromString(
        "event budget (%d) exhausted at t=%.4f ns \xe2\x80\x94 "
        "zero-delay oscillation?");
    if (budget_format == NULL)
        return NULL;
    INTERN(s_stats, "stats");
    INTERN(s_queue, "queue");
    INTERN(s_heap, "_heap");
    INTERN(s_live, "_live");
    INTERN(s_cn, "_cn");
    INTERN(s_gate_tables, "gate_tables");
    INTERN(s_arc_rise, "arc_rise");
    INTERN(s_arc_fall, "arc_fall");
    INTERN(s_input_gate, "input_gate");
    INTERN(s_gate_input_offsets, "gate_input_offsets");
    INTERN(s_gate_output_net, "gate_output_net");
    INTERN(s_fanout_offsets, "fanout_offsets");
    INTERN(s_fanout_targets, "fanout_targets");
    INTERN(s_vt_fraction, "vt_fraction");
    INTERN(s_input_values, "_input_values");
    INTERN(s_gate_out, "_gate_out");
    INTERN(s_gate_last, "_gate_last");
    INTERN(s_stacks, "_stacks");
    INTERN(s_toggles, "_toggles");
    INTERN(s_trace_appenders, "_trace_appenders");
    INTERN(s_use_ddm, "_use_ddm");
    INTERN(s_event_order, "_event_order");
    INTERN(s_min_delay, "_min_delay");
    INTERN(s_resolution, "_resolution");
    INTERN(s_max_events, "_max_events");
    INTERN(s_config, "config");
    INTERN(s_record_filtered, "record_filtered");
    INTERN(s_record, "_record");
    INTERN(s_executed, "executed");
    INTERN(s_gate_last_time, "gate_last_time");
    INTERN(s_gate_degraded, "gate_degraded");
    INTERN(s_gate_fully, "gate_fully");
    INTERN(s_net_scheduled, "net_scheduled");
    INTERN(s_net_filtered, "net_filtered");
    INTERN(s_net_late, "net_late");
    INTERN(s_now, "now");
    INTERN(s_seq, "_seq");
    INTERN(s_events_executed, "events_executed");
    INTERN(s_events_scheduled, "events_scheduled");
    INTERN(s_events_filtered, "events_filtered");
    INTERN(s_late_events, "late_events");
    INTERN(s_transitions_emitted, "transitions_emitted");
    INTERN(s_transitions_degraded, "transitions_degraded");
    INTERN(s_transitions_fully_degraded, "transitions_fully_degraded");
    INTERN(s_toggles_dirty, "_toggles_dirty");
    INTERN(s_t50, "t50");
    INTERN(s_duration, "duration");
    INTERN(s_rising, "rising");
    INTERN(s_index, "index");
    INTERN(s_gate_functions, "gate_functions");
    INTERN(s_gate_names, "gate_names");
    INTERN(s_input_pin, "input_pin");
    INTERN(s_net_names, "net_names");
    INTERN(s_filtered_log, "filtered_log");
    INTERN(s_gate_value, "_gate_value");
    return PyModule_Create(&kernel_module);
}
