/*
 * Compiled event loop of the threshold voter process (see dynamics.py).
 *
 * ct_run_events runs one whole run of dynamics._run_events in one call and is
 * bit-exact with its Python loop: it seeds CPython's MT19937 from the integer
 * seed as random.Random(seed) does, draws with CPython's rules for random(),
 * expovariate() and randrange(), in the same order per event, keeps the
 * active-edge array in the same order, and takes the opinion and extremist
 * trace samples itself. It can log every event, from which dynamics replays
 * per-event hooks. Every floating-point step is one IEEE-754 operation
 * as in Python, so it must be compiled without contraction into fused
 * multiply-adds and without fast-math.
 */

#include <math.h>
#include <stddef.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define MT_N 624
#define MT_M 397

enum { CT_NO_MEMORY = -1, CT_LIMIT = 0, CT_T_MAX = 1, CT_ABSORBED = 2, CT_SAMPLE = 3 };

/* CPython's init_genrand; mt[MT_N] holds the position in the state. */
static void init_genrand(uint32_t *mt, uint32_t s)
{
    mt[0] = s;
    for (uint32_t i = 1; i < MT_N; i++)
        mt[i] = 1812433253U * (mt[i - 1] ^ (mt[i - 1] >> 30)) + i;
    mt[MT_N] = MT_N;
}

/* CPython's init_by_array (Matsumoto & Nishimura 1998), as random.seed(n)
 * calls it with the 32-bit little-endian words of abs(n). */
static void init_by_array(uint32_t *mt, const uint32_t *key, size_t key_length)
{
    size_t i = 1, j = 0, k;
    init_genrand(mt, 19650218U);
    for (k = MT_N > key_length ? MT_N : key_length; k; k--) {
        mt[i] = (mt[i] ^ ((mt[i - 1] ^ (mt[i - 1] >> 30)) * 1664525U)) + key[j] + (uint32_t)j;
        i++;
        j++;
        if (i >= MT_N) {
            mt[0] = mt[MT_N - 1];
            i = 1;
        }
        if (j >= key_length)
            j = 0;
    }
    for (k = MT_N - 1; k; k--) {
        mt[i] = (mt[i] ^ ((mt[i - 1] ^ (mt[i - 1] >> 30)) * 1566083941U)) - (uint32_t)i;
        i++;
        if (i >= MT_N) {
            mt[0] = mt[MT_N - 1];
            i = 1;
        }
    }
    mt[0] = 0x80000000U;
}

/* CPython's genrand_uint32. */
static uint32_t genrand(uint32_t *mt)
{
    static const uint32_t mag01[2] = {0x0U, 0x9908b0dfU};
    uint32_t y;
    if (mt[MT_N] >= MT_N) {
        int kk;
        for (kk = 0; kk < MT_N - MT_M; kk++) {
            y = (mt[kk] & 0x80000000U) | (mt[kk + 1] & 0x7fffffffU);
            mt[kk] = mt[kk + MT_M] ^ (y >> 1) ^ mag01[y & 0x1U];
        }
        for (; kk < MT_N - 1; kk++) {
            y = (mt[kk] & 0x80000000U) | (mt[kk + 1] & 0x7fffffffU);
            mt[kk] = mt[kk + (MT_M - MT_N)] ^ (y >> 1) ^ mag01[y & 0x1U];
        }
        y = (mt[MT_N - 1] & 0x80000000U) | (mt[0] & 0x7fffffffU);
        mt[MT_N - 1] = mt[MT_M - 1] ^ (y >> 1) ^ mag01[y & 0x1U];
        mt[MT_N] = 0;
    }
    y = mt[mt[MT_N]++];
    y ^= (y >> 11);
    y ^= (y << 7) & 0x9d2c5680U;
    y ^= (y << 15) & 0xefc60000U;
    y ^= (y >> 18);
    return y;
}

/* random.random(): 53 random bits over 2**53. */
static double random53(uint32_t *mt)
{
    uint32_t a = genrand(mt) >> 5, b = genrand(mt) >> 6;
    return (a * 67108864.0 + b) * (1.0 / 9007199254740992.0);
}

/* random.randrange(n) for 1 <= n < 2**31: getrandbits(n.bit_length()) by rejection. */
static int64_t randbelow(uint32_t *mt, int64_t n)
{
    int shift = __builtin_clz((uint32_t)n);
    uint32_t r = genrand(mt) >> shift;
    while (r >= (uint64_t)n)
        r = genrand(mt) >> shift;
    return r;
}

/*
 * 1 iff the exact difference a - b is nonzero and strictly inside (-eps, eps)
 * (dynamics._live). The rounded difference d decides every case but
 * |d| == eps, where the exact difference may lie on either side of eps; there
 * TwoSum (Knuth, TAOCP vol. 2, 4.2.2) recovers the rounding error err with
 * a - b == d + err exactly, and the edge is live iff err pulls d inside.
 */
static int live(double a, double b, double eps)
{
    double d = a - b;
    if (-eps < d && d < eps)
        return d != 0.0;
    if (d == 0.0 || (d != eps && d != -eps))
        return 0;
    double a1 = d + b, b1 = d - a1;
    double err = (a - a1) + (-b - b1);
    return d > 0.0 ? err < 0.0 : err > 0.0;
}

/* The trace arrays of a run and the scratch table of its distinct counts. */
struct trace {
    double *t;
    int64_t *k, *count, *extremists;
    uint64_t *table; /* 2**bits >= 2n words */
    int bits;
};

/*
 * Append one sample of the n opinions at clock t: the event count state[0],
 * the number of distinct opinions under == (so -0.0 and 0.0 are one value,
 * as in a Python set) and, when eps > 1/2, the number of opinions outside
 * (1 - eps, eps); state[2] counts the samples. The distinct count hashes
 * the bit patterns into the table with linear probing; all-ones, a NaN,
 * marks an empty slot.
 */
static void take_sample(const struct trace *tr, const double *ops, int32_t n, double eps,
                        int64_t *state, double t)
{
    const uint64_t empty = ~(uint64_t)0, mask = ((uint64_t)1 << tr->bits) - 1;
    uint64_t *table = tr->table;
    double lo = 1.0 - eps;
    int64_t distinct = 0, extremists = 0;
    memset(table, 0xff, (mask + 1) * sizeof *table);
    for (int32_t i = 0; i < n; i++) {
        double v = ops[i] + 0.0; /* -0.0 + 0.0 is 0.0 */
        uint64_t key;
        memcpy(&key, &v, sizeof key);
        uint64_t h = (key * 0x9E3779B97F4A7C15ULL) >> (64 - tr->bits);
        while (table[h] != empty && table[h] != key)
            h = (h + 1) & mask;
        if (table[h] == empty) {
            table[h] = key;
            distinct++;
        }
        extremists += v <= lo || v >= eps;
    }
    int64_t s = state[2]++;
    tr->t[s] = t;
    tr->k[s] = state[0];
    tr->count[s] = distinct;
    if (eps > 0.5)
        tr->extremists[s] = extremists;
}

/*
 * Run the process on a graph with n vertices and m edges until max_events
 * events have run, the clock would pass t_max (then the clock is set to
 * t_max) or no edge is active; returns CT_LIMIT, CT_T_MAX or CT_ABSORBED, or
 * CT_NO_MEMORY if the scratch table cannot be allocated.
 *
 * Edge f joins e1[f] < e2[f]; the edges at vertex v, in increasing index
 * order, are inc_edge[inc_start[v] .. inc_start[v + 1]). The run's state
 * lives in the caller's buffers and is updated in place: opinions `ops`
 * (n), the active edges active[0..state[1]) with positions `pos` (m each,
 * -1 when inactive), the generator `mt` (625 words), the event count
 * state[0] and the sample count state[2]. If `weights` is not NULL it holds
 * the coupled edge weights: the fired edge is set to 0.0 and the other edges
 * at the target gain or lose the target's change by orientation.
 *
 * A call with state[2] == 0 starts the run: it seeds `mt` from `key`, the
 * key_length 32-bit little-endian words of abs(seed) ({0} for 0), builds the
 * active set and samples the initial state. Samples are taken at events 0,
 * 1, 2, 4, ... and at the final state if its clock differs from the last
 * sample's; sample s is written to trace_t[s] (clock), trace_k[s] (events),
 * trace_count[s] and, when eps > 1/2, trace_extremists[s]. Each trace array
 * needs room for bit_length(max_events) + 2 samples.
 *
 * With log_cap > 0 the call also logs each event to log_t[state[3]] (its
 * clock) and log_edge[state[3]] (the fired edge f, or ~f when its lower
 * endpoint e1[f] was the target), counting in state[3], and returns
 * CT_SAMPLE once log_cap events are logged. With `pause` set it returns
 * CT_SAMPLE after every sample but the final one. Either way the caller can
 * observe the state there, and calling again resumes the run at the last
 * logged event's clock, or else the last sample's, and restarts the log.
 */
int ct_run_events(const int32_t *e1, const int32_t *e2, const int32_t *inc_start,
                  const int32_t *inc_edge, int32_t n_vertices, int32_t n_edges,
                  const uint32_t *key, int32_t key_length, double *ops, double *weights,
                  int32_t *active, int32_t *pos, uint32_t *mt, int64_t *state, double *trace_t,
                  int64_t *trace_k, int64_t *trace_count, int64_t *trace_extremists,
                  double *log_t, int32_t *log_edge, int32_t log_cap, double eps, double t_max,
                  int64_t max_events, int32_t pause)
{
    struct trace tr = {trace_t, trace_k, trace_count, trace_extremists, NULL, 1};
    while (((int64_t)1 << tr.bits) < 2 * (int64_t)n_vertices)
        tr.bits++;
    tr.table = malloc(((size_t)1 << tr.bits) * sizeof *tr.table);
    if (tr.table == NULL)
        return CT_NO_MEMORY;

    int64_t events, n;
    double t;
    int code = CT_SAMPLE;
    if (state[2] == 0) {
        init_by_array(mt, key, (size_t)key_length);
        n = 0;
        for (int32_t f = 0; f < n_edges; f++) {
            pos[f] = -1;
            if (live(ops[e1[f]], ops[e2[f]], eps)) {
                pos[f] = (int32_t)n;
                active[n++] = f;
            }
        }
        state[0] = state[3] = events = 0;
        t = 0.0;
        take_sample(&tr, ops, n_vertices, eps, state, t);
        if (pause)
            goto out;
    } else {
        events = state[0];
        n = state[1];
        t = state[3] > 0 ? log_t[state[3] - 1] : trace_t[state[2] - 1];
    }
    state[3] = 0;
    uint64_t next_trace = 1;
    while (next_trace <= (uint64_t)events)
        next_trace *= 2;

    code = CT_LIMIT;
    while (n > 0 && events < max_events) {
        double dt = -log(1.0 - random53(mt)) / (2.0 * (double)n);
        if (t + dt > t_max) {
            t = t_max;
            code = CT_T_MAX;
            break;
        }
        t += dt;
        int32_t e = active[randbelow(mt, n)];
        int32_t src = e1[e], tgt = e2[e];
        if (!(random53(mt) < 0.5)) {
            src = e2[e];
            tgt = e1[e];
        }
        double old = ops[tgt];
        ops[tgt] = ops[src];
        double delta = ops[tgt] - old;
        events++;
        for (int32_t k = inc_start[tgt]; k < inc_start[tgt + 1]; k++) {
            int32_t f = inc_edge[k];
            if (weights != NULL) {
                if (f == e)
                    weights[f] = 0.0;
                else if (e2[f] == tgt)
                    weights[f] += delta;
                else
                    weights[f] -= delta;
            }
            int is_live = live(ops[e1[f]], ops[e2[f]], eps);
            int32_t p = pos[f];
            if (is_live && p < 0) {
                pos[f] = (int32_t)n;
                active[n++] = f;
            } else if (!is_live && p >= 0) {
                int32_t last = active[--n];
                active[p] = last;
                pos[last] = p;
                pos[f] = -1;
            }
        }
        int stop = 0;
        if (log_cap > 0) {
            log_t[state[3]] = t;
            log_edge[state[3]] = src == e1[e] ? e : ~e;
            stop = ++state[3] == log_cap;
        }
        if ((uint64_t)events == next_trace) {
            state[0] = events;
            take_sample(&tr, ops, n_vertices, eps, state, t);
            next_trace *= 2;
            stop |= pause;
        }
        if (stop) {
            state[0] = events;
            code = CT_SAMPLE;
            goto out;
        }
    }
    if (code == CT_LIMIT && n == 0)
        code = CT_ABSORBED;
    state[0] = events;
    if (trace_t[state[2] - 1] != t)
        take_sample(&tr, ops, n_vertices, eps, state, t);
out:
    state[1] = n;
    free(tr.table);
    return code;
}
