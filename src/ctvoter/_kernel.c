/*
 * Compiled event loop of the threshold voter process (see dynamics.py).
 *
 * ct_run_events runs dynamics._run_events in one call, or pauses at an event
 * count the caller chooses, and is bit-exact with the Python reference loop
 * of tests/reference_loop.py: it seeds CPython's MT19937 from the integer
 * seed as random.Random(seed) does, draws with CPython's rules for random(),
 * expovariate() and randrange(), in the same order per event, and keeps the
 * active-edge array in the same order.
 * Its observers cost O(1) per event and none of them pauses it: it keeps
 * the distinct-opinion and extremist counts of a traced run, and the edge
 * census of the coupled weights, up to date on each event, so a trace sample
 * is a copy of a row. It can log every event, from which dynamics replays
 * per-event hooks. ct_draw_uniform draws an initial configuration bit for
 * bit as numpy's default_rng does; dynamics.random_initial calls it, so a
 * compiled run never imports numpy.random. ct_run_replicates runs a batch of
 * the replicates of experiments.run_replicate in one call, drawing each
 * initial configuration with it and counting only the final opinions.
 * Both run entry points take a struct ct_run, the one record of a run's
 * graph, parameters, buffers and counters. ct_reaches_all is
 * graphs.is_connected's search over the CSR incidence. Every
 * floating-point step is one IEEE-754 operation as in Python and NumPy, so
 * it must be compiled without contraction into fused multiply-adds and
 * without fast-math.
 *
 * Every buffer belongs to the caller (_kernel.scratch sizes the scratch), so
 * nothing here allocates memory and no call can fail.
 *
 * Four shortcuts make the generator cheaper and consume the same MT19937
 * words in the same order, so every output stays the same:
 * - Block tempering. After each twist, run_events tempers all MT_N state
 *   words in one vectorised loop into out, a block on its stack, and reads
 *   every word from there through a cursor it keeps in a local, which no
 *   store to the int32_t buffers can alias. The cursor's position goes back
 *   to the state when the call returns. A call that resumes within a block
 *   (a pause for the hooks' log) tempers that block again on entry; a
 *   seeded state stands at position MT_N, so a run's first call never does.
 *   A skipped word only advances the cursor.
 * - Lane seeding. Every seed lies in [0, 2**64) (common.check_seed), so its
 *   init_by_array key has one or two 32-bit words, and the key index j is 0
 *   on every step or the step's parity. init_by_array starts from
 *   init_genrand(19650218), the same 624 words for every seed, so
 *   ct_run_replicates computes them once per call, and it runs the two
 *   mixing loops for LANES replicates at once. ct_run_events seeds its one
 *   run by the same rule.
 * - The direction coin. random() is (a * 2**26 + b) / 2**53 with a = w1 >> 5
 *   and b = w2 >> 6 < 2**26, so random() < 0.5 iff a * 2**26 + b < 2**52 iff
 *   a < 2**26 (b cannot carry a across 2**52) iff w1 < 2**31. The coin reads
 *   the first word and skips the second.
 * - The clock. A run with an infinite t_max and neither trace nor log (a
 *   batch to absorption) keeps no clock: each holding time's two words are
 *   skipped and no -log(1 - u) / (2n) is taken. The clock is finite and each
 *   holding time finite and >= 0, so t + dt > +inf never holds and the run
 *   stops where it would; its record's clock stays 0.
 */

#include <math.h>
#include <stddef.h>
#include <stdint.h>
#include <string.h>

#define MT_N 624
#define MT_M 397

enum { CT_LIMIT = 0, CT_T_MAX = 1, CT_ABSORBED = 2, CT_PAUSE = 3 };

/* CPython's init_genrand; mt[MT_N] holds the position in the state. */
static void init_genrand(uint32_t *mt, uint32_t s)
{
    mt[0] = s;
    for (uint32_t i = 1; i < MT_N; i++)
        mt[i] = 1812433253U * (mt[i - 1] ^ (mt[i - 1] >> 30)) + i;
    mt[MT_N] = MT_N;
}

/*
 * CPython's init_by_array (Matsumoto & Nishimura 1998), as random.seed(n)
 * calls it with the 32-bit little-endian words of n, for `lanes` <= LANES
 * states at once: state l from the key of seed seeds[l] < 2**64 (one word,
 * {0} for 0, or two if the seed needs them), starting from base,
 * init_genrand(19650218) computed once by the caller. Each step
 * of both mixing loops is the scalar one for each lane in turn: the lanes'
 * multiply chains are independent, so they overlap. With at most two key
 * words, init_by_array's key index j is 0 on every step for one word and
 * the step's parity for two, so step s adds add[l][s & 1], key[j] + j. The
 * first loop's first pass, i = 1 .. 623, reads base[i] where init_by_array
 * reads its own copy of it. Inlined into both callers, each with a constant
 * `lanes`: called out of line, a batch replicate took about 1 us more (3.0
 * against 4.0 us on path:20 at eps 0, with no event), and four lanes for
 * ct_run_events' one seed about 10 us more than one.
 */
#define LANES 4

__attribute__((always_inline)) static inline void
init_by_array_lanes(uint32_t mt[][MT_N + 1], const uint32_t *base, const uint64_t *seeds, int lanes)
{
    uint32_t add[LANES][2], prev[LANES];
    int i, l;
    for (l = 0; l < lanes; l++) {
        add[l][0] = (uint32_t)seeds[l];
        add[l][1] = seeds[l] >> 32 ? (uint32_t)(seeds[l] >> 32) + 1U : add[l][0];
        prev[l] = base[0];
    }
    for (i = 1; i < MT_N; i++) /* steps 0 .. 622 */
        for (l = 0; l < lanes; l++)
            prev[l] = mt[l][i] =
                (base[i] ^ ((prev[l] ^ (prev[l] >> 30)) * 1664525U)) + add[l][(i - 1) & 1];
    for (l = 0; l < lanes; l++) /* step 623, after mt[0] = mt[623]; i = 1 */
        prev[l] = mt[l][1] = (mt[l][1] ^ ((prev[l] ^ (prev[l] >> 30)) * 1664525U)) + add[l][1];
    for (i = 2; i < MT_N; i++) /* the second loop from i = 2 */
        for (l = 0; l < lanes; l++)
            prev[l] = mt[l][i] =
                (mt[l][i] ^ ((prev[l] ^ (prev[l] >> 30)) * 1566083941U)) - (uint32_t)i;
    for (l = 0; l < lanes; l++) { /* its last step, after mt[0] = mt[623]; i = 1 */
        mt[l][1] = (mt[l][1] ^ ((prev[l] ^ (prev[l] >> 30)) * 1566083941U)) - 1U;
        mt[l][0] = 0x80000000U;
        mt[l][MT_N] = MT_N;
    }
}

/* The next MT_N words of the state, as CPython's genrand_uint32 makes them:
 * -(y & 1) & 0x9908b0df is its mag01[y & 1], without a table. */
static void twist(uint32_t *mt)
{
    uint32_t y;
    int kk;
    for (kk = 0; kk < MT_N - MT_M; kk++) {
        y = (mt[kk] & 0x80000000U) | (mt[kk + 1] & 0x7fffffffU);
        mt[kk] = mt[kk + MT_M] ^ (y >> 1) ^ (-(y & 0x1U) & 0x9908b0dfU);
    }
    for (; kk < MT_N - 1; kk++) {
        y = (mt[kk] & 0x80000000U) | (mt[kk + 1] & 0x7fffffffU);
        mt[kk] = mt[kk + (MT_M - MT_N)] ^ (y >> 1) ^ (-(y & 0x1U) & 0x9908b0dfU);
    }
    y = (mt[MT_N - 1] & 0x80000000U) | (mt[0] & 0x7fffffffU);
    mt[MT_N - 1] = mt[MT_M - 1] ^ (y >> 1) ^ (-(y & 0x1U) & 0x9908b0dfU);
}

/* genrand_uint32's tempering of all MT_N state words into out, in one loop
 * that GCC vectorises; without restrict it would need an overlap check,
 * which -O2 does not add, and stayed scalar there. */
static void temper(const uint32_t *restrict mt, uint32_t *restrict out)
{
    for (int k = 0; k < MT_N; k++) {
        uint32_t y = mt[k];
        y ^= (y >> 11);
        y ^= (y << 7) & 0x9d2c5680U;
        y ^= (y << 15) & 0xefc60000U;
        out[k] = y ^ (y >> 18);
    }
}

/* CPython's genrand_uint32: the word at *w in out, the tempered state,
 * twisting and tempering the next block when out is used up. */
static inline uint32_t next_word(uint32_t *mt, uint32_t *out, const uint32_t **w)
{
    if (__builtin_expect(*w >= out + MT_N, 0)) {
        twist(mt);
        temper(mt, out);
        *w = out;
    }
    return *(*w)++;
}

/*
 * 1 iff the exact difference a - b is nonzero and strictly inside (-eps, eps)
 * (dynamics._live). The rounded difference d decides every case but
 * |d| == eps, where the exact difference may lie on either side of eps; there
 * TwoSum (Knuth, TAOCP vol. 2, 4.2.2) recovers the rounding error err with
 * a - b == d + err exactly, and the edge is live iff err pulls d inside.
 * fabs(d) < eps is -eps < d && d < eps for every d (a NaN fails both), in
 * one comparison and without the && branch on d's sign, a coin flip.
 */
static int live(double a, double b, double eps)
{
    double d = a - b;
    if (fabs(d) < eps)
        return d != 0.0;
    if (d == 0.0 || fabs(d) != eps)
        return 0;
    double a1 = d + b, b1 = d - a1;
    double err = (a - a1) + (-b - b1);
    return d > 0.0 ? err < 0.0 : err > 0.0;
}

/* 1 iff opinion v lies outside (1 - eps, eps). */
static int extreme(double v, double eps)
{
    return v <= 1.0 - eps || v >= eps;
}

/*
 * Count the n opinions: out[0] gets the number of distinct opinions under ==
 * (so -0.0 and 0.0 are one value, as in a Python set) and out[1] the number
 * outside (1 - eps, eps). The distinct count hashes the bit patterns with
 * linear probing into the caller's table of 2**bits words, the least power
 * of two >= 2n (at least 2); all-ones, a NaN, marks an empty slot. If slots
 * is not NULL, slots[i] gets the table slot of opinion i and slots[n + h]
 * the number of opinions at slot h, for each of the 2**bits slots.
 */
static void count_opinions(uint64_t *table, int32_t *slots, const double *ops, int32_t n,
                           double eps, int64_t out[2])
{
    int bits = 1;
    while (((int64_t)1 << bits) < 2 * (int64_t)n)
        bits++;
    const uint64_t empty = ~(uint64_t)0, mask = ((uint64_t)1 << bits) - 1;
    int64_t distinct = 0, extremists = 0;
    memset(table, 0xff, (mask + 1) * sizeof *table);
    if (slots != NULL)
        memset(slots + n, 0, (mask + 1) * sizeof *slots);
    for (int32_t i = 0; i < n; i++) {
        double v = ops[i] + 0.0; /* -0.0 + 0.0 is 0.0 */
        uint64_t key;
        memcpy(&key, &v, sizeof key);
        uint64_t h = (key * 0x9E3779B97F4A7C15ULL) >> (64 - bits);
        while (table[h] != empty && table[h] != key)
            h = (h + 1) & mask;
        if (table[h] == empty) {
            table[h] = key;
            distinct++;
        }
        if (slots != NULL) {
            slots[i] = (int32_t)h;
            slots[n + h]++;
        }
        extremists += extreme(v, eps);
    }
    out[0] = distinct;
    out[1] = extremists;
}

/*
 * Add `by` to the census count of weight w's type, binned as
 * edge_process.census bins it: type 0 for a zero weight, type k + 1 for
 * k*eps < |w| < (k + 1)*eps (products rounded), or BOUNDARY (count types +
 * 1) for a nonzero |w| == k*eps. k starts as census's floor(|w| / eps), taken
 * by truncation: the quotient q is >= 0, truncation equals floor for q <
 * 2**52, and from 2**52 on every double is an integer, so q is kept as it is
 * (never cast, which could overflow). The two corrections and the
 * comparisons are census's operations one for one. A type above `types` is
 * counted nowhere, so that a census row sums to less than the edge count.
 */
static void tally(int64_t *census, int32_t types, double w, double eps, int64_t by)
{
    double a = fabs(w), q = a / eps;
    double k = q < 0x1p52 ? (double)(int64_t)q : q;
    k -= k * eps > a;
    k += (k + 1) * eps <= a;
    if (k >= 1 && a == k * eps)
        census[types + 1] += by;
    else if (a == 0.0)
        census[0] += by;
    else if (k + 1 <= types)
        census[(int64_t)k + 1] += by;
}

/*
 * The coupled weight rule after edge e fired onto vertex tgt, whose opinion
 * changed by delta; the edges at tgt are edges[0 .. end - edges). e's
 * weight is set to 0.0, and each other edge f gains delta if tgt is its
 * higher endpoint e2[f] and loses it otherwise. If census is not NULL, each
 * changed weight is moved from its old type's count to its new one. Kept
 * out of line, so that the event loop of an uncoupled run is as small as if
 * there were no weights.
 */
__attribute__((noinline)) static void move_weights(double *weights, int64_t *census,
                                                   int32_t types, const int32_t *e2,
                                                   const int32_t *edges, const int32_t *end,
                                                   int32_t e, int32_t tgt, double delta,
                                                   double eps)
{
    for (; edges < end; edges++) {
        int32_t f = *edges;
        double w = f == e ? 0.0 : e2[f] == tgt ? weights[f] + delta : weights[f] - delta;
        if (census != NULL) {
            tally(census, types, weights[f], eps, -1);
            tally(census, types, w, eps, 1);
        }
        weights[f] = w;
    }
}

/*
 * One run of the process on a graph with n vertices and m edges, the record
 * both run entry points take; _kernel.Run mirrors it field for field.
 *
 * Edge f joins e1[f] < e2[f]; the edges at vertex v, in increasing index
 * order, are inc_edge[inc_start[v] .. inc_start[v + 1]). The run stops once
 * max_events events have run, the clock would pass t_max (then the clock is
 * set to t_max) or no edge is active, and pauses when `until` events have
 * run. `seed` (< 2**64) seeds the generator of ct_run_events.
 *
 * The buffers are the caller's: the opinions `ops` (n), the scratch `work`
 * of 2m + 625 words (the active edges, their positions pos (m each, -1 when
 * inactive), then the generator's 625 words), and those of the observers
 * below, each NULL when the run has no such observer. If `weights` is not
 * NULL it holds the coupled edge weights: the fired edge is set to 0.0 and
 * the other edges at the target gain or lose the target's change by
 * orientation.
 *
 * If trace_t is not NULL, samples are taken at events 0, 1, 2, 4, ... and at
 * the final state if its clock differs from the last sample's; sample s is
 * written to trace_t[s] (clock) and to the row trace[3s .. 3s + 3) (events,
 * distinct opinions, opinions outside (1 - eps, eps)). Both need room for
 * cap = bit_length(max_events) + 2 samples. The start hashes the opinions
 * once into `table` (see count_opinions), keeping each vertex's slot and the
 * count per slot in `slots` (n + the table's length words). An event copies
 * the source's slot with its opinion and moves one count, so the counts
 * change in O(1) per event and a sample copies them. Without a trace only a
 * batch uses `table`, to count the final opinions.
 *
 * If `census` is not NULL (it is passed only with weights, a trace and eps >
 * 0) it holds cap + 1 rows of types + 2 counts. The first is the live census
 * of the weights (see tally): the start bins all m weights, each event
 * un-bins and re-bins the weights it changes, and sample s copies the row
 * to row s + 1.
 *
 * If log_t is not NULL, a call logs its j-th event to log_t[j - 1] (its
 * clock) and log_edge[j - 1] (the fired edge f, or ~f when its lower
 * endpoint e1[f] was the target); the log needs room for the events up to
 * `until`.
 *
 * The counters carry the run from call to call: the event count, the number
 * of active edges (-1 before the start, which the caller sets), the sample
 * count, the distinct-opinion and extremist counts of a traced run, and the
 * clock.
 */
struct ct_run {
    const int32_t *e1, *e2, *inc_start, *inc_edge;
    int32_t n_vertices, n_edges;
    double eps, t_max;
    int64_t max_events, until;
    uint64_t seed;
    double *ops, *weights;
    int32_t *work;
    uint64_t *table;
    int32_t *slots;
    double *trace_t;
    int64_t *trace, *census;
    int32_t types;
    double *log_t;
    int32_t *log_edge;
    int64_t events, active, samples, distinct, extremists;
    double clock;
};

/* Write sample s at clock t after `events` events, with the counts `now`. */
static void take_sample(const struct ct_run *run, int64_t s, double t, int64_t events,
                        const int64_t now[2])
{
    int64_t width = (int64_t)run->types + 2, *row = run->trace + 3 * s;
    run->trace_t[s] = t;
    row[0] = events;
    row[1] = now[0];
    row[2] = now[1];
    if (run->census != NULL)
        memcpy(run->census + (s + 1) * width, run->census, width * sizeof *run->census);
}

/*
 * Run the run's events (see struct ct_run), starting it if its active count
 * is negative, on the generator its caller has seeded at the start; returns
 * CT_LIMIT, CT_T_MAX, CT_ABSORBED or, at `until`, CT_PAUSE. The record's
 * fields and the generator's position are read into locals first and the
 * counters and the position written back at the end, so that no store
 * through a buffer can alias them in the loop. The run keeps a clock iff
 * t_max is finite or it has a trace or a log.
 */
static int run_events(struct ct_run *run)
{
    const int32_t *e1 = run->e1, *e2 = run->e2, *inc_start = run->inc_start;
    const int32_t *inc_edge = run->inc_edge, n_vertices = run->n_vertices, types = run->types;
    const double eps = run->eps, t_max = run->t_max;
    const int64_t max_events = run->max_events, until = run->until;
    double *ops = run->ops, *weights = run->weights, *trace_t = run->trace_t, *log_t = run->log_t;
    int32_t *active = run->work, *pos = active + run->n_edges, *slots = run->slots;
    int32_t *log_edge = run->log_edge;
    int64_t *census = run->census;
    uint32_t *mt = (uint32_t *)(pos + run->n_edges), out[MT_N];
    const uint32_t *w = out + mt[MT_N]; /* the next word of the tempered block */
    if (w < out + MT_N) /* a call that resumes within a block */
        temper(mt, out);
    const int clocked = t_max < INFINITY || trace_t != NULL || log_t != NULL;
    int64_t events = run->events, n = run->active, samples = run->samples;
    int64_t now[2] = {run->distinct, run->extremists}; /* distinct opinions, extremists */
    double t = run->clock;
    if (n < 0) {
        n = 0;
        for (int32_t f = 0; f < run->n_edges; f++) {
            pos[f] = -1;
            if (live(ops[e1[f]], ops[e2[f]], eps)) {
                pos[f] = (int32_t)n;
                active[n++] = f;
            }
        }
        samples = events = 0;
        t = 0.0;
        if (trace_t != NULL) {
            count_opinions(run->table, slots, ops, n_vertices, eps, now);
            if (census != NULL) {
                memset(census, 0, ((size_t)types + 2) * sizeof *census);
                for (int32_t f = 0; f < run->n_edges; f++)
                    tally(census, types, weights[f], eps, 1);
            }
            take_sample(run, samples++, t, events, now);
        }
    }
    const int64_t first = events;
    uint64_t next_trace = 1;
    while (next_trace <= (uint64_t)events)
        next_trace *= 2;

    int code = CT_LIMIT;
    while (n > 0 && events < max_events && events != until) {
        if (clocked) {
            /* random(): 53 random bits over 2**53 */
            uint32_t a = next_word(mt, out, &w) >> 5, b = next_word(mt, out, &w) >> 6;
            double u = (a * 67108864.0 + b) * (1.0 / 9007199254740992.0);
            double dt = -log(1.0 - u) / (2.0 * (double)n);
            if (t + dt > t_max) {
                t = t_max;
                code = CT_T_MAX;
                break;
            }
            t += dt;
        } else {
            next_word(mt, out, &w);
            next_word(mt, out, &w);
        }
        /* randrange(n), n < 2**31: getrandbits(n.bit_length()) by rejection */
        int shift = __builtin_clz((uint32_t)n);
        uint32_t r = next_word(mt, out, &w) >> shift;
        while (r >= (uint64_t)n)
            r = next_word(mt, out, &w) >> shift;
        int32_t e = active[r];
        int32_t src = e1[e], tgt = e2[e];
        /* random() < 0.5 iff its first word is below 2**31 (see the header) */
        if (next_word(mt, out, &w) >= 0x80000000U) {
            src = e2[e];
            tgt = e1[e];
        }
        next_word(mt, out, &w);
        double old = ops[tgt];
        ops[tgt] = ops[src];
        double delta = ops[tgt] - old;
        events++;
        if (weights != NULL)
            move_weights(weights, census, types, e2, inc_edge + inc_start[tgt],
                         inc_edge + inc_start[tgt + 1], e, tgt, delta, eps);
        for (int32_t k = inc_start[tgt]; k < inc_start[tgt + 1]; k++) {
            int32_t f = inc_edge[k];
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
        if (log_t != NULL) {
            log_t[events - first - 1] = t;
            log_edge[events - first - 1] = src == e1[e] ? e : ~e;
        }
        if (trace_t != NULL) {
            /* the target's old opinion was not the source's (the edge was live),
             * and the source keeps its opinion, so no value count leaves 0 */
            int32_t *counts = slots + n_vertices;
            now[0] -= --counts[slots[tgt]] == 0;
            counts[slots[tgt] = slots[src]]++;
            now[1] += extreme(ops[tgt], eps) - extreme(old, eps);
            if ((uint64_t)events == next_trace) {
                take_sample(run, samples++, t, events, now);
                next_trace *= 2;
            }
        }
    }
    /* the loop ran out of active edges, of events, or up to `until`, in that order */
    if (code == CT_LIMIT)
        code = n == 0 ? CT_ABSORBED : events < max_events ? CT_PAUSE : CT_LIMIT;
    if (code != CT_PAUSE && trace_t != NULL && trace_t[samples - 1] != t)
        take_sample(run, samples++, t, events, now);
    mt[MT_N] = (uint32_t)(w - out);
    run->events = events;
    run->active = n;
    run->samples = samples;
    run->distinct = now[0];
    run->extremists = now[1];
    run->clock = t;
    return code;
}

/*
 * Run `run` (see struct ct_run and run_events), or resume it when its active
 * count is not negative. The start seeds the generator from run->seed as
 * random.Random(seed) does, by the lanes' rule with one lane used.
 */
int ct_run_events(struct ct_run *run)
{
    if (run->active < 0) {
        uint32_t base[MT_N + 1];
        init_genrand(base, 19650218U);
        init_by_array_lanes((uint32_t(*)[MT_N + 1])(run->work + 2 * (ptrdiff_t)run->n_edges),
                            base, &run->seed, 1);
    }
    return run_events(run);
}

/*
 * 1 iff every vertex of the graph (edges and incidence as in struct ct_run)
 * is reachable from vertex 0, by a depth-first search; 0 otherwise. work
 * holds 2 * n_vertices words: the seen marks, then the stack, on which each
 * vertex is pushed at most once.
 */
int ct_reaches_all(const int32_t *e1, const int32_t *e2, const int32_t *inc_start,
                   const int32_t *inc_edge, int32_t n_vertices, int32_t *work)
{
    int32_t *seen = work, *stack = work + n_vertices, top = 0, count = 1;
    memset(seen, 0, (size_t)n_vertices * sizeof *seen);
    seen[0] = 1;
    stack[top++] = 0;
    while (top > 0) {
        int32_t v = stack[--top];
        for (int32_t k = inc_start[v]; k < inc_start[v + 1]; k++) {
            int32_t f = inc_edge[k], u = e1[f] ^ e2[f] ^ v;
            if (!seen[u]) {
                seen[u] = 1;
                count++;
                stack[top++] = u;
            }
        }
    }
    return count == n_vertices;
}

/* common.spawn_seed: child seed number `index` of a 64-bit master seed (SplitMix64). */
static uint64_t spawn_seed(uint64_t master, uint64_t index)
{
    uint64_t z = master + (index + 1) * 0x9E3779B97F4A7C15ULL;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

/* The hash and the mix of numpy's SeedSequence, on 32-bit words. */
static uint32_t seq_hashmix(uint32_t value, uint32_t *hash_const)
{
    value ^= *hash_const;
    *hash_const *= 0x931e8875U;
    value *= *hash_const;
    return value ^ (value >> 16);
}

static uint32_t seq_mix(uint32_t x, uint32_t y)
{
    uint32_t r = 0xca01f9ddU * x - 0x4973f715U * y;
    return r ^ (r >> 16);
}

/*
 * numpy's SeedSequence(seed).generate_state(4, np.uint64) for a seed below
 * 2**64: its entropy, the one or two 32-bit little-endian words of the seed
 * ({0} for 0), is mixed into a pool of four words, which is hashed out to
 * eight words, read as four little-endian 64-bit words.
 */
static void seed_sequence(uint64_t seed, uint64_t state[4])
{
    uint32_t entropy[2] = {(uint32_t)seed, (uint32_t)(seed >> 32)};
    int n_entropy = seed >> 32 ? 2 : 1;
    uint32_t pool[4], hash_const = 0x43b0d7e5U;
    for (int i = 0; i < 4; i++)
        pool[i] = seq_hashmix(i < n_entropy ? entropy[i] : 0, &hash_const);
    for (int src = 0; src < 4; src++)
        for (int dst = 0; dst < 4; dst++)
            if (src != dst)
                pool[dst] = seq_mix(pool[dst], seq_hashmix(pool[src], &hash_const));
    uint32_t words[8], hash = 0x8b51f9ddU;
    for (int i = 0; i < 8; i++) {
        uint32_t v = pool[i % 4] ^ hash;
        hash *= 0x58f38dedU;
        v *= hash;
        words[i] = v ^ (v >> 16);
    }
    for (int i = 0; i < 4; i++)
        state[i] = words[2 * i] | (uint64_t)words[2 * i + 1] << 32;
}

typedef unsigned __int128 u128;

/* numpy's PCG64: a 128-bit LCG with the XSL-RR output function. */
struct pcg64 {
    u128 state, inc;
};

static const u128 PCG_MULT = (u128)2549297995355413924ULL << 64 | 4865540595714422341ULL;

static uint64_t pcg64_next(struct pcg64 *rng)
{
    rng->state = rng->state * PCG_MULT + rng->inc;
    uint64_t x = (uint64_t)(rng->state >> 64) ^ (uint64_t)rng->state;
    unsigned rot = (unsigned)(rng->state >> 122);
    return (x >> rot) | (x << ((-rot) & 63));
}

/*
 * n opinions drawn as np.random.default_rng(seed).random(n) for a seed below
 * 2**64 (dynamics.random_initial): PCG64 seeded from the SeedSequence's four
 * words (the initial state from words 0 and 1, the stream from 2 and 3, high
 * word first) as pcg64_srandom_r does, and each opinion the top 53 bits of
 * one output over 2**53; returns 0.
 */
int ct_draw_uniform(double *ops, int32_t n, uint64_t seed)
{
    uint64_t s[4];
    seed_sequence(seed, s);
    struct pcg64 rng = {0, ((u128)s[2] << 64 | s[3]) << 1 | 1};
    pcg64_next(&rng);
    rng.state += (u128)s[0] << 64 | s[1];
    pcg64_next(&rng);
    for (int32_t i = 0; i < n; i++)
        ops[i] = (double)(pcg64_next(&rng) >> 11) * (1.0 / 9007199254740992.0);
    return 0;
}

/*
 * Run `reps` replicates of experiments.run_replicate on the graph, eps,
 * t_max and max_events of `run`, whose opinions `ops`, `work` and `table` it
 * reuses for every replicate; it has no trace, census, log or weights, and
 * its until is max_events. Replicate r with seed seeds[r] starts from the
 * opinions default_rng(spawn_seed(seeds[r], 0)) draws and runs on the event
 * stream random.Random(spawn_seed(seeds[r], 1)). It writes out[4r] (its
 * events), out[4r + 1] (its stop code: CT_LIMIT, CT_T_MAX or CT_ABSORBED),
 * out[4r + 2] (its distinct final opinions) and out[4r + 3] (its final
 * opinions outside (1 - eps, eps)), counted once on the final state. If
 * `final` is not NULL, replicate 0's n final opinions are copied to it. Each
 * replicate is one run_events call on a copy of the record, its generator
 * seeded with those of the other replicates in its block of LANES; returns 0.
 */
int ct_run_replicates(const struct ct_run *run, const uint64_t *seeds, int64_t reps,
                      int64_t *out, double *final)
{
    uint32_t base[MT_N + 1], lanes[LANES][MT_N + 1];
    uint32_t *mt = (uint32_t *)(run->work + 2 * (ptrdiff_t)run->n_edges);
    struct ct_run rep = *run;
    init_genrand(base, 19650218U);
    for (int64_t r = 0; r < reps; r++) {
        if (r % LANES == 0) {
            uint64_t event_seeds[LANES] = {0};
            for (int l = 0; l < LANES && r + l < reps; l++)
                event_seeds[l] = spawn_seed(seeds[r + l], 1);
            init_by_array_lanes(lanes, base, event_seeds, LANES);
        }
        memcpy(mt, lanes[r % LANES], sizeof lanes[0]);
        ct_draw_uniform(rep.ops, rep.n_vertices, spawn_seed(seeds[r], 0));
        rep.active = -1;
        out[4 * r + 1] = run_events(&rep);
        out[4 * r] = rep.events;
        count_opinions(rep.table, NULL, rep.ops, rep.n_vertices, rep.eps, out + 4 * r + 2);
        if (r == 0 && final != NULL)
            memcpy(final, rep.ops, (size_t)rep.n_vertices * sizeof *rep.ops);
    }
    return 0;
}
