/*
 * Compiled event loop of the threshold voter process (see dynamics.py).
 *
 * ct_run_events continues one run of dynamics._run_events and is bit-exact
 * with its Python loop: it draws from CPython's MT19937 state (as returned by
 * random.Random.getstate()) with CPython's rules for random(), expovariate()
 * and randrange(), in the same order per event, and keeps the active-edge
 * array in the same order. Every floating-point step is one IEEE-754
 * operation as in Python, so it must be compiled without contraction into
 * fused multiply-adds and without fast-math.
 */

#include <math.h>
#include <stddef.h>
#include <stdint.h>

#define MT_N 624
#define MT_M 397

enum { CT_LIMIT = 0, CT_T_MAX = 1, CT_ABSORBED = 2 };

/* CPython's genrand_uint32; mt[MT_N] holds the position in the state. */
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
 * Run events until the event count reaches `limit`, the clock would pass
 * `t_max` (then the clock is set to t_max), or no edge is active; returns
 * CT_LIMIT, CT_T_MAX or CT_ABSORBED. The run's state lives in the caller's
 * buffers and is updated in place: opinions `ops`, the active edges
 * active[0..state[1]) with positions `pos` (-1 when inactive), the event
 * count state[0], the clock *clock and the generator `mt` (625 words).
 * Edge f joins e1[f] < e2[f]; the edges at vertex v, in increasing index
 * order, are inc_edge[inc_start[v] .. inc_start[v + 1]). If `weights` is not
 * NULL it holds the coupled edge weights: the fired edge is set to 0.0 and
 * the other edges at the target gain or lose the target's change by
 * orientation.
 */
int ct_run_events(const int32_t *e1, const int32_t *e2, const int32_t *inc_start,
                  const int32_t *inc_edge, double *ops, double *weights, int32_t *active,
                  int32_t *pos, int64_t *state, double *clock, uint32_t *mt, double eps,
                  double t_max, int64_t limit)
{
    int64_t events = state[0], n = state[1];
    double t = *clock;
    int code = CT_LIMIT;
    while (n > 0 && events < limit) {
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
            double d = ops[e1[f]] - ops[e2[f]];
            int live = d != 0.0 && -eps < d && d < eps;
            int32_t p = pos[f];
            if (live && p < 0) {
                pos[f] = (int32_t)n;
                active[n++] = f;
            } else if (!live && p >= 0) {
                int32_t last = active[--n];
                active[p] = last;
                pos[last] = p;
                pos[f] = -1;
            }
        }
    }
    state[0] = events;
    state[1] = n;
    *clock = t;
    if (code == CT_LIMIT && n == 0)
        code = CT_ABSORBED;
    return code;
}
