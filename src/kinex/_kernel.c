/* The exchange rule of kinex.exchange._exchange, the draws of
 * kinex.exchange._draw_block, the runs of kinex.exchange._run, the pair
 * counts of kinex.metrics._tau_counts and the CSV rows of
 * kinex._backend._format_rows.
 *
 * exchange_rule does the same IEEE double operations as the Python
 * reference in the same order, so results are bit-identical. It is not a
 * line-for-line transliteration: it picks the poorer and the richer side
 * with integer masks instead of a branch, which random pairs would make
 * the CPU mispredict about half the time. The rule is written once over
 * two lanes of a 16-byte vector (SSE2 on x86-64, NEON on aarch64), whose
 * lane operations are the scalar ones, and every step takes that one path.
 * Build with -O2 -ffp-contract=off and never with -ffast-math or
 * -march=native: a fused multiply-add or a reordered sum changes the last
 * bits.
 *
 * The draws reproduce numpy's PCG64 and the algorithms behind
 * Generator.integers and Generator.random, so they give the very values
 * _draw_block draws and leave the generator in the same state. Every index
 * is below n <= 2**32, so every bound takes numpy's 32-bit path: two values
 * per 64-bit word, low half first; a pair with a Lemire leftover below the
 * number of choices, a spare half-word carried in and an odd tail take the
 * exact one-value path.
 *
 * kinex_run is a whole run in one call, with exchange_rule and that
 * bounded fill. Each block's i and j go into caller scratch as uint32, 8
 * bytes a step; each j is moved past its i as its step reads it, and each
 * eps is drawn as its step runs, from the state the j draws leave, which is
 * where _draw_block's eps come from. Two neighbouring steps on four
 * distinct agents run as one, a lane each; any other step fills both lanes.
 * kinex_draw is one block of those draws, j not yet moved; kinex checks it
 * against _draw_block when it loads this library and does not use the
 * library if they differ.
 *
 * kinex_tau_counts counts the same pairs as _tau_counts by Knight's (1966)
 * method, in exact integers: stable radix sorts of order-preserving keys
 * in O(n) passes and a Fenwick tree's inversion count in O(n log n).
 *
 * kinex_format_rows writes int64 cells as str does and doubles as repr
 * does: Schubfach's shortest round-trip digits (Giulietti 2020) in
 * CPython's layout. It drops the paper's s >= 100 guard and its 10 * c
 * path for subnormals c < 3, which keep Java's two-digit minimum. kinex
 * checks it against _format_rows when it loads this library.
 */
#include <stdint.h>
#include <string.h>

static inline uint64_t bits_of(double v)
{
    uint64_t u;
    memcpy(&u, &v, sizeof u);
    return u;
}

/* Two lanes of doubles and of their bit masks: GCC's generic vectors, SSE2
 * on x86-64 and NEON on aarch64, whose lane operations are the scalar IEEE
 * ones, so each lane gives the one-step bits. */
typedef double v2d __attribute__((vector_size(16)));
typedef int64_t v2i __attribute__((vector_size(16)));

/* The rule on two independent steps, or on one step twice, a lane each: mi
 * and mj hold each lane's two agents' assets and become their new ones, i
 * receiving eps of the pool. Returns each lane's pool. */
static inline __attribute__((always_inline)) v2d exchange_rule(v2d *mi, v2d *mj, v2d eps,
                                                              double lam, double gam,
                                                              double oml, double keep)
{
    const v2d fps = 1.0 - eps;
    /* all ones in a lane where i is the poorer side (or the two are equal) */
    const v2i i_poorer = *mi <= *mj;
    const v2i bi = (v2i)*mi, bj = (v2i)*mj;
    const v2d lo = (v2d)((bi & i_poorer) | (bj & ~i_poorer));
    const v2d hi = (v2d)((bj & i_poorer) | (bi & ~i_poorer));
    const v2d gap = hi - lo;
    const v2d pool = oml * (2.0 * lo + gam * gap);
    /* keep * gap for the richer side, +0.0 for the poorer: assets are
     * never -0.0, so lam * m + 0.0 is lam * m bit for bit */
    const v2i kept = (v2i)(keep * gap);
    *mi = lam * *mi + (v2d)(kept & ~i_poorer) + eps * pool;
    *mj = lam * *mj + (v2d)(kept & i_poorer) + fps * pool;
    return pool;
}

__extension__ typedef unsigned __int128 u128;

/* numpy's PCG64: a 128-bit LCG with XSL-RR output, plus the upper half of
 * an output that next_uint32 keeps for its next call. */
typedef struct {
    u128 state;
    u128 inc;
    int has_uint32;
    uint32_t uinteger;
} pcg64;

static inline uint64_t next_uint64(pcg64 *g)
{
    const u128 mult = ((u128)0x2360ED051FC65DA4ULL << 64) | 0x4385DF649FCCF645ULL;
    g->state = g->state * mult + g->inc;
    const uint64_t x = (uint64_t)(g->state >> 64) ^ (uint64_t)g->state;
    const unsigned rot = (unsigned)(g->state >> 122);
    return (x >> rot) | (x << ((64u - rot) & 63u));
}

static inline uint32_t next_uint32(pcg64 *g)
{
    if (g->has_uint32) {
        g->has_uint32 = 0;
        return g->uinteger;
    }
    const uint64_t next = next_uint64(g);
    g->has_uint32 = 1;
    g->uinteger = (uint32_t)(next >> 32);
    return (uint32_t)next;
}

/* Lemire's method for a 32-bit rng < 2**32 - 1, from the product m of
 * its first word and rng + 1: redraw while the low half of m falls below
 * numpy's threshold, then return the high half. */
static inline uint32_t lemire32(pcg64 *g, uint64_t m, uint32_t rng)
{
    const uint32_t excl = rng + 1u;
    uint32_t leftover = (uint32_t)m;
    if (leftover < excl) {
        const uint32_t threshold = (UINT32_MAX - rng) % excl;
        while (leftover < threshold) {
            m = (uint64_t)next_uint32(g) * excl;
            leftover = (uint32_t)m;
        }
    }
    return (uint32_t)(m >> 32);
}

/* One value of Generator.integers(0, rng + 1) for int64, by numpy's
 * unmasked bounded path on 32-bit words: rng == 0 draws nothing, 2**32 - 1
 * takes a plain word and any other rng Lemire's method. */
static inline __attribute__((always_inline)) uint32_t bounded(pcg64 *g, uint32_t rng)
{
    if (rng == 0)
        return 0;
    if (rng == UINT32_MAX)
        return next_uint32(g);
    return lemire32(g, (uint64_t)next_uint32(g) * (rng + 1u), rng);
}

/* Fill out with `size` values of bounded(g, rng). An rng below 2**32 - 1
 * takes both halves of each word in one step, low half first as
 * next_uint32 hands them out, and leaves the high half in uinteger as numpy
 * does. bounded() takes a spare half carried in and an odd tail. A pair
 * with a leftover below excl puts its high half back as the spare and
 * finishes the low half by numpy's rejection test; at n <= 1e5 that happens
 * to at most n / 2**32 of the draws. out walks as a pointer: with an index,
 * gcc 12 kept the cell address on the stack, and kinex_run ran 2-3% slower. */
static inline __attribute__((always_inline)) void fill_bounded(pcg64 *gp, uint32_t rng,
                                                              int64_t size, uint32_t *out)
{
    pcg64 g = *gp; /* a local copy, so the state stays in registers */
    uint32_t *const end = out + size;
    if (rng != 0 && rng != UINT32_MAX) {
        const uint32_t excl = rng + 1u;
        while (end - out >= 2) {
            if (g.has_uint32) {
                *out++ = bounded(&g, rng);
                continue;
            }
            const uint64_t word = next_uint64(&g);
            const uint32_t hi = (uint32_t)(word >> 32);
            const uint64_t m0 = (uint64_t)(uint32_t)word * excl, m1 = (uint64_t)hi * excl;
            g.uinteger = hi;
            if (((uint32_t)m0 < excl) | ((uint32_t)m1 < excl)) {
                g.has_uint32 = 1;
                *out++ = lemire32(&g, m0, rng);
                continue;
            }
            out[0] = (uint32_t)(m0 >> 32);
            out[1] = (uint32_t)(m1 >> 32);
            out += 2;
        }
    }
    while (out < end)
        *out++ = bounded(&g, rng);
    *gp = g;
}

/* Generator.random's double in [0, 1): the top 53 bits of a word. */
static inline double next_double(pcg64 *g)
{
    return (double)(next_uint64(g) >> 11) * (1.0 / 9007199254740992.0);
}

/* The generator state that st holds as {state >> 64, state & (2**64 - 1),
 * inc >> 64, inc & (2**64 - 1), has_uint32, uinteger}, and back. */
static inline pcg64 load_state(const uint64_t *st)
{
    return (pcg64){((u128)st[0] << 64) | st[1], ((u128)st[2] << 64) | st[3], st[4] != 0,
                   (uint32_t)st[5]};
}

static inline void store_state(const pcg64 *g, uint64_t *st)
{
    st[0] = (uint64_t)(g->state >> 64);
    st[1] = (uint64_t)g->state;
    st[4] = (uint64_t)g->has_uint32;
    st[5] = g->uinteger;
}

/* A whole run of _run: t_max steps for 2 <= n <= 2**32 agents on assets, in
 * blocks of `block` steps. Each block's i and then j are drawn into scratch,
 * 2 * min(block, t_max) uint32 cells, and each j is moved past its i as the
 * step reads it; then its steps run, each drawing its eps from the state the
 * j draws leave, where _draw_block's eps come from. Two neighbouring steps
 * whose four agents are distinct run as one in two lanes, eps in stream
 * order and the first step's pool added first; any other step runs in both
 * lanes on one eps and adds its pool once. At each of the ntimes ascending
 * times in [0, t_max], assets are copied into the next n-double row of
 * snapshots. Returns the cumulative pool; st holds the generator state in
 * and out, as load_state reads it. */
double kinex_run(uint64_t *st, double *assets, int64_t n, int64_t t_max, int64_t block,
                 const int64_t *times, int64_t ntimes, double *snapshots, uint32_t *scratch,
                 double saving_rate, double surplus_rate)
{
    pcg64 g = load_state(st);
    const double lam = saving_rate;
    const double gam = surplus_rate;
    const double oml = 1.0 - lam;
    const double keep = oml * (1.0 - gam); /* the richer side's withheld share of the gap */
    uint32_t *ii = scratch, *jj = scratch + (block < t_max ? block : t_max);
    double cumulative = 0.0;
    int64_t s = 0; /* the next snapshot */
    for (int64_t t = 0; t < t_max;) {
        const int64_t start = t, end = t_max - t < block ? t_max : t + block;
        fill_bounded(&g, (uint32_t)(n - 1), end - start, ii);
        fill_bounded(&g, (uint32_t)(n - 2), end - start, jj);
        while (t < end) {
            /* steps t + 1 .. stop, up to the next snapshot (none for time 0) */
            const int64_t stop = s < ntimes && times[s] < end ? times[s] : end;
            while (t < stop) {
                /* j is moved past i as it is read: gcc makes this a cmp/sbb */
                const uint64_t i0 = ii[t - start], j0 = jj[t - start];
                const uint64_t j0s = j0 + (j0 >= i0);
                const double e0 = next_double(&g);
                /* lane 1 takes the next step if its agents are distinct, else this one */
                uint64_t i1 = i0, j1s = j0s;
                double e1 = e0;
                int pair = 0;
                if (t + 1 < stop) {
                    const uint64_t in = ii[t + 1 - start], jn = jj[t + 1 - start];
                    const uint64_t jns = jn + (jn >= in);
                    pair = (in != i0) & (in != j0s) & (jns != i0) & (jns != j0s);
                    if (pair) {
                        i1 = in;
                        j1s = jns;
                        e1 = next_double(&g);
                    }
                }
                v2d mi = {assets[i0], assets[i1]}, mj = {assets[j0s], assets[j1s]};
                const v2d pool = exchange_rule(&mi, &mj, (v2d){e0, e1}, lam, gam, oml, keep);
                assets[i0] = mi[0];
                assets[j0s] = mj[0];
                assets[i1] = mi[1];
                assets[j1s] = mj[1];
                cumulative += pool[0];
                if (pair)
                    cumulative += pool[1];
                t += 1 + pair;
            }
            if (s < ntimes && times[s] == t)
                memcpy(snapshots + s++ * n, assets, (size_t)n * sizeof *assets);
        }
    }
    store_state(&g, st);
    return cumulative;
}

/* kinex_draw comes after kinex_run, the first exported function, so an edit
 * below kinex_run leaves its code and address unchanged and an A/B of it
 * times one kinex_run; gcc emits the static radix_sort and schubfach first.
 * One build ran ~10% slower at 0x21c0 than at 0x22f0 or 0x14d0 (gcc 12.2,
 * x86-64, 2 vCPU Xeon), yet whole-function shifts of 16 to 2,048 bytes
 * moved neither of two later builds, so what the offset costs is open.
 *
 * Draw `size` steps for 2 <= n <= 2**32 agents as a run's block does: every
 * i in [0, n), every j in [0, n - 1), not yet moved past its i, then every
 * eps in [0, 1). st holds the generator state in and out, as load_state
 * reads it. */
void kinex_draw(uint64_t *st, int64_t n, int64_t size, uint32_t *ii, uint32_t *jj,
                double *ee)
{
    pcg64 g = load_state(st);
    fill_bounded(&g, (uint32_t)(n - 1), size, ii);
    fill_bounded(&g, (uint32_t)(n - 2), size, jj);
    for (int64_t k = 0; k < size; k++)
        ee[k] = next_double(&g);
    store_state(&g, st);
}

/* A sort key and the value it carries: an agent index, then a y rank. */
typedef struct {
    uint64_t key;
    uint64_t val;
} keyed;

/* A uint64 that orders as the double v does, for v not nan: the sign bit
 * set for v >= 0, all bits flipped for v < 0. v + 0.0 is +0.0 for -0.0,
 * so the two zeros share a key, as == and np.unique take them as equal. */
static inline uint64_t order_key(double v)
{
    const uint64_t u = bits_of(v + 0.0);
    return u ^ ((uint64_t)((int64_t)u >> 63) | 1ULL << 63);
}

/* Stable LSD radix sort of the n entries of a by key, a byte at a time, with
 * b as scratch; the eighth pass leaves them in a. One pass counts all eight
 * digits and one loop turns the counts into bucket starts. Keys travel with
 * their values, so no pass reads through an index. The counts live on the
 * stack: sweep threads call this at once. */
static void radix_sort(keyed *a, keyed *b, int64_t n)
{
    int64_t start[256][8]; /* [digit value][digit] */
    memset(start, 0, sizeof start);
    for (int64_t k = 0; k < n; k++)
        for (int d = 0; d < 8; d++)
            start[a[k].key >> 8 * d & 255][d]++;
    int64_t sum[8] = {0};
    for (int v = 0; v < 256; v++)
        for (int d = 0; d < 8; d++) {
            const int64_t size = start[v][d];
            start[v][d] = sum[d];
            sum[d] += size;
        }
    for (int d = 0; d < 8; d++) {
        for (int64_t k = 0; k < n; k++)
            b[start[a[k].key >> 8 * d & 255][d]++] = a[k];
        keyed *t = a;
        a = b;
        b = t;
    }
}

/* The pair counts of _tau_counts for two snapshots x and y of n >= 2
 * agents, none nan: out = {discordant, tied in x, tied in y, tied in
 * both}. work holds 4n int64. Knight's (1966) method: order the agents by
 * y, replace each y by its dense rank, stably order that by x, so equal x
 * sort by y, and count the inversions of the ranks with a Fenwick (1994)
 * tree. Runs of equal keys are adjacent in each order; an entry that
 * extends a run ties with every entry before it in the run. */
void kinex_tau_counts(const double *x, const double *y, int64_t n, int64_t *work,
                      int64_t *out)
{
    keyed *a = (keyed *)work, *b = a + n;
    for (int64_t k = 0; k < n; k++)
        a[k] = (keyed){order_key(y[k]), (uint64_t)k};
    radix_sort(a, b, n);
    int64_t ties_y = 0, run_y = 0;
    uint64_t rank = 0, last = a[0].key;
    for (int64_t k = 0; k < n; k++) {
        const uint64_t key = a[k].key;
        run_y = k && key == last ? run_y + 1 : 0;
        rank += k && !run_y;
        ties_y += run_y;
        last = key;
        a[k] = (keyed){order_key(x[a[k].val]), rank};
    }
    radix_sort(a, b, n);
    /* tree[i], for i in [1, size], counts the agents seen so far at ranks
     * i - (i & -i) to i - 1 */
    const int64_t size = (int64_t)rank + 1;
    int64_t *tree = (int64_t *)b;
    memset(tree, 0, (size_t)(size + 1) * sizeof *tree);
    int64_t ties_x = 0, ties_both = 0, run_x = 0, run_both = 0, discordant = 0;
    for (int64_t k = 0; k < n; k++) {
        const int64_t r = (int64_t)a[k].val;
        if (k) {
            run_x = a[k].key == a[k - 1].key ? run_x + 1 : 0;
            run_both = run_x && (int64_t)a[k - 1].val == r ? run_both + 1 : 0;
            ties_x += run_x;
            ties_both += run_both;
        }
        /* the agents before this one in (x, y) order at a higher y rank:
         * each has a strictly lower x, as equal x sort by y */
        int64_t at_most = 0;
        for (int64_t i = r + 1; i > 0; i -= i & -i)
            at_most += tree[i];
        discordant += k - at_most;
        for (int64_t i = r + 1; i <= size; i += i & -i)
            tree[i]++;
    }
    out[0] = discordant;
    out[1] = ties_x;
    out[2] = ties_y;
    out[3] = ties_both;
}

/* floor(g * cp / 2**127), its last bit set when bits 64 to 126 of g * cp
 * are not all 0, for g = hi * 2**64 + lo < 2**126: the paper's rounding to
 * odd, which ignores the low bits where g's excess over 10**-k lies */
static inline uint64_t rop(uint64_t hi, uint64_t lo, uint64_t cp)
{
    const u128 z = (u128)hi * cp + (((u128)lo * cp) >> 64); /* g * cp >> 64 */
    return (uint64_t)(z >> 63) | (((uint64_t)z << 1) != 0);
}

/* Schubfach's digits of v = c * 2**q: of the decimals that read back as v,
 * one with the fewest digits, and of those the closest to v (the even one
 * on a tie), as f * 10**e (f may end in zeros), without the paper's s >= 100
 * guard and c < 3 path, which turn 5e-324 into 4.9e-324. g holds, for each
 * k in [-324, 292], the 126-bit floor(10**-k * 2**-r) + 1 as its high and
 * low words, then floor(log2(10**-k)) = r + 125. */
static uint64_t schubfach(int64_t q, uint64_t c, const uint64_t *g, int64_t *e)
{
    const uint64_t out = c & 1; /* an odd c rounds its interval's ends away */
    const uint64_t cb = c << 2, cbr = cb + 2;
    uint64_t cbl = cb - 2;
    int64_t k = (q * 661971961083LL) >> 41; /* floor(log10(2**q)) */
    if (c == 1ULL << 52 && q > -1074) { /* the gap below v is half the gap above */
        cbl = cb - 1;
        k = (q * 661971961083LL - 274743187321LL) >> 41; /* floor(log10(3/4 * 2**q)) */
    }
    const uint64_t *gk = g + 3 * (k + 324);
    const int h = (int)(q + (int64_t)gk[2] + 2);
    /* 4 * v / 10**k and its interval's ends, in round-to-odd fixed point */
    const uint64_t vb = rop(gk[0], gk[1], cb << h);
    const uint64_t vbl = rop(gk[0], gk[1], cbl << h), vbr = rop(gk[0], gk[1], cbr << h);
    const uint64_t s = vb >> 2, t = s + 1;
    /* at most one multiple of 10**(k + 1) lies in the interval */
    const uint64_t sp = s / 10 * 10, tp = sp + 10;
    const int upin = vbl + out <= sp << 2, wpin = (tp << 2) + out <= vbr;
    *e = k;
    if (upin != wpin)
        return upin ? sp : tp;
    const int uin = vbl + out <= s << 2, win = (t << 2) + out <= vbr;
    if (uin != win)
        return uin ? s : t;
    const int64_t cmp = (int64_t)(vb - ((s + t) << 1));
    return cmp < 0 || (cmp == 0 && (s & 1) == 0) ? s : t;
}

/* Write the decimal digits of u to p; return their number. */
static int put_digits(char *p, uint64_t u)
{
    char d[20];
    int n = 0;
    do
        d[20 - ++n] = (char)('0' + u % 10);
    while (u /= 10);
    memcpy(p, d + 20 - n, (size_t)n);
    return n;
}

/* Write the double whose bits are `bits` as CPython's repr does, at most 24
 * bytes; return the end. */
static char *put_double(char *p, uint64_t bits, const uint64_t *g)
{
    const uint64_t t = bits & ((1ULL << 52) - 1);
    const int64_t bq = (int64_t)(bits >> 52) & 0x7FF;
    if (bq == 0x7FF && t) {
        memcpy(p, "nan", 3);
        return p + 3;
    }
    if (bits >> 63)
        *p++ = '-';
    if (bq == 0x7FF || (bq == 0 && t == 0)) {
        memcpy(p, bq ? "inf" : "0.0", 3);
        return p + 3;
    }
    int64_t e;
    uint64_t f = bq ? schubfach(bq - 1075, t | 1ULL << 52, g, &e) : schubfach(-1074, t, g, &e);
    for (; f % 10 == 0; f /= 10)
        e++;
    char d[20];
    const int n = put_digits(d, f);
    const int64_t point = n + e; /* v = 0.d * 10**point */
    if (point <= -4 || point > 16) { /* d[0].d[1:]e+XX */
        *p++ = d[0];
        if (n > 1) {
            *p++ = '.';
            memcpy(p, d + 1, (size_t)n - 1);
            p += n - 1;
        }
        const int64_t x = point - 1;
        *p++ = 'e';
        *p++ = x < 0 ? '-' : '+';
        if (x > -10 && x < 10) /* two exponent digits at least */
            *p++ = '0';
        return p + put_digits(p, (uint64_t)(x < 0 ? -x : x));
    }
    if (point <= 0) { /* 0.000d */
        memcpy(p, "0.000", (size_t)(2 - point));
        p += 2 - point;
        memcpy(p, d, (size_t)n);
        return p + n;
    }
    if (point < n) { /* d[:point].d[point:] */
        memcpy(p, d, (size_t)point);
        p[point] = '.';
        memcpy(p + point + 1, d + point, (size_t)(n - point));
        return p + n + 1;
    }
    memcpy(p, d, (size_t)n); /* d000.0 */
    memset(p + n, '0', (size_t)(point - n));
    memcpy(p + point, ".0", 2);
    return p + point + 2;
}

/* Write n rows of ncols columns as csv.writer writes them: str of an int64
 * cell, repr of a double cell, ',' between cells and "\r\n" after each
 * row. Column c is cols[c * n : (c + 1) * n], doubles where bit c of
 * float_cols is set, else int64s; g is schubfach's table. buf holds at
 * least n * (25 * ncols + 1) bytes. Returns the length written. */
int64_t kinex_format_rows(const uint64_t *cols, int64_t n, int64_t ncols, int64_t float_cols,
                          const uint64_t *g, char *buf)
{
    char *p = buf;
    for (int64_t r = 0; r < n; r++) {
        for (int64_t c = 0; c < ncols; c++) {
            const uint64_t cell = cols[c * n + r];
            if (float_cols >> c & 1) {
                p = put_double(p, cell, g);
            } else if ((int64_t)cell < 0) {
                *p++ = '-';
                p += put_digits(p, -cell);
            } else {
                p += put_digits(p, cell);
            }
            *p++ = ',';
        }
        p[-1] = '\r';
        *p++ = '\n';
    }
    return p - buf;
}
