/* Compiled loop body of kinex.exchange._exchange, the draws of
 * kinex.exchange._draw_block, the pair counts of kinex.metrics._tau_counts
 * and the CSV rows of kinex._backend._format_rows.
 *
 * kinex_exchange does the same IEEE double operations as the Python
 * reference in the same order, so results are bit-identical. It is not a
 * line-for-line transliteration: it picks the poorer and the richer side
 * with integer masks instead of a branch, which random pairs would make
 * the CPU mispredict about half the time.
 * Build with -O2 -ffp-contract=off and never with -ffast-math or
 * -march=native: a fused multiply-add or a reordered sum changes the last
 * bits.
 *
 * kinex_draw reproduces numpy's PCG64 and the algorithms behind
 * Generator.integers and Generator.random, so it writes the very values
 * _draw_block draws and leaves the generator in the same state. A 32-bit
 * bound is drawn two values per 64-bit word, low half first; a pair with a
 * Lemire leftover below the number of choices, a spare half-word carried
 * in and an odd tail take the exact one-value path. kinex checks
 * it against _draw_block when it loads this library and does not use it if
 * they differ.
 *
 * kinex_tau_counts counts the same pairs as _tau_counts by Knight's (1966)
 * merge sorts, in O(n log n) and in exact integers.
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

static inline double double_of(uint64_t u)
{
    double v;
    memcpy(&v, &u, sizeof v);
    return v;
}

double kinex_exchange(double *assets, const int64_t *ii, const int64_t *jj,
                      const double *ee, int64_t steps, double saving_rate,
                      double surplus_rate, double cumulative)
{
    const double lam = saving_rate;
    const double gam = surplus_rate;
    const double oml = 1.0 - lam;
    const double keep = oml * (1.0 - gam); /* the richer side's withheld share of the gap */
    for (int64_t k = 0; k < steps; k++) {
        const int64_t i = ii[k];
        const int64_t j = jj[k];
        const double eps = ee[k];
        const double fps = 1.0 - eps;
        const double mi = assets[i];
        const double mj = assets[j];
        /* all ones when i is the poorer side (or the two are equal), else 0 */
        const uint64_t i_poorer = -(uint64_t)(mi <= mj);
        const uint64_t bi = bits_of(mi), bj = bits_of(mj);
        const double lo = double_of((bi & i_poorer) | (bj & ~i_poorer));
        const double hi = double_of((bj & i_poorer) | (bi & ~i_poorer));
        const double gap = hi - lo;
        const double pool = oml * (2.0 * lo + gam * gap);
        /* keep * gap for the richer side, +0.0 for the poorer: assets are
         * never -0.0, so lam * m + 0.0 is lam * m bit for bit */
        const uint64_t kept = bits_of(keep * gap);
        assets[i] = lam * mi + double_of(kept & ~i_poorer) + eps * pool;
        assets[j] = lam * mj + double_of(kept & i_poorer) + fps * pool;
        cumulative += pool;
    }
    return cumulative;
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
static inline uint64_t lemire32(pcg64 *g, uint64_t m, uint32_t rng)
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
    return m >> 32;
}

/* One value of Generator.integers(0, rng + 1) for int64, by numpy's
 * unmasked bounded path: rng == 0 draws nothing, a 32-bit rng takes
 * Lemire's method on 32-bit words (or a plain word at 2**32 - 1), and a
 * wider one Lemire's method on 64-bit words. rng < 2**63 here. */
static inline __attribute__((always_inline)) uint64_t bounded(pcg64 *g, uint64_t rng)
{
    if (rng == 0)
        return 0;
    if (rng == 0xFFFFFFFFULL)
        return next_uint32(g);
    if (rng < 0xFFFFFFFFULL)
        return lemire32(g, (uint64_t)next_uint32(g) * ((uint32_t)rng + 1u), (uint32_t)rng);
    const uint64_t excl = rng + 1u;
    u128 m = (u128)next_uint64(g) * excl;
    uint64_t leftover = (uint64_t)m;
    if (leftover < excl) {
        const uint64_t threshold = (UINT64_MAX - rng) % excl;
        while (leftover < threshold) {
            m = (u128)next_uint64(g) * excl;
            leftover = (uint64_t)m;
        }
    }
    return (uint64_t)(m >> 64);
}

/* Fill out with `size` values of bounded(g, rng). A 32-bit rng below
 * 2**32 - 1 takes both halves of each word in one step, low half first as
 * next_uint32 hands them out, and leaves the high half in uinteger as
 * numpy does. bounded() takes a spare half carried in and an odd tail. A
 * pair with a leftover below excl puts its high half back as the spare
 * and finishes the low half by numpy's rejection test; at n <= 1e5 that
 * happens to at most n / 2**32 of the draws. */
static void fill_bounded(pcg64 *gp, uint64_t rng, int64_t size, int64_t *out)
{
    pcg64 g = *gp; /* a local copy, so the state stays in registers */
    int64_t k = 0;
    if (rng != 0 && rng < 0xFFFFFFFFULL) {
        const uint32_t excl = (uint32_t)rng + 1u;
        while (k + 1 < size) {
            if (g.has_uint32) {
                out[k++] = (int64_t)bounded(&g, rng);
                continue;
            }
            const uint64_t word = next_uint64(&g);
            const uint32_t hi = (uint32_t)(word >> 32);
            const uint64_t m0 = (uint64_t)(uint32_t)word * excl, m1 = (uint64_t)hi * excl;
            g.uinteger = hi;
            if (((uint32_t)m0 < excl) | ((uint32_t)m1 < excl)) {
                g.has_uint32 = 1;
                out[k++] = (int64_t)lemire32(&g, m0, (uint32_t)rng);
                continue;
            }
            out[k] = (int64_t)(m0 >> 32);
            out[k + 1] = (int64_t)(m1 >> 32);
            k += 2;
        }
    }
    for (; k < size; k++)
        out[k] = (int64_t)bounded(&g, rng);
    *gp = g;
}

/* Draw `size` steps for n agents in _draw_block's order: every i in
 * [0, n), then every j in [0, n - 1) moved past its i, then every eps in
 * [0, 1). n >= 2. `st` holds the generator state in and out as
 * {state >> 64, state & (2**64 - 1), inc >> 64, inc & (2**64 - 1),
 * has_uint32, uinteger}. */
void kinex_draw(uint64_t *st, int64_t n, int64_t size, int64_t *ii, int64_t *jj,
                double *ee)
{
    pcg64 g = {((u128)st[0] << 64) | st[1], ((u128)st[2] << 64) | st[3],
               st[4] != 0, (uint32_t)st[5]};
    fill_bounded(&g, (uint64_t)n - 1u, size, ii);
    fill_bounded(&g, (uint64_t)n - 2u, size, jj);
    /* a pass of its own: in the paired loop gcc makes this compare a branch */
    for (int64_t k = 0; k < size; k++)
        jj[k] += jj[k] >= ii[k];
    for (int64_t k = 0; k < size; k++)
        ee[k] = (double)(next_uint64(&g) >> 11) * (1.0 / 9007199254740992.0);
    st[0] = (uint64_t)(g.state >> 64);
    st[1] = (uint64_t)g.state;
    st[4] = (uint64_t)g.has_uint32;
    st[5] = g.uinteger;
}

/* Stable bottom-up merge sort of the n agent indices in a, with b as
 * scratch, by x then y, or by y alone when x is NULL; an entry from the
 * right half goes first only when it is strictly less. Returns a or b,
 * whichever holds the result. When inversions is not NULL, adds the pairs
 * the sort found in strictly descending order: each right entry that goes
 * first passes the mid - p left entries still waiting. */
static inline __attribute__((always_inline)) int64_t *
merge_sort(const double *x, const double *y, int64_t n, int64_t *a, int64_t *b,
           int64_t *inversions)
{
    for (int64_t width = 1; width < n; width *= 2) {
        for (int64_t lo = 0; lo < n; lo += 2 * width) {
            const int64_t mid = lo + width < n ? lo + width : n;
            const int64_t hi = mid + width < n ? mid + width : n;
            int64_t p = lo, q = mid, k = lo;
            while (p < mid && q < hi) {
                const int64_t l = a[p], r = a[q];
                const int right_first = x ? x[r] < x[l] || (x[r] == x[l] && y[r] < y[l])
                                          : y[r] < y[l];
                if (right_first) {
                    b[k++] = r;
                    q++;
                    if (inversions)
                        *inversions += mid - p;
                } else {
                    b[k++] = l;
                    p++;
                }
            }
            while (p < mid)
                b[k++] = a[p++];
            while (q < hi)
                b[k++] = a[q++];
        }
        int64_t *t = a;
        a = b;
        b = t;
    }
    return a;
}

/* The pair counts of _tau_counts for two snapshots x and y of n >= 2
 * agents: out = {discordant, tied in x, tied in y, tied in both}. work
 * holds 2n int64. C's == takes -0.0 and 0.0 as equal, as np.unique does. */
void kinex_tau_counts(const double *x, const double *y, int64_t n, int64_t *work,
                      int64_t *out)
{
    for (int64_t k = 0; k < n; k++)
        work[k] = k;
    int64_t *order = merge_sort(x, y, n, work, work + n, NULL);
    /* runs of equal x, and of equal (x, y), are now adjacent; an entry
     * that extends a run ties with every entry before it in the run */
    int64_t ties_x = 0, ties_both = 0, run_x = 0, run_both = 0;
    for (int64_t k = 1; k < n; k++) {
        const int64_t l = order[k - 1], r = order[k];
        run_x = x[r] == x[l] ? run_x + 1 : 0;
        run_both = run_x && y[r] == y[l] ? run_both + 1 : 0;
        ties_x += run_x;
        ties_both += run_both;
    }
    /* x-order with equal x sorted by y: a pair sorted out of it by y is
     * one whose x and y disagree strictly */
    int64_t discordant = 0;
    order = merge_sort(NULL, y, n, order, order == work ? work + n : work, &discordant);
    int64_t ties_y = 0, run_y = 0;
    for (int64_t k = 1; k < n; k++) {
        run_y = y[order[k]] == y[order[k - 1]] ? run_y + 1 : 0;
        ties_y += run_y;
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

/* Write v as CPython's repr(v) does, at most 24 bytes; return the end. */
static char *put_double(char *p, double v, const uint64_t *g)
{
    const uint64_t bits = bits_of(v), t = bits & ((1ULL << 52) - 1);
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
                p = put_double(p, double_of(cell), g);
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
