/* Compiled loop body of kinex.exchange._exchange, and the draws of
 * kinex.exchange._draw_block.
 *
 * kinex_exchange is a line-for-line transliteration: the same IEEE double
 * operations in the same order, so results are bit-identical to the Python
 * reference. Build with -O2 -ffp-contract=off and never with -ffast-math or
 * -march=native: a fused multiply-add or a reordered sum changes the last
 * bits.
 *
 * kinex_draw reproduces numpy's PCG64 and the algorithms behind
 * Generator.integers and Generator.random, so it writes the very values
 * _draw_block draws and leaves the generator in the same state. kinex checks
 * it against _draw_block when it loads this library and does not use it if
 * they differ.
 */
#include <stdint.h>

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
        double gap, pool;
        if (mi <= mj) {
            gap = mj - mi;
            pool = oml * (2.0 * mi + gam * gap);
            assets[i] = lam * mi + eps * pool;
            assets[j] = lam * mj + keep * gap + fps * pool;
        } else {
            gap = mi - mj;
            pool = oml * (2.0 * mj + gam * gap);
            assets[i] = lam * mi + keep * gap + eps * pool;
            assets[j] = lam * mj + fps * pool;
        }
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
    if (rng < 0xFFFFFFFFULL) {
        const uint32_t excl = (uint32_t)rng + 1u;
        uint64_t m = (uint64_t)next_uint32(g) * excl;
        uint32_t leftover = (uint32_t)m;
        if (leftover < excl) {
            const uint32_t threshold = (UINT32_MAX - (uint32_t)rng) % excl;
            while (leftover < threshold) {
                m = (uint64_t)next_uint32(g) * excl;
                leftover = (uint32_t)m;
            }
        }
        return m >> 32;
    }
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
    for (int64_t k = 0; k < size; k++)
        ii[k] = (int64_t)bounded(&g, (uint64_t)n - 1u);
    for (int64_t k = 0; k < size; k++) {
        const int64_t j = (int64_t)bounded(&g, (uint64_t)n - 2u);
        jj[k] = j + (j >= ii[k]);
    }
    for (int64_t k = 0; k < size; k++)
        ee[k] = (double)(next_uint64(&g) >> 11) * (1.0 / 9007199254740992.0);
    st[0] = (uint64_t)(g.state >> 64);
    st[1] = (uint64_t)g.state;
    st[4] = (uint64_t)g.has_uint32;
    st[5] = g.uinteger;
}
