/* Compiled loop body of kinex.exchange._exchange.
 *
 * A line-for-line transliteration: the same IEEE double operations in the
 * same order, so results are bit-identical to the Python reference. Build
 * with -O2 -ffp-contract=off and never with -ffast-math or -march=native:
 * a fused multiply-add or a reordered sum changes the last bits.
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
