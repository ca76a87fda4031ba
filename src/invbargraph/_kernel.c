/* Compiled enumeration kernels for invbargraph.kernel.
 *
 * Walks all n! inversion sequences with an incremental depth-first sweep and
 * tallies joint statistic counts into a flat array of long long that the
 * caller allocates zeroed and sizes from n.  There is no Python API: the
 * module is loaded with ctypes, and kernel.py checks 1 <= n <= MAX_N and
 * turns the array into the same dicts as invbargraph._kernel_py.  Every
 * sequence is visited; no states are merged, so the walk stays independent
 * of the recurrences it is checked against.
 */

/* counts[(last * adim + area) * sdim + sper], where
 * boundary = rho_1 + sum_{2<=j<=i} |rho_j - rho_{j-1}|. */
static void walk_area_sper(int i, int n, int prev, int area, int boundary,
                           long long *counts, int adim, int sdim)
{
    int v, d, nxt = i + 1;
    if (nxt == n) {
        for (v = 1; v <= n; v++) {
            d = v >= prev ? v - prev : prev - v;
            counts[(v * adim + area + v) * sdim + n + (boundary + d + v) / 2] += 1;
        }
    } else {
        for (v = 1; v <= nxt; v++) {
            d = v >= prev ? v - prev : prev - v;
            walk_area_sper(nxt, n, v, area + v, boundary + d, counts, adim, sdim);
        }
    }
}

/* counts[(last * ldim + levels) * ddim + descents]; ascents are implied,
 * n - 1 - levels - descents. */
static void walk_lda(int i, int n, int prev, int lev, int des,
                     long long *counts, int ldim, int ddim)
{
    int v, nxt = i + 1;
    if (nxt == n) {
        for (v = 1; v <= n; v++) {
            if (v == prev)
                counts[(v * ldim + lev + 1) * ddim + des] += 1;
            else if (v < prev)
                counts[(v * ldim + lev) * ddim + des + 1] += 1;
            else
                counts[(v * ldim + lev) * ddim + des] += 1;
        }
    } else {
        for (v = 1; v <= nxt; v++) {
            if (v == prev)
                walk_lda(nxt, n, v, lev + 1, des, counts, ldim, ddim);
            else if (v < prev)
                walk_lda(nxt, n, v, lev, des + 1, counts, ldim, ddim);
            else
                walk_lda(nxt, n, v, lev, des, counts, ldim, ddim);
        }
    }
}

void area_sper_counts(int n, int adim, int sdim, long long *counts)
{
    if (n == 1)
        counts[(1 * adim + 1) * sdim + 2] = 1;
    else
        walk_area_sper(1, n, 1, 1, 1, counts, adim, sdim);
}

void lda_counts(int n, int ldim, int ddim, long long *counts)
{
    if (n == 1)
        counts[(1 * ldim + 0) * ddim + 0] = 1;
    else
        walk_lda(1, n, 1, 0, 0, counts, ldim, ddim);
}
