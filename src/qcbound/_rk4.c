/* Classical fixed-step RK4 of a quadratic field, the C twin of the Python
 * step that qcbound.euler_arnold._compile_rk4 generates, and the cubic
 * Hermite evaluation of its result, the C twin of
 * qcbound.euler_arnold._numpy_hermite.
 *
 * The field is dv_i/ds = (sum_t s_t v_j(t) v_k(t)) / w_i over its nonzero
 * terms t, given row by row in np.nonzero order: the terms of row i are
 * start[i] .. start[i+1] - 1.  A row without terms is conserved.
 *
 * Every operation is the Python step's, in its order, so each state is
 * the same double: a moving component accumulates (s_t u_j) u_k from its
 * first term (no 0.0 start), divides by w_i only when w_i != 1, takes the
 * stage inputs v + (h/2) a, v + (h/2) b, v + h e and the update
 * v + (h/6)(a + 2 (b + e) + k).  A conserved component gets no stage and
 * no update: its stage inputs and its next state are its state, bit for
 * bit (a -0.0 stays -0.0).  Build with -ffp-contract=off and never with
 * -ffast-math, so that no product and sum is fused or reordered; the
 * Python side checks the result against its own step and its own
 * evaluator before using it.
 */

#include <math.h>

/* The field at u into out.  With ``slope`` set, also the field as a sum
 * from 0.0, (0.0 + sum) / w_i: out[i] unless the sum is a zero, then 0.0
 * (0.0 for a conserved component too).  Inline, so that the three stages
 * of a step that write no slope lose the test. */
static inline void stage(int d, const int *start, const int *j, const int *k,
                         const double *s, const double *w, const double *u,
                         double *out, double *slope)
{
    for (int i = 0; i < d; i++) {
        int t = start[i], end = start[i + 1];
        if (t == end) {
            if (slope)
                slope[i] = 0.0;
            continue;
        }
        double acc = s[t] * u[j[t]] * u[k[t]];
        for (t++; t < end; t++)
            acc += s[t] * u[j[t]] * u[k[t]];
        out[i] = w[i] != 1.0 ? acc / w[i] : acc;
        if (slope)
            slope[i] = acc == 0.0 ? 0.0 : out[i];
    }
}

static void inputs(int d, const int *start, const double *v, double scale,
                   const double *slope, double *u)
{
    for (int i = 0; i < d; i++)
        u[i] = start[i] == start[i + 1] ? v[i] : v[i] + scale * slope[i];
}

/* Fill rows 1 .. n of the row-major (n + 1) x d array ``states`` from row 0
 * with step h, and, unless it is null, the same rows of ``slopes`` with the
 * field at each state (the first stage of its step, plus one stage at the
 * last state), using ``work`` (5 d doubles) as scratch.  Stops after the
 * first row with a non-finite component, whose slope it leaves unwritten;
 * returns the number of rows of ``states`` written, row 0 included. */
int rk4_rows(int d, const int *start, const int *j, const int *k,
             const double *s, const double *w, double h, int n,
             double *states, double *slopes, double *work)
{
    double half = 0.5 * h, sixth = h / 6.0;
    double *a = work, *b = a + d, *e = b + d, *kk = e + d, *u = kk + d;
    for (int row = 1; row <= n; row++) {
        const double *v = states + (long)(row - 1) * d;
        double *next = states + (long)row * d;
        int finite = 1;
        stage(d, start, j, k, s, w, v, a,
              slopes ? slopes + (long)(row - 1) * d : 0);
        inputs(d, start, v, half, a, u);
        stage(d, start, j, k, s, w, u, b, 0);
        inputs(d, start, v, half, b, u);
        stage(d, start, j, k, s, w, u, e, 0);
        inputs(d, start, v, h, e, u);
        stage(d, start, j, k, s, w, u, kk, 0);
        for (int i = 0; i < d; i++) {
            next[i] = start[i] == start[i + 1]
                ? v[i] : v[i] + sixth * (a[i] + 2.0 * (b[i] + e[i]) + kk[i]);
            finite &= isfinite(next[i]) != 0;
        }
        if (!finite)
            return row + 1;
    }
    if (slopes)
        stage(d, start, j, k, s, w, states + (long)n * d, a, slopes + (long)n * d);
    return n + 1;
}

/* The cubic Hermite interpolant through the n + 1 rows of ``states`` and
 * ``slopes`` on ``grid`` at the m points ``s``, into the m x d array
 * ``out``.  Each point is clipped to [0, 1] (a -0.0 stays -0.0, as in
 * np.clip), its interval is searchsorted(grid, s, "right") - 1 clipped to
 * 0 .. n - 1, and that interval's coefficients are computed with
 * _numpy_hermite's operations in its order, then summed as
 * c0 + c1 d + c2 d^2 + c3 (d^2 d). */
void hermite_at(int d, int n, const double *grid, const double *states,
                const double *slopes, int m, const double *s, double *out)
{
    for (int p = 0; p < m; p++) {
        double x = s[p] < 0.0 ? 0.0 : s[p] > 1.0 ? 1.0 : s[p];
        int lo = 0, hi = n + 1;           /* the first grid point above x */
        while (lo < hi) {
            int mid = lo + (hi - lo) / 2;
            if (grid[mid] <= x)
                lo = mid + 1;
            else
                hi = mid;
        }
        int i = lo - 1;                   /* clipped to 0 .. n - 1 */
        if (i > n - 1)
            i = n - 1;
        if (i < 0)
            i = 0;
        double dx = grid[i + 1] - grid[i], dd = x - grid[i], z = dd * dd;
        const double *y0 = states + (long)i * d, *y1 = y0 + d;
        const double *k0 = slopes + (long)i * d, *k1 = k0 + d;
        double *o = out + (long)p * d;
        for (int c = 0; c < d; c++) {
            double slope = (y1[c] - y0[c]) / dx;
            double t = (k0[c] + k1[c] - 2.0 * slope) / dx;
            double c2 = (slope - k0[c]) / dx - t, c3 = t / dx;
            o[c] = y0[c] + k0[c] * dd + c2 * z + c3 * (z * dd);
        }
    }
}
