/* Classical fixed-step RK4 of a quadratic field, the C twin of the Python
 * step that qcbound.euler_arnold._compile_rk4 generates.
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
 * Python side checks the result against its own step before using it.
 */

#include <math.h>

static void stage(int d, const int *start, const int *j, const int *k,
                  const double *s, const double *w, const double *u,
                  double *out)
{
    for (int i = 0; i < d; i++) {
        int t = start[i], end = start[i + 1];
        if (t == end)
            continue;
        double acc = s[t] * u[j[t]] * u[k[t]];
        for (t++; t < end; t++)
            acc += s[t] * u[j[t]] * u[k[t]];
        out[i] = w[i] != 1.0 ? acc / w[i] : acc;
    }
}

static void inputs(int d, const int *start, const double *v, double scale,
                   const double *slope, double *u)
{
    for (int i = 0; i < d; i++)
        u[i] = start[i] == start[i + 1] ? v[i] : v[i] + scale * slope[i];
}

/* Fill rows 1 .. n of the row-major (n + 1) x d array ``states`` from row 0
 * with step h, using ``work`` (5 d doubles) as scratch.  Stops after the
 * first row with a non-finite component; returns the number of rows of
 * ``states`` written, row 0 included. */
int rk4_rows(int d, const int *start, const int *j, const int *k,
             const double *s, const double *w, double h, int n,
             double *states, double *work)
{
    double half = 0.5 * h, sixth = h / 6.0;
    double *a = work, *b = a + d, *e = b + d, *kk = e + d, *u = kk + d;
    for (int row = 1; row <= n; row++) {
        const double *v = states + (long)(row - 1) * d;
        double *next = states + (long)row * d;
        int finite = 1;
        stage(d, start, j, k, s, w, v, a);
        inputs(d, start, v, half, a, u);
        stage(d, start, j, k, s, w, u, b);
        inputs(d, start, v, half, b, u);
        stage(d, start, j, k, s, w, u, e);
        inputs(d, start, v, h, e, u);
        stage(d, start, j, k, s, w, u, kk);
        for (int i = 0; i < d; i++) {
            next[i] = start[i] == start[i + 1]
                ? v[i] : v[i] + sixth * (a[i] + 2.0 * (b[i] + e[i]) + kk[i]);
            finite &= isfinite(next[i]) != 0;
        }
        if (!finite)
            return row + 1;
    }
    return n + 1;
}
