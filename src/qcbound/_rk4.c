/* The C twins of four numpy or Python routines of qcbound, each performing
 * its twin's operations in its order, so that each result is the same
 * double, or the same text:
 *
 *   rk4_rows      classical fixed-step RK4 of a quadratic field, the step
 *                 that qcbound.euler_arnold._compile_rk4 generates;
 *   hermite_at    the cubic Hermite evaluation of its result,
 *                 qcbound.euler_arnold._numpy_hermite;
 *   magnus_block  one block of the oracle's product of fourth-order Magnus
 *                 factors on a real representation,
 *                 qcbound.oracle._numpy_block with its fixed-order products;
 *   csv_rows      one curve's figure CSV rows, qcbound.cli._twin_rows, with
 *                 each number written as Python's "%.12g" writes it.
 *
 * The field is dv_i/ds = (sum_t s_t v_j(t) v_k(t)) / w_i over its nonzero
 * terms t, given row by row in np.nonzero order: the terms of row i are
 * start[i] .. start[i+1] - 1.  A row without terms is conserved.
 *
 * Every operation of rk4_rows is the Python step's, in its order, so each
 * state is the same double: a moving component accumulates (s_t u_j) u_k
 * from its first term (no 0.0 start), divides by w_i only when w_i != 1,
 * takes the stage inputs v + (h/2) a, v + (h/2) b, v + h e and the update
 * v + (h/6)(a + 2 (b + e) + k).  A conserved component gets no stage and
 * no update: its stage inputs and its next state are its state, bit for
 * bit (a -0.0 stays -0.0).  Build with -ffp-contract=off and never with
 * -ffast-math, so that no product and sum is fused or reordered.
 * qcbound._kernel builds and loads the library, and each caller uses an
 * entry point only once it has given its twin's bytes on a check.
 *
 * Three shortcuts leave every result as it was.  hermite_at guesses a
 * point's interval on the uniform grid of a numeric solution and keeps the
 * guess only where the grid confirms it, else it searches.  magnus_block
 * sums each entry of hA1 and hA2 over the generators' nonzero entries only
 * (oracle._GeneratorTerms, shared with its twin): a zero term would add a
 * zero, which changes no sum but the sign of a zero, and no sign of a zero
 * in the exponents reaches a factor, since each "+ I" of the Taylor
 * polynomial turns -0.0 into 0.0.  (A non-finite velocity still makes
 * its step's exponent non-finite through the nonzero entries; only some
 * of that exponent's entries may be finite where inf 0 made them nan.)  It
 * also computes the block's Taylor factors four at a time, lane-interleaved,
 * since all of them share one degree and one scaling: lanes serve every
 * size, and a last group of fewer than four is padded with zero exponents,
 * whose factors are thrown away.
 *
 * csv_rows is exact for another reason: Python's "%.12g" is the correctly
 * rounded 12-digit decimal, ties to even (Gay's dtoa), and csv_rows
 * computes that same integer with no rounding error at all, as Ryu printf
 * does (Adams, PLDI 2019): for |x| = m 2^q and k = 11 - e, with e the
 * decimal exponent of |x|, the 12 digits are round-half-even(m 5^k 2^(q+k))
 * taken in 128-bit integers, where 5^|k| fits 64 bits for |k| <= 27.  A
 * value outside that range (|x| below about 1e-16 or from 1e39 up, or
 * subnormal), and every value without a 128-bit integer type, is written by
 * the C library's snprintf("%.12g"), which glibc also rounds exactly.
 */

#include <math.h>
#include <stdint.h>
#include <stdio.h>
#include <string.h>

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
 * c0 + c1 d + c2 d^2 + c3 (d^2 d).
 *
 * The grid of a numeric solution is np.linspace(0, 1, n + 1), so the
 * interval is guessed as (int)(x n) and taken, or its right neighbour
 * taken, only where grid[i] <= x < grid[i + 1] holds: that i is the
 * search's.  Any other point, and every point of a grid that is not
 * uniform, is binary-searched, so every sorted grid gets searchsorted's
 * interval. */
void hermite_at(int d, int n, const double *grid, const double *states,
                const double *slopes, int m, const double *s, double *out)
{
    for (int p = 0; p < m; p++) {
        double x = s[p] < 0.0 ? 0.0 : s[p] > 1.0 ? 1.0 : s[p];
        double guess = x * n;
        int i = -1;
        if (guess >= 0.0 && guess < n) {  /* false for a nan */
            int g = (int)guess;
            if (grid[g] <= x && x < grid[g + 1])
                i = g;
            else if (g + 1 < n && grid[g + 1] <= x && x < grid[g + 2])
                i = g + 1;
        }
        if (i < 0) {
            int lo = 0, hi = n + 1;       /* the first grid point above x */
            while (lo < hi) {
                int mid = lo + (hi - lo) / 2;
                if (grid[mid] <= x)
                    lo = mid + 1;
                else
                    hi = mid;
            }
            i = lo - 1;                   /* clipped to 0 .. n - 1 */
            if (i > n - 1)
                i = n - 1;
            if (i < 0)
                i = 0;
        }
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

/* The Magnus block's helpers are inlined into magnus_block once per size it
 * dispatches on, so that 2 x 2 and 4 x 4 loops have constant bounds. */
#if defined(__GNUC__)
#define SIZED static inline __attribute__((always_inline))
#else
#define SIZED static inline
#endif

/* c = a b for row-major n x n matrices: each entry sums a_il b_lj over
 * l = 0 .. n - 1 from its first term, as oracle._fixed_matmul does.  Two
 * loop orders give the same sums: an entry at a time for 2 x 2, and for
 * larger sizes a row at a time, which the compiler vectorises across the
 * row (c must not overlap a or b).  Either order alone, or one block for
 * every size, makes a 4000-step product 23-52 % slower on sp2_J, sp4_T10
 * or coupled_M4 (gcc -O2, x86-64). */
SIZED void matmul_entries(int n, const double *a, const double *b, double *c)
{
    for (int i = 0; i < n; i++)
        for (int j = 0; j < n; j++) {
            double acc = a[i * n] * b[j];
            for (int l = 1; l < n; l++)
                acc += a[i * n + l] * b[l * n + j];
            c[i * n + j] = acc;
        }
}

SIZED void matmul_rows(int n, const double *a, const double *b,
                       double *restrict c)
{
    for (int i = 0; i < n; i++) {
        double *ci = c + i * n;
        for (int j = 0; j < n; j++)
            ci[j] = a[i * n] * b[j];
        for (int l = 1; l < n; l++)
            for (int j = 0; j < n; j++)
                ci[j] += a[i * n + l] * b[l * n + j];
    }
}

SIZED void matmul(int n, const double *a, const double *b, double *c)
{
    if (n == 2)
        matmul_entries(n, a, b, c);
    else
        matmul_rows(n, a, b, c);
}

/* The Taylor polynomial of ``degree`` by Horner's rule, I + a/1 (I + a/2
 * (I + ...)), squared ``squarings`` times, of LANES n x n matrices at once
 * into p, with scratch t.  Entry e of matrix l is at LANES e + l, so the
 * lane loops, which the compiler vectorises, run over consecutive doubles.
 * Each lane gets oracle._expm_taylor's operations in its order: products
 * summed from their first term, each "/ q" a division, then "+ I" (0.0 off
 * the diagonal, so a -0.0 becomes 0.0, as numpy's "+ eye" does), then the
 * squarings.  Against one factor at a time, a block takes about 19 % less
 * time on sp4_T10, 13 % on coupled_M4 and 5 % on sp2_J (gcc -O2, x86-64). */
#define LANES 4

SIZED void matmul_lanes(int n, const double *a, const double *b,
                        double *restrict c)
{
    for (int i = 0; i < n; i++) {
        const double *ai = a + LANES * n * i;
        double *ci = c + LANES * n * i;
        for (int j = 0; j < n; j++)
            for (int l = 0; l < LANES; l++)
                ci[LANES * j + l] = ai[l] * b[LANES * j + l];
        for (int k = 1; k < n; k++)
            for (int j = 0; j < n; j++)
                for (int l = 0; l < LANES; l++)
                    ci[LANES * j + l] += ai[LANES * k + l] * b[LANES * (n * k + j) + l];
    }
}

SIZED void taylor_lanes(int n, const double *a, int degree, int squarings,
                        double *p, double *t)
{
    int nn = n * n;
    for (int e = 0; e < nn; e++) {
        double one = e % (n + 1) == 0 ? 1.0 : 0.0;
        for (int l = 0; l < LANES; l++)
            p[LANES * e + l] = degree == 0 ? one : a[LANES * e + l] / degree + one;
    }
    for (int q = degree - 1; q > 0; q--) {
        matmul_lanes(n, a, p, t);
        for (int e = 0; e < nn; e++) {
            double one = e % (n + 1) == 0 ? 1.0 : 0.0;
            for (int l = 0; l < LANES; l++)
                p[LANES * e + l] = t[LANES * e + l] / q + one;
        }
    }
    for (int q = 0; q < squarings; q++) {
        matmul_lanes(n, p, p, t);
        memcpy(p, t, LANES * nn * sizeof *p);
    }
}

SIZED int block(int d, int n, int m, const double *v, double h, double c,
                const int *start, const int *index, const double *value,
                double *omega, double *u, double *work)
{
    int nn = n * n;
    double *f = work, *a1 = f + (long)m * nn, *a2 = a1 + nn, *p21 = a2 + nn,
        *p12 = p21 + nn, *al = p12 + nn, *pl = al + LANES * nn,
        *tl = pl + LANES * nn, *vh1 = tl + LANES * nn, *vh2 = vh1 + d;
    for (int k = 0; k < m; k++) {
        const double *v1 = v + (long)k * d, *v2 = v + (long)(m + k) * d;
        for (int g = 0; g < d; g++) {
            vh1[g] = v1[g] * h;
            vh2[g] = v2[g] * h;
        }
        for (int e = 0; e < nn; e++) {
            int t = start[e], end = start[e + 1];
            if (t == end) {
                a1[e] = a2[e] = 0.0;
                continue;
            }
            double x1 = vh1[index[t]] * value[t], x2 = vh2[index[t]] * value[t];
            for (t++; t < end; t++) {
                x1 += vh1[index[t]] * value[t];
                x2 += vh2[index[t]] * value[t];
            }
            a1[e] = x1;
            a2[e] = x2;
        }
        matmul(n, a2, a1, p21);
        matmul(n, a1, a2, p12);
        double *om = omega + (long)k * nn;
        for (int e = 0; e < nn; e++)
            om[e] = 0.5 * (a1[e] + a2[e]) + c * (p21[e] - p12[e]);
    }

    double theta = 0.0;
    for (int k = 0; k < m; k++)
        for (int j = 0; j < n; j++) {
            const double *col = omega + (long)k * nn + j;
            double sum = fabs(col[0]);
            for (int i = 1; i < n; i++)
                sum += fabs(col[i * n]);
            if (!isfinite(sum))
                return 1;
            if (sum > theta)
                theta = sum;
        }
    int squarings = 0, degree = 0;
    if (theta > 0.5) {
        frexp(theta, &squarings);
        squarings += 1;                   /* theta / 2^squarings < 1/2 */
        theta = ldexp(theta, -squarings);
    }
    double scale = ldexp(1.0, -squarings), term = theta;
    while (term / (1.0 - theta / (degree + 2)) > 0x1p-53) {
        degree++;
        term *= theta / (degree + 1);
    }

    /* the factors LANES at a time (a x 1.0 is a, bit for bit); the last
     * group is padded with zero exponents, whose factors are not kept */
    for (int k = 0; k < m; k += LANES) {
        int lanes = m - k < LANES ? m - k : LANES;
        const double *a = omega + (long)k * nn;
        if (lanes < LANES)
            memset(al, 0, LANES * nn * sizeof *al);
        for (int l = 0; l < lanes; l++)
            for (int e = 0; e < nn; e++)
                al[LANES * e + l] = a[nn * l + e] * scale;
        taylor_lanes(n, al, degree, squarings, pl, tl);
        double *fk = f + (long)k * nn;
        for (int l = 0; l < lanes; l++)
            for (int e = 0; e < nn; e++)
                fk[nn * l + e] = pl[LANES * e + l];
    }
    double *t = a2;

    for (int len = m; len > 1; len = len / 2 + len % 2) {
        for (int q = 0; q < len / 2; q++) {
            matmul(n, f + (long)(2 * q + 1) * nn, f + (long)(2 * q) * nn, t);
            for (int e = 0; e < nn; e++)
                f[(long)q * nn + e] = t[e];
        }
        if (len % 2)
            for (int e = 0; e < nn; e++)
                f[(long)(len / 2) * nn + e] = f[(long)(len - 1) * nn + e];
    }
    matmul(n, f, u, t);
    for (int e = 0; e < nn; e++)
        if (!isfinite(t[e]))
            return 1;
    for (int e = 0; e < nn; e++)
        u[e] = t[e];
    return 0;
}

/* One block of m Magnus steps of an n x n real representation: u <- P u,
 * P = F[m-1] ... F[1] F[0], F[k] = exp(omega[k]).
 *
 * ``v`` is the (2 m) x d row-major array of velocities, row k at the first
 * Gauss point of step k and row m + k at its second, ``h`` the step and
 * ``c`` the commutator weight.  The d generators (d x n x n) are given by
 * their nonzero entries, entry by entry (entry e = i n + j): the terms of
 * entry e are start[e] .. start[e + 1] - 1, term t the value value[t] of
 * generator index[t], in increasing generator index.  Step k's exponent is
 *
 *     omega[k] = 0.5 (hA1 + hA2) + c (hA2 hA1 - hA1 hA2),
 *     hA_e = sum_t (v_index[t] h) value[t]   (over t in order, from the
 *                                             first; 0.0 without terms),
 *
 * written to ``omega`` (m x n x n).  The block's largest column sum theta
 * sets the scaling 2^-squarings and the Taylor degree of every factor, with
 * oracle._expm_taylor's rule; the factors are computed LANES at a time,
 * for every n, the last group padded with zero exponents, and multiplied by
 * the same pairwise tree as oracle._ordered_product, an odd one out carried
 * to the next level.  ``work`` holds (m + 16) n^2 + 2 d doubles: the
 * factors, four n x n and three LANES n x n scratch matrices, and v h.
 * Returns 0 with u updated, or 1 with u unchanged when theta or P u is not
 * finite (the caller then replays the block from omega). */
int magnus_block(int d, int n, int m, const double *v, double h, double c,
                 const int *start, const int *index, const double *value,
                 double *omega, double *u, double *work)
{
    if (n == 2)
        return block(d, 2, m, v, h, c, start, index, value, omega, u, work);
    if (n == 4)
        return block(d, 4, m, v, h, c, start, index, value, omega, u, work);
    return block(d, n, m, v, h, c, start, index, value, omega, u, work);
}

/* Figure CSV rows.  A number is written as Python's "%.12g": its 12 digits
 * d.ddddddddddd x 10^x correctly rounded, ties to even; for -4 <= x < 12 in
 * fixed notation, else as d.ddde+XX (at least two exponent digits); in
 * either, trailing zeros and then a bare point are dropped.  "-0", "inf",
 * "-inf" and "nan" (whatever its sign) are written directly. */

#if defined(__SIZEOF_INT128__)
typedef unsigned __int128 u128;

static const uint64_t POW5[28] = {
    1ull, 5ull, 25ull, 125ull, 625ull, 3125ull, 15625ull, 78125ull,
    390625ull, 1953125ull, 9765625ull, 48828125ull, 244140625ull,
    1220703125ull, 6103515625ull, 30517578125ull, 152587890625ull,
    762939453125ull, 3814697265625ull, 19073486328125ull, 95367431640625ull,
    476837158203125ull, 2384185791015625ull, 11920928955078125ull,
    59604644775390625ull, 298023223876953125ull, 1490116119384765625ull,
    7450580596923828125ull};

/* round-half-even(m 5^k 2^s) for |k| <= 27, as the quotient of two 128-bit
 * integers, or -1 when one of them does not fit. */
static int64_t scaled(uint64_t m, int k, int s)
{
    u128 num = m, den = 1, q, r;
    if (k >= 0)
        num *= POW5[k];
    else
        den = POW5[-k];
    if (s >= 0) {
        if (s > 63 || num >> (127 - s))   /* num 2^s stays below 2^127 */
            return -1;
        num <<= s;
    } else if (k >= 0) {                  /* den = 2^-s: a shift */
        if (s < -126)
            return -1;
        u128 half = (u128)1 << (-s - 1);
        q = num >> -s;
        r = num & (2 * half - 1);
        return (int64_t)(q + (r > half || (r == half && (q & 1))));
    } else {
        if (s < -63 || den >> (126 + s))  /* den 2^-s below 2^126: 2 r fits */
            return -1;
        den <<= -s;
    }
    q = num / den;
    r = num - q * den;
    return (int64_t)(q + (2 * r > den || (2 * r == den && (q & 1))));
}

/* The 12 digits n (10^11 <= n < 10^12) of d.ddd x 10^x, |x| < 100, laid out
 * as "%g" does, at p; returns the end. */
static char *layout(int64_t n, int x, char *p)
{
    char d[12];
    for (int i = 11; i >= 0; i--) {
        d[i] = (char)('0' + n % 10);
        n /= 10;
    }
    int len = 12;                         /* d[0] is not '0' */
    while (d[len - 1] == '0')
        len--;
    if (x < -4 || x >= 12) {
        *p++ = d[0];
        if (len > 1) {
            *p++ = '.';
            memcpy(p, d + 1, len - 1);
            p += len - 1;
        }
        *p++ = 'e';
        *p++ = x < 0 ? '-' : '+';
        x = x < 0 ? -x : x;
        *p++ = (char)('0' + x / 10);
        *p++ = (char)('0' + x % 10);
    } else if (x >= 0) {
        memcpy(p, d, x + 1);
        p += x + 1;
        if (len > x + 1) {
            *p++ = '.';
            memcpy(p, d + x + 1, len - x - 1);
            p += len - x - 1;
        }
    } else {
        *p++ = '0';
        *p++ = '.';
        for (int i = -1; i > x; i--)
            *p++ = '0';
        memcpy(p, d, len);
        p += len;
    }
    return p;
}
#endif

/* x as "%.12g" at p; returns the end, or null when the C library's text
 * holds anything but [0-9.e+-] (a locale's decimal point). */
static char *g12(double x, char *p)
{
    if (isnan(x)) {
        memcpy(p, "nan", 3);
        return p + 3;
    }
    if (signbit(x)) {
        *p++ = '-';
        x = -x;
    }
    if (isinf(x)) {
        memcpy(p, "inf", 3);
        return p + 3;
    }
    if (x == 0.0) {
        *p++ = '0';
        return p;
    }
#if defined(__SIZEOF_INT128__)
    uint64_t bits;
    memcpy(&bits, &x, sizeof bits);
    int biased = (int)(bits >> 52);
    if (biased > 0) {                     /* normal: x = m 2^q */
        uint64_t m = (bits & ((1ull << 52) - 1)) | 1ull << 52;
        int e2 = biased - 1023, q = biased - 1075;
        /* e = floor(e2 log10 2), so 10^e <= x < 20 10^e and the first
         * n lies in [10^11, 2 10^12); at 10^12 or more, e is one more */
        int e = e2 >= 0 ? (e2 * 78913) >> 18 : -((-e2 * 78913 + 262143) >> 18);
        int k = 11 - e;
        int64_t n = k >= -27 && k <= 27 ? scaled(m, k, q + k) : -1;
        if (n >= 1000000000000) {
            k--;
            n = k >= -27 ? scaled(m, k, q + k) : -1;
        }
        if (n >= 0)
            return layout(n, 11 - k, p);
    }
#endif
    char text[32];
    int len = snprintf(text, sizeof text, "%.12g", x);
    if (len <= 0 || len >= (int)sizeof text
            || strspn(text, "0123456789.e+-") != (size_t)len)
        return 0;
    memcpy(p, text, len);
    return p + len;
}

static char *decimal(int64_t v, char *p)
{
    char d[20];
    int len = 0;
    uint64_t u = v < 0 ? 0 - (uint64_t)v : (uint64_t)v;
    if (v < 0)
        *p++ = '-';
    do {
        d[len++] = (char)('0' + u % 10);
        u /= 10;
    } while (u);
    while (len)
        *p++ = d[--len];
    return p;
}

/* The n rows "t,value,branch,0<suffix>\n" of one curve into ``out``, or
 * "t,,branch,1<suffix>\n" where the value is not finite, with t and the
 * value as "%.12g" and the branch in decimal.
 * ``out`` holds n (64 + suffix_len) bytes: a number takes at most 19, a
 * branch 20.  Returns the number of bytes written, or -1 when a number
 * fell back to a C library text that is not Python's. */
long csv_rows(long n, const double *t, const double *value,
              const int64_t *branch, const char *suffix, long suffix_len,
              char *out)
{
    char *p = out;
    for (long i = 0; i < n; i++) {
        int finite = isfinite(value[i]) != 0;
        if (!(p = g12(t[i], p)))
            return -1;
        *p++ = ',';
        if (finite && !(p = g12(value[i], p)))
            return -1;
        *p++ = ',';
        p = decimal(branch[i], p);
        *p++ = ',';
        *p++ = finite ? '0' : '1';
        memcpy(p, suffix, suffix_len);
        p += suffix_len;
        *p++ = '\n';
    }
    return (long)(p - out);
}
