/* convmp's compiled kernels, built on first use by _native.py and called
through ctypes: pursue, the pursuit loop of conv_mp.greedy_steps; power,
the power iteration of dict_learn.pca_top_component; and the filter
sweep's reconstruct, collect and repair (core.reconstruct, the patch
gather of dict_learn.collect_activated_patches and the residual repair of
dict_learn.update_filter). All are built with -ffp-contract=off, so no
fused multiply-add changes a rounding.

pursue runs over a per-tile max cache. The maps are stored
filter-innermost, (hv, wv, k), and the shift table (k, th, tw, k) with the
updated filter innermost, so one window row of a step is one contiguous
run of the maps and of the table. The maps are cut
into TH x TW tiles of positions, each covering all k filters (the last row
and column of tiles may be short). For every tile the cache holds its peak:
the largest magnitude and its key, the flat index (filter, row, col) of
its first occurrence in that order. Each tile row also holds the best peak
of its tiles, so a step's argmax reads h_v / TH entries, not the maps. A
tile can be stale instead: its entry is then only an upper bound, and the
tile is rescanned when that bound reaches the top of the argmax. Every
tile starts stale, with its exact peak magnitude, so the first scan finds
no positions; a window update takes the maximum of each tile part it
updates in the same pass, leaves the tiles it did not touch alone and
makes stale a touched tile whose peak it lowered. Most stale tiles never
reach the top, so most steps rescan nothing beyond the window.

The bits are numpy's: the update is m = m - (a * t), two roundings, as
`maps -= a * table[...]` does (build with -ffp-contract=off, so no fused
multiply-add; where SSE2 is there, as on every x86-64, the update and the
scans run two lanes at a time, with the same roundings and maxima), and
the argmax takes the largest |v|, then the lowest key, as
np.abs(maps).argmax() does on (k, hv, wv) maps. Peaks are compared by
value, then by key, because another tile can hold an equal peak in a lower
filter; a stale bound has a negative key, so it wins a tie, and a tie is
never settled by a bound. The first scan reads every entry, so it also
rejects maps that hold a NaN or an infinity.

power runs pca_top_component's loop on the (n, dim) patch rows: y = sum of
(row . v) row, one row at a time, so each entry of y is summed in row order;
lam = v . y; v = y / |y|; stop once the residual |y - lam v| is at most the
tolerance times lam. Every dot product sums x[i] * y[i] into 8 lanes, lane i
mod 8, in index order from 0, then folds them ((0+1)+(2+3))+((4+5)+(6+7)).
The loop is plain C, whose lanes the compiler may run side by side but not
reorder; it is built twice, for the baseline target (two-lane SSE2 on
x86-64) and for AVX-512F (one register per dot product), and a run-time CPU
check picks the second where the CPU has it. Both give the same bits, and no
BLAS routine runs, so neither does a BLAS build or thread count change them.

reconstruct, collect and repair keep the bits of the numpy they replaced:
one multiply and one add (or subtract) per sample, and a sample that
several windows or activations touch takes its terms in their order, as
np.bincount, np.add.at and np.subtract.at add them.
*/

#ifdef __SSE2__
#include <emmintrin.h>
#endif
/* power's AVX-512F build; -DCONVMP_NO_AVX512F leaves it out */
#if defined(__x86_64__) && defined(__GNUC__) && !defined(CONVMP_NO_AVX512F)
#define AVX512F_BUILD
#endif
#include <float.h>
#include <math.h>
#include <stddef.h>
#include <stdint.h>
#include <stdlib.h>

#define TH 4
#define TW 8
#define MIN(a, b) ((a) < (b) ? (a) : (b))
#define MAX(a, b) ((a) > (b) ? (a) : (b))

/* A tile's peak: its magnitude and key, or with key = -1 - tx a stale
   tile's upper bound, tx naming the tile column. */
typedef struct {
    double v;
    ptrdiff_t key;
} Peak;

/* One step, laid out like core.ACTIVATION (three np.intp, one float64). */
typedef struct {
    intptr_t filter_index, row, col;
    double coefficient;
} Step;

/* Positions [r0, r1) x [c0, c1) of the (hv, wv, k) maps, all filters. */
typedef struct {
    const double *maps;
    ptrdiff_t k, hv, wv, r0, r1, c0, c1;
} Region;

static int beats(Peak a, Peak b) { return a.v > b.v || (a.v == b.v && a.key < b.key); }

#ifdef __SSE2__
/* The larger of two lanes. _mm_max_pd(v, m) is v > m ? v : m in each lane,
   the scalar loops' maximum, and the lanes round as the scalar code does. */
static inline double lanes_max(__m128d v)
{
    double lane[2];
    _mm_storeu_pd(lane, v);
    return MAX(lane[0], lane[1]);
}
#endif

/* The largest magnitude in the region, -1 if it is empty. *check gathers
   x - x over the entries: 0, or NaN once an entry is a NaN or infinite. */
static inline double top(Region g, double *check)
{
    double m = -1.0, z = 0.0;
    const ptrdiff_t n = (g.c1 - g.c0) * g.k;
#ifdef __SSE2__
    const __m128d sign = _mm_set1_pd(-0.0);
    __m128d m0 = _mm_set1_pd(-1.0), m1 = m0, z0 = _mm_setzero_pd(), z1 = z0;
#endif
    for (ptrdiff_t r = g.r0; r < g.r1; r++) {
        const double *run = g.maps + (r * g.wv + g.c0) * g.k;
        ptrdiff_t x = 0;
#ifdef __SSE2__
        for (; x + 4 <= n; x += 4) {
            const __m128d v0 = _mm_andnot_pd(sign, _mm_loadu_pd(run + x));
            const __m128d v1 = _mm_andnot_pd(sign, _mm_loadu_pd(run + x + 2));
            m0 = _mm_max_pd(v0, m0);
            m1 = _mm_max_pd(v1, m1);
            z0 = _mm_add_pd(z0, _mm_sub_pd(v0, v0));
            z1 = _mm_add_pd(z1, _mm_sub_pd(v1, v1));
        }
#endif
        for (; x < n; x++) {
            const double v = fabs(run[x]);
            m = v > m ? v : m;
            z += v - v;
        }
    }
#ifdef __SSE2__
    m = MAX(m, lanes_max(_mm_max_pd(m0, m1)));
    double zs[2];
    _mm_storeu_pd(zs, _mm_add_pd(z0, z1));
    z += zs[0] + zs[1];
#endif
    *check += z;
    return m;
}

/* Subtract a * t from the n entries at m, in place; the largest magnitude
   among the new values, or -1 if n is 0. */
static inline double update_top(double *m, const double *t, ptrdiff_t n, double a)
{
    double top = -1.0;
    ptrdiff_t x = 0;
#ifdef __SSE2__
    const __m128d av = _mm_set1_pd(a), sign = _mm_set1_pd(-0.0);
    __m128d m0 = _mm_set1_pd(-1.0), m1 = m0;
    for (; x + 4 <= n; x += 4) {
        const __m128d u0 = _mm_sub_pd(_mm_loadu_pd(m + x), _mm_mul_pd(av, _mm_loadu_pd(t + x)));
        const __m128d u1 =
            _mm_sub_pd(_mm_loadu_pd(m + x + 2), _mm_mul_pd(av, _mm_loadu_pd(t + x + 2)));
        _mm_storeu_pd(m + x, u0);
        _mm_storeu_pd(m + x + 2, u1);
        m0 = _mm_max_pd(_mm_andnot_pd(sign, u0), m0);
        m1 = _mm_max_pd(_mm_andnot_pd(sign, u1), m1);
    }
    top = lanes_max(_mm_max_pd(m0, m1));
#endif
    for (; x < n; x++) {
        m[x] = m[x] - a * t[x];
        const double v = fabs(m[x]);
        top = v > top ? v : top;
    }
    return top;
}

/* The entry of the region with the lowest key whose magnitude is v. */
static Peak locate(Region g, double v)
{
    for (ptrdiff_t i = 0; i < g.k; i++)
        for (ptrdiff_t r = g.r0; r < g.r1; r++)
            for (ptrdiff_t c = g.c0; c < g.c1; c++)
                if (fabs(g.maps[(r * g.wv + c) * g.k + i]) == v)
                    return (Peak){v, (i * g.hv + r) * g.wv + c};
    return (Peak){v, 0}; /* not reached for a v from top(g) */
}

/* Whether the position of a key lies in the region. */
static int inside(Region g, ptrdiff_t key)
{
    const ptrdiff_t r = key % (g.hv * g.wv) / g.wv, c = key % g.wv;
    return r >= g.r0 && r < g.r1 && c >= g.c0 && c < g.c1;
}

static Peak scan(Region g)
{
    double unused = 0.0;
    return locate(g, top(g, &unused));
}

/* The tile at tile row ty, tile column tx. */
static Region tile(const double *maps, ptrdiff_t k, ptrdiff_t hv, ptrdiff_t wv, ptrdiff_t ty,
                   ptrdiff_t tx)
{
    return (Region){maps, k, hv, wv, ty * TH, MIN(hv, ty * TH + TH), tx * TW,
                    MIN(wv, tx * TW + TW)};
}

/* The best of the ntx tile peaks at t. */
static Peak best_of(const Peak *t, ptrdiff_t ntx)
{
    Peak best = t[0];
    for (ptrdiff_t tx = 1; tx < ntx; tx++)
        if (beats(t[tx], best))
            best = t[tx];
    return best;
}

/* Run at most max_steps pursuit steps on the C-contiguous (hv, wv, k) maps,
   in place, with the C-contiguous (k, 2fh-1, 2fw-1, k) shift table, whose
   [j, dr, dc, i] is conv_mp.build_shift_gram's [j, i, dr, dc]; stop early
   once the peak magnitude is at most tolerance. Writes the steps to out and
   returns their count; -1 if the cache cannot be allocated, -2 if the maps
   hold a NaN or an infinity. */
ptrdiff_t pursue(double *maps, ptrdiff_t k, ptrdiff_t hv, ptrdiff_t wv, const double *table,
                 ptrdiff_t fh, ptrdiff_t fw, ptrdiff_t max_steps, double tolerance, Step *out)
{
    const ptrdiff_t th = 2 * fh - 1, tw = 2 * fw - 1, area = hv * wv;
    const ptrdiff_t nty = (hv + TH - 1) / TH, ntx = (wv + TW - 1) / TW;
    if (k * area == 0 || max_steps <= 0)
        return 0;
    /* tiles[ty * ntx + tx]; rows[ty] the best of a tile row; tops[tx] the
       largest new magnitude in each tile column of a window */
    Peak *tiles = malloc(sizeof(Peak) * nty * ntx);
    Peak *rows = malloc(sizeof(Peak) * nty);
    double *tops = malloc(sizeof(double) * ntx);
    if (!tiles || !rows || !tops) {
        free(tiles);
        free(rows);
        free(tops);
        return -1;
    }
    /* every tile starts stale, with its exact peak magnitude as the bound */
    double check = 0.0;
    for (ptrdiff_t ty = 0; ty < nty; ty++) {
        for (ptrdiff_t tx = 0; tx < ntx; tx++)
            tiles[ty * ntx + tx] = (Peak){top(tile(maps, k, hv, wv, ty, tx), &check), -1 - tx};
        rows[ty] = best_of(tiles + ty * ntx, ntx);
    }
    ptrdiff_t n = check == 0.0 ? 0 : -2;
    for (; n >= 0 && n < max_steps; n++) {
        /* the best tile row; rescan its best tile while that is stale */
        ptrdiff_t by;
        for (;;) {
            by = 0;
            for (ptrdiff_t ty = 1; ty < nty; ty++)
                if (beats(rows[ty], rows[by]))
                    by = ty;
            if (rows[by].key >= 0)
                break;
            const ptrdiff_t tx = -1 - rows[by].key;
            tiles[by * ntx + tx] = scan(tile(maps, k, hv, wv, by, tx));
            rows[by] = best_of(tiles + by * ntx, ntx);
        }
        const ptrdiff_t j = rows[by].key / area, pr = rows[by].key % area / wv,
                        pc = rows[by].key % wv;
        const double a = maps[(pr * wv + pc) * k + j];
        if (!(fabs(a) <= DBL_MAX)) { /* a window update overflowed */
            n = -2;
            break;
        }
        if (fabs(a) <= tolerance)
            break;
        out[n] = (Step){j, pr, pc, a};
        const ptrdiff_t r0 = MAX(0, pr - fh + 1), r1 = MIN(hv, pr + fh);
        const ptrdiff_t c0 = MAX(0, pc - fw + 1), c1 = MIN(wv, pc + fw);
        const ptrdiff_t tx0 = c0 / TW, tx1 = (c1 - 1) / TW;
        for (ptrdiff_t ty = r0 / TH; ty <= (r1 - 1) / TH; ty++) {
            const ptrdiff_t ur0 = MAX(r0, ty * TH), ur1 = MIN(r1, ty * TH + TH);
            for (ptrdiff_t tx = tx0; tx <= tx1; tx++)
                tops[tx] = -1.0;
            for (ptrdiff_t r = ur0; r < ur1; r++) {
                double *run = maps + (r * wv + c0) * k;
                /* table[j, :, :, :] from the window's row r and column c0 */
                const double *t = table + ((j * th + r - pr + fh - 1) * tw + c0 - pc + fw - 1) * k;
                for (ptrdiff_t tx = tx0; tx <= tx1; tx++) {
                    const ptrdiff_t s0 = MAX(c0, tx * TW) - c0, s1 = MIN(c1, tx * TW + TW) - c0;
                    const double v = update_top(run + s0 * k, t + s0 * k, (s1 - s0) * k, a);
                    tops[tx] = MAX(tops[tx], v);
                }
            }
            Peak *p = tiles + ty * ntx;
            for (ptrdiff_t tx = tx0; tx <= tx1; tx++) {
                const Region u = {maps, k, hv, wv, ur0, ur1, MAX(c0, tx * TW),
                                  MIN(c1, tx * TW + TW)};
                const double v = tops[tx];
                if (p[tx].key < 0) {
                    p[tx].v = MAX(p[tx].v, v);
                } else if (v > p[tx].v || (v == p[tx].v && beats(locate(u, v), p[tx]))) {
                    p[tx] = locate(u, v);
                } else if (inside(u, p[tx].key)) {
                    p[tx] = (Peak){p[tx].v, -1 - tx}; /* updated and no longer the peak */
                }
            }
            rows[ty] = best_of(p, ntx);
        }
    }
    free(tiles);
    free(rows);
    free(tops);
    return n;
}


/* ---- power ---- */

/* power's return codes; dict_learn.pca_top_component mirrors them. */
enum { POWER_CONVERGED, POWER_CAPPED, POWER_ZERO, POWER_NON_FINITE };

#define INLINE static inline __attribute__((always_inline))

/* x . y in 8 lanes, lane i mod 8, in index order from 0, then folded. */
INLINE double dot(const double *x, const double *y, ptrdiff_t n)
{
    double lane[8] = {0.0};
    ptrdiff_t i = 0;
    for (; i + 8 <= n; i += 8)
        for (int l = 0; l < 8; l++)
            lane[l] += x[i + l] * y[i + l];
    for (ptrdiff_t l = 0; i + l < n; l++)
        lane[l] += x[i + l] * y[i + l];
    return ((lane[0] + lane[1]) + (lane[2] + lane[3])) +
           ((lane[4] + lane[5]) + (lane[6] + lane[7]));
}

/* y = the sum of (row . v) row over the n rows, each entry summed in row
   order. */
INLINE void gather(const double *rows, ptrdiff_t n, ptrdiff_t dim, const double *v, double *y)
{
    for (ptrdiff_t d = 0; d < dim; d++)
        y[d] = 0.0;
    for (ptrdiff_t i = 0; i < n; i++) {
        const double *r = rows + i * dim, t = dot(r, v, dim);
        for (ptrdiff_t d = 0; d < dim; d++)
            y[d] += t * r[d];
    }
}

/* power's loop; power runs it built for the baseline target or for AVX-512F. */
INLINE int iterate(const double *rows, ptrdiff_t n, ptrdiff_t dim, double *v, double *y,
                   ptrdiff_t max_iter, double tolerance, ptrdiff_t *iterations)
{
    *iterations = 0;
    while (*iterations < max_iter) {
        ++*iterations;
        gather(rows, n, dim, v, y);
        const double lam = dot(v, y, dim), yy = dot(y, y, dim), norm = sqrt(yy);
        if (!(norm <= DBL_MAX))
            return POWER_NON_FINITE;
        if (yy < DBL_MIN) /* zero, or subnormal: |y| would not be exact enough */
            return POWER_ZERO;
        for (ptrdiff_t d = 0; d < dim; d++) /* v holds y - lam v for a moment */
            v[d] = y[d] - lam * v[d];
        const double residual = sqrt(dot(v, v, dim));
        for (ptrdiff_t d = 0; d < dim; d++)
            v[d] = y[d] / norm;
        if (residual <= tolerance * MAX(lam, DBL_MIN))
            return POWER_CONVERGED;
    }
    return POWER_CAPPED;
}

#ifdef AVX512F_BUILD
__attribute__((target("avx512f"))) static int
iterate_avx512f(const double *rows, ptrdiff_t n, ptrdiff_t dim, double *v, double *y,
                ptrdiff_t max_iter, double tolerance, ptrdiff_t *iterations)
{
    return iterate(rows, n, dim, v, y, max_iter, tolerance, iterations);
}
#endif

/* Run at most max_iter steps of power iteration on the C-contiguous (n, dim)
   rows from the unit vector v, with y as dim entries of scratch; stop once
   |y - lam v| <= tolerance * max(lam, DBL_MIN). v takes the last step's
   y / |y| and *iterations the steps run. Returns POWER_CONVERGED, or
   POWER_CAPPED after max_iter steps; POWER_ZERO, v untouched, if a step's
   |y|^2 is below DBL_MIN: y is zero (v lies in the rows' nullspace) or so
   small that |y| is inexact (rows near 1e-78 or less); POWER_NON_FINITE if
   a product overflows. */
int power(const double *rows, ptrdiff_t n, ptrdiff_t dim, double *v, double *y,
          ptrdiff_t max_iter, double tolerance, ptrdiff_t *iterations)
{
#ifdef AVX512F_BUILD
    if (__builtin_cpu_supports("avx512f"))
        return iterate_avx512f(rows, n, dim, v, y, max_iter, tolerance, iterations);
#endif
    return iterate(rows, n, dim, v, y, max_iter, tolerance, iterations);
}


/* ---- reconstruct, collect and repair ---- */

/* One window of dict_learn's flat residual buffer: its first sample, and
   the width and plane size (height * width) of its image. */
typedef struct {
    intptr_t start, width, plane;
} Window;

/* x += a * f over the c x fh x fw window at x of an image with the given
   width and plane size; f's taps lie at the element strides fs (channel,
   row, column). One multiply and one add per sample, as numpy's. */
static void add_window(double *x, ptrdiff_t width, ptrdiff_t plane, double a, const double *f,
                       const ptrdiff_t *fs, ptrdiff_t c, ptrdiff_t fh, ptrdiff_t fw)
{
    for (ptrdiff_t ch = 0; ch < c; ch++)
        for (ptrdiff_t r = 0; r < fh; r++) {
            double *row = x + ch * plane + r * width;
            const double *taps = f + ch * fs[0] + r * fs[1];
            for (ptrdiff_t col = 0; col < fw; col++)
                row[col] += a * taps[col * fs[2]];
        }
}

/* Paste the n steps of a code into out, its zeroed (c, h, w) image: each
   step adds coefficient * filter at its position, the steps in order, so
   each sample sums its terms in activation order from +0.0, as np.bincount
   does. The (k, c, fh, fw) bank's taps lie at the element strides bs. */
void reconstruct(const Step *steps, ptrdiff_t n, const double *bank, const ptrdiff_t *bs,
                 ptrdiff_t c, ptrdiff_t fh, ptrdiff_t fw, ptrdiff_t h, ptrdiff_t w, double *out)
{
    for (ptrdiff_t i = 0; i < n; i++)
        add_window(out + steps[i].row * w + steps[i].col, w, h * w, steps[i].coefficient,
                   bank + steps[i].filter_index * bs[0], bs + 1, c, fh, fw);
}

/* Whether each of the n windows, c x fh x fw, lies in a buffer of size
   samples: its image rows hold fw samples, its planes fh rows, and its
   first and last samples are in the buffer. */
static int fit(const Window *windows, ptrdiff_t n, ptrdiff_t size, ptrdiff_t c, ptrdiff_t fh,
               ptrdiff_t fw)
{
    for (ptrdiff_t i = 0; i < n; i++) {
        const Window g = windows[i];
        if (g.start < 0 || g.start > size || g.plane > size || g.width < fw ||
            g.plane / fh < g.width || g.start + (c - 1) * g.plane + (fh - 1) * g.width + fw > size)
            return 0;
    }
    return 1;
}

/* Row i of the (n, c*fh*fw) patches is window i of residual, a buffer of
   size samples, plus coefs[i] * f, in the window's C order; f is a
   C-contiguous filter. Returns -1, writing nothing, if a window does not
   fit the buffer, else 0. */
int collect(const double *residual, ptrdiff_t size, const Window *windows, ptrdiff_t n,
            const double *coefs, const double *f, ptrdiff_t c, ptrdiff_t fh, ptrdiff_t fw,
            double *patches)
{
    if (!fit(windows, n, size, c, fh, fw))
        return -1;
    for (ptrdiff_t i = 0; i < n; i++) {
        const Window g = windows[i];
        const double *tap = f;
        for (ptrdiff_t ch = 0; ch < c; ch++)
            for (ptrdiff_t r = 0; r < fh; r++) {
                const double *row = residual + g.start + ch * g.plane + r * g.width;
                for (ptrdiff_t col = 0; col < fw; col++)
                    *patches++ = row[col] + coefs[i] * *tap++;
            }
    }
    return 0;
}

/* Repair residual, a buffer of size samples, after filter old became new:
   add coefs[i] * old over every window i in order, then subtract
   proj[i] * new over every window in order, as np.add.at and then
   np.subtract.at do; the two passes are not interleaved. r + (-p * t) is
   r - p * t bit for bit. The filters are C-contiguous. Returns -1, writing
   nothing, if a window does not fit the buffer, else 0. */
int repair(double *residual, ptrdiff_t size, const Window *windows, ptrdiff_t n, ptrdiff_t c,
           ptrdiff_t fh, ptrdiff_t fw, const double *coefs, const double *old, const double *proj,
           const double *new)
{
    const ptrdiff_t fs[3] = {fh * fw, fw, 1};
    if (!fit(windows, n, size, c, fh, fw))
        return -1;
    for (ptrdiff_t i = 0; i < n; i++)
        add_window(residual + windows[i].start, windows[i].width, windows[i].plane, coefs[i], old,
                   fs, c, fh, fw);
    for (ptrdiff_t i = 0; i < n; i++)
        add_window(residual + windows[i].start, windows[i].width, windows[i].plane, -proj[i], new,
                   fs, c, fh, fw);
    return 0;
}
