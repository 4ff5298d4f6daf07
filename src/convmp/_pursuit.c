/* The pursuit loop of conv_mp.greedy_steps, run over a per-tile max cache.

Each map is cut into TH x TW tiles (the last row and column of tiles may be
short). For every tile the cache holds its peak: the largest magnitude and
where it first occurs in row-major order. Each (filter, tile row) also holds
the best peak of its tiles, so a step's argmax reads k * tile-rows entries,
not the maps. A tile can be stale instead: its entry is then only an upper
bound, and the tile is rescanned when that bound reaches the top of the
argmax. Every tile starts stale, with its exact peak magnitude, so the first
scan finds no positions; a window update leaves the tiles it did not touch
alone and makes stale a touched tile whose peak it lowered. Most stale tiles
never reach the top, so most steps rescan nothing beyond the window.

The bits are numpy's: the update is m = m - (a * t), two roundings, as
`maps -= a * table[...]` does (build with -ffp-contract=off, so no fused
multiply-add), and the argmax takes the largest |v|, then the lowest flat
position (filter, then row-major), as np.abs(maps).argmax() does. Peaks are
compared by value, then by position, because a later tile of one tile row
can hold an equal peak on an earlier map row; a stale bound wins a tie, so
a tie is never settled by a bound.
*/

#include <math.h>
#include <stddef.h>
#include <stdint.h>
#include <stdlib.h>

#define TH 16
#define TW 32
#define MIN(a, b) ((a) < (b) ? (a) : (b))
#define MAX(a, b) ((a) > (b) ? (a) : (b))

/* A tile's peak, or with r < 0 a stale tile's upper bound; c then names
   the tile column. */
typedef struct {
    double v;
    ptrdiff_t r, c;
} Peak;

/* One step, laid out like core.ACTIVATION (three np.intp, one float64). */
typedef struct {
    intptr_t filter_index, row, col;
    double coefficient;
} Step;

/* A region of one map: rows [r0, r1), columns [c0, c1). */
typedef struct {
    const double *map;
    ptrdiff_t wv, r0, r1, c0, c1;
} Region;

static int beats(Peak a, Peak b)
{
    return a.v > b.v || (a.v == b.v && (a.r < b.r || (a.r == b.r && a.c < b.c)));
}

/* The largest magnitude in the region, on four independent lanes so that
   the compiler can vectorize it; -1 if the region is empty. */
static double top(Region g)
{
    double m0 = -1.0, m1 = -1.0, m2 = -1.0, m3 = -1.0;
    for (ptrdiff_t r = g.r0; r < g.r1; r++) {
        const double *row = g.map + r * g.wv;
        ptrdiff_t c = g.c0;
        for (; c + 4 <= g.c1; c += 4) {
            double v0 = fabs(row[c]), v1 = fabs(row[c + 1]);
            double v2 = fabs(row[c + 2]), v3 = fabs(row[c + 3]);
            m0 = v0 > m0 ? v0 : m0;
            m1 = v1 > m1 ? v1 : m1;
            m2 = v2 > m2 ? v2 : m2;
            m3 = v3 > m3 ? v3 : m3;
        }
        for (; c < g.c1; c++) {
            double v = fabs(row[c]);
            m0 = v > m0 ? v : m0;
        }
    }
    m0 = m1 > m0 ? m1 : m0;
    m2 = m3 > m2 ? m3 : m2;
    return m2 > m0 ? m2 : m0;
}

/* The first entry of the region, row-major, whose magnitude is v. */
static Peak locate(Region g, double v)
{
    for (ptrdiff_t r = g.r0; r < g.r1; r++)
        for (ptrdiff_t c = g.c0; c < g.c1; c++)
            if (fabs(g.map[r * g.wv + c]) == v)
                return (Peak){v, r, c};
    return (Peak){v, g.r0, g.c0}; /* not reached for a v from top(g) */
}

static Peak scan(Region g) { return locate(g, top(g)); }

/* The tile at tile row ty, tile column tx of a map. */
static Region tile(const double *map, ptrdiff_t hv, ptrdiff_t wv, ptrdiff_t ty, ptrdiff_t tx)
{
    return (Region){map, wv, ty * TH, MIN(hv, ty * TH + TH), tx * TW, MIN(wv, tx * TW + TW)};
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

/* Run at most max_steps pursuit steps on the C-contiguous (k, hv, wv) maps,
   in place, with the C-contiguous (k, k, 2fh-1, 2fw-1) shift table; stop
   early once the peak magnitude is at most tolerance. Writes the steps to
   out and returns their count, or -1 if the cache cannot be allocated. The
   maps must be finite. */
ptrdiff_t pursue(double *maps, ptrdiff_t k, ptrdiff_t hv, ptrdiff_t wv, const double *table,
                 ptrdiff_t fh, ptrdiff_t fw, ptrdiff_t max_steps, double tolerance, Step *out)
{
    const ptrdiff_t th = 2 * fh - 1, tw = 2 * fw - 1, area = hv * wv;
    const ptrdiff_t nty = (hv + TH - 1) / TH, ntx = (wv + TW - 1) / TW;
    if (k * area == 0 || max_steps <= 0)
        return 0;
    /* tiles[(j * nty + ty) * ntx + tx]; rows[j * nty + ty] the best of a tile row */
    Peak *tiles = malloc(sizeof(Peak) * k * nty * ntx);
    Peak *rows = malloc(sizeof(Peak) * k * nty);
    if (!tiles || !rows) {
        free(tiles);
        free(rows);
        return -1;
    }
    /* every tile starts stale, with its exact peak magnitude as the bound */
    for (ptrdiff_t i = 0; i < k * nty; i++) {
        const double *map = maps + i / nty * area;
        for (ptrdiff_t tx = 0; tx < ntx; tx++)
            tiles[i * ntx + tx] = (Peak){top(tile(map, hv, wv, i % nty, tx)), -1, tx};
        rows[i] = best_of(tiles + i * ntx, ntx);
    }
    ptrdiff_t n = 0;
    for (; n < max_steps; n++) {
        /* the first tile row holding the top value; rescan it while its best is stale */
        ptrdiff_t bi;
        for (;;) {
            bi = 0;
            double v = rows[0].v;
            for (ptrdiff_t i = 1; i < k * nty; i++)
                if (rows[i].v > v) {
                    v = rows[i].v;
                    bi = i;
                }
            if (rows[bi].r >= 0)
                break;
            const ptrdiff_t tx = rows[bi].c;
            tiles[bi * ntx + tx] = scan(tile(maps + bi / nty * area, hv, wv, bi % nty, tx));
            rows[bi] = best_of(tiles + bi * ntx, ntx);
        }
        const ptrdiff_t j = bi / nty, pr = rows[bi].r, pc = rows[bi].c;
        const double a = maps[j * area + pr * wv + pc];
        if (fabs(a) <= tolerance)
            break;
        out[n] = (Step){j, pr, pc, a};
        const ptrdiff_t r0 = MAX(0, pr - fh + 1), r1 = MIN(hv, pr + fh);
        const ptrdiff_t c0 = MAX(0, pc - fw + 1), c1 = MIN(wv, pc + fw);
        for (ptrdiff_t i = 0; i < k; i++) {
            double *map = maps + i * area;
            /* table[j, i] from the window's first row and column */
            const double *t = table + ((j * k + i) * th + r0 - pr + fh - 1) * tw + c0 - pc + fw - 1;
            for (ptrdiff_t r = r0; r < r1; r++, t += tw)
                for (ptrdiff_t c = c0; c < c1; c++)
                    map[r * wv + c] = map[r * wv + c] - a * t[c - c0];
            for (ptrdiff_t ty = r0 / TH; ty <= (r1 - 1) / TH; ty++) {
                Peak *p = tiles + (i * nty + ty) * ntx;
                for (ptrdiff_t tx = c0 / TW; tx <= (c1 - 1) / TW; tx++) {
                    const Region g = tile(map, hv, wv, ty, tx);
                    const Region u = {map, wv, MAX(r0, g.r0), MIN(r1, g.r1), MAX(c0, g.c0),
                                      MIN(c1, g.c1)};
                    const double v = top(u);
                    if (p[tx].r < 0) {
                        p[tx].v = MAX(p[tx].v, v);
                    } else if (v > p[tx].v || (v == p[tx].v && beats(locate(u, v), p[tx]))) {
                        p[tx] = locate(u, v);
                    } else if (p[tx].r >= u.r0 && p[tx].r < u.r1 && p[tx].c >= u.c0 &&
                               p[tx].c < u.c1) {
                        p[tx] = (Peak){p[tx].v, -1, tx}; /* updated and no longer the peak */
                    }
                }
                rows[i * nty + ty] = best_of(p, ntx);
            }
        }
    }
    free(tiles);
    free(rows);
    return n;
}
