/* Compiled twin of _kernel_py.search_coloring, loaded through ctypes by
 * _kernel_c.py. Results (status, coloring, node count) must be identical to
 * the pure kernel's: same DSATUR pick (max distinct neighbour colours, then
 * max degree, then min id), colours tried in ascending order with at most one
 * brand-new colour per step, the same C2 prune and the same node accounting.
 *
 * The search is iterative: one stack frame (vertex, colour, max_used) per
 * coloured vertex, plus that frame's mask of colours still to try. Colour
 * sets are bitmasks of W = min(k, n)/64 + 1 64-bit words, bit c for colour c.
 * Per vertex u it keeps
 *   cnt[c * n + u]  neighbours of u coloured c,
 *   seen[u]         bit c set when cnt[c * n + u] > 0, so distinct[u] is
 *                   its popcount,
 *   slack[u]        distinct[u] + uncoloured[u] - req[u], never below zero,
 *   score[u]        distinct[u] * n + deg[u], sunk below zero once u is
 *                   coloured.
 * Colour c is allowed at v unless c is in seen[v] (C1) or in seen[u] for
 * some neighbour u of v with slack[u] == 0 (C2). When v is picked, its
 * allowed colours in 1..limit are computed once into the new frame's mask;
 * the lowest bit is tried and cleared, and a backtrack to the frame takes
 * the next lowest. The pick is two passes over score: a max reduction, then
 * a scan for the first vertex holding the max.
 */

#include <stdint.h>
#include <stdlib.h>

enum { FOUND = 0, NONE = 1, BUDGET = 2, NOMEM = -1 };

typedef struct {
    int32_t v, c, max_used;
} frame_t;

typedef struct {
    int64_t n, w;
    const int32_t *indptr, *indices;
    int32_t *color, *cnt;
    uint64_t *seen;
    int64_t *slack, *score, sunk;
} state_t;

/* Highest score, ties to the lowest id. */
static int32_t pick(const state_t *s)
{
    int64_t best = s->score[0];
    for (int64_t i = 1; i < s->n; i++)
        best = s->score[i] > best ? s->score[i] : best;
    int32_t v = 0;
    while (s->score[v] != best)
        v++;
    return v;
}

/* mask = the colours in 1..limit allowed at v. */
static void allowed(const state_t *s, int32_t v, int32_t limit, uint64_t *mask)
{
    const uint64_t *sv = s->seen + v * s->w;
    for (int64_t j = 0; j < s->w; j++) {
        int64_t top = limit - 64 * j; /* highest wanted bit in word j */
        uint64_t m = top < 0 ? 0 : top >= 63 ? ~(uint64_t)0 : ((uint64_t)2 << top) - 1;
        mask[j] = (j ? m : m & ~(uint64_t)1) & ~sv[j];
    }
    for (int32_t i = s->indptr[v]; i < s->indptr[v + 1]; i++) {
        int32_t u = s->indices[i];
        if (s->slack[u])
            continue;
        const uint64_t *su = s->seen + u * s->w;
        for (int64_t j = 0; j < s->w; j++)
            mask[j] &= ~su[j];
    }
}

/* Remove and return the lowest colour in mask; 0 if it is empty. */
static int32_t take_lowest(uint64_t *mask, int64_t w)
{
    for (int64_t j = 0; j < w; j++) {
        if (mask[j]) {
            int32_t c = (int32_t)(64 * j) + __builtin_ctzll(mask[j]);
            mask[j] &= mask[j] - 1;
            return c;
        }
    }
    return 0;
}

static void assign(state_t *s, int32_t v, int32_t c)
{
    int32_t *cc = s->cnt + (int64_t)c * s->n;
    uint64_t bit = (uint64_t)1 << (c % 64);
    int64_t word = c / 64;
    s->color[v] = c;
    s->score[v] -= s->sunk;
    for (int32_t i = s->indptr[v]; i < s->indptr[v + 1]; i++) {
        int32_t u = s->indices[i];
        if (cc[u]) {
            s->slack[u]--;
        } else {
            s->seen[u * s->w + word] |= bit;
            s->score[u] += s->n;
        }
        cc[u]++;
    }
}

static void unassign(state_t *s, int32_t v, int32_t c)
{
    int32_t *cc = s->cnt + (int64_t)c * s->n;
    uint64_t bit = (uint64_t)1 << (c % 64);
    int64_t word = c / 64;
    s->color[v] = 0;
    s->score[v] += s->sunk;
    for (int32_t i = s->indptr[v]; i < s->indptr[v + 1]; i++) {
        int32_t u = s->indices[i];
        if (--cc[u]) {
            s->slack[u]++;
        } else {
            s->seen[u * s->w + word] &= ~bit;
            s->score[u] -= s->n;
        }
    }
}

/* Neighbours of v are indices[indptr[v] .. indptr[v+1]-1], all in [0, n).
 * On FOUND, color[0..n-1] holds colours in 1..k. Returns the status, or
 * NOMEM when an allocation fails; *nodes receives the node count. */
int condchrom_search(int32_t n, const int32_t *indptr, const int32_t *indices,
                     const int64_t *req, int64_t k, int64_t budget,
                     int32_t *color, int64_t *nodes)
{
    *nodes = 0;
    if (n == 0)
        return FOUND;
    if (k < 1)
        return NONE;
    /* A vertex's neighbours avoid its own colour, so at most k-1 distinct
     * colours can ever appear around it. */
    for (int32_t v = 0; v < n; v++)
        if (req[v] > k - 1)
            return NONE;
    /* Colours above n are never reached: a new colour needs a new vertex. */
    int32_t kk = k < n ? (int32_t)k : n;
    int64_t w = kk / 64 + 1;

    state_t s = {.n = n, .w = w, .indptr = indptr, .indices = indices,
                 .color = color, .sunk = (int64_t)n * (kk + 2)};
    s.cnt = calloc((size_t)(kk + 1) * (size_t)n, sizeof(int32_t));
    s.seen = calloc((size_t)n * (size_t)w, sizeof(uint64_t));
    s.slack = malloc((size_t)n * sizeof(int64_t));
    s.score = malloc((size_t)n * sizeof(int64_t));
    frame_t *stack = malloc((size_t)n * sizeof(frame_t));
    uint64_t *rest = malloc((size_t)n * (size_t)w * sizeof(uint64_t));
    int status = NOMEM;
    if (!s.cnt || !s.seen || !s.slack || !s.score || !stack || !rest)
        goto out;
    for (int32_t v = 0; v < n; v++) {
        int64_t deg = indptr[v + 1] - indptr[v];
        color[v] = 0;
        s.slack[v] = deg - req[v];
        s.score[v] = deg;
    }

    int32_t depth = 0, max_used = 0;
    int64_t count = 0;
    for (;;) {
        /* Expand a new node. */
        count++;
        if (budget && count > budget) {
            status = BUDGET;
            break;
        }
        if (depth == n) {
            status = FOUND;
            break;
        }
        int32_t v = pick(&s);
        allowed(&s, v, max_used < kk ? max_used + 1 : kk, rest + depth * w);
        int32_t c = take_lowest(rest + depth * w, w);
        /* Backtrack while no colour is left. */
        while (!c) {
            if (!depth) {
                status = NONE;
                goto done;
            }
            frame_t f = stack[--depth];
            v = f.v;
            max_used = f.max_used;
            unassign(&s, v, f.c);
            c = take_lowest(rest + depth * w, w);
        }
        stack[depth++] = (frame_t){v, c, max_used};
        assign(&s, v, c);
        if (c > max_used)
            max_used = c;
    }
done:
    *nodes = count;
out:
    free(s.cnt);
    free(s.seen);
    free(s.slack);
    free(s.score);
    free(stack);
    free(rest);
    return status;
}
