/* Compiled twin of _kernel_py.search_coloring, loaded through ctypes by
 * _kernel_c.py. Results (status, coloring, node count) must be identical to
 * the pure kernel's: same DSATUR pick (max distinct neighbour colours, then
 * max degree, then min id), colours tried in ascending order with at most one
 * brand-new colour per step, the same C2 prune and the same node accounting.
 *
 * The search is iterative: one stack frame (vertex, colour, max_used) per
 * coloured vertex. Per vertex u it keeps
 *   cnt[c * n + u]  neighbours of u coloured c,
 *   slack[u]        distinct[u] + uncoloured[u] - req[u],
 *   score[u]        distinct[u] * n + deg[u], sunk below zero once u is
 *                   coloured.
 * Colour c is allowed at v unless a neighbour of v has it (C1) or some
 * neighbour u of v with slack[u] == 0 already sees it (C2).
 */

#include <stdint.h>
#include <stdlib.h>

enum { FOUND = 0, NONE = 1, BUDGET = 2, NOMEM = -1 };

typedef struct {
    int32_t v, c, max_used;
} frame_t;

typedef struct {
    int64_t n;
    const int32_t *indptr, *indices;
    int32_t *color, *cnt;
    int64_t *slack, *score, sunk;
} state_t;

/* Lowest allowed colour at v above `after`, up to `limit`; 0 if none. */
static int32_t next_color(const state_t *s, int32_t v, int32_t after, int32_t limit)
{
    for (int32_t c = after + 1; c <= limit; c++) {
        const int32_t *cc = s->cnt + (int64_t)c * s->n;
        if (cc[v])
            continue;
        int32_t i = s->indptr[v], end = s->indptr[v + 1];
        for (; i < end; i++) {
            int32_t u = s->indices[i];
            if (s->slack[u] == 0 && cc[u])
                break;
        }
        if (i == end)
            return c;
    }
    return 0;
}

static void assign(state_t *s, int32_t v, int32_t c)
{
    int32_t *cc = s->cnt + (int64_t)c * s->n;
    s->color[v] = c;
    s->score[v] -= s->sunk;
    for (int32_t i = s->indptr[v]; i < s->indptr[v + 1]; i++) {
        int32_t u = s->indices[i];
        if (cc[u])
            s->slack[u]--;
        else
            s->score[u] += s->n;
        cc[u]++;
    }
}

static void unassign(state_t *s, int32_t v, int32_t c)
{
    int32_t *cc = s->cnt + (int64_t)c * s->n;
    s->color[v] = 0;
    s->score[v] += s->sunk;
    for (int32_t i = s->indptr[v]; i < s->indptr[v + 1]; i++) {
        int32_t u = s->indices[i];
        if (--cc[u])
            s->slack[u]++;
        else
            s->score[u] -= s->n;
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

    state_t s = {.n = n, .indptr = indptr, .indices = indices, .color = color,
                 .sunk = (int64_t)n * (kk + 2)};
    s.cnt = calloc((size_t)(kk + 1) * (size_t)n, sizeof(int32_t));
    s.slack = malloc((size_t)n * sizeof(int64_t));
    s.score = malloc((size_t)n * sizeof(int64_t));
    frame_t *stack = malloc((size_t)n * sizeof(frame_t));
    int status = NOMEM;
    if (!s.cnt || !s.slack || !s.score || !stack)
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
        int32_t v = 0;
        for (int32_t i = 1; i < n; i++)
            if (s.score[i] > s.score[v])
                v = i;
        int32_t c = next_color(&s, v, 0, max_used < kk ? max_used + 1 : kk);
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
            c = next_color(&s, v, f.c, max_used < kk ? max_used + 1 : kk);
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
    free(s.slack);
    free(s.score);
    free(stack);
    return status;
}
