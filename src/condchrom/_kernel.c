/* Compiled twin of _kernel_py.search_coloring, loaded through ctypes by
 * _kernel_c.py. Results (status, coloring, node count) must be identical to
 * the pure kernel's: same DSATUR pick (max distinct neighbour colours, then
 * max degree, then min id), colours tried in ascending order with at most one
 * brand-new colour per step, the same C2 prune and the same node accounting.
 *
 * Before the search the vertices are renumbered by (degree descending, id
 * ascending), and the colouring is mapped back to the caller's ids on FOUND.
 * In that numbering the pick is the lowest-numbered uncoloured vertex among
 * those with the most distinct neighbour colours.
 *
 * The search is iterative: one stack frame (vertex, colour, max_used) per
 * coloured vertex, plus that frame's mask of colours still to try. Colour
 * sets are bitmasks of w = min(k, n)/64 + 1 64-bit words, bit c for colour c.
 * Per vertex u it keeps
 *   cnt[c * n + u]  neighbours of u coloured c,
 *   seen[u]         bit c set when cnt[c * n + u] > 0,
 *   sat[u]          distinct[u], the number of bits in seen[u],
 *   slack[u]        distinct[u] + uncoloured[u] - req[u], never below zero.
 * Colour c is allowed at v unless c is in seen[v] (C1) or in seen[u] for
 * some neighbour u of v with slack[u] == 0 (C2). When v is picked, its
 * allowed colours in 1..limit are computed once into the new frame's mask;
 * the lowest bit is tried and cleared, and a backtrack to the frame takes
 * the next lowest.
 *
 * The pick reads saturation buckets: bucket[d] is a set of vw = ceil(n/64)
 * words holding the uncoloured vertices u with sat[u] == d, for d in
 * 0..min(k, n). A vertex moves to the next bucket up or down only when a
 * colour is first seen around it or no longer seen, leaves its bucket when
 * it is coloured and returns when it is uncoloured. `top` is at least the
 * highest non-empty level; the pick walks it down to a non-empty bucket and
 * takes the lowest vertex there.
 */

#include <stdint.h>
#include <stdlib.h>

/* The search below is compiled twice, once for w = vw = 1, so its helpers
 * must be inlined for the word loops to fold away. */
#define INLINE static inline __attribute__((always_inline))

enum { FOUND = 0, NONE = 1, BUDGET = 2, NOMEM = -1 };

typedef struct {
    int32_t v, c, max_used;
} frame_t;

typedef struct {
    int64_t n;
    const int32_t *indptr, *indices;
    int32_t *color, *cnt, *sat, top;
    uint64_t *seen, *bucket, *rest;
    int64_t *slack;
    frame_t *stack;
} state_t;

/* The lowest uncoloured vertex in the highest non-empty bucket. At least one
 * vertex is uncoloured. */
INLINE int32_t pick(state_t *s, int64_t vw)
{
    for (;; s->top--) {
        const uint64_t *b = s->bucket + s->top * vw;
        for (int64_t j = 0; j < vw; j++)
            if (b[j])
                return (int32_t)(64 * j) + __builtin_ctzll(b[j]);
    }
}

/* mask = the colours in 1..limit allowed at v. */
INLINE void allowed(const state_t *s, int32_t v, int32_t limit, uint64_t *mask,
                    int64_t w)
{
    const uint64_t *sv = s->seen + v * w;
    for (int64_t j = 0; j < w; j++) {
        int64_t top = limit - 64 * j; /* highest wanted bit in word j */
        uint64_t m = top < 0 ? 0 : top >= 63 ? ~(uint64_t)0 : ((uint64_t)2 << top) - 1;
        mask[j] = (j ? m : m & ~(uint64_t)1) & ~sv[j];
    }
    for (int32_t i = s->indptr[v]; i < s->indptr[v + 1]; i++) {
        int32_t u = s->indices[i];
        if (s->slack[u])
            continue;
        const uint64_t *su = s->seen + u * w;
        for (int64_t j = 0; j < w; j++)
            mask[j] &= ~su[j];
    }
}

/* Remove and return the lowest colour in mask; 0 if it is empty. */
INLINE int32_t take_lowest(uint64_t *mask, int64_t w)
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

/* Flip u's membership of bucket d. */
INLINE void flip(state_t *s, int32_t d, int32_t u, int64_t vw)
{
    s->bucket[d * vw + u / 64] ^= (uint64_t)1 << (u % 64);
}

/* Change v's colour from b to c, where colour 0 means uncoloured. One pass
 * over v's neighbours serves a colouring (b = 0), an uncolouring (c = 0) and
 * a backtrack straight to v's next colour. */
INLINE void recolour(state_t *s, int32_t v, int32_t b, int32_t c, int64_t w,
                     int64_t vw)
{
    int32_t *cb = s->cnt + b * s->n, *cc = s->cnt + c * s->n;
    uint64_t *seenb = s->seen + b / 64, bitb = (uint64_t)1 << (b % 64);
    uint64_t *seenc = s->seen + c / 64, bitc = (uint64_t)1 << (c % 64);
    s->color[v] = c;
    if (!b || !c) {
        flip(s, s->sat[v], v, vw);
        if (!c && s->sat[v] > s->top)
            s->top = s->sat[v];
    }
    for (int32_t i = s->indptr[v]; i < s->indptr[v + 1]; i++) {
        int32_t u = s->indices[i], d = s->sat[u], e = d;
        if (b) {
            if (--cb[u]) {
                s->slack[u]++;
            } else {
                seenb[u * w] &= ~bitb;
                e--;
            }
        }
        if (c) {
            if (cc[u]++) {
                s->slack[u]--;
            } else {
                seenc[u * w] |= bitc;
                e++;
            }
        }
        if (e != d) {
            s->sat[u] = e;
            if (!s->color[u]) {
                flip(s, d, u, vw);
                flip(s, e, u, vw);
                if (e > s->top)
                    s->top = e;
            }
        }
    }
}

/* The search over the renumbered graph. Returns FOUND, NONE or BUDGET and
 * stores the node count in *nodes. */
INLINE int search(state_t *s, int32_t kk, int64_t budget, int64_t *nodes,
                  int64_t w, int64_t vw)
{
    int32_t depth = 0, max_used = 0;
    int64_t count = 0;
    int status;
    for (;;) {
        /* Expand a new node. */
        count++;
        if (budget && count > budget) {
            status = BUDGET;
            break;
        }
        if (depth == s->n) {
            status = FOUND;
            break;
        }
        int32_t v = pick(s, vw), from = 0;
        uint64_t *rest = s->rest + depth * w;
        allowed(s, v, max_used < kk ? max_used + 1 : kk, rest, w);
        int32_t c = take_lowest(rest, w);
        /* Backtrack while no colour is left. */
        while (!c) {
            if (!depth) {
                status = NONE;
                goto done;
            }
            frame_t f = s->stack[--depth];
            v = f.v;
            max_used = f.max_used;
            c = take_lowest(s->rest + depth * w, w);
            if (c)
                from = f.c;
            else
                recolour(s, v, f.c, 0, w, vw);
        }
        s->stack[depth++] = (frame_t){v, c, max_used};
        recolour(s, v, from, c, w, vw);
        if (c > max_used)
            max_used = c;
    }
done:
    *nodes = count;
    return status;
}

/* Neighbours of v are indices[indptr[v] .. indptr[v+1]-1], all in [0, n),
 * none repeated and none equal to v. On FOUND, color[0..n-1] holds colours
 * in 1..k. Returns the status, or NOMEM when an allocation fails; *nodes
 * receives the node count. */
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
    int64_t w = kk / 64 + 1, vw = (n + 63) / 64, m = indptr[n];

    state_t s = {.n = n, .top = 0};
    int32_t *order = malloc((size_t)n * sizeof(int32_t)); /* new id -> old */
    int32_t *rank = calloc((size_t)n + 1, sizeof(int32_t)); /* old id -> new */
    int32_t *ptr = malloc(((size_t)n + 1) * sizeof(int32_t));
    int32_t *idx = malloc(((size_t)m + 1) * sizeof(int32_t));
    s.color = calloc((size_t)n, sizeof(int32_t));
    s.sat = calloc((size_t)n, sizeof(int32_t));
    s.cnt = calloc((size_t)(kk + 1) * (size_t)n, sizeof(int32_t));
    s.seen = calloc((size_t)n * (size_t)w, sizeof(uint64_t));
    s.bucket = calloc((size_t)(kk + 1) * (size_t)vw, sizeof(uint64_t));
    s.rest = malloc((size_t)n * (size_t)w * sizeof(uint64_t));
    s.slack = malloc((size_t)n * sizeof(int64_t));
    s.stack = malloc((size_t)n * sizeof(frame_t));
    int status = NOMEM;
    if (!order || !rank || !ptr || !idx || !s.color || !s.sat || !s.cnt ||
        !s.seen || !s.bucket || !s.rest || !s.slack || !s.stack)
        goto out;

    /* Counting sort on the key n-1-degree, which is in 0..n-1 because the
     * graph is simple. rank[key+1] counts the key, the prefix sums make
     * rank[key] the first new id of that key, and then rank is inverted. */
    for (int32_t v = 0; v < n; v++)
        rank[n - (indptr[v + 1] - indptr[v])]++;
    for (int32_t d = 1; d < n; d++)
        rank[d] += rank[d - 1];
    for (int32_t v = 0; v < n; v++)
        order[rank[n - 1 - (indptr[v + 1] - indptr[v])]++] = v;
    for (int32_t i = 0; i < n; i++)
        rank[order[i]] = i;
    ptr[0] = 0;
    for (int32_t i = 0; i < n; i++) {
        int32_t v = order[i], deg = indptr[v + 1] - indptr[v];
        for (int32_t j = 0; j < deg; j++)
            idx[ptr[i] + j] = rank[indices[indptr[v] + j]];
        ptr[i + 1] = ptr[i] + deg;
        s.slack[i] = deg - req[v];
        flip(&s, 0, i, vw);
    }
    s.indptr = ptr;
    s.indices = idx;

    status = w == 1 && vw == 1 ? search(&s, kk, budget, nodes, 1, 1)
                               : search(&s, kk, budget, nodes, w, vw);
    if (status == FOUND)
        for (int32_t i = 0; i < n; i++)
            color[order[i]] = s.color[i];
out:
    free(order);
    free(rank);
    free(ptr);
    free(idx);
    free(s.color);
    free(s.sat);
    free(s.cnt);
    free(s.seen);
    free(s.bucket);
    free(s.rest);
    free(s.slack);
    free(s.stack);
    return status;
}
