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
 * sets are bitmasks of w = min(k, n)/64 + 1 64-bit words, bit c for colour
 * c, and vertex sets bitmasks of vw = ceil(n/64) words, bit u for vertex u.
 * Per vertex u it keeps
 *   seen[u]         bit c set when a neighbour of u is coloured c,
 * and, as its state's layout below keeps them,
 *   sat[u]          distinct[u], the number of bits in seen[u],
 *   slack[u]        distinct[u] + uncoloured[u] - req[u], never below 0.
 * Colour c is allowed at v unless c is in seen[v] (C1) or in seen[u] for
 * some neighbour u of v with slack[u] == 0 (C2). When v is picked, its
 * allowed colours in 1..limit are computed once into the new frame's mask;
 * the lowest bit is tried and cleared, and a backtrack to the frame takes
 * the next lowest.
 *
 * The rest of the state comes in two layouts, chosen by n and k alone:
 *   - The word state, for n <= 64 and kk = min(k, n) <= 63, which is
 *     w = vw = 1. It keeps the neighbours nb[v] of each vertex as one word,
 *     and nb2[v], the other vertices that share a neighbour with v; per
 *     colour c, cls[c], the vertices coloured c, and nz[c], the vertices
 *     with a neighbour coloured c; and unc, the uncoloured vertices.
 *     Recolouring v from b to c, the vertices that newly see c are
 *     nb[v] & ~nz[c], and those that no longer see b are the ones of nb[v]
 *     outside the OR of nb[x] over x in cls[b] & nb2[v], the only other
 *     vertices coloured b that can reach them. Only these change seen and
 *     sat; the slack of the rest of nb[v] moves by one.
 *     sat and slack are bit-sliced into planes p = 0..5: bit u of sp[p] is
 *     bit p of sat[u], and bit u of kp[p] is bit p of slack[u]. A sat is at
 *     most kk and a slack at most a degree, so neither passes 63, and only
 *     the planes below P, the bit length of kk, and below the bit length of
 *     the highest slack are ever set. Moving a set of vertices one level up
 *     or down is a ripple carry (or borrow) through the planes that stops
 *     once no vertex carries, so a recolouring costs a few word operations
 *     however many neighbours it moves. The vertices with slack 0 are
 *     ~(kp[0] | ... | kp[5]), and the C2 test reads seen[u] only for those
 *     in nb[v]. The pick starts from unc and, from the top plane down,
 *     keeps the vertices in sp[p] whenever one is; the lowest vertex left
 *     is the pick.
 *   - The counter state, for every other search. It keeps
 *     cnt[c * n + u], the neighbours of u coloured c, and sat and slack as
 *     one counter per vertex, and a recolouring updates the counters, seen,
 *     sat and slack of each neighbour in turn. Its pick reads saturation
 *     buckets: bucket[d] is the set of uncoloured vertices u with
 *     sat[u] == d, for d in 0..kk. A vertex moves to the next bucket up or
 *     down only when a colour is first seen around it or no longer seen,
 *     leaves its bucket when it is coloured and returns when it is
 *     uncoloured. `top` is at least the highest non-empty level; the pick
 *     walks it down to a non-empty bucket and takes the lowest vertex
 *     there.
 * All of this state is a function of the colouring alone, so colouring the
 * frames of a path in any way rebuilds it.
 *
 * Parallel search. One call runs on up to `threads` threads and returns
 * exactly what the serial search returns, whatever the timing:
 *   - A piece is a prefix of frames, a root frame (vertex, max_used) and the
 *     mask of colours still to try there; its nodes are the subtrees of
 *     those colours. The whole tree is the piece with an empty prefix, whose
 *     root frame is the root vertex, and whose count starts at 1 for the
 *     root node. A worker searches a piece after colouring its prefix; the
 *     piece ends when the search backtracks to its end depth, at first the
 *     root frame's.
 *   - The calling thread searches alone until it has expanded spawn_after
 *     nodes, so small searches start no thread. It then starts the helpers.
 *     A worker without a piece counts itself idle and waits, yielding its
 *     CPU a while before it sleeps.
 *   - Every CHECK_EVERY nodes a busy worker looks at the count of idle
 *     workers. When one waits, the busy worker gives it the untried colours
 *     of a frame d of its piece, as a new piece. The donor keeps searching
 *     d's current subtree, so its piece now ends at d. The untried colours
 *     of the frames between its old end and d, if any, become a
 *     continuation piece that ends at the old end: the donor owns it and,
 *     once its piece ends, resumes it in place, with no uncolouring. In
 *     serial (depth-first) order the donor's piece is followed by the new
 *     piece, then the continuation, then the donor's old successor, so the
 *     pieces in order always split the serial node sequence into runs.
 *   - Without a budget, d is the shallowest frame with untried colours, and
 *     there is no continuation. With one, d is the shallowest such frame
 *     whose last finished sibling subtree, as the frame's start counts give
 *     it, had no more nodes than the piece's remaining budget (limit -
 *     count), so that the new piece likely begins inside the budget. A
 *     frame on its first colour, or whose last sibling subtree was partly
 *     given away, does not qualify. When none qualifies, d is the deepest
 *     frame with untried colours, whose piece comes next after the little
 *     left below it, so that an idle worker does not wait.
 *   - A finished piece records its status and count. Walking the pieces in
 *     order with the sum S of the counts before each, the first piece that
 *     finds a colouring (at its count i, S + i <= cap) or whose nodes cross
 *     the budget (S + count > cap) decides the search: FOUND with S + i
 *     nodes, or BUDGET with cap + 1. Every piece after one that can decide
 *     is cut off. If every piece ends with NONE, the result is NONE with the
 *     total count. Each owned piece, running or a continuation, has its own
 *     limit: it stops once its count passes the budget minus the counts of
 *     the finished pieces before it, as it has then crossed the budget,
 *     whatever the pieces still running before it count.
 * When a piece finishes, one pass over the pieces in serial order settles
 * them: the finished pieces at the front are committed and dropped, a
 * finished piece joins a finished one just before it, the first finished
 * piece that may decide cuts off every piece after it, and each owned
 * piece gets its limit. When the finished piece ended NONE, at its end
 * depth, its owner then resumes its next continuation in place; that stops
 * at its first node if it has been cut off. A piece that stopped (FOUND or
 * BUDGET) may decide, so every continuation after it is cut off, and its
 * owner hands them back unsearched. After the pass
 *   - no two finished pieces are adjacent, and a worker owns its running
 *     piece and at most one continuation per depth shallower than that
 *     piece's end, so at most 2 * threads * n pieces are in use under a
 *     budget, and 2 * threads without one, where there is no continuation;
 *   - nothing follows a finished piece that may decide;
 *   - an owned piece in the order has limit >= 0, and a cut piece has limit
 *     -1 until its owner finishes it.
 * Every array is allocated by the calling thread before a helper starts.
 *
 * The end of the file holds condchrom_local_search, the twin of
 * _kernel_py.local_search, which shares nothing with the search above, and
 * condchrom_max_clique, the twin of _kernel_py.max_clique, which shares
 * only the renumbering (by_degree). The clique search works in the same
 * numbering, so a vertex's rank is its new id, and it keeps every
 * neighbour list sorted in it. Its state:
 *   - Frames on an explicit stack, frame d branching on the vertices that
 *     extend cur[0..d-1]. Frame 0 holds every vertex, and frame d + 1 the
 *     neighbours of cur[d] among frame d's candidates, so the candidate
 *     sets are nested and the frames' lists together hold at most n plus
 *     the number of neighbour entries.
 *   - lvl[u], the deepest frame whose candidates still hold u, -1 for none;
 *     nesting makes this one number enough. u is a candidate of the top
 *     frame d when lvl[u] == d. A branch on v that ends drops v to d - 1,
 *     out of frame d; a popped frame hands its candidates back to the frame
 *     below by setting their lvl to it.
 *   - The steps of a frame. Its candidates are coloured greedily in
 *     ascending order, each with the lowest class that none of its
 *     neighbours coloured before it has; those are its neighbours below it
 *     at the frame's level. Their classes are marked in mark[] with a stamp
 *     raised once per coloured vertex, so no mark is ever cleared: a mark
 *     cleared per vertex id would be wrong once the vertex recurs in a
 *     deeper frame. The steps are laid out by (class, id) ascending and
 *     taken from the top, class descending, then id descending.
 *   - The prune of the pure twin: a frame at depth d is popped at the first
 *     step whose class c has d + c <= max(clique size, floor).
 */

#define _POSIX_C_SOURCE 200809L

#include <pthread.h>
#include <sched.h>
#include <signal.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* The search below is compiled twice, once for the word state, so its
 * helpers must be inlined for the choice of state to fold away. */
#define INLINE static inline __attribute__((always_inline))

/* Whether a search with w colour words and vw vertex words keeps the word
 * state. */
#define WORDS(w, vw) ((w) == 1 && (vw) == 1)

/* Relaxed atomic loads and stores, for values that one thread writes under
 * the lock and another reads without it. */
#define LOAD(x) __atomic_load_n(&(x), __ATOMIC_RELAXED)
#define STORE(x, v) __atomic_store_n(&(x), (v), __ATOMIC_RELAXED)

enum { FOUND = 0, NONE = 1, BUDGET = 2, NOMEM = -1, NOT_SIMPLE = -2, OUT_OF_RANGE = -3 };

/* How many nodes a busy worker expands between looks at the idle count, and
 * how many times an idle worker yields its CPU before it sleeps. */
enum { CHECK_EVERY = 256, SPIN = 2000 };

/* Bytes in an aligned pair of cache lines. */
enum { PAIR = 128 };

/* Added to a start count, it makes every size taken from it read as at
 * least UNKNOWN, which is above every remaining budget. */
#define UNKNOWN ((uint64_t)1 << 63)

typedef struct {
    int32_t v, c, max_used;
    uint64_t start; /* the worker's count when v took colour c, plus
                     * UNKNOWN once part of c's subtree is given away */
    uint64_t last;  /* the nodes of the subtree of v's previous colour; at
                     * least UNKNOWN for v's first colour, or when part of
                     * that subtree was given away */
} frame_t;

/* A sat or slack of the word state is at most 63, so 6 bit planes hold it. */
enum { PLANES = 6 };

typedef struct {
    int64_t n;
    const int32_t *indptr, *indices;
    int32_t *color;
    uint64_t *seen, *rest;
    frame_t *stack;
    void *block; /* holds every array pointed to here but indptr, indices,
                  * nb, nb2 */
    /* Word state only. */
    const uint64_t *nb, *nb2;
    uint64_t *cls, *nz, sp[PLANES], kp[PLANES], unc;
    int32_t nsp, nkp; /* the planes in use: bit lengths of kk and of the
                       * highest slack */
    /* Counter state only. */
    int32_t *cnt, *sat, top;
    uint64_t *bucket;
    int64_t *slack;
} state_t;

struct worker;

typedef struct piece {
    struct piece *next;   /* the next piece in serial order */
    struct piece *resume; /* the continuation its owner resumes after it */
    struct worker *owner; /* the worker searching it or holding it as a
                           * continuation; NULL once finished */
    int32_t end;          /* a continuation's: the depth it ends at */
    int status;           /* once finished: FOUND, NONE or BUDGET */
    int64_t count;        /* once finished: its nodes (up to the colouring) */
    int64_t limit;        /* while owned: it stops once its count passes
                           * this; -1 once it is cut off */
} piece_t;

typedef struct worker {
    state_t s;
    struct shared *sh;
    piece_t *piece;       /* the piece being searched; NULL when idle */
    int32_t v0, m0;       /* a new piece's root frame: vertex and max_used */
    int32_t end;          /* the piece ends on backtracking to this depth */
    int32_t depth;        /* frames coloured when search() starts or ends */
    int64_t base;         /* the worker's count when the piece began */
    int ready;            /* waiting for a piece */
    int running;          /* a helper thread runs this worker */
    pthread_t thread;
    pthread_cond_t wake;
} __attribute__((aligned(PAIR))) worker_t; /* no two share a fetch */

typedef struct shared {
    /* Fixed before the first node. */
    int32_t n, kk, threads;
    int64_t w, vw, cap;
    const int32_t *indptr, *indices, *order;
    const uint64_t *nb, *nb2; /* word state only */
    const int64_t *req;
    int32_t *color; /* the caller's output */
    worker_t *workers; /* workers[0] is the calling thread */
    /* The calling thread's until it sets started; then fixed. */
    int64_t spawn_after;
    int started;
    /* Guarded by lock once started; idle is also read without it. */
    pthread_mutex_t lock;
    piece_t *pieces, *head, *free;
    int64_t committed; /* nodes of the finished pieces dropped from head */
    int32_t idle;      /* workers ready for a piece */
    int stop, status;
    int64_t nodes;
} shared_t;

/* The lowest-numbered uncoloured vertex among those with the highest sat. At
 * least one vertex is uncoloured. */
INLINE int32_t pick(state_t *s, int64_t w, int64_t vw)
{
    if (WORDS(w, vw)) {
        uint64_t cand = s->unc;
        if (!(cand & (cand - 1))) /* a single candidate */
            return __builtin_ctzll(cand);
        for (int32_t p = PLANES; p--;) {
            uint64_t in = cand & s->sp[p];
            cand = in ? in : cand;
        }
        return __builtin_ctzll(cand);
    }
    /* The lowest vertex in the highest non-empty bucket. */
    for (;; s->top--) {
        const uint64_t *b = s->bucket + s->top * vw;
        for (int64_t j = 0; j < vw; j++)
            if (b[j])
                return (int32_t)(64 * j) + __builtin_ctzll(b[j]);
    }
}

/* mask = the colours in 1..limit allowed at v. */
INLINE void allowed(const state_t *s, int32_t v, int32_t limit, uint64_t *mask,
                    int64_t w, int64_t vw)
{
    if (WORDS(w, vw)) { /* limit <= 63, so 2 << limit wraps at worst to 0 */
        uint64_t m = (((uint64_t)2 << limit) - 2) & ~s->seen[v], loose = 0;
        for (int32_t j = 0; j < s->nkp; j++) /* loose: slack above 0 */
            loose |= s->kp[j];
        for (uint64_t z = s->nb[v] & ~loose; z; z &= z - 1)
            m &= ~s->seen[__builtin_ctzll(z)];
        *mask = m;
        return;
    }
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

/* Word state: of the numbers that plane[0..planes-1] bit-slice, add 1 to
 * those of the vertices in up and subtract 1 from those in down, two
 * disjoint sets: a ripple carry and borrow that stops once no vertex carries
 * or borrows. No number leaves 0..2^planes - 1, so none carries out of the
 * top plane or borrows from beyond it; a checked build aborts if one does. */
INLINE void shift(uint64_t *plane, int32_t planes, uint64_t up, uint64_t down)
{
    (void)planes;
    for (int32_t p = 0; up | down; p++) {
#ifdef CONDCHROM_CHECK
        if (p == planes)
            abort();
#endif
        uint64_t x = plane[p];
        plane[p] = x ^ up ^ down;
        up &= x;
        down &= ~x;
    }
}

/* Change v's colour from b to c, where colour 0 means uncoloured. One pass
 * over v's neighbours serves a colouring (b = 0), an uncolouring (c = 0) and
 * a backtrack straight to v's next colour. */
INLINE void recolour(state_t *s, int32_t v, int32_t b, int32_t c, int64_t w,
                     int64_t vw)
{
    s->color[v] = c;
    if (WORDS(w, vw)) {
        /* lost: the neighbours that no longer see b; gain: those that
         * newly see c. A neighbour's saturation moves with what it gains
         * and loses; its slack goes up for still seeing b (inc) and down
         * for having seen c already (dec). */
        uint64_t nbv = s->nb[v], bit = (uint64_t)1 << v, lost = 0, gain = 0,
                 inc = 0, dec = 0, m;
        if (!b || !c)
            s->unc ^= bit;
        if (b) {
            uint64_t keep = 0;
            for (m = (s->cls[b] &= ~bit) & s->nb2[v]; m; m &= m - 1)
                keep |= s->nb[__builtin_ctzll(m)];
            lost = nbv & ~keep;
            s->nz[b] &= ~lost;
            for (m = lost; m; m &= m - 1)
                s->seen[__builtin_ctzll(m)] &= ~((uint64_t)1 << b);
            inc = nbv & ~lost;
        }
        if (c) {
            gain = nbv & ~s->nz[c];
            s->nz[c] |= nbv;
            s->cls[c] |= bit;
            for (m = gain; m; m &= m - 1)
                s->seen[__builtin_ctzll(m)] |= (uint64_t)1 << c;
            dec = nbv & ~gain;
        }
        shift(s->sp, s->nsp, gain & ~lost, lost & ~gain);
        shift(s->kp, s->nkp, inc & ~dec, dec & ~inc);
        return;
    }
    if (!b || !c) {
        flip(s, s->sat[v], v, vw);
        if (!c && s->sat[v] > s->top)
            s->top = s->sat[v];
    }
    int32_t *cb = s->cnt + b * s->n, *cc = s->cnt + c * s->n;
    uint64_t *seenb = s->seen + b / 64, bitb = (uint64_t)1 << (b % 64);
    uint64_t *seenc = s->seen + c / 64, bitc = (uint64_t)1 << (c % 64);
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

/* Colour frames 0..depth-1 of s's stack in order, or uncolour them in
 * reverse order. */
static void walk(state_t *s, int32_t depth, int colour, int64_t w, int64_t vw)
{
    for (int32_t i = 0; i < depth; i++) {
        const frame_t *f = s->stack + (colour ? i : depth - 1 - i);
        recolour(s, f->v, colour ? 0 : f->c, colour ? f->c : 0, w, vw);
    }
}

/* Bytes of an array of n items of `size` bytes, rounded up to whole cache
 * lines so that no two workers' arrays share one. */
static size_t lines(size_t n, size_t size)
{
    return (n * size + 63) / 64 * 64;
}

/* A zeroed block of `size` bytes on a PAIR boundary, with PAIR bytes to
 * spare after it, or NULL. Processors fetch cache lines in aligned pairs,
 * so no two such blocks, one thread's memory each, share a fetch. */
static void *zalloc_lines(size_t size)
{
    void *p;
    return posix_memalign(&p, PAIR, size + PAIR) ? NULL : memset(p, 0, size);
}

/* Vertex i's slack with nothing coloured: its degree less its requirement.
 * A requirement below 0 prunes no more than 0 does: either way the slack of
 * a vertex with a neighbour stays above 0, and that of a vertex without one
 * is never read. Clamping keeps d - req in range. */
static int64_t initial_slack(const shared_t *sh, int32_t i)
{
    int64_t req = sh->req[sh->order[i]];
    return sh->indptr[i + 1] - sh->indptr[i] - (req < 0 ? 0 : req);
}

/* Allocate s for sh's renumbered graph, every vertex uncoloured, in one
 * cache-aligned block. Returns 0 when the allocation fails. */
static int state_init(state_t *s, const shared_t *sh)
{
    size_t n = (size_t)sh->n, w = (size_t)sh->w, kk = (size_t)sh->kk;
    int words = WORDS(sh->w, sh->vw);
    size_t ints = lines(n, sizeof(int32_t)),
           colours = words ? lines(2 * (kk + 1), sizeof(uint64_t))
                           : lines((kk + 1) * n, sizeof(int32_t)),
           masks = lines(n * w, sizeof(uint64_t)), stack = lines(n, sizeof(frame_t)),
           bucket = lines((kk + 1) * (size_t)sh->vw, sizeof(uint64_t)),
           counters = words ? 0 : ints + bucket + lines(n, sizeof(int64_t)),
           size = ints + colours + 2 * masks + stack + counters;
    *s = (state_t){.n = sh->n, .indptr = sh->indptr, .indices = sh->indices,
                   .nb = sh->nb, .nb2 = sh->nb2, .block = zalloc_lines(size)};
    char *p = s->block;
    if (!p)
        return 0;
    s->color = (int32_t *)p;
    if (words) {
        s->cls = (uint64_t *)(p += ints);
        s->nz = s->cls + kk + 1;
    } else {
        s->cnt = (int32_t *)(p += ints);
    }
    s->seen = (uint64_t *)(p += colours);
    s->rest = (uint64_t *)(p += masks);
    s->stack = (frame_t *)(p += masks);
    if (words) {
        while (kk >> s->nsp)
            s->nsp++;
        for (int32_t i = 0; i < sh->n; i++) {
            int64_t slack = initial_slack(sh, i);
            for (int j = 0; j < PLANES; j++)
                s->kp[j] |= (uint64_t)(slack >> j & 1) << i;
            while (slack >> s->nkp)
                s->nkp++;
            s->unc |= (uint64_t)1 << i;
        }
        return 1;
    }
    s->sat = (int32_t *)(p += stack);
    s->bucket = (uint64_t *)(p += ints);
    s->slack = (int64_t *)(p + bucket);
    for (int32_t i = 0; i < sh->n; i++) {
        s->slack[i] = initial_slack(sh, i);
        flip(s, 0, i, sh->vw);
    }
    return 1;
}

/* Write s's colouring to the caller's output, in the caller's ids. */
static void report(const shared_t *sh, const state_t *s)
{
    for (int32_t i = 0; i < sh->n; i++)
        sh->color[sh->order[i]] = s->color[i];
}

/* Put piece x back on the free list. */
static void release(shared_t *sh, piece_t *x)
{
    x->next = sh->free;
    sh->free = x;
}

/* A piece from the free list, which the pool's size keeps from running
 * dry. */
static piece_t *fresh(shared_t *sh)
{
    piece_t *x = sh->free;
    sh->free = x->next;
    return x;
}

/* Record the end of me's piece, settle the pieces in one pass over them in
 * serial order, and move me on to its next continuation. Called with the
 * lock held. Returns me's new piece, NULL when it has none left. */
static piece_t *finish(worker_t *me, int status, int64_t count)
{
    shared_t *sh = me->sh;
    piece_t *x = me->piece, *c = x->resume, *y, *next, *prev = NULL; /* prev: the piece before y */
    int64_t before = sh->committed; /* the nodes of the finished pieces before y */
    me->piece = c;
    if (c)
        me->end = c->end;
    if (x->limit < 0) { /* cut off: no longer in the order */
        release(sh, x);
        return c;
    }
    /* A piece in the order comes before every piece that may decide, so
     * its colouring is the first one found in serial order so far. */
    if (status == FOUND)
        report(sh, &me->s);
    *x = (piece_t){.next = x->next, .status = status, .count = count};
    for (y = sh->head; y; y = next) {
        next = y->next;
        if (y->owner) {
            STORE(y->limit, sh->cap - before);
            prev = y;
            continue;
        }
        /* The first finished piece that may decide cuts off every piece
         * after it, and at the front it decides the search. */
        int decides = y->status != NONE || y->count > sh->cap - before;
        if (decides) {
            for (piece_t *z = next; z; z = next) {
                next = z->next;
                if (z->owner)
                    STORE(z->limit, -1);
                else
                    release(sh, z);
            }
            y->next = NULL;
        }
        if (!prev && decides) {
            int found = y->status == FOUND && y->count <= sh->cap - before;
            sh->status = found ? FOUND : BUDGET;
            sh->nodes = found ? before + y->count : sh->cap + 1;
            STORE(sh->stop, 1);
            break;
        }
        before += y->count;
        if (!prev) { /* at the front: commit it */
            sh->committed += y->count;
            sh->head = next;
            release(sh, y);
        } else if (!prev->owner) {
            /* Join the finished piece before it, which ended NONE within
             * the budget: it would have cut y off otherwise. */
            prev->status = y->status;
            prev->count += y->count;
            prev->next = next;
            release(sh, y);
        } else {
            prev = y;
        }
    }
    if (!sh->head) {
        sh->status = NONE;
        sh->nodes = sh->committed;
        STORE(sh->stop, 1);
    }
    if (sh->stop)
        for (int32_t i = 0; i < sh->threads; i++)
            pthread_cond_signal(&sh->workers[i].wake);
    return c;
}

/* Among the frames of me's stack at depth d or deeper, up to depth - 1,
 * that have colours left to try: the shallowest whose last finished sibling
 * subtree had at most `room` nodes, else the deepest, whose colours come
 * next in serial order; depth when no frame has any. */
static int32_t choose(const worker_t *me, int32_t d, int32_t depth, uint64_t room)
{
    int64_t w = me->sh->w;
    int32_t deepest = depth;
    for (; d < depth; d++) {
        for (int64_t j = 0; j < w; j++) {
            if (me->s.rest[d * w + j]) {
                if (me->s.stack[d].last <= room)
                    return d;
                deepest = d;
                break;
            }
        }
    }
    return deepest;
}

/* Give each ready worker the untried colours of a frame d of me's piece, as
 * a new piece right after me's, d as choose() picks it with `room` the
 * piece's remaining budget (UINT64_MAX without one). Me's piece then ends
 * at d, and the untried colours of the frames above d, if any, become a
 * continuation right after the new piece, which me resumes in place once
 * it backtracks to d. Those frames' current subtrees are no longer all
 * me's, so their sizes become unknown. Returns 0 when no frame has untried
 * colours. */
static int donate(worker_t *me, int32_t depth, uint64_t room)
{
    shared_t *sh = me->sh;
    piece_t *p = me->piece;
    int64_t w = sh->w;
    int32_t d = choose(me, me->end, depth, room);
    if (d == depth)
        return 0;
    pthread_mutex_lock(&sh->lock);
    for (int32_t i = 0; i < sh->threads && d < depth && p->limit >= 0; i++) {
        worker_t *x = sh->workers + i;
        if (!x->ready)
            continue;
        if (choose(me, me->end, d, UINT64_MAX) < d) {
            piece_t *c = fresh(sh);
            *c = (piece_t){.next = p->next, .resume = p->resume, .owner = me,
                           .end = me->end, .limit = p->limit};
            p->next = p->resume = c;
        }
        piece_t *q = fresh(sh);
        *q = (piece_t){.next = p->next, .owner = x, .limit = p->limit};
        p->next = q;
        for (int32_t f = me->end; f < d; f++)
            me->s.stack[f].start |= UNKNOWN;
        me->end = d;
        STORE(x->piece, q);
        x->ready = 0;
        STORE(sh->idle, sh->idle - 1);
        x->end = x->depth = d;
        x->v0 = me->s.stack[d].v;
        x->m0 = me->s.stack[d].max_used;
        x->base = 0;
        memcpy(x->s.stack, me->s.stack, (size_t)d * sizeof(frame_t));
        memcpy(x->s.rest + d * w, me->s.rest + d * w, (size_t)w * sizeof(uint64_t));
        memset(me->s.rest + d * w, 0, (size_t)w * sizeof(uint64_t));
        pthread_cond_signal(&x->wake);
        d = choose(me, d + 1, depth, room);
    }
    pthread_mutex_unlock(&sh->lock);
    return 1;
}

/* Built with -DCONDCHROM_CHECK, as tests/kernel_driver.c is under the
 * sanitizers, the parallel search checks itself and aborts on a fault:
 *   - CHECK_DEAD fills the untried colours of a stopped piece's frames, from
 *     its depth down, with bytes 0xfe, many colours but never colour 0
 *     (none), so that a search that resumed from them would recolour
 *     coloured vertices;
 *   - CHECK_CUT checks that every continuation after a stopped piece is cut;
 *   - CHECK_BLANK checks that a worker's state is as state_init left it, as
 *     it must be once the worker has uncoloured its frames;
 *   - shift() checks that no sat or slack of the word state carries out of
 *     its top plane or borrows from beyond it. */
#ifdef CONDCHROM_CHECK
static void check_blank(const worker_t *me)
{
    const shared_t *sh = me->sh;
    const state_t *s = &me->s;
    int64_t n = sh->n, w = sh->w, vw = sh->vw, kk = sh->kk;
    uint64_t any = 0;
    for (int32_t i = 0; i < n; i++) {
        int64_t slack = initial_slack(sh, i);
        if (WORDS(w, vw)) {
            for (int j = 0; j < PLANES; j++)
                slack ^= (int64_t)(s->kp[j] >> i & 1) << j;
            if (slack || !(s->unc >> i & 1))
                abort();
        } else if (s->sat[i] || !(s->bucket[i / 64] >> (i % 64) & 1) || s->slack[i] != slack) {
            abort();
        }
        any |= (uint64_t)s->color[i];
        for (int64_t j = 0; j < w; j++)
            any |= s->seen[i * w + j];
    }
    if (WORDS(w, vw)) {
        for (int j = 0; j < PLANES; j++)
            any |= s->sp[j];
        any |= s->unc ^ (~(uint64_t)0 >> (64 - n));
        for (int64_t j = 0; j < 2 * (kk + 1); j++)
            any |= s->cls[j];
    } else {
        for (int64_t j = vw; j < (kk + 1) * vw; j++)
            any |= s->bucket[j];
        for (int64_t j = 0; j < (kk + 1) * n; j++)
            any |= (uint64_t)s->cnt[j];
    }
    if (any)
        abort();
}
#define CHECK_DEAD(me, status)                                                  \
    if ((status) != NONE)                                                       \
        memset((me)->s.rest + (me)->depth * (me)->sh->w, 0xfe,                  \
               (size_t)((me)->sh->n - (me)->depth) * (size_t)(me)->sh->w * 8)
#define CHECK_CUT(c, status)                                                    \
    if ((c) && (status) != NONE && (c)->limit >= 0)                             \
        abort()
#define CHECK_BLANK(me) check_blank(me)
#else
#define CHECK_DEAD(me, status) (void)0
#define CHECK_CUT(c, status) (void)0
#define CHECK_BLANK(me) (void)0
#endif

static void *work(void *arg);

/* Start the helpers. Their arrays are allocated here, in the calling
 * thread, so that no helper ever calls malloc. On any failure the calling
 * thread goes on alone. */
static void spawn(shared_t *sh)
{
    worker_t *ws = sh->workers;
    int32_t t = sh->threads, conds = 0;
    /* A worker owns its running piece and at most one continuation per
     * depth shallower than that piece's end, so at most n pieces, or one
     * without a budget, and each finished piece in the order follows an
     * owned one. */
    size_t pool = 2 * (size_t)t * (sh->cap == INT64_MAX ? 1 : (size_t)sh->n);
    sigset_t all, old;
    sh->spawn_after = INT64_MAX; /* one attempt */
    sh->pieces = calloc(pool, sizeof(piece_t));
    if (!sh->pieces)
        return;
    for (int32_t i = 1; i < t; i++)
        if (!state_init(&ws[i].s, sh))
            return;
    if (pthread_mutex_init(&sh->lock, NULL))
        return;
    while (conds < t && !pthread_cond_init(&ws[conds].wake, NULL))
        conds++;
    if (conds < t) {
        while (conds--)
            pthread_cond_destroy(&ws[conds].wake);
        pthread_mutex_destroy(&sh->lock);
        return;
    }
    /* The rest of the whole tree is the calling thread's piece. */
    sh->head = sh->pieces;
    *sh->head = (piece_t){.owner = ws, .limit = sh->cap};
    ws->piece = sh->head;
    for (size_t i = pool - 1; i > 0; i--)
        release(sh, sh->pieces + i);
    sh->started = 1;
    /* Signals go to the calling thread, not to the helpers. */
    sigfillset(&all);
    pthread_sigmask(SIG_BLOCK, &all, &old);
    for (int32_t i = 1; i < t; i++)
        ws[i].running = !pthread_create(&ws[i].thread, NULL, work, ws + i);
    pthread_sigmask(SIG_SETMASK, &old, NULL);
}

/* search()'s slow path, taken when count passes its threshold: start the
 * helpers once the calling thread has expanded spawn_after nodes, and give
 * work to idle workers. Returns the next threshold, which is below count
 * when the piece must stop. */
static __attribute__((noinline)) int64_t checkpoint(worker_t *me, int64_t count,
                                                    int32_t depth)
{
    shared_t *sh = me->sh;
    if (!sh->started) {
        if (count > sh->spawn_after && count <= sh->cap)
            spawn(sh);
        if (!sh->started)
            return sh->spawn_after < sh->cap ? sh->spawn_after : sh->cap;
    }
    /* From here on counts are the piece's, which began at me->base. */
    int64_t limit = LOAD(me->piece->limit), step = CHECK_EVERY;
    count -= me->base;
    if (count > limit)
        return me->base + limit;
    /* With nothing to give yet, look again at the next node. */
    if (LOAD(sh->idle) &&
        !donate(me, depth, sh->cap == INT64_MAX ? UINT64_MAX : (uint64_t)(limit - count)))
        step = 1;
    return me->base + (limit - count < step ? limit : count + step);
}

/* Search me's piece from me->depth coloured frames, with the worker's count
 * at `count`: either a new piece, whose root frame is at that depth with
 * its untried colours in rest, or a continuation, resumed in place where
 * the piece before it backtracked to its end. Returns FOUND, NONE or BUDGET,
 * stores the count in *nodes and leaves me->depth frames coloured. */
INLINE int search(worker_t *me, int64_t count, int64_t *nodes, int64_t w,
                  int64_t vw)
{
    state_t *s = &me->s;
    int32_t kk = me->sh->kk, end = me->end, depth = me->depth, v = me->v0,
            max_used = me->m0, from = 0;
    int64_t threshold = count;
    uint64_t last = UINT64_MAX;
    int status;
    for (;;) {
        int32_t c = take_lowest(s->rest + depth * w, w);
        /* Backtrack while no colour is left. */
        while (!c) {
            if (depth == end) {
                status = NONE;
                goto done;
            }
            frame_t f = s->stack[--depth];
            v = f.v;
            max_used = f.max_used;
            c = take_lowest(s->rest + depth * w, w);
            if (c) {
                from = f.c;
                last = (uint64_t)count - f.start;
            } else {
                recolour(s, v, f.c, 0, w, vw);
            }
        }
        s->stack[depth++] = (frame_t){v, c, max_used, (uint64_t)count, last};
        recolour(s, v, from, c, w, vw);
        from = 0;
        last = UINT64_MAX;
        if (c > max_used)
            max_used = c;
        /* Expand a new node. */
        if (++count > threshold) {
            if ((threshold = checkpoint(me, count, depth)) < count) {
                status = BUDGET;
                break;
            }
            end = me->end;
        }
        if (depth == s->n) {
            status = FOUND;
            break;
        }
        v = pick(s, w, vw);
        allowed(s, v, max_used < kk ? max_used + 1 : kk, s->rest + depth * w, w, vw);
    }
done:
    me->depth = depth;
    *nodes = count;
    return status;
}

static int run(worker_t *me, int64_t count, int64_t *nodes)
{
    const shared_t *sh = me->sh;
    return sh->w == 1 && sh->vw == 1 ? search(me, count, nodes, 1, 1)
                                     : search(me, count, nodes, sh->w, sh->vw);
}

/* Hand in me's finished piece and search each continuation it moves on
 * to; then uncolour its frames. A continuation resumes where the piece
 * before it ended NONE, at its end depth. After a piece that stopped, it
 * is cut off and handed back unsearched: the stopped piece's frames from
 * its depth down hold no colours to resume from. */
static void settle(worker_t *me, int status, int64_t count)
{
    shared_t *sh = me->sh;
    for (;;) {
        CHECK_DEAD(me, status);
        pthread_mutex_lock(&sh->lock);
        piece_t *c = finish(me, status, count - me->base);
        CHECK_CUT(c, status);
        pthread_mutex_unlock(&sh->lock);
        if (!c)
            break;
        me->base = count;
        if (status == NONE)
            status = run(me, count, &count);
    }
    walk(&me->s, me->depth, 0, sh->w, sh->vw);
    CHECK_BLANK(me);
}

/* Search each piece me is given until the search is decided. */
static void *work(void *arg)
{
    worker_t *me = arg;
    shared_t *sh = me->sh;
    for (;;) {
        pthread_mutex_lock(&sh->lock);
        me->ready = !sh->stop;
        STORE(sh->idle, sh->idle + me->ready);
        pthread_mutex_unlock(&sh->lock);
        /* Wait for a piece, first without sleeping: a sleeping thread's
         * CPU may halt, and on a virtual machine waking it again can take
         * milliseconds. */
        for (int i = 0; i < SPIN && !LOAD(me->piece) && !LOAD(sh->stop); i++)
            sched_yield();
        pthread_mutex_lock(&sh->lock);
        while (!me->piece && !sh->stop)
            pthread_cond_wait(&me->wake, &sh->lock);
        piece_t *piece = me->piece;
        pthread_mutex_unlock(&sh->lock);
        if (!piece)
            return NULL;
        int64_t count;
        walk(&me->s, me->depth, 1, sh->w, sh->vw);
        int status = run(me, 0, &count);
        settle(me, status, count);
    }
}

/* OUT_OF_RANGE when a neighbour id lies outside [0, n), else 0. */
static int check_ids(int32_t n, const int32_t *indptr, const int32_t *indices)
{
    for (int32_t j = 0; j < indptr[n]; j++)
        if (indices[j] < 0 || indices[j] >= n)
            return OUT_OF_RANGE;
    return 0;
}

/* The renumbering of condchrom_search and condchrom_max_clique: by
 * (degree descending, id ascending), order[i] is the caller's id of new id
 * i and rank[v] the new id of v. order and rank hold n and n + 1 zeroed
 * ints. Returns 0, or, with nothing sorted, OUT_OF_RANGE or NOT_SIMPLE
 * when a vertex is its own neighbour or has a neighbour twice. */
static int by_degree(int32_t n, const int32_t *indptr, const int32_t *indices,
                     int32_t *order, int32_t *rank)
{
    if (check_ids(n, indptr, indices))
        return OUT_OF_RANGE;
    /* The graph must be simple, which also keeps every degree below n.
     * Until the sort fills it, order[u] == v + 1 marks u as a neighbour of
     * v already seen. */
    for (int32_t v = 0; v < n; v++) {
        for (int32_t j = indptr[v]; j < indptr[v + 1]; j++) {
            int32_t u = indices[j];
            if (u == v || order[u] == v + 1)
                return NOT_SIMPLE;
            order[u] = v + 1;
        }
    }
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
    return 0;
}

/* Neighbours of v are indices[indptr[v] .. indptr[v+1]-1].
 * The search runs on up to `threads` threads, starting the helpers after
 * spawn_after nodes; the result does not depend on either. On FOUND,
 * color[0..n-1] holds colours in 1..k; otherwise color may have been
 * written. Returns the status, OUT_OF_RANGE when a neighbour id lies
 * outside [0, n), NOT_SIMPLE when a vertex is its own neighbour or has a
 * neighbour twice, or NOMEM when an allocation fails;
 * *nodes receives the node count. */
int condchrom_search(int32_t n, const int32_t *indptr, const int32_t *indices,
                     const int64_t *req, int64_t k, int64_t budget,
                     int32_t threads, int64_t spawn_after, int32_t *color,
                     int64_t *nodes)
{
    *nodes = 0;
    if (n == 0)
        return FOUND;
    int64_t m = indptr[n];
    int32_t *order = calloc((size_t)n, sizeof(int32_t)); /* new id -> old */
    int32_t *rank = calloc((size_t)n + 1, sizeof(int32_t)); /* old id -> new */
    int32_t *ptr = malloc(((size_t)n + 1) * sizeof(int32_t));
    int32_t *idx = malloc(((size_t)m + 1) * sizeof(int32_t));
    uint64_t *nb = NULL;
    worker_t *me = NULL;
    shared_t sh = {.n = n};
    int status = NOMEM;
    if (!order || !rank || !ptr || !idx)
        goto out;
    status = by_degree(n, indptr, indices, order, rank);
    if (status)
        goto out;
    /* A vertex's neighbours avoid its own colour, so at most k-1 distinct
     * colours can ever appear around it, and at most d(v) ever can. */
    status = NONE;
    if (k < 1)
        goto out;
    for (int32_t v = 0; v < n; v++)
        if (req[v] > k - 1 || req[v] > indptr[v + 1] - indptr[v])
            goto out;
    /* A negative budget stops at the root node. */
    if (budget < 0) {
        *nodes = 1;
        status = BUDGET;
        goto out;
    }
    /* Colours above n are never reached: a new colour needs a new vertex. */
    int32_t kk = k < n ? (int32_t)k : n;
    if (threads < 1)
        threads = 1;
    sh = (shared_t){
        .n = n, .kk = kk, .threads = threads, .w = kk / 64 + 1,
        .vw = (n + 63) / 64, .cap = budget ? budget : INT64_MAX, .req = req,
        .color = color, .spawn_after = threads > 1 ? spawn_after : INT64_MAX,
    };
    if (WORDS(sh.w, sh.vw))
        nb = calloc(2 * (size_t)n, sizeof(uint64_t));
    me = sh.workers = zalloc_lines((size_t)threads * sizeof(worker_t));
    status = NOMEM;
    if (!me || (WORDS(sh.w, sh.vw) && !nb))
        goto out;

    ptr[0] = 0;
    for (int32_t i = 0; i < n; i++) {
        int32_t v = order[i], deg = indptr[v + 1] - indptr[v];
        for (int32_t j = 0; j < deg; j++)
            idx[ptr[i] + j] = rank[indices[indptr[v] + j]];
        ptr[i + 1] = ptr[i] + deg;
    }
    /* The word state's masks: nb[i], the neighbours of i, and nb2[i], the
     * other vertices that share a neighbour with i. */
    if (nb) {
        uint64_t *nb2 = nb + n;
        for (int32_t i = 0; i < n; i++)
            for (int32_t j = ptr[i]; j < ptr[i + 1]; j++)
                nb[i] |= (uint64_t)1 << idx[j];
        for (int32_t i = 0; i < n; i++) {
            for (int32_t j = ptr[i]; j < ptr[i + 1]; j++)
                nb2[i] |= nb[idx[j]];
            nb2[i] &= ~((uint64_t)1 << i);
        }
        sh.nb = nb;
        sh.nb2 = nb2;
    }
    sh.indptr = ptr;
    sh.indices = idx;
    sh.order = order;
    for (int32_t i = 0; i < threads; i++)
        me[i].sh = &sh;
    if (!state_init(&me->s, &sh))
        goto out;

    /* The root node, counted here, and its frame: the whole tree's piece. */
    me->v0 = pick(&me->s, sh.w, sh.vw);
    allowed(&me->s, me->v0, 1, me->s.rest, sh.w, sh.vw);
    status = run(me, 1, nodes);
    if (!sh.started) {
        if (status == FOUND)
            report(&sh, &me->s);
        goto out;
    }
    settle(me, status, *nodes);
    work(me);
    for (int32_t i = 1; i < threads; i++)
        if (me[i].running)
            pthread_join(me[i].thread, NULL);
    for (int32_t i = 0; i < threads; i++)
        pthread_cond_destroy(&me[i].wake);
    pthread_mutex_destroy(&sh.lock);
    status = sh.status;
    *nodes = sh.nodes;
out:
    free(order);
    free(rank);
    free(ptr);
    free(idx);
    free(nb);
    if (me)
        for (int32_t i = 0; i < threads; i++)
            free(me[i].s.block);
    free(me);
    free(sh.pieces);
    return status;
}

/* The number of set bits of x, without the library call that a compiler
 * targeting baseline x86-64 makes for __builtin_popcountll. */
INLINE int64_t ones(uint64_t x)
{
    x -= x >> 1 & 0x5555555555555555u;
    x = (x & 0x3333333333333333u) + (x >> 2 & 0x3333333333333333u);
    x = (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0fu;
    return (int64_t)((x * 0x0101010101010101u) >> 56);
}

/* Compiled twin of _kernel_py.local_search: the same tabu search, move for
 * move, with the same score, candidate vertices, move order (vertices, then
 * colours, ascending), xorshift64 tie-breaking, tenure and aspiration, so
 * that both return the same colouring and move count. It searches in the
 * caller's ids, on one thread.
 *
 * cnt[v * (k + 1) + c] counts the neighbours of v coloured c, distinct[v]
 * the colours in 1..k that v sees, nshort[v] the neighbours of v short of
 * their requirement, and nz[c], a mask of vw = ceil(n/64) words, the
 * vertices that see c. The neighbours of a candidate v that count toward
 * its moves (see _kernel_py.local_search) form the mask rel, so a move to c
 * costs an AND and a popcount per word: rel & nz[c] are those that see c.
 * A requirement is clamped into 0..n: every distinct count is below n, so
 * the clamp moves a vertex's deficit by a constant and changes no move, and
 * no deficit can overflow.
 *
 * color holds the start colouring (1..k) on entry and the last colouring on
 * return. Returns FOUND when that colouring has score 0, NONE when the moves
 * ran out or none was allowed, OUT_OF_RANGE when a neighbour id lies outside
 * [0, n), or NOMEM; *moves receives the moves made. */
int condchrom_local_search(int32_t n, const int32_t *indptr,
                           const int32_t *indices, const int64_t *req_in,
                           int32_t k, int32_t *color, int64_t max_moves,
                           int64_t tenure, uint64_t seed, int64_t *moves)
{
    *moves = 0;
    if (check_ids(n, indptr, indices))
        return OUT_OF_RANGE;
    size_t kw = (size_t)k + 1, vw = ((size_t)n + 63) / 64;
    int32_t *cnt = calloc(((size_t)n + 1) * kw, sizeof(int32_t));
    int64_t *tabu = calloc(((size_t)n + 1) * kw, sizeof(int64_t));
    uint64_t *nz = calloc(kw * vw + vw + 1, sizeof(uint64_t)), *rel = nz + kw * vw;
    int32_t *distinct = calloc(2 * ((size_t)n + 1), sizeof(int32_t));
    int32_t *nshort = distinct + n + 1;
    int64_t *req = malloc(((size_t)n + 1) * sizeof(int64_t));
    int64_t made = 0;
    int status = NOMEM;
    if (!cnt || !tabu || !nz || !distinct || !req)
        goto out;
    for (int32_t v = 0; v < n; v++) {
        req[v] = req_in[v] < 0 ? 0 : req_in[v] > n ? n : req_in[v];
        for (int32_t j = indptr[v]; j < indptr[v + 1]; j++) {
            uint32_t u = (uint32_t)indices[j];
            cnt[u * kw + color[v]]++;
            nz[color[v] * vw + u / 64] |= (uint64_t)1 << u % 64;
        }
    }
    int64_t score = 0, best;
    for (int32_t v = 0; v < n; v++) {
        const int32_t *row = cnt + (size_t)v * kw;
        for (int32_t c = 1; c <= k; c++)
            distinct[v] += row[c] > 0;
        score += row[color[v]];
    }
    score /= 2;
    for (int32_t u = 0; u < n; u++) {
        if (distinct[u] >= req[u])
            continue;
        score += req[u] - distinct[u];
        for (int32_t j = indptr[u]; j < indptr[u + 1]; j++)
            nshort[indices[j]]++;
    }
    best = score;
    uint64_t rng = seed;
    while (score && made < max_moves) {
        int64_t aspire = best - score; /* a tabu move must lower d below it */
        int32_t pv = -1, pc = 0;
        int64_t top = 0;
        uint64_t ties = 0;
        for (int32_t v = 0; v < n; v++) {
            const int32_t *row = cnt + (size_t)v * kw;
            int32_t b = color[v];
            if (!row[b] && !nshort[v])
                continue;
            int64_t base = -row[b];
            memset(rel, 0, vw * sizeof(uint64_t));
            for (int32_t j = indptr[v]; j < indptr[v + 1]; j++) {
                uint32_t u = (uint32_t)indices[j];
                int64_t s = req[u] - distinct[u];
                int lose = cnt[u * kw + b] == 1;
                base -= (s >= 1) & !lose;
                rel[u / 64] |= (uint64_t)((s >= 1) | ((s == 0) & lose)) << u % 64;
            }
            const int64_t *ban = tabu + (size_t)v * kw;
            for (int32_t c = 1; c <= k; c++) {
                if (c == b)
                    continue;
                int64_t d = base + row[c];
                for (size_t j = 0; j < vw; j++)
                    d += ones(rel[j] & nz[c * vw + j]);
                if (ban[c] > made && d >= aspire)
                    continue;
                if (pv < 0 || d < top) {
                    top = d;
                    pv = v;
                    pc = c;
                    ties = 1;
                } else if (d == top) {
                    ties++;
                    rng ^= rng << 13;
                    rng ^= rng >> 7;
                    rng ^= rng << 17;
                    if (rng % ties == 0) {
                        pv = v;
                        pc = c;
                    }
                }
            }
        }
        if (pv < 0)
            break;
        int32_t b = color[pv];
        color[pv] = pc;
        for (int32_t j = indptr[pv]; j < indptr[pv + 1]; j++) {
            uint32_t u = (uint32_t)indices[j];
            int32_t *ru = cnt + u * kw;
            uint64_t bit = (uint64_t)1 << u % 64;
            int was = distinct[u] < req[u];
            if (!--ru[b]) {
                distinct[u]--;
                nz[b * vw + u / 64] &= ~bit;
            }
            if (!ru[pc]++) {
                distinct[u]++;
                nz[pc * vw + u / 64] |= bit;
            }
            int is = distinct[u] < req[u];
            for (int32_t i = indptr[u]; i < indptr[u + 1] && is != was; i++)
                nshort[indices[i]] += is - was;
        }
        made++;
        tabu[(size_t)pv * kw + b] = made + tenure;
        score += top;
        if (score < best)
            best = score;
    }
    status = score ? NONE : FOUND;
out:
    *moves = made;
    free(cnt);
    free(tabu);
    free(nz);
    free(distinct);
    free(req);
    return status;
}

/* Compiled twin of _kernel_py.max_clique: the same branch and bound, step
 * for step, so that both return the same members in the same order. The
 * header of this file describes its state. Neighbours of v are
 * indices[indptr[v] .. indptr[v+1]-1]. Returns 0 with the members of the
 * clique found, in the caller's ids and in the order the search took them,
 * in out[0..*out_len-1] (out holds n ints), or, as condchrom_search does,
 * OUT_OF_RANGE, NOT_SIMPLE or NOMEM. */
int condchrom_max_clique(int32_t n, const int32_t *indptr, const int32_t *indices,
                         int32_t floor, int32_t *out, int32_t *out_len)
{
    *out_len = 0;
    if (n == 0)
        return 0;
    size_t nn = (size_t)n + 2, m = (size_t)indptr[n];
    int32_t *block = calloc(13 * nn + 4 * m, sizeof(int32_t));
    int64_t *mark = calloc(nn, sizeof(int64_t));
    int status = NOMEM;
    if (!block || !mark)
        goto out;
    /* Per vertex: order, rank, ptr and tptr (the in-lists' offsets),
     * lvl, cls, cur (the path, by depth) and tmp (a frame's candidates
     * before its colouring); per frame: base and pos; per class: cnt; then
     * idx, the in-lists t, and the steps, vertex sv and class sc. */
    int32_t *order = block, *rank = order + nn, *ptr = rank + nn, *tptr = ptr + nn,
            *lvl = tptr + nn, *cls = lvl + nn, *cur = cls + nn, *tmp = cur + nn,
            *base = tmp + nn, *pos = base + nn, *cnt = pos + nn, *idx = cnt + nn,
            *t = idx + m, *sv = t + m, *sc = sv + nn + m;
    status = by_degree(n, indptr, indices, order, rank);
    if (status)
        goto out;
    /* idx: the neighbour lists in new ids, each sorted, by transposing
     * twice. t[tptr[x] ..] lists the vertices that have x as a neighbour,
     * ascending, and idx[ptr[y] ..] then lists y's neighbours, ascending.
     * cnt serves as the write cursors. */
    for (size_t j = 0; j < m; j++)
        tptr[rank[indices[j]] + 1]++;
    for (int32_t i = 0; i < n; i++) {
        tptr[i + 1] += tptr[i];
        ptr[i + 1] = ptr[i] + indptr[order[i] + 1] - indptr[order[i]];
    }
    memcpy(cnt, tptr, (size_t)n * sizeof(int32_t));
    for (int32_t i = 0; i < n; i++)
        for (int32_t j = indptr[order[i]]; j < indptr[order[i] + 1]; j++)
            t[cnt[rank[indices[j]]]++] = i;
    memcpy(cnt, ptr, (size_t)n * sizeof(int32_t));
    for (int32_t x = 0; x < n; x++)
        for (int32_t j = tptr[x]; j < tptr[x + 1]; j++)
            idx[cnt[t[j]]++] = x;

    /* The root frame holds every vertex, all at level 0 (lvl is zeroed). */
    int64_t stamp = 0;
    int32_t depth = 0, c = n, beat = floor; /* beat: max(*out_len, floor) */
    for (int32_t v = 0; v < n; v++)
        tmp[v] = v;
    while (depth >= 0) {
        if (c) {
            /* Colour frame depth's candidates tmp[0..c-1], ascending, each
             * with the lowest class that none of its neighbours coloured
             * before it has: those below it at level depth. Then lay them
             * out as the frame's steps, by class, then id, ascending, so
             * that pos walks them down. */
            int32_t k = 0;
            for (int32_t i = 0; i < c; i++) {
                int32_t v = tmp[i], col = 1;
                stamp++;
                for (int32_t j = ptr[v]; j < ptr[v + 1] && idx[j] < v; j++)
                    if (lvl[idx[j]] == depth)
                        mark[cls[idx[j]]] = stamp;
                while (mark[col] == stamp)
                    col++;
                cls[v] = col;
                k = col > k ? col : k;
            }
            memset(cnt, 0, ((size_t)k + 2) * sizeof(int32_t));
            for (int32_t i = 0; i < c; i++)
                cnt[cls[tmp[i]] + 1]++;
            for (int32_t col = 2; col <= k; col++)
                cnt[col] += cnt[col - 1];
            for (int32_t i = 0; i < c; i++) {
                int32_t v = tmp[i], s = base[depth] + cnt[cls[v]]++;
                sv[s] = v;
                sc[s] = cls[v];
            }
            base[depth + 1] = base[depth] + c;
            pos[depth] = base[depth + 1] - 1;
            c = 0;
        }
        int32_t p = pos[depth];
        if (p < base[depth] || depth + sc[p] <= beat) {
            /* Pop the frame: its candidates go back to the frame below,
             * and the vertex branched on there leaves that frame's. */
            for (int32_t j = base[depth]; j < base[depth + 1]; j++)
                lvl[sv[j]] = depth - 1;
            if (--depth >= 0)
                lvl[cur[depth]] = depth - 1;
            continue;
        }
        pos[depth] = p - 1;
        int32_t v = cur[depth] = sv[p];
        for (int32_t j = ptr[v]; j < ptr[v + 1]; j++) {
            if (lvl[idx[j]] == depth) {
                tmp[c++] = idx[j];
                lvl[idx[j]] = depth + 1;
            }
        }
        if (c) {
            depth++;
        } else {
            if (depth + 1 > beat) {
                for (int32_t i = 0; i <= depth; i++)
                    out[i] = order[cur[i]];
                *out_len = beat = depth + 1;
            }
            lvl[v] = depth - 1;
        }
    }
out:
    free(block);
    free(mark);
    return status;
}
