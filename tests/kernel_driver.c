/* Runs one condchrom_search call read from stdin, or one condchrom_max_clique
 * call, so that the C kernel can be
 * built and run outside Python, for instance under ThreadSanitizer or
 * UndefinedBehaviorSanitizer, and with the kernel's self-checks, which abort
 * on a fault of the parallel search:
 *
 *   cc -std=c99 -DCONDCHROM_CHECK -fsanitize=thread -pthread -g -O1 \
 *      tests/kernel_driver.c src/condchrom/_kernel.c -o driver
 *   cc -std=c99 -DCONDCHROM_CHECK -fsanitize=undefined \
 *      -fno-sanitize-recover=undefined -pthread -g -O1 \
 *      tests/kernel_driver.c src/condchrom/_kernel.c -o driver
 *
 * Input, whitespace-separated integers:
 *   n k budget threads spawn_after
 *   req[0] .. req[n-1]
 *   then for each vertex v: its degree, then its neighbours;
 *   then, optionally, max_moves tenure seed start[0] .. start[n-1], to run
 *   condchrom_local_search at the same k from that colouring as well.
 * Output: "status nodes colours", colours comma-separated or "-" unless the
 * status is FOUND (0), then for a local search "status moves colours" in
 * the same form.
 *
 * Input for the clique search, the word "clique", then
 *   n floor
 *   then for each vertex v: its degree, then its neighbours.
 * Output: "size members", the members comma-separated in the order the
 * search took them, or "-" when there are none.
 *
 * Exits 2 on malformed input, a vertex that is its own neighbour or has a
 * neighbour twice, or a failed allocation. */

#include <errno.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>

int condchrom_search(int32_t n, const int32_t *indptr, const int32_t *indices,
                     const int64_t *req, int64_t k, int64_t budget,
                     int32_t threads, int64_t spawn_after, int32_t *color,
                     int64_t *nodes);
int condchrom_local_search(int32_t n, const int32_t *indptr,
                           const int32_t *indices, const int64_t *req_in,
                           int32_t k, int32_t *color, int64_t max_moves,
                           int64_t tenure, uint64_t seed, int64_t *moves);
int condchrom_max_clique(int32_t n, const int32_t *indptr, const int32_t *indices,
                         int32_t floor, int32_t *out, int32_t *out_len);

static void malformed(void)
{
    fputs("kernel_driver: malformed input\n", stderr);
    exit(2);
}

/* The next whitespace-separated word. */
static const char *word(void)
{
    static char buf[32];
    if (scanf("%31s", buf) != 1)
        malformed();
    return buf;
}

/* The integer spelled by text, which must lie in lo..hi. */
static int64_t integer(const char *text, int64_t lo, int64_t hi)
{
    char *end;
    errno = 0;
    long long x = strtoll(text, &end, 10);
    if (end == text || *end || errno || x < lo || x > hi)
        malformed();
    return x;
}

/* The next integer, which must lie in lo..hi. */
static int64_t next(int64_t lo, int64_t hi)
{
    return integer(word(), lo, hi);
}

/* Read n adjacency lists, each a degree then its neighbours, into indptr
 * (n + 1 ints) and indices (n * n ints). */
static void read_graph(int32_t n, int32_t *indptr, int32_t *indices)
{
    indptr[0] = 0;
    for (int32_t v = 0; v < n; v++) {
        int32_t deg = (int32_t)next(0, n - 1);
        for (int32_t j = 0; j < deg; j++)
            indices[indptr[v] + j] = (int32_t)next(0, n - 1);
        indptr[v + 1] = indptr[v] + deg;
    }
}

/* The clique mode, after its first word. */
static int clique(void)
{
    int32_t n = (int32_t)next(0, 1 << 15), floor = (int32_t)next(INT32_MIN, INT32_MAX);
    int32_t *indptr = malloc(((size_t)n + 1) * sizeof(int32_t));
    int32_t *indices = malloc(((size_t)n * n + 1) * sizeof(int32_t));
    int32_t *out = malloc(((size_t)n + 1) * sizeof(int32_t)), size = 0;
    if (!indptr || !indices || !out)
        return 2;
    read_graph(n, indptr, indices);
    if (condchrom_max_clique(n, indptr, indices, floor, out, &size) < 0)
        return 2;
    printf("%d ", (int)size);
    for (int32_t i = 0; i < size; i++)
        printf(i ? ",%d" : "%d", (int)out[i]);
    puts(size ? "" : "-");
    free(indptr);
    free(indices);
    free(out);
    return 0;
}

/* Print "status count colours" as the output lines do. */
static void print_result(int status, int64_t count, int32_t n, const int32_t *color)
{
    printf("%d %lld ", status, (long long)count);
    if (status == 0)
        for (int32_t v = 0; v < n; v++)
            printf(v ? ",%d" : "%d", (int)color[v]);
    else
        putchar('-');
    putchar('\n');
}

int main(void)
{
    const char *first = word();
    if (!strcmp(first, "clique"))
        return clique();
    int32_t n = (int32_t)integer(first, 0, 1 << 15);
    int64_t k = next(INT64_MIN, INT64_MAX), budget = next(INT64_MIN, INT64_MAX);
    int32_t threads = (int32_t)next(INT32_MIN, INT32_MAX);
    int64_t spawn_after = next(INT64_MIN, INT64_MAX), nodes = 0;
    int64_t *req = malloc(((size_t)n + 1) * sizeof(int64_t));
    int32_t *indptr = malloc(((size_t)n + 1) * sizeof(int32_t));
    int32_t *indices = malloc(((size_t)n * n + 1) * sizeof(int32_t));
    int32_t *color = calloc((size_t)n + 1, sizeof(int32_t));
    if (!req || !indptr || !indices || !color)
        return 2;
    for (int32_t v = 0; v < n; v++)
        req[v] = next(INT64_MIN, INT64_MAX);
    read_graph(n, indptr, indices);
    int status = condchrom_search(n, indptr, indices, req, k, budget, threads,
                                  spawn_after, color, &nodes);
    if (status < 0)
        return 2;
    print_result(status, nodes, n, color);
    long long max_moves;
    if (scanf("%lld", &max_moves) == 1) {
        int64_t tenure = next(0, INT32_MAX), moves = 0;
        unsigned long long seed;
        if (scanf("%llu", &seed) != 1)
            return 2;
        for (int32_t v = 0; v < n; v++)
            color[v] = (int32_t)next(1, k < INT32_MAX ? k : INT32_MAX);
        status = condchrom_local_search(n, indptr, indices, req, (int32_t)k, color,
                                        max_moves, tenure, seed, &moves);
        if (status < 0)
            return 2;
        print_result(status, moves, n, color);
    }
    free(req);
    free(indptr);
    free(indices);
    free(color);
    return 0;
}
