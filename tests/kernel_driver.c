/* Runs one condchrom_search call read from stdin, so that the C kernel can be
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
 *   then for each vertex v: its degree, then its neighbours.
 * Output: "status nodes colours", colours comma-separated or "-" unless the
 * status is FOUND (0). Exits 2 on malformed input, a vertex that is its own
 * neighbour or has a neighbour twice, or a failed allocation. */

#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>

int condchrom_search(int32_t n, const int32_t *indptr, const int32_t *indices,
                     const int64_t *req, int64_t k, int64_t budget,
                     int32_t threads, int64_t spawn_after, int32_t *color,
                     int64_t *nodes);

/* The next integer, which must lie in lo..hi. */
static int64_t next(int64_t lo, int64_t hi)
{
    long long x;
    if (scanf("%lld", &x) != 1 || x < lo || x > hi) {
        fputs("kernel_driver: malformed input\n", stderr);
        exit(2);
    }
    return x;
}

int main(void)
{
    int32_t n = (int32_t)next(0, 1 << 15);
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
    indptr[0] = 0;
    for (int32_t v = 0; v < n; v++) {
        int32_t deg = (int32_t)next(0, n - 1);
        for (int32_t j = 0; j < deg; j++)
            indices[indptr[v] + j] = (int32_t)next(0, n - 1);
        indptr[v + 1] = indptr[v] + deg;
    }
    int status = condchrom_search(n, indptr, indices, req, k, budget, threads,
                                  spawn_after, color, &nodes);
    if (status < 0)
        return 2;
    printf("%d %lld ", status, (long long)nodes);
    if (status == 0)
        for (int32_t v = 0; v < n; v++)
            printf(v ? ",%d" : "%d", (int)color[v]);
    else
        putchar('-');
    putchar('\n');
    free(req);
    free(indptr);
    free(indices);
    free(color);
    return 0;
}
