/* 1,000 start/give/take/join cycles of the kernel's orbit thread, in the
 * order that `cipher.build_key_schedule` calls them, with random delays on
 * the caller's side and random segment lengths and transients on the
 * thread's; some orbits diverge and some callers join early, as an
 * interrupted build does, or join a handle before its start and twice
 * after it, which does nothing. The caller writes into its buffer while it holds
 * it, so a handoff out of turn is a data race. Exits 1 when a segment or a
 * divergence index differs from one serial `chaos_fill`.
 *
 * Built with -fsanitize=thread by tests/test_kernel.py, with the kernel's
 * directory on the include path. */
#include "_kernel.c"
#include <stdio.h>

#define MAX_N 64
#define MAX_SKIP 20000

static unsigned next_random(unsigned *seed)
{
    *seed = *seed * 1103515245u + 12345u;
    return *seed >> 8;
}

/* 0 to 50 µs, or once in 64 calls 1.5 ms, past the 1 ms spin */
static void delay(unsigned *seed)
{
    unsigned r = next_random(seed);
    struct timespec t = {0, r % 64 ? (long)(r % 50000) : 1500000L};
    nanosleep(&t, NULL);
}

int main(void)
{
    static double ys[MAX_N], xs[2][MAX_N], orbit[4 * MAX_N], ref_ys[4 * MAX_N];
    unsigned seed = 12345;

    for (int cycle = 0; cycle < 1000; cycle++) {
        unsigned r = next_random(&seed);
        long long n = 1 + r % MAX_N;
        long long skip = r % 97 ? r % 100 : MAX_SKIP;  /* the caller waits past its spin */
        double map_r = r % 11 ? 17.0 : 1e307;          /* diverges at iteration 253 */
        int segments = r % 13 ? 4 : (int)(r % 4);      /* an interrupted caller joins early */
        double state[2] = {0.1, 0.1};
        /* the reference: the four segments in one fill of 4n values */
        long long bad = chaos_fill(1, map_r, 0.0, 0.0, state, skip, orbit, ref_ys, 4 * n);
        orbit_t o = {.started = 0};

        if (r % 7 == 0)
            chaos_orbit_join(&o);
        if (chaos_orbit_start(&o, 1, map_r, 0.0, 0.0, 0.1, 0.1, skip, ys, xs[0], xs[1], n))
            return 1;
        for (int k = 0; k < segments; k++) {
            double *mine = xs[(k + 1) % 2];
            for (long long i = 0; i < n; i++)  /* the other map's segment */
                mine[i] = (double)i;
            delay(&seed);
            chaos_orbit_give(&o);
            long long got = chaos_orbit_take(&o);
            if (bad >= 0 && bad < skip + (k + 1) * n) {
                if (got != bad) {
                    fprintf(stderr, "cycle %d: divergence %lld, expected %lld\n", cycle, got, bad);
                    return 1;
                }
                break;
            }
            if (got != -1 || memcmp(xs[k % 2], orbit + k * n, n * sizeof(double))
                || (k == 0 && memcmp(ys, ref_ys, n * sizeof(double)))) {
                fprintf(stderr, "cycle %d: segment %d differs\n", cycle, k);
                return 1;
            }
            delay(&seed);
        }
        chaos_orbit_join(&o);
        chaos_orbit_join(&o);
    }
    return 0;
}
