/* Compiled loops of the two chaotic maps: `chaos_fill` iterates a map from
 * a seed, with `maps.step_function` as its oracle, `chaos_sweep` makes every
 * row of a bifurcation sweep in one call, and `chaos_lyapunov` runs
 * `analysis.lyapunov_from_step` over that step. Two byte loops,
 * `chaos_gather_xor` and `chaos_scatter_xor`, make the cipher's one pass
 * over an image, with the numpy lines of `cipher._gather_xor` and
 * `cipher._scatter_xor` as their oracles. Two index loops build the key
 * schedule without an intp copy of any index: `chaos_gather_in_place`
 * composes two permutations into the second, and `chaos_slot` writes one
 * slot of the final pair (R, K) through the layout, with the numpy lines
 * of `cipher._compose` and `cipher._slot` as their oracles. Three loops
 * turn an orbit into keys with the numpy lines of `maps` as their oracles:
 * `chaos_quantize` makes its bytes, and `chaos_pack` and `chaos_unpack`
 * make its stable argsort in place, before and after numpy sorts the
 * words. `chaos_orbit_start`, one `chaos_orbit_take` per segment and
 * `chaos_orbit_join` iterate Map 1's orbit on a thread of its own while the
 * caller keys Map 2 (see `orbit_t`). One text loop, `chaos_format_rows`,
 * writes the rows of the analysis CSVs in the bytes of Python's `.12g`
 * format: it reads each float's exponent and mantissa from its bits and
 * rounds its digits once, in 128-bit integers, so no float operation
 * touches them (see `format_g12`).
 *
 * Every operation mirrors CPython float semantics, so the bytes match the
 * pure-Python path bit for bit:
 *   - sin, cos, tanh and log are the libm functions that `math` calls; they
 *     are pure, so the order of the calls is free, but each expression
 *     keeps the evaluation order of the Python code;
 *   - `mod_two_pi` is CPython's float `%` by 2*pi (float_rem): the remainder
 *     with the sign of the dividend, from fmod at 4*2*pi and more in
 *     magnitude and for NaN and +-inf, and from at most two exact
 *     subtractions below that; then one sign fix, for both: a negative
 *     remainder takes 2*pi, and a zero one the sign of the divisor;
 *   - the Lyapunov distance is sqrt(dx*dx + dy*dy) in both languages;
 *     IEEE-754 rounds sqrt, * and + correctly, so it is the same double;
 *   - the quantizer rounds |v| * 1e12 and then adds 0.5, as numpy does.
 * Build with -ffp-contract=off and without -ffast-math: a fused multiply-add
 * or a reassociated sum rounds differently and changes the orbit and the
 * quantized bytes.
 */
#include <math.h>
#include <pthread.h>
#include <sched.h>
#include <signal.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <time.h>

static const double PI = 3.141592653589793;
static const double TWO_PI = 6.283185307179586;

/* v % TWO_PI as CPython computes it (float_rem): the remainder with v's
 * sign, then a sign fix. From 4w (w = TWO_PI) up in magnitude, and for NaN
 * and +-inf, fmod gives the remainder. Below that, subtracting 2w when
 * |v| >= 2w, then w when what is left is still >= w in magnitude, gives
 * fmod's value: each subtraction is exact (Sterbenz: its operands are
 * within a factor of two). A negative remainder then takes w, and a zero
 * one the sign of w. The subtractions stand in for fmod below 4w because
 * every Map 2 iterate wraps twice on its loop-carried chain, and fmod's
 * library call is the slower way there.
 */
static double mod_two_pi(double v)
{
    if (!(fabs(v) < 4 * TWO_PI))  /* also NaN and +-inf */
        v = fmod(v, TWO_PI);
    else {
        if (v >= 2 * TWO_PI)
            v -= 2 * TWO_PI;
        else if (v <= -2 * TWO_PI)
            v += 2 * TWO_PI;
        if (v >= TWO_PI)
            v -= TWO_PI;
        else if (v <= -TWO_PI)
            v += TWO_PI;
    }
    if (v < 0)
        v += TWO_PI;
    else if (v == 0)
        v = 0.0;
    return v;
}

typedef struct { double x, y; } state_t;

/* One simultaneous update of Map 1 (map == 1) or Map 2, as `step_function`
 * makes it; ar is a*r. Checks nothing. */
static inline state_t step(int map, double r, double ar, double b, state_t s)
{
    state_t n;

    if (map == 1) {
        /* tanh first: the chain x -> tanh -> y -> cos -> x carries the
         * loop, so starting it early shortens each iterate */
        double t = tanh(s.x);
        n.x = sin(s.x) + cos(s.y);
        n.y = s.y - r * t;
    } else {
        n.x = mod_two_pi(((s.x + s.y * s.y) - ar) + PI) - PI;
        n.y = mod_two_pi((b * s.x) * s.x + PI) - PI;
    }
    return n;
}

/* Iterate Map 1 (map == 1) or Map 2 from state[0..1], discard `skip`
 * states, write the x (and, if ys is not NULL, the y) of the next n states.
 * state[] holds the last state on return. Returns -1, or the index, counted
 * from the start state, of the first iteration whose result is non-finite.
 */
long long chaos_fill(int map, double r, double ar, double b, double *state,
                     long long skip, double *xs, double *ys, long long n)
{
    state_t s = {state[0], state[1]};
    long long total = skip + n;

    for (long long i = 0; i < total; i++) {
        state_t next = step(map, r, ar, b, s);
        if (!(isfinite(next.x) && isfinite(next.y)))
            return i;
        s = next;
        if (i >= skip) {
            xs[i - skip] = s.x;
            if (ys)
                ys[i - skip] = s.y;
        }
    }
    state[0] = s.x;
    state[1] = s.y;
    return -1;
}

/* The rows of `analysis.bifurcation_sweep`, with its Python loop as their
 * oracle: for each of the `count` values r in rs, the map with a*r iterated
 * from (x0, y0) as `chaos_fill` iterates it, `skip` states discarded and the
 * x of the next n written to row xs[i*n .. (i+1)*n). The row of an r whose
 * orbit diverges is all NaN.
 */
void chaos_sweep(int map, const double *rs, long long count, double a, double b,
                 double x0, double y0, long long skip, double *xs, long long n)
{
    for (long long i = 0; i < count; i++) {
        double state[2] = {x0, y0};
        double *row = xs + i * n;
        if (chaos_fill(map, rs[i], a * rs[i], b, state, skip, row, NULL, n) >= 0)
            for (long long j = 0; j < n; j++)
                row[j] = NAN;
    }
}

/* `lyapunov_from_step` from (x, y) over `steps` steps of the map, with the
 * companion offset by d0. Returns -1 with the estimate in *out, or the
 * index of the first step whose distance d1 is non-finite or zero, with
 * that d1 in *out.
 */
long long chaos_lyapunov(int map, double r, double ar, double b, double x, double y,
                         double d0, long long steps, double *out)
{
    state_t s = {x, y}, c = {x + d0, y};
    double acc = 0.0;

    for (long long i = 0; i < steps; i++) {
        s = step(map, r, ar, b, s);
        c = step(map, r, ar, b, c);
        double dx = c.x - s.x, dy = c.y - s.y;
        double d1 = sqrt(dx * dx + dy * dy);
        if (!isfinite(d1) || d1 == 0.0) {
            *out = d1;
            return i;
        }
        acc += log(d1 / d0);
        double scale = d0 / d1;
        c.x = s.x + dx * scale;
        c.y = s.y + dy * scale;
    }
    *out = acc / (double)steps;
    return -1;
}

/* out[i] = src[index[i]] ^ key[i] for i < n: encryption. Checks nothing:
 * every index is below the length of src. */
void chaos_gather_xor(const uint8_t *src, const int32_t *index, const uint8_t *key,
                      uint8_t *out, long long n)
{
    for (long long i = 0; i < n; i++)
        out[i] = src[index[i]] ^ key[i];
}

/* out[index[i]] = src[i] ^ key[i] for i < n: decryption, the mirror of
 * chaos_gather_xor. Checks nothing: every index is below the length of out. */
void chaos_scatter_xor(const uint8_t *src, const int32_t *index, const uint8_t *key,
                       uint8_t *out, long long n)
{
    /* the stores land at random. A prefetch of each one's line, issued out
     * of order as soon as its index is loaded, starts the miss long before
     * the store leaves the store buffer. A prefetch 8 to 64 stores ahead
     * measured the same, and this loop without the prefetch instruction the
     * same as without a prefetch (ROADMAP, dead ends). */
    for (long long i = 0; i < n; i++) {
        __builtin_prefetch(out + index[i], 1);
        out[index[i]] = src[i] ^ key[i];
    }
}

/* index[i] = src[index[i]] for i < n: the gather `src[index]`, written over
 * its own index. Checks nothing: every index is below the length of src,
 * which does not overlap index. */
void chaos_gather_in_place(const int32_t *src, int32_t *index, long long n)
{
    for (long long i = 0; i < n; i++)
        index[i] = src[index[i]];
}

/* One slot of the key schedule, for i < n: with p = s0[c[i]],
 * r[i] = layout[p], k[i] = x[p] ^ y[c[i]] and seen[p] = 1, where layout
 * and seen are the other slot's part of L and of the bijection check.
 * Checks nothing: every c[i] and p is below n.
 */
void chaos_slot(const int32_t *c, const int32_t *s0, const uint8_t *x, const uint8_t *y,
                const int32_t *layout, int32_t *r, uint8_t *k, uint8_t *seen, long long n)
{
    for (long long i = 0; i < n; i++) {
        int32_t ci = c[i], p = s0[ci];
        r[i] = layout[p];
        k[i] = x[p] ^ y[ci];
        seen[p] = 1;
    }
}

/* out[i] = mod(round(1e12 * src[i]), 256), rounded half away from zero, for
 * i < n, as `maps.quantize_to_bytes` computes it with numpy: |v| clamped to
 * 2**62 / 1e12, then copysign(|v| * 1e12 + 0.5, v) cut to an integer, whose
 * low byte is the result. Returns -1, or the index of the first non-finite
 * value, with the bytes before it written. */
long long chaos_quantize(const double *src, uint8_t *out, long long n)
{
    const double clamp = 4611686018427387904.0 / 1e12;  /* 2**62 / 1e12 */

    for (long long i = 0; i < n; i++) {
        double v = src[i], q = fabs(v);
        if (!isfinite(v))
            return i;
        q = q < clamp ? q : clamp;
        out[i] = (uint8_t)(int64_t)copysign(q * 1e12 + 0.5, v);
    }
    return -1;
}

/* The argsort of `maps.permutation_from_sequence`, with its numpy lines as
 * the oracle, in two passes around numpy's sort of the words. chaos_pack
 * writes each value's word over it, in the value's own 8 bytes: the float
 * bits with -0.0 folded into +0.0 and a negative's magnitude bits flipped
 * are a key that orders like the values; its low b bits go to perm[i], and
 * the word is the key with those bits replaced by i. Returns -1, or the
 * index of the first non-finite value, with the words before it written.
 */
long long chaos_pack(int64_t *words, int32_t *perm, long long n, int b)
{
    const int64_t low = ((int64_t)1 << b) - 1;

    for (long long i = 0; i < n; i++) {
        double v;
        int64_t key;

        memcpy(&v, words + i, sizeof v);
        if (!isfinite(v))
            return i;
        v += 0.0;  /* -0.0 + 0.0 is +0.0 */
        memcpy(&key, &v, sizeof key);
        if (key < 0)
            key ^= INT64_MAX;
        perm[i] = (int32_t)(key & low);
        words[i] = (key & ~low) | i;
    }
    return -1;
}

/* Move w[i] down the max-heap w[0..m) to its place. */
static void sift_down(int64_t *w, long long i, long long m)
{
    int64_t v = w[i];

    for (long long c; (c = 2 * i + 1) < m; i = c) {
        if (c + 1 < m && w[c + 1] > w[c])
            c++;
        if (w[c] <= v)
            break;
        w[i] = w[c];
    }
    w[i] = v;
}

/* Sort w[0..m) ascending in place by heap sort, with no allocation: its
 * m log m bounds the run of a weak key's few repeated values, and the short
 * runs of a healthy orbit are too rare to pay for a second sort. The words
 * are distinct, so the order of equal ones does not arise. */
static void sort_run(int64_t *w, long long m)
{
    for (long long i = m / 2; i-- > 0;)
        sift_down(w, i, m);
    while (--m > 0) {
        int64_t top = w[0];
        w[0] = w[m];
        w[m] = top;
        sift_down(w, 0, m);
    }
}

/* The second pass of the argsort, over the words of chaos_pack once they
 * are sorted: they order by (key prefix, index), so only a run of words
 * that share a prefix can be out of the stable order. Within a run the
 * prefix is the same, so each word becomes (low bits << b) | index, at most
 * 62 bits and distinct, and the run is sorted in place. Then perm[j] takes
 * the index in words[j]. */
void chaos_unpack(int64_t *words, int32_t *perm, long long n, int b)
{
    const int64_t low = ((int64_t)1 << b) - 1;

    for (long long start = 0, stop; start < n; start = stop) {
        for (stop = start + 1; stop < n && !((uint64_t)(words[stop] ^ words[start]) >> b); stop++)
            ;
        if (stop - start > 1) {
            for (long long j = start; j < stop; j++) {
                int64_t index = words[j] & low;
                words[j] = (int64_t)perm[index] << b | index;
            }
            sort_run(words + start, stop - start);
        }
    }
    for (long long j = 0; j < n; j++)
        perm[j] = (int32_t)(words[j] & low);
}


/* Map 1's orbit through the four segments of a key-schedule slot, iterated
 * on a thread of its own by `chaos_fill`'s loop, for
 * `cipher.build_key_schedule`, which keys Map 2 meanwhile. The caller
 * allocates this handle (`chaos_orbit_size` bytes, zeroed) and the
 * buffers, and frees none of them before `chaos_orbit_join` has returned.
 *
 * Two orbit buffers take turns: segment k is written into xs[k % 2], its y
 * values too for k = 0 (into ys), once the caller has given k buffers
 * back. So the thread starts on xs[0] at once, while the caller fills Map
 * 2's segment into xs[1] and folds it; then one `_take` per segment gives
 * that buffer back and waits for Map 1's next segment. The counters
 * `given`, `filled` and the flags `over` and `stop` change under `lock`,
 * with a broadcast on `moved`, and are read without it by atomic loads;
 * the release store of `filled` publishes the values of its segment, and
 * that of `over` the divergence index in `bad`. A wait spins for up to
 * SPIN_NS and then blocks on `moved`: waking a sleeping vCPU costs about
 * as much as the thread saves, while each spin's sched_yield lets a thread
 * queued on the waiter's own vCPU run.
 */
typedef struct {
    pthread_mutex_t lock;
    pthread_cond_t moved;
    pthread_t thread;
    int started;  /* a thread runs that `_join` must end */
    double r, state[2];
    long long skip, n;
    double *ys, *xs[2];
    long long given, filled, over, stop, bad;
} orbit_t;

#define SPIN_NS 1000000

static long long load(const long long *p)
{
    return __atomic_load_n(p, __ATOMIC_ACQUIRE);
}

static void publish(orbit_t *o, long long *p, long long value)
{
    pthread_mutex_lock(&o->lock);
    __atomic_store_n(p, value, __ATOMIC_RELEASE);
    pthread_cond_broadcast(&o->moved);
    pthread_mutex_unlock(&o->lock);
}

static void cpu_pause(void)
{
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    __asm__ __volatile__("yield");
#endif
}

/* Wait until *count > above or *flag is set. */
static void wait_for(orbit_t *o, const long long *count, long long above, const long long *flag)
{
    struct timespec t0, t;

    clock_gettime(CLOCK_MONOTONIC, &t0);
    while (!(load(count) > above || load(flag))) {
        cpu_pause();
        sched_yield();
        clock_gettime(CLOCK_MONOTONIC, &t);
        if ((t.tv_sec - t0.tv_sec) * 1000000000LL + (t.tv_nsec - t0.tv_nsec) > SPIN_NS) {
            pthread_mutex_lock(&o->lock);
            while (!(load(count) > above || load(flag)))
                pthread_cond_wait(&o->moved, &o->lock);
            pthread_mutex_unlock(&o->lock);
            return;
        }
    }
}

/* The thread: each segment in turn, until the orbit diverges (its index,
 * counted from the seed, in `bad`) or `stop` is set at a segment's start. */
static void *orbit_run(void *arg)
{
    orbit_t *o = arg;
    long long done = 0;  /* iterations since the seed */

    for (long long k = 0; k < 4; k++) {
        wait_for(o, &o->given, k - 1, &o->stop);
        if (load(&o->stop))
            break;
        long long skip = k ? 0 : o->skip;
        long long bad = chaos_fill(1, o->r, 0.0, 0.0, o->state, skip, o->xs[k % 2],
                                   k ? NULL : o->ys, o->n);
        if (bad >= 0) {
            o->bad = done + bad;
            break;
        }
        done += skip + o->n;
        publish(o, &o->filled, k + 1);
    }
    publish(o, &o->over, 1);
    return NULL;
}

long long chaos_orbit_size(void)
{
    return sizeof(orbit_t);
}

/* Start the thread on Map 1's orbit from (x0, y0), `skip` states
 * discarded, in segments of n values, on a handle that is all zero bytes
 * or joined. Returns 0, or pthread_create's error number, with no thread
 * started. The thread blocks every signal, so that the process's signals
 * reach the caller's threads. */
long long chaos_orbit_start(orbit_t *o, double r, double x0, double y0, long long skip,
                            double *ys, double *xs0, double *xs1, long long n)
{
    sigset_t all, old;

    *o = (orbit_t){.r = r, .state = {x0, y0}, .skip = skip, .n = n, .ys = ys,
                   .xs = {xs0, xs1}};
    pthread_mutex_init(&o->lock, NULL);
    pthread_cond_init(&o->moved, NULL);
    sigfillset(&all);
    pthread_sigmask(SIG_SETMASK, &all, &old);
    int err = pthread_create(&o->thread, NULL, orbit_run, o);
    pthread_sigmask(SIG_SETMASK, &old, NULL);
    o->started = !err;
    if (err) {
        pthread_cond_destroy(&o->moved);
        pthread_mutex_destroy(&o->lock);
    }
    return err;
}

/* Give the thread back the buffer of the caller's last segment, for its
 * next one, and wait for the next segment: -1 once it is in its buffer, or
 * the index at which the orbit diverged before it. */
long long chaos_orbit_take(orbit_t *o)
{
    long long k = load(&o->given);

    publish(o, &o->given, k + 1);
    wait_for(o, &o->filled, k, &o->over);
    return load(&o->filled) > k ? -1 : o->bad;
}

/* Stop the thread at its next segment's start, unless it is over, and wait
 * for it to end. Does nothing where no thread was started: on a handle of
 * zero bytes, one whose start failed, or one already joined. So a caller
 * can join in the `finally` of a block that starts the thread, and an
 * interrupt raised on either side of the start leaves no thread. */
void chaos_orbit_join(orbit_t *o)
{
    if (!o->started)
        return;
    o->started = 0;
    publish(o, &o->stop, 1);
    pthread_join(o->thread, NULL);
    pthread_cond_destroy(&o->moved);
    pthread_mutex_destroy(&o->lock);
}


#ifdef __SIZEOF_INT128__
/* 5**j for j <= 27, the powers below 2**63 */
static const uint64_t POW5[28] = {
    1u, 5u, 25u, 125u,
    625u, 3125u, 15625u, 78125u,
    390625u, 1953125u, 9765625u, 48828125u,
    244140625u, 1220703125u, 6103515625u, 30517578125u,
    152587890625u, 762939453125u, 3814697265625u, 19073486328125u,
    95367431640625u, 476837158203125u, 2384185791015625u, 11920928955078125u,
    59604644775390625u, 298023223876953125u, 1490116119384765625u, 7450580596923828125u,
};

/* m * 2**k * 10**j rounded half to even, for m < 2**53: m * 5**j < 2**116
 * is exact in 128 bits, and a shift by j + k scales it by 2**(j + k).
 * Returns -1 if j is outside [0, 27] or the result does not fit in 63 bits.
 */
static long long scaled(uint64_t m, int k, int j)
{
    if (j < 0 || j > 27)
        return -1;
    unsigned __int128 x = (unsigned __int128)m * POW5[j];
    int s = j + k;

    if (s >= 0)
        return s < 63 && x >> (63 - s) == 0 ? (long long)(x << s) : -1;
    s = -s;
    if (s > 116)  /* x < 2**116 <= half */
        return 0;
    /* (x + half - 1 + the low bit of x >> s) >> s: a remainder above half
     * carries, and half carries only into an odd quotient */
    unsigned __int128 bias = ((unsigned __int128)1 << (s - 1)) - 1 + (unsigned)(x >> s & 1);
    return (long long)((x + bias) >> s);
}

/* "00", "01", ..., "99": the digits of each number below 100 */
static const char PAIRS[] =
    "0001020304050607080910111213141516171819"
    "2021222324252627282930313233343536373839"
    "4041424344454647484950515253545556575859"
    "6061626364656667686970717273747576777879"
    "8081828384858687888990919293949596979899";

/* Python's f"{v:.12g}" written at out; returns its length, or 0 to refuse
 * v, which it does exactly when v is finite and |v| is nonzero and below
 * 2**-53 (about 1.1e-16), or above 1e12 + 0.5. No byte is written 18 or
 * more bytes past out, so a row's two fields stay within its 39 bytes.
 *
 * Each step is exact:
 *   - v = m * 2**k with the integer m < 2**53 and k read from v's bits, as
 *     frexp and a scaling by 2**53 would give them; 2**(k + 52) <= v holds
 *     for a normal v, and every subnormal is below 2**-53;
 *   - e = ((k + 52) * 78913) >> 18 is floor((k + 52) * log10(2)) for every
 *     k + 52 in [-53, 39], the exponents that are not refused at once (the
 *     test suite checks each), so e is the decimal exponent of v or one
 *     below it (the shift is arithmetic, as gcc and clang make it);
 *   - the 12 digits are N = round_half_even(|v| * 10**(11 - e)) in integer
 *     arithmetic (`scaled`), so N >= 1e11, and N > 1e12 takes e one up;
 *     N = 1e12 is the carry of a value that rounds up to the next decade:
 *     1e11 at e + 1. CPython's dtoa rounds correctly and half to even too,
 *     so the digits are the same;
 *   - N's digits come two at a time from PAIRS; fixed-size copies lay
 *     them out, all 12 of them, and the length keeps the ones before the
 *     trailing zeros (only the digits after a point within them move one
 *     at a time).
 *
 * The layout is format()'s for 'g': fixed notation for -4 <= e < 12 and
 * e+XX/e-XX otherwise, trailing zeros dropped, "-0" for -0.0, "nan" for
 * either NaN, "inf" and "-inf".
 */
static int format_g12(double v, char *out)
{
    uint64_t bits;
    char *p = out;

    memcpy(&bits, &v, sizeof bits);
    int biased = (int)(bits >> 52 & 0x7ff);
    uint64_t m = bits & (((uint64_t)1 << 52) - 1);
    if (biased == 0x7ff && m) {
        memcpy(p, "nan", 3);
        return 3;
    }
    *p = '-';
    p += bits >> 63;
    if (biased == 0x7ff) {
        memcpy(p, "inf", 3);
        return (int)(p - out) + 3;
    }
    if (biased == 0) {
        *p = '0';
        return m ? 0 : (int)(p - out) + 1;  /* a subnormal is below 2**-53 */
    }
    int k = biased - 1075;
    m |= (uint64_t)1 << 52;
    if (k + 52 < -53 || k + 52 > 39)  /* v < 2**-53 or v >= 2**40 */
        return 0;
    int e = ((k + 52) * 78913) >> 18;
    long long n = scaled(m, k, 11 - e);
    if (n > 1000000000000LL)
        n = scaled(m, k, 11 - ++e);
    if (n < 0 || n > 1000000000000LL)
        return 0;
    if (n == 1000000000000LL) {
        n /= 10;
        e++;
    }

    char d[12];
    uint32_t hi = (uint32_t)(n / 1000000), lo = (uint32_t)(n % 1000000);
    memcpy(d, PAIRS + 2 * (hi / 10000), 2);
    memcpy(d + 2, PAIRS + 2 * (hi / 100 % 100), 2);
    memcpy(d + 4, PAIRS + 2 * (hi % 100), 2);
    memcpy(d + 6, PAIRS + 2 * (lo / 10000), 2);
    memcpy(d + 8, PAIRS + 2 * (lo / 100 % 100), 2);
    memcpy(d + 10, PAIRS + 2 * (lo % 100), 2);
    int nd = 12;
    while (d[nd - 1] == '0')  /* d[0] is not '0' */
        nd--;
    if (e < -4 || e >= 12) {
        p[0] = d[0];
        p[1] = '.';
        memcpy(p + 2, d + 1, 11);
        p += nd > 1 ? nd + 1 : 1;
        p[0] = 'e';
        p[1] = e < 0 ? '-' : '+';
        memcpy(p + 2, PAIRS + 2 * abs(e), 2);  /* |e| <= 16 */
        p += 4;
    } else if (e >= 0) {
        memcpy(p, d, 12);
        p[e + 1] = '.';
        for (int i = e + 1; i < nd; i++)
            p[i + 1] = d[i];
        p += nd > e + 1 ? nd + 1 : e + 1;
    } else {
        memcpy(p, "0.000", 5);
        memcpy(p + 1 - e, d, 12);
        p += 1 - e + nd;
    }
    return (int)(p - out);
}
#endif

/* The CSV lines "a,b\r\n" of the n rows pairs[2i], pairs[2i + 1], each
 * field Python's f"{v:.12g}", at out (at most 39 bytes a row), with
 * `analysis._lines` as their oracle. Returns the number of bytes written,
 * or -1 if `format_g12` refuses a value, and always -1 where the compiler
 * has no 128-bit integers: the caller then formats the rows in Python. */
long long chaos_format_rows(const double *pairs, long long n, char *out)
{
#ifdef __SIZEOF_INT128__
    char *p = out;

    for (long long i = 0; i < 2 * n; i++) {
        int len = format_g12(pairs[i], p);
        if (!len)
            return -1;
        p += len;
        if (i & 1) {
            *p++ = '\r';
            *p++ = '\n';
        } else
            *p++ = ',';
    }
    return p - out;
#else
    return -1;
#endif
}
