/* Compiled loops of the two chaotic maps: `chaos_fill` iterates a map from
 * a seed, with `maps.step_function` as its oracle, and `chaos_lyapunov`
 * runs `analysis.lyapunov_from_step` over that step. Two byte loops,
 * `chaos_gather_xor` and `chaos_scatter_xor`, make the cipher's one pass
 * over an image, with the numpy lines of `cipher._gather_xor` and
 * `cipher._scatter_xor` as their oracles. Two index loops build the key
 * schedule without an intp copy of any index: `chaos_gather_in_place`
 * composes two permutations into the second, and `chaos_slot` writes one
 * slot of the schedule, with the numpy lines of `cipher._compose` and
 * `cipher._slot` as their oracles.
 *
 * Every operation mirrors CPython float semantics, so the bytes match the
 * pure-Python path bit for bit:
 *   - sin, cos, tanh and log are the libm functions that `math` calls; they
 *     are pure, so the order of the calls is free, but each expression
 *     keeps the evaluation order of the Python code;
 *   - `mod_two_pi` is CPython's float `%` by 2*pi (float_rem): the remainder
 *     with the sign of the dividend, then a sign fix, then a zero result
 *     takes the sign of the divisor. Below 4*2*pi in magnitude the
 *     remainder comes from at most two exact subtractions; from there on,
 *     and for NaN and +-inf, from fmod (`py_mod`);
 *   - the Lyapunov distance is sqrt(dx*dx + dy*dy) in both languages;
 *     IEEE-754 rounds sqrt, * and + correctly, so it is the same double.
 * Build with -ffp-contract=off and without -ffast-math: a fused multiply-add
 * or a reassociated sum rounds differently and changes the orbit.
 */
#include <math.h>
#include <stdint.h>

static const double PI = 3.141592653589793;
static const double TWO_PI = 6.283185307179586;

static double py_mod(double v, double w)
{
    double mod = fmod(v, w);
    if (mod) {
        if ((w < 0) != (mod < 0))
            mod += w;
    } else {
        mod = copysign(0.0, w);
    }
    return mod;
}

/* v % TWO_PI as CPython computes it. For |v| < 4w (w = TWO_PI) the remainder
 * with v's sign is found by subtracting 2w when |v| >= 2w, then w when what
 * is left is still >= w in magnitude. Each subtraction is exact (Sterbenz:
 * its operands are within a factor of two), so the result is fmod's up to
 * the sign of a zero, which the sign fix overrides as py_mod's does.
 */
static double mod_two_pi(double v)
{
    if (!(fabs(v) < 4 * TWO_PI))  /* also NaN and +-inf */
        return py_mod(v, TWO_PI);
    if (v >= 2 * TWO_PI)
        v -= 2 * TWO_PI;
    else if (v <= -2 * TWO_PI)
        v += 2 * TWO_PI;
    if (v >= TWO_PI)
        v -= TWO_PI;
    else if (v <= -TWO_PI)
        v += TWO_PI;
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
    for (long long i = 0; i < n; i++)
        out[index[i]] = src[i] ^ key[i];
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
 * r[i] = p + offset, k[i] = x[p] ^ y[c[i]] and seen[r[i]] = 1. Checks
 * nothing: every c[i] and p is below n, and every r[i] below the length of
 * seen. */
void chaos_slot(const int32_t *c, const int32_t *s0, const uint8_t *x, const uint8_t *y,
                long long offset, int32_t *r, uint8_t *k, uint8_t *seen, long long n)
{
    for (long long i = 0; i < n; i++) {
        int32_t ci = c[i], p = s0[ci];
        r[i] = (int32_t)(p + offset);
        k[i] = x[p] ^ y[ci];
        seen[p + offset] = 1;
    }
}
