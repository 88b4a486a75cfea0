/* Compiled loops of the two chaotic maps: `chaos_fill` iterates a map from
 * a seed, with `maps.step_function` as its oracle, and `chaos_lyapunov`
 * runs `analysis.lyapunov_from_step` over that step. Two byte loops,
 * `chaos_gather_xor` and `chaos_scatter_xor`, make the cipher's one pass
 * over an image, with the numpy lines of `cipher._gather_xor` and
 * `cipher._scatter_xor` as their oracles.
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
 *   - `py_hypot` is the two-argument `math.hypot` of CPython 3.11
 *     (vector_norm in Modules/mathmodule.c).
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

/* Error-free transformations of Dekker (1971), as CPython writes them */
typedef struct { double hi, lo; } dl_t;

static inline dl_t dl_fast_sum(double a, double b)  /* needs |a| >= |b| */
{
    double x = a + b;
    double z = x - a;
    return (dl_t){x, b - z};
}

static inline dl_t dl_split(double x)
{
    double t = x * 134217729.0;  /* 2**27 + 1 */
    double hi = t - (t - x);
    return (dl_t){hi, x - hi};
}

static inline dl_t dl_mul(double x, double y)
{
    dl_t xx = dl_split(x), yy = dl_split(y);
    double p = xx.hi * yy.hi;
    double q = xx.hi * yy.lo + xx.lo * yy.hi;
    double z = p + q;
    return (dl_t){z, p - z + q + xx.lo * yy.lo};
}

/* math.hypot(a, b): both squares, scaled by a power of two so that the
 * larger lies in [0.25, 1), are summed exactly onto 1.0 with their rounding
 * errors kept apart; the square root of the sum gets one differential
 * correction. Below 2**-1024, where that power of two would overflow, both
 * values are divided by the larger instead and their squares summed with
 * one compensation term.
 */
static double py_hypot(double a, double b)
{
    double v[2] = {fabs(a), fabs(b)};
    double max = 0.0, csum = 1.0, frac1 = 0.0, frac2 = 0.0, scale, h, x;
    dl_t pr, sm;
    int max_e;

    for (int i = 0; i < 2; i++)
        if (v[i] > max)
            max = v[i];
    if (isinf(max))
        return max;
    if (isnan(v[0]) || isnan(v[1]))
        return NAN;
    if (max == 0.0)
        return max;
    frexp(max, &max_e);
    if (max_e < -1023) {
        for (int i = 0; i < 2; i++) {
            x = v[i] / max;
            x = x * x;
            double oldcsum = csum;
            csum += x;
            frac1 += (oldcsum - csum) + x;
        }
        return max * sqrt(csum - 1.0 + frac1);
    }
    scale = ldexp(1.0, -max_e);
    for (int i = 0; i < 2; i++) {
        x = v[i] * scale;
        pr = dl_mul(x, x);
        sm = dl_fast_sum(csum, pr.hi);
        csum = sm.hi;
        frac1 += pr.lo;
        frac2 += sm.lo;
    }
    h = sqrt(csum - 1.0 + (frac1 + frac2));
    pr = dl_mul(-h, h);
    sm = dl_fast_sum(csum, pr.hi);
    csum = sm.hi;
    frac1 += pr.lo;
    frac2 += sm.lo;
    x = csum - 1.0 + (frac1 + frac2);
    h += x / (2.0 * h);
    return h / scale;
}

/* py_hypot(xs[i], ys[i]) into out[i] for i < n: the tests' handle on it */
void chaos_hypot(const double *xs, const double *ys, double *out, long long n)
{
    for (long long i = 0; i < n; i++)
        out[i] = py_hypot(xs[i], ys[i]);
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
        double d1 = py_hypot(c.x - s.x, c.y - s.y);
        if (!isfinite(d1) || d1 == 0.0) {
            *out = d1;
            return i;
        }
        acc += log(d1 / d0);
        double scale = d0 / d1;
        c.x = s.x + (c.x - s.x) * scale;
        c.y = s.y + (c.y - s.y) * scale;
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
