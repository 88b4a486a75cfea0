/* Compiled loops of the two chaotic maps: `chaos_fill` iterates a map from
 * a seed, with `maps.step_function` as its oracle, and `chaos_lyapunov`
 * runs `analysis.lyapunov_from_step` over that step. Two byte loops,
 * `chaos_gather_xor` and `chaos_scatter_xor`, make the cipher's one pass
 * over an image, with the numpy lines of `cipher._gather_xor` and
 * `cipher._scatter_xor` as their oracles. Two index loops build the key
 * schedule without an intp copy of any index: `chaos_gather_in_place`
 * composes two permutations into the second, and `chaos_slot` writes one
 * slot of the final pair (R, K) through the layout, with the numpy lines
 * of `cipher._compose` and `cipher._slot` as their oracles. One text loop,
 * `chaos_format_rows`, writes the rows of the analysis CSVs in the bytes
 * of Python's `.12g` format from integer digits (see `format_g12`).
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
 *     IEEE-754 rounds sqrt, * and + correctly, so it is the same double.
 * Build with -ffp-contract=off and without -ffast-math: a fused multiply-add
 * or a reassociated sum rounds differently and changes the orbit.
 */
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

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
    unsigned __int128 q = x >> s, rest = x - (q << s), half = (unsigned __int128)1 << (s - 1);
    if (rest > half || (rest == half && (q & 1)))
        q++;
    return (long long)q;
}

/* Python's f"{v:.12g}" written at out (at most 18 bytes); returns its
 * length, or 0 to refuse v, which it does exactly when v is finite and |v|
 * is nonzero and below 2**-53 (about 1.1e-16), or above 1e12 + 0.5.
 *
 * The 12 digits are N = round_half_even(|v| * 10**(11 - e)) in integer
 * arithmetic (`scaled`), with e the decimal exponent of v. Its seed, from
 * the binary exponent, is that exponent or one below it: so N >= 1e11, and
 * N > 1e12 takes e one up. N = 1e12 is the carry of a value that rounds up
 * to the next decade: 1e11 at e + 1. CPython's dtoa rounds correctly and
 * half to even too, so the digits are the same. Only exact float
 * operations (frexp, a scaling by 2**53, floor) touch v, so no digit
 * depends on libm's rounding.
 *
 * The layout is format()'s for 'g': fixed notation for -4 <= e < 12 and
 * e+XX/e-XX otherwise, trailing zeros dropped, "-0" for -0.0, "nan" for
 * either NaN, "inf" and "-inf".
 */
static int format_g12(double v, char *out)
{
    char *p = out;

    if (isnan(v)) {
        memcpy(p, "nan", 3);
        return 3;
    }
    if (signbit(v))
        *p++ = '-';
    v = fabs(v);
    if (isinf(v)) {
        memcpy(p, "inf", 3);
        return (int)(p - out) + 3;
    }
    if (v == 0) {
        *p = '0';
        return (int)(p - out) + 1;
    }
    int exponent;
    uint64_t m = (uint64_t)(frexp(v, &exponent) * 0x1p53);  /* v = m * 2**(exponent - 53) */
    /* 2**(exponent - 1) <= v < 2**exponent, and log10(2) < 1 */
    int e = (int)floor((exponent - 1) * 0.30102999566398120);
    long long n = scaled(m, exponent - 53, 11 - e);
    if (n > 1000000000000LL)
        n = scaled(m, exponent - 53, 11 - ++e);
    if (n < 0 || n > 1000000000000LL)
        return 0;
    if (n == 1000000000000LL) {
        n /= 10;
        e++;
    }

    char d[12];
    int nd = 12;
    uint32_t hi = (uint32_t)(n / 1000000), lo = (uint32_t)(n % 1000000);
    for (int i = 5; i >= 0; i--, hi /= 10, lo /= 10) {
        d[i] = (char)('0' + hi % 10);
        d[i + 6] = (char)('0' + lo % 10);
    }
    while (d[nd - 1] == '0')  /* d[0] is not '0' */
        nd--;
    if (e < -4 || e >= 12) {
        *p++ = d[0];
        if (nd > 1) {
            *p++ = '.';
            memcpy(p, d + 1, nd - 1);
            p += nd - 1;
        }
        *p++ = 'e';
        *p++ = e < 0 ? '-' : '+';
        *p++ = (char)('0' + abs(e) / 10);  /* |e| <= 16 */
        *p++ = (char)('0' + abs(e) % 10);
    } else if (e >= 0) {
        memcpy(p, d, e + 1);
        p += e + 1;
        if (nd > e + 1) {
            *p++ = '.';
            memcpy(p, d + e + 1, nd - e - 1);
            p += nd - e - 1;
        }
    } else {
        *p++ = '0';
        *p++ = '.';
        memset(p, '0', -e - 1);
        p += -e - 1;
        memcpy(p, d, nd);
        p += nd;
    }
    return (int)(p - out);
}
#endif

/* The CSV lines "a,b\r\n" of the n rows pairs[2i], pairs[2i + 1], each
 * field Python's f"{v:.12g}", at out (at most 39 bytes a row), with
 * `analysis._write_csv`'s expression as their oracle. Returns the number
 * of bytes written, or -1 if `format_g12` refuses a value, and always -1
 * where the compiler has no 128-bit integers: the caller then formats the
 * rows in Python. */
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
