/* Compiled loop of the two chaotic maps; `maps.step_function` is its oracle.
 *
 * Every operation mirrors CPython float semantics, so the bytes match the
 * pure-Python path bit for bit:
 *   - sin, cos and tanh are the libm functions that `math` calls; they are
 *     pure, so the order of the calls is free, but each expression keeps
 *     the evaluation order of `step_function`;
 *   - `mod_two_pi` is CPython's float `%` by 2*pi (float_rem): the remainder
 *     with the sign of the dividend, then a sign fix, then a zero result
 *     takes the sign of the divisor. Below 4*2*pi in magnitude the
 *     remainder comes from at most two exact subtractions; from there on,
 *     and for NaN and +-inf, from fmod (`py_mod`).
 * Build with -ffp-contract=off and without -ffast-math: a fused multiply-add
 * or a reassociated sum rounds differently and changes the orbit.
 */
#include <math.h>

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

/* Iterate Map 1 (map == 1) or Map 2 from state[0..1], discard `skip`
 * states, write the x (and, if ys is not NULL, the y) of the next n states.
 * state[] holds the last state on return. Returns -1, or the index, counted
 * from the start state, of the first iteration whose result is non-finite.
 */
long long chaos_fill(int map, double r, double ar, double b, double *state,
                     long long skip, double *xs, double *ys, long long n)
{
    double x = state[0], y = state[1], nx, ny;
    long long total = skip + n;

    for (long long i = 0; i < total; i++) {
        if (map == 1) {
            /* tanh first: the chain x -> tanh -> y -> cos -> x carries the
             * loop, so starting it early shortens each iterate */
            double t = tanh(x);
            nx = sin(x) + cos(y);
            ny = y - r * t;
        } else {
            nx = mod_two_pi(((x + y * y) - ar) + PI) - PI;
            ny = mod_two_pi((b * x) * x + PI) - PI;
        }
        if (!(isfinite(nx) && isfinite(ny)))
            return i;
        x = nx;
        y = ny;
        if (i >= skip) {
            xs[i - skip] = x;
            if (ys)
                ys[i - skip] = y;
        }
    }
    state[0] = x;
    state[1] = y;
    return -1;
}
