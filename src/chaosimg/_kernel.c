/* Compiled loop of the two chaotic maps; `maps.step_function` is its oracle.
 *
 * Every operation mirrors CPython float semantics, so the bytes match the
 * pure-Python path bit for bit:
 *   - sin, cos and tanh are the libm functions that `math` calls;
 *   - `py_mod` is CPython's float `%` (float_rem): fmod, then a sign fix,
 *     then a zero result takes the sign of the divisor;
 *   - each expression keeps the evaluation order of `step_function`.
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
            nx = sin(x) + cos(y);
            ny = y - r * tanh(x);
        } else {
            nx = py_mod(((x + y * y) - ar) + PI, TWO_PI) - PI;
            ny = py_mod((b * x) * x + PI, TWO_PI) - PI;
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
