"""The package's compiled loops: one C source, built with ``cc`` on the
first call that wants a loop in a process and called through ctypes,
which releases the interpreter lock while a loop runs.

There are three loops.  ``adam_update`` is :func:`nn.adam_step`'s update,
``render_clean`` is :func:`synth.render_clean_depth`'s ray cast after the
per-capsule products, and ``layer_norm`` is one hidden layer of
:func:`nn.forward` after its matrix product (bias, LayerNorm with numpy's
pairwise row sums, dropout and ReLU), in place in eval mode.  ``cc`` is a
requirement, as numpy is: where the library does
not build, :func:`loop` raises RuntimeError naming ``cc`` and the reason,
and the callers refuse the inputs a loop cannot take before they call it.
The build is paid once per process (0.27 s on a 2-vCPU VM), keeps no file
on disk, and the compiler has exited before :func:`loop` returns.
"""

from __future__ import annotations

import ctypes
import os
import shutil
import subprocess
import tempfile
import threading
import warnings
from collections import Counter

import numpy as np

# -ffp-contract=off keeps ``a*b + c`` from becoming a fused multiply-add,
# and -fno-math-errno lets sqrt be the one IEEE instruction.  -ffast-math
# and -Ofast are never used: they reorder the arithmetic and link start-up
# code that sets flush-to-zero for the whole process, which would change
# numpy's own results.  Each loop returns the IEEE exceptions it raised,
# so that np.errstate governs them as it governs numpy's own operations.
_SOURCE = r"""
#include <fenv.h>
#include <math.h>

/* The IEEE exceptions raised since the last call, as bits 0-3: divide,
   overflow, underflow, invalid. */
static int raised_flags(void)
{
    const int raised = fetestexcept(FE_ALL_EXCEPT);
    feclearexcept(FE_ALL_EXCEPT);
    return (raised & FE_DIVBYZERO ? 1 : 0) | (raised & FE_OVERFLOW ? 2 : 0)
         | (raised & FE_UNDERFLOW ? 4 : 0) | (raised & FE_INVALID ? 8 : 0);
}

int adam_update(double *restrict p, const double *restrict g, double *restrict m, double *restrict v,
                long n, double b1, double b2, double c1, double c2, double lr, double eps)
{
    const double a1 = 1.0 - b1, a2 = 1.0 - b2;
    feclearexcept(FE_ALL_EXCEPT);
    for (long i = 0; i < n; i++) {
        const double mi = m[i] * b1 + g[i] * a1;
        const double vi = v[i] * b2 + (g[i] * a2) * g[i];
        const double d = sqrt(vi / c2) + eps;
        m[i] = mi;
        v[i] = vi;
        p[i] = p[i] - ((mi / c1) * lr) / d;
    }
    return raised_flags();
}

/* np.searchsorted on rays[0:n], ascending and free of NaN: the count of
   rays below v (left), or not above it (right). */
static long search(const double *rays, long n, double v, int right)
{
    long lo = 0, hi = n;
    while (lo < hi) {
        const long mid = lo + (hi - lo) / 2;
        if (right ? !(v < rays[mid]) : rays[mid] < v)
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo;
}

/* The window of one box: [*start, *stop) of the rays between its
   extreme corner slopes along x (i = 0) or y (i = 1), padded by one ray
   each side against rounding, or all n rays when the box reaches z <= 0. */
static void window(const double *lo, const double *hi, int i, const double *rays, long n,
                   long *start, long *stop)
{
    const double s[4] = {lo[i] / lo[2], lo[i] / hi[2], hi[i] / lo[2], hi[i] / hi[2]};
    double first = s[0], last = s[0];
    for (int j = 1; j < 4; j++) {
        first = first < s[j] ? first : s[j];
        last = last > s[j] ? last : s[j];
    }
    const long a = search(rays, n, first, 0) - 1, b = search(rays, n, last, 1) + 1;
    const int front = lo[2] > 0.0;
    *start = front && a > 0 ? a : 0;
    *stop = front && b < n ? b : n;
}

/* The entry depth of one ray into a sphere, from d.center (dc), d.d (dd)
   and |center|^2 - radius^2 (c): inf unless it is > 0, and at once for a
   negative discriminant, which misses. */
static double sphere_entry(double dc, double dd, double c)
{
    const double disc = dc * dc - c * dd;
    if (disc < 0.0)
        return INFINITY;
    const double t = (dc - sqrt(disc)) / dd;
    return t > 0.0 ? t : INFINITY;
}

/* render_clean_depth after the per-capsule products: each capsule over
   its window, a capsule shorter than 1e-9 mm being the sphere at its a
   end alone, then each occluder as a row test times a column test, the
   background, then NaN where no surface returns.  out is height x width;
   rays holds width + height.  Returns the overflow and underflow raised;
   the divide and invalid flags come from rays that miss (inf - inf once
   both products overflow, a zero d_perp_sq) and are not reported. */
int render_clean(double *restrict out, double *restrict rays, long width, long height,
                 double fx, double fy, double cx, double cy,
                 long n, const double *a, const double *b, const double *radii, const double *length,
                 const double *a_sq, const double *b_sq, const double *axis, const double *a_par,
                 long n_occ, const double *occ, double background)
{
    double *const dx = rays, *const dy = rays + width;
    feclearexcept(FE_ALL_EXCEPT);
    for (long i = 0; i < width; i++)
        dx[i] = ((double)i - cx) / fx;
    for (long i = 0; i < height; i++)
        dy[i] = ((double)i - cy) / fy;
    for (long i = 0; i < width * height; i++)
        out[i] = INFINITY;

    for (long k = 0; k < n; k++) {
        const double *ak = a + 3 * k, *bk = b + 3 * k, *ax = axis + 3 * k;
        const double r = radii[k], rr = r * r, ap = a_par[k], len = length[k];
        const int solid = len >= 1e-9;
        const double c_cyl = (a_sq[k] - ap * ap) - rr, c_a = a_sq[k] - rr, c_b = b_sq[k] - rr;
        double lo[3], hi[3];
        for (int d = 0; d < 3; d++) {
            lo[d] = (ak[d] < bk[d] ? ak[d] : bk[d]) - r;
            hi[d] = (ak[d] > bk[d] ? ak[d] : bk[d]) + r;
        }
        long r0, r1, c0, c1;
        window(lo, hi, 1, dy, height, &r0, &r1);
        window(lo, hi, 0, dx, width, &c0, &c1);
        for (long row = r0; row < r1; row++) {
            const double y = dy[row];
            double *line = out + row * width;
            for (long col = c0; col < c1; col++) {
                const double x = dx[col];
                const double dd = (x * x + y * y) + 1.0;
                const double da = (ak[0] * x + ak[1] * y) + ak[2];
                double depth = sphere_entry(da, dd, c_a);
                double cap_b = sphere_entry((bk[0] * x + bk[1] * y) + bk[2], dd, c_b);
                const double d_par = (ax[0] * x + ax[1] * y) + ax[2];
                double d_perp_sq = dd - d_par * d_par;
                if (d_perp_sq < 0.0)
                    d_perp_sq = 0.0;
                const double cross = da - d_par * ap;
                const double disc = cross * cross - c_cyl * d_perp_sq;
                if (!(disc < 0.0)) {  /* else t_cyl is NaN and fails t_cyl > 0 */
                    const double t_cyl = (cross - sqrt(disc)) / d_perp_sq;
                    const double along = t_cyl * d_par - ap;
                    if (solid && d_perp_sq > 1e-12 && t_cyl > 0.0 && along >= 0.0 && along <= len && t_cyl < depth)
                        depth = t_cyl;
                }
                if (!solid)
                    cap_b = INFINITY;
                if (cap_b < depth)
                    depth = cap_b;
                if (depth < line[col])
                    line[col] = depth;
            }
        }
    }

    for (long o = 0; o < n_occ; o++) {
        const double *q = occ + 5 * o;  /* center x, y, z, half width, half height */
        for (long row = 0; row < height; row++) {
            if (!(fabs(dy[row] * q[2] - q[1]) <= q[4]))
                continue;
            double *line = out + row * width;
            for (long col = 0; col < width; col++)
                if (fabs(dx[col] * q[2] - q[0]) <= q[3] && q[2] < line[col])
                    line[col] = q[2];
        }
    }

    for (long i = 0; i < width * height; i++) {
        if (background < out[i])
            out[i] = background;
        if (isinf(out[i]))
            out[i] = NAN;
    }
    return raised_flags() & 6;
}

/* np.add.reduce of the n contiguous doubles at x, or of their squares:
   numpy's pairwise summation, whose order fixes the bits.  It is kept
   out of line: inlined, it made the build 0.5 s instead of 0.27 s on a
   2-vCPU VM, with no faster layer. */
static __attribute__((noinline)) double pairwise(const double *x, long n, int square)
{
    if (n < 8) {
        double s = 0.0;
        for (long i = 0; i < n; i++)
            s += square ? x[i] * x[i] : x[i];
        return s;
    }
    if (n <= 128) {
        double r[8];
        long i;
        for (int j = 0; j < 8; j++)
            r[j] = square ? x[j] * x[j] : x[j];
        for (i = 8; i < n - n % 8; i += 8)
            for (int j = 0; j < 8; j++)
                r[j] += square ? x[i + j] * x[i + j] : x[i + j];
        double s = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++)
            s += square ? x[i] * x[i] : x[i];
        return s;
    }
    const long half = n / 2 - n / 2 % 8;
    return pairwise(x, half, square) + pairwise(x + half, n - half, square);
}

/* One hidden layer of nn.forward after its matrix product x (rows x n),
   row by row in numpy's order: x + bias, then LayerNorm (mean and
   variance as np.add.reduce from 0.0, divided by n; xhat = (x - mean) *
   inv with inv = 1 / sqrt(var + eps)), v = g * xhat + b, v * mask / keep
   when mask is set, then ReLU into out as np.maximum(v, 0.0) gives it:
   +0.0 for -0.0, NaN kept.  With pre set (train mode) x keeps xhat, inv
   each row's inv and pre v; else v and out may be x.  The ReLU's
   comparison raises invalid on NaN once vectorized, where np.maximum
   raises nothing, so that flag is cleared unless the arithmetic raised it. */
int layer_norm(double *x, double *out, double *pre, double *inv,
               const double *restrict bias, const double *restrict g, const double *restrict b,
               const double *restrict mask, long rows, long n, double keep, double eps)
{
    feclearexcept(FE_ALL_EXCEPT);
    for (long row = 0; row < rows; row++) {
        double *xr = x + row * n, *outr = out + row * n, *v = pre ? pre + row * n : outr;
        for (long i = 0; i < n; i++)
            xr[i] = xr[i] + bias[i];
        const double mean = (0.0 + pairwise(xr, n, 0)) / (double)n;
        for (long i = 0; i < n; i++)
            xr[i] = xr[i] - mean;
        const double var = (0.0 + pairwise(xr, n, 1)) / (double)n;
        const double k = 1.0 / sqrt(var + eps);
        if (inv)
            inv[row] = k;
        for (long i = 0; i < n; i++)
            xr[i] = xr[i] * k;
        for (long i = 0; i < n; i++)
            v[i] = g[i] * xr[i] + b[i];
        if (mask)
            for (long i = 0; i < n; i++)
                v[i] = v[i] * mask[row * n + i] / keep;
        const int invalid = fetestexcept(FE_INVALID);
        for (long i = 0; i < n; i++)
            outr[i] = v[i] > 0.0 || v[i] != v[i] ? v[i] : 0.0;
        if (!invalid)
            feclearexcept(FE_INVALID);
    }
    return raised_flags();
}
"""
_CC_FLAGS = ("-O3", "-fPIC", "-shared", "-ffp-contract=off", "-fno-math-errno")
_POINTER, _LONG, _DOUBLE = ctypes.c_void_p, ctypes.c_long, ctypes.c_double
_ARGTYPES = {
    "adam_update": [_POINTER] * 4 + [_LONG] + [_DOUBLE] * 6,
    "render_clean": [_POINTER] * 2 + [_LONG] * 2 + [_DOUBLE] * 4 + [_LONG] + [_POINTER] * 8
                    + [_LONG, _POINTER, _DOUBLE],
    "layer_norm": [_POINTER] * 8 + [_LONG] * 2 + [_DOUBLE] * 2,
}
# A loop's return bits, in order, as np.errstate's keys and numpy's words.
_FP_ERRORS = (("divide", "divide by zero"), ("over", "overflow"), ("under", "underflow"), ("invalid", "invalid value"))

# Built on the process's first call for a loop, which train makes on two threads at once.
_lock = threading.Lock()
_library = None  # the library, or why it did not build, once built
_runs = Counter()  # calls of each loop in this process


def _build():
    """Compile and load :data:`_SOURCE`; returns the library, or why it did not build."""
    cc = shutil.which("cc")
    if cc is None:
        return "no cc on the PATH"
    with tempfile.TemporaryDirectory() as tmp:
        source, library = os.path.join(tmp, "loops.c"), os.path.join(tmp, "loops.so")
        with open(source, "w") as fh:
            fh.write(_SOURCE)
        try:
            done = subprocess.run([cc, *_CC_FLAGS, "-o", library, source, "-lm"],
                                  capture_output=True, text=True, timeout=120)
        except (OSError, subprocess.TimeoutExpired) as exc:
            return f"cc did not run: {exc}"
        if done.returncode != 0:
            lines = [line for line in done.stderr.splitlines() if line.strip()]
            first = next((line for line in lines if "error" in line), lines[0] if lines else "")
            return f"cc failed with status {done.returncode}: {first}"
        try:
            lib = ctypes.CDLL(library)  # mapped, so the file may be removed
            for name, argtypes in _ARGTYPES.items():
                getattr(lib, name).argtypes = argtypes
                getattr(lib, name).restype = ctypes.c_int
        except (OSError, AttributeError) as exc:
            return f"the library did not load: {exc}"
    return lib


def loop(name: str):
    """The compiled loop ``name``, counted for :func:`runs`.  Where the
    library did not build, raises RuntimeError naming ``cc`` and the
    reason, on this call and every later one, without building again."""
    global _library
    with _lock:
        if _library is None:
            _library = _build()
        if isinstance(_library, str):
            raise RuntimeError(f"the compiled loops need a C compiler (cc): {_library}")
        _runs[name] += 1
        return getattr(_library, name)


def runs() -> Counter:
    """A copy of the calls of each loop in this process, keyed by loop name."""
    with _lock:
        return _runs.copy()


def report(raised: int, where: str) -> None:
    """Raise or warn, as np.errstate says, for the IEEE exceptions a loop
    returned, in numpy's words, naming ``where`` as the operation."""
    for bit, (kind, what) in enumerate(_FP_ERRORS):
        mode = np.geterr()[kind] if raised >> bit & 1 else "ignore"
        if mode == "raise":
            raise FloatingPointError(f"{what} encountered in {where}")
        if mode != "ignore":
            warnings.warn(f"{what} encountered in {where}", RuntimeWarning, stacklevel=3)
