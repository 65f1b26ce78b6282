"""The package's compiled loops: one C source, built with ``cc`` on the
first call that wants a loop in a process and called through ctypes,
which releases the interpreter lock while a loop runs.

``adam_update`` is :func:`nn.adam_step`'s update and ``render_clean`` is
:func:`synth.render_clean_depth`'s ray cast after the per-capsule
products.  Each does the IEEE operations of the numpy passes it stands
for, in their order, so both give the same bits; the numpy passes run
where the library does not build, so a loop's path is one per process;
the callers refuse on both paths the inputs a loop cannot take.  The build
is paid once per process (0.2 s on a 2-vCPU VM), keeps no file on disk,
and the compiler has exited before :func:`loop` returns.
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
# so that np.errstate governs them as it governs the numpy passes.
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

/* _pixel_windows for one box: [*start, *stop) of the rays between its
   extreme corner slopes along x (i = 0) or y (i = 1), padded by one ray
   each side, or all n rays when the box reaches z <= 0. */
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

/* _sphere_entry for one ray: inf unless the entry depth is > 0.  A
   negative discriminant would give a NaN depth, so it is inf at once. */
static double sphere_entry(double dc, double dd, double c)
{
    const double disc = dc * dc - c * dd;
    if (disc < 0.0)
        return INFINITY;
    const double t = (dc - sqrt(disc)) / dd;
    return t > 0.0 ? t : INFINITY;
}

/* render_clean_depth after the per-capsule products: _fold_capsules over
   each capsule's window, _fold_occluders, the background, then NaN where
   no surface returns.  out is height x width; rays holds width + height.
   Returns the overflow and underflow raised: the numpy passes run the
   ray-miss arithmetic (NaN square roots, division by a zero d_perp_sq)
   with divide and invalid ignored. */
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
"""
_CC_FLAGS = ("-O3", "-fPIC", "-shared", "-ffp-contract=off", "-fno-math-errno")
_POINTER, _LONG, _DOUBLE = ctypes.c_void_p, ctypes.c_long, ctypes.c_double
_ARGTYPES = {
    "adam_update": [_POINTER] * 4 + [_LONG] + [_DOUBLE] * 6,
    "render_clean": [_POINTER] * 2 + [_LONG] * 2 + [_DOUBLE] * 4 + [_LONG] + [_POINTER] * 8
                    + [_LONG, _POINTER, _DOUBLE],
}
# A loop's return bits, in order, as np.errstate's keys and numpy's words.
_FP_ERRORS = (("divide", "divide by zero"), ("over", "overflow"), ("under", "underflow"), ("invalid", "invalid value"))

# Built on the process's first call for a loop, which train makes on two threads at once.
_lock = threading.Lock()
_library = None  # (the library, "") or (None, why the numpy passes run) once built
_runs = Counter()  # calls of each loop by each path in this process, keyed (loop, path)


def _build():
    """Compile and load :data:`_SOURCE`; returns (the library, "") or (None, why not)."""
    cc = shutil.which("cc")
    if cc is None:
        return None, "no C compiler (cc) on PATH"
    with tempfile.TemporaryDirectory() as tmp:
        source, library = os.path.join(tmp, "loops.c"), os.path.join(tmp, "loops.so")
        with open(source, "w") as fh:
            fh.write(_SOURCE)
        try:
            done = subprocess.run([cc, *_CC_FLAGS, "-o", library, source, "-lm"],
                                  capture_output=True, text=True, timeout=120)
        except (OSError, subprocess.TimeoutExpired) as exc:
            return None, f"cc did not run: {exc}"
        if done.returncode != 0:
            lines = [line for line in done.stderr.splitlines() if line.strip()]
            first = next((line for line in lines if "error" in line), lines[0] if lines else "")
            return None, f"cc failed with status {done.returncode}: {first}"
        try:
            lib = ctypes.CDLL(library)  # mapped, so the file may be removed
            for name, argtypes in _ARGTYPES.items():
                getattr(lib, name).argtypes = argtypes
                getattr(lib, name).restype = ctypes.c_int
        except (OSError, AttributeError) as exc:
            return None, f"the compiled loops did not load: {exc}"
    return lib, ""


def loop(name: str):
    """The compiled loop ``name``, or None where the library did not build;
    counts the call under its path for :func:`runs`."""
    global _library
    with _lock:
        _library = _library or _build()
        lib, why = _library
        _runs[name, f"the numpy passes ({why})" if why else "the compiled C loop"] += 1
    return None if why else getattr(lib, name)


def runs() -> Counter:
    """A copy of the calls of each loop in this process, keyed ``(loop,
    path)``: the path is "the compiled C loop", or "the numpy passes
    (<why>)"."""
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
