"""Numerical kernels: shortest-path labeling, tridiagonal solves, batched
segment solves, support enumeration.

The label sweep, the Thomas solve and the segment kernel run as a small C
library. It is compiled once with the system C compiler, cached in this
package's `__pycache__` under a hash of its source and flags, and called
through `ctypes`, which releases the interpreter lock while it runs. The
flags keep floating-point contraction and fast-math off, so every step
rounds exactly as in the numpy references `_labels_py` and `_thomas_py`.
The segment kernel solves every segment of a dual evaluation in one call:
per segment it runs the same label sweep, backtrack and cut Thomas solve as
`tridiag.solve`, so its x, z and optima are those of one `tridiag.solve`
per segment, bit for bit; `_segments_py` is its numpy reference. Without
a working compiler the references run instead, and a warning says so.

The enumeration kernel is batched numpy: one vectorised elimination per
chunk of equal-size supports. `_enumerate_py`, the scalar loop over
supports, is its reference.

The label recurrences initialize the running pivot to +inf so that the
first elimination step of every row needs no special case (x/inf == 0 in
IEEE arithmetic).
"""

from __future__ import annotations

import ctypes
import hashlib
import logging
import os
import shutil
import subprocess
import tempfile
from pathlib import Path

import numpy as np

logger = logging.getLogger(__name__)

PIVOT_TOL = 1e-12

# there is no numba backend; perfbench's environment block still reports this
HAVE_NUMBA = False

# supports per batched elimination; bounds the oracle's memory at any n
ENUM_CHUNK = 1 << 14


def _labels_py(a, c, diag, off):
    """Column-major label sweep; returns (labels, preds, fail_col)."""
    m = a.shape[0]
    labels = np.full(m + 2, np.inf)
    labels[0] = 0.0
    preds = np.full(m + 2, -1, dtype=np.int64)
    cbar = np.empty(m + 1)
    qbar = np.empty(m + 1)
    wbar = np.empty(m + 1)
    for j in range(1, m + 2):
        if j >= 2:
            # row i = j-2 starts its segment at this column
            cbar[j - 2] = 0.0
            qbar[j - 2] = np.inf
            wbar[j - 2] = 0.0
            o = off[j - 3] if j >= 3 else 0.0
            s = slice(0, j - 1)
            cbar[s] = c[j - 2] - o * cbar[s] / qbar[s]
            qbar[s] = diag[j - 2] - o * o / qbar[s]
            if np.any(qbar[s] <= PIVOT_TOL):
                return labels, preds, j
            wbar[s] += a[j - 2] - 0.5 * cbar[s] * cbar[s] / qbar[s]
            cands = labels[: j - 1] + wbar[s]
            besti = int(np.argmin(cands))
            best = cands[besti]
        else:
            besti, best = -1, np.inf
        # the zero-weight skip arc (j-1, j) is considered last; ties keep
        # the smaller predecessor
        if best <= labels[j - 1]:
            labels[j] = best
            preds[j] = besti
        else:
            labels[j] = labels[j - 1]
            preds[j] = j - 1
    return labels, preds, -1


def _thomas_py(diag, off, rhs):
    """Solve the tridiagonal system T x = rhs; returns (x, fail_row)."""
    m = diag.shape[0]
    piv = np.empty(m)
    r = np.empty(m)
    piv[0] = diag[0]
    r[0] = rhs[0]
    if piv[0] <= PIVOT_TOL:
        return r, 0
    for t in range(1, m):
        l = off[t - 1] / piv[t - 1]
        piv[t] = diag[t] - l * off[t - 1]
        if piv[t] <= PIVOT_TOL:
            return r, t
        r[t] = rhs[t] - l * r[t - 1]
    x = np.empty(m)
    x[m - 1] = r[m - 1] / piv[m - 1]
    for t in range(m - 2, -1, -1):
        x[t] = (r[t] - off[t] * x[t + 1]) / piv[t]
    return x, -1


def _segments_py(bounds, a, c, diag, off):
    """Solve every segment [bounds[k], bounds[k+1]) of one chain; returns
    (x, z, obj, fail_segment), as tridiag.solve would segment by segment."""
    n = a.shape[0]
    x = np.zeros(n)
    z = np.ones(n)
    obj = np.empty(bounds.size - 1)
    for k in range(bounds.size - 1):
        s, e = int(bounds[k]), int(bounds[k + 1])
        cs, dg, of = c[s:e], diag[s:e], off[s : e - 1]
        labels, preds, fail = _labels_py(a[s:e], cs, dg, of)
        if fail >= 0:
            return x, z, obj, k
        v = preds[e - s + 1]
        while v > 0:
            z[s + v - 1] = 0.0
            v = preds[v]
        obj[k] = labels[e - s + 1]
        cut = z[s:e] == 0
        xs, fail = _thomas_py(
            np.where(cut, 1.0, dg), np.where(cut[:-1] | cut[1:], 0.0, of), np.where(cut, 0.0, -cs)
        )
        if fail >= 0:
            return x, z, obj, k
        xs[cut] = 0.0
        x[s:e] = xs
    return x, z, obj, -1


def _enumerate_py(a, c, q):
    """Minimize over all supports; returns (value, mask, skipped)."""
    n = a.shape[0]
    best_val = 0.0
    best_mask = 0
    skipped = 0
    scratch = np.empty((n, n + 1))
    for mask in range(1, 1 << n):
        idx = [i for i in range(n) if mask & (1 << (n - 1 - i))]
        k = len(idx)
        g = scratch[:k, : k + 1]
        for p in range(k):
            for t in range(k):
                g[p, t] = q[idx[p], idx[t]]
            g[p, k] = -c[idx[p]]
        ok = True
        for p in range(k):
            if g[p, p] <= PIVOT_TOL:
                ok = False
                break
            for t in range(p + 1, k):
                f = g[t, p] / g[p, p]
                g[t, p : k + 1] -= f * g[p, p : k + 1]
        if not ok:
            skipped += 1
            continue
        x = np.empty(k)
        for p in range(k - 1, -1, -1):
            x[p] = (g[p, k] - g[p, p + 1 : k] @ x[p + 1 : k]) / g[p, p]
        # at a stationary point Q_S x = -c_S, so the objective collapses to
        # sum(a_S) + (1/2) c_S . x
        val = 0.0
        for p in range(k):
            val += a[idx[p]] + 0.5 * c[idx[p]] * x[p]
        if val < best_val:
            best_val = val
            best_mask = mask
    return best_val, best_mask, skipped


def _support_values(a, c, q, masks, k):
    """Values of the supports in `masks`, all of size k; returns
    (values, ok) with ok False where a pivot fails, as in _enumerate_py."""
    n = a.shape[0]
    bits = (masks[:, None] >> np.arange(n - 1, -1, -1)) & 1
    # nonzero walks rows in order, so each row's indices come out ascending
    idx = np.nonzero(bits)[1].reshape(-1, k)
    g = np.empty((masks.size, k, k + 1))
    g[:, :, :k] = q[idx[:, :, None], idx[:, None, :]]
    g[:, :, k] = -c[idx]
    ok = np.ones(masks.size, dtype=bool)
    for p in range(k):
        ok &= ~(g[:, p, p] <= PIVOT_TOL)
        # failed supports eliminate with a unit pivot; their values are dropped
        g[~ok, p, p] = 1.0
        f = g[:, p + 1 :, p] / g[:, p, p, None]
        g[:, p + 1 :, p + 1 :] -= f[:, :, None] * g[:, p, None, p + 1 :]
    x = np.empty((masks.size, k))
    for p in range(k - 1, -1, -1):
        dot = (g[:, p, p + 1 : k] * x[:, p + 1 :]).sum(axis=1)
        x[:, p] = (g[:, p, k] - dot) / g[:, p, p]
    values = (a[idx] + 0.5 * c[idx] * x).sum(axis=1)
    return values, ok


def enumerate_kernel(a, c, q):
    """Minimize over all supports; returns (value, mask, skipped).

    Same result as `_enumerate_py`: the supports are grouped by size and
    eliminated in chunks of at most ENUM_CHUNK, without pivoting; the
    minimum wins and ties go to the smallest mask.
    """
    n = a.shape[0]
    best_val = 0.0
    best_mask = 0
    skipped = 0
    masks = np.arange(1, 1 << n, dtype=np.int64)
    sizes = np.zeros_like(masks)
    for b in range(n):
        sizes += (masks >> b) & 1
    for k in range(1, n + 1):
        of_size = masks[sizes == k]
        for lo in range(0, of_size.size, ENUM_CHUNK):
            chunk = of_size[lo : lo + ENUM_CHUNK]
            values, ok = _support_values(a, c, q, chunk, k)
            skipped += int(chunk.size - np.count_nonzero(ok))
            values[~ok] = np.inf
            # masks ascend within a chunk, so argmin picks the smallest tie
            i = int(np.argmin(values))
            val, mask = float(values[i]), int(chunk[i])
            if val < best_val or (val == best_val and mask < best_mask):
                best_val, best_mask = val, mask
    return best_val, best_mask, skipped


# Row-major twins of _labels_py and _thomas_py, and l0_segments built on
# them. `wbar += ...` keeps the numpy association, wbar + (a - t), so both
# round identically.
_C_SOURCE = r"""
#include <math.h>
#include <stdint.h>

#define PIVOT_TOL 1e-12

int64_t l0_labels(int64_t m, const double *a, const double *c,
                  const double *diag, const double *off,
                  double *labels, int64_t *preds)
{
    for (int64_t i = 0; i <= m; i++) {
        if (labels[i] < labels[i + 1]) {
            labels[i + 1] = labels[i];
            preds[i + 1] = i;
        }
        double cbar = 0.0, qbar = INFINITY, wbar = 0.0, li = labels[i];
        for (int64_t j = i + 2; j <= m + 1; j++) {
            double o = j >= 3 ? off[j - 3] : 0.0;
            cbar = c[j - 2] - o * cbar / qbar;
            qbar = diag[j - 2] - o * o / qbar;
            if (qbar <= PIVOT_TOL)
                return j;
            wbar += a[j - 2] - 0.5 * cbar * cbar / qbar;
            double cand = li + wbar;
            if (cand < labels[j]) {
                labels[j] = cand;
                preds[j] = i;
            }
        }
    }
    return -1;
}

/* x holds the forward-eliminated right-hand side until back substitution */
int64_t l0_thomas(int64_t m, const double *diag, const double *off,
                  const double *rhs, double *piv, double *x)
{
    piv[0] = diag[0];
    x[0] = rhs[0];
    if (piv[0] <= PIVOT_TOL)
        return 0;
    for (int64_t t = 1; t < m; t++) {
        double l = off[t - 1] / piv[t - 1];
        piv[t] = diag[t] - l * off[t - 1];
        if (piv[t] <= PIVOT_TOL)
            return t;
        x[t] = rhs[t] - l * x[t - 1];
    }
    x[m - 1] = x[m - 1] / piv[m - 1];
    for (int64_t t = m - 2; t >= 0; t--)
        x[t] = (x[t] - off[t] * x[t + 1]) / piv[t];
    return -1;
}

/* Solve every segment [bounds[k], bounds[k+1]) of one chain as
   tridiag.solve does: label sweep, backtrack from the sink, then one
   Thomas pass with the couplings cut at the zeros of z. labels and preds
   hold n + 2 entries, cd/co/rhs/piv n each. Returns the first segment
   whose sweep or solve fails a pivot, or -1. */
int64_t l0_segments(int64_t nseg, const int64_t *bounds,
                    const double *a, const double *c,
                    const double *diag, const double *off,
                    double *x, double *z, double *obj,
                    double *labels, int64_t *preds,
                    double *cd, double *co, double *rhs, double *piv)
{
    for (int64_t k = 0; k < nseg; k++) {
        int64_t s = bounds[k], m = bounds[k + 1] - s;
        for (int64_t j = 0; j <= m + 1; j++) {
            labels[j] = INFINITY;
            preds[j] = -1;
        }
        labels[0] = 0.0;
        if (l0_labels(m, a + s, c + s, diag + s, off + s, labels, preds) >= 0)
            return k;
        for (int64_t t = s; t < s + m; t++)
            z[t] = 1.0;
        for (int64_t v = preds[m + 1]; v > 0; v = preds[v])
            z[s + v - 1] = 0.0;
        obj[k] = labels[m + 1];
        for (int64_t t = s; t < s + m; t++) {
            int cut = z[t] == 0.0;
            cd[t] = cut ? 1.0 : diag[t];
            rhs[t] = cut ? 0.0 : -c[t];
            if (t + 1 < s + m)
                co[t] = cut || z[t + 1] == 0.0 ? 0.0 : off[t];
        }
        if (l0_thomas(m, cd + s, co + s, rhs + s, piv, x + s) >= 0)
            return k;
        for (int64_t t = s; t < s + m; t++)
            if (z[t] == 0.0)
                x[t] = 0.0;
    }
    return -1;
}
"""
_CFLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")


def _load_library():
    """The compiled kernels, built into the cache on first use; None, with
    a warning, when no compiler is found or the build or load fails."""
    key = hashlib.sha256("\0".join((_C_SOURCE,) + _CFLAGS).encode()).hexdigest()[:16]
    cache = Path(__file__).with_name("__pycache__")
    path = cache / f"_kernels_c.{key}.so"
    if not path.exists():
        cc = shutil.which("cc")
        if cc is None:
            logger.warning("no C compiler on PATH; using the numpy kernels")
            return None
        try:
            cache.mkdir(exist_ok=True)
            with tempfile.TemporaryDirectory(dir=cache) as tmp:
                src = Path(tmp) / "kernels.c"
                src.write_text(_C_SOURCE)
                out = Path(tmp) / "kernels.so"
                subprocess.run(
                    [cc, *_CFLAGS, "-o", str(out), str(src)],
                    check=True, capture_output=True, text=True,
                )
                # concurrent builders each rename a complete file into place
                os.replace(out, path)
        except subprocess.CalledProcessError as e:
            logger.warning("building the C kernels failed; using the numpy kernels:\n%s", e.stderr)
            return None
        except OSError as e:
            logger.warning("building the C kernels failed (%s); using the numpy kernels", e)
            return None
    try:
        lib = ctypes.CDLL(str(path))
    except OSError as e:
        logger.warning("loading %s failed (%s); using the numpy kernels", path, e)
        return None
    f64 = np.ctypeslib.ndpointer(np.float64, ndim=1, flags="C_CONTIGUOUS")
    i64 = np.ctypeslib.ndpointer(np.int64, ndim=1, flags="C_CONTIGUOUS")
    lib.l0_labels.argtypes = [ctypes.c_int64, f64, f64, f64, f64, f64, i64]
    lib.l0_labels.restype = ctypes.c_int64
    lib.l0_thomas.argtypes = [ctypes.c_int64, f64, f64, f64, f64, f64]
    lib.l0_thomas.restype = ctypes.c_int64
    lib.l0_segments.argtypes = [ctypes.c_int64, i64] + [f64] * 8 + [i64] + [f64] * 4
    lib.l0_segments.restype = ctypes.c_int64
    return lib


def _check_lengths(m, full, off):
    """Refuse arrays the C loops would index out of bounds."""
    if any(v.shape != (m,) for v in full) or off.shape != (max(m - 1, 0),):
        raise ValueError("kernel inputs need length m, and m - 1 for off")


_lib = _load_library()

if _lib is None:
    labels_kernel = _labels_py
    thomas_kernel = _thomas_py
    segments_kernel = _segments_py
else:

    def labels_kernel(a, c, diag, off):
        """Row-major label sweep; returns (labels, preds, fail_col)."""
        m = a.shape[0]
        _check_lengths(m, (c, diag), off)
        labels = np.full(m + 2, np.inf)
        labels[0] = 0.0
        preds = np.full(m + 2, -1, dtype=np.int64)
        fail = _lib.l0_labels(m, a, c, diag, off, labels, preds)
        return labels, preds, fail

    def thomas_kernel(diag, off, rhs):
        """Solve the tridiagonal system T x = rhs; returns (x, fail_row)."""
        m = diag.shape[0]
        _check_lengths(m, (rhs,), off)
        if m < 1:
            raise ValueError("thomas_kernel needs m >= 1")
        x = np.empty(m)
        fail = _lib.l0_thomas(m, diag, off, rhs, np.empty(m), x)
        return x, fail

    def segments_kernel(bounds, a, c, diag, off):
        """Solve every segment [bounds[k], bounds[k+1]) of one chain;
        returns (x, z, obj, fail_segment)."""
        n = a.shape[0]
        _check_lengths(n, (c, diag), off)
        if (
            bounds.ndim != 1
            or bounds.size < 2
            or bounds[0] != 0
            or bounds[-1] != n
            or np.any(bounds[1:] <= bounds[:-1])
        ):
            raise ValueError("bounds must rise strictly from 0 to the chain length")
        x = np.empty(n)
        z = np.empty(n)
        obj = np.empty(bounds.size - 1)
        work = np.empty((4, n))
        fail = _lib.l0_segments(
            bounds.size - 1, bounds, a, c, diag, off, x, z, obj,
            np.empty(n + 2), np.empty(n + 2, dtype=np.int64), *work,
        )
        return x, z, obj, fail
