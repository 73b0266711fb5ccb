"""Numerical kernels: shortest-path labeling, tridiagonal solves, batched
segment solves, sparse LDL' refits, support enumeration, maximum-weight
matching.

The label sweep, the Thomas solve, the segment kernel, the sparse LDL'
factorisation, the support enumeration and the matching run as a small C
library. The
first import compiles it with the system C compiler (`cc`) and caches it
in this package's `__pycache__` under a hash of its source and flags;
later imports load it from there. Without a compiler, or when the build
or the load fails, the import raises ImportError naming the cause. The
kernels are called through `ctypes`, which releases the interpreter lock
while they run. Arrays cross as bare addresses after a dtype and
contiguity check (`_ptr`). Taking an address through `arr.ctypes.data`
costs 1.4-2.9 us per array on a shared 2-core x86-64 host (`python -m
timeit`), so `segments_kernel`'s eight arrays cost 14-24 us per call
before the C code runs. The C kernels allocate their own scratch, except
the Thomas solve: `thomas_kernel` allocates its pivots `piv` in Python,
while `l0_segments` hands `l0_thomas` one buffer of its own for every
segment. The flags keep floating-point contraction and fast-math off,
so every step rounds exactly as the scalar references in the tests do.
The label sweep runs as a wavefront over blocks of rows: the cells of one
column, from different rows, are independent, so their divisions overlap
instead of waiting on each other. The rows of a block are paired in the
two lanes of a packed vector, so each division serves two rows (one SSE2
`divpd` on x86-64; other targets lower it lane by lane). Labels,
predecessors and the failing column are those of the row-major sweep, bit
for bit: each lane makes its row's IEEE operations in the row's order,
contraction is off, and the pivot tests and label compares stay scalar,
in increasing row order. The sweep ends by backtracking its optimal
support z, and the Thomas solve cuts the chain at the zeros of z.
`tridiag.solve` calls these two steps once; the segment kernel calls them
on every segment of a dual evaluation in one call, so its x, z and optima
are those of one `tridiag.solve` per segment, bit for bit. The LDL'
kernel is the up-looking factorisation of Davis's LDL package (elimination
tree and column counts, then one row of L at a time, then the L, D and L'
solves); it refits x on a fixed support (`oracle.fixed_z_qp`).

The enumeration kernel walks the supports depth first. A support's
children add one variable above its largest, so each child's dense L D L'
factor is its parent's plus one row, and a failing pivot prunes the
child's whole subtree. Its values round differently from an elimination
per support, which finds the same value to rounding, and the same mask
and skipped count unless two supports differ in value by rounding alone.

The matching kernel is the general-graph cover's maximum-weight matching
(`cover.b2_subgraph_general`): Galil's primal-dual blossom method as Van
Rantwijk implemented it, ported from NetworkX's `max_weight_matching`
with its iteration order, so that both return the same matching, ties
included. Its scratch is O(V + E), and blossom storage is allocated as
blossoms form.

The label recurrences initialize the running pivot to +inf so that the
first elimination step of every row needs no special case (x/inf == 0 in
IEEE arithmetic).
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path

import numpy as np

PIVOT_TOL = 1e-12

# there is no numba backend; perfbench's environment block still reports this
HAVE_NUMBA = False

# largest n the exhaustive oracle accepts (oracle.MAX_ENUM_VARS)
MAX_ENUM_VARS = 20


# l0_labels, the row-major label sweep as a wavefront over row blocks, and
# its backtrack; l0_thomas, cut at the zeros of z; l0_segments, both per
# segment; l0_ldl; l0_enumerate; l0_matching, the blossom matching with its
# static mw_* helpers. PIVOT_TOL comes from _CFLAGS. Every label
# cell makes the row recurrence's operations in its order, in its row's
# lane, and `wbar += ...` keeps the association wbar + (a - t) of the
# row-major sweep, so both round identically.
_C_SOURCE = r"""
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* rows per wavefront block of l0_labels, paired in the lanes of a v2d */
#define R 8
#if R % 2
#error "l0_labels holds its rows in pairs, so R must be even"
#endif

/* two doubles, one per row; baseline SSE2 on x86-64, where one divpd
   divides both, and lowered lane by lane elsewhere */
typedef double v2d __attribute__((vector_size(16)));

/* Row i of the label DP takes the skip arc (i, i+1), then one cell per
   column j = i+2 .. m+1: the arc (i, j), whose weight wbar is a running
   elimination of the block i+1 .. j-1. Row by row, every cell would wait
   on its row's previous three divisions. Rows interact only through
   labels[j] and preds[j], in increasing row order, so each block of R
   rows sweeps the columns as a wavefront: at column j the block's rows
   i <= j-2 apply their cells in increasing order, then row j-1 takes its
   skip arc and starts from labels[j-1], which no later row changes. The
   cells of a column are independent of each other, so rows 2p and 2p+1
   of a block share the lanes of cbar[p], qbar[p] and wbar[p], and each of
   a cell's three divisions is one packed division for the pair. A lane
   makes its row's IEEE operations in the row's order, without
   contraction, so it rounds as a scalar would. The pivot tests and the
   label compares stay scalar, in increasing row order. So each column
   sees the same operations, compared in the same order, as row after
   row would apply them, and labels and preds come out identical. A pair
   is first computed after its even row starts, which sets both lanes, so
   a lane whose row has not started, or has failed, computes on defined
   values; it is never read. A failing row stops the rows after it in its
   block; the block's smallest failing row names the failing column, as
   the first failing row would. Returns that column, or -1 after setting
   z to 0.0 on the interior nodes of the path to the sink m+1, 1.0
   elsewhere. */
int64_t l0_labels(int64_t m, const double *a, const double *c,
                  const double *diag, const double *off,
                  double *labels, int64_t *preds, double *z)
{
    v2d cbar[R / 2], qbar[R / 2], wbar[R / 2];
    double li[R];
    for (int64_t j = 0; j <= m + 1; j++) {
        labels[j] = INFINITY;
        preds[j] = -1;
    }
    labels[0] = 0.0;
    for (int64_t b0 = 0; b0 <= m; b0 += R) {
        int64_t b1 = b0 + R < m + 1 ? b0 + R : m + 1, fail = -1;
        for (int64_t j = b0 + 1; j <= m + 1 && b1 > b0; j++) {
            double lab = labels[j];
            int64_t pred = preds[j];
            /* rows b0 .. b0+nk-1 have started */
            int64_t nk = (j - 1 < b1 ? j - 1 : b1) - b0;
            if (nk > 0) {
                double o = j >= 3 ? off[j - 3] : 0.0;
                v2d vo = {o, o}, va = {a[j - 2], a[j - 2]};
                v2d vc = {c[j - 2], c[j - 2]}, vd = {diag[j - 2], diag[j - 2]};
                for (int64_t p = 0; 2 * p < nk; p++) {
                    cbar[p] = vc - vo * cbar[p] / qbar[p];
                    qbar[p] = vd - vo * vo / qbar[p];
                    wbar[p] += va - 0.5 * cbar[p] * cbar[p] / qbar[p];
                }
                for (int64_t k = 0; k < nk; k++) {
                    if (qbar[k / 2][k % 2] <= PIVOT_TOL) {
                        fail = j;
                        b1 = b0 + k;
                        break;
                    }
                    double cand = li[k] + wbar[k / 2][k % 2];
                    if (cand < lab) {
                        lab = cand;
                        pred = b0 + k;
                    }
                }
            }
            if (j - 1 < b1) {
                int64_t k = j - 1 - b0;
                if (labels[j - 1] < lab) {
                    lab = labels[j - 1];
                    pred = j - 1;
                }
                /* whole-pair stores: a lane store would stall the next
                   packed load of its pair, which no single store could
                   then forward. Row k+1 of an even k has not started. */
                if (k % 2 == 0) {
                    cbar[k / 2] = (v2d){0.0, 0.0};
                    qbar[k / 2] = (v2d){INFINITY, INFINITY};
                    wbar[k / 2] = (v2d){0.0, 0.0};
                } else {
                    cbar[k / 2] = (v2d){cbar[k / 2][0], 0.0};
                    qbar[k / 2] = (v2d){qbar[k / 2][0], INFINITY};
                    wbar[k / 2] = (v2d){wbar[k / 2][0], 0.0};
                }
                li[k] = labels[j - 1];
            }
            labels[j] = lab;
            preds[j] = pred;
        }
        if (fail >= 0)
            return fail;
    }
    for (int64_t t = 0; t < m; t++)
        z[t] = 1.0;
    for (int64_t v = preds[m + 1]; v > 0; v = preds[v])
        z[v - 1] = 0.0;
    return -1;
}

/* Solve T x = -c with the couplings cut at the zeros of z, where a row
   reads 1 * x = 0, so each support block rounds as a solve of its own; x
   holds the eliminated right-hand side until back substitution. A cut
   row's right-hand side is 0.0 and its couplings +0.0, so both passes
   leave it at +0.0 (0.0 - +-0.0 == +0.0) and change no neighbour. That
   holds for finite data; non-finite data is outside the contract, since
   TridiagProblem rejects it and h_eval raises on a non-finite optimum. */
#define CUT(t) (z[t] == 0.0)
#define CDIAG(t) (CUT(t) ? 1.0 : diag[t])
#define COFF(t) (CUT(t) || CUT((t) + 1) ? 0.0 : off[t])
int64_t l0_thomas(int64_t m, const double *diag, const double *off,
                  const double *c, const double *z, double *piv, double *x)
{
    piv[0] = CDIAG(0);
    x[0] = CUT(0) ? 0.0 : -c[0];
    if (piv[0] <= PIVOT_TOL)
        return 0;
    for (int64_t t = 1; t < m; t++) {
        double l = COFF(t - 1) / piv[t - 1];
        piv[t] = CDIAG(t) - l * COFF(t - 1);
        if (piv[t] <= PIVOT_TOL)
            return t;
        x[t] = (CUT(t) ? 0.0 : -c[t]) - l * x[t - 1];
    }
    x[m - 1] = x[m - 1] / piv[m - 1];
    for (int64_t t = m - 2; t >= 0; t--)
        x[t] = (x[t] - COFF(t) * x[t + 1]) / piv[t];
    return -1;
}

/* Solve every segment [bounds[k], bounds[k+1]) of one chain as
   tridiag.solve does, with the scratch allocated here. Returns the first
   segment whose sweep or solve fails a pivot, -1 on success, or -3 when
   memory runs out. */
int64_t l0_segments(int64_t nseg, const int64_t *bounds,
                    const double *a, const double *c,
                    const double *diag, const double *off,
                    double *x, double *z, double *obj)
{
    int64_t n = bounds[nseg], fail = -1;
    double *labels = malloc((size_t)(2 * n + 2) * sizeof(double));
    int64_t *preds = malloc((size_t)(n + 2) * sizeof(int64_t));
    if (labels == NULL || preds == NULL) {
        free(labels);
        free(preds);
        return -3;
    }
    double *piv = labels + n + 2;
    for (int64_t k = 0; k < nseg; k++) {
        int64_t s = bounds[k], m = bounds[k + 1] - s;
        if (l0_labels(m, a + s, c + s, diag + s, off + s, labels, preds, z + s) >= 0) {
            fail = k;
            break;
        }
        obj[k] = labels[m + 1];
        if (l0_thomas(m, diag + s, off + s, c + s, z + s, piv, x + s) >= 0) {
            fail = k;
            break;
        }
    }
    free(labels);
    free(preds);
    return fail;
}

/* Up-looking sparse LDL' factorisation and solve, after Davis, "Algorithm
   849: A concise sparse Cholesky factorization package", ACM TOMS 31(4),
   2005. A is symmetric n x n, given by the upper triangle of its columns
   in CSC form (Ap, Ai, Ax): entries below the diagonal are ignored and
   repeated entries add up. */

/* Elimination tree (Parent) and the nonzeros per column of L (Lnz), from
   which Lp indexes the columns of L. */
static void ldl_symbolic(int64_t n, const int64_t *Ap, const int64_t *Ai,
                         int64_t *Lp, int64_t *Parent, int64_t *Lnz,
                         int64_t *Flag)
{
    for (int64_t k = 0; k < n; k++) {
        Parent[k] = -1;
        Flag[k] = k;
        Lnz[k] = 0;
        for (int64_t p = Ap[k]; p < Ap[k + 1]; p++) {
            for (int64_t i = Ai[p]; i < k && Flag[i] != k; i = Parent[i]) {
                if (Parent[i] == -1)
                    Parent[i] = k;
                Lnz[i]++;
                Flag[i] = k;
            }
        }
    }
    Lp[0] = 0;
    for (int64_t k = 0; k < n; k++)
        Lp[k + 1] = Lp[k] + Lnz[k];
}

/* Row k of L is a sparse triangular solve whose pattern is the tree path
   from each entry of column k of A up to k. Returns the first column
   whose pivot D[k] is <= PIVOT_TOL, or -1. */
static int64_t ldl_numeric(int64_t n, const int64_t *Ap, const int64_t *Ai,
                           const double *Ax, const int64_t *Lp,
                           const int64_t *Parent, int64_t *Lnz,
                           int64_t *Flag, int64_t *Pattern,
                           int64_t *Li, double *Lx, double *D, double *Y)
{
    /* the symbolic pass leaves Flag[i] >= i; row i resets it to i before
       any later row reads it */
    for (int64_t k = 0; k < n; k++)
        Y[k] = 0.0;
    for (int64_t k = 0; k < n; k++) {
        int64_t top = n;
        Flag[k] = k;
        Lnz[k] = 0;
        for (int64_t p = Ap[k]; p < Ap[k + 1]; p++) {
            int64_t i = Ai[p], len = 0;
            if (i > k)
                continue;
            Y[i] += Ax[p];
            for (; Flag[i] != k; i = Parent[i]) {
                Pattern[len++] = i;
                Flag[i] = k;
            }
            while (len > 0)
                Pattern[--top] = Pattern[--len];
        }
        double dk = Y[k];
        Y[k] = 0.0;
        for (; top < n; top++) {
            int64_t i = Pattern[top], p2 = Lp[i] + Lnz[i];
            double yi = Y[i];
            Y[i] = 0.0;
            for (int64_t p = Lp[i]; p < p2; p++)
                Y[Li[p]] -= Lx[p] * yi;
            double lki = yi / D[i];
            dk -= lki * yi;
            Li[p2] = k;
            Lx[p2] = lki;
            Lnz[i]++;
        }
        if (dk <= PIVOT_TOL)
            return k;
        D[k] = dk;
    }
    return -1;
}

/* b <- L'^-1 D^-1 L^-1 b */
static void ldl_solve(int64_t n, const int64_t *Lp, const int64_t *Li,
                      const double *Lx, const double *D, double *b)
{
    for (int64_t j = 0; j < n; j++)
        for (int64_t p = Lp[j]; p < Lp[j + 1]; p++)
            b[Li[p]] -= Lx[p] * b[j];
    for (int64_t j = 0; j < n; j++)
        b[j] /= D[j];
    for (int64_t j = n - 1; j >= 0; j--)
        for (int64_t p = Lp[j]; p < Lp[j + 1]; p++)
            b[j] -= Lx[p] * b[Li[p]];
}

/* Factor A and overwrite b with the solution of A x = b. Returns -1 on
   success, the first column whose pivot is <= PIVOT_TOL, -2 for a
   malformed pattern (Ap not rising from 0, or a row outside 0..n-1), or
   -3 when memory runs out. */
int64_t l0_ldl(int64_t n, const int64_t *Ap, const int64_t *Ai,
               const double *Ax, double *b)
{
    if (n < 0 || Ap[0] != 0)
        return -2;
    for (int64_t k = 0; k < n; k++)
        if (Ap[k + 1] < Ap[k])
            return -2;
    for (int64_t p = 0; p < Ap[n]; p++)
        if (Ai[p] < 0 || Ai[p] >= n)
            return -2;
    int64_t *iw = malloc((size_t)(5 * n + 1) * sizeof(int64_t));
    double *dw = malloc((size_t)(2 * n + 1) * sizeof(double));
    int64_t *Li = NULL;
    double *Lx = NULL;
    int64_t fail = -3;
    if (iw != NULL && dw != NULL) {
        int64_t *Lp = iw, *Parent = Lp + n + 1, *Lnz = Parent + n;
        int64_t *Flag = Lnz + n, *Pattern = Flag + n;
        ldl_symbolic(n, Ap, Ai, Lp, Parent, Lnz, Flag);
        Li = malloc((size_t)(Lp[n] + 1) * sizeof(int64_t));
        Lx = malloc((size_t)(Lp[n] + 1) * sizeof(double));
        if (Li != NULL && Lx != NULL) {
            fail = ldl_numeric(n, Ap, Ai, Ax, Lp, Parent, Lnz, Flag, Pattern,
                               Li, Lx, dw, dw + n);
            if (fail < 0)
                ldl_solve(n, Lp, Li, Lx, dw, b);
        }
    }
    free(iw);
    free(dw);
    free(Li);
    free(Lx);
    return fail;
}

/* Minimize over every support of the dense n x n matrix q; variable i is
   bit n-1-i of a mask. The supports are walked depth first: the children
   of S are S + {v} for every v above max(S), so the L D L' factor of a
   child's Q_S in natural order is its parent's plus one row. With y the
   forward solve of L y = -c_S, the value sum(a_S) - (1/2) c_S' Q_S^-1 c_S
   is the parent's plus a_v - (1/2) y_k^2 / d_k, so a child costs
   O(|S|^2). A pivot d_k <= PIVOT_TOL fails every descendant too, since
   each shares that leading block: the subtree of 2^(n-1-v) supports is
   skipped. This is the factor reuse of Furnival and Wilson's "leaps and
   bounds", Technometrics 16(4), 1974, without the bounding. The best
   value starts at 0.0 with mask 0, and on equal values the smaller mask
   wins. Returns the number of skipped supports, or -3 when memory runs
   out. */
int64_t l0_enumerate(int64_t n, const double *a, const double *c,
                     const double *q, double *best_val, int64_t *best_mask)
{
    /* row k of L holds the factor of the support's (k+1)-th variable */
    double *L = malloc((size_t)(n * n + 3 * n + 1) * sizeof(double));
    int64_t *sel = malloc((size_t)(2 * n + 1) * sizeof(int64_t));
    if (L == NULL || sel == NULL) {
        free(L);
        free(sel);
        return -3;
    }
    double *D = L + n * n, *Y = D + n, *val = Y + n;
    int64_t *mask = sel + n, skipped = 0, k = 0, v = 0;
    val[0] = 0.0;
    mask[0] = 0;
    *best_val = 0.0;
    *best_mask = 0;
    for (;;) {
        if (v == n) {
            /* every child of the support sel[0 .. k-1] is done */
            if (k == 0)
                break;
            v = sel[--k] + 1;
            continue;
        }
        double *row = L + k * n, dk = q[v * n + v], yk = -c[v];
        for (int64_t j = 0; j < k; j++) {
            const double *lj = L + j * n;
            double w = q[v * n + sel[j]];
            for (int64_t t = 0; t < j; t++)
                w -= row[t] * lj[t];
            /* w = L[k][j] D[j]; the pass below divides out D[j] */
            row[j] = w;
        }
        for (int64_t j = 0; j < k; j++) {
            double w = row[j];
            row[j] = w / D[j];
            dk -= row[j] * w;
            yk -= row[j] * Y[j];
        }
        if (dk <= PIVOT_TOL) {
            skipped += (int64_t)1 << (n - 1 - v);
            v++;
            continue;
        }
        D[k] = dk;
        Y[k] = yk;
        val[k + 1] = val[k] + (a[v] - 0.5 * yk * yk / dk);
        mask[k + 1] = mask[k] | (int64_t)1 << (n - 1 - v);
        if (val[k + 1] < *best_val || (val[k + 1] == *best_val && mask[k + 1] < *best_mask)) {
            *best_val = val[k + 1];
            *best_mask = mask[k + 1];
        }
        sel[k++] = v++;
    }
    free(L);
    free(sel);
    return skipped;
}

/* Maximum-weight matching of a simple graph, ported line by line from
   the reference: max_weight_matching of NetworkX 3.6 with maxcardinality
   False and float weights, Van Rantwijk's implementation of Galil's
   primal-dual blossom method ("Efficient algorithms for finding maximum
   matching in graphs", ACM Computing Surveys 18(1), 1986). The
   reference's iteration order is kept, so ties resolve alike and the
   matching is the same: vertices in order of first appearance in x[0],
   y[0], x[1], ..., the neighbours of each in arc order, blossoms in
   creation order. Vertices are 0 .. nv-1 in that order and blossoms
   nv .. 2nv-1, slots reused from a free list: fewer than nv/2 live at
   once, since each has at least three children. next and prev link the
   vertices, then the live blossoms in creation order, which is the key
   order of the reference's blossomparent and blossomdual dicts. Edge end
   k = 2e + d runs from end[k] to end[k ^ 1]; labels, edges and mates
   hold such ends, -1 for None. A blossom's child indices step modulo
   its child count where the reference steps through negative indices. */
typedef struct {
    int64_t nv, nq, last, nfree;
    const int64_t *end, *adjp, *adjk;
    const double *wt;
    int64_t *mate, *inb, *lv, *freeb, *label, *ledge, *parent, *base, *best,
        *nch, *mybn, *next, *prev, *to, *ent, *keys, *stk, *buf, *queue;
    int64_t **kids, **myb; /* a blossom's children, then its edges */
    double *dual, *bdual;
    unsigned char *allow;
} mw_t;

#define TAIL(k) (s->end[k])
#define HEAD(k) (s->end[(k) ^ 1])

static double mw_slack(const mw_t *s, int64_t k)
{
    return s->dual[TAIL(k)] + s->dual[HEAD(k)] - 2.0 * s->wt[k >> 1];
}

static void mw_reverse(int64_t *a, int64_t lo, int64_t hi)
{
    for (hi--; lo < hi; lo++, hi--) {
        int64_t t = a[lo];
        a[lo] = a[hi];
        a[hi] = t;
    }
}

/* b.leaves(): a stack walk that pops the last child first */
static int64_t mw_leaves(const mw_t *s, int64_t b, int64_t *out)
{
    int64_t sp = 0, n = 0;
    for (int64_t c = 0; c < s->nch[b]; c++)
        s->stk[sp++] = s->kids[b][c];
    while (sp > 0) {
        int64_t t = s->stk[--sp];
        if (t < s->nv)
            out[n++] = t;
        else
            for (int64_t c = 0; c < s->nch[t]; c++)
                s->stk[sp++] = s->kids[t][c];
    }
    return n;
}

/* assignLabel(w, t, v), with k the edge (v, w) or -1 */
static void mw_assign(mw_t *s, int64_t w, int64_t t, int64_t k)
{
    for (;;) {
        /* w and b are the same for a vertex outside any blossom */
        int64_t b = s->inb[w];
        s->label[w] = t;
        s->label[b] = t;
        s->ledge[w] = k;
        s->ledge[b] = k;
        s->best[w] = -1;
        s->best[b] = -1;
        if (t == 1) {
            if (b < s->nv)
                s->queue[s->nq++] = b;
            else
                s->nq += mw_leaves(s, b, s->queue + s->nq);
            return;
        }
        /* a T-blossom's base labels its mate S */
        k = s->mate[s->base[b]];
        w = HEAD(k);
        t = 1;
    }
}

/* scanBlossom(v, w): the base of a new blossom, or -1 for an augmenting
   path */
static int64_t mw_scan(mw_t *s, int64_t v, int64_t w)
{
    int64_t base = -1, np = 0;
    while (v != -1) {
        int64_t b = s->inb[v];
        if (s->label[b] & 4) {
            base = s->base[b];
            break;
        }
        s->buf[np++] = b;
        s->label[b] = 5;
        v = s->ledge[b] == -1 ? -1 : TAIL(s->ledge[s->inb[TAIL(s->ledge[b])]]);
        if (w != -1) {
            int64_t t = v;
            v = w;
            w = t;
        }
    }
    while (np > 0)
        s->label[s->buf[--np]] = 1;
    return base;
}

/* addBlossom's bestedgeto: the least-slack edge k to each S-blossom
   bj != b, keyed in order of first sight as a dict is */
static void mw_bestto(mw_t *s, int64_t b, int64_t k, int64_t *nto)
{
    int64_t bj = s->inb[HEAD(k)] == b ? s->inb[TAIL(k)] : s->inb[HEAD(k)];
    if (bj == b || s->label[bj] != 1)
        return;
    if (s->to[bj] < 0) {
        s->to[bj] = *nto;
        s->keys[(*nto)++] = bj;
    } else if (!(mw_slack(s, k) < mw_slack(s, s->ent[s->to[bj]]))) {
        return;
    }
    s->ent[s->to[bj]] = k;
}

/* addBlossom(base, v, w) for k = (v, w); -3 when memory runs out */
static int64_t mw_add(mw_t *s, int64_t base, int64_t k)
{
    int64_t nv = s->nv, bb = s->inb[base], bv = s->inb[TAIL(k)], bw = s->inb[HEAD(k)];
    int64_t b = s->freeb[--s->nfree], n = 0, ne = 1, nto = 0, *C = s->buf, *E = s->buf + nv;
    s->base[b] = base;
    s->parent[b] = -1;
    s->parent[bb] = b;
    E[0] = k;
    for (; bv != bb; bv = s->inb[TAIL(s->ledge[bv])]) {
        s->parent[bv] = b;
        C[n++] = bv;
        E[ne++] = s->ledge[bv];
    }
    C[n++] = bb;
    mw_reverse(C, 0, n);
    mw_reverse(E, 0, ne);
    for (; bw != bb; bw = s->inb[TAIL(s->ledge[bw])]) {
        s->parent[bw] = b;
        C[n++] = bw;
        E[ne++] = s->ledge[bw] ^ 1;
    }
    int64_t *kids = s->kids[b] = malloc((size_t)(2 * n) * sizeof(int64_t));
    if (kids == NULL)
        return -3;
    for (int64_t c = 0; c < n; c++) {
        kids[c] = C[c];
        kids[n + c] = E[c];
    }
    s->nch[b] = n;
    s->label[b] = 1;
    s->ledge[b] = s->ledge[bb];
    s->bdual[b] = 0.0;
    s->prev[b] = s->last;
    s->next[b] = -1;
    s->next[s->last] = b;
    s->last = b;
    for (int64_t t = 0, nl = mw_leaves(s, b, s->lv); t < nl; t++) {
        int64_t v = s->lv[t];
        if (s->label[s->inb[v]] == 2)
            s->queue[s->nq++] = v;
        s->inb[v] = b;
    }
    for (int64_t c = 0; c < n; c++) {
        bv = kids[c];
        if (bv >= nv && s->myb[bv] != NULL) {
            for (int64_t t = 0; t < s->mybn[bv]; t++)
                mw_bestto(s, b, s->myb[bv][t], &nto);
            free(s->myb[bv]);
            s->myb[bv] = NULL;
        } else {
            int64_t nl = 1;
            if (bv < nv)
                s->lv[0] = bv;
            else
                nl = mw_leaves(s, bv, s->lv);
            for (int64_t t = 0; t < nl; t++)
                for (int64_t p = s->adjp[s->lv[t]]; p < s->adjp[s->lv[t] + 1]; p++)
                    mw_bestto(s, b, s->adjk[p], &nto);
        }
        s->best[bv] = -1;
    }
    if ((s->myb[b] = malloc((size_t)(nto + 1) * sizeof(int64_t))) == NULL)
        return -3;
    s->mybn[b] = nto;
    s->best[b] = -1;
    double least = 0.0;
    for (int64_t t = 0; t < nto; t++) {
        double d = mw_slack(s, s->ent[t]);
        s->myb[b][t] = s->ent[t];
        s->to[s->keys[t]] = -1;
        if (s->best[b] == -1 || d < least) {
            s->best[b] = s->ent[t];
            least = d;
        }
    }
    return 0;
}

/* expandBlossom(b, False)'s relabelling of a T-blossom b whose children
   are top-level again; step is +1 or -1 modulo the n children */
static void mw_relabel(mw_t *s, int64_t b)
{
    int64_t n = s->nch[b], *C = s->kids[b], *E = C + n, j = 0;
    int64_t entry = s->inb[HEAD(s->ledge[b])], kvw = s->ledge[b];
    while (C[j] != entry)
        j++;
    int64_t step = j & 1 ? 1 : n - 1;
    while (j != 0) {
        int64_t kpq = step == 1 ? E[j] : E[j - 1] ^ 1;
        s->label[HEAD(kvw)] = 0;
        s->label[HEAD(kpq)] = 0;
        mw_assign(s, HEAD(kvw), 2, kvw);
        s->allow[kpq >> 1] = 1;
        j = (j + step) % n;
        kvw = step == 1 ? E[j] : E[j - 1] ^ 1;
        s->allow[kvw >> 1] = 1;
        j = (j + step) % n;
    }
    s->label[HEAD(kvw)] = 2;
    s->label[C[0]] = 2;
    s->ledge[HEAD(kvw)] = kvw;
    s->ledge[C[0]] = kvw;
    s->best[C[0]] = -1;
    for (j = step; C[j] != entry; j = (j + step) % n) {
        int64_t bv = C[j], v = bv;
        if (s->label[bv] == 1)
            continue;
        for (int64_t t = 0, nl = bv < s->nv ? 0 : mw_leaves(s, bv, s->lv); t < nl; t++)
            if (s->label[v = s->lv[t]])
                break;
        if (s->label[v]) {
            s->label[v] = 0;
            s->label[HEAD(s->mate[s->base[bv]])] = 0;
            mw_assign(s, v, 2, s->ledge[v]);
        }
    }
}

/* expandBlossom(b, endstage): at the end of a stage, sub-blossoms of zero
   dual expand too. Each expansion touches only its own blossom and the
   leaves below it, so a worklist stands for the reference's recursion. */
static void mw_expand(mw_t *s, int64_t b, int endstage)
{
    int64_t sp = 0;
    s->buf[sp++] = b;
    while (sp > 0) {
        b = s->buf[--sp];
        for (int64_t i = 0; i < s->nch[b]; i++) {
            int64_t c = s->kids[b][i];
            s->parent[c] = -1;
            if (c < s->nv)
                s->inb[c] = c;
            else if (endstage && s->bdual[c] == 0.0)
                s->buf[sp++] = c;
            else
                for (int64_t t = 0, nl = mw_leaves(s, c, s->lv); t < nl; t++)
                    s->inb[s->lv[t]] = c;
        }
        if (!endstage && s->label[b] == 2)
            mw_relabel(s, b);
        s->label[b] = 0;
        s->ledge[b] = s->best[b] = -1;
        s->next[s->prev[b]] = s->next[b];
        *(s->next[b] >= 0 ? &s->prev[s->next[b]] : &s->last) = s->prev[b];
        free(s->kids[b]);
        free(s->myb[b]);
        s->kids[b] = s->myb[b] = NULL;
        s->freeb[s->nfree++] = b;
    }
}

/* augmentBlossom(b, v): swap the matched and unmatched edges on the
   alternating path from v to b's base, then rotate b so v's child comes
   first. Each call writes the mates of its own children's edges and
   rotates only b, so a worklist stands for the reference's recursion,
   and b's new base is v, as the reference asserts. */
static void mw_augment_blossom(mw_t *s, int64_t b, int64_t v)
{
    int64_t sp = 0;
    s->buf[sp++] = b;
    s->buf[sp++] = v;
    while (sp > 0) {
        v = s->buf[--sp];
        b = s->buf[--sp];
        int64_t n = s->nch[b], *C = s->kids[b], *E = C + n, t = v, i = 0;
        while (s->parent[t] != b)
            t = s->parent[t];
        if (t >= s->nv) {
            s->buf[sp++] = t;
            s->buf[sp++] = v;
        }
        while (C[i] != t)
            i++;
        int64_t step = i & 1 ? 1 : n - 1;
        for (int64_t j = i; j != 0;) {
            j = (j + step) % n;
            int64_t k = step == 1 ? E[j] : E[j - 1] ^ 1;
            if (C[j] >= s->nv) {
                s->buf[sp++] = C[j];
                s->buf[sp++] = TAIL(k);
            }
            j = (j + step) % n;
            if (C[j] >= s->nv) {
                s->buf[sp++] = C[j];
                s->buf[sp++] = HEAD(k);
            }
            s->mate[TAIL(k)] = k;
            s->mate[HEAD(k)] = k ^ 1;
        }
        mw_reverse(C, 0, i);
        mw_reverse(C, i, n);
        mw_reverse(C, 0, n);
        mw_reverse(E, 0, i);
        mw_reverse(E, i, n);
        mw_reverse(E, 0, n);
        s->base[b] = v;
    }
}

/* augmentMatching(v, w) for k = (v, w) */
static void mw_augment(mw_t *s, int64_t k)
{
    for (int pass = 0; pass < 2; pass++) {
        for (int64_t kk = pass ? k ^ 1 : k;;) {
            int64_t bs = s->inb[TAIL(kk)];
            if (bs >= s->nv)
                mw_augment_blossom(s, bs, TAIL(kk));
            s->mate[TAIL(kk)] = kk;
            if (s->ledge[bs] == -1)
                break;
            int64_t bt = s->inb[TAIL(s->ledge[bs])];
            kk = s->ledge[bt];
            if (bt >= s->nv)
                mw_augment_blossom(s, bt, HEAD(kk));
            s->mate[HEAD(kk)] = kk ^ 1;
        }
    }
}

/* One stage after another until no delta step augments; -3 when memory
   runs out */
static int64_t mw_solve(mw_t *s)
{
    int64_t nv = s->nv;
    for (;;) {
        for (int64_t b = 0; b < 2 * nv; b++) {
            s->label[b] = 0;
            s->ledge[b] = s->best[b] = -1;
            free(s->myb[b]);
            s->myb[b] = NULL;
        }
        memset(s->allow, 0, (size_t)s->adjp[nv] / 2);
        s->nq = 0;
        for (int64_t v = 0; v < nv; v++)
            if (s->mate[v] == -1 && s->label[s->inb[v]] == 0)
                mw_assign(s, v, 1, -1);
        int augmented = 0;
        for (;;) {
            while (s->nq > 0 && !augmented) {
                int64_t v = s->queue[--s->nq];
                for (int64_t p = s->adjp[v]; p < s->adjp[v + 1]; p++) {
                    int64_t k = s->adjk[p], w = HEAD(k), bv = s->inb[v], bw = s->inb[w];
                    double kslack = 0.0;
                    if (bv == bw)
                        continue;
                    if (!s->allow[k >> 1] && (kslack = mw_slack(s, k)) <= 0)
                        s->allow[k >> 1] = 1;
                    if (s->allow[k >> 1]) {
                        if (s->label[bw] == 0) {
                            mw_assign(s, w, 2, k);
                        } else if (s->label[bw] == 1) {
                            int64_t base = mw_scan(s, v, w);
                            if (base == -1) {
                                mw_augment(s, k);
                                augmented = 1;
                                break;
                            }
                            if (mw_add(s, base, k) < 0)
                                return -3;
                        } else if (s->label[w] == 0) {
                            s->label[w] = 2;
                            s->ledge[w] = k;
                        }
                    } else if (s->label[bw] == 1) {
                        if (s->best[bv] == -1 || kslack < mw_slack(s, s->best[bv]))
                            s->best[bv] = k;
                    } else if (s->label[w] == 0) {
                        if (s->best[w] == -1 || kslack < mw_slack(s, s->best[w]))
                            s->best[w] = k;
                    }
                }
            }
            if (augmented)
                break;
            /* delta1 .. delta4, ties to the first in the reference's order */
            int64_t type = 1, edge = -1, blossom = -1;
            double delta = s->dual[0];
            for (int64_t v = 1; v < nv; v++)
                if (s->dual[v] < delta)
                    delta = s->dual[v];
            for (int64_t v = 0; v < nv; v++) {
                if (s->label[s->inb[v]] != 0 || s->best[v] == -1)
                    continue;
                double d = mw_slack(s, s->best[v]);
                if (d < delta) {
                    delta = d;
                    type = 2;
                    edge = s->best[v];
                }
            }
            for (int64_t b = 0; b >= 0; b = s->next[b]) {
                if (s->parent[b] != -1 || s->label[b] != 1 || s->best[b] == -1)
                    continue;
                double d = mw_slack(s, s->best[b]) / 2.0;
                if (d < delta) {
                    delta = d;
                    type = 3;
                    edge = s->best[b];
                }
            }
            for (int64_t b = s->next[nv - 1]; b >= 0; b = s->next[b]) {
                if (s->parent[b] == -1 && s->label[b] == 2 && s->bdual[b] < delta) {
                    delta = s->bdual[b];
                    type = 4;
                    blossom = b;
                }
            }
            for (int64_t v = 0; v < nv; v++) {
                if (s->label[s->inb[v]] == 1)
                    s->dual[v] -= delta;
                else if (s->label[s->inb[v]] == 2)
                    s->dual[v] += delta;
            }
            for (int64_t b = s->next[nv - 1]; b >= 0; b = s->next[b]) {
                if (s->parent[b] == -1 && s->label[b] == 1)
                    s->bdual[b] += delta;
                else if (s->parent[b] == -1 && s->label[b] == 2)
                    s->bdual[b] -= delta;
            }
            if (type == 1)
                break;
            if (type == 4) {
                mw_expand(s, blossom, 0);
            } else {
                s->allow[edge >> 1] = 1;
                s->queue[s->nq++] = TAIL(edge);
            }
        }
        if (!augmented)
            return 0;
        for (int64_t b = s->next[nv - 1], next; b >= 0; b = next) {
            next = s->next[b];
            if (s->parent[b] == -1 && s->label[b] == 1 && s->bdual[b] == 0.0)
                mw_expand(s, b, 1);
        }
    }
}

/* mate[v] <- v's partner in the maximum-weight matching of the graph on
   nodes 0 .. nnodes-1 with edges (x[e], y[e]) of weight w[e], or -1.
   Returns 0, -2 for a node outside 0 .. nnodes-1, a loop, a repeated
   pair or a weight that is not finite, or -3 when memory runs out. */
int64_t l0_matching(int64_t nnodes, int64_t narcs, const int64_t *x,
                    const int64_t *y, const double *w, int64_t *mate)
{
    int64_t *pos = malloc((size_t)(2 * nnodes + 1) * sizeof(int64_t)), *node = pos + nnodes;
    int64_t nv = 0, ne = 2 * narcs, fail = -3;
    if (pos == NULL)
        return -3;
    for (int64_t v = 0; v < nnodes; v++)
        pos[v] = mate[v] = -1;
    for (int64_t e = 0; e < ne; e++) {
        int64_t u = e & 1 ? y[e / 2] : x[e / 2];
        if (u < 0 || u >= nnodes || x[e / 2] == y[e / 2] || !isfinite(w[e / 2])) {
            free(pos);
            return -2;
        }
        if (pos[u] < 0)
            node[pos[u] = nv++] = u;
    }
    mw_t st = {.nv = nv, .last = nv - 1, .nfree = nv, .wt = w};
    mw_t *s = &st;
    int64_t *iw = malloc((size_t)(2 * ne + 35 * nv + 1) * sizeof(int64_t));
    double *dw = malloc((size_t)(3 * nv + 1) * sizeof(double));
    int64_t **pw = calloc((size_t)(4 * nv + 1), sizeof(int64_t *));
    s->allow = malloc((size_t)narcs + 1);
    if (iw == NULL || dw == NULL || pw == NULL || s->allow == NULL)
        goto done;
    int64_t *end = iw, *adjk = end + ne, *adjp = adjk + ne, **id2[] = {
        &s->label, &s->ledge, &s->parent, &s->base, &s->best, &s->nch, &s->mybn,
        &s->next, &s->prev, &s->to, &s->ent, &s->keys, &s->stk, &s->buf, &s->queue};
    s->mate = adjp + nv + 1;
    s->inb = s->mate + nv;
    s->lv = s->inb + nv;
    s->freeb = s->lv + nv;
    for (int64_t a = 0; a < 15; a++)
        *id2[a] = s->freeb + nv + 2 * nv * a;
    s->end = end;
    s->adjk = adjk;
    s->adjp = adjp;
    s->kids = pw;
    s->myb = pw + 2 * nv;
    s->dual = dw;
    s->bdual = dw + nv;
    /* neighbours in arc order, as the reference's adjacency dicts hold them */
    for (int64_t v = 0; v <= nv; v++)
        adjp[v] = 0;
    for (int64_t e = 0; e < ne; e++)
        adjp[(end[e] = pos[e & 1 ? y[e / 2] : x[e / 2]]) + 1]++;
    for (int64_t v = 0; v < nv; v++)
        adjp[v + 1] += adjp[v];
    for (int64_t v = 0; v < nv; v++)
        s->lv[v] = adjp[v];
    for (int64_t e = 0; e < ne; e++)
        adjk[s->lv[end[e]]++] = e;
    double maxweight = 0.0;
    for (int64_t e = 0; e < narcs; e++)
        if (w[e] > maxweight)
            maxweight = w[e];
    for (int64_t v = 0; v < 2 * nv; v++) {
        s->to[v] = -1;
        s->parent[v] = -1;
        s->base[v] = v;
        s->next[v] = v + 1 < nv ? v + 1 : -1;
        s->prev[v] = v - 1;
    }
    for (int64_t v = 0; v < nv; v++) {
        s->inb[v] = v;
        s->mate[v] = -1;
        s->dual[v] = maxweight;
        s->freeb[v] = 2 * nv - 1 - v;
        for (int64_t p = adjp[v]; p < adjp[v + 1]; p++) {
            if (s->to[HEAD(adjk[p])] == v) {
                fail = -2;
                goto done;
            }
            s->to[HEAD(adjk[p])] = v;
        }
    }
    for (int64_t v = 0; v < nv; v++)
        s->to[v] = -1;
    if ((fail = nv > 0 ? mw_solve(s) : 0) == 0)
        for (int64_t v = 0; v < nv; v++)
            if (s->mate[v] >= 0)
                mate[node[v]] = node[HEAD(s->mate[v])];
done:
    if (pw != NULL)
        for (int64_t b = 0; b < 4 * nv; b++)
            free(pw[b]);
    free(pos);
    free(iw);
    free(dw);
    free(pw);
    free(s->allow);
    return fail;
}
"""
# the pivot tolerance reaches the C source as a flag, so that Python and C
# read one definition
_CFLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off", f"-DPIVOT_TOL={PIVOT_TOL!r}")


def _load_library():
    """The compiled kernels, built into the cache on first use; raises
    ImportError naming the cause when no compiler is found or the build or
    load fails."""
    key = hashlib.sha256("\0".join((_C_SOURCE,) + _CFLAGS).encode()).hexdigest()[:16]
    cache = Path(__file__).with_name("__pycache__")
    path = cache / f"_kernels_c.{key}.so"
    if not path.exists():
        cc = shutil.which("cc")
        if cc is None:
            raise ImportError("no C compiler (cc) on PATH to build l0path's kernels at first import")
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
            raise ImportError(f"building the C kernels with {cc} failed:\n{e.stderr}") from e
        except OSError as e:
            raise ImportError(f"building the C kernels into {cache} failed: {e}") from e
    try:
        lib = ctypes.CDLL(str(path))
    except OSError as e:
        raise ImportError(f"loading the C kernels failed: {e}") from e
    i64, ptr = ctypes.c_int64, ctypes.c_void_p
    lib.l0_labels.argtypes = [i64] + [ptr] * 7
    lib.l0_thomas.argtypes = [i64] + [ptr] * 6
    lib.l0_segments.argtypes = [i64] + [ptr] * 8
    lib.l0_ldl.argtypes = [i64] + [ptr] * 4
    lib.l0_enumerate.argtypes = [i64] + [ptr] * 5
    lib.l0_matching.argtypes = [i64, i64] + [ptr] * 4
    for fn in (lib.l0_labels, lib.l0_thomas, lib.l0_segments, lib.l0_ldl, lib.l0_enumerate, lib.l0_matching):
        fn.restype = i64
    return lib


_lib = _load_library()

_F64 = np.dtype(np.float64)
_I64 = np.dtype(np.int64)


def _ptr(arr, dtype):
    """Address of a one-dimensional C-contiguous array of `dtype`; cheaper
    per call than ctypes' ndpointer, which checks the same."""
    if arr.dtype != dtype or arr.ndim != 1 or not arr.flags.c_contiguous:
        raise TypeError(f"kernel arrays must be one-dimensional contiguous {dtype}")
    return arr.ctypes.data


def _check_lengths(m, full, off):
    """Refuse arrays the C loops would index out of bounds."""
    if any(v.shape != (m,) for v in full) or off.shape != (max(m - 1, 0),):
        raise ValueError("kernel inputs need length m, and m - 1 for off")


def labels_kernel(a, c, diag, off):
    """Label sweep as a wavefront over blocks of rows, bitwise equal to
    the row-major sweep; returns (labels, preds, z, fail_col), with z the
    optimal support as 0.0/1.0 (undefined when a pivot fails)."""
    m = a.shape[0]
    _check_lengths(m, (c, diag), off)
    labels, preds, z = np.empty(m + 2), np.empty(m + 2, dtype=np.int64), np.empty(m)
    fail = _lib.l0_labels(
        m, *(_ptr(v, _F64) for v in (a, c, diag, off, labels)), _ptr(preds, _I64), _ptr(z, _F64)
    )
    return labels, preds, z, fail


def thomas_kernel(diag, off, c, z):
    """Solve T x = -c with the couplings cut at the zeros of z, x zero
    there; returns (x, fail_row)."""
    m = diag.shape[0]
    _check_lengths(m, (c, z), off)
    if m < 1:
        raise ValueError("thomas_kernel needs m >= 1")
    # named, so that the arrays outlive the call that writes them
    piv, x = np.empty(m), np.empty(m)
    fail = _lib.l0_thomas(m, *(_ptr(v, _F64) for v in (diag, off, c, z, piv, x)))
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
    fail = _lib.l0_segments(
        bounds.size - 1, _ptr(bounds, _I64), *(_ptr(v, _F64) for v in (a, c, diag, off, x, z, obj))
    )
    if fail == -3:
        raise MemoryError("segment kernel scratch")
    return x, z, obj, fail


def ldl_kernel(n, Ap, Ai, Ax, b):
    """Factor the symmetric matrix whose upper triangle is (Ap, Ai, Ax)
    in CSC form and overwrite b with the solution of A x = b; returns
    the first column whose pivot is <= PIVOT_TOL, or -1."""
    if Ap.shape != (n + 1,) or b.shape != (n,) or Ai.shape != Ax.shape or Ai.shape != (Ap[n],):
        raise ValueError("ldl_kernel needs Ap of length n + 1, b of length n, and Ap[n] entries")
    fail = _lib.l0_ldl(n, _ptr(Ap, _I64), _ptr(Ai, _I64), _ptr(Ax, _F64), _ptr(b, _F64))
    if fail == -2:
        raise ValueError("malformed CSC pattern")
    if fail == -3:
        raise MemoryError("sparse factor of the support")
    return fail


def enumerate_kernel(a, c, q):
    """Minimize over all supports of the dense matrix q, depth first;
    returns (value, mask, skipped)."""
    n = a.shape[0]
    if n > MAX_ENUM_VARS:
        raise ValueError(f"enumerate_kernel takes at most {MAX_ENUM_VARS} variables")
    if c.shape != (n,) or q.shape != (n, n) or q.dtype != _F64 or not q.flags.c_contiguous:
        raise ValueError("enumerate_kernel needs c of length n and q a C-contiguous (n, n) float64 array")
    val, mask = ctypes.c_double(), ctypes.c_int64()
    skipped = _lib.l0_enumerate(
        n, _ptr(a, _F64), _ptr(c, _F64), q.ctypes.data, ctypes.addressof(val), ctypes.addressof(mask)
    )
    if skipped == -3:
        raise MemoryError("enumeration kernel scratch")
    return val.value, mask.value, skipped


def matching_kernel(n, x, y, w):
    """Maximum-weight matching of the simple graph on nodes 0 .. n-1 with
    edges (x[e], y[e]) of weight w[e], the one NetworkX's
    max_weight_matching finds on the same arcs, ties included; returns
    mate, with mate[v] the partner of v or -1."""
    if n < 0 or x.ndim != 1 or x.shape != y.shape or x.shape != w.shape:
        raise ValueError("matching_kernel needs n >= 0 and x, y and w of one length")
    mate = np.empty(n, dtype=np.int64)
    done = _lib.l0_matching(n, x.size, _ptr(x, _I64), _ptr(y, _I64), _ptr(w, _F64), _ptr(mate, _I64))
    if done == -2:
        raise ValueError("matching_kernel needs nodes in 0 .. n-1, no loops, no repeated pairs and finite weights")
    if done == -3:
        raise MemoryError("matching kernel scratch")
    return mate
