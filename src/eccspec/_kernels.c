/*
 * Compiled kernels: BFS distances, canonical labeling, census invariants,
 * characteristic polynomials.
 *
 * A plain CPython extension module, eccspec._kernels, with the same
 * functions, signatures, limits and exception types as the pure-Python
 * reference eccspec._kernels_py; the parity tests drive both backends over
 * the same corpora.  Graphs are adjacency bitsets: bit j of adj[i] is set
 * iff ij is an edge.  Fixed-width arithmetic has two stated bounds, each
 * with tests at it: the int128 Bareiss bound of the census_stats ranks
 * (n <= 10) and the modular bound of the one Berkowitz recurrence, which
 * charpoly and census_stats share (any n).  Build with
 * `python setup.py build_ext --inplace` (needs only a C compiler with
 * __int128, e.g. gcc or clang).
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define MAXN_CANON 16
#define MAXN_CENSUS 10
#define MAXN_DIST 64
#define STATE_CAP 500000
#define UNREACH (-1)

typedef __int128 i128;
typedef unsigned __int128 u128;

/* ------------------------------------------------------------------------
 * conversions */

/* Read adj[0..n-1] into out[]; every row must be a bitset over 0..n-1. */
static int
load_adj(int n, PyObject *adj, uint64_t *out)
{
    PyObject *seq = PySequence_Fast(adj, "adjacency rows must be a sequence");
    if (seq == NULL)
        return -1;
    if (PySequence_Fast_GET_SIZE(seq) < n) {
        Py_DECREF(seq);
        PyErr_SetString(PyExc_IndexError, "fewer adjacency rows than vertices");
        return -1;
    }
    PyObject **items = PySequence_Fast_ITEMS(seq);
    for (int i = 0; i < n; i++) {
        unsigned long long row = PyLong_AsUnsignedLongLong(items[i]);
        if (row == (unsigned long long)-1 && PyErr_Occurred()) {
            Py_DECREF(seq);
            return -1;
        }
        if (n < 64 && (row >> n) != 0) {
            Py_DECREF(seq);
            PyErr_Format(PyExc_ValueError,
                         "adjacency row %d references vertices >= %d", i, n);
            return -1;
        }
        out[i] = row;
    }
    Py_DECREF(seq);
    return 0;
}

static PyObject *
u128_to_py(u128 v)
{
    if ((v >> 64) == 0)
        return PyLong_FromUnsignedLongLong((unsigned long long)v);
    PyObject *hi = PyLong_FromUnsignedLongLong((unsigned long long)(v >> 64));
    PyObject *lo = PyLong_FromUnsignedLongLong((unsigned long long)v);
    PyObject *sh = PyLong_FromLong(64);
    PyObject *hs = NULL, *out = NULL;
    if (hi && lo && sh && (hs = PyNumber_Lshift(hi, sh)) != NULL)
        out = PyNumber_Or(hs, lo);
    Py_XDECREF(hi);
    Py_XDECREF(lo);
    Py_XDECREF(sh);
    Py_XDECREF(hs);
    return out;
}

/* ------------------------------------------------------------------------
 * BFS distances */

static void
bfs(int n, const uint64_t *adj, int src, int *dist)
{
    for (int i = 0; i < n; i++)
        dist[i] = UNREACH;
    dist[src] = 0;
    uint64_t seen = (uint64_t)1 << src, frontier = seen;
    for (int d = 1; frontier; d++) {
        uint64_t nxt = 0;
        for (uint64_t m = frontier; m; m &= m - 1)
            nxt |= adj[__builtin_ctzll(m)];
        nxt &= ~seen;
        for (uint64_t m = nxt; m; m &= m - 1)
            dist[__builtin_ctzll(m)] = d;
        seen |= nxt;
        frontier = nxt;
    }
}

/* Parse the (n, adj) arguments, 1 <= n <= maxn, and load the rows. */
static int
parse_graph(PyObject *args, int maxn, const char *what, int *n, uint64_t *adj)
{
    PyObject *rows;
    if (!PyArg_ParseTuple(args, "iO", n, &rows))
        return -1;
    if (*n < 1 || *n > maxn) {
        PyErr_Format(PyExc_ValueError, "%s supports 1 <= n <= %d", what, maxn);
        return -1;
    }
    return load_adj(*n, rows, adj);
}

static PyObject *
k_all_pairs_dist(PyObject *self, PyObject *args)
{
    uint64_t adj[MAXN_DIST];
    int dist[MAXN_DIST], n;
    if (parse_graph(args, MAXN_DIST, "all_pairs_dist", &n, adj) < 0)
        return NULL;
    PyObject *out = PyList_New(n);
    if (out == NULL)
        return NULL;
    for (int s = 0; s < n; s++) {
        bfs(n, adj, s, dist);
        PyObject *row = PyList_New(n);
        if (row == NULL) {
            Py_DECREF(out);
            return NULL;
        }
        PyList_SET_ITEM(out, s, row);
        for (int i = 0; i < n; i++) {
            PyObject *d = PyLong_FromLong(dist[i]);
            if (d == NULL) {
                Py_DECREF(out);
                return NULL;
            }
            PyList_SET_ITEM(row, i, d);
        }
    }
    return out;
}

static PyObject *
k_is_connected(PyObject *self, PyObject *args)
{
    uint64_t adj[MAXN_DIST];
    int dist[MAXN_DIST], n;
    if (parse_graph(args, MAXN_DIST, "is_connected", &n, adj) < 0)
        return NULL;
    bfs(n, adj, 0, dist);
    for (int i = 0; i < n; i++)
        if (dist[i] == UNREACH)
            Py_RETURN_FALSE;
    Py_RETURN_TRUE;
}

/* ------------------------------------------------------------------------
 * canonical labeling */

static int
sig_cmp(const int *a, const int *b, int len)
{
    for (int i = 0; i < len; i++)
        if (a[i] != b[i])
            return a[i] < b[i] ? -1 : 1;
    return 0;
}

/* Neighborhood-refinement colors, densely ranked by the signature
 * (own color, neighbor-color count vector) in lexicographic order, iterated
 * to a fixed point.  The ranking is isomorphism-invariant and matches the
 * tuple ordering of the reference, so canonical forms agree bit for bit. */
static void
wl_colors(int n, const uint64_t *adj, int *colors)
{
    int sig[MAXN_CANON][MAXN_CANON + 1], order[MAXN_CANON], newc[MAXN_CANON];
    int ncol = 1;
    for (int v = 0; v < n; v++)
        colors[v] = 0;
    for (;;) {
        for (int v = 0; v < n; v++) {
            sig[v][0] = colors[v];
            memset(&sig[v][1], 0, ncol * sizeof(int));
            for (uint64_t m = adj[v]; m; m &= m - 1)
                sig[v][1 + colors[__builtin_ctzll(m)]]++;
        }
        /* insertion sort of the vertices by signature */
        for (int i = 0; i < n; i++) {
            int v = order[i] = i, j = i - 1;
            while (j >= 0 && sig_cmp(sig[order[j]], sig[v], ncol + 1) > 0) {
                order[j + 1] = order[j];
                j--;
            }
            order[j + 1] = v;
        }
        int rank = 0, changed = 0;
        newc[order[0]] = 0;
        for (int i = 1; i < n; i++) {
            if (sig_cmp(sig[order[i - 1]], sig[order[i]], ncol + 1) != 0)
                rank++;
            newc[order[i]] = rank;
        }
        for (int v = 0; v < n; v++) {
            changed |= newc[v] != colors[v];
            colors[v] = newc[v];
        }
        if (!changed)
            return;
        ncol = rank + 1;
    }
}

/* One frontier state of the canonical search: the vertices not yet placed
 * and, per remaining vertex, its adjacency to the placed prefix, kept
 * left-aligned (bit 63-k for position k).  Rows of placed vertices and of
 * slots >= n are zero, so equal states compare equal bytewise. */
typedef struct {
    uint64_t rem;
    uint64_t rows[MAXN_CANON];
} state_t;

typedef struct {
    state_t *s;
    int count, cap;
} statebuf_t;

static int
buf_push(statebuf_t *b)
{
    if (b->count < b->cap)
        return 0;
    int cap = b->cap ? 2 * b->cap : 64;
    if (cap > STATE_CAP)
        cap = STATE_CAP;
    if (b->count >= cap) {
        PyErr_SetString(PyExc_RuntimeError, "canonical labeling state explosion");
        return -1;
    }
    state_t *s = PyMem_Realloc(b->s, (size_t)cap * sizeof(state_t));
    if (s == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    b->s = s;
    b->cap = cap;
    return 0;
}

static int
state_cmp(const void *a, const void *b)
{
    return memcmp(a, b, sizeof(state_t));
}

/* Sort the states and drop duplicates.  The frontier is a set: the minimum
 * row of the next step and the states it expands to do not depend on the
 * order of the states, so sorting changes no canonical form. */
static void
merge_states(statebuf_t *b)
{
    if (b->count < 2)
        return;
    qsort(b->s, b->count, sizeof(state_t), state_cmp);
    int j = 1;
    for (int i = 1; i < b->count; i++)
        if (memcmp(&b->s[i], &b->s[j - 1], sizeof(state_t)) != 0) {
            if (i != j)
                b->s[j] = b->s[i];
            j++;
        }
    b->count = j;
}

/* Candidates for the next position in one state: the remaining vertices of
 * color class `cls`, keeping only the first of each set of twins (vertices
 * with equal open or closed neighborhoods are exchanged by an automorphism
 * that fixes everything else, so one branch stands for all of them). */
static uint64_t
kept_candidates(uint64_t cand, const uint64_t *twin)
{
    uint64_t kept = 0;
    for (uint64_t m = cand; m; m &= m - 1) {
        int v = __builtin_ctzll(m);
        if (!(twin[v] & kept))
            kept |= (uint64_t)1 << v;
    }
    return kept;
}

/* Canonical form: the minimal packed lower-triangle bit string over all
 * vertex orderings consistent with the refined color classes, found by a
 * breadth-first search that keeps only the states achieving the minimal row
 * at each position (state merging, twin pruning).  Equal results iff the
 * graphs are isomorphic.  Returns -1 with an exception set on failure. */
static int
canon_impl(int n, const uint64_t *adj, u128 *result)
{
    int colors[MAXN_CANON], cnt[MAXN_CANON] = {0}, block[MAXN_CANON];
    uint64_t clsmask[MAXN_CANON] = {0}, twin[MAXN_CANON] = {0};
    u128 out = 0;
    *result = 0;
    if (n <= 1)
        return 0;
    wl_colors(n, adj, colors);
    for (int v = 0; v < n; v++) {
        cnt[colors[v]]++;
        clsmask[colors[v]] |= (uint64_t)1 << v;
    }
    for (int c = 0, k = 0; c < n; c++)
        for (int j = 0; j < cnt[c]; j++)
            block[k++] = c;
    /* twins always share a refined color */
    for (int v = 0; v < n; v++)
        for (int u = 0; u < v; u++)
            if (colors[u] == colors[v]
                && (adj[u] & ~((uint64_t)1 << v)) == (adj[v] & ~((uint64_t)1 << u))) {
                twin[u] |= (uint64_t)1 << v;
                twin[v] |= (uint64_t)1 << u;
            }

    statebuf_t cur = {NULL, 0, 0}, nxt = {NULL, 0, 0};
    int status = -1;
    if (buf_push(&cur) < 0)
        goto done;
    memset(&cur.s[0], 0, sizeof(state_t));
    cur.s[0].rem = ((uint64_t)1 << n) - 1;
    cur.count = 1;
    for (int k = 0; k < n; k++) {
        uint64_t cls = clsmask[block[k]], best = UINT64_MAX;
        /* pass 1: the minimal candidate row over all states */
        for (int si = 0; si < cur.count; si++) {
            const state_t *st = &cur.s[si];
            for (uint64_t m = kept_candidates(st->rem & cls, twin); m; m &= m - 1) {
                uint64_t r = st->rows[__builtin_ctzll(m)];
                if (r < best)
                    best = r;
            }
        }
        if (k)
            out = (out << k) | (u128)(best >> (64 - k));
        /* pass 2: expand every candidate achieving it */
        uint64_t bit = (uint64_t)1 << (63 - k);
        nxt.count = 0;
        for (int si = 0; si < cur.count; si++) {
            const state_t *st = &cur.s[si];
            for (uint64_t m = kept_candidates(st->rem & cls, twin); m; m &= m - 1) {
                int v = __builtin_ctzll(m);
                if (st->rows[v] != best)
                    continue;
                if (buf_push(&nxt) < 0)
                    goto done;
                state_t *ch = &nxt.s[nxt.count++];
                memset(ch, 0, sizeof(state_t));
                ch->rem = st->rem & ~((uint64_t)1 << v);
                for (uint64_t r = ch->rem; r; r &= r - 1) {
                    int u = __builtin_ctzll(r);
                    ch->rows[u] = st->rows[u] | (((adj[v] >> u) & 1) ? bit : 0);
                }
            }
        }
        merge_states(&nxt);
        statebuf_t tmp = cur;
        cur = nxt;
        nxt = tmp;
    }
    *result = out;
    status = 0;
done:
    PyMem_Free(cur.s);
    PyMem_Free(nxt.s);
    return status;
}

static PyObject *
k_canon_bits(PyObject *self, PyObject *args)
{
    uint64_t adj[MAXN_CANON];
    int n;
    u128 bits;
    if (parse_graph(args, MAXN_CANON, "canonical labeling", &n, adj) < 0
        || canon_impl(n, adj, &bits) < 0)
        return NULL;
    return u128_to_py(bits);
}

static PyObject *
k_children_canon(PyObject *self, PyObject *args)
{
    uint64_t adj[MAXN_CANON], work[MAXN_CANON];
    int n;
    if (parse_graph(args, MAXN_CANON - 1, "children_canon", &n, adj) < 0)
        return NULL;
    uint64_t full = ((uint64_t)1 << n) - 1;
    PyObject *out = PyList_New((Py_ssize_t)full);
    if (out == NULL)
        return NULL;
    for (uint64_t sub = 1; sub <= full; sub++) {
        u128 bits;
        for (int i = 0; i < n; i++)
            work[i] = adj[i] | (((sub >> i) & 1) << n);
        work[n] = sub;
        PyObject *item = NULL;
        if (canon_impl(n + 1, work, &bits) < 0 || (item = u128_to_py(bits)) == NULL) {
            Py_DECREF(out);
            return NULL;
        }
        PyList_SET_ITEM(out, (Py_ssize_t)(sub - 1), item);
    }
    return out;
}

static PyObject *
k_bits_to_adj(PyObject *self, PyObject *args)
{
    PyObject *obj, *sh, *hiobj = NULL;
    int n;
    if (!PyArg_ParseTuple(args, "iO!", &n, &PyLong_Type, &obj))
        return NULL;
    if (n < 1 || n > MAXN_CANON)
        return PyErr_Format(PyExc_ValueError,
                            "bits_to_adj supports 1 <= n <= %d", MAXN_CANON);
    /* split into 64-bit halves; a negative or over-long high half is out of
     * range, as is anything at or above 2^nbits (nbits <= 120) */
    int nbits = n * (n - 1) / 2;
    unsigned long long lo = PyLong_AsUnsignedLongLongMask(obj), hi;
    if ((sh = PyLong_FromLong(64)) != NULL)
        hiobj = PyNumber_Rshift(obj, sh);
    Py_XDECREF(sh);
    if (hiobj == NULL)
        return NULL;
    hi = PyLong_AsUnsignedLongLong(hiobj);
    Py_DECREF(hiobj);
    int bad = hi == (unsigned long long)-1 && PyErr_Occurred();
    if (bad && !PyErr_ExceptionMatches(PyExc_OverflowError))
        return NULL;
    PyErr_Clear();
    u128 bits = ((u128)hi << 64) | lo;
    if (bad || (bits >> nbits) != 0)
        return PyErr_Format(PyExc_ValueError, "bit form out of range for n=%d", n);
    uint64_t adj[MAXN_CANON] = {0};
    int idx = nbits - 1;
    for (int col = 1; col < n; col++)
        for (int row = 0; row < col; row++, idx--)
            if ((bits >> idx) & 1) {
                adj[row] |= (uint64_t)1 << col;
                adj[col] |= (uint64_t)1 << row;
            }
    PyObject *out = PyList_New(n);
    if (out == NULL)
        return NULL;
    for (int i = 0; i < n; i++) {
        PyObject *r = PyLong_FromUnsignedLongLong(adj[i]);
        if (r == NULL) {
            Py_DECREF(out);
            return NULL;
        }
        PyList_SET_ITEM(out, i, r);
    }
    return out;
}

/* ------------------------------------------------------------------------
 * census invariants
 *
 * census_stats takes n <= MAXN_CENSUS = 10 connected vertices, so every
 * entry of the largest-distance matrix E lies in 0..diam <= 9, with a zero
 * diagonal.  Its characteristic polynomial comes from charpoly_core below,
 * under the modular bound stated there, with R the largest row sum of E.
 * Entry uv of E is 0 or d(u,v), and a vertex of eccentricity e has a vertex
 * at each distance 1..e-1, so its row sums to at most
 * e(e-1)/2 + (n-e)e <= 44 for n <= 10, except for an end of P10 (e = 9),
 * whose row sums to 35.  As 2 (1+44)^10 is below the first prime, the census
 * takes one prime per graph (the orders n <= 9 reach R = 30).
 *
 * Fixed-width bound of the ranks.  E + sI (s <= 2) adds at most 2 on the
 * diagonal, so every column of E + sI has Euclidean norm at most
 * sqrt(10 * 81) < 28.5.  Every Bareiss intermediate a[i][j] is a minor of
 * the row- and column-permuted input, so by Hadamard's inequality
 * |a[i][j]| <= 28.5^10 < 3.6e14.  The largest value formed is the product
 * a[i][j]*piv - a[i][k]*a[k][j], before the exact division by the previous
 * pivot: at most 2 * (3.6e14)^2 < 2.6e29, far below the int128 limit 1.7e38
 * and beyond 64 bits.  Actual values are far smaller: the largest
 * intermediate over the extreme inputs the parity tests check against the
 * arbitrary-precision route (P10, C10, K10, K_{1,9}, spiders, a lollipop,
 * barbells) and 3000 random connected n=10 graphs is 3.8e12 (on C10).
 */

/* Rank of E + shift*I (e row-major n x n) by fraction-free (Bareiss)
 * elimination with full pivoting in 128-bit integers. */
static int
rank_shift(int n, const int64_t *e, int shift)
{
    i128 a[MAXN_CENSUS][MAXN_CENSUS], prev = 1;
    int rank = 0;
    for (int i = 0; i < n; i++) {
        for (int j = 0; j < n; j++)
            a[i][j] = e[i * n + j];
        a[i][i] += shift;
    }
    for (int k = 0; k < n; k++) {
        int pr = -1, pc = -1;
        for (int i = k; i < n && pr < 0; i++)
            for (int j = k; j < n; j++)
                if (a[i][j] != 0) {
                    pr = i;
                    pc = j;
                    break;
                }
        if (pr < 0)
            break;
        if (pr != k)
            for (int j = 0; j < n; j++) {
                i128 t = a[k][j];
                a[k][j] = a[pr][j];
                a[pr][j] = t;
            }
        if (pc != k)
            for (int i = 0; i < n; i++) {
                i128 t = a[i][k];
                a[i][k] = a[i][pc];
                a[i][pc] = t;
            }
        i128 piv = a[k][k];
        for (int i = k + 1; i < n; i++) {
            for (int j = k + 1; j < n; j++)
                a[i][j] = (a[i][j] * piv - a[i][k] * a[k][j]) / prev;
            a[i][k] = 0;
        }
        prev = piv;
        rank++;
    }
    return rank;
}

static PyObject *charpoly_core(Py_ssize_t n, const int64_t *small,
                               PyObject *const *big, PyObject *R);

static PyObject *
k_census_stats(PyObject *self, PyObject *args)
{
    uint64_t adj[MAXN_CENSUS];
    int dist[MAXN_CENSUS][MAXN_CENSUS], ecc[MAXN_CENSUS];
    int64_t e[MAXN_CENSUS * MAXN_CENSUS];
    int n;
    if (parse_graph(args, MAXN_CENSUS, "census_stats", &n, adj) < 0)
        return NULL;
    int diam = 0, v1 = 0;
    for (int i = 0; i < n; i++) {
        bfs(n, adj, i, dist[i]);
        ecc[i] = 0;
        for (int j = 0; j < n; j++) {
            if (dist[i][j] == UNREACH) {
                PyErr_SetString(PyExc_ValueError,
                                "census_stats requires a connected graph");
                return NULL;
            }
            if (dist[i][j] > ecc[i])
                ecc[i] = dist[i][j];
        }
        if (ecc[i] > diam)
            diam = ecc[i];
        v1 += ecc[i] == 1;
    }
    long rmax = 0;
    for (int i = 0; i < n; i++) {
        long sum = 0;
        for (int j = 0; j < n; j++) {
            int d = dist[i][j], m = ecc[i] < ecc[j] ? ecc[i] : ecc[j];
            e[i * n + j] = (i != j && d == m) ? d : 0;
            sum += e[i * n + j];
        }
        if (sum > rmax)
            rmax = sum;
    }
    int m1 = n - rank_shift(n, e, 1);
    int m2 = n - rank_shift(n, e, 2);
    int m0 = n - rank_shift(n, e, 0);
    PyObject *R = PyLong_FromLong(rmax), *coeffs = NULL;
    if (R != NULL)
        coeffs = charpoly_core(n, e, NULL, R);
    Py_XDECREF(R);
    if (coeffs == NULL)
        return NULL;
    return Py_BuildValue("(iiiiiN)", diam, v1, m1, m2, m0, coeffs);
}

/* ------------------------------------------------------------------------
 * characteristic polynomial of any square integer matrix (multimodular)
 *
 * charpoly_core runs the division-free Samuelson-Berkowitz recurrence
 * modulo word-size primes and lifts the residues of each coefficient to an
 * integer by Garner's mixed-radix CRT, built as Python ints.  charpoly and
 * census_stats both reach it.  Any order and any entry size is accepted,
 * symmetric or not: int64 entries take a fast path, larger ones are reduced
 * by PyNumber_Remainder.
 *
 * Modular bound, beside the int128 Bareiss one above.  Let R be the largest
 * absolute row sum of M.  Every eigenvalue l of M, symmetric or not, has
 * |l| <= R: for an eigenvector x and i with |x_i| maximal,
 * |l| |x_i| = |sum_j m_ij x_j| <= R |x_i|.  The coefficient of x^(n-k) in
 * det(xI - M) is (-1)^k e_k(l_1, ..., l_n), so its absolute value is at
 * most C(n,k) R^k <= (1+R)^n.  Primes are taken, in the fixed order below,
 * until their product P exceeds 2 (1+R)^n.  Every coefficient then lies
 * strictly inside (-P/2, P/2), where a residue class mod P has exactly one
 * member: the symmetric residue Garner's lift returns is the coefficient.
 *
 * Word arithmetic.  The primes lie below 2^56, and sums of products of
 * residues reduce by Montgomery's REDC with R = 2^64: for T < p 2^64,
 * REDC(T) = T R^-1 mod p in two multiplications and no division.  A sum of
 * 255 products of residues is below 255 p^2 < p 2^64, so dot products
 * accumulate 255 terms at a time in unsigned __int128 before each REDC.
 * The matrix is kept in Montgomery form (a R mod p), so a dot product of a
 * row with a plain vector comes out plain.
 */

#define PRIME_TOP ((uint64_t)1 << 56)
#define DOT_BLOCK 255

static uint64_t
mulmod(uint64_t a, uint64_t b, uint64_t p)
{
    return (uint64_t)((u128)a * b % p);
}

static uint64_t
powmod(uint64_t a, uint64_t e, uint64_t p)
{
    uint64_t r = 1;
    for (; e; e >>= 1, a = mulmod(a, a, p))
        if (e & 1)
            r = mulmod(r, a, p);
    return r;
}

/* A prime p with its Montgomery constants: pneg = -p^-1 mod 2^64 and
 * r2 = R^2 mod p, R = 2^64. */
typedef struct {
    uint64_t p, pneg, r2;
} mont_t;

static mont_t
mont_init(uint64_t p)
{
    uint64_t inv = p;  /* Newton's iteration doubles the correct low bits */
    for (int i = 0; i < 5; i++)
        inv *= 2 - p * inv;
    uint64_t r = (uint64_t)0 - p;  /* 2^64 - p */
    r %= p;
    mont_t m = {p, (uint64_t)0 - inv, mulmod(r, r, p)};
    return m;
}

/* T R^-1 mod p for T < p 2^64 */
static inline uint64_t
redc(u128 t, const mont_t *m)
{
    uint64_t q = (uint64_t)t * m->pneg;
    uint64_t s = (uint64_t)((t + (u128)q * m->p) >> 64);
    return s >= m->p ? s - m->p : s;
}

/* Miller-Rabin with the first twelve prime bases: deterministic below
 * 3.3e24, so exact for every 64-bit odd m > 37. */
static int
is_prime_u64(uint64_t m)
{
    static const uint64_t bases[] = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37};
    uint64_t d = m - 1;
    int s = 0;
    for (; !(d & 1); d >>= 1)
        s++;
    for (int b = 0; b < 12; b++) {
        uint64_t x = powmod(bases[b], d, m);
        if (x == 1 || x == m - 1)
            continue;
        int i = 1;
        for (; i < s; i++) {
            x = mulmod(x, x, m);
            if (x == m - 1)
                break;
        }
        if (i == s)
            return 0;
    }
    return 1;
}

/* The primes below 2^56 in decreasing order, found on demand and kept for
 * the life of the process, with ginv[j] = (p_0 p_1 ... p_{j-1})^-1 mod p_j,
 * the constants of Garner's lift. */
static uint64_t *gprimes, *ginv;
static Py_ssize_t gcount, gcap;

static int
ensure_primes(Py_ssize_t k)
{
    if (k > gcap) {
        Py_ssize_t cap = gcap ? gcap : 16;
        while (cap < k)
            cap *= 2;
        uint64_t *p = PyMem_Realloc(gprimes, (size_t)cap * sizeof(uint64_t));
        if (p == NULL)
            goto nomem;
        gprimes = p;
        uint64_t *q = PyMem_Realloc(ginv, (size_t)cap * sizeof(uint64_t));
        if (q == NULL)
            goto nomem;
        ginv = q;
        gcap = cap;
    }
    while (gcount < k) {
        uint64_t m = gcount ? gprimes[gcount - 1] - 2 : PRIME_TOP - 1;
        while (!is_prime_u64(m))
            m -= 2;
        uint64_t prod = 1;
        for (Py_ssize_t i = 0; i < gcount; i++)
            prod = mulmod(prod, gprimes[i] % m, m);
        gprimes[gcount] = m;
        ginv[gcount] = powmod(prod, m - 2, m);
        gcount++;
    }
    return 0;
nomem:
    PyErr_NoMemory();
    return -1;
}

/* The number of primes charpoly takes for an n x n matrix whose largest
 * absolute row sum is R (a Python int): the fewest whose product exceeds
 * 2 (1+R)^n.  Stores that product in *prod (a new reference). */
static Py_ssize_t
choose_primes(Py_ssize_t n, PyObject *R, PyObject **prod)
{
    PyObject *one = NULL, *two = NULL, *base = NULL, *exp = NULL, *pw = NULL,
             *bound = NULL, *acc = NULL;
    Py_ssize_t k = -1;
    *prod = NULL;
    if ((one = PyLong_FromLong(1)) == NULL || (two = PyLong_FromLong(2)) == NULL
        || (base = PyNumber_Add(R, one)) == NULL
        || (exp = PyLong_FromSsize_t(n)) == NULL
        || (pw = PyNumber_Power(base, exp, Py_None)) == NULL
        || (bound = PyNumber_Multiply(pw, two)) == NULL)
        goto done;
    acc = one;
    Py_INCREF(acc);
    for (Py_ssize_t i = 0;; i++) {
        int more = PyObject_RichCompareBool(acc, bound, Py_LE);
        if (more < 0)
            goto done;
        if (!more) {
            k = i;
            break;
        }
        if (ensure_primes(i + 1) < 0)
            goto done;
        PyObject *p = PyLong_FromUnsignedLongLong(gprimes[i]), *next = NULL;
        if (p != NULL)
            next = PyNumber_Multiply(acc, p);
        Py_XDECREF(p);
        if (next == NULL)
            goto done;
        Py_SETREF(acc, next);
    }
    *prod = acc;
    acc = NULL;
done:
    Py_XDECREF(one);
    Py_XDECREF(two);
    Py_XDECREF(base);
    Py_XDECREF(exp);
    Py_XDECREF(pw);
    Py_XDECREF(bound);
    Py_XDECREF(acc);
    return k;
}

/* sum x[j] y[j] R^-1 mod p over residues */
static inline uint64_t
dot_mont(const uint64_t *x, const uint64_t *y, Py_ssize_t len, const mont_t *m)
{
    uint64_t s = 0;
    for (Py_ssize_t j = 0; j < len;) {
        Py_ssize_t end = len - j > DOT_BLOCK ? j + DOT_BLOCK : len;
        u128 acc = 0;
        for (; j < end; j++)
            acc += (u128)x[j] * y[j];
        s += redc(acc, m);
        if (s >= m->p)
            s -= m->p;
    }
    return s;
}

/* det(xI - A) mod p by the division-free Samuelson-Berkowitz recurrence: a
 * holds the n x n residues row-major in Montgomery form, c[0..n] receives the
 * plain descending coefficients, work has room for 5n + 4 residues. */
static void
berkowitz_mod(Py_ssize_t n, const uint64_t *a, const mont_t *m, uint64_t *c,
              uint64_t *work)
{
    uint64_t p = m->p, *t = work, *tr = t + n + 1, *v = tr + n + 1,
             *v2 = v + n, *cnew = v2 + n;
    uint64_t a00 = redc(a[0], m);
    c[0] = 1;
    c[1] = a00 ? p - a00 : 0;
    for (Py_ssize_t r = 1; r < n; r++) {
        const uint64_t *top = a + r * n;
        uint64_t arr = redc(top[r], m);
        t[0] = 1;
        t[1] = arr ? p - arr : 0;
        for (Py_ssize_t i = 0; i < r; i++)
            v[i] = redc(a[i * n + r], m);
        for (Py_ssize_t k = 0; k < r; k++) {
            uint64_t s = dot_mont(top, v, r, m);
            t[k + 2] = s ? p - s : 0;
            if (k + 1 == r)
                break;
            for (Py_ssize_t i = 0; i < r; i++)
                v2[i] = dot_mont(a + i * n, v, r, m);
            uint64_t *tmp = v;
            v = v2;
            v2 = tmp;
        }
        /* c has r+1 coefficients, t has r+2: their product truncated to r+2,
         * each term a dot product of c with t reversed (in Montgomery form) */
        for (Py_ssize_t i = 0; i < r + 2; i++)
            tr[i] = redc((u128)t[r + 1 - i] * m->r2, m);
        for (Py_ssize_t i = 0; i < r + 2; i++) {
            Py_ssize_t jlo = i - r - 1 > 0 ? i - r - 1 : 0, jhi = i < r ? i : r;
            cnew[i] = dot_mont(c + jlo, tr + r + 1 - i + jlo, jhi - jlo + 1, m);
        }
        memcpy(c, cnew, (size_t)(r + 2) * sizeof(uint64_t));
    }
}

/* Integer with residues res[j * stride] mod p_j (j < k), in the symmetric
 * range (-P/2, P/2) of the odd P = p_0 ... p_{k-1}: Garner's mixed-radix digits
 * d_j, then d_0 + p_0 (d_1 + p_1 (d_2 + ...)) in Python ints.  pys[j] holds
 * p_j as a Python int; digits has room for k residues. */
static PyObject *
garner(Py_ssize_t k, const uint64_t *res, Py_ssize_t stride, uint64_t *digits,
       PyObject *const *pys, PyObject *prod, PyObject *half)
{
    for (Py_ssize_t j = 0; j < k; j++) {
        uint64_t p = gprimes[j], s = 0;
        for (Py_ssize_t i = j - 1; i >= 0; i--)
            s = (uint64_t)(((u128)s * (gprimes[i] % p) + digits[i] % p) % p);
        uint64_t r = res[j * stride];
        digits[j] = mulmod(r >= s ? r - s : r + (p - s), ginv[j], p);
    }
    PyObject *x = PyLong_FromUnsignedLongLong(digits[k - 1]);
    for (Py_ssize_t j = k - 2; j >= 0 && x != NULL; j--) {
        PyObject *d = PyLong_FromUnsignedLongLong(digits[j]), *y = NULL, *z = NULL;
        if (d != NULL && (y = PyNumber_Multiply(x, pys[j])) != NULL)
            z = PyNumber_Add(y, d);
        Py_XDECREF(d);
        Py_XDECREF(y);
        Py_SETREF(x, z);
    }
    if (x == NULL)
        return NULL;
    int big = PyObject_RichCompareBool(x, half, Py_GT);
    if (big < 0)
        Py_CLEAR(x);
    else if (big)
        Py_SETREF(x, PyNumber_Subtract(x, prod));
    return x;
}

/* Ascending coefficients of det(xI - M) for the n x n integer matrix M,
 * n >= 1.  small[] holds the entries row-major; big[], unless NULL, holds a
 * reference to each entry outside int64 (with 0 in small[] there) and NULL
 * elsewhere.  R is the largest absolute row sum of M as a Python int. */
static PyObject *
charpoly_core(Py_ssize_t n, const int64_t *small, PyObject *const *big,
              PyObject *R)
{
    PyObject *prod = NULL, *one = NULL, *half = NULL, **pys = NULL,
             *out = NULL;
    uint64_t *a = NULL, *res = NULL, *work = NULL;
    Py_ssize_t k = choose_primes(n, R, &prod);
    if (k < 0)
        return NULL;
    if ((one = PyLong_FromLong(1)) == NULL
        || (half = PyNumber_Rshift(prod, one)) == NULL)
        goto done;
    a = PyMem_Malloc((size_t)n * n * sizeof(uint64_t));
    res = PyMem_Malloc((size_t)k * (n + 1) * sizeof(uint64_t));
    work = PyMem_Malloc(((size_t)5 * n + 4 + k) * sizeof(uint64_t));
    pys = PyMem_Calloc((size_t)k, sizeof(PyObject *));
    if (a == NULL || res == NULL || work == NULL || pys == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    for (Py_ssize_t j = 0; j < k; j++) {
        uint64_t p = gprimes[j];
        mont_t m = mont_init(p);
        if ((pys[j] = PyLong_FromUnsignedLongLong(p)) == NULL)
            goto done;
        for (Py_ssize_t e = 0; e < n * n; e++) {
            int64_t x = small[e];
            if (big != NULL && big[e] != NULL) {
                PyObject *rem = PyNumber_Remainder(big[e], pys[j]);
                if (rem == NULL)
                    goto done;
                a[e] = PyLong_AsUnsignedLongLong(rem);
                Py_DECREF(rem);
            }
            else if (x >= 0)
                a[e] = (uint64_t)x < p ? (uint64_t)x : (uint64_t)x % p;
            else {
                uint64_t r = (uint64_t)(-(i128)x % p);
                a[e] = r ? p - r : 0;
            }
            a[e] = redc((u128)a[e] * m.r2, &m);
        }
        berkowitz_mod(n, a, &m, res + j * (n + 1), work);
    }
    if ((out = PyTuple_New(n + 1)) == NULL)
        goto done;
    for (Py_ssize_t i = 0; i <= n; i++) {
        PyObject *ci = garner(k, res + (n - i), n + 1, work, pys, prod, half);
        if (ci == NULL) {
            Py_CLEAR(out);
            goto done;
        }
        PyTuple_SET_ITEM(out, i, ci);
    }
done:
    if (pys != NULL) {
        for (Py_ssize_t j = 0; j < k; j++)
            Py_XDECREF(pys[j]);
        PyMem_Free(pys);
    }
    PyMem_Free(a);
    PyMem_Free(res);
    PyMem_Free(work);
    Py_DECREF(prod);
    Py_XDECREF(one);
    Py_XDECREF(half);
    return out;
}

static PyObject *
k_charpoly(PyObject *self, PyObject *rows_obj)
{
    PyObject *rows = PySequence_Fast(rows_obj, "matrix rows must be a sequence");
    if (rows == NULL)
        return NULL;
    Py_ssize_t n = PySequence_Fast_GET_SIZE(rows);
    int64_t *small = NULL;
    PyObject **big = NULL, *R = NULL, *out = NULL;
    u128 rmax = 0;
    if (n == 0) {
        Py_DECREF(rows);
        return Py_BuildValue("(i)", 1);
    }
    if ((size_t)n > ((size_t)1 << 28) / (size_t)n) {
        PyErr_SetString(PyExc_MemoryError, "matrix too large");
        goto done;
    }
    small = PyMem_Malloc((size_t)n * n * sizeof(int64_t));
    if (small == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    /* load the entries into small[], keeping in big[] a reference to each
     * entry outside int64; R is the largest absolute row sum */
    for (Py_ssize_t i = 0; i < n; i++) {
        PyObject *row = PySequence_Fast(PySequence_Fast_GET_ITEM(rows, i),
                                        "matrix rows must be sequences");
        if (row == NULL)
            goto done;
        if (PySequence_Fast_GET_SIZE(row) != n) {
            Py_DECREF(row);
            PyErr_SetString(PyExc_ValueError, "matrix must be square");
            goto done;
        }
        PyObject **items = PySequence_Fast_ITEMS(row);
        u128 sum = 0;
        for (Py_ssize_t j = 0; j < n; j++) {
            int overflow;
            long long x = PyLong_AsLongLongAndOverflow(items[j], &overflow);
            if (x == -1 && PyErr_Occurred()) {
                Py_DECREF(row);
                goto done;
            }
            if (overflow)
                x = 0;
            small[i * n + j] = x;
            sum += x < 0 ? -(u128)x : (u128)x;
            if (overflow) {
                if (big == NULL && (big = PyMem_Calloc((size_t)n * n,
                                                       sizeof(PyObject *))) == NULL) {
                    Py_DECREF(row);
                    PyErr_NoMemory();
                    goto done;
                }
                Py_INCREF(items[j]);
                big[i * n + j] = items[j];
            }
        }
        Py_DECREF(row);
        if (sum > rmax)
            rmax = sum;
    }
    if (big == NULL)
        R = u128_to_py(rmax);
    else {
        R = PyLong_FromLong(0);
        for (Py_ssize_t i = 0; i < n && R != NULL; i++) {
            PyObject *sum = PyLong_FromLong(0);
            for (Py_ssize_t j = 0; j < n && sum != NULL; j++) {
                PyObject *x = big[i * n + j], *ax, *s2 = NULL;
                ax = x ? PyNumber_Absolute(x) : u128_to_py(small[i * n + j] < 0
                         ? -(u128)small[i * n + j] : (u128)small[i * n + j]);
                if (ax != NULL)
                    s2 = PyNumber_Add(sum, ax);
                Py_XDECREF(ax);
                Py_SETREF(sum, s2);
            }
            if (sum == NULL)
                Py_CLEAR(R);
            else {
                int gt = PyObject_RichCompareBool(sum, R, Py_GT);
                if (gt < 0)
                    Py_CLEAR(R);
                else if (gt)
                    Py_SETREF(R, sum);
                else
                    Py_DECREF(sum);
            }
        }
    }
    if (R != NULL)
        out = charpoly_core(n, small, big, R);
done:
    if (big != NULL) {
        for (Py_ssize_t e = 0; e < n * n; e++)
            Py_XDECREF(big[e]);
        PyMem_Free(big);
    }
    PyMem_Free(small);
    Py_XDECREF(R);
    Py_DECREF(rows);
    return out;
}

static PyObject *
k_charpoly_primes(PyObject *self, PyObject *args)
{
    Py_ssize_t n;
    PyObject *R, *prod;
    if (!PyArg_ParseTuple(args, "nO!", &n, &PyLong_Type, &R))
        return NULL;
    PyObject *zero = PyLong_FromLong(0);
    if (zero == NULL)
        return NULL;
    int neg = PyObject_RichCompareBool(R, zero, Py_LT);
    Py_DECREF(zero);
    if (neg < 0)
        return NULL;
    if (n < 0 || neg)
        return PyErr_Format(PyExc_ValueError, "need n >= 0 and R >= 0");
    Py_ssize_t k = choose_primes(n, R, &prod);
    if (k < 0)
        return NULL;
    Py_DECREF(prod);
    PyObject *out = PyTuple_New(k);
    for (Py_ssize_t j = 0; out != NULL && j < k; j++) {
        PyObject *p = PyLong_FromUnsignedLongLong(gprimes[j]);
        if (p == NULL)
            Py_CLEAR(out);
        else
            PyTuple_SET_ITEM(out, j, p);
    }
    return out;
}

/* ------------------------------------------------------------------------
 * module */

static PyMethodDef kernel_methods[] = {
    {"all_pairs_dist", k_all_pairs_dist, METH_VARARGS,
     "all_pairs_dist(n, adj)\n--\n\n"
     "n x n hop-distance matrix as a list of rows (UNREACHABLE sentinel)."},
    {"is_connected", k_is_connected, METH_VARARGS,
     "is_connected(n, adj)\n--\n\nTrue iff the graph is connected."},
    {"canon_bits", k_canon_bits, METH_VARARGS,
     "canon_bits(n, adj)\n--\n\n"
     "Canonical form of the graph, packed as an int of n(n-1)/2 bits."},
    {"children_canon", k_children_canon, METH_VARARGS,
     "children_canon(n, adj)\n--\n\n"
     "Canonical forms of every one-vertex extension of an n-vertex graph: the\n"
     "new vertex n is attached to each nonempty subset of 0..n-1, in increasing\n"
     "subset order (2^n - 1 forms, with repeats)."},
    {"bits_to_adj", k_bits_to_adj, METH_VARARGS,
     "bits_to_adj(n, bits)\n--\n\n"
     "Adjacency rows of the graph whose packed lower triangle is bits (the\n"
     "canon_bits and graph6 bit order)."},
    {"census_stats", k_census_stats, METH_VARARGS,
     "census_stats(n, adj)\n--\n\n"
     "(diam, |V1|, m(-1), m(-2), m(0), charpoly coeffs ascending) of a connected\n"
     "graph; multiplicities are m(c) = n - rank(E - cI)."},
    {"charpoly", k_charpoly, METH_O,
     "charpoly(rows)\n--\n\n"
     "Ascending integer coefficients of det(xI - M) for the square integer\n"
     "matrix M with these rows (any order, any entry size, symmetric or not)."},
    {"_charpoly_primes", k_charpoly_primes, METH_VARARGS,
     "_charpoly_primes(n, R)\n--\n\n"
     "The primes charpoly takes for an n x n matrix whose largest absolute\n"
     "row sum is R: the fewest whose product exceeds 2 (1+R)^n."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef kernel_module = {
    PyModuleDef_HEAD_INIT, "eccspec._kernels",
    "Compiled kernels: BFS distances, canonical labeling, census invariants,\n"
    "characteristic polynomials.",
    -1, kernel_methods,
};

PyMODINIT_FUNC
PyInit__kernels(void)
{
    PyObject *m = PyModule_Create(&kernel_module);
    if (m == NULL)
        return NULL;
    if (PyModule_AddStringConstant(m, "BACKEND", "compiled") < 0
        || PyModule_AddIntConstant(m, "UNREACHABLE", UNREACH) < 0) {
        Py_DECREF(m);
        return NULL;
    }
    return m;
}
