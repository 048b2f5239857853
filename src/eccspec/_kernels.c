/*
 * Compiled kernels: BFS distances, canonical labeling, census invariants.
 *
 * A plain CPython extension module, eccspec._kernels, with the same
 * functions, signatures, limits and exception types as the pure-Python
 * reference eccspec._kernels_py; the parity tests drive both backends over
 * the same corpora.  Graphs are adjacency bitsets: bit j of adj[i] is set
 * iff ij is an edge.  Build with `python setup.py build_ext --inplace`
 * (needs only a C compiler with __int128, e.g. gcc or clang).
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

static PyObject *
i128_to_py(i128 v)
{
    if (v >= INT64_MIN && v <= INT64_MAX)
        return PyLong_FromLongLong((long long)v);
    PyObject *mag = u128_to_py(v < 0 ? -(u128)v : (u128)v);
    if (mag == NULL || v > 0)
        return mag;
    PyObject *out = PyNumber_Negative(mag);
    Py_DECREF(mag);
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
    int n;
    if (parse_graph(args, MAXN_DIST, "is_connected", &n, adj) < 0)
        return NULL;
    uint64_t seen = 1, frontier = 1;
    while (frontier) {
        uint64_t nxt = 0;
        for (uint64_t m = frontier; m; m &= m - 1)
            nxt |= adj[__builtin_ctzll(m)];
        nxt &= ~seen;
        seen |= nxt;
        frontier = nxt;
    }
    uint64_t full = n < 64 ? ((uint64_t)1 << n) - 1 : ~(uint64_t)0;
    return PyBool_FromLong(seen == full);
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
 * Fixed-width bound.  census_stats takes n <= MAXN_CENSUS = 10 connected
 * vertices, so every entry of the largest-distance matrix E lies in
 * 0..diam <= 9, with a zero diagonal; E + sI (s <= 2) adds at most 2 there.
 * Every column of E + sI then has Euclidean norm at most sqrt(10 * 81) < 28.5.
 *
 * Bareiss: every intermediate a[i][j] is a minor of the row- and
 * column-permuted input, so by Hadamard's inequality |a[i][j]| <= 28.5^10
 * < 3.6e14.  The largest value formed is the product
 * a[i][j]*piv - a[i][k]*a[k][j], before the exact division by the previous
 * pivot: at most 2 * (3.6e14)^2 < 2.6e29.
 *
 * Berkowitz: at step r <= n-1 = 9 the vector v runs through A^k u for
 * k <= r, where A is the leading r x r block of E and u the top of column r.
 * Entries are <= 9 and rows of A sum to <= 9r <= 81, so |(A^k u)_i| <=
 * 81^k * 9 <= 81^9 * 9 < 1.4e18; each t entry, row r of E times A^k u
 * with k < r, is below 81^(k+1) * 9 <= 1.4e18 as well.  Each coefficient in
 * c is a sum of at most C(10,5) = 252 principal minors, each under the
 * Hadamard bound 3.6e14, so |c| < 9.1e16; the convolution of t with c sums
 * at most 11 products, under 11 * 1.4e18 * 9.1e16 < 1.5e36.  Everything stays far
 * below the int128 limit 1.7e38, while the worst cases above do not fit in
 * 64 bits.  Actual values are far smaller: the largest intermediate over the
 * extreme inputs the parity tests check against the arbitrary-precision
 * route (P10, C10, K10, K_{1,9}, spiders, a lollipop, barbells) and 3000
 * random connected n=10 graphs is 3.8e12 (Bareiss on C10).
 */

/* Rank of E + shift*I by fraction-free (Bareiss) elimination with full
 * pivoting in 128-bit integers. */
static int
rank_shift(int n, const int64_t e[][MAXN_CENSUS], int shift)
{
    i128 a[MAXN_CENSUS][MAXN_CENSUS], prev = 1;
    int rank = 0;
    for (int i = 0; i < n; i++) {
        for (int j = 0; j < n; j++)
            a[i][j] = e[i][j];
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

/* det(xI - E) by the division-free Samuelson-Berkowitz recurrence;
 * c[0..n] are the coefficients in descending degree order, c[0] = 1. */
static void
berkowitz(int n, const int64_t e[][MAXN_CENSUS], i128 *c)
{
    i128 t[MAXN_CENSUS + 1], v[MAXN_CENSUS], v2[MAXN_CENSUS], cnew[MAXN_CENSUS + 1];
    c[0] = 1;
    c[1] = -e[0][0];
    for (int r = 1; r < n; r++) {
        int tlen = 2;
        t[0] = 1;
        t[1] = -e[r][r];
        for (int i = 0; i < r; i++)
            v[i] = e[i][r];
        for (int k = 0; k < r; k++) {
            i128 acc = 0;
            for (int i = 0; i < r; i++)
                acc += e[r][i] * v[i];
            t[tlen++] = -acc;
            for (int i = 0; i < r; i++) {
                acc = 0;
                for (int j = 0; j < r; j++)
                    acc += e[i][j] * v[j];
                v2[i] = acc;
            }
            memcpy(v, v2, r * sizeof(i128));
        }
        /* c has r+1 coefficients, t has r+2: their product truncated to r+2 */
        for (int i = 0; i < r + 2; i++) {
            i128 acc = 0;
            int jlo = i - (tlen - 1) > 0 ? i - (tlen - 1) : 0;
            int jhi = i < r ? i : r;
            for (int j = jlo; j <= jhi; j++)
                acc += t[i - j] * c[j];
            cnew[i] = acc;
        }
        memcpy(c, cnew, (r + 2) * sizeof(i128));
    }
}

static PyObject *
k_census_stats(PyObject *self, PyObject *args)
{
    uint64_t adj[MAXN_CENSUS];
    int dist[MAXN_CENSUS][MAXN_CENSUS], ecc[MAXN_CENSUS];
    int64_t e[MAXN_CENSUS][MAXN_CENSUS] = {{0}};
    i128 c[MAXN_CENSUS + 1];
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
    for (int i = 0; i < n; i++)
        for (int j = 0; j < n; j++) {
            int d = dist[i][j], m = ecc[i] < ecc[j] ? ecc[i] : ecc[j];
            e[i][j] = (i != j && d == m) ? d : 0;
        }
    int m1 = n - rank_shift(n, e, 1);
    int m2 = n - rank_shift(n, e, 2);
    int m0 = n - rank_shift(n, e, 0);
    berkowitz(n, e, c);
    PyObject *coeffs = PyTuple_New(n + 1);
    if (coeffs == NULL)
        return NULL;
    for (int i = 0; i <= n; i++) {
        PyObject *ci = i128_to_py(c[n - i]);
        if (ci == NULL) {
            Py_DECREF(coeffs);
            return NULL;
        }
        PyTuple_SET_ITEM(coeffs, i, ci);
    }
    return Py_BuildValue("(iiiiiN)", diam, v1, m1, m2, m0, coeffs);
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
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef kernel_module = {
    PyModuleDef_HEAD_INIT, "eccspec._kernels",
    "Compiled kernels: BFS distances, canonical labeling, census invariants.",
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
