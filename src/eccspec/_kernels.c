/*
 * Compiled kernels: BFS distances, canonical labeling, census records and
 * structure, characteristic polynomials modulo word-size primes, the census
 * store codec.
 *
 * A plain CPython extension module, eccspec._kernels, with the same
 * functions, signatures, limits and exception types as the pure-Python
 * reference eccspec._kernels_py; the parity tests drive both backends over
 * the same corpora.  Graphs are adjacency bitsets: bit j of adj[i] is set
 * iff ij is an edge.  children_canon and census_records take the packed
 * lower triangle instead (load_bits), and census_structure its graph6
 * string (load_graph6), which no asymmetric graph has.  Every graph kernel
 * but all_pairs_dist (n <= 64) takes only a graph the census holds:
 * n <= MAXN_CENSUS = 10, and a parent of order at most 9 for
 * children_canon, so every form they read or return, canon_bits's
 * included, is one 64-bit word of at most 45 bits.  The C side does word
 * arithmetic only; big-integer work (choosing primes, reducing entries
 * outside int64, lifting residues) is exactalg's, in Python ints, and
 * charpoly_mod raises OverflowError on such an entry.
 * children_canon keeps only the children whose canonical parent is the
 * given graph, by the canonical deletion rule the census docstring states,
 * and returns them sorted and distinct; the census sorts the level.
 * Canonical labeling, children_canon and census_structure read their twins
 * from one helper, twin_masks; the argument that twin classes are all
 * adjacent or all non-adjacent is stated once, at _kernels_py._twin_masks.
 * The one charpoly algorithm here, which charpoly_mod and census_records
 * share, is hessenberg_mod: a reduction to Hessenberg form by similarity
 * modulo a prime, then the O(n^3) Hessenberg recurrence.  (The pure backend
 * keeps the division-free Berkowitz recurrence, so the parity tests compare
 * two algorithms.)  Fixed-width arithmetic has three stated bounds, with
 * tests at each.  The refinement keys of canonical labeling pack 4-bit
 * fields into at most 44 bits at n <= 10 (the argument is at wl_colors).
 * The Montgomery word bound: residues are below p < 2^56, so each
 * product of two residues is below p^2 < p 2^64, within one Montgomery
 * reduction, a sum of two residues is below 2^57, and a sum of 255 products
 * is below 255 p^2 < p 2^64, so it adds up in an unsigned __int128 before
 * one reduction.  census_records builds a chunk of census records in one
 * call, each with its graph6 canon (graph6_encode) and its invariants
 * (census_invariants), which work modulo the one prime 2^56 - 5: the
 * charpoly coefficients lie below half that prime in absolute value, so
 * the residues determine them, and the multiplicities are read off that
 * charpoly (the argument is at census_invariants).  census_structure gives
 * the census-wide lemma checks both their sides, from a record's graph6
 * canon and charpoly: the graph side (twin predictions, the mixed-star
 * shape) with adjacency and eccentricities only, and the inertia of the
 * charpoly at -1 and 0.  Both read a charpoly's inertia by a Taylor shift
 * in signed __int128 (inertia_at), exact for coefficients below 2^63 in
 * absolute value at n <= 10, |c| <= 2, where every value it holds stays
 * below 2^83 (the argument is at census_invariants).  They share
 * census_metrics, the BFS and eccentricities.  format_store and
 * parse_store are the census store codec: one call formats a batch of
 * records as store lines, one parses a block of store bytes, and any line
 * outside the strict form to_line writes goes back to
 * CensusRecord.from_line.  The writer handles ints within int64 itself,
 * which holds every census record: the charpoly coefficients lie below
 * 2^55 in absolute value, the other ints are at most 10 (the argument is
 * at the codec).  census_records and parse_store build their records with
 * one helper, new_record, and know the family-tag field only as empty: the
 * census tags its few family graphs in Python, the parser hands a tagged
 * line back to from_line and the writer a tagged record to its to_line.
 * Build with `python setup.py build_ext --inplace` (needs only a C compiler
 * with __int128, e.g. gcc or clang).
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <limits.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define MAXN_CENSUS 10
#define MAXN_DIST 64
#define STATE_CAP 500000
#define UNREACH (-1)

typedef unsigned __int128 u128;

/* ------------------------------------------------------------------------
 * conversions */

/* Read adj[0..n-1] into out[]; every row must be a bitset over 0..n-1:
 * ValueError on a row that is negative or names a vertex >= n. */
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
        int bad = row == (unsigned long long)-1 && PyErr_Occurred();
        if (bad && !PyErr_ExceptionMatches(PyExc_OverflowError)) {
            Py_DECREF(seq);
            return -1;
        }
        PyErr_Clear();
        if (bad || (n < 64 && (row >> n) != 0)) {
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

/* ValueError naming what unless 1 <= n <= maxn. */
static int
check_order(int n, int maxn, const char *what)
{
    if (n >= 1 && n <= maxn)
        return 0;
    PyErr_Format(PyExc_ValueError, "%s supports 1 <= n <= %d", what, maxn);
    return -1;
}

/* Parse the (n, adj) arguments, 1 <= n <= maxn, and load the rows. */
static int
parse_graph(PyObject *args, int maxn, const char *what, int *n, uint64_t *adj)
{
    PyObject *rows;
    if (!PyArg_ParseTuple(args, "iO", n, &rows)
            || check_order(*n, maxn, what) < 0)
        return -1;
    return load_adj(*n, rows, adj);
}

/* Unpack a bit form of n(n-1)/2 bits, the packed lower triangle of a graph
 * on n vertices (the canon_bits and graph6 bit order, first pair in the top
 * bit), into adj[0..n-1], which is then symmetric and loopless. */
static void
unpack_bits(int n, uint64_t bits, uint64_t *adj)
{
    memset(adj, 0, n * sizeof *adj);
    int idx = n * (n - 1) / 2 - 1;
    for (int col = 1; col < n; col++)
        for (int row = 0; row < col; row++, idx--)
            if ((bits >> idx) & 1) {
                adj[row] |= (uint64_t)1 << col;
                adj[col] |= (uint64_t)1 << row;
            }
}

/* Read obj, the bit form of a graph on 1 <= n <= maxn <= 10 vertices, into
 * *form, for unpack_bits.  ValueError naming what on an order out of range,
 * TypeError on a non-int bits, ValueError on bits outside
 * 0..2^(n(n-1)/2) - 1.  A form has n(n-1)/2 <= 45 bits, so it is one 64-bit
 * word, and a negative or wider int is out of range. */
static int
load_bits(int n, PyObject *obj, int maxn, const char *what, uint64_t *form)
{
    if (check_order(n, maxn, what) < 0)
        return -1;
    if (!PyLong_Check(obj)) {
        PyErr_Format(PyExc_TypeError, "%s needs an int bit form", what);
        return -1;
    }
    int nbits = n * (n - 1) / 2;
    unsigned long long bits = PyLong_AsUnsignedLongLong(obj);
    int bad = bits == (unsigned long long)-1 && PyErr_Occurred();
    if (bad && !PyErr_ExceptionMatches(PyExc_OverflowError))
        return -1;
    PyErr_Clear();
    if (bad || (bits >> nbits) != 0) {
        PyErr_Format(PyExc_ValueError, "bit form out of range for n=%d", n);
        return -1;
    }
    *form = bits;
    return 0;
}

/* ------------------------------------------------------------------------
 * graph6 codec, at the census orders
 *
 * The graph6 string of a bit form is the size byte n + 63, then the form,
 * zero-padded to a multiple of 6 bits, in 6-bit groups from the top, each
 * + 63 (the form's bit order is graph6's).  At n <= MAXN_CENSUS the form
 * and its padding take at most 48 bits, so the string has at most 9 bytes
 * and its data is one word.  These are _kernels_py.bits_to_graph6 and
 * graph6_bits, the Python codec, with the same checks and messages. */

#define GRAPH6_MAX (1 + (MAXN_CENSUS * (MAXN_CENSUS - 1) / 2 + 5) / 6)
#define GRAPH6_HEADER ">>graph6<<"

/* Write the graph6 string of the bit form of a graph on 1 <= n <=
 * MAXN_CENSUS vertices into out: its length. */
static int
graph6_encode(int n, uint64_t form, char *out)
{
    int nbits = n * (n - 1) / 2, groups = (nbits + 5) / 6;
    uint64_t val = form << (6 * groups - nbits);
    out[0] = (char)(n + 63);
    for (int i = 1; i <= groups; i++)
        out[i] = (char)(((val >> (6 * (groups - i))) & 63) + 63);
    return 1 + groups;
}

static int
graph6_error(const char *message)
{
    PyErr_SetString(PyExc_ValueError, message);
    return -1;
}

/* Decode the graph6 str or bytes obj, as graph6_bits does (an optional
 * header, trailing newlines), into its order *n and adj[0..*n-1].
 * TypeError on any other type; ValueError with graph6_bits's message on a
 * byte outside 63..126 (a str that is not ASCII included), a bad size byte,
 * length or nonzero padding, then naming what on an order above
 * MAXN_CENSUS. */
static int
load_graph6(PyObject *obj, const char *what, int *n, uint64_t *adj)
{
    const char *s;
    Py_ssize_t len;
    if (PyUnicode_Check(obj)) {
        if (!PyUnicode_IS_ASCII(obj))
            return graph6_error("graph6 byte outside 63..126");
        s = (const char *)PyUnicode_1BYTE_DATA(obj);
        len = PyUnicode_GET_LENGTH(obj);
    } else if (PyBytes_Check(obj)) {
        s = PyBytes_AS_STRING(obj);
        len = PyBytes_GET_SIZE(obj);
    } else {
        PyErr_SetString(PyExc_TypeError, "graph6 data must be str or bytes");
        return -1;
    }
    Py_ssize_t head = sizeof GRAPH6_HEADER - 1;
    if (len >= head && memcmp(s, GRAPH6_HEADER, (size_t)head) == 0) {
        s += head;
        len -= head;
    }
    while (len > 0 && s[len - 1] == '\n')
        len--;
    if (len == 0)
        return graph6_error("empty graph6 string");
    for (Py_ssize_t i = 0; i < len; i++)
        if (s[i] < 63 || s[i] > 126)
            return graph6_error("graph6 byte outside 63..126");
    int order = s[0] - 63;
    if (order > 62)
        return graph6_error(
            "graph6 multi-byte headers (n > 62) not supported");
    if (order < 1)
        return graph6_error("graph6 order must be >= 1");
    int nbits = order * (order - 1) / 2, pad = (6 - nbits % 6) % 6;
    Py_ssize_t expected = 1 + (nbits + 5) / 6;
    if (len != expected) {
        PyErr_Format(PyExc_ValueError,
                     "graph6 length %zd != expected %zd for n=%d",
                     len, expected, order);
        return -1;
    }
    if ((s[len - 1] - 63) & ((1 << pad) - 1))
        return graph6_error("nonzero padding bits in graph6 data");
    if (check_order(order, MAXN_CENSUS, what) < 0)
        return -1;
    uint64_t val = 0;
    for (Py_ssize_t i = 1; i < len; i++)
        val = val << 6 | (uint64_t)(s[i] - 63);
    *n = order;
    unpack_bits(order, val >> pad, adj);
    return 0;
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

/* ------------------------------------------------------------------------
 * canonical labeling */

/* Neighborhood-refinement colors, densely ranked by the signature
 * (own color, neighbor-color count vector) in lexicographic order, iterated
 * to a fixed point.  The ranking is isomorphism-invariant and matches the
 * reference's, so canonical forms agree bit for bit.  Each signature is
 * packed into one integer key, 4 bits per field with the own color on top,
 * so numeric order of the keys is lexicographic order of the signatures.
 * The fields fit because n <= 10: a color is below the class count
 * ncol <= n and a count is at most the degree, 9, and a round takes
 * 4 (ncol + 1) <= 44 bits. */
static void
wl_colors(int n, const uint64_t *adj, int *colors)
{
    uint64_t key[MAXN_CENSUS];
    int order[MAXN_CENSUS], newc[MAXN_CENSUS];
    int ncol = 1;
    for (int v = 0; v < n; v++)
        colors[v] = 0;
    while (ncol < n) {
        for (int v = 0; v < n; v++) {
            uint64_t k = (uint64_t)colors[v] << (4 * ncol);
            for (uint64_t m = adj[v]; m; m &= m - 1)
                k += (uint64_t)1 << (4 * (ncol - 1 - colors[__builtin_ctzll(m)]));
            key[v] = k;
        }
        /* insertion sort of the vertices by key */
        for (int i = 0; i < n; i++) {
            int v = order[i] = i, j = i - 1;
            while (j >= 0 && key[order[j]] > key[v]) {
                order[j + 1] = order[j];
                j--;
            }
            order[j + 1] = v;
        }
        int rank = 0, changed = 0;
        newc[order[0]] = 0;
        for (int i = 1; i < n; i++) {
            if (key[order[i - 1]] != key[order[i]])
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
    uint64_t rows[MAXN_CENSUS];
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

/* The twins of each vertex of the graph adj[0..n-1]: twin[v] is the set of
 * u != v with equal neighborhoods apart from each other, so the
 * transposition (u v) is an automorphism fixing every other vertex.
 * Canonical labeling, children_canon and census_structure read it.
 * Twinhood is an equivalence relation whose classes are all adjacent
 * (co-duplicates) or all non-adjacent (duplicates); the argument is at
 * _kernels_py._twin_masks, the pure helper. */
static void
twin_masks(int n, const uint64_t *adj, uint64_t *twin)
{
    for (int v = 0; v < n; v++) {
        twin[v] = 0;
        for (int u = 0; u < v; u++)
            if ((adj[u] & ~((uint64_t)1 << v))
                    == (adj[v] & ~((uint64_t)1 << u))) {
                twin[u] |= (uint64_t)1 << v;
                twin[v] |= (uint64_t)1 << u;
            }
    }
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
 * graphs are isomorphic.  cur and nxt are the caller's frontier buffers,
 * grown here and reused across calls; the caller frees them.  Returns -1
 * with an exception set on failure. */
static int
canon_impl(int n, const uint64_t *adj, statebuf_t *cur, statebuf_t *nxt,
           uint64_t *result)
{
    int colors[MAXN_CENSUS], cnt[MAXN_CENSUS] = {0}, block[MAXN_CENSUS];
    uint64_t clsmask[MAXN_CENSUS] = {0}, twin[MAXN_CENSUS], out = 0;
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
    twin_masks(n, adj, twin);

    cur->count = 0;
    if (buf_push(cur) < 0)
        return -1;
    memset(&cur->s[0], 0, sizeof(state_t));
    cur->s[0].rem = ((uint64_t)1 << n) - 1;
    cur->count = 1;
    for (int k = 0; k < n; k++) {
        uint64_t cls = clsmask[block[k]], best = UINT64_MAX;
        /* pass 1: the minimal candidate row over all states */
        for (int si = 0; si < cur->count; si++) {
            const state_t *st = &cur->s[si];
            for (uint64_t m = kept_candidates(st->rem & cls, twin); m; m &= m - 1) {
                uint64_t r = st->rows[__builtin_ctzll(m)];
                if (r < best)
                    best = r;
            }
        }
        if (k)
            out = (out << k) | (best >> (64 - k));
        /* pass 2: expand every candidate achieving it */
        uint64_t bit = (uint64_t)1 << (63 - k);
        nxt->count = 0;
        for (int si = 0; si < cur->count; si++) {
            const state_t *st = &cur->s[si];
            for (uint64_t m = kept_candidates(st->rem & cls, twin); m; m &= m - 1) {
                int v = __builtin_ctzll(m);
                if (st->rows[v] != best)
                    continue;
                if (buf_push(nxt) < 0)
                    return -1;
                state_t *ch = &nxt->s[nxt->count++];
                memset(ch, 0, sizeof(state_t));
                ch->rem = st->rem & ~((uint64_t)1 << v);
                for (uint64_t r = ch->rem; r; r &= r - 1) {
                    int u = __builtin_ctzll(r);
                    ch->rows[u] = st->rows[u] | (((adj[v] >> u) & 1) ? bit : 0);
                }
            }
        }
        merge_states(nxt);
        statebuf_t tmp = *cur;
        *cur = *nxt;
        *nxt = tmp;
    }
    *result = out;
    return 0;
}

static PyObject *
k_canon_bits(PyObject *self, PyObject *args)
{
    uint64_t adj[MAXN_CENSUS], bits;
    statebuf_t cur = {NULL, 0, 0}, nxt = {NULL, 0, 0};
    int n, status = -1;
    if (parse_graph(args, MAXN_CENSUS, "canonical labeling", &n, adj) == 0)
        status = canon_impl(n, adj, &cur, &nxt, &bits);
    PyMem_Free(cur.s);
    PyMem_Free(nxt.s);
    return status < 0 ? NULL : PyLong_FromUnsignedLongLong(bits);
}

/* ------------------------------------------------------------------------
 * canonical deletion
 *
 * children_canon keeps a child only if its new vertex is a canonical
 * deletion vertex (the rule and its completeness argument are in the
 * census module docstring).  The key of a vertex u of a graph on at most
 * MAXN_CENSUS vertices is deg(u) 2^40 + sum over the neighbours w of u of
 * 16^deg(w): each degree is at most 9 < 16, so the sum is below 9 * 16^9 <
 * 2^40 and the key orders vertices by degree, then by the multiset of their
 * neighbours' degrees. */

#define KEY_DEGREE_SHIFT 40

static void
deletion_keys(int n, const uint64_t *adj, uint64_t *key)
{
    int deg[MAXN_CENSUS];
    for (int u = 0; u < n; u++)
        deg[u] = __builtin_popcountll(adj[u]);
    for (int u = 0; u < n; u++) {
        uint64_t k = (uint64_t)deg[u] << KEY_DEGREE_SHIFT;
        for (uint64_t m = adj[u]; m; m &= m - 1)
            k += (uint64_t)1 << (4 * deg[__builtin_ctzll(m)]);
        key[u] = k;
    }
}

/* Whether removing u disconnects the connected graph adj on n >= 2
 * vertices. */
static int
is_cut_vertex(int n, const uint64_t *adj, int u)
{
    uint64_t rest = (((uint64_t)1 << n) - 1) & ~((uint64_t)1 << u);
    uint64_t seen = rest & -rest, frontier = seen;
    while (frontier) {
        uint64_t nxt = 0;
        for (uint64_t m = frontier; m; m &= m - 1)
            nxt |= adj[__builtin_ctzll(m)];
        frontier = nxt & rest & ~seen;
        seen |= frontier;
    }
    return seen != rest;
}

/* The non-cut vertices keyed kmin in the connected graph adj on n >= 2
 * vertices whose keys are key[], as a mask, or 0 if a non-cut vertex is
 * keyed below kmin.  When some non-cut vertex is keyed kmin, a nonzero
 * mask is the deletion candidates: the non-cut vertices of least key.
 * Only vertices keyed at most kmin are tested for cuts. */
static uint64_t
deletion_ties(int n, const uint64_t *adj, const uint64_t *key, uint64_t kmin)
{
    uint64_t ties = 0;
    for (int u = 0; u < n; u++)
        if (key[u] <= kmin && !is_cut_vertex(n, adj, u)) {
            if (key[u] < kmin)
                return 0;
            ties |= (uint64_t)1 << u;
        }
    return ties;
}

/* adj[0..n-1] without vertex w, the vertices above w moved down by one,
 * into out[0..n-2]. */
static void
delete_vertex(int n, const uint64_t *adj, int w, uint64_t *out)
{
    uint64_t low = ((uint64_t)1 << w) - 1;
    for (int i = 0, j = 0; i < n; i++)
        if (i != w)
            out[j++] = (adj[i] & low) | ((adj[i] >> 1) & ~low);
}

static int
cmp_word(const void *a, const void *b)
{
    uint64_t x = *(const uint64_t *)a, y = *(const uint64_t *)b;
    return (x > y) - (x < y);
}

/* The sorted distinct canonical forms of the one-vertex extensions of the
 * graph on 1 <= n <= MAXN_CENSUS - 1 vertices whose bit form is bits (each
 * of at most 45 bits, one word) that have it as their canonical parent: the
 * new vertex n joined to a nonempty subset S of 0..n-1.  Only subsets
 * closed downward in each twin class of the parent (twin_masks) are tried:
 * v in S implies u in S for twins u < v.  Any permutation of a twin class
 * is a parent automorphism, which carries every other subset onto a tried
 * one of the same size in each class and fixes the new vertex, so every
 * skipped child is isomorphic to a tried one with its new vertex in the
 * same place.  A child is kept as the census docstring states: rejected
 * without labeling if a non-cut vertex is keyed below the new vertex; kept
 * if the new vertex is the only deletion candidate; otherwise kept iff the
 * child's canonical form C less its highest-labeled candidate is
 * isomorphic to the parent. */
static PyObject *
k_children_canon(PyObject *self, PyObject *args)
{
    uint64_t adj[MAXN_CENSUS], work[MAXN_CENSUS], lower[MAXN_CENSUS];
    uint64_t key[MAXN_CENSUS], forms[1 << (MAXN_CENSUS - 1)], parent_bits;
    int n, nforms = 0, dist[MAXN_CENSUS];
    PyObject *bits;
    if (!PyArg_ParseTuple(args, "iO", &n, &bits)
            || load_bits(n, bits, MAXN_CENSUS - 1, "children_canon",
                         &parent_bits) < 0)
        return NULL;
    unpack_bits(n, parent_bits, adj);
    bfs(n, adj, 0, dist);
    for (int i = 0; i < n; i++)
        if (dist[i] == UNREACH) {
            PyErr_SetString(PyExc_ValueError,
                            "children_canon requires a connected graph");
            return NULL;
        }
    /* lower[v]: the twins u < v */
    twin_masks(n, adj, lower);
    for (int v = 0; v < n; v++)
        lower[v] &= ((uint64_t)1 << v) - 1;
    uint64_t full = ((uint64_t)1 << n) - 1, newv = (uint64_t)1 << n, parent;
    statebuf_t cur = {NULL, 0, 0}, nxt = {NULL, 0, 0};
    PyObject *out = NULL;
    if (canon_impl(n, adj, &cur, &nxt, &parent) < 0)
        goto done;
    for (uint64_t sub = 1; sub <= full; sub++) {
        uint64_t need = 0;
        for (uint64_t m = sub; m; m &= m - 1)
            need |= lower[__builtin_ctzll(m)];
        if (need & ~sub)
            continue;
        for (int i = 0; i < n; i++)
            work[i] = adj[i] | (((sub >> i) & 1) << n);
        work[n] = sub;
        deletion_keys(n + 1, work, key);
        uint64_t kv = key[n], ties = deletion_ties(n + 1, work, key, kv);
        if (ties == 0)
            continue;
        uint64_t form;
        if (canon_impl(n + 1, work, &cur, &nxt, &form) < 0)
            goto done;
        if (ties != newv) {
            /* a tie: C less its candidate labeled highest */
            uint64_t sub_form, cadj[MAXN_CENSUS];
            unpack_bits(n + 1, form, cadj);
            deletion_keys(n + 1, cadj, key);
            int w = 63 - __builtin_clzll(deletion_ties(n + 1, cadj, key, kv));
            delete_vertex(n + 1, cadj, w, work);
            if (canon_impl(n, work, &cur, &nxt, &sub_form) < 0)
                goto done;
            if (sub_form != parent)
                continue;
        }
        forms[nforms++] = form;
    }
    qsort(forms, nforms, sizeof *forms, cmp_word);
    if ((out = PyList_New(0)) == NULL)
        goto done;
    for (int i = 0; i < nforms; i++) {
        if (i && forms[i] == forms[i - 1])
            continue;
        PyObject *item = PyLong_FromUnsignedLongLong(forms[i]);
        if (item == NULL || PyList_Append(out, item) < 0) {
            Py_XDECREF(item);
            Py_CLEAR(out);
            goto done;
        }
        Py_DECREF(item);
    }
done:
    PyMem_Free(cur.s);
    PyMem_Free(nxt.s);
    return out;
}

/* ------------------------------------------------------------------------
 * characteristic polynomial modulo word-size primes
 *
 * charpoly_mod reduces the matrix modulo each given prime 3 <= p < 2^56 to
 * upper Hessenberg form by similarity transformations and reads det(xI - A)
 * off the Hessenberg matrix by the usual O(n^3) recurrence (H. Cohen, A
 * Course in Computational Algebraic Number Theory, Alg. 2.2.9).  The
 * reduction is a similarity over GF(p), so its charpoly is the integer
 * charpoly reduced mod p.  It divides by one pivot per column, which must be
 * a unit: every nonzero residue is one modulo a prime, and at a composite
 * modulus a pivot that is not a unit raises ValueError rather than give a
 * wrong residue.  Choosing the primes and lifting the residues to integers
 * is exactalg.charpoly's work, in Python ints, and so is reducing entries
 * outside int64: any order is accepted, symmetric or not, but an entry
 * outside int64 raises OverflowError.
 *
 * Products reduce by Montgomery's REDC with R = 2^64: for T < p 2^64,
 * REDC(T) = T R^-1 mod p in two multiplications and no division, within
 * the word bound at the top of this file.  The column updates of the
 * reduction and the sums of the recurrence are dot products, which add up
 * to 255 products in an unsigned __int128 before each REDC.  Every residue
 * is kept in Montgomery form (a R mod p), so a REDC of a product of two is
 * again in Montgomery form.
 */

#define MODULUS_TOP ((uint64_t)1 << 56)
#define DOT_BLOCK 255

/* A modulus p with its Montgomery constants: pneg = -p^-1 mod 2^64 and
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
    uint64_t r = ((uint64_t)0 - p) % p;  /* 2^64 mod p */
    mont_t m = {p, (uint64_t)0 - inv, (uint64_t)((u128)r * r % p)};
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

/* x mod p in Montgomery form */
static uint64_t
mont_of(int64_t x, const mont_t *m)
{
    uint64_t r = (x < 0 ? (uint64_t)0 - (uint64_t)x : (uint64_t)x) % m->p;
    if (x < 0 && r)
        r = m->p - r;
    return redc((u128)r * m->r2, m);
}

/* The inverse of the Montgomery-form residue x != 0, in Montgomery form, by
 * the extended Euclidean algorithm on its plain value a; -1 if gcd(a, p) is
 * not 1, which a prime p rules out.  The Bezout coefficients stay below p
 * in absolute value, so they fit an int64. */
static int
mont_inverse(uint64_t x, const mont_t *m, uint64_t *out)
{
    uint64_t r0 = m->p, r1 = redc(x, m);
    int64_t s0 = 0, s1 = 1;
    while (r1) {
        uint64_t q = r0 / r1, r = r0 - q * r1;
        int64_t s = s0 - (int64_t)q * s1;
        r0 = r1;
        r1 = r;
        s0 = s1;
        s1 = s;
    }
    if (r0 != 1)
        return -1;
    uint64_t inv = s0 < 0 ? (uint64_t)(s0 + (int64_t)m->p) : (uint64_t)s0;
    *out = redc((u128)inv * m->r2, m);
    return 0;
}

static void
swap_words(uint64_t *x, uint64_t *y)
{
    uint64_t t = *x;
    *x = *y;
    *y = t;
}

/* det(xI - A) mod p: a holds the n x n residues row-major in Montgomery
 * form, n >= 0, and is overwritten by a Hessenberg form of A; c[0..n]
 * receives the plain ascending coefficients; work has room for
 * (n + 1)(n + 2)/2 + 2n residues.  Returns -1 if a pivot it must divide by
 * is not a unit, which only a composite p allows. */
static int
hessenberg_mod(Py_ssize_t n, uint64_t *a, const mont_t *m, uint64_t *c,
               uint64_t *work)
{
    uint64_t p = m->p, *u = work, *idx = u + n, *poly = idx + n;
    /* Column col: bring a nonzero entry below the diagonal to (col+1, col)
     * by swapping rows and columns, then clear the entries under it.  With
     * u_i = a[i][col] / a[col+1][col], row i -= u_i row col+1 for every row
     * i > col+1, then column col+1 += sum_i u_i column i: the similarity by
     * I - sum_i u_i e_i e_(col+1)^T. */
    for (Py_ssize_t col = 0; col + 2 < n; col++) {
        Py_ssize_t piv = col + 1;
        while (piv < n && a[piv * n + col] == 0)
            piv++;
        if (piv == n)
            continue;
        if (piv != col + 1) {
            /* rows >= col + 1 are zero left of col */
            for (Py_ssize_t j = col; j < n; j++)
                swap_words(&a[piv * n + j], &a[(col + 1) * n + j]);
            for (Py_ssize_t i = 0; i < n; i++)
                swap_words(&a[i * n + piv], &a[i * n + col + 1]);
        }
        const uint64_t *prow = a + (col + 1) * n;
        uint64_t inv;
        Py_ssize_t k = 0;
        for (Py_ssize_t i = col + 2; i < n; i++) {
            uint64_t *row = a + i * n;
            if (row[col] == 0)
                continue;
            /* the pivot is inverted once a row needs clearing */
            if (k == 0 && mont_inverse(prow[col], m, &inv) < 0)
                return -1;
            uint64_t f = redc((u128)row[col] * inv, m), g = p - f;
            idx[k] = (uint64_t)i;
            u[k++] = f;
            row[col] = 0;
            for (Py_ssize_t j = col + 1; j < n; j++) {
                uint64_t s = row[j] + redc((u128)g * prow[j], m);
                row[j] = s >= p ? s - p : s;
            }
        }
        for (Py_ssize_t i = 0; k && i < n; i++) {
            uint64_t *row = a + i * n, s = row[col + 1];
            for (Py_ssize_t j = 0; j < k;) {
                Py_ssize_t end = k - j > DOT_BLOCK ? j + DOT_BLOCK : k;
                u128 acc = 0;
                for (; j < end; j++)
                    acc += (u128)u[j] * row[idx[j]];
                s += redc(acc, m);
                if (s >= p)
                    s -= p;
            }
            row[col + 1] = s;
        }
    }
    /* poly + j(j+1)/2 holds the j + 1 ascending coefficients of the charpoly
     * of the leading j x j block H_j, from
     * det(xI - H_j) = (x - h[j-1][j-1]) det(xI - H_(j-1))
     *                 - sum_(r < j-1) h[r][j-1] t_r det(xI - H_r),
     * t_r = h[r+1][r] h[r+2][r+1] ... h[j-1][j-2].  Once t_r is 0, so is
     * every later one: u[r] = -h[r][j-1] t_r for lo <= r < j-1, and each
     * coefficient is a dot product of u with the coefficients of the
     * det(xI - H_r). */
    poly[0] = redc(m->r2, m);  /* 1 */
    for (Py_ssize_t j = 1; j <= n; j++) {
        const uint64_t *prev = poly + (j - 1) * j / 2;
        uint64_t *cur = poly + j * (j + 1) / 2, d = a[(j - 1) * n + j - 1];
        uint64_t nd = d ? p - d : 0, t = poly[0];
        Py_ssize_t lo = j - 1;
        while (lo > 0) {
            t = redc((u128)t * a[lo * n + lo - 1], m);
            if (t == 0)
                break;
            lo--;
            uint64_t w = redc((u128)a[lo * n + j - 1] * t, m);
            u[lo] = w ? p - w : 0;
        }
        for (Py_ssize_t k = 0; k < j; k++) {
            uint64_t s = redc((u128)nd * prev[k], m) + (k ? prev[k - 1] : 0);
            if (s >= p)
                s -= p;
            Py_ssize_t r = k > lo ? k : lo;
            size_t off = (size_t)r * (r + 1) / 2 + k;
            while (r < j - 1) {
                Py_ssize_t end = j - 1 - r > DOT_BLOCK ? r + DOT_BLOCK : j - 1;
                u128 acc = 0;
                for (; r < end; off += ++r)
                    acc += (u128)u[r] * poly[off];
                s += redc(acc, m);
                if (s >= p)
                    s -= p;
            }
            cur[k] = s;
        }
        cur[j] = prev[j - 1];
    }
    const uint64_t *top = poly + n * (n + 1) / 2;
    for (Py_ssize_t k = 0; k <= n; k++)
        c[k] = redc(top[k], m);
    return 0;
}

static PyObject *
k_charpoly_mod(PyObject *self, PyObject *args)
{
    PyObject *rows_obj, *mods_obj, *rows = NULL, *mods, *out = NULL;
    int64_t *small = NULL;
    uint64_t *a = NULL, *work = NULL;
    if (!PyArg_ParseTuple(args, "OO", &rows_obj, &mods_obj))
        return NULL;
    if ((mods = PySequence_Fast(mods_obj, "moduli must be a sequence")) == NULL)
        return NULL;
    Py_ssize_t k = PySequence_Fast_GET_SIZE(mods), n = 0;
    PyObject **mitems = PySequence_Fast_ITEMS(mods);
    for (Py_ssize_t j = 0; j < k; j++) {
        int overflow = 0;
        long long p = PyLong_Check(mitems[j])
                      ? PyLong_AsLongLongAndOverflow(mitems[j], &overflow) : 0;
        if (overflow || p < 3 || (uint64_t)p >= MODULUS_TOP || !(p & 1)) {
            PyErr_SetString(PyExc_ValueError,
                            "charpoly_mod needs odd int moduli 3 <= p < 2^56");
            goto done;
        }
    }
    if ((rows = PySequence_Fast(rows_obj, "matrix rows must be a sequence")) == NULL)
        goto done;
    n = PySequence_Fast_GET_SIZE(rows);
    if (n > 0 && (size_t)n > ((size_t)1 << 28) / (size_t)n) {
        PyErr_SetString(PyExc_MemoryError, "matrix too large");
        goto done;
    }
    small = PyMem_Malloc((size_t)n * n * sizeof(int64_t));
    a = PyMem_Malloc((size_t)n * n * sizeof(uint64_t));
    work = PyMem_Malloc(((size_t)(n + 1) * (n + 2) / 2 + 3 * (size_t)n + 1)
                        * sizeof(uint64_t));
    if (small == NULL || a == NULL || work == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    /* load the entries into small[] */
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
        for (Py_ssize_t j = 0; j < n; j++) {
            int overflow;
            long long x = PyLong_AsLongLongAndOverflow(items[j], &overflow);
            if (overflow)
                PyErr_SetString(PyExc_OverflowError,
                                "charpoly_mod needs entries within int64");
            if (overflow || (x == -1 && PyErr_Occurred())) {
                Py_DECREF(row);
                goto done;
            }
            small[i * n + j] = x;
        }
        Py_DECREF(row);
    }
    if ((out = PyTuple_New(k)) == NULL)
        goto done;
    uint64_t *c = work + (n + 1) * (n + 2) / 2 + 2 * n;
    for (Py_ssize_t j = 0; j < k; j++) {
        mont_t m = mont_init(PyLong_AsUnsignedLongLong(mitems[j]));
        for (Py_ssize_t e = 0; e < n * n; e++)
            a[e] = mont_of(small[e], &m);
        if (hessenberg_mod(n, a, &m, c, work) < 0) {
            PyErr_Format(PyExc_ValueError,
                         "charpoly_mod: a pivot is not a unit modulo %llu; "
                         "the moduli must be prime", (unsigned long long)m.p);
            goto fail;
        }
        PyObject *res = PyTuple_New(n + 1);
        if (res == NULL)
            goto fail;
        PyTuple_SET_ITEM(out, j, res);
        for (Py_ssize_t i = 0; i <= n; i++) {
            PyObject *ci = PyLong_FromUnsignedLongLong(c[i]);
            if (ci == NULL)
                goto fail;
            PyTuple_SET_ITEM(res, i, ci);
        }
    }
    goto done;
fail:
    Py_CLEAR(out);
done:
    PyMem_Free(small);
    PyMem_Free(a);
    PyMem_Free(work);
    Py_XDECREF(rows);
    Py_DECREF(mods);
    return out;
}

/* ------------------------------------------------------------------------
 * census invariants
 *
 * census_invariants takes a connected graph on n <= MAXN_CENSUS = 10
 * vertices, so its largest-distance matrix E is symmetric, with every
 * entry in 0..diam <= 9 and a zero diagonal.  It computes the charpoly of
 * E modulo the prime CENSUS_PRIME = 2^56 - 5 (7.2e16, the first prime
 * exactalg.charpoly takes), in Montgomery form, and reads its
 * multiplicities off that charpoly: m(c), c = -1, -2, 0, is the root
 * multiplicity of c, the n_zero of inertia_at.  As E is symmetric, that is
 * its nullity n - rank(E - cI).
 *
 * The charpoly.  Every coefficient of det(xI - E) has absolute value at
 * most (1+R)^n, R the largest row sum of E (the argument is in
 * exactalg.charpoly).  Entry uv of E is 0 or d(u,v), and a vertex of
 * eccentricity e has a vertex at each distance 1..e-1, so its row sums to
 * at most e(e-1)/2 + (n-e)e <= 44 for n <= 10, except for an end of P10
 * (e = 9), whose row sums to 35.  As (1+44)^10 < 3.4e16 < p/2, each
 * coefficient lies below p/2 in absolute value, so the symmetric residues
 * of hessenberg_mod, the charpoly of E mod p, are the coefficients (the
 * orders n <= 9 reach R = 30).
 *
 * The shift's bound.  inertia_at needs coefficients a_k with |a_k| < 2^63
 * (a census charpoly lies below 2^55, by the argument above), n <=
 * MAXN_CENSUS = 10 and |c| <= 2.  Pass i of the shift is a synthetic
 * division by x - c, so every value it holds is an input coefficient, a
 * Taylor coefficient sum_m C(m, j) c^(m-j) a_m, or a coefficient
 * sum_m C(m-t-1, s-1) c^(m-t-s) a_m of the quotient of the polynomial by
 * (x - c)^s, s >= 1.  Each factor C(.,.) |c|^. is at most (1 + |c|)^m <=
 * 3^10 and there are at most n + 1 = 11 terms, so every value is below
 * 2^63 * 3^10 * 11 < 2^83, and c times it below 2^85: the shift runs in
 * __int128 without overflow.
 */

#define CENSUS_PRIME (MODULUS_TOP - 5)

/* Inertia of the monic polynomial a[0..n] (ascending) relative to the
 * integer c, |c| <= 2, into out as (n_plus, n_zero, n_minus), by
 * exactalg.charpoly_inertia's algorithm: the zero roots of a(y + c) are its
 * vanishing low coefficients, and as every root is real (a is a symmetric
 * matrix's charpoly) the sign changes of the rest count its positive roots
 * exactly.  n_zero is the root multiplicity of c in a whether or not a is
 * real-rooted. */
static void
inertia_at(int n, const long long *a, int c, int *out)
{
    __int128 b[MAXN_CENSUS + 1];
    for (int k = 0; k <= n; k++)
        b[k] = a[k];
    if (c)
        for (int i = 0; i < n; i++)
            for (int k = n - 1; k >= i; k--)
                b[k] += c * b[k + 1];
    int zero = 0, plus = 0;
    while (zero < n && b[zero] == 0)  /* b[n] = 1 */
        zero++;
    int positive = b[zero] > 0;
    for (int k = zero + 1; k <= n; k++)
        if (b[k] != 0 && (b[k] > 0) != positive) {
            plus++;
            positive = !positive;
        }
    out[0] = plus;
    out[1] = zero;
    out[2] = n - plus - zero;
}

/* Fill dist with the BFS distances of the graph adj[0..n-1] and ecc with
 * its eccentricities: the one BFS that census_records and census_structure
 * share.  ValueError naming what on a disconnected graph. */
static int
census_metrics(int n, const uint64_t *adj, const char *what,
               int dist[][MAXN_CENSUS], int *ecc)
{
    for (int i = 0; i < n; i++) {
        bfs(n, adj, i, dist[i]);
        ecc[i] = 0;
        for (int j = 0; j < n; j++) {
            if (dist[i][j] == UNREACH) {
                PyErr_Format(PyExc_ValueError,
                             "%s requires a connected graph", what);
                return -1;
            }
            if (dist[i][j] > ecc[i])
                ecc[i] = dist[i][j];
        }
    }
    return 0;
}

/* Entry uv of the largest-distance matrix by its definition: d(u,v) iff it
 * equals min(ecc(u), ecc(v)), else 0 (0 on the diagonal either way). */
static inline int
min_rule_entry(int d, int eu, int ev)
{
    return d == (eu < ev ? eu : ev) ? d : 0;
}

/* The invariants of the census record of a connected graph on n vertices
 * from its distances and eccentricities (census_metrics): inv = (n, diam,
 * |V1|, m(-1), m(-2), m(0)) and cp, its charpoly's n + 1 ascending
 * coefficients. */
static void
census_invariants(int n, int dist[][MAXN_CENSUS], const int *ecc,
                  long long *inv, long long *cp)
{
    uint64_t a[MAXN_CENSUS * MAXN_CENSUS], c[MAXN_CENSUS + 1],
             work[(MAXN_CENSUS + 1) * (MAXN_CENSUS + 2) / 2 + 2 * MAXN_CENSUS];
    int at[3];
    inv[0] = n;
    inv[1] = inv[2] = 0;
    for (int i = 0; i < n; i++) {
        if (ecc[i] > inv[1])
            inv[1] = ecc[i];
        inv[2] += ecc[i] == 1;
    }
    mont_t m = mont_init(CENSUS_PRIME);
    for (int i = 0; i < n; i++)
        for (int j = 0; j < n; j++)
            a[i * n + j] = mont_of(min_rule_entry(dist[i][j], ecc[i], ecc[j]),
                                   &m);
    /* it cannot fail, as CENSUS_PRIME is prime */
    hessenberg_mod(n, a, &m, c, work);
    for (int i = 0; i <= n; i++)
        cp[i] = c[i] > CENSUS_PRIME / 2
                ? (long long)c[i] - (long long)CENSUS_PRIME : (long long)c[i];
    static const int shifts[3] = {-1, -2, 0};
    for (int k = 0; k < 3; k++) {
        inertia_at(n, cp, shifts[k], at);
        inv[3 + k] = at[1];
    }
}

/* ------------------------------------------------------------------------
 * census structure
 *
 * census_structure gives the census-wide lemma checks what they compare a
 * census record with.  The graph side handles only the adjacency the
 * record's graph6 canon decodes to and the eccentricities:
 *  - the twin predictions, from twin_masks: one (xi, k - 1) pair for each
 *    class of k >= 2 twins, at its least vertex, in vertex order, as
 *    _kernels_py.twin_predictions gives them.  A class is all adjacent
 *    ("co-duplicate") or all non-adjacent ("duplicate"), as argued at
 *    _kernels_py._twin_masks.  xi is -1 for co-duplicates of eccentricity
 *    1, -2 for duplicates of eccentricity 2, else 0.
 *  - the mixed-star shape, on bitset cells: some vertex is universal,
 *    n >= 2, and each vertex of the non-universal remainder has, within the
 *    remainder, the closed neighborhood of each of its remainder
 *    neighbors.
 * The spectral side reads the record's charpoly, not the graph: the inertia
 * triples (n_plus, n_zero, n_minus) of the monic ascending coefficients at
 * c = -1 and 0, by inertia_at, for coefficients below 2^63 in absolute
 * value (the shift's bound is at census_invariants). */

/* Load the n + 1 ascending coefficients of a monic polynomial, each below
 * 2^63 in absolute value: ValueError on a wrong count or a leading
 * coefficient other than 1, OverflowError on a coefficient out of range. */
static int
load_charpoly(int n, PyObject *coeffs, const char *what, long long *a)
{
    PyObject *seq = PySequence_Fast(
        coeffs, "charpoly coefficients must be a sequence");
    if (seq == NULL)
        return -1;
    int rc = -1;
    if (PySequence_Fast_GET_SIZE(seq) != n + 1) {
        PyErr_Format(PyExc_ValueError, "%s needs n + 1 charpoly coefficients",
                     what);
        goto done;
    }
    PyObject **items = PySequence_Fast_ITEMS(seq);
    for (int k = 0; k <= n; k++) {
        int overflow;
        a[k] = PyLong_AsLongLongAndOverflow(items[k], &overflow);
        if (a[k] == -1 && PyErr_Occurred())
            goto done;
        if (overflow || a[k] == LLONG_MIN) {
            PyErr_Format(PyExc_OverflowError,
                         "%s needs charpoly coefficients below 2^63 in "
                         "absolute value", what);
            goto done;
        }
    }
    if (a[n] != 1) {
        PyErr_Format(PyExc_ValueError, "%s needs a monic charpoly", what);
        goto done;
    }
    rc = 0;
done:
    Py_DECREF(seq);
    return rc;
}

static PyObject *
k_census_structure(PyObject *self, PyObject *args)
{
    uint64_t adj[MAXN_CENSUS], twin[MAXN_CENSUS];
    int dist[MAXN_CENSUS][MAXN_CENSUS], ecc[MAXN_CENSUS], n;
    long long a[MAXN_CENSUS + 1];
    int at_m1[3], at_0[3];
    PyObject *g6, *coeffs;
    if (!PyArg_ParseTuple(args, "OO", &g6, &coeffs)
            || load_graph6(g6, "census_structure", &n, adj) < 0
            || census_metrics(n, adj, "census_structure", dist, ecc) < 0
            || load_charpoly(n, coeffs, "census_structure", a) < 0)
        return NULL;
    inertia_at(n, a, -1, at_m1);
    inertia_at(n, a, 0, at_0);
    PyObject *twins = PyList_New(0);
    if (twins == NULL)
        return NULL;
    twin_masks(n, adj, twin);
    for (int v = 0; v < n; v++) {
        if (!twin[v] || twin[v] & (((uint64_t)1 << v) - 1))
            continue;
        int xi = adj[v] & twin[v] ? (ecc[v] == 1 ? -1 : 0)
                                  : (ecc[v] == 2 ? -2 : 0);
        PyObject *pair = Py_BuildValue("(ii)", xi,
                                       __builtin_popcountll(twin[v]));
        if (pair == NULL || PyList_Append(twins, pair) < 0) {
            Py_XDECREF(pair);
            Py_DECREF(twins);
            return NULL;
        }
        Py_DECREF(pair);
    }
    uint64_t full = ((uint64_t)1 << n) - 1, rest = 0;
    for (int v = 0; v < n; v++)
        if ((adj[v] | (uint64_t)1 << v) != full)
            rest |= (uint64_t)1 << v;
    int star = rest != full && n > 1;
    for (uint64_t mv = rest; star && mv; mv &= mv - 1) {
        int v = __builtin_ctzll(mv);
        uint64_t cell = (adj[v] | (uint64_t)1 << v) & rest;
        for (uint64_t mu = cell; mu; mu &= mu - 1) {
            int u = __builtin_ctzll(mu);
            if (((adj[u] | (uint64_t)1 << u) & rest) != cell) {
                star = 0;
                break;
            }
        }
    }
    return Py_BuildValue("(NO(iii)(iii))",
                         twins, star ? Py_True : Py_False,
                         at_m1[0], at_m1[1], at_m1[2], at_0[0], at_0[1],
                         at_0[2]);
}

/* ------------------------------------------------------------------------
 * census store codec
 *
 * format_store and parse_store carry a census store's round trip in bulk.
 * census.CensusRecord.to_line and from_line stay the one definition of a
 * store line and of every error message; the pure backend is those two
 * methods.  A line, as to_line writes it, is
 *     canon TAB n,diam,v1,m1,m2,m0,tags TAB a_0,a_1,...,a_n
 * with the family tags joined by ';' and the charpoly's coefficients
 * ascending.  Only the family graphs, at most 14 per order, have tags;
 * the codec handles the tag field only when it is empty.
 *
 * format_store writes a record of exactly the given record type itself
 * when its canon is an exact ASCII str, its tags the empty tuple, its
 * charpoly an exact tuple and its ints exact ints within int64; it hands
 * any other record to its own to_line.  An untagged census record always
 * takes the first path: its ints other than the coefficients are at most
 * 10, and by the CENSUS_PRIME argument its coefficients lie below
 * 45^10 < 3.4e16 < 2^55 in absolute value.
 *
 * parse_store accepts only the strict form that to_line writes for an
 * untagged record: ASCII; canonical decimal ints, "0" or an optional '-'
 * and 1..STORE_DIGITS digits with no leading zero (so |x| < 10^18 < 2^63);
 * a canon of graph6 bytes 63..126 whose size byte is n + 63 and whose
 * length is 1 + (n(n-1)/2 + 5) / 6, for a census order
 * 0 <= n <= MAXN_CENSUS; 7 invariant fields, the last, the tags, empty;
 * exactly n + 1 coefficients, the last 1; and '\n', or the end of the data,
 * ending the line.  These are from_line's O(1) checks on a stricter lexical
 * form, so a line accepted here is one from_line parses, to an equal
 * record.  Every other line (tagged, blank, CRLF-ended, "+5", " 5",
 * non-ASCII, an int of 19 digits, of order above 10, or malformed) is
 * handed back as its raw bytes, newline included, for from_line to parse
 * or reject. */

#define STORE_DIGITS 18  /* 10^18 - 1 < 2^63 */
#define STORE_FIELDS 9   /* canon, 6 ints, charpoly, tags */

typedef struct {
    char *p;
    size_t len, cap;
} strbuf;

static int
buf_put(strbuf *b, const char *s, size_t len)
{
    if (b->cap - b->len < len) {
        size_t cap = b->cap ? b->cap : 1 << 16;
        while (cap - b->len < len)
            cap *= 2;
        char *p = PyMem_Realloc(b->p, cap);
        if (p == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        b->p = p;
        b->cap = cap;
    }
    memcpy(b->p + b->len, s, len);
    b->len += len;
    return 0;
}

/* Append str(obj) for an exact int obj within int64: 1 done, 0 for any
 * other obj, -1 on a memory error. */
static int
put_int(strbuf *b, PyObject *obj)
{
    int overflow;
    if (!PyLong_CheckExact(obj))
        return 0;
    long long v = PyLong_AsLongLongAndOverflow(obj, &overflow);
    if (overflow)
        return 0;
    char tmp[24], *d = tmp + sizeof tmp;
    unsigned long long u = v < 0 ? 0ULL - (unsigned long long)v
                                 : (unsigned long long)v;
    do
        *--d = (char)('0' + u % 10);
    while ((u /= 10) != 0);
    if (v < 0)
        *--d = '-';
    return buf_put(b, d, (size_t)(tmp + sizeof tmp - d)) < 0 ? -1 : 1;
}

/* Append an exact ASCII str: 1 done, 0 for any other obj, -1 on error. */
static int
put_ascii(strbuf *b, PyObject *obj)
{
    if (!PyUnicode_CheckExact(obj) || !PyUnicode_IS_ASCII(obj))
        return 0;
    return buf_put(b, (const char *)PyUnicode_1BYTE_DATA(obj),
                   (size_t)PyUnicode_GET_LENGTH(obj)) < 0 ? -1 : 1;
}

/* Append the items of an exact tuple, each by put_int, joined by ',':
 * 1 done, 0 if obj or an item is of another form, -1 on error. */
static int
put_ints(strbuf *b, PyObject *obj)
{
    if (!PyTuple_CheckExact(obj))
        return 0;
    for (Py_ssize_t k = 0; k < PyTuple_GET_SIZE(obj); k++) {
        int rc;
        if (k && buf_put(b, ",", 1) < 0)
            return -1;
        if ((rc = put_int(b, PyTuple_GET_ITEM(obj, k))) <= 0)
            return rc;
    }
    return 1;
}

/* Append the store line of rec, the fields of a record, without its
 * newline: 1 done, 0 if its tags are not the empty tuple or a field is not
 * of a form handled here, -1 on error. */
static int
put_record(strbuf *b, PyObject *rec)
{
    PyObject *tags = PyTuple_GET_ITEM(rec, 8);
    int rc;
    if (!PyTuple_CheckExact(tags) || PyTuple_GET_SIZE(tags) != 0)
        return 0;
    if ((rc = put_ascii(b, PyTuple_GET_ITEM(rec, 0))) <= 0)
        return rc;
    for (int i = 1; i <= 6; i++) {
        if (buf_put(b, i == 1 ? "\t" : ",", 1) < 0)
            return -1;
        if ((rc = put_int(b, PyTuple_GET_ITEM(rec, i))) <= 0)
            return rc;
    }
    if (buf_put(b, ",\t", 2) < 0)
        return -1;
    return put_ints(b, PyTuple_GET_ITEM(rec, 7));
}

static PyObject *
k_format_store(PyObject *self, PyObject *args)
{
    PyObject *records, *type, *seq, *out = NULL;
    if (!PyArg_ParseTuple(args, "OO", &records, &type))
        return NULL;
    if ((seq = PySequence_Fast(records, "records must be iterable")) == NULL)
        return NULL;
    strbuf b = {NULL, 0, 0};
    PyObject **items = PySequence_Fast_ITEMS(seq);
    for (Py_ssize_t i = 0; i < PySequence_Fast_GET_SIZE(seq); i++) {
        PyObject *rec = items[i];
        size_t start = b.len;
        int rc = Py_IS_TYPE(rec, (PyTypeObject *)type)
                 && PyTuple_Check(rec)
                 && PyTuple_GET_SIZE(rec) == STORE_FIELDS
                 ? put_record(&b, rec) : 0;
        if (rc < 0)
            goto done;
        if (rc == 0) {
            b.len = start;
            PyObject *line = PyObject_CallMethod(rec, "to_line", NULL);
            if (line == NULL)
                goto done;
            PyObject *ascii = PyUnicode_AsASCIIString(line);
            Py_DECREF(line);
            if (ascii == NULL)
                goto done;
            rc = buf_put(&b, PyBytes_AS_STRING(ascii),
                         (size_t)PyBytes_GET_SIZE(ascii));
            Py_DECREF(ascii);
            if (rc < 0)
                goto done;
        }
        if (buf_put(&b, "\n", 1) < 0)
            goto done;
    }
    out = PyBytes_FromStringAndSize(b.p, (Py_ssize_t)b.len);
done:
    PyMem_Free(b.p);
    Py_DECREF(seq);
    return out;
}

/* The fields of a line in the strict form. */
typedef struct {
    const char *canon;
    Py_ssize_t canon_len;
    long long inv[6], coeffs[MAXN_CENSUS + 1];
} store_line;

/* Scan a canonical decimal int at s (before end): the position after it,
 * or NULL if s does not start with one. */
static const char *
scan_int(const char *s, const char *end, long long *out)
{
    int neg = s < end && *s == '-';
    s += neg;
    if (s == end || *s < '0' || *s > '9' || (neg && *s == '0'))
        return NULL;
    if (*s == '0') {
        *out = 0;
        return s + 1;
    }
    const char *first = s;
    unsigned long long v = 0;
    for (; s < end && *s >= '0' && *s <= '9'; s++) {
        if (s - first == STORE_DIGITS)
            return NULL;
        v = v * 10 + (unsigned long long)(*s - '0');
    }
    *out = neg ? -(long long)v : (long long)v;
    return s;
}

/* Scan a canonical decimal int followed by sep: the position after sep,
 * or NULL. */
static const char *
scan_field(const char *s, const char *end, char sep, long long *out)
{
    s = scan_int(s, end, out);
    return s != NULL && s < end && *s == sep ? s + 1 : NULL;
}

/* 1 if the line s..end (its newline excluded) has the strict form, with
 * its fields in out, else 0. */
static int
scan_line(const char *s, const char *end, store_line *out)
{
    const char *tab = memchr(s, '\t', (size_t)(end - s)), *q;
    if (tab == NULL)
        return 0;
    q = tab + 1;
    for (int i = 0; i < 6; i++)
        if ((q = scan_field(q, end, ',', &out->inv[i])) == NULL)
            return 0;
    long long n = out->inv[0];
    if (n < 0 || n > MAXN_CENSUS || *s != n + 63
            || tab - s != 1 + (n * (n - 1) / 2 + 5) / 6)
        return 0;
    for (const char *c = s + 1; c < tab; c++)
        if (*c < 63 || *c > 126)
            return 0;
    out->canon = s;
    out->canon_len = tab - s;
    if (q == end || *q++ != '\t')  /* a tag field other than the empty one */
        return 0;
    for (int k = 0; k <= n; k++) {
        if (k && (q == end || *q++ != ','))
            return 0;
        if ((q = scan_int(q, end, &out->coeffs[k])) == NULL)
            return 0;
    }
    return q == end && out->coeffs[n] == 1;
}

static PyObject *
ascii_str(const char *s, Py_ssize_t len)
{
    PyObject *str = PyUnicode_New(len, 127);
    if (str != NULL)
        memcpy(PyUnicode_1BYTE_DATA(str), s, (size_t)len);
    return str;
}

/* A new instance of the tuple subclass type holding an untagged census
 * record: the canon, the six ints inv (n first), the tuple of the n + 1
 * coefficients cp and the empty tuple of tags. */
static PyObject *
new_record(PyTypeObject *type, const char *canon, Py_ssize_t canon_len,
           const long long *inv, const long long *cp)
{
    int n = (int)inv[0];
    PyObject *rec, *coeffs, *v;
    if ((rec = type->tp_alloc(type, STORE_FIELDS)) == NULL)
        return NULL;
    if ((v = PyTuple_New(0)) == NULL)
        goto fail;
    PyTuple_SET_ITEM(rec, 8, v);
    if ((v = ascii_str(canon, canon_len)) == NULL)
        goto fail;
    PyTuple_SET_ITEM(rec, 0, v);
    for (int i = 0; i < 6; i++) {
        if ((v = PyLong_FromLongLong(inv[i])) == NULL)
            goto fail;
        PyTuple_SET_ITEM(rec, i + 1, v);
    }
    if ((coeffs = PyTuple_New(n + 1)) == NULL)
        goto fail;
    PyTuple_SET_ITEM(rec, 7, coeffs);
    for (int k = 0; k <= n; k++) {
        if ((v = PyLong_FromLongLong(cp[k])) == NULL)
            goto fail;
        PyTuple_SET_ITEM(coeffs, k, v);
    }
    /* The record holds only str, int and tuples of them, so it is in no
     * reference cycle; untracked, the collector never traverses the records
     * of a census (CPython untracks such exact tuples itself, but only once
     * they survive a collection, and never a tuple subclass).  A type with
     * a __dict__ could hold more, so its records stay tracked. */
    PyObject_GC_UnTrack(coeffs);
    if (type->tp_dictoffset == 0)
        PyObject_GC_UnTrack(rec);
    return rec;
fail:
    Py_DECREF(rec);
    return NULL;
}

static PyObject *
k_parse_store(PyObject *self, PyObject *args)
{
    Py_buffer view;
    PyObject *type, *items = NULL, *handed = NULL, *out = NULL;
    if (!PyArg_ParseTuple(args, "y*O", &view, &type))
        return NULL;
    if (!PyType_Check(type)
            || !PyType_IsSubtype((PyTypeObject *)type, &PyTuple_Type)) {
        PyErr_SetString(PyExc_TypeError,
                        "parse_store needs a tuple subclass as record type");
        goto done;
    }
    const char *s = view.buf, *end = s + view.len;
    Py_ssize_t nlines = 0;
    for (const char *p = s; p < end; nlines++) {
        const char *nl = memchr(p, '\n', (size_t)(end - p));
        p = nl ? nl + 1 : end;
    }
    if ((items = PyList_New(nlines)) == NULL
            || (handed = PyList_New(0)) == NULL)
        goto done;
    store_line line;
    for (Py_ssize_t i = 0; i < nlines; i++) {
        const char *nl = memchr(s, '\n', (size_t)(end - s));
        const char *stop = nl ? nl : end, *next = nl ? nl + 1 : end;
        PyObject *item;
        if (scan_line(s, stop, &line))
            item = new_record((PyTypeObject *)type, line.canon,
                              line.canon_len, line.inv, line.coeffs);
        else {
            PyObject *index = PyLong_FromSsize_t(i);
            int rc = index == NULL ? -1 : PyList_Append(handed, index);
            Py_XDECREF(index);
            item = rc < 0 ? NULL : PyBytes_FromStringAndSize(s, next - s);
        }
        if (item == NULL)
            goto done;
        PyList_SET_ITEM(items, i, item);
        s = next;
    }
    out = PyTuple_Pack(2, items, handed);
done:
    Py_XDECREF(items);
    Py_XDECREF(handed);
    PyBuffer_Release(&view);
    return out;
}

/* ------------------------------------------------------------------------
 * census records
 *
 * census_records builds a chunk of census records in one call: for each
 * bit form, in order, a record_type instance (canon, n, diam, |V1|, m(-1),
 * m(-2), m(0), charpoly, ()), its canon encoded by graph6_encode and its
 * invariants from census_invariants.  Every record is untagged; the census
 * tags its family graphs itself.  Records are built by the codec's
 * new_record, as parse_store builds them. */

/* The census record of the bit form bits of a connected graph on n
 * vertices, 1 <= n <= MAXN_CENSUS, as a new instance of type. */
static PyObject *
census_record(PyTypeObject *type, int n, PyObject *bits)
{
    uint64_t adj[MAXN_CENSUS], form;
    int dist[MAXN_CENSUS][MAXN_CENSUS], ecc[MAXN_CENSUS];
    long long inv[6], cp[MAXN_CENSUS + 1];
    char canon[GRAPH6_MAX];
    if (load_bits(n, bits, MAXN_CENSUS, "census_records", &form) < 0)
        return NULL;
    unpack_bits(n, form, adj);
    if (census_metrics(n, adj, "census_records", dist, ecc) < 0)
        return NULL;
    census_invariants(n, dist, ecc, inv, cp);
    return new_record(type, canon, graph6_encode(n, form, canon), inv, cp);
}

static PyObject *
k_census_records(PyObject *self, PyObject *args)
{
    PyObject *forms, *type, *items, *out;
    int n;
    if (!PyArg_ParseTuple(args, "iOO", &n, &forms, &type))
        return NULL;
    if (!PyType_Check(type)
            || !PyType_IsSubtype((PyTypeObject *)type, &PyTuple_Type)) {
        PyErr_SetString(PyExc_TypeError,
                        "census_records needs a tuple subclass as record type");
        return NULL;
    }
    /* a tuple: forms may be any iterable, and Python code that runs while
     * records are built (a finalizer the collector calls on an allocation)
     * cannot move an item */
    if (check_order(n, MAXN_CENSUS, "census_records") < 0
            || (items = PySequence_Tuple(forms)) == NULL)
        return NULL;
    out = PyList_New(PyTuple_GET_SIZE(items));
    for (Py_ssize_t i = 0; out != NULL && i < PyTuple_GET_SIZE(items); i++) {
        PyObject *rec = census_record((PyTypeObject *)type, n,
                                      PyTuple_GET_ITEM(items, i));
        if (rec == NULL)
            Py_CLEAR(out);
        else
            PyList_SET_ITEM(out, i, rec);
    }
    Py_DECREF(items);
    return out;
}

/* ------------------------------------------------------------------------
 * module */

static PyMethodDef kernel_methods[] = {
    {"all_pairs_dist", k_all_pairs_dist, METH_VARARGS,
     "all_pairs_dist(n, adj)\n--\n\n"
     "n x n hop-distance matrix as a list of rows (UNREACHABLE sentinel)."},
    {"canon_bits", k_canon_bits, METH_VARARGS,
     "canon_bits(n, adj)\n--\n\n"
     "Canonical form of the graph, packed as an int of n(n-1)/2 bits."},
    {"children_canon", k_children_canon, METH_VARARGS,
     "children_canon(n, bits)\n--\n\n"
     "The sorted distinct canonical forms of those one-vertex extensions of\n"
     "the connected graph on 1 <= n <= 9 vertices whose packed lower\n"
     "triangle is bits that have it as their canonical parent: the new\n"
     "vertex n attached to a nonempty subset of 0..n-1.  Only subsets that\n"
     "take each twin class of the parent as a prefix are tried."},
    {"census_records", k_census_records, METH_VARARGS,
     "census_records(n, forms, record_type)\n--\n\n"
     "One record_type instance per bit form of a connected graph on n\n"
     "vertices, in order: (graph6 canon, n, diam, |V1|, m(-1), m(-2), m(0),\n"
     "charpoly coeffs ascending, ()); each m(c) is the root multiplicity\n"
     "of c in the charpoly, and no record has family tags.  record_type\n"
     "must be a tuple subclass."},
    {"census_structure", k_census_structure, METH_VARARGS,
     "census_structure(g6, coeffs)\n--\n\n"
     "(twin predictions, star shape, inertia at -1, at 0) of the connected\n"
     "graph with graph6 string g6 and its monic ascending charpoly coeffs:\n"
     "the (xi, lower) pairs of its twin classes, whether it is a star mixed\n"
     "extension, and the (n_plus, n_zero, n_minus) triples of the charpoly\n"
     "at c = -1 and 0.  Coefficients must lie below 2^63 in absolute value\n"
     "(OverflowError)."},
    {"charpoly_mod", k_charpoly_mod, METH_VARARGS,
     "charpoly_mod(rows, moduli)\n--\n\n"
     "Ascending coefficients of det(xI - M) modulo each prime 3 <= p < 2^56,\n"
     "as residues in 0..p-1, one tuple per modulus, for the square integer\n"
     "matrix M with these rows (any order, symmetric or not; OverflowError\n"
     "on an entry outside int64), by reduction to Hessenberg form modulo p.\n"
     "The reduction divides by its pivots: at a composite odd modulus it\n"
     "raises ValueError naming the modulus when a pivot is not a unit, and\n"
     "is exact otherwise."},
    {"format_store", k_format_store, METH_VARARGS,
     "format_store(records, record_type)\n--\n\n"
     "Census store text of the records, each line ended by a newline, as\n"
     "ASCII bytes: the bytes of ''.join(r.to_line() + '\\n').  An untagged\n"
     "record of exactly record_type with exact int, str and tuple fields\n"
     "within int64 is formatted here, any other by its to_line."},
    {"parse_store", k_parse_store, METH_VARARGS,
     "parse_store(data, record_type)\n--\n\n"
     "(items, handed_back) for a block of census store bytes: items has one\n"
     "entry per '\\n'-ended line (the last may lack it); a line in the\n"
     "strict form to_line writes for an untagged record becomes a\n"
     "record_type instance, any other stays its raw bytes, and handed_back\n"
     "lists the indices of those, in order, for CensusRecord.from_line."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef kernel_module = {
    PyModuleDef_HEAD_INIT, "eccspec._kernels",
    "Compiled kernels: BFS distances, canonical labeling, census records\n"
    "and structure, characteristic polynomials modulo word-size primes, the\n"
    "census store codec.",
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
