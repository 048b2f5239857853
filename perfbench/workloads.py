"""The benchmark's three workloads: inputs, the timed job, correctness gates.

A ``Workload`` has two functions and optional hooks.  ``setup(seed,
work_dir, rep)`` builds the inputs of repetition ``rep`` and returns a state
dict; it runs before the process reports ready.  ``job(state)`` runs the
timed work once and returns a ``JobResult``: the latency of each operation,
the operations attempted and failed, and the per-suite times.  Every gate
runs outside the timed region.

The program is reached only through module attributes looked up at call
time (``census.classify``, not a name bound at import), so the tracer's
wrappers see every call.
"""

import hashlib
import os
import random
import time
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

from eccspec import census, eccentricity, graphs, suites

clock = time.perf_counter

#: connected graphs per order (OEIS A001349), equal to census.CONNECTED_COUNTS
CONNECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853, 8: 11117}

#: sha256 of the order-8 census store written by the seed commit; stores are
#: byte-identical across versions, so any change here is a regression
STORE_8_SHA256 = \
    "97cbee773cdb0bc898975a00d8fcded8637e1f006abeb3523607bc7e3897eb6a"

#: the published K_{n-4} v 2K2 table row is a documented erratum: its check
#: must fail, and that failure is the expected outcome
TABLES_ERRATUM_CLAIM = (
    "charpoly factors as (x+1)^(n-5) * x^2 * (x+2) times a quotient with "
    "ascending coefficients [-2n+6, -1n+3, 1]")


@dataclass
class JobResult:
    latencies: list = field(default_factory=list)  # seconds per operation
    attempted: int = 0
    failures: list = field(default_factory=list)  # one line per failed op
    suite_s: dict = field(default_factory=dict)

    def gate(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failures.append(what)


# ---------------------------------------------------------------------------
# census-n8: cold classify(8) with its store, then a read_store round trip

def census_setup(seed, work_dir, rep):
    return {"store": os.path.join(work_dir, "census-8.tsv")}


def census_job(state):
    res = JobResult()
    path = state["store"]
    t0 = clock()
    records = census.classify(8, store_path=path)
    back = census.read_store(path)
    res.latencies.append(clock() - t0)
    with open(path, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    res.gate(len(records) == CONNECTED_COUNTS[8],
             f"census count {len(records)} != {CONNECTED_COUNTS[8]}")
    res.gate(digest == STORE_8_SHA256, f"store sha256 {digest}")
    res.gate(back == records, "records read back differ from those written")
    state["records"] = records
    return res


def census_probe(state, res):
    """Canonical labeling of every tenth stored graph, which must give back
    its stored canonical form (the per-call canon_bits cost)."""
    for rec in state["records"][::10]:
        bits = census.canonical_bits(graphs.graph6_decode(rec.canon))
        res.gate(census.bits_to_graph6(8, bits) == rec.canon,
                 f"canonical form of {rec.canon} is not a fixed point")


def census_cleanup(state):
    if os.path.exists(state["store"]):
        os.remove(state["store"])


# ---------------------------------------------------------------------------
# verify-n8: every suite at census orders <= 8, census records from set-up

#: trials per randomized lemma check (the suite's defaults are 100-1000).
#: At the defaults the job takes about 60 s in pure Python, and a traced run,
#: which sets up once and runs the job traced and untraced, no longer ends
#: within 180 s; the census-wide lemma checks do not depend on this number
LEMMA_TRIALS = 50

#: each suite and the orders it runs at (thm1-i/ii/iii: their defaults <= 8)
VERIFY_SUITES = (
    ("thm1-i", {"n_values": tuple(range(2, 9))}),
    ("thm1-ii", {"n_values": tuple(range(4, 9))}),
    ("thm1-iii", {"n_values": tuple(range(4, 9))}),
    ("thm1-iv", {"n_values": (16, 20)}),
    ("thm1-v", {"n_values": (16, 20, 33)}),
    ("tables", {"n_values": (16, 17, 18, 19, 20)}),
    ("median", {"n_values": (20,)}),
    ("lemmas", {"trials": LEMMA_TRIALS}),
)

def verify_setup(seed, work_dir, rep):
    cache = {n: census.classify(n) for n in range(1, 9)}
    return {"seed": seed, "cache": cache}


def verify_job(state):
    res = JobResult()
    for n, recs in sorted(state["cache"].items()):
        res.gate(len(recs) == CONNECTED_COUNTS[n],
                 f"census count at n={n} is {len(recs)}")
    total = 0.0
    reports = []
    for name, kwargs in VERIFY_SUITES:
        t0 = clock()
        rep = suites.run_suite(name, seed=state["seed"],
                               census_cache=state["cache"], **kwargs)
        dt = clock() - t0
        total += dt
        res.suite_s[name] = dt
        reports.append((name, rep.to_dict()))
    res.latencies.append(total)
    erratum_seen = 0
    for name, rep in reports:
        res.gate(bool(rep["entries"]), f"{name}: no entries")
        for entry in rep["entries"]:
            erratum = name == "tables" and entry["claim"] == TABLES_ERRATUM_CLAIM
            erratum_seen += erratum
            res.gate(entry["pass"] != erratum,
                     f"{name}: {entry['claim']} [{entry['instance']}] "
                     f"{'passed' if entry['pass'] else 'failed'}")
    res.gate(erratum_seen == 1, f"erratum row reported {erratum_seen} times")
    return res


# ---------------------------------------------------------------------------
# query-random: a closed loop of spectrum_summary queries, one client

QUERY_ORDERS = tuple(range(8, 25))
QUERY_DEGREES = (2.0, 3.0, 4.0, 5.0)  # expected average degree, cycled
QUERIES_PER_ORDER = 10  # random graphs per order
QUERY_FAMILY_ORDERS = tuple(range(16, 41, 2))

#: shares of the random graphs of each order with 0, 1 and 2 median
#: eigenvalues that are not integers, measured on 2000 unstratified draws
#: per order by ``python3 perfbench/workloads.py --measure-share``.  An odd
#: order has one median, so its last share is 0.
MEDIAN_SHARE = {
    8: (0.376, 0.21, 0.413),
    9: (0.636, 0.363, 0.0),
    10: (0.439, 0.148, 0.412),
    11: (0.647, 0.352, 0.0),
    12: (0.533, 0.1, 0.367),
    13: (0.71, 0.29, 0.0),
    14: (0.642, 0.077, 0.281),
    15: (0.787, 0.213, 0.0),
    16: (0.696, 0.08, 0.224),
    17: (0.837, 0.163, 0.0),
    18: (0.715, 0.088, 0.197),
    19: (0.863, 0.137, 0.0),
    20: (0.721, 0.099, 0.181),
    21: (0.855, 0.145, 0.0),
    22: (0.699, 0.091, 0.21),
    23: (0.809, 0.191, 0.0),
    24: (0.655, 0.096, 0.249),
}


def _distances(n, edges):
    nbrs = [[] for _ in range(n)]
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    rows = []
    for src in range(n):
        dist = [-1] * n
        dist[src] = 0
        frontier = [src]
        while frontier:
            nxt = []
            for u in frontier:
                for v in nbrs[u]:
                    if dist[v] < 0:
                        dist[v] = dist[u] + 1
                        nxt.append(v)
            frontier = nxt
        rows.append(dist)
    return rows


def _random_connected(rng, n, degree):
    p = min(0.6, max(0.15, degree / (n - 1)))
    while True:
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < p]
        if -1 not in _distances(n, edges)[0]:
            return edges


def _bisected_medians(n, edges):
    """How many of the median eigenvalues (one at odd n, two at even n)
    are not integers.  The program certifies an integer median exactly and
    bisects any other down to a 2^-20 bracket."""
    import numpy

    eig = sorted(numpy.linalg.eigvalsh(_ecc_matrix(n, edges)), reverse=True)
    return sum(abs(eig[i - 1] - round(eig[i - 1])) > 1e-6
               for i in {(n + 1) // 2, (n + 2) // 2})


def measure_share(draws=2000, seed=0):
    """Shares of 0, 1 and 2 bisected medians per order among unstratified
    draws of ``_random_connected``; the source of ``MEDIAN_SHARE``."""
    rng = random.Random(seed)
    share = {}
    for n in QUERY_ORDERS:
        kinds = Counter(_bisected_medians(
            n, _random_connected(rng, n, QUERY_DEGREES[i % len(QUERY_DEGREES)]))
            for i in range(draws))
        share[n] = tuple(round(kinds[k] / draws, 3) for k in range(3))
    return share


def query_mix(n):
    """Random graphs of order n with 0, 1 and 2 bisected medians: the
    natural shares of ``MEDIAN_SHARE`` apportioned to QUERIES_PER_ORDER
    graphs by largest remainder."""
    raw = [QUERIES_PER_ORDER * x for x in MEDIAN_SHARE[n]]
    counts = [int(x) for x in raw]
    by_remainder = sorted(range(3), key=lambda k: counts[k] - raw[k])
    for k in by_remainder[:QUERIES_PER_ORDER - sum(counts)]:
        counts[k] += 1
    return counts


def query_stream(seed, batch):
    """(n, edges) pairs in a seeded order.  Per order, random connected
    graphs in fixed counts by the number of bisected medians
    (``query_mix``); then one characterized-family graph per family
    order."""
    rng = random.Random(seed * 1_000_003 + batch)
    stream = []
    for n in QUERY_ORDERS:
        want = query_mix(n)
        for attempt in range(10_000):
            if not any(want):
                break
            degree = QUERY_DEGREES[attempt % len(QUERY_DEGREES)]
            edges = _random_connected(rng, n, degree)
            kind = _bisected_medians(n, edges)
            if want[kind]:
                want[kind] -= 1
                stream.append((n, edges))
        else:
            raise RuntimeError(f"no query mix found at order {n}")
    for n in QUERY_FAMILY_ORDERS:
        _, g = rng.choice(graphs.theorem1_families(n))
        stream.append((n, [(u, v) for u in range(n) for v in range(u + 1, n)
                           if (g.adj[u] >> v) & 1]))
    rng.shuffle(stream)
    return stream


def query_setup(seed, work_dir, rep):
    stream = query_stream(seed, rep)
    return {"stream": stream,
            "graphs": [graphs.Graph(n, edges) for n, edges in stream]}


def query_job(state):
    import json
    res = JobResult()
    answers = []
    for g in state["graphs"]:
        t0 = clock()
        text = json.dumps(eccentricity.spectrum_summary(g).to_dict())
        res.latencies.append(clock() - t0)
        answers.append(text)
    state["answers"] = answers
    return res


def query_check(state, res):
    """Independent oracles, after the timed loop: the multiplicities equal
    the charpoly root multiplicities, and each median bracket holds the
    numpy.linalg.eigvalsh value of the benchmark's own eccentricity
    matrix."""
    import json

    import numpy

    for (n, edges), text in zip(state["stream"], state["answers"]):
        ans = json.loads(text)
        coeffs = ans["charpoly_ascending"]
        ok = len(coeffs) == n + 1 and coeffs[-1] == 1
        ok = ok and all(_root_multiplicity(coeffs, Fraction(xi)) == m
                        for xi, m in ans["multiplicities"].items())
        eig = sorted(numpy.linalg.eigvalsh(_ecc_matrix(n, edges)),
                     reverse=True)
        hi_pos, lo_pos = (n + 1) // 2, (n + 2) // 2
        x_h, x_l = eig[hi_pos - 1], eig[lo_pos - 1]
        ok = ok and _holds(ans["median_upper"], x_h)
        ok = ok and _holds(ans["median_lower"], x_l)
        ok = ok and _holds(ans["hl_index"], max(abs(x_h), abs(x_l)))
        res.gate(ok, f"query n={n} edges={edges}: {text}")


def _ecc_matrix(n, edges):
    dist = _distances(n, edges)
    ecc = [max(row) for row in dist]
    return [[dist[u][v] if u != v and dist[u][v] == min(ecc[u], ecc[v])
             else 0 for v in range(n)] for u in range(n)]


def _holds(interval, x, tol=1e-7):
    lo, hi = Fraction(interval["lo"]), Fraction(interval["hi"])
    return float(lo) - tol * max(1.0, abs(x)) <= x <= \
        float(hi) + tol * max(1.0, abs(x))


def _root_multiplicity(coeffs, r):
    """Multiplicity of the rational root r of the ascending integer
    polynomial, by repeated synthetic division."""
    work = [Fraction(c) for c in coeffs]
    mult = 0
    while len(work) > 1:
        acc = Fraction(0)
        quot = []
        for c in reversed(work):
            acc = acc * r + c
            quot.append(acc)
        if acc != 0:
            break
        work = quot[-2::-1]
        mult += 1
    return mult


def query_info(state):
    return {"order_histogram": Counter(n for n, _ in state["stream"])}


@dataclass(frozen=True)
class Workload:
    setup: object
    job: object
    check: object = None  # gates that need the job's output, untimed
    probe: object = None  # extra traced calls after the traced job
    cleanup: object = None
    info: object = None
    #: the job repeats in one process with the same cost, so the traced run
    #: times an untraced and a traced pass after one set-up
    repeatable: bool = False


WORKLOADS = {
    "census-n8": Workload(census_setup, census_job, probe=census_probe,
                          cleanup=census_cleanup),
    "verify-n8": Workload(verify_setup, verify_job, repeatable=True),
    "query-random": Workload(query_setup, query_job, check=query_check,
                             info=query_info, repeatable=True),
}


if __name__ == "__main__":
    import sys

    if sys.argv[1:] != ["--measure-share"]:
        sys.exit("usage: python3 perfbench/workloads.py --measure-share")
    for order, value in measure_share().items():
        print(f"    {order}: {value},")
