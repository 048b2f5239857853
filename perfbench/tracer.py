"""Span tracing of eccspec's public functions, installed from outside.

A ``Tracer`` replaces each traced function by a wrapper that records one span
per call -- name, start, end, parent span and an optional ``info`` value --
in an in-memory list.  Modules bind some names at import (``suites`` imports
``inertia_at``, ``eccentricity`` imports ``bareiss_rank``), so ``install``
replaces the function at every binding in every loaded ``eccspec`` module,
and ``uninstall`` puts the originals back.  The kernel backend modules are
left alone: calls a kernel makes inside itself stay part of that kernel, so
the pure-Python and compiled backends report the same call counts.

``layer_metrics`` turns the spans into the per-layer metrics the benchmark
reports.  Busy time is self time: a span's duration minus the durations of
its child spans.
"""

import os
import sys
import time

clock = time.perf_counter

#: modules whose own bindings are never replaced (kernel internals)
_BACKEND_MODULES = ("eccspec._kernels_py", "eccspec._kernels")


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, info]
        self._stack = []
        self._patches = []  # (owner, attribute, original)
        self.missing = []  # traced names the program does not define

    def wrap(self, name, fn, info=None):
        spans = self.spans
        stack = self._stack

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if info is not None:
                span[4] = info(args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def install(self, targets):
        """Wrap every ``(span name, owner, attribute, info)`` target.

        ``owner`` is a module (the function is replaced at each module
        binding that refers to it) or a class (the method is replaced on the
        class).  A target the program does not define is recorded in
        ``missing`` and skipped.
        """
        modules = [m for name, m in list(sys.modules.items())
                   if (name == "eccspec" or name.startswith("eccspec."))
                   and name not in _BACKEND_MODULES and m is not None]
        for name, owner, attr, info in targets:
            original = getattr(owner, attr, None)
            if original is None:
                if name not in self.missing:
                    self.missing.append(name)
                continue
            wrapper = self.wrap(name, original, info)
            if isinstance(owner, type):
                self._patch(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path):
        """Write the spans as tab-separated lines: index, name, start, end,
        parent, info."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tname\tstart\tend\tparent\tinfo\n")
            for i, (name, start, end, parent, info) in enumerate(self.spans):
                if isinstance(info, tuple):  # children_canon: order, forms
                    info = f"{info[0]}:{len(info[1])}"
                fh.write(f"{i}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\t"
                         f"{'' if info is None else info}\n")


def default_targets(modules):
    """The public functions the benchmark traces, by layer.

    ``modules`` maps short names (``kernels``, ``census``, ...) to the
    imported eccspec modules.  ``children_canon`` records the order of its
    parent and its candidates; ``write_store`` records the bytes written.
    """
    k, c, g, x, e, q = (modules[m] for m in (
        "kernels", "census", "graphs", "exactalg", "eccentricity", "quotient"))
    spectrum = getattr(x, "SymmetricSpectrum", None)
    targets = [
        ("kernels.children_canon", k, "children_canon",
         lambda args, res: (args[0], res)),
        ("kernels.census_stats", k, "census_stats", None),
        ("kernels.canon_bits", k, "canon_bits", None),
        ("kernels.all_pairs_dist", k, "all_pairs_dist", None),
        ("census.classify", c, "classify", None),
        ("census.bits_to_graph", c, "bits_to_graph", None),
        ("census.family_tag_map", c, "family_tag_map", None),
        ("census.write_store", c, "write_store",
         lambda args, res: os.path.getsize(args[1])),
        ("census.read_store", c, "read_store", None),
        ("graphs.bfs_metrics", g, "bfs_metrics", None),
        ("exactalg.inertia_at", x, "inertia_at", None),
        ("exactalg.bareiss_rank", x, "bareiss_rank", None),
        ("exactalg.berkowitz_charpoly", x, "berkowitz_charpoly", None),
        ("eccentricity.ecc_matrix", e, "ecc_matrix", None),
        ("eccentricity.spectrum_summary", e, "spectrum_summary", None),
        ("quotient.realize", q, "realize", None),
        ("quotient.spec_charpoly", q, "spec_charpoly", None),
        ("quotient.verify_spectrum_identity", q, "verify_spectrum_identity",
         None),
    ]
    if spectrum is not None:
        targets += [
            ("exactalg.bracket", spectrum, "bracket", None),
            ("exactalg.spectrum_inertia", spectrum, "inertia", None),
        ]
    return targets


# ---------------------------------------------------------------------------
# aggregation

def _self_times(spans):
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i]
            for i, (_, start, end, _, _) in enumerate(spans)]


def _children(spans):
    kids = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span[3] >= 0:
            kids[span[3]].append(i)
    return kids


def _self_time_in(spans, kids, i, lo, hi):
    """Self time of span i restricted to the window [lo, hi]."""
    def overlap(j):
        return max(0.0, min(spans[j][2], hi) - max(spans[j][1], lo))
    return overlap(i) - sum(overlap(j) for j in kids[i])


def _has_ancestor(spans, i, name):
    parent = spans[i][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def _census_phases(spans, kids):
    """Split the self time of each ``census.classify`` span into the
    enumeration glue before ``family_tag_map`` starts (set updates and the
    sort of each level: deduplication) and the record glue after the last
    ``census_stats`` call (records, sort) up to ``write_store``."""
    dedup = records = 0.0
    for i, span in enumerate(spans):
        if span[0] != "census.classify":
            continue
        named = {}
        for j in kids[i]:
            named.setdefault(spans[j][0], []).append(j)
        tags = named.get("census.family_tag_map")
        if tags:
            dedup += _self_time_in(spans, kids, i, span[1], spans[tags[0]][1])
        stats = named.get("kernels.census_stats")
        if stats:
            lo = max(spans[j][2] for j in stats)
            stores = named.get("census.write_store")
            hi = spans[stores[0]][1] if stores else span[2]
            records += _self_time_in(spans, kids, i, lo, hi)
    return dedup, records


def layer_metrics(spans):
    """Per-layer metrics from one traced pass; every name is always present
    (zero when the layer did no work)."""
    selfs = _self_times(spans)
    kids = _children(spans)
    calls, busy, total = {}, {}, {}
    for i, (name, start, end, _, _) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        busy[name] = busy.get(name, 0.0) + selfs[i]
        total[name] = total.get(name, 0.0) + (end - start)

    def c(name):
        return calls.get(name, 0)

    def b(name):
        return busy.get(name, 0.0)

    def ratio(num, den):
        return num / den if den else 0.0

    # candidates and unique canonical forms per new order
    candidates, unique = {}, {}
    for name, _, _, _, info in spans:
        if name == "kernels.children_canon" and info is not None:
            n, forms = info
            candidates[n + 1] = candidates.get(n + 1, 0) + len(forms)
            unique.setdefault(n + 1, set()).update(forms)
    top = max(candidates) if candidates else None
    store_bytes = sum(s[4] or 0 for s in spans if s[0] == "census.write_store")

    inertia_under_bracket = inertia_misses = 0
    for i, span in enumerate(spans):
        if span[0] != "exactalg.inertia_at":
            continue
        if _has_ancestor(spans, i, "exactalg.bracket"):
            inertia_under_bracket += 1
        parent = span[3]
        if parent >= 0 and spans[parent][0] == "exactalg.spectrum_inertia":
            inertia_misses += 1
    queries = c("exactalg.spectrum_inertia")
    dedup, records = _census_phases(spans, kids)

    out = {
        "kernels.children_canon.calls": c("kernels.children_canon"),
        "kernels.children_canon.busy_s": b("kernels.children_canon"),
        "kernels.children_canon.us_per_child": 1e6 * ratio(
            b("kernels.children_canon"), sum(candidates.values())),
        "kernels.candidates": sum(candidates.values()),
        "kernels.unique_ratio": ratio(len(unique[top]), candidates[top])
        if top else 0.0,
        "kernels.census_stats.calls": c("kernels.census_stats"),
        "kernels.census_stats.busy_s": b("kernels.census_stats"),
        "kernels.census_stats.us_per_call": 1e6 * ratio(
            b("kernels.census_stats"), c("kernels.census_stats")),
        "kernels.canon_bits.calls": c("kernels.canon_bits"),
        "kernels.canon_bits.us_per_call": 1e6 * ratio(
            b("kernels.canon_bits"), c("kernels.canon_bits")),
        "kernels.all_pairs_dist.calls": c("kernels.all_pairs_dist"),
        "kernels.all_pairs_dist.busy_s": b("kernels.all_pairs_dist"),
        "census.classify.busy_s": b("census.classify"),
        "census.bits_to_graph.calls": c("census.bits_to_graph"),
        "census.bits_to_graph.busy_s": b("census.bits_to_graph"),
        "census.dedup_s": dedup,
        "census.records_s": records,
        "census.write_store_s": total.get("census.write_store", 0.0),
        "census.read_store_s": total.get("census.read_store", 0.0),
        "census.store_bytes": store_bytes,
        "graphs.bfs_metrics.calls": c("graphs.bfs_metrics"),
        "graphs.bfs_metrics.busy_s": b("graphs.bfs_metrics"),
        "exactalg.inertia_at.calls": c("exactalg.inertia_at"),
        "exactalg.inertia_at.busy_s": b("exactalg.inertia_at"),
        "exactalg.bareiss_rank.calls": c("exactalg.bareiss_rank"),
        "exactalg.bareiss_rank.busy_s": b("exactalg.bareiss_rank"),
        "exactalg.berkowitz_charpoly.calls": c("exactalg.berkowitz_charpoly"),
        "exactalg.berkowitz_charpoly.busy_s": b("exactalg.berkowitz_charpoly"),
        "exactalg.bracket.calls": c("exactalg.bracket"),
        "exactalg.bracket.busy_s": b("exactalg.bracket"),
        "exactalg.inertia_per_bracket": ratio(inertia_under_bracket,
                                              c("exactalg.bracket")),
        "exactalg.inertia_memo_hit_ratio": ratio(queries - inertia_misses,
                                                 queries),
        "eccentricity.ecc_matrix.calls": c("eccentricity.ecc_matrix"),
        "eccentricity.ecc_matrix.busy_s": b("eccentricity.ecc_matrix"),
        "eccentricity.spectrum_summary.busy_s":
            b("eccentricity.spectrum_summary"),
        "quotient.spec_charpoly.busy_s": b("quotient.spec_charpoly"),
        "quotient.realize.busy_s": b("quotient.realize"),
        "quotient.verify_spectrum_identity.busy_s":
            b("quotient.verify_spectrum_identity"),
        "trace.spans": len(spans),
    }
    return out
