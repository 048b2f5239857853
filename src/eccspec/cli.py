"""Command-line front end.

Exit codes: 0 on success (all checks passing), 1 when a verification check
fails or a resource limit is hit (the canonical-search state cap), 2 on usage
errors: bad flags, an unreadable or disconnected graph argument, a bad family
id or query predicate, a malformed census store, an order out of range.  An
error inside the library is not a usage error; it propagates as a traceback.
Graph arguments are graph6 strings, or paths to edge-list files
("n=<count>" header, one "u v" pair per line, 0-indexed).
Polynomials print as comma-separated coefficients in descending degree order
(so "1,0,-17,0,16" is x^4 - 17x^2 + 16).
"""

from __future__ import annotations

import argparse
import json
import operator
import os
import re
import sys
from fractions import Fraction

from . import census as census_mod
from . import suites
from .eccentricity import (
    acharpoly,
    ecc_matrix,
    hl_index,
    multiplicity,
    spectrum_summary,
)
from .graphs import (
    CLIQUE_JOINS,
    Graph,
    complete,
    complete_multipartite,
    cycle,
    graph6_decode,
    graph6_encode,
    is_connected,
    join_clique_with,
    mixed_extension_star,
    parse_edge_list,
    path,
)

STORE_ENV = "ECCSPEC_STORE"
JOBS_HELP = ("worker processes (default 1); at most the CPU count are "
             "started, and the output is the same for any value")


class UsageError(Exception):
    pass


def _load_graph(text) -> Graph:
    """The connected graph an argument names; every graph command needs one."""
    if os.path.exists(text):
        try:
            with open(text, "r", encoding="utf-8") as fh:
                g = parse_edge_list(fh.read())
        except (ValueError, OSError) as exc:
            raise UsageError(f"cannot read edge-list file {text!r}: {exc}")
    else:
        try:
            g = graph6_decode(text)
        except ValueError as exc:
            raise UsageError(f"argument {text!r} is neither a graph6 string "
                             f"nor an existing edge-list file: {exc}")
    if not is_connected(g):
        raise UsageError(f"graph {text!r} is not connected; the eccentricity "
                         "matrix needs a connected graph")
    return g


def _indexed_join(kind, index, n):
    """The index-th clique join of the m(-1) = n-5 class at order n: among
    its seven K_{n-4} joins for ``g1``, among all ten for ``thm5``."""
    joins = CLIQUE_JOINS[5]
    if kind == "g1":
        joins = [(k, h) for k, h in joins if k == 4]
    if not 0 <= index < len(joins):
        raise ValueError(f"{kind} index {index} out of range "
                         f"0..{len(joins) - 1}")
    k, h = joins[index]
    return join_clique_with(n - k, h)


def _parse_family(text):
    """(builder, arguments) of a family id.  Grammar: K<n>, P<n>, C<n>,
    K(a,b,...), K<r>v<descriptor>, S(t0,-p,t1,...), g1:<i>@<n>,
    thm5:<i>@<n>."""
    text = text.strip()
    try:
        if text.startswith("g1:") or text.startswith("thm5:"):
            head, rest = text.split(":", 1)
            idx, n = rest.split("@")
            return _indexed_join, (head, int(idx), int(n))
        if text.startswith("S(") and text.endswith(")"):
            nums = [int(x) for x in text[2:-1].split(",") if x.strip()]
            if len(nums) < 2 or nums[1] > 0:
                raise ValueError("mixed star needs S(t0,-p,...)")
            return mixed_extension_star, (nums[0], -nums[1], nums[2:])
        if text.startswith("K(") and text.endswith(")"):
            parts = [int(x) for x in text[2:-1].split(",") if x.strip()]
            return complete_multipartite, (parts,)
        if "v" in text and text.startswith("K"):
            head, desc = text.split("v", 1)
            return join_clique_with, (int(head[1:]), desc)
        build = {"K": complete, "P": path, "C": cycle}.get(text[0])
        if build is not None:
            return build, (int(text[1:]),)
    except (ValueError, IndexError) as exc:
        raise UsageError(f"cannot parse family id {text!r}: {exc}")
    raise UsageError(f"cannot parse family id {text!r}")


# two-character operators first, so "<=" is not read as "<"
_QUERY_OPS = {"<=": operator.le, ">=": operator.ge, "!=": operator.ne,
              "<": operator.lt, ">": operator.gt, "=": operator.eq}
_FAMILY_OPS = {"=": operator.contains,
               "!=": lambda tags, name: name not in tags}
_QUERY_FIELDS = ("n", "diam", "v1_size", "mult_minus1", "mult_minus2",
                 "mult_zero", "family")


def _parse_predicates(tokens):
    """(record attribute, comparison, value) triples; a record matches a
    triple when comparison(getattr(record, attribute), value) holds."""
    preds = []
    for tok in tokens:
        for op, test in _QUERY_OPS.items():
            if op in tok:
                field, value = tok.split(op, 1)
                field = field.strip()
                value = value.strip()
                if field not in _QUERY_FIELDS:
                    raise UsageError(
                        f"unknown query field {field!r}; expected one of "
                        f"{', '.join(_QUERY_FIELDS)}")
                if field == "family":
                    if op not in _FAMILY_OPS:
                        raise UsageError("family supports only = and !=")
                    preds.append(("family_tags", _FAMILY_OPS[op], value))
                else:
                    try:
                        preds.append((field, test, int(value)))
                    except ValueError:
                        raise UsageError(f"predicate {tok!r}: {value!r} is "
                                         "not an integer")
                break
        else:
            raise UsageError(f"predicate {tok!r} has no comparison operator")
    return preds


def _match(rec, preds):
    for field, test, value in preds:
        if not test(getattr(rec, field), value):
            return False
    return True


def _positive_int(text):
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser():
    parser = argparse.ArgumentParser(
        prog="eccspec",
        description="exact eccentricity-matrix spectra, census scans, and "
                    "verification suites")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_graph_cmd(name, help_):
        p = sub.add_parser(name, help=help_)
        p.add_argument("graph", help="graph6 string or edge-list file")
        p.add_argument("--format", choices=("text", "json"), default="text")
        return p

    add_graph_cmd("ecc", "print the eccentricity matrix")
    add_graph_cmd("charpoly", "print the exact characteristic polynomial "
                              "(descending coefficients)")
    p = add_graph_cmd("mult", "print the multiplicity of a rational "
                              "eigenvalue")
    p.add_argument("xi", help="rational shift: an integer, p/q or a "
                              "decimal, e.g. -1, 3/2 or 0.25 (no exponent)")
    # argparse takes only -N and -N.N for negative numbers, so -1/3 would
    # read as an unknown option
    p._negative_number_matcher = re.compile(r"^-(\d+(/\d+)?|\d*\.\d+)$")
    add_graph_cmd("hl", "print the HL index (median eigenvalue magnitude)")

    p = sub.add_parser("family", help="emit a named family graph as graph6")
    p.add_argument("id", help="K5 | P4 | C7 | K(2,2,3) | K4v2K1 | "
                              "S(3,-2,2) | g1:0@9 | thm5:9@16")

    p = sub.add_parser("census", help="enumerate and classify all connected "
                                      "graphs of one order")
    p.add_argument("n", type=int)
    p.add_argument("--store", default=None,
                   help=f"output path (default ${STORE_ENV})")
    p.add_argument("--jobs", type=_positive_int, default=1, help=JOBS_HELP)
    p.add_argument("--big", action="store_true",
                   help="allow the best-effort n=10 run (11.7M graphs; "
                        "measured with the compiled kernels and --jobs 2 on "
                        "a 2-vCPU VM: 215-235 s, peak 533-537 MB in the main "
                        "process and 475-479 MB in each worker; hours with "
                        "the pure-Python kernels)")
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("query", help="filter a census store")
    p.add_argument("store", help="store path")
    p.add_argument("predicates", nargs="*",
                   help="field=value filters, e.g. n=9 mult_minus1=5 diam<=2 "
                        "family=K6v3K1")
    p.add_argument("--mates", action="store_true",
                   help="also list cospectral mates of every match")
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", help=f"one of {', '.join(suites.ALL_SUITES)}, "
                                 "or 'all'")
    p.add_argument("--n", type=int, nargs="*", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=_positive_int, default=None)
    p.add_argument("--jobs", type=_positive_int, default=1, help=JOBS_HELP)
    p.add_argument("--format", choices=("text", "json"), default="text")
    return parser


def _cmd_ecc(args):
    g = _load_graph(args.graph)
    e = ecc_matrix(g)
    if args.format == "json":
        print(json.dumps({"n": g.n, "matrix": [list(r) for r in e.rows]}))
    else:
        for row in e.rows:
            print(" ".join(str(x) for x in row))
    return 0


def _cmd_charpoly(args):
    g = _load_graph(args.graph)
    poly = acharpoly(g)
    if args.format == "json":
        print(json.dumps({"n": g.n,
                          "charpoly_descending": poly.descending_csv()}))
    else:
        print(poly.descending_csv())
    return 0


def _cmd_mult(args):
    g = _load_graph(args.graph)
    try:
        # Fraction expands a decimal exponent digit by digit, so 1e1000000000
        # would not return: no exponent is read at all
        if "e" in args.xi.lower():
            raise ValueError("exponent")
        xi = Fraction(args.xi)
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"xi {args.xi!r} must be a rational number written "
                         "as an integer, p/q or a decimal, e.g. -1, 3/2 or "
                         "0.25, without an exponent")
    m = multiplicity(g, xi)
    if args.format == "json":
        print(json.dumps({"xi": str(xi), "multiplicity": m}))
    else:
        print(m)
    return 0


def _cmd_hl(args):
    g = _load_graph(args.graph)
    if args.format == "json":
        print(json.dumps(spectrum_summary(g).to_dict()))
    else:
        iv = hl_index(g)
        print(str(iv.lo) if iv.is_point() else f"[{iv.lo}, {iv.hi}]")
    return 0


def _cmd_family(args):
    build, params = _parse_family(args.id)
    try:
        text = graph6_encode(build(*params)).decode("ascii")
    except ValueError as exc:
        raise UsageError(f"cannot build family {args.id!r}: {exc}")
    print(text)
    return 0


def _cmd_census(args):
    store = args.store or os.environ.get(STORE_ENV)
    if not 1 <= args.n <= census_mod.ENUMERATION_LIMIT:
        raise UsageError("the census supports orders 1 <= n <= "
                         f"{census_mod.ENUMERATION_LIMIT}, got {args.n}")
    if args.n >= census_mod.ENUMERATION_LIMIT and not args.big:
        raise UsageError("the n=10 census is best-effort (11.7M graphs); "
                         "pass --big to run it")
    by_mult = {}

    def tallied(records):
        for rec in records:
            by_mult[rec.mult_minus1] = by_mult.get(rec.mult_minus1, 0) + 1
            yield rec

    records = tallied(census_mod.iter_records(args.n, args.jobs))
    if store is not None:
        census_mod.write_store(records, store)
    else:
        for _ in records:
            pass
    graphs = sum(by_mult.values())
    if args.format == "json":
        print(json.dumps({"n": args.n, "graphs": graphs,
                          "store": store,
                          "mult_minus1_histogram": by_mult}))
    else:
        print(f"n={args.n}: {graphs} connected graphs"
              + (f" -> {store}" if store else ""))
        for m in sorted(by_mult, reverse=True):
            print(f"  m(-1)={m}: {by_mult[m]} graphs")
    return 0


def _cmd_query(args):
    store = args.store
    if not os.path.exists(store):
        raise UsageError(f"census store {store!r} does not exist")
    try:
        records = census_mod.read_store(store)
    except ValueError as exc:
        raise UsageError(str(exc))
    preds = _parse_predicates(args.predicates)
    hits = [r for r in records if _match(r, preds)]
    if args.mates:
        # one pass groups the store by charpoly, in store order, so each
        # match looks for its mates among its own group only
        by_charpoly = {}
        for rec in records:
            by_charpoly.setdefault(rec.charpoly, []).append(rec)
    out = []
    for rec in hits:
        item = {"canon": rec.canon, "n": rec.n, "diam": rec.diam,
                "v1_size": rec.v1_size, "mult_minus1": rec.mult_minus1,
                "mult_minus2": rec.mult_minus2, "mult_zero": rec.mult_zero,
                "family_tags": list(rec.family_tags)}
        if args.mates:
            item["cospectral_mates"] = [
                m.canon for m in census_mod.cospectral_mates(
                    by_charpoly[rec.charpoly], rec)]
        out.append(item)
    if args.format == "json":
        print(json.dumps({"matches": out}))
    else:
        for item in out:
            line = (f"{item['canon']}  n={item['n']} diam={item['diam']} "
                    f"v1={item['v1_size']} m(-1)={item['mult_minus1']} "
                    f"m(-2)={item['mult_minus2']} m(0)={item['mult_zero']}")
            if item["family_tags"]:
                line += "  [" + ",".join(item["family_tags"]) + "]"
            if args.mates:
                line += f"  mates={item['cospectral_mates']}"
            print(line)
    return 0


def _cmd_verify(args):
    names = list(suites.ALL_SUITES) if args.suite == "all" else [args.suite]
    for name in names:
        if name not in suites.ALL_SUITES:
            raise UsageError(f"unknown suite {name!r}; expected one of "
                             f"{', '.join(suites.ALL_SUITES)} or 'all'")
        try:
            suites.check_args(name, args.n)
        except ValueError as exc:
            raise UsageError(f"{name}: {exc}")
    reports = suites.run_suites(names, n_values=args.n, seed=args.seed,
                                trials=args.trials, jobs=args.jobs)
    if args.format == "json":
        print(json.dumps([r.to_dict() for r in reports], indent=2,
                         sort_keys=True))
    else:
        for rep in reports:
            print(rep.text_summary())
    return 0 if all(r.passed for r in reports) else 1


def cli_main(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    handlers = {
        "ecc": _cmd_ecc,
        "charpoly": _cmd_charpoly,
        "mult": _cmd_mult,
        "hl": _cmd_hl,
        "family": _cmd_family,
        "census": _cmd_census,
        "query": _cmd_query,
        "verify": _cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
