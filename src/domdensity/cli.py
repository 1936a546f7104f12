"""Command-line surface: gamma, check-vizing, scan, thresholds, transform.

Exit statuses: 0 success (including "criterion not applicable" and
"hypothesis not met"), 2 input error, 3 capacity, 4 a finding (a checked
bound or implication failed, the scientifically interesting outcome).
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import chain
from pathlib import Path

from .criteria import (
    REFERENCE_NK,
    bipartition_upper_bound,
    build_threshold_table,
    degree_lower_bound,
    imbalance_criterion,
    threshold_condition,
)
from .density import density_vizing_check
from .domination import GammaCache, check_vizing, gamma_exact, gamma_value
from .enumeration import (
    SCAN_RECORD_FIELDS,
    BiadjacencyMatrix,
    # Unused here: bench/test_bench.py::test_traced_generator_and_rebinding
    # checks that the tracer rebinds it in this namespace.
    canonical_key,  # noqa: F401
    class_record,
    encode_key,
    enumerate_kreg,
    record_findings,
    to_graph,
)
from .errors import CapacityError, FindingError, ParseError, PreconditionError
from .graphs import (
    Graph,
    bipartition,
    bit_list,
    check_order,
    from_edges,
    is_connected,
    max_degree,
    parse_graph6,
)
from .transform import (
    constructive_inequality_check,
    evaluate_hypothesis,
    iterate_leaves,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CAPACITY = 3
EXIT_FINDING = 4


# ---------------------------------------------------------------------------
# input loading
# ---------------------------------------------------------------------------

def load_graph_text(text: str) -> Graph:
    """A graph in the format its content shows, once '#' comments and blank
    lines are dropped: rows of 0/1 (a biadjacency matrix), two fields on the
    first line (an edge list of 0-indexed "u v" pairs), or else graph6,
    which is one line.  Errors name the line number in the text."""
    numbered = [(i, line) for i, raw in enumerate(text.splitlines(), 1)
                if (line := raw.split("#", 1)[0].strip())]
    lines = [line for _, line in numbered]
    if not lines:
        raise ParseError("the input holds no graph")
    if all(set(line) <= {"0", "1"} for line in lines):
        n = len(lines[0])
        if any(len(line) != n for line in lines) or len(lines) != n:
            raise ParseError(f"matrix is not square ({len(lines)} rows, width {n})")
        check_order(2 * n)
        # Character j of a row is column j, bit j of its mask.
        rows = tuple(int(line[::-1], 2) for line in lines)
        return to_graph(BiadjacencyMatrix(n, rows[0].bit_count(), rows)).graph
    if len(lines[0].split()) == 2:
        edges = []
        for lineno, line in numbered:
            parts = line.split()
            if len(parts) != 2:
                raise ParseError(f"line {lineno}: expected 'u v'", offset=lineno)
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError:
                raise ParseError(f"line {lineno}: non-integer vertex", offset=lineno) from None
            if u < 0 or v < 0:
                raise ParseError(f"line {lineno}: negative vertex index", offset=lineno)
            if u == v:
                raise ParseError(f"line {lineno}: self-loop {u}-{v}", offset=lineno)
            edges.append((u, v))
        n = max(map(max, edges)) + 1
        check_order(n)
        return from_edges(n, edges)
    g = parse_graph6(lines[0])
    if len(lines) > 1:
        lineno = numbered[1][0]
        raise ParseError(f"line {lineno}: a second graph; graph6 input holds one",
                         offset=lineno)
    return g


def _load_graph(path: str) -> Graph:
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    try:
        return load_graph_text(text)
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from None
    except CapacityError as exc:
        raise CapacityError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def _flatten(record: dict) -> dict:
    out = {}
    for key, value in record.items():
        if isinstance(value, dict):
            for sub, sv in value.items():
                out[f"{key}.{sub}"] = sv
        elif isinstance(value, (list, tuple)):
            out[key] = " ".join(str(x) for x in value)
        else:
            out[key] = value
    return out


def _emit_records(records: list[dict], fmt: str, out) -> None:
    if fmt == "json":
        for record in records:
            out.write(json.dumps(record, sort_keys=True) + "\n")
    elif fmt == "csv":
        import csv  # only here and in cmd_scan: slow to load at start-up

        flat = [_flatten(r) for r in records]
        columns: list[str] = []
        for row in flat:
            for col in row:
                if col not in columns:
                    columns.append(col)
        writer = csv.DictWriter(out, fieldnames=columns, restval="")
        writer.writeheader()
        writer.writerows(flat)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_gamma(args) -> int:
    g = _load_graph(args.input)
    cache = GammaCache(args.cache) if args.cache else None
    gamma, witness = gamma_exact(g, cache)
    record = {
        "n": g.n,
        "gamma": gamma,
        "witness": bit_list(witness),
        "degree_lower_bound": degree_lower_bound(g),
        "connected": is_connected(g),
    }
    bg = bipartition(g)
    if bg is not None and bg.size_a > 0:
        record["bipartite"] = True
        record["side_a"] = bg.size_a
        record["side_b"] = bg.size_b
        try:
            record["bipartition_upper_bound"] = bipartition_upper_bound(bg)
        except PreconditionError:
            pass
    else:
        record["bipartite"] = bg is not None
    if args.format == "text":
        print(f"gamma = {gamma}")
        print(f"witness = {record['witness']}")
        print(f"degree lower bound = {record['degree_lower_bound']}")
        if record.get("bipartition_upper_bound") is not None:
            print(f"bipartition upper bound = {record['bipartition_upper_bound']}")
    else:
        _emit_records([record], args.format, sys.stdout)
    return EXIT_OK


def _regular_degree(g: Graph) -> int | None:
    degrees = {g.degree(v) for v in range(g.n)}
    return degrees.pop() if len(degrees) == 1 else None


def cmd_check_vizing(args) -> int:
    g = _load_graph(args.g)
    h = _load_graph(args.h)
    cache = GammaCache(args.cache) if args.cache else None
    report = check_vizing(g, h, cache)
    density_ok = density_vizing_check(g, h, report)

    criteria: list[dict] = []
    bg, bh = bipartition(g), bipartition(h)
    if bg is not None and bh is not None and bg.size_a > 0 and bh.size_a > 0:
        criteria.append(imbalance_criterion(bg, bh).to_json())
    else:
        # Side A is empty exactly when a graph has no edges.
        why = "is not bipartite" if bg is None or bh is None else "has no edges"
        criteria.append({"name": "imbalance", "satisfied": None,
                         "note": f"not applicable: a factor {why}"})
    kg, kh = _regular_degree(g), _regular_degree(h)
    balanced = (bg is not None and bh is not None
                and bg.size_a == bg.size_b and bh.size_a == bh.size_b)
    if balanced and kg is not None and kg == kh and kg >= 1:
        criteria.append(threshold_condition(kg, bg.size_a, bh.size_a).to_json())
    else:
        criteria.append({"name": "k-regular-threshold", "satisfied": None,
                         "note": "not applicable: factors are not balanced"
                                 " k-regular bipartite with a common k"})

    # Literature regimes, recorded as metadata flags rather than recomputed.
    literature = {
        "gamma_le_3": min(report.gamma_g, report.gamma_h) <= 3,
        "regular_k_le_3_or_ge_27": any(
            kk is not None and (kk <= 3 or kk >= 27) for kk in (kg, kh)),
    }

    record = {
        "gamma_g": report.gamma_g,
        "gamma_h": report.gamma_h,
        "gamma_product": report.gamma_product,
        "holds": report.holds,
        "density_form_holds": density_ok,
        "witness_g": bit_list(report.witness_g),
        "witness_h": bit_list(report.witness_h),
        "witness_product": bit_list(report.witness_product),
        "criteria": criteria,
        "literature": literature,
    }
    if args.format == "text":
        print(f"gamma(G) = {report.gamma_g}, gamma(H) = {report.gamma_h}, "
              f"gamma(G box H) = {report.gamma_product}")
        print(f"inequality holds: {report.holds} (density form: {density_ok})")
        for c in criteria:
            state = c.get("satisfied")
            label = {True: "satisfied", False: "not satisfied", None: "n/a"}[state]
            extra = f" [{c['note']}]" if c.get("note") else ""
            if state is None:
                print(f"criterion {c['name']}: {label}{extra}")
            else:
                print(f"criterion {c['name']}: {label} "
                      f"(lhs {c['lhs']}, rhs {c['rhs']}){extra}")
        print(f"literature flags: {literature}")
    else:
        if args.format == "csv":
            record = {k: v for k, v in record.items() if k != "criteria"}
        _emit_records([record], args.format, sys.stdout)
    if not report.holds:
        print("FINDING: product inequality violated", file=sys.stderr)
        return EXIT_FINDING
    return EXIT_OK


def cmd_scan(args) -> int:
    # enumerate_kreg checks the cell when its first class is asked for, and
    # every valid cell has one: a refused cell leaves --output as it was.
    generated = enumerate_kreg(args.n, args.k)
    first = next(generated)
    out = open(args.output, "w") if args.output else sys.stdout
    try:
        if args.format == "csv":
            import csv

            table = csv.DictWriter(out, fieldnames=SCAN_RECORD_FIELDS)
            table.writeheader()

            def write(r):
                table.writerow(_flatten(r))
        elif args.format == "text":
            def write(r):
                print(f"{r['key']}  gamma={r['gamma']}  conj={r['conj_bound']}  "
                      f"order={r['order_bound']}  case={r['case']}  "
                      f"rank={r['rank']}  cover={r['cover_exists']}  "
                      f"connected={r['connected']}", file=out)
        else:
            def write(r):
                out.write(json.dumps(r, sort_keys=True) + "\n")

        # enumerate_kreg yields the representatives in key order.  Each record
        # is on disk before the next class is generated, so a killed scan
        # keeps every finished record; the same command run again writes the
        # bytes of an uninterrupted run.
        classes, max_gamma, findings = 0, 0, []
        for m in chain([first], generated):
            record = class_record(m, encode_key(m.n, m.k, m.rows))
            write(record)
            out.flush()
            classes += 1
            max_gamma = max(max_gamma, record["gamma"])
            findings += record_findings(record)

        summary = {"type": "summary", "n": args.n, "k": args.k, "classes": classes,
                   "max_gamma": max_gamma, "findings": len(findings)}
        if args.format == "csv":
            print(json.dumps(summary, sort_keys=True), file=sys.stderr)
        elif args.format == "text":
            print(f"classes={classes} max_gamma={max_gamma} "
                  f"findings={len(findings)}", file=out)
        else:
            write(summary)
        for f in findings:
            print(f"FINDING: {json.dumps(f.to_json(), sort_keys=True)}", file=sys.stderr)
        return EXIT_FINDING if findings else EXIT_OK
    finally:
        if out is not sys.stdout:
            out.close()


def cmd_thresholds(args) -> int:
    records = []
    for entry in build_threshold_table(args.kmax):
        reference = REFERENCE_NK.get(entry.k)
        record = {
            "k": entry.k,
            "n_threshold": entry.n_min,
            "boundary": entry.boundary,
            # The condition only loosens as n grows, so N(k) = k means
            # that every n >= k satisfies it.
            "auto_regime": entry.n_min == entry.k,
        }
        if args.paper_table:
            record["reference"] = reference
        if reference is not None and reference != entry.n_min:
            record["differs_from_reference"] = reference
        records.append(record)
    if args.format == "text":
        for r in records:
            parts = [f"k={r['k']:>3}", f"N(k)={r['n_threshold']:>4}"]
            if r["boundary"]:
                parts.append("boundary(equality)")
            if r.get("differs_from_reference") is not None:
                parts.append(f"reference={r['differs_from_reference']}")
            elif args.paper_table:
                parts.append(f"reference={r.get('reference')}")
            if r["auto_regime"]:
                parts.append("auto (holds for every n >= k)")
            print("  ".join(parts))
    else:
        _emit_records(records, args.format, sys.stdout)
    return EXIT_OK


def cmd_transform(args) -> int:
    if args.delta_h is not None and args.delta_h < 0:
        raise ParseError(f"--delta-h must be at least 0, not {args.delta_h}")
    if [args.rho_h, args.delta_h].count(None) != (2 if args.h else 0):
        raise ParseError("need either --h FILE or both --rho-h and --delta-h")
    from fractions import Fraction  # only here: scan and gamma build none

    if not args.h:
        delta_h = args.delta_h
        try:
            rho_h = Fraction(args.rho_h)
        except ZeroDivisionError:
            raise ParseError(f"--rho-h {args.rho_h} has a zero denominator") from None
        except ValueError:
            raise ParseError(f"--rho-h {args.rho_h} is not a fraction p/q") from None
        # gamma / n lies in (0, 1] for every graph.
        if not 0 < rho_h <= 1:
            raise ParseError(f"--rho-h must lie in (0, 1], not {args.rho_h}")
    g = _load_graph(args.input)
    bg = bipartition(g)
    if bg is None:
        raise ParseError("transform input must be bipartite")
    cache = GammaCache(args.cache) if args.cache else None
    if args.h:
        h = _load_graph(args.h)
        delta_h = max_degree(h)
        gamma_h = gamma_value(h, cache)
        rho_h = Fraction(gamma_h, h.n)
    hyp = evaluate_hypothesis(bg, rho_h, cache)
    # The trace refuses a last round above the vertex cap before anything is
    # solved, so it runs before the product solve of the constructive check.
    t = iterate_leaves(bg, delta_h, hyp, cache)._asdict()
    record = {"trace": t}
    if args.h:
        record["constructive"] = constructive_inequality_check(
            bg, h, gamma_h, hyp, cache)._asdict()
    if args.format == "text":
        if not t["hypothesis_met"]:
            print("hypothesis not met: no minimum dominating set yields a"
                  " usable side proportion")
            if t["equality_flagged"]:
                print("note: a side met the proportion gate exactly, but no"
                      " strict escalation subset exists")
        else:
            print(f"side X = {t['side_x']}, m* = {t['m_star']}, "
                  f"round bound = {t['round_bound']}")
            for rnd in t["rounds"]:
                print(f"round {rnd['round']}: n={rnd['size_a'] + rnd['size_b']} "
                      f"delta={rnd['delta']} lhs={rnd['criterion_lhs']} "
                      f"rhs={rnd['criterion_rhs']} "
                      f"satisfied={rnd['criterion_satisfied']} gamma={rnd['gamma']}")
            print(f"satisfied: {t['satisfied']} at round {t['final_round']}")
        if args.h:
            c = record["constructive"]
            if c["applicable"]:
                print(f"constructive: gamma(GxH)={c['gamma_product']} + "
                      f"m*({c['m_star']}) * |V(H)|({c['order_h']}) = {c['lhs']} "
                      f">= {c['rhs']} = gamma(G) gamma(H): {c['holds']}")
            else:
                print("constructive: hypothesis not met")
    else:
        _emit_records([record], args.format, sys.stdout)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser and dispatch
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="domdensity",
        description="Exact domination numbers, density inequalities, and"
                    " k-regular bipartite scans.")
    sub = parser.add_subparsers(dest="command", required=True)

    tabular = argparse.ArgumentParser(add_help=False)
    tabular.add_argument("--format", choices=("json", "csv", "text"), default="text")
    cached = argparse.ArgumentParser(add_help=False)
    cached.add_argument("--cache", help="path of the persistent gamma cache log")

    p = sub.add_parser("gamma", parents=[tabular, cached],
                       help="exact domination number with bounds")
    p.add_argument("input")
    p.set_defaults(func=cmd_gamma)

    p = sub.add_parser("check-vizing", parents=[tabular, cached],
                       help="product inequality plus every applicable criterion")
    p.add_argument("g")
    p.add_argument("h")
    p.set_defaults(func=cmd_check_vizing)

    p = sub.add_parser("scan", parents=[tabular],
                       help="exhaustive k-regular bipartite class scan")
    p.add_argument("n", type=int)
    p.add_argument("k", type=int)
    p.add_argument("--output", help="write the records here, not to stdout")
    p.set_defaults(func=cmd_scan)

    # --cache is not read: the products-warm benchmark passes it to every command.
    p = sub.add_parser("thresholds", parents=[tabular, cached],
                       help="balanced-order thresholds N(k)")
    p.add_argument("kmax", type=int)
    p.add_argument("--paper-table", action="store_true",
                   help="print published reference values alongside computed ones")
    p.set_defaults(func=cmd_thresholds)

    p = sub.add_parser("transform", parents=[cached],
                       help="iterated leaf attachment trace")
    # Trace rounds are a list of records, which a csv cell cannot hold.
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.add_argument("input")
    p.add_argument("--h", help="partner graph file (enables the product check)")
    p.add_argument("--rho-h", help="partner density as p/q (without --h)")
    p.add_argument("--delta-h", type=int, help="partner maximum degree (without --h)")
    p.set_defaults(func=cmd_transform)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        # ParseError and PreconditionError are ValueErrors; an OSError is a
        # path that cannot be read or written (--output, --cache).
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except CapacityError as exc:
        print(f"capacity: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except FindingError as exc:
        print(f"FINDING: {exc}", file=sys.stderr)
        if exc.record:
            print(json.dumps(exc.record, sort_keys=True), file=sys.stderr)
        return EXIT_FINDING


if __name__ == "__main__":
    sys.exit(main())
