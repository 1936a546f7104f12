"""Command-line surface: gamma, check-vizing, scan, thresholds, transform.

Exit statuses: 0 success (including "criterion not applicable" and
"hypothesis not met"), 2 input error, 3 capacity, 4 a finding (a checked
bound or implication failed, the scientifically interesting outcome).

Every flag has an environment override with the DOMDENSITY_ prefix
(DOMDENSITY_FORMAT, DOMDENSITY_CACHE, DOMDENSITY_JOBS,
DOMDENSITY_MAX_VERTICES, DOMDENSITY_ALLOW_LARGE, DOMDENSITY_PAPER_TABLE).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import fields
from fractions import Fraction
from pathlib import Path

from .criteria import (
    REFERENCE_NK,
    bipartition_upper_bound,
    build_threshold_table,
    degree_lower_bound,
    imbalance_criterion,
    threshold_condition,
)
from .density import density_vizing_check, rho
from .domination import GammaCache, check_vizing, gamma_exact
from .enumeration import (
    BiadjacencyMatrix,
    Finding,
    ScanRecord,
    canonical_key,  # noqa: F401  (kept in this namespace; bench/tracing.py wraps it here)
    class_record,
    encode_key,
    enumerate_kreg,
    parse_biadjacency,
    record_findings,
    to_graph,
)
from .errors import CapacityError, FindingError, ParseError, PreconditionError
from .graphs import (
    DEFAULT_MAX_PRODUCT_VERTICES,
    Graph,
    bipartition,
    is_connected,
    max_degree,
    parse_edge_list,
    parse_graph6,
)
from .rankcheck import ObstructionReport, obstruction_report
from .transform import constructive_inequality_check, iterate_leaves

ENV_PREFIX = "DOMDENSITY_"

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CAPACITY = 3
EXIT_FINDING = 4


def _env(name: str, fallback=None):
    return os.environ.get(ENV_PREFIX + name, fallback)


def _env_flag(name: str) -> bool:
    return (_env(name) or "").lower() in {"1", "true", "yes", "on"}


# ---------------------------------------------------------------------------
# input loading
# ---------------------------------------------------------------------------

def load_graph_text(text: str, fmt: str = "auto") -> Graph:
    if fmt == "auto":
        content = [ln.split("#", 1)[0].strip() for ln in text.splitlines()]
        content = [ln for ln in content if ln]
        if content and all(set(ln) <= {"0", "1"} for ln in content):
            fmt = "biadjacency"
        elif content and len(content[0].split()) == 2:
            fmt = "edgelist"
        else:
            fmt = "graph6"
    if fmt == "biadjacency":
        return to_graph(parse_biadjacency(text)).graph
    if fmt == "edgelist":
        return parse_edge_list(text)
    if fmt == "graph6":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise ParseError("empty graph6 input")
        return parse_graph6(lines[0])
    raise ParseError(f"unknown input format {fmt!r}")


def _load_graph(path: str, fmt: str) -> Graph:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    return load_graph_text(text, fmt)


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
        flat = [_flatten(r) for r in records]
        columns: list[str] = []
        for row in flat:
            for col in row:
                if col not in columns:
                    columns.append(col)
        writer = csv.DictWriter(out, fieldnames=columns, restval="")
        writer.writeheader()
        writer.writerows(flat)
    else:
        raise ValueError(f"unknown format {fmt!r}")


def _frac(fr: Fraction) -> str:
    return f"{fr.numerator}/{fr.denominator}"


def _frac_line(label: str, fr: Fraction) -> str:
    return f"{label} = {_frac(fr)} (~{float(fr):.6g})"


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_gamma(args) -> int:
    g = _load_graph(args.input, args.input_format)
    cache = GammaCache(args.cache) if args.cache else None
    gamma, witness = gamma_exact(g, cache)
    record = {
        "n": g.n,
        "gamma": gamma,
        "witness": witness.members(),
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
        print(f"witness = {witness.members()}")
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
    g = _load_graph(args.g, args.input_format)
    h = _load_graph(args.h, args.input_format)
    cache = GammaCache(args.cache) if args.cache else None
    report = check_vizing(g, h, cache, args.max_vertices)
    density_ok = density_vizing_check(g, h, cache, args.max_vertices)

    criteria: list[dict] = []
    bg, bh = bipartition(g), bipartition(h)
    if bg is not None and bh is not None and bg.size_a > 0 and bh.size_a > 0:
        criteria.append(imbalance_criterion(bg, bh).to_json())
    else:
        criteria.append({"name": "imbalance", "satisfied": None,
                         "note": "not applicable: a factor is not bipartite"})
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
        "witness_g": report.witness_g.members(),
        "witness_h": report.witness_h.members(),
        "witness_product": report.witness_product.members(),
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


# Fields every class record of a scan output carries.
SCAN_RECORD_FIELDS = [f.name for f in fields(ScanRecord) + fields(ObstructionReport)]


def _evaluate_class(m: BiadjacencyMatrix, key: str, cache=None) -> dict:
    record, _ = class_record(m, cache, key=key)
    return {**record.to_json(), **obstruction_report(m).to_json()}


def _scan_worker(payload):
    n, k, rows, key = payload
    return _evaluate_class(BiadjacencyMatrix(n, k, rows), key)


def _class_findings(m: BiadjacencyMatrix, record: dict) -> list[Finding]:
    """Findings of one class, rebuilt from its scan output record."""
    findings = record_findings(m, record)
    if record["full_rank"] and record["cover_exists"]:
        detail = {"rank": record["rank"], "m_rows": record["m_rows"]}
        if record["k"] == 1:
            detail["note"] = ("degenerate 1-regular family: the"
                              " obstruction argument needs k >= 2")
        findings.append(Finding("obstruction", record["key"], detail))
    return findings


def _scanned_records(path: str) -> dict[str, dict]:
    """Class records already written to a JSON-lines scan output, by key.

    A final line without its newline is the torn write of a killed run; it
    is cut off the file, so the resumed run scans that class again and
    appends its record on a line of its own.
    """
    try:
        data = Path(path).read_bytes()
    except FileNotFoundError:
        return {}
    complete = data[:data.rfind(b"\n") + 1]
    if len(complete) < len(data):
        os.truncate(path, len(complete))
    records = {}
    for line in complete.decode(errors="replace").splitlines():
        try:
            obj = json.loads(line)
        except json.JSONDecodeError:
            continue
        if not isinstance(obj, dict) or "key" not in obj:
            continue
        missing = [f for f in SCAN_RECORD_FIELDS if f not in obj]
        if missing:
            raise ParseError(f"{path}: record {obj['key']!r} lacks {', '.join(missing)}")
        records[obj["key"]] = obj
    return records


def cmd_scan(args) -> int:
    if args.resume and (not args.output or args.format != "json"):
        raise ParseError("--resume needs --output and --format json")
    done = _scanned_records(args.output) if args.resume else {}
    cache = GammaCache(args.cache) if args.cache else None
    out = open(args.output, "a" if args.resume else "w") if args.output else sys.stdout
    try:
        classes = [(m, encode_key(m.n, m.k, m.rows))
                   for m in enumerate_kreg(args.n, args.k, args.allow_large)]
        classes.sort(key=lambda t: t[1])
        todo = [(m, key) for m, key in classes if key not in done]
        if args.jobs > 1:
            payloads = [(args.n, args.k, m.rows, key) for m, key in todo]
            with ProcessPoolExecutor(max_workers=args.jobs) as pool:
                records = list(pool.map(_scan_worker, payloads))
        else:
            records = [_evaluate_class(m, key, cache) for m, key in todo]

        # The summary and the exit status cover the whole cell: records a
        # resumed run found in --output count as if scanned now.
        scanned = {**done, **{r["key"]: r for r in records}}
        cell = [scanned[key] for _, key in classes]
        all_findings = [f for m, key in classes
                        for f in _class_findings(m, scanned[key])]
        summary = {
            "type": "summary",
            "n": args.n,
            "k": args.k,
            "classes": len(cell),
            "max_gamma": max((r["gamma"] for r in cell), default=0),
            "findings": len(all_findings),
        }
        if args.format == "csv":
            _emit_records(records, "csv", out)
            print(json.dumps(summary, sort_keys=True), file=sys.stderr)
        elif args.format == "text":
            for r in records:
                print(f"{r['key']}  gamma={r['gamma']}  conj={r['conj_bound']}  "
                      f"order={r['order_bound']}  case={r['case']}  "
                      f"rank={r['rank']}  cover={r['cover_exists']}  "
                      f"connected={r['connected']}", file=out)
            print(f"classes={summary['classes']} max_gamma={summary['max_gamma']} "
                  f"findings={summary['findings']}", file=out)
        else:
            _emit_records(records + [summary], "json", out)
        if all_findings:
            for f in all_findings:
                print(f"FINDING: {json.dumps(f.to_json(), sort_keys=True)}",
                      file=sys.stderr)
            return EXIT_FINDING
        return EXIT_OK
    finally:
        if out is not sys.stdout:
            out.close()


def cmd_thresholds(args) -> int:
    table = build_threshold_table(args.kmax)
    records = []
    for k in sorted(table.entries):
        entry = table.entries[k]
        reference = REFERENCE_NK.get(k)
        record = {
            "k": k,
            "n_threshold": entry.n_min,
            "boundary": entry.boundary,
            "auto_regime": table.auto_regime is not None and k >= table.auto_regime,
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
    g = _load_graph(args.input, args.input_format)
    bg = bipartition(g)
    if bg is None:
        raise ParseError("transform input must be bipartite")
    cache = GammaCache(args.cache) if args.cache else None
    if args.h:
        h = _load_graph(args.h, args.input_format)
        rho_h = rho(h, cache).value
        delta_h = max_degree(h)
        constructive = constructive_inequality_check(bg, h, cache, args.max_vertices)
    else:
        if args.rho_h is None or args.delta_h is None:
            raise ParseError("need either --h FILE or both --rho-h and --delta-h")
        rho_h = Fraction(args.rho_h)
        delta_h = args.delta_h
        constructive = None
    trace = iterate_leaves(bg, delta_h, rho_h, args.max_rounds, cache)
    record = {"trace": trace.to_json()}
    if constructive is not None:
        record["constructive"] = constructive.to_json()
    if args.format == "text":
        t = trace
        if not t.hypothesis.usable:
            print("hypothesis not met: no minimum dominating set yields a"
                  " usable side proportion")
            if t.hypothesis.equality_flagged:
                print("note: a side met the proportion gate exactly, but no"
                      " strict escalation subset exists")
        else:
            print(f"side X = {t.side_x}, m* = {t.m_star}, "
                  f"round bound = {t.round_bound}")
            for rnd in t.rounds:
                print(f"round {rnd.index}: n={rnd.size_a + rnd.size_b} "
                      f"delta={rnd.delta} lhs={_frac(rnd.verdict.lhs)} "
                      f"rhs={_frac(rnd.verdict.rhs)} "
                      f"satisfied={rnd.verdict.satisfied} gamma={rnd.gamma}")
            print(f"satisfied: {t.satisfied} at round {t.final_round}")
        if constructive is not None:
            c = constructive
            if c.applicable:
                print(f"constructive: gamma(GxH)={c.gamma_product} + "
                      f"m*({c.m_star}) * |V(H)|({c.order_h}) = {c.lhs} "
                      f">= {c.rhs} = gamma(G) gamma(H): {c.holds}")
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

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "csv", "text"),
                        default=_env("FORMAT", "text"))
    common.add_argument("--cache", default=_env("CACHE"),
                        help="path of the persistent gamma cache log")
    common.add_argument("--max-vertices", type=int,
                        default=int(_env("MAX_VERTICES", DEFAULT_MAX_PRODUCT_VERTICES)))
    common.add_argument("--input-format", choices=("auto", "graph6", "edgelist",
                                                   "biadjacency"), default="auto")

    p = sub.add_parser("gamma", parents=[common],
                       help="exact domination number with bounds")
    p.add_argument("input")
    p.set_defaults(func=cmd_gamma)

    p = sub.add_parser("check-vizing", parents=[common],
                       help="product inequality plus every applicable criterion")
    p.add_argument("g")
    p.add_argument("h")
    p.set_defaults(func=cmd_check_vizing)

    p = sub.add_parser("scan", parents=[common],
                       help="exhaustive k-regular bipartite class scan")
    p.add_argument("n", type=int)
    p.add_argument("k", type=int)
    p.add_argument("--allow-large", action="store_true",
                   default=_env_flag("ALLOW_LARGE"))
    p.add_argument("--jobs", type=int, default=int(_env("JOBS", 1)))
    p.add_argument("--output", help="write JSON-lines records here")
    p.add_argument("--resume", action="store_true",
                   help="skip classes whose keys already appear in --output"
                        " (needs --format json)")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("thresholds", parents=[common],
                       help="balanced-order thresholds N(k)")
    p.add_argument("kmax", type=int)
    p.add_argument("--paper-table", action="store_true",
                   default=_env_flag("PAPER_TABLE"),
                   help="print published reference values alongside computed ones")
    p.set_defaults(func=cmd_thresholds)

    p = sub.add_parser("transform", parents=[common],
                       help="iterated leaf attachment trace")
    p.add_argument("input")
    p.add_argument("--h", help="partner graph file (enables the product check)")
    p.add_argument("--rho-h", help="partner density as p/q (without --h)")
    p.add_argument("--delta-h", type=int, help="partner maximum degree (without --h)")
    p.add_argument("--max-rounds", type=int, default=64)
    p.set_defaults(func=cmd_transform)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except PreconditionError as exc:
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
    except ValueError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
