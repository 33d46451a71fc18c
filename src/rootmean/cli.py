"""Command-line surface: table emission, relation discovery, verification,
numeric cross-checks, and sequence mining.

Exit codes: 0 success, 1 verification failure, 2 usage/config error,
3 internal numeric failure.  Every machine-readable artifact records the seed
it was produced with; fixed seed means byte-identical output regardless of
the worker-thread count.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor

from . import golden, mining, numeric, relations
from .means import PhiKey, phi, phi_table
from .powersums import power_sum_table

HARD_DEGREE_CAP = 30

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


class ConfigError(ValueError):
    pass


def worker_map(fn, items, threads: int):
    """Map preserving order; results do not depend on the thread count."""
    items = list(items)
    if threads <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def parse_rho_window(text: str):
    """'A..B' inclusive; also accepts a single integer."""
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            lo, hi = int(lo), int(hi)
        else:
            lo = hi = int(text)
    except ValueError:
        raise ConfigError(f"bad rho window {text!r}: expected 'A..B' or an integer") from None
    if lo > hi:
        raise ConfigError(f"empty rho window {text!r}")
    return range(lo, hi + 1)


def check_degree(D: int, args) -> None:
    """Cap D and D - delta, the degree of the averaged function (the weight of phi)."""
    if D < 2:
        raise ConfigError("degree must be >= 2")
    if getattr(args, "unsafe_degree", False):
        return
    if D > HARD_DEGREE_CAP:
        raise ConfigError(
            f"degree {D} above the cap {HARD_DEGREE_CAP}; pass --unsafe-degree to override"
        )
    delta = getattr(args, "delta", 0)
    if D - delta > HARD_DEGREE_CAP:
        raise ConfigError(
            f"value order {delta} averages a function of degree {D - delta}, above the cap "
            f"{HARD_DEGREE_CAP}; pass --unsafe-degree to override"
        )


def pretty_monomial(m) -> str:
    if not m.powers:
        return "1"
    bits = []
    for s, e in m.powers:
        base = f"r^[{s.order}]" if s.kind == "r" else f"c^[{s.order}]"
        bits.append(base if e == 1 else f"{base}^{e}")
    return " ".join(bits)


def pretty_poly(p) -> str:
    if p.is_zero():
        return "0"
    bits = []
    for m, c in p.terms():
        sign = "+" if c > 0 else "-"
        mag = c if c > 0 else -c
        body = f"{mag}" if not m.powers else f"{mag} {pretty_monomial(m)}"
        bits.append(f"{sign} {body}")
    out = " ".join(bits)
    return out[2:] if out.startswith("+ ") else "-" + out[2:]


def emit(args, payload: dict, pretty_lines, csv_rows=None, csv_header=None) -> None:
    out = sys.stdout
    close = False
    if getattr(args, "output", None):
        out = open(args.output, "w", encoding="utf-8")
        close = True
    try:
        if args.format == "json":
            json.dump(payload, out, indent=1, sort_keys=True)
            out.write("\n")
        elif args.format == "csv":
            buf = io.StringIO()
            writer = csv.writer(buf)
            if csv_header:
                writer.writerow(csv_header)
            for row in csv_rows or []:
                writer.writerow(row)
            out.write(buf.getvalue())
        else:
            for line in pretty_lines:
                out.write(line + "\n")
    finally:
        if close:
            out.close()


# ---------------------------------------------------------------------------
# subcommands

def cmd_gw(args) -> int:
    n, max_deg = args.n, args.max_deg
    if n < 1 or max_deg < 1:
        raise ConfigError("--n and --max-deg must be >= 1")
    check_degree(max(2, max_deg), args)
    table = power_sum_table(n, max_deg)
    payload = {
        "seed": args.seed,
        "n": n,
        "max_deg": max_deg,
        "rows": [
            {"j": j, "terms": p.to_json()["terms"], "sum_positive": str(s)}
            for j, p, s in table
        ],
    }
    pretty = [f"mean power sums over a family of {n}"]
    for j, p, s in table:
        pretty.append(f"  deg {j}: {pretty_poly(p)}   [sum+ {s}]")
    csv_rows = [
        (n, j, json.dumps(p.to_json()["terms"]), str(s)) for j, p, s in table
    ]
    emit(args, payload, pretty, csv_rows, ("n", "j", "terms", "sum_positive"))
    return EXIT_OK


def cmd_phi(args) -> int:
    D = args.D
    check_degree(D, args)
    if args.rho:
        window = list(parse_rho_window(args.rho))
    else:
        window = [D - n for n in range(1, 11)]  # the tables' printed range
    window = sorted(window, reverse=True)
    for r in window:
        if D - r < 1:
            raise ConfigError(f"rho={r} leaves an empty root family at D={D}")
    results = phi_table(D, args.delta, window)
    payload = {
        "seed": args.seed,
        "D": D,
        "delta": args.delta,
        "rows": [
            {
                "rho": res.key.rho,
                "n": res.family_size,
                "terms": res.poly.to_json()["terms"],
                "sum_positive": str(res.sum_positive),
                "flag": res.flag,
            }
            for res in results
        ],
    }
    pretty = [f"mean values, degree {D}, value order {args.delta}"]
    for res in results:
        pretty.append(
            f"  n={res.family_size:2d} rho={res.key.rho:3d}: {pretty_poly(res.poly)}   [sum+ {res.sum_positive}]"
        )
    csv_rows = [
        (D, args.delta, res.key.rho, res.family_size,
         json.dumps(res.poly.to_json()["terms"]), str(res.sum_positive))
        for res in results
    ]
    emit(args, payload, pretty, csv_rows, ("D", "delta", "rho", "n", "terms", "sum_positive"))
    return EXIT_OK


def cmd_relations(args) -> int:
    D = args.D
    check_degree(D, args)
    if args.rho:
        window = list(parse_rho_window(args.rho))
    else:
        window = list(range(1, D)) if not args.extended else list(range(-(D + 2), D))
    for r in window:
        if D - r < 1:
            raise ConfigError(f"rho={r} leaves an empty root family at D={D}")
    report = relations.find_relations(
        D, args.delta, window, minimal_support=args.minimal_support
    )
    payload = {"seed": args.seed, **report.to_json()}

    # cross-check the printed catalog for this (D, delta) inside the window
    catalog = [
        e for e in golden.catalog_relations()
        if e["D"] == D and e["delta"] == args.delta and set(e["alpha"]) <= set(window)
    ]
    failures = []
    for entry in catalog:
        try:
            relations.RelationVector.make(entry["D"], entry["delta"], entry["alpha"].items())
        except relations.RelationError:
            failures.append(entry)
    payload["catalog_checked"] = len(catalog)
    payload["catalog_failures"] = [
        {"alpha": {str(k): v for k, v in e["alpha"].items()}, "label": e.get("label")}
        for e in failures
    ]

    pretty = [
        f"relations at degree {D}, value order {args.delta}, window {window[0]}..{window[-1]}",
        f"  dimension: {report.dim}   zero-sum holds: {report.zero_sum_ok()}",
    ]
    for rel in report.basis:
        pretty.append(f"  basis: {rel}")
    for rel in report.minimal_support:
        pretty.append(f"  minimal: {rel}")
    if report.distinguished:
        pretty.append(f"  alternating-binomial: {report.distinguished}")
    if failures:
        pretty.append(f"  CATALOG FAILURES: {len(failures)}")
    csv_rows = [
        ("basis", json.dumps(list(rel.support)), json.dumps(list(rel.alpha)))
        for rel in report.basis
    ] + [
        ("minimal", json.dumps(list(rel.support)), json.dumps(list(rel.alpha)))
        for rel in report.minimal_support
    ]
    emit(args, payload, pretty, csv_rows, ("kind", "support", "alpha"))
    return EXIT_VERIFY_FAIL if failures else EXIT_OK


def _verify_dimension(args, payload, pretty):
    cap = args.max_degree
    threads = max(1, args.threads) if args.threads else os.cpu_count() or 1
    dims = worker_map(relations.relation_space_dim, range(2, cap + 1), threads)
    ok = True
    for D, dim in zip(range(2, cap + 1), dims):
        # one relation in even degrees past 2, a 2-dimensional family in odd
        # degrees past 3
        want = 0 if D == 2 else (1 if D % 2 == 0 else (1 if D == 3 else 2))
        row_ok = dim == want
        ok = ok and row_ok
        pretty.append(f"  D={D}: dim={dim} expected={want} {'ok' if row_ok else 'FAIL'}")
    payload["dims"] = dims
    return ok


def _verify_odd_binomial(args, payload, pretty):
    ok = True
    results = {}
    for D in range(3, args.max_degree + 1, 2):
        good = relations.check_odd_binomial(D)
        results[D] = good
        ok = ok and good
        pretty.append(f"  D={D}: {'ok' if good else 'FAIL'}")
    if not results:
        raise ConfigError(f"odd-binomial needs --max-degree >= 3, got {args.max_degree}")
    payload["odd_binomial"] = {str(k): v for k, v in results.items()}
    return ok


def _verify_inheritance(args, payload, pretty):
    ok = True
    chains = golden.inheritance_chains()
    details = {}
    for label, chain in sorted(chains.items()):
        chain_ok = True
        for idx, entry in enumerate(chain):
            rel = relations.RelationVector.make(entry["D"], entry["delta"], entry["alpha"].items())
            if idx + 1 < len(chain):
                nxt = chain[idx + 1]
                shifted = {r + 1: a for r, a in entry["alpha"].items()}
                chain_ok = chain_ok and relations.check_inheritance(rel)
                chain_ok = chain_ok and shifted == nxt["alpha"] and nxt["D"] == entry["D"] + 1
        details[label] = chain_ok
        ok = ok and chain_ok
        pretty.append(f"  chain {label} (length {len(chain)}): {'ok' if chain_ok else 'FAIL'}")
    payload["inheritance"] = details
    return ok


def _verify_prop4(args, payload, pretty):
    # averaged values over antiderivative families carry no integration constants
    ok = True
    checked = 0
    for D in range(2, args.max_degree + 1):
        for delta in range(0, D):
            for m in range(1, 4):
                poly = phi(PhiKey(D, delta, -m)).poly
                clean = all(s.kind == "r" for s in poly.symbols())
                checked += 1
                if not clean:
                    ok = False
                    pretty.append(f"  FAIL at D={D} delta={delta} m={m}")
    pretty.append(f"  constant-independence checked on {checked} keys: {'ok' if ok else 'FAIL'}")
    payload["prop4_checked"] = checked
    return ok


def _verify_prop5(args, payload, pretty):
    import math

    ok = True
    checked = 0
    for D in range(2, args.max_degree + 1):
        for delta in range(1, D - 1):  # D - delta >= 2
            lhs = phi(PhiKey(D, delta, 0)).poly
            scale = math.factorial(D) // math.factorial(D - delta)
            rhs = phi(PhiKey(D - delta, 0, -delta)).poly.scale(scale)
            checked += 1
            if lhs != rhs:
                ok = False
                pretty.append(f"  FAIL at D={D} delta={delta}")
    if not checked:
        raise ConfigError(f"prop5 needs --max-degree >= 3, got {args.max_degree}")
    pretty.append(f"  factorial-scaling identity checked on {checked} pairs: {'ok' if ok else 'FAIL'}")
    payload["prop5_checked"] = checked
    return ok


def _verify_tables(args, payload, pretty):
    report = golden.full_report()
    payload["tables"] = report.to_json()
    pretty.append(
        f"  table rows compared: {report.compared_rows}, exact: {report.matches}, "
        f"known typos: {len(report.discrepancies) - len(report.unexplained)}, "
        f"unexplained: {len(report.unexplained)}"
    )
    for d in report.unexplained:
        pretty.append("  " + d.describe())
    return report.clean


VERIFIERS = {
    "odd-binomial": _verify_odd_binomial,
    "inheritance": _verify_inheritance,
    "prop4": _verify_prop4,
    "prop5": _verify_prop5,
    "dimension": _verify_dimension,
    "tables": _verify_tables,
}


def cmd_verify(args) -> int:
    check_degree(args.max_degree, args)
    payload = {"seed": args.seed, "conjecture": args.conjecture, "max_degree": args.max_degree}
    pretty = [f"verify {args.conjecture} up to degree {args.max_degree}"]
    ok = VERIFIERS[args.conjecture](args, payload, pretty)
    payload["pass"] = ok
    pretty.append("PASS" if ok else "FAIL")
    emit(args, payload, pretty)
    return EXIT_OK if ok else EXIT_VERIFY_FAIL


def parse_relation_spec(text: str):
    """'alpha:rho,alpha:rho,...' e.g. '5:1,-6:2,1:3'."""
    mapping = {}
    for chunk in text.split(","):
        try:
            a, r = chunk.split(":")
            mapping[int(r)] = int(a)
        except ValueError:
            raise ConfigError(
                f"bad relation term {chunk!r} in {text!r}: expected 'alpha:rho'"
            ) from None
    return mapping


def cmd_numeric(args) -> int:
    payload = {"seed": args.seed, "tol": args.tol, "reports": []}
    pretty = []
    ok = True
    if args.samples < 0:
        raise ConfigError("--samples must be >= 0")
    if args.conjecture == "relative-rates":
        check_degree(args.max_degree, args)
        reports = [numeric.relative_rates_report(args.max_degree, args.samples, args.seed, args.tol)]
    elif args.conjecture == "translation":
        check_degree(args.max_degree, args)
        reports = [numeric.translation_invariance_report(args.max_degree, args.samples, args.seed, args.tol)]
    elif args.relation:
        if args.D is None:
            raise ConfigError("--relation needs --D")
        check_degree(args.D, args)
        mapping = parse_relation_spec(args.relation)
        for rho in mapping:
            try:
                PhiKey(args.D, args.delta, rho)
            except ValueError as exc:
                raise ConfigError(str(exc))
        reports = numeric.check_relations_batch(
            args.D, args.delta, [mapping], args.samples, args.seed, args.tol
        )
    elif args.auto:
        if args.D is None:
            raise ConfigError("--auto needs --D")
        check_degree(args.D, args)
        found = relations.find_relations(args.D, args.delta, minimal_support=False)
        reports = numeric.check_relations_batch(
            args.D, args.delta, found.all_relations(), args.samples, args.seed, args.tol
        )
    elif args.samples == 0:
        reports = []  # nothing requested, nothing sampled: vacuous
    else:
        raise ConfigError("nothing to check: pass --relation, --auto, or --conjecture")

    if args.samples == 0:
        pretty.append("warning: 0 samples requested; checks pass vacuously")
    for rep in reports:
        payload["reports"].append(rep.to_json())
        ok = ok and rep.passed
        pretty.append(
            f"  {rep.label}: max rel residual {rep.max_rel_residual:.3e} "
            f"(skipped {rep.skipped}) {'PASS' if rep.passed else 'FAIL'}"
        )
    payload["pass"] = ok
    emit(args, payload, pretty + ["PASS" if ok else "FAIL"])
    return EXIT_OK if ok else EXIT_VERIFY_FAIL


def cmd_mine(args) -> int:
    if args.k_max < 2:
        raise ConfigError("--k-max must be >= 2: the sequences start at k=2")
    # t_k grows like degree 2(k-2) in D; the fit needs 2k-1 points from D=k up
    if args.d_sweep < 3 * args.k_max - 2:
        raise ConfigError(
            f"--d-sweep {args.d_sweep} too small for --k-max {args.k_max}; "
            f"need at least {3 * args.k_max - 2}"
        )
    check_degree(args.d_sweep, args)
    sweep = mining.StructureSweep.run(args.d_sweep)
    q_seq, lead_seq = mining.mine_Q_and_norlund(args.k_max, args.d_sweep, sweep)
    payload = {
        "seed": args.seed,
        "d_sweep": args.d_sweep,
        "k_max": args.k_max,
        "sequences": {"lcd": q_seq.to_json(), "leading": lead_seq.to_json()},
        "structure": {
            str(D): {
                "g": [str(c) for c in gx.g.coeffs],
                "chi": gx.chi,
                "degree": gx.M,
                "irreducible": gx.irreducible,
            }
            for D, gx in sorted(sweep.extractions.items())
        },
    }
    pretty = [f"structural sweep to degree {args.d_sweep}"]
    pretty.append(f"  lcd sequence      (k=2..{args.k_max}): {list(q_seq.values)}")
    pretty.append(f"  leading sequence  (k=2..{args.k_max}): {list(lead_seq.values)}")
    csv_rows = [("lcd", k, v) for k, v in zip(range(2, args.k_max + 1), q_seq.values)]
    csv_rows += [("leading", k, v) for k, v in zip(range(2, args.k_max + 1), lead_seq.values)]

    ok = True
    if args.oeis_bfile:
        for name, seq in (("lcd", q_seq), ("leading", lead_seq)):
            if args.oeis_bfile_for in (name, "both"):
                bfile = mining.read_bfile(args.oeis_bfile)
                cmp_res = mining.compare_with_bfile(seq, bfile)
                payload.setdefault("bfile", {})[name] = cmp_res.to_json()
                pretty.append(
                    f"  b-file vs {name}: offset {cmp_res.offset}, matched "
                    f"{cmp_res.matched}/{cmp_res.total} (abs={cmp_res.absolute_values})"
                )
                ok = ok and cmp_res.aligned
    payload["pass"] = ok
    emit(args, payload, pretty + ["PASS" if ok else "FAIL"], csv_rows, ("sequence", "k", "value"))
    return EXIT_OK if ok else EXIT_VERIFY_FAIL


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rootmean",
        description="Exact mean-value tables over polynomial root families, "
                    "their universal linear relations, and numeric cross-checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("pretty", "csv", "json"), default="pretty")
        p.add_argument("--output", help="write to a file instead of stdout")
        p.add_argument("--seed", type=int, default=42)
        p.add_argument("--unsafe-degree", action="store_true",
                       help=f"lift the degree cap of {HARD_DEGREE_CAP}")

    p = sub.add_parser("gw", help="mean power-sum tables for an n-element family")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--max-deg", type=int, required=True)
    common(p)
    p.set_defaults(fn=cmd_gw)

    p = sub.add_parser("phi", help="mean-value table rows for one degree")
    p.add_argument("--D", type=int, required=True)
    p.add_argument("--delta", type=int, default=0)
    p.add_argument("--rho", help="window 'A..B', e.g. --rho=-7..2 (default: the table range)")
    common(p)
    p.set_defaults(fn=cmd_phi)

    p = sub.add_parser("relations", help="discover linear relations among mean values")
    p.add_argument("--D", type=int, required=True)
    p.add_argument("--delta", type=int, default=0)
    p.add_argument("--rho", help="window 'A..B' (default 1..D-1)")
    p.add_argument("--extended", action="store_true",
                   help="default window -(D+2)..D-1 instead of 1..D-1")
    p.add_argument("--no-minimal-support", dest="minimal_support", action="store_false")
    common(p)
    p.set_defaults(fn=cmd_relations)

    p = sub.add_parser("verify", help="symbolic verification suites")
    p.add_argument("--conjecture", choices=sorted(VERIFIERS), required=True)
    p.add_argument("--max-degree", type=int, default=9)
    p.add_argument("--threads", type=int, help="worker threads for the dimension sweep")
    common(p)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("numeric-check", help="floating-point cross-validation")
    p.add_argument("--relation", help="'alpha:rho,...' e.g. '5:1,-6:2,1:3'")
    p.add_argument("--auto", action="store_true", help="check all discovered relations at --D")
    p.add_argument("--conjecture", choices=("relative-rates", "translation"))
    p.add_argument("--D", type=int)
    p.add_argument("--delta", type=int, default=0)
    p.add_argument("--max-degree", type=int, default=10)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--tol", type=float, default=numeric.RELATION_TOL)
    common(p)
    p.set_defaults(fn=cmd_numeric)

    p = sub.add_parser("mine", help="coefficient-structure mining and integer sequences")
    p.add_argument("--k-max", type=int, default=8)
    p.add_argument("--d-sweep", type=int, default=24)
    p.add_argument("--oeis-bfile", help="b-file to compare against (text: 'index value')")
    p.add_argument("--oeis-bfile-for", choices=("lcd", "leading", "both"), default="both")
    common(p)
    p.set_defaults(fn=cmd_mine)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (mining.FitError, mining.StructuralFormError) as exc:
        print(f"structural-form failure: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAIL
    except numeric.RootFindingError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
