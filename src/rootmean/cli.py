"""Command-line surface: table emission, relation discovery, verification,
numeric cross-checks, and sequence mining.

Exit codes: 0 success, 1 verification failure, 2 usage/config error.  Every
machine-readable artifact records the seed it was produced with; fixed seed
means byte-identical output regardless of the number of forked processes a
numeric check splits its samples across.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys

from . import golden, mining, numeric, relations
from .means import PhiKey, phi
from .powersums import power_sum_mean
from .sympoly import part_name

HARD_DEGREE_CAP = 30
DIMENSION_DEGREE_CAP = 49  # verify --conjecture dimension reaches the paper's stated range

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_CONFIG = 2


class ConfigError(ValueError):
    pass


def worker_map(fn, items):
    """[fn(x) for x in items], in the calling thread.

    It stays a named function only because perfbench/tracer.py wraps it as
    the dimension sweep's span, and the tracer's probe requires every
    relations.relation_space_dim call to run under it.
    """
    return [fn(x) for x in items]


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


def rho_window(D: int, text: str | None, default, extended: bool = False) -> list:
    """The family orders a command averages over: the ``--rho`` window
    ``text``, or ``default`` without one.  ``--rho`` and ``--extended`` both
    choose the window, so they are not taken together, and a rho >= D leaves
    no root to average over."""
    if text and extended:
        raise ConfigError("--rho and --extended both choose the window; pass one of them")
    window = parse_rho_window(text) if text else default
    # a --rho window is a range, checked by its ends before it is listed
    empty = range(max(window[0], D), window[-1] + 1) if text else sorted(r for r in window if r >= D)
    if empty:
        raise ConfigError(f"rho={empty[0]} leaves an empty root family at D={D}")
    return list(window)


def check_degree(D: int, args, delta: int = 0, cap: int = HARD_DEGREE_CAP, rho: int = 0) -> None:
    """Cap D, D - delta (the averaged function's degree, phi's weight) and D - rho (f^(rho)'s degree)."""
    if D < 2:
        raise ConfigError("degree must be >= 2")
    if args.unsafe_degree:
        return
    if D > cap:
        raise ConfigError(f"degree {D} above the cap {cap}; pass --unsafe-degree to override")
    if D - delta > cap:
        raise ConfigError(
            f"value order {delta} averages a function of degree {D - delta}, above the cap "
            f"{cap}; pass --unsafe-degree to override"
        )
    if D - rho > cap:
        raise ConfigError(
            f"rho={rho} averages over the roots of f^({rho}), of degree {D - rho}, above the cap "
            f"{cap}; pass --unsafe-degree to override"
        )


def pretty_poly(p, D: int | None = None) -> str:
    """The polynomial with each part p spelled r^[p], or c^[p-D] above D."""
    def name(part):
        sym = part_name(part, D)
        return f"{sym[0]}^[{sym[1:]}]"

    return p.render(name)


def emit(args, payload: dict, pretty_lines, csv_rows=None, csv_header=None, verdict=None) -> None:
    """Write one artefact in ``args.format`` to ``--output`` or stdout.

    The JSON payload always records the seed.  A command that checks
    something passes its outcome as ``verdict``: the payload records it as
    ``"pass"`` and the pretty text closes with PASS or FAIL.
    """
    payload = {**payload, "seed": args.seed}
    if verdict is not None:
        payload["pass"] = verdict
        pretty_lines = [*pretty_lines, "PASS" if verdict else "FAIL"]
    if args.format == "json":
        text = json.dumps(payload, indent=1, sort_keys=True) + "\n"
    elif args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        if csv_header:
            writer.writerow(csv_header)
        for row in csv_rows or []:
            writer.writerow(row)
        text = buf.getvalue()
    else:
        text = "".join(line + "\n" for line in pretty_lines)
    if not args.output:
        sys.stdout.write(text)
        return
    try:
        with open(args.output, "w", encoding="utf-8") as out:
            out.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write --output {args.output!r}: {exc.strerror or exc}") from None


# ---------------------------------------------------------------------------
# subcommands

def cmd_gw(args) -> int:
    n, max_deg = args.n, args.max_deg
    if n < 1 or max_deg < 1:
        raise ConfigError("--n and --max-deg must be >= 1")
    check_degree(max(2, max_deg), args)
    polys = [power_sum_mean(j, n) for j in range(1, max_deg + 1)]
    table = [(j, p, p.sum_positive()) for j, p in enumerate(polys, 1)]
    payload = {
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
    check_degree(D, args, args.delta)
    # by default the tables' printed range, n = 1..10
    window = sorted(rho_window(D, args.rho, [D - n for n in range(1, 11)]), reverse=True)
    results = [phi(PhiKey(D, args.delta, rho)) for rho in window]
    payload = {
        "D": D,
        "delta": args.delta,
        "rows": [
            {
                "rho": res.key.rho,
                "n": res.key.family_size,
                "terms": res.poly.to_json(D)["terms"],
                "sum_positive": str(res.poly.sum_positive()),
                "flag": res.flag,
            }
            for res in results
        ],
    }
    pretty = [f"mean values, degree {D}, value order {args.delta}"]
    for res in results:
        pretty.append(
            f"  n={res.key.family_size:2d} rho={res.key.rho:3d}: {pretty_poly(res.poly, D)}   [sum+ {res.poly.sum_positive()}]"
        )
    csv_rows = [
        (D, args.delta, res.key.rho, res.key.family_size,
         json.dumps(res.poly.to_json(D)["terms"]), str(res.poly.sum_positive()))
        for res in results
    ]
    emit(args, payload, pretty, csv_rows, ("D", "delta", "rho", "n", "terms", "sum_positive"))
    return EXIT_OK


def cmd_relations(args) -> int:
    D = args.D
    check_degree(D, args, args.delta)
    default = range(-(D + 2), D) if args.extended else range(1, D)
    window = rho_window(D, args.rho, default, args.extended)
    report = relations.find_relations(
        D, args.delta, window, minimal_support=args.minimal_support
    )
    payload = report.to_json()

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
        (kind, json.dumps(list(rel.support)), json.dumps(list(rel.alpha)))
        for kind, rels in (("basis", report.basis), ("minimal", report.minimal_support))
        for rel in rels
    ]
    emit(args, payload, pretty, csv_rows, ("kind", "support", "alpha"))
    return EXIT_VERIFY_FAIL if failures else EXIT_OK


def _verify_dimension(args, payload, pretty):
    cap = args.max_degree
    dims = worker_map(relations.relation_space_dim, range(2, cap + 1))
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
        good = relations.alternating_binomial_vector(D) is not None
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
        # each link is proved once, and the next link must be its shift by
        # one in D, delta and every rho
        for entry in chain:
            relations.RelationVector.make(entry["D"], entry["delta"], entry["alpha"].items())
        chain_ok = all(
            nxt["alpha"] == {r + 1: a for r, a in entry["alpha"].items()}
            and (nxt["D"], nxt["delta"]) == (entry["D"] + 1, entry["delta"] + 1)
            for entry, nxt in zip(chain, chain[1:])
        )
        details[label] = chain_ok
        ok = ok and chain_ok
        pretty.append(f"  chain {label} (length {len(chain)}): {'ok' if chain_ok else 'FAIL'}")
    payload["inheritance"] = details
    return ok


def _verify_prop4(args, payload, pretty):
    # averaged values over antiderivative families carry no integration
    # constants: no part above D
    ok = True
    checked = 0
    for D in range(2, args.max_degree + 1):
        for delta in range(0, D):
            for m in range(1, 4):
                poly = phi(PhiKey(D, delta, -m)).poly
                clean = all(part <= D for part in poly.symbols())
                checked += 1
                if not clean:
                    ok = False
                    pretty.append(f"  FAIL at D={D} delta={delta} m={m}")
    pretty.append(f"  constant-independence checked on {checked} keys: {'ok' if ok else 'FAIL'}")
    payload["prop4_checked"] = checked
    return ok


def _verify_prop5(args, payload, pretty):
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
    cap = DIMENSION_DEGREE_CAP if args.conjecture == "dimension" else HARD_DEGREE_CAP
    check_degree(args.max_degree, args, cap=cap)
    payload = {"conjecture": args.conjecture, "max_degree": args.max_degree}
    pretty = [f"verify {args.conjecture} up to degree {args.max_degree}"]
    ok = VERIFIERS[args.conjecture](args, payload, pretty)
    emit(args, payload, pretty, verdict=ok)
    return EXIT_OK if ok else EXIT_VERIFY_FAIL


def parse_relation_spec(text: str):
    """'alpha:rho,alpha:rho,...' e.g. '5:1,-6:2,1:3'."""
    mapping = {}
    for chunk in text.split(","):
        try:
            a, r = chunk.split(":")
            a, r = int(a), int(r)
        except ValueError:
            raise ConfigError(
                f"bad relation term {chunk!r} in {text!r}: expected 'alpha:rho'"
            ) from None
        if r in mapping:
            raise ConfigError(f"rho={r} appears twice in relation {text!r}")
        mapping[r] = a
    if not any(mapping.values()):
        raise ConfigError(f"relation {text!r} has no nonzero coefficient")
    return mapping


def cmd_numeric(args) -> int:
    # zero samples would evaluate nothing, and a check must not pass on nothing
    if args.samples < 1:
        raise ConfigError("--samples must be >= 1")
    # relation residuals never exceed 1, so a tol of 1 or more passes a false relation
    if not 0 < args.tol < 1:
        raise ConfigError(f"--tol must lie strictly between 0 and 1, got {args.tol}")
    given = [f"--{mode}" for mode in ("relation", "auto", "conjecture") if getattr(args, mode)]
    if len(given) > 1:
        raise ConfigError(f"pass only one of --relation, --auto and --conjecture, got {' and '.join(given)}")
    if args.conjecture:
        check_degree(args.max_degree, args)
        reports = [numeric.CONJECTURES[args.conjecture](args.max_degree, args.samples, args.seed, args.tol)]
    elif args.relation or args.auto:
        if args.D is None:
            raise ConfigError(f"{given[0]} needs --D")
        check_degree(args.D, args, args.delta)
        # past D, f^(delta) is identically zero: every mean is exactly 0 and
        # any relation would pass unchecked (at delta == D, f^(D) = D! still
        # tests sum(alpha) == 0)
        if args.delta > args.D:
            raise ConfigError(f"--delta {args.delta} above --D {args.D} averages f^(delta) = 0: nothing to check")
        if args.relation:
            rels = [parse_relation_spec(args.relation)]
            # the check weighs the sampled means in doubles
            try:
                list(map(float, rels[0].values()))
            except OverflowError:
                raise ConfigError("a --relation coefficient is too large for a double") from None
            rho_window(args.D, None, rels[0])
            check_degree(args.D, args, rho=min(rels[0]))
        else:
            rels = relations.find_relations(args.D, args.delta, minimal_support=False).all_relations()
            if not rels:
                raise ConfigError(f"nothing to check: no relation at D={args.D}, delta={args.delta}")
        reports = numeric.check_relations_batch(args.D, args.delta, rels, args.samples, args.seed, args.tol)
    else:
        raise ConfigError("nothing to check: pass --relation, --auto, or --conjecture")

    ok = all(rep.passed for rep in reports)
    pretty = [
        f"  {rep.label}: max rel residual {rep.max_rel_residual:.3e} "
        f"(skipped {rep.skipped}) {'PASS' if rep.passed else 'FAIL'}"
        for rep in reports
    ]
    emit(args, {"tol": args.tol, "reports": [rep.to_json() for rep in reports]}, pretty, verdict=ok)
    return EXIT_OK if ok else EXIT_VERIFY_FAIL


def cmd_mine(args) -> int:
    if args.k_max < 2:
        raise ConfigError("--k-max must be >= 2: the sequences start at k=2")
    # t_k grows like degree 2(k-2) in D; the fit needs 2k-1 points from D=k up,
    # and never fewer than HOLDOUT + 2
    need = max(3 * args.k_max - 2, args.k_max + mining.HOLDOUT + 1)
    if args.d_sweep < need:
        raise ConfigError(
            f"--d-sweep {args.d_sweep} too small for --k-max {args.k_max}; "
            f"need at least {need}"
        )
    check_degree(args.d_sweep, args)
    if bool(args.oeis_bfile) != bool(args.oeis_bfile_for):
        raise ConfigError("--oeis-bfile and --oeis-bfile-for go together: a b-file holds one of the two sequences")
    bfile = None
    if args.oeis_bfile:
        try:
            bfile = mining.read_bfile(args.oeis_bfile)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read --oeis-bfile {args.oeis_bfile!r}: {exc}") from None
    extractions = mining.structure_sweep(args.d_sweep)
    q_seq, lead_seq = mining.mine_Q_and_norlund(args.k_max, extractions)
    payload = {
        "d_sweep": args.d_sweep,
        "k_max": args.k_max,
        "sequences": {"lcd": q_seq.to_json(), "leading": lead_seq.to_json()},
        "structure": {
            str(D): {
                "g": [str(c) for c in gx.g],
                "chi": gx.chi,
                "degree": len(gx.g) - 1,
                "irreducible": gx.irreducible,
            }
            for D, gx in extractions.items()
        },
    }
    pretty = [f"structural sweep to degree {args.d_sweep}"]
    pretty.append(f"  lcd sequence      (k=2..{args.k_max}): {list(q_seq.values)}")
    pretty.append(f"  leading sequence  (k=2..{args.k_max}): {list(lead_seq.values)}")
    csv_rows = [("lcd", k, v) for k, v in zip(range(2, args.k_max + 1), q_seq.values)]
    csv_rows += [("leading", k, v) for k, v in zip(range(2, args.k_max + 1), lead_seq.values)]

    ok = True
    if bfile is not None:
        name = args.oeis_bfile_for
        cmp_res = mining.compare_with_bfile(q_seq if name == "lcd" else lead_seq, bfile)
        payload["bfile"] = {name: cmp_res.to_json()}
        pretty.append(
            f"  b-file vs {name}: offset {cmp_res.offset}, matched "
            f"{cmp_res.matched}/{cmp_res.total} (abs={cmp_res.absolute_values})"
        )
        ok = cmp_res.aligned
    emit(args, payload, pretty, csv_rows, ("sequence", "k", "value"), verdict=ok)
    return EXIT_OK if ok else EXIT_VERIFY_FAIL


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rootmean",
        description="Exact mean-value tables over polynomial root families, "
                    "their universal linear relations, and numeric cross-checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # csv only where the subcommand hands emit its rows
    table_formats = ("pretty", "csv", "json")

    def common(p, formats=("pretty", "json")):
        p.add_argument("--format", choices=formats, default="pretty")
        p.add_argument("--output", help="write to a file instead of stdout")
        p.add_argument("--seed", type=int, default=42)
        p.add_argument("--unsafe-degree", action="store_true",
                       help=f"lift the degree cap of {HARD_DEGREE_CAP} "
                            f"({DIMENSION_DEGREE_CAP} for verify --conjecture dimension)")

    p = sub.add_parser("gw", help="mean power-sum tables for an n-element family")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--max-deg", type=int, required=True)
    common(p, table_formats)
    p.set_defaults(fn=cmd_gw)

    p = sub.add_parser("phi", help="mean-value table rows for one degree")
    p.add_argument("--D", type=int, required=True)
    p.add_argument("--delta", type=int, default=0)
    p.add_argument("--rho", help="window 'A..B', e.g. --rho=-7..2 (default: the table range)")
    common(p, table_formats)
    p.set_defaults(fn=cmd_phi)

    p = sub.add_parser("relations", help="discover linear relations among mean values")
    p.add_argument("--D", type=int, required=True)
    p.add_argument("--delta", type=int, default=0)
    p.add_argument("--rho", help="window 'A..B', e.g. --rho=-3..3 (default 1..D-1)")
    p.add_argument("--extended", action="store_true",
                   help="default window -(D+2)..D-1 instead of 1..D-1")
    p.add_argument("--no-minimal-support", dest="minimal_support", action="store_false")
    common(p, table_formats)
    p.set_defaults(fn=cmd_relations)

    p = sub.add_parser("verify", help="symbolic verification suites")
    p.add_argument("--conjecture", choices=sorted(VERIFIERS), required=True)
    p.add_argument("--max-degree", type=int, default=9)
    p.add_argument("--threads", type=int, help="ignored: the dimension sweep runs in one thread")
    common(p)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("numeric-check", help="floating-point cross-validation")
    p.add_argument("--relation", help="'alpha:rho,...' e.g. '5:1,-6:2,1:3'")
    p.add_argument("--auto", action="store_true", help="check all discovered relations at --D")
    p.add_argument("--conjecture", choices=sorted(numeric.CONJECTURES))
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
    p.add_argument("--oeis-bfile-for", choices=("lcd", "leading"),
                   help="the mined sequence the b-file holds (required with --oeis-bfile)")
    common(p, table_formats)
    p.set_defaults(fn=cmd_mine)

    return parser


# Built once, at import: in-process callers of main (the tests, the benchmark)
# would otherwise pay argparse's set-up, 2-5 ms, on every call.
PARSER = build_parser()


def main(argv=None) -> int:
    args = PARSER.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (mining.FitError, mining.StructuralFormError) as exc:
        print(f"structural-form failure: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAIL
    except relations.RelationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAIL


if __name__ == "__main__":
    sys.exit(main())
