"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Tolerances and sample counts are pinned here, not
configurable: exact equality for every symbolic criterion, 1e-8 relative for
the numeric cross-validation.  Where a ``rootmean verify`` suite checks a
claim, the criterion runs that suite and reads its JSON payload.
"""

import contextlib
import io
import json
import math
import random
import time
from fractions import Fraction

from rootmean import cli, golden, mining, numeric, relations
from rootmean._aberth_py import horner
from rootmean.powersums import power_sum_mean

from oracles import evaluate, mean_parameters, power_sums, rank

# the paper's relation-space dimension at D = 2..21: one relation in even
# degrees past 2, a 2-dimensional family in odd degrees past 3
PAPER_DIM = [0, 1] + [1 + D % 2 for D in range(4, 22)]


def verify(conjecture, *argv):
    """The JSON payload of ``rootmean verify --conjecture conjecture *argv``,
    which must exit 0."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["verify", "--conjecture", conjecture, *argv, "--format", "json"])
    assert code == cli.EXIT_OK, out.getvalue()
    return json.loads(out.getvalue())


def table_check(prefix):
    """(rows compared, discrepancies) of ``golden.full_report`` in the tables
    whose name starts with prefix."""
    rep = golden.full_report()
    rows = sum(1 for table, *_ in golden._printed_rows() if table.startswith(prefix))
    return rows, [d for d in rep.discrepancies if d.table.startswith(prefix)]


def report(name, ok, t0, budget):
    elapsed = time.time() - t0
    line = f"criterion {name}: {'PASS' if ok else 'FAIL'} ({elapsed:.1f}s, budget {budget}s)"
    print(line)
    assert ok, line
    assert elapsed < budget, line


def test_criterion_01_phi_table_reproduction():
    t0 = time.time()
    rows, found = table_check("phi.")
    # exactly the two ledgered coefficient typos, each justified by the
    # numeric oracle: spot-run it
    assert [d.known for d in found] == [True] * 2, [d.describe() for d in found]
    [oracle] = numeric.check_relations_batch(7, 0, [{1: 37, 3: -150, 4: 200, 5: -135, 6: 48}], 50, 42)
    ok = rows == 60 and oracle.passed
    report("1 (phi tables phi.2-phi.7)", ok, t0, 10)


def test_criterion_02_gw_table_reproduction():
    t0 = time.time()
    _, found = table_check("gw")
    # one in the family-size collation, four cells in the degree collation
    assert [d.known for d in found] == [True] * 5, [d.describe() for d in found]
    # the n = 2 rows, with the order-2 parameter set to 1, are the first-kind
    # Chebyshev polynomials: T_(j+1) = 2x T_j - T_(j-1), dense ascending
    ok = True
    t_prev, t_cur = [1], [0, 1]
    for j in range(1, 13):
        if j > 1:
            nxt = [0] + [2 * c for c in t_cur]
            for i, c in enumerate(t_prev):
                nxt[i] -= c
            t_prev, t_cur = t_cur, nxt
        dense = [Fraction(0)] * (j + 1)
        for m, c in power_sum_mean(j, 2).terms():
            dense[dict(m).get(1, 0)] += c
        ok = ok and dense == t_cur
    report("2 (power-sum tables n=2..6 + Chebyshev)", ok, t0, 5)


def test_criterion_03_fundamental_relations():
    # the catalog's fundamental section holds exactly the printed sets
    t0 = time.time()
    printed = {}
    for e in golden.catalog_relations():
        if e["section"] == "fundamental":
            support = tuple(sorted(e["alpha"]))
            printed.setdefault(e["D"], set()).add((support, tuple(e["alpha"][r] for r in support)))
    ok = sorted(printed) == list(range(3, 9))
    for D in range(2, 9):
        rep = relations.find_relations(D)
        ok = ok and {(r.support, r.alpha) for r in rep.all_relations()} == printed.get(D, set())
        ok = ok and rep.dim == rank(rep) == PAPER_DIM[D - 2]
    report("3 (printed relation sets D=3..8)", ok, t0, 30)


def test_criterion_04_dimension_pattern():
    t0 = time.time()
    ok = verify("dimension", "--max-degree", "21")["dims"] == PAPER_DIM
    report("4 (dimension pattern to degree 21)", ok, t0, 600)


def test_criterion_05_odd_alternating_binomial():
    t0 = time.time()
    results = verify("odd-binomial", "--max-degree", "21")["odd_binomial"]
    ok = results == {str(D): True for D in range(3, 22, 2)}
    report("5 (alternating binomial, odd D <= 21)", ok, t0, 120)


def test_criterion_06_zero_sum():
    t0 = time.time()
    ok = True
    for D in range(3, 9):
        rep = relations.find_relations(D)
        for rel in rep.all_relations():
            ok = ok and sum(rel.alpha) == 0
    report("6 (zero coefficient sums)", ok, t0, 30)


def test_criterion_07_inheritance_chains():
    # each link of a chain is a certified relation, and the next link is its
    # shift to (D + 1, delta + 1, rho + 1), certified as well
    t0 = time.time()
    ok = verify("inheritance")["inheritance"] == {label: True for label in "abcdefghi"}
    report("7 (derivative-inheritance chains a..i)", ok, t0, 60)


def test_criterion_08_constant_independence_and_scaling():
    # prop4: no integration constant in phi(D, delta, -m) for delta = 0..D-1,
    # m = 1..3; prop5: phi(D, delta, 0) = D!/(D-delta)! phi(D-delta, 0, -delta)
    # for D - delta >= 2; both for D <= 9
    t0 = time.time()
    prop4 = verify("prop4", "--max-degree", "9")["prop4_checked"]
    prop5 = verify("prop5", "--max-degree", "9")["prop5_checked"]
    ok = (prop4, prop5) == (132, 28)
    report("8 (constant independence + factorial scaling, D <= 9)", ok, t0, 60)


def test_criterion_09_numeric_cross_validation():
    t0 = time.time()
    ok = True
    worst = 0.0
    for D in range(3, 10):
        rels = relations.find_relations(D).all_relations()
        reports = numeric.check_relations_batch(D, 0, rels, samples=1000, seed=42)
        for rep in reports:
            ok = ok and rep.passed
            worst = max(worst, rep.max_rel_residual)
    rates = numeric.relative_rates_report(10, 500, 42)
    ok = ok and rates.passed
    trans = numeric.translation_invariance_report(7, 100, 42)
    ok = ok and trans.passed
    print(
        f"  max residuals: relations {worst:.2e}, rates {rates.max_rel_residual:.2e}, "
        f"translation {trans.max_rel_residual:.2e}"
    )
    report("9 (numeric cross-validation, seed 42)", ok, t0, 120)


def test_criterion_10_sequence_mining():
    t0 = time.time()
    extractions = mining.structure_sweep(24)
    ok = True
    for D, gx in extractions.items():
        const = Fraction((-1) ** D * D, math.factorial(D))
        ok = ok and gx.g[-1] == 1 and all(type(c) is int for c in gx.g)
        ok = ok and len(gx.g) - 1 == D - (2 + gx.chi)
        for n in range(1, D + 4):
            g_n = horner(gx.g[::-1], n)
            ok = ok and mining.top_parameter_coefficient(D, D - n) == const * (D - n) * n**gx.chi * g_n
    # round-trip: the fitted coefficient polynomials reproduce every g_D
    # coefficient across the structural window
    t_polys = {k: mining.t_series(k, extractions) for k in range(2, 9)}
    for D in range(2, 17):
        gx = extractions[D]
        for k in range(2, min(8, D) + 1):
            e = D - k - gx.chi
            ok = ok and horner(t_polys[k][::-1], D) == (gx.g[e] if e >= 0 else 0)
    q24, lead24 = mining.mine_Q_and_norlund(8, extractions)
    q22, lead22 = mining.mine_Q_and_norlund(8, mining.structure_sweep(22))
    ok = ok and q24.values == q22.values and lead24.values == lead22.values
    # comparator round-trip on a locally written b-file (the external
    # cross-check path used when a published b-file is supplied)
    import tempfile, os

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "b.txt")
        with open(path, "w", encoding="utf-8") as fh:
            for i, v in enumerate(q24.values):
                fh.write(f"{i + 1} {v}\n")
        cmp_res = mining.compare_with_bfile(q24, mining.read_bfile(path))
        ok = ok and cmp_res.aligned
    report("10 (structural mining to degree 24)", ok, t0, 300)


def test_criterion_11_power_sum_oracle_equivalence():
    t0 = time.time()
    rng = random.Random(20240808)
    ok = True
    for n in range(1, 7):
        for j in range(1, 10):
            poly = power_sum_mean(j, n)
            for _ in range(50):
                values = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)]
                ok = ok and evaluate(poly, mean_parameters(values)) == power_sums(values, j)[j] / n
    report("11 (exact power-sum oracle equivalence)", ok, t0, 60)
