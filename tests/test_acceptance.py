"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Tolerances and sample counts are pinned here, not
configurable: exact equality for every symbolic criterion, 1e-8 relative for
the numeric cross-validation.
"""

import math
import random
import time
from fractions import Fraction

from rootmean import golden, mining, numeric, relations
from rootmean.means import PhiKey, phi
from rootmean.powersums import power_sum_mean
from rootmean.relations import RelationVector, check_inheritance, check_odd_binomial

from oracles import evaluate, mean_parameters, power_sums, rank


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
    ok = rows == 60
    # every mismatch is ledgered, and justified by the numeric oracle: spot-run it
    for d in found:
        assert d.known
    [oracle] = numeric.check_relations_batch(7, 0, [{1: 37, 3: -150, 4: 200, 5: -135, 6: 48}], 50, 42)
    ok = ok and oracle.passed
    report("1 (phi tables phi.2-phi.7)", ok, t0, 10)


def test_criterion_02_gw_table_reproduction():
    t0 = time.time()
    _, found = table_check("gw")
    ok = all(d.known for d in found)
    # family-size collation rows equal first-kind Chebyshev coefficient rows
    t_prev, t_cur = [1], [0, 1]
    cheb = {1: list(t_cur)}
    for j in range(2, 9):
        nxt = [0] + [2 * c for c in t_cur]
        for i, c in enumerate(t_prev):
            nxt[i] -= c
        t_prev, t_cur = t_cur, nxt
        cheb[j] = list(t_cur)
    s1 = 1
    for j in range(1, 9):
        dense = [Fraction(0)] * (j + 1)
        for m, c in power_sum_mean(j, 2).terms():
            dense[dict(m.items).get(s1, 0)] += c
        ok = ok and dense == [Fraction(c) for c in cheb[j]]
    report("2 (power-sum tables n=2..6 + Chebyshev)", ok, t0, 5)


def test_criterion_03_fundamental_relations():
    t0 = time.time()

    def rel_set(D):
        rep = relations.find_relations(D)
        return {(r.support, r.alpha) for r in rep.all_relations()}, rep

    ok = True
    s3, _ = rel_set(3)
    ok = ok and s3 == {((1, 2), (1, -1))}
    s4, _ = rel_set(4)
    ok = ok and s4 == {((1, 2, 3), (5, -6, 1))}
    s5, rep5 = rel_set(5)
    ok = ok and s5 == {
        ((1, 3, 4), (1, -3, 2)),
        ((2, 3, 4), (2, -5, 3)),
        ((1, 2, 3), (3, -4, 1)),
        ((1, 2, 4), (5, -6, 1)),
        ((1, 2, 3, 4), (1, -2, 2, -1)),
    }
    ok = ok and rank(rep5) == 2
    s6, _ = rel_set(6)
    ok = ok and s6 == {((1, 2, 3, 4, 5), (77, -120, 60, -20, 3))}
    s7, rep7 = rel_set(7)
    printed7 = {
        ((1, 2, 3, 4, 5), (85, -144, 90, -40, 9)),
        ((1, 2, 3, 4, 6), (82, -135, 75, -25, 3)),
        ((1, 2, 3, 5, 6), (77, -120, 50, -15, 8)),
        ((1, 2, 4, 5, 6), (67, -90, 50, -45, 18)),
        ((1, 3, 4, 5, 6), (37, -150, 200, -135, 48)),
        ((2, 3, 4, 5, 6), (111, -335, 385, -246, 85)),
        ((1, 2, 3, 4, 5, 6), (1, -3, 5, -5, 3, -1)),
    }
    ok = ok and s7 == printed7 and rank(rep7) == 2
    s8, _ = rel_set(8)
    ok = ok and s8 == {((1, 2, 3, 4, 5, 6, 7), (669, -1260, 1050, -700, 315, -84, 10))}
    report("3 (printed relation sets D=3..8)", ok, t0, 30)


def test_criterion_04_dimension_pattern():
    t0 = time.time()
    ok = True
    for D in range(4, 21, 2):
        ok = ok and relations.relation_space_dim(D) == 1
    for D in range(5, 22, 2):
        ok = ok and relations.relation_space_dim(D) == 2
    report("4 (dimension pattern to degree 21)", ok, t0, 600)


def test_criterion_05_odd_alternating_binomial():
    t0 = time.time()
    ok = all(check_odd_binomial(D) for D in range(3, 22, 2))
    report("5 (alternating binomial, odd D <= 21)", ok, t0, 120)


def test_criterion_06_zero_sum():
    t0 = time.time()
    ok = True
    for D in range(3, 9):
        rep = relations.find_relations(D)
        for rel in rep.all_relations():
            ok = ok and rel.alpha_sum() == 0
    report("6 (zero coefficient sums)", ok, t0, 30)


def test_criterion_07_inheritance_chains():
    t0 = time.time()
    ok = True
    chains = golden.inheritance_chains()
    ok = ok and set(chains) == set("abcdefghi")
    for label, chain in sorted(chains.items()):
        for idx, entry in enumerate(chain):
            rel = RelationVector.make(entry["D"], entry["delta"], entry["alpha"].items())
            ok = ok and rel.verify()
            if idx + 1 < len(chain):
                nxt = chain[idx + 1]
                ok = ok and check_inheritance(rel)
                ok = ok and nxt["alpha"] == {r + 1: a for r, a in entry["alpha"].items()}
    report("7 (derivative-inheritance chains a..i)", ok, t0, 60)


def test_criterion_08_constant_independence_and_scaling():
    t0 = time.time()
    ok = True
    for D in range(2, 10):
        for delta in range(0, D):
            for m in (1, 2, 3):
                poly = phi(PhiKey(D, delta, -m)).poly
                ok = ok and all(part <= D for part in poly.symbols())
    for D in range(3, 10):
        for delta in range(1, D):
            if D - delta < 2:
                continue
            scale = math.factorial(D) // math.factorial(D - delta)
            ok = ok and phi(PhiKey(D, delta, 0)).poly == phi(
                PhiKey(D - delta, 0, -delta)
            ).poly.scale(scale)
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
    sweep = mining.StructureSweep.run(24)
    ok = True
    for D, gx in sweep.extractions.items():
        const = Fraction((-1) ** D * D, math.factorial(D))
        ok = ok and gx.g.is_monic() and gx.g.is_integer()
        ok = ok and gx.M == D - (2 + gx.chi)
        for n in range(1, D + 4):
            ok = ok and mining.top_parameter_coefficient(D, D - n) == const * (D - n) * n**gx.chi * gx.g(n)
        ok = ok and gx.t_coefficient(2) == 1
    for k in (3, 5, 7):
        for D, val in sweep.t_data(k):
            if D <= k:
                ok = ok and val == 0
    # round-trip: the fitted coefficient polynomials reproduce every g_D
    # coefficient across the structural window
    t_polys = {k: mining.t_series(k, sweep) for k in range(2, 9)}
    for D in range(2, 17):
        gx = sweep.extractions[D]
        for k in range(2, min(8, D) + 1):
            if k in t_polys and D >= k:
                ok = ok and t_polys[k](D) == gx.t_coefficient(k)
    q24, lead24 = mining.mine_Q_and_norlund(8, sweep)
    sweep22 = mining.StructureSweep.run(22)
    q22, lead22 = mining.mine_Q_and_norlund(8, sweep22)
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
