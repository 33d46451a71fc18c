"""One-off generator for the golden table fixtures.

Emits the published tables in JSON form for the regression suite.  Values
come from the exact engine; the handful of cells where the printed source
deviates (hand-set tables) are patched back to their *printed* form here, so
the fixtures record the tables as published, and known_typos.json carries
each printed-vs-engine difference with its justification.  The audit was done
row by row against the published text, using each row's sum-of-positive-
coefficients column as a checksum.

Run from the repository root:  PYTHONPATH=src python3 tools/make_fixtures.py
"""

import json
import os

from rootmean.means import PhiKey, phi
from rootmean.powersums import power_sum_mean

OUT = os.path.join(os.path.dirname(__file__), "..", "src", "rootmean", "fixtures")


def poly_terms(p, D=None):
    return p.to_json(D)["terms"]


def patch_coeff(terms, expt, printed):
    out = []
    for t in terms:
        if t["expt"] == expt:
            out.append({"expt": t["expt"], "coeff": printed})
        else:
            out.append(t)
    return out


def patch_expt(terms, coeff, engine_expt, printed_expt):
    out = []
    for t in terms:
        if t["expt"] == engine_expt and t["coeff"] == coeff:
            out.append({"expt": printed_expt, "coeff": coeff})
        else:
            out.append(t)
    return out


def drop_term(terms, expt):
    return [t for t in terms if t["expt"] != expt]


def phi_tables():
    tables = {}
    for D in range(2, 8):
        rows = []
        for n in range(1, 11):
            rho = D - n
            res = phi(PhiKey(D, 0, rho))
            terms = poly_terms(res.poly, D)
            sum_pos = str(res.sum_positive)
            if D == 7 and rho == -1:
                # printed coefficient drops a digit; row checksum matches engine
                terms = patch_coeff(terms, {"r1": 3, "r2": 2}, "11968")
            if D == 7 and rho == -3:
                # printed coefficient transposes digits; row checksum matches engine
                terms = patch_coeff(terms, {"r1": 1, "r2": 1, "r4": 1}, "65385")
            rows.append({"n": n, "rho": rho, "terms": terms, "sum_positive": sum_pos})
        tables[str(D)] = {"delta": 0, "rows": rows}
    return {"phi_tables": tables}


def gw_tables():
    tables = {}
    for n in range(2, 7):
        rows = []
        max_j = 8 if n == 2 else 7
        for j in range(1, max_j + 1):
            p = power_sum_mean(j, n)
            terms = poly_terms(p)
            if n == 6 and j == 7:
                # printed -7 term repeats the bar pattern of the -105 term
                terms = patch_expt(terms, "-7", {"r1": 1, "r6": 1}, {"r2": 1, "r5": 1})
            rows.append({"j": j, "terms": terms, "sum_positive": str(p.sum_positive())})
        tables[str(n)] = {"rows": rows}
    return {"gw_tables": tables}


def gw_deg_tables():
    # the degree-collated duplicate of the same cells, with its own typos
    tables = {}
    for j in range(2, 8):
        rows = []
        for n in range(2, 7):
            p = power_sum_mean(j, n)
            terms = poly_terms(p)
            if j == 6 and n == 3:
                # printed row flips the sign of one term and omits the last
                terms = patch_coeff(terms, {"r1": 2, "r2": 2}, "-243")
                terms = drop_term(terms, {"r3": 2})
            if j == 7 and n == 3:
                terms = patch_coeff(terms, {"r1": 7}, "7294")
            if j == 7 and n == 4:
                # printed monomial drops one bar on the 84-coefficient term
                terms = patch_expt(
                    terms, "84", {"r1": 1, "r2": 1, "r4": 1}, {"r1": 1, "r2": 1, "r3": 1}
                )
            if j == 7 and n == 6:
                terms = patch_expt(terms, "-7", {"r1": 1, "r6": 1}, {"r2": 1, "r5": 1})
            rows.append({"n": n, "terms": terms, "sum_positive": str(p.sum_positive())})
        tables[str(j)] = {"rows": rows}
    return {"gw_deg_tables": tables}


def relations_catalog():
    def rel(D, delta, mapping, label=None):
        out = {"D": D, "delta": delta, "alpha": {str(r): a for r, a in sorted(mapping.items())}}
        if label:
            out["label"] = label
        return out

    fundamental = [
        rel(3, 0, {1: 1, 2: -1}, "a"),
        rel(4, 0, {1: 5, 2: -6, 3: 1}, "b"),
        rel(5, 0, {1: 1, 3: -3, 4: 2}, "c"),
        rel(5, 0, {2: 2, 3: -5, 4: 3}, "d"),
        rel(5, 0, {1: 3, 2: -4, 3: 1}),
        rel(5, 0, {1: 5, 2: -6, 4: 1}),
        rel(5, 0, {1: 1, 2: -2, 3: 2, 4: -1}, "cd"),
        rel(6, 0, {1: 77, 2: -120, 3: 60, 4: -20, 5: 3}, "j"),
        rel(7, 0, {1: 85, 2: -144, 3: 90, 4: -40, 5: 9}, "m"),
        rel(7, 0, {1: 82, 2: -135, 3: 75, 4: -25, 6: 3}, "n"),
        rel(7, 0, {1: 77, 2: -120, 3: 50, 5: -15, 6: 8}),
        rel(7, 0, {1: 67, 2: -90, 4: 50, 5: -45, 6: 18}),
        rel(7, 0, {1: 37, 3: -150, 4: 200, 5: -135, 6: 48}),
        rel(7, 0, {2: 111, 3: -335, 4: 385, 5: -246, 6: 85}),
        rel(7, 0, {1: 1, 2: -3, 3: 5, 4: -5, 5: 3, 6: -1}, "mn"),
        rel(8, 0, {1: 669, 2: -1260, 3: 1050, 4: -700, 5: 315, 6: -84, 7: 10}),
    ]
    by_delta = [
        # first-derived values over derivative root families
        rel(3, 1, {0: 1, 2: 1}, "e"),
        rel(4, 1, {0: 1, 2: 2}, "f"),
        rel(4, 1, {0: 1, 3: 2}),
        rel(4, 1, {2: 1, 3: -1}, "a'"),
        rel(5, 1, {2: 5, 3: -6, 4: 1}, "b'"),
        rel(6, 1, {2: 1, 4: -3, 5: 2}, "c'"),
        rel(6, 1, {3: 2, 4: -5, 5: 3}, "d'"),
        rel(6, 1, {2: 3, 3: -4, 4: 1}),
        rel(6, 1, {2: 5, 3: -6, 5: 1}),
        rel(6, 1, {2: 1, 3: -2, 4: 2, 5: -1}, "cd'"),
        # second-derived values
        rel(4, 2, {0: 1, 1: -2}, "g"),
        rel(4, 2, {1: 1, 3: 1}, "e'"),
        rel(4, 2, {0: 1, 3: 2}),
        rel(4, 2, {0: 1, 1: -1, 3: 1}),
        rel(5, 2, {0: 1, 3: 5}, "h"),
        rel(5, 2, {1: 1, 3: 2}, "f'"),
        rel(5, 2, {3: 1, 4: -1}, "a''"),
        rel(5, 2, {0: 1, 1: -2, 3: 2, 4: -1}),
        rel(6, 2, {3: 5, 4: -6, 5: 1}, "b''"),
        # third-derived values
        rel(5, 3, {0: 1, 2: -3}, "i"),
        rel(5, 3, {1: 1, 2: -2}, "g'"),
        rel(5, 3, {2: 1, 4: 1}, "e''"),
        rel(6, 3, {0: 1, 4: 9}, "k"),
        rel(6, 3, {1: 1, 4: 5}, "h'"),
        rel(6, 3, {2: 1, 4: 2}, "f''"),
        rel(6, 3, {4: 1, 5: -1}, "a'''"),
        # fourth-derived values
        rel(6, 4, {0: 3, 1: -4}, "l"),
        rel(6, 4, {1: 1, 3: -3}, "i'"),
        rel(6, 4, {2: 1, 3: -2}, "g''"),
        rel(6, 4, {3: 1, 5: 1}, "e'''"),
    ]
    cubic_mixed = [
        rel(3, -2, {0: 2, 1: -5, 2: 3}),
        rel(3, -2, {-1: 1, 1: -3, 2: 2}),
        rel(3, -1, {0: 5, 1: -6, 2: 1}),
        rel(3, 0, {-1: 1, 1: 2}),
        rel(3, 0, {-2: 1, 1: 5}),
        rel(3, 0, {-3: 1, 1: 9}),
        rel(3, 1, {-1: 1, 0: -2}),
        rel(3, 1, {-2: 1, 0: -3}),
        rel(3, 1, {-3: 3, -2: -4}),
    ]
    chains = {
        "a": [[3, 0, {1: 1, 2: -1}], [4, 1, {2: 1, 3: -1}], [5, 2, {3: 1, 4: -1}], [6, 3, {4: 1, 5: -1}]],
        "b": [[4, 0, {1: 5, 2: -6, 3: 1}], [5, 1, {2: 5, 3: -6, 4: 1}], [6, 2, {3: 5, 4: -6, 5: 1}]],
        "c": [[5, 0, {1: 1, 3: -3, 4: 2}], [6, 1, {2: 1, 4: -3, 5: 2}]],
        "d": [[5, 0, {2: 2, 3: -5, 4: 3}], [6, 1, {3: 2, 4: -5, 5: 3}]],
        "e": [[3, 1, {0: 1, 2: 1}], [4, 2, {1: 1, 3: 1}], [5, 3, {2: 1, 4: 1}], [6, 4, {3: 1, 5: 1}]],
        "f": [[4, 1, {0: 1, 2: 2}], [5, 2, {1: 1, 3: 2}], [6, 3, {2: 1, 4: 2}]],
        "g": [[4, 2, {0: 1, 1: -2}], [5, 3, {1: 1, 2: -2}], [6, 4, {2: 1, 3: -2}]],
        "h": [[5, 2, {0: 1, 3: 5}], [6, 3, {1: 1, 4: 5}]],
        "i": [[5, 3, {0: 1, 2: -3}], [6, 4, {1: 1, 3: -3}]],
    }
    chains = {
        k: [{"D": D, "delta": d, "alpha": {str(r): a for r, a in sorted(m.items())}} for D, d, m in v]
        for k, v in chains.items()
    }

    def grid(D, cols):
        return [{"D": D, "delta": 0, "alpha": {str(r): a for r, a in sorted(c.items())}} for c in cols]

    alpha4 = grid(4, [
        {3: 615, -5: -351, -6: 240}, {2: 615, -5: 64, -6: -35}, {1: 205, -5: 49, -6: -30},
        {-1: 123, -5: -55, -6: 32}, {-2: 205, -5: -192, -6: 105}, {-3: 205, -5: -267, -6: 130},
        {-4: 615, -5: -848, -6: 310},
        {3: 1, 2: -6, 1: 5}, {3: 1, 1: 8, -1: 3}, {2: 2, 1: 1, -1: 1},
        {3: 9, -1: -45, -2: 16}, {2: 9, -2: 1}, {1: 9, -1: 9, -2: -2},
        {3: 1, -2: -2, -3: 1}, {1: 15, -2: 8, -3: -3}, {-1: 45, -2: -34, -3: 9},
        {3: 67, -3: -77, -4: 45}, {2: 134, -3: 16, -4: -5}, {1: 67, -3: 25, -4: -12},
        {-1: 67, -3: -41, -4: 17}, {-2: 134, -3: -144, -4: 45},
        {3: 155, -4: -120, -5: 77}, {2: 310, -4: 35, -5: -16}, {1: 31, -4: 9, -5: -5},
        {-1: 155, -4: -80, -5: 41}, {-2: 310, -4: -315, -5: 144}, {-3: 155, -4: -195, -5: 67},
    ])
    alpha5 = grid(5, [
        {4: -1, 3: 2, 2: -2, 1: 1}, {4: 1, 2: -6, 1: 5}, {3: 1, 2: -4, 1: 3},
        {2: 4, -1: 1}, {3: 1, 1: 3, -1: 1}, {4: 2, 1: 10, -1: 3},
        {1: 28, -1: 21, -2: -4}, {3: 28, -1: -35, -2: 12},
        {4: 28, -1: -63, -2: 20}, {-1: 91, -2: -60, -3: 14}, {1: 182, -2: 64, -3: -21},
        {2: 182, -2: 30, -3: -7}, {3: 182, -2: -72, -3: 35}, {4: 26, -2: -20, -3: 9},
        {-2: 684, -3: -651, -4: 182}, {-1: 57, -3: -27, -4: 10}, {1: 342, -3: 75, -4: -32},
        {2: 228, -3: 27, -4: -10}, {3: 38, -3: -7, -4: 4}, {4: 171, -3: -66, -4: 35},
        {-3: 975, -4: -1100, -5: 342}, {-2: 650, -4: -525, -5: 217}, {-1: 975, -4: -350, -5: 162},
        {1: 13, -4: 2, -5: -1}, {2: 1950, -4: 175, -5: -81}, {3: 975, -4: -100, -5: 63},
        {4: 325, -4: -75, -5: 44},
    ])
    alpha6 = grid(6, [
        {5: 3, 4: -20, 3: 60, 2: -120, 1: 77}, {5: 1, 3: -30, 2: 160, 1: -81, -1: 10},
        {4: 2, 3: -15, 2: 60, 1: -32, -1: 3}, {5: 1, 2: -140, 1: -161, -1: -140, -2: 20},
        {4: 1, 2: -45, 1: -36, -1: -36, -2: 5}, {3: 3, 2: -30, 1: -8, -1: -15, -2: 2},
        {5: 3, 1: 1372, -1: 1680, -2: -640, -3: 105}, {4: 4, 1: 651, -1: 756, -2: -280, -3: 45},
        {3: 2, 1: 83, -1: 90, -2: -32, -3: 5}, {2: 12, 1: 53, -1: 60, -2: -20, -3: 3},
        {5: 125, -1: -67200, -2: 64800, -3: -29925, -4: 5488},
        {4: 125, -1: -25200, -2: 23800, -3: -10800, -4: 1953},
        {3: 125, -1: -6825, -2: 6300, -3: -2800, -4: 498},
        {2: 125, -1: -700, -2: 675, -3: -300, -4: 53},
        {1: 125, -1: 300, -2: -200, -3: 75, -4: -12},
    ])
    return {
        "relations": {
            "fundamental": fundamental,
            "by_delta": by_delta,
            "cubic_mixed": cubic_mixed,
            "inheritance_chains": chains,
            "alpha_grids": alpha4 + alpha5 + alpha6,
        }
    }


KNOWN_TYPOS = [
    {
        "table": "phi.7", "row": {"rho": -1}, "kind": "coefficient",
        "expt": {"r1": 3, "r2": 2}, "printed": "11968", "engine": "119168",
        "evidence": "printed sum-of-positive column 208530 matches the engine row; "
                    "random-multiset oracle agrees with the engine value",
    },
    {
        "table": "phi.7", "row": {"rho": -3}, "kind": "coefficient",
        "expt": {"r1": 1, "r2": 1, "r4": 1}, "printed": "65385", "engine": "65835",
        "evidence": "printed sum-of-positive column 1913499 matches the engine row",
    },
    {
        "table": "gw.n6", "row": {"j": 7}, "kind": "monomial",
        "coeff": "-7", "printed_expt": {"r2": 1, "r5": 1}, "engine_expt": {"r1": 1, "r6": 1},
        "evidence": "printed bar pattern duplicates the -105 term's monomial; exact "
                    "expansion and the random-multiset oracle give -7 on r1*r6",
    },
    {
        "table": "gw_deg.6", "row": {"n": 3}, "kind": "coefficient",
        "expt": {"r1": 2, "r2": 2}, "printed": "-243", "engine": "243",
        "evidence": "family-size collation prints +243 for the same cell",
    },
    {
        "table": "gw_deg.6", "row": {"n": 3}, "kind": "missing-term",
        "engine_term": {"expt": {"r3": 2}, "coeff": "1"},
        "evidence": "family-size collation prints the +1 term; duplicate rows disagree",
    },
    {
        "table": "gw_deg.7", "row": {"n": 3}, "kind": "coefficient",
        "expt": {"r1": 7}, "printed": "7294", "engine": "729",
        "evidence": "family-size collation prints 729 = 3^6 for the same cell",
    },
    {
        "table": "gw_deg.7", "row": {"n": 4}, "kind": "monomial",
        "coeff": "84", "printed_expt": {"r1": 1, "r2": 1, "r3": 1}, "engine_expt": {"r1": 1, "r2": 1, "r4": 1},
        "evidence": "printed monomial has weight 6 inside a weight-7 expansion; "
                    "family-size collation prints the weight-7 monomial",
    },
    {
        "table": "gw_deg.7", "row": {"n": 6}, "kind": "monomial",
        "coeff": "-7", "printed_expt": {"r2": 1, "r5": 1}, "engine_expt": {"r1": 1, "r6": 1},
        "evidence": "same cell as gw.n6 j=7",
    },
    {
        "table": "relations.quintic-summary", "row": {"label": "d"}, "kind": "index",
        "printed": "2@rho=2, -5@rho=2, 3@rho=4", "engine": "2@rho=2, -5@rho=3, 3@rho=4",
        "evidence": "the fundamental list prints the same relation with rho=3; "
                    "the printed form repeats rho=2 twice and does not annihilate",
    },
    {
        "table": "relations.third-derived", "row": {"label": "h'"}, "kind": "index",
        "printed": "1@rho=1, 5@rho=3 (D=6, delta=3)", "engine": "1@rho=1, 5@rho=4",
        "evidence": "the sextic summary prints rho=4 under label h'; only that form "
                    "annihilates, and it is the inheritance image of h",
    },
    {
        "table": "alpha.4", "row": {"support": [1, -2]}, "kind": "grid-entry",
        "printed": "support {1, -2} with (15, 8)", "engine": "support {1, -2, -3} with (15, 8, -3)",
        "evidence": "no relation exists on the printed support; the engine vector is "
                    "the unique single-entry completion inside the table window "
                    "(source grid alignment may be at fault rather than the table)",
    },
    {
        "table": "alpha.4", "row": {"support": [-1, -3, -4]}, "kind": "grid-entry",
        "printed": "41 at rho=-3", "engine": "-41 at rho=-3",
        "evidence": "unique relation on support {-1, -3, -4} is (67, -41, 17)",
    },
    {
        "table": "alpha.5", "row": {"support": [3, -4, -5]}, "kind": "grid-entry",
        "printed": "-300 at rho=-4", "engine": "-100 at rho=-4",
        "evidence": "unique relation on support {3, -4, -5} is (975, -100, 63)",
    },
    {
        "table": "alpha.6", "row": {"support": [-1, 1, 2, 3, 5]}, "kind": "grid-entry",
        "printed": "-10 at rho=-1", "engine": "+10 at rho=-1",
        "evidence": "unique relation on support {-1, 1, 2, 3, 5}",
    },
    {
        "table": "alpha.6", "row": {"support": [-2, -1, 1, 2, 3]}, "kind": "grid-entry",
        "printed": "-15 at rho=0 and 2 at rho=-1", "engine": "-15 at rho=-1 and 2 at rho=-2",
        "evidence": "a rho=0 entry multiplies the zero mean; the engine support "
                    "{-2, -1, 1, 2, 3} carries the unique matching relation",
    },
    {
        "table": "alpha.6", "row": {"support": [-4, -3, -2, -1, 5]}, "kind": "grid-entry",
        "printed": "67200 at rho=-1", "engine": "-67200 at rho=-1",
        "evidence": "unique relation on support {5, -1, -2, -3, -4}",
    },
]


def fixture_files():
    """File name -> the data written to it."""
    return {
        "phi_tables.json": phi_tables(),
        "gw_tables.json": gw_tables(),
        "gw_deg_tables.json": gw_deg_tables(),
        "relations_catalog.json": relations_catalog(),
        "known_typos.json": {"typos": KNOWN_TYPOS},
    }


def dump(data) -> str:
    return json.dumps(data, indent=1, sort_keys=True) + "\n"


def main():
    os.makedirs(OUT, exist_ok=True)
    for name, data in fixture_files().items():
        path = os.path.join(OUT, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(dump(data))
        print("wrote", path)


if __name__ == "__main__":
    main()
