"""Golden-fixture loading and the printed-vs-engine discrepancy report.

The fixture JSON files record the published tables *as printed* (hand-set
tables contain a handful of typos).  Comparison against the engine therefore
distinguishes three outcomes per table cell: match, known discrepancy (listed
in known_typos.json with its justification), and unexplained mismatch.  A
clean run has zero unexplained mismatches; the known list is versioned with
the fixtures.

Coefficients printed as 0 are omitted from fixtures (a zero coefficient is
the absent term in canonical form).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from importlib import resources

from .means import PhiKey, phi
from .powersums import power_sum_mean


def load_fixture(name: str) -> dict:
    with resources.files("rootmean.fixtures").joinpath(name).open("r", encoding="utf-8") as fh:
        return json.load(fh)


def _term_key(t):
    return (tuple(sorted(t["expt"].items())), str(t["coeff"]))


def _term_set(terms):
    return {_term_key(t) for t in terms}


@dataclass
class Discrepancy:
    table: str
    row: dict
    printed_only: list
    engine_only: list
    known: bool = False

    def describe(self) -> str:
        mark = "known typo" if self.known else "UNEXPLAINED"
        return (
            f"[{mark}] {self.table} {self.row}: printed {self.printed_only} "
            f"vs engine {self.engine_only}"
        )


@dataclass
class DiscrepancyReport:
    compared_rows: int = 0
    matches: int = 0
    discrepancies: list = field(default_factory=list)

    @property
    def unexplained(self) -> list:
        return [d for d in self.discrepancies if not d.known]

    @property
    def clean(self) -> bool:
        return not self.unexplained

    def to_json(self) -> dict:
        return {
            "compared_rows": self.compared_rows,
            "matches": self.matches,
            "known_typos": [d.describe() for d in self.discrepancies if d.known],
            "unexplained": [d.describe() for d in self.unexplained],
            "clean": self.clean,
        }


def _typo_index():
    data = load_fixture("known_typos.json")["typos"]
    index = {}
    for t in data:
        index.setdefault(t["table"], []).append(t)
    return index


def _row_matches_typo(typo_row: dict, row_id: dict) -> bool:
    return all(row_id.get(k) == v for k, v in typo_row.items())


def _compare_terms(report, typos, table, row_id, printed_terms, engine_terms):
    report.compared_rows += 1
    pset, eset = _term_set(printed_terms), _term_set(engine_terms)
    if pset == eset:
        report.matches += 1
        return
    printed_only = sorted(pset - eset)
    engine_only = sorted(eset - pset)
    known = any(_row_matches_typo(t.get("row", {}), row_id) for t in typos.get(table, []))
    report.discrepancies.append(
        Discrepancy(table, row_id, printed_only, engine_only, known=known)
    )


def check_phi_tables(report: DiscrepancyReport | None = None) -> DiscrepancyReport:
    """Engine vs the printed mean-value tables (degrees 2..7, all printed rows)."""
    report = report or DiscrepancyReport()
    typos = _typo_index()
    data = load_fixture("phi_tables.json")["phi_tables"]
    for dstr, table in sorted(data.items(), key=lambda kv: int(kv[0])):
        D = int(dstr)
        for row in table["rows"]:
            res = phi(PhiKey(D, table["delta"], row["rho"]))
            row_id = {"rho": row["rho"]}
            _compare_terms(
                report, typos, f"phi.{D}", row_id, row["terms"], res.poly.to_json(D)["terms"]
            )
            if str(res.sum_positive) != row["sum_positive"]:
                report.discrepancies.append(
                    Discrepancy(f"phi.{D}", {**row_id, "field": "sum_positive"},
                                [row["sum_positive"]], [str(res.sum_positive)])
                )
    return report


def check_gw_tables(report: DiscrepancyReport | None = None) -> DiscrepancyReport:
    """Engine vs both printed power-sum collations (by family size and by degree)."""
    report = report or DiscrepancyReport()
    typos = _typo_index()
    data = load_fixture("gw_tables.json")["gw_tables"]
    for nstr, table in sorted(data.items(), key=lambda kv: int(kv[0])):
        n = int(nstr)
        for row in table["rows"]:
            p = power_sum_mean(row["j"], n)
            _compare_terms(
                report, typos, f"gw.n{n}", {"j": row["j"]}, row["terms"], p.to_json()["terms"]
            )
            if str(p.sum_positive()) != row["sum_positive"]:
                report.discrepancies.append(
                    Discrepancy(f"gw.n{n}", {"j": row["j"], "field": "sum_positive"},
                                [row["sum_positive"]], [str(p.sum_positive())])
                )
    deg = load_fixture("gw_deg_tables.json")["gw_deg_tables"]
    for jstr, table in sorted(deg.items(), key=lambda kv: int(kv[0])):
        j = int(jstr)
        for row in table["rows"]:
            p = power_sum_mean(j, row["n"])
            _compare_terms(
                report, typos, f"gw_deg.{j}", {"n": row["n"]}, row["terms"], p.to_json()["terms"]
            )
    return report


def catalog_relations():
    """All printed relation vectors from the fixture catalog, as dicts."""
    data = load_fixture("relations_catalog.json")["relations"]
    out = []
    for section in ("fundamental", "by_delta", "cubic_mixed", "alpha_grids"):
        for entry in data[section]:
            out.append(
                {
                    "section": section,
                    "D": entry["D"],
                    "delta": entry["delta"],
                    "alpha": {int(r): a for r, a in entry["alpha"].items()},
                    "label": entry.get("label"),
                }
            )
    return out


def inheritance_chains():
    data = load_fixture("relations_catalog.json")["relations"]["inheritance_chains"]
    return {
        label: [
            {"D": e["D"], "delta": e["delta"], "alpha": {int(r): a for r, a in e["alpha"].items()}}
            for e in chain
        ]
        for label, chain in data.items()
    }


def full_report() -> DiscrepancyReport:
    report = DiscrepancyReport()
    check_phi_tables(report)
    check_gw_tables(report)
    return report
