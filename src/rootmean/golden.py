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


def _tables(name: str):
    """(number, table) for each table of a fixture, in ascending number."""
    data = load_fixture(f"{name}.json")[name]
    return sorted((int(k), table) for k, table in data.items())


def _printed_rows():
    """(table, row id, printed row, engine polynomial, D) for every printed row:
    the mean-value tables (degrees 2..7), then both power-sum collations (by
    family size and by degree)."""
    for D, table in _tables("phi_tables"):
        for row in table["rows"]:
            yield f"phi.{D}", {"rho": row["rho"]}, row, phi(PhiKey(D, table["delta"], row["rho"])).poly, D
    for n, table in _tables("gw_tables"):
        for row in table["rows"]:
            yield f"gw.n{n}", {"j": row["j"]}, row, power_sum_mean(row["j"], n), None
    for j, table in _tables("gw_deg_tables"):
        for row in table["rows"]:
            yield f"gw_deg.{j}", {"n": row["n"]}, row, power_sum_mean(j, row["n"]), None


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
    """Engine vs every printed row: its terms, then its sum of positive coefficients."""
    report = DiscrepancyReport()
    typos = _typo_index()
    for table, row_id, row, poly, D in _printed_rows():
        report.compared_rows += 1
        pset, eset = _term_set(row["terms"]), _term_set(poly.to_json(D)["terms"])
        if pset == eset:
            report.matches += 1
        else:
            known = any(_row_matches_typo(t.get("row", {}), row_id) for t in typos.get(table, []))
            report.discrepancies.append(
                Discrepancy(table, row_id, sorted(pset - eset), sorted(eset - pset), known=known)
            )
        if str(poly.sum_positive()) != row["sum_positive"]:
            report.discrepancies.append(
                Discrepancy(table, {**row_id, "field": "sum_positive"},
                            [row["sum_positive"]], [str(poly.sum_positive())])
            )
    return report
