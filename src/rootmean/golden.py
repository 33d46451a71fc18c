"""Golden-fixture loading and the printed-vs-engine discrepancy report.

The fixture JSON files are hand-audited records of the published tables *as
printed*, typos included: audited row by row against the published text, with
each row's sum-of-positive-coefficients column as its checksum, edited by
hand, and never regenerated from the engine.  known_typos.json is the ledger
of every printed-vs-engine difference, each with its evidence.  A differing
row is a known discrepancy only when its ledger entries, applied to the
engine's terms, give exactly the printed terms; a clean run has no other.

Coefficients printed as 0 are omitted from fixtures (a zero coefficient is
the absent term in canonical form).
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from importlib import resources

from .means import PhiKey, phi
from .powersums import power_sum_mean


def load_fixture(name: str) -> dict:
    with resources.files("rootmean.fixtures").joinpath(name).open("r", encoding="utf-8") as fh:
        return json.load(fh)


def _term_key(expt: dict, coeff):
    return (tuple(sorted(expt.items())), str(coeff))


def _terms(terms) -> Counter:
    """The terms as a multiset, so a term printed twice is a difference."""
    return Counter(_term_key(t["expt"], t["coeff"]) for t in terms)


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


def _typo_swap(t: dict):
    """(engine term, the printed terms that replace it) of a term-level ledger entry."""
    if t["kind"] == "coefficient":
        return _term_key(t["expt"], t["engine"]), {_term_key(t["expt"], t["printed"])}
    if t["kind"] == "monomial":
        return _term_key(t["engine_expt"], t["coeff"]), {_term_key(t["printed_expt"], t["coeff"])}
    return _term_key(**t["engine_term"]), set()  # missing-term


def _explained(eset: Counter, pset: Counter, typos) -> bool:
    """True iff the ledger entries, applied to the engine's terms, give the printed terms."""
    terms = Counter(eset)
    for engine, printed in map(_typo_swap, typos):
        if not terms[engine]:
            return False
        terms[engine] -= 1
        terms.update(printed)
    return +terms == pset


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
    typos = load_fixture("known_typos.json")["typos"]
    for table, row_id, row, poly, D in _printed_rows():
        report.compared_rows += 1
        pset, eset = _terms(row["terms"]), _terms(poly.to_json(D)["terms"])
        if pset == eset:
            report.matches += 1
        else:
            ledgered = [t for t in typos if t["table"] == table and t["row"] == row_id]
            report.discrepancies.append(
                Discrepancy(table, row_id, sorted((pset - eset).elements()),
                            sorted((eset - pset).elements()),
                            known=_explained(eset, pset, ledgered))
            )
        if str(poly.sum_positive()) != row["sum_positive"]:
            report.discrepancies.append(
                Discrepancy(table, {**row_id, "field": "sum_positive"},
                            [row["sum_positive"]], [str(poly.sum_positive())])
            )
    return report
