"""The fixture files record the tables as published; the engine must match
them exactly except where the versioned typo ledger says otherwise."""

import hashlib
from importlib import resources

import pytest

from rootmean import cli, golden
from rootmean.relations import RelationVector

from oracles import from_json


def test_full_report_counts():
    report = golden.full_report()
    assert report.compared_rows == 126
    assert report.matches == 119
    assert report.clean


def test_catalog_relations_all_annihilate():
    entries = golden.catalog_relations()
    assert len(entries) > 100
    for entry in entries:
        # make raises RelationError unless the certificate proves the relation
        RelationVector.make(entry["D"], entry["delta"], entry["alpha"].items())


def test_catalog_covers_all_value_orders():
    deltas = {(e["D"], e["delta"]) for e in golden.catalog_relations()}
    for key in ((3, 1), (4, 2), (5, 3), (6, 4), (3, -2), (3, -1)):
        assert key in deltas


def test_fixture_terms_parse_as_polynomials():
    data = golden.load_fixture("phi_tables.json")["phi_tables"]
    row = data["4"]["rows"][2]  # rho = 1
    poly = from_json({"terms": row["terms"]})
    assert str(poly) == "-9 r1^4 + 18 r1^2 r2 - 4 r1 r3 - 6 r2^2 + 1 r4"


def test_typo_ledger_entries_have_evidence():
    typos = golden.load_fixture("known_typos.json")["typos"]
    assert len(typos) >= 10
    for t in typos:
        assert t["evidence"]
        assert t["table"]


# The fixtures are edited by hand; a change to one must update its digest here.
FIXTURE_SHA256 = {
    "gw_deg_tables.json": "d4758de0859219ed632068613e4155d7a66996a0a83f15917878c1b08665214b",
    "gw_tables.json": "2431cc1a4cc2c6af8bbc6a9b5a70ac8365bbc8745dd043104d6cd5678823ff71",
    "known_typos.json": "15284c71a5096f982a9aa35324441459aca36b450e20d563bf2075612aadeae7",
    "phi_tables.json": "f35e1848ebad929e85467d4284886a2bf9da1d3d600e159b23cfb8b530b1bf16",
    "relations_catalog.json": "d23b5bd26cdf8de19c0b546074d9d80461881658c0d9d2a0a9c5ee4bf7567340",
}


def test_fixture_bytes_are_pinned():
    fixtures = resources.files("rootmean.fixtures")
    assert sorted(f.name for f in fixtures.iterdir() if f.name.endswith(".json")) == sorted(FIXTURE_SHA256)
    for name, digest in FIXTURE_SHA256.items():
        assert hashlib.sha256(fixtures.joinpath(name).read_bytes()).hexdigest() == digest, name


def edit_fixture(monkeypatch, name, edit):
    """Make ``golden.load_fixture`` apply ``edit`` to the data of fixture ``name``."""
    real = golden.load_fixture

    def load(n):
        data = real(n)
        if n == name:
            edit(data)
        return data

    monkeypatch.setattr(golden, "load_fixture", load)


def unexplained_rows():
    return [(d.table, d.row) for d in golden.full_report().unexplained]


def phi_row(data, D, rho):
    return next(r for r in data["phi_tables"][str(D)]["rows"] if r["rho"] == rho)


def wrong_coefficient(data):
    # a second error in a row with a ledgered typo; the term is negative, so
    # the row's sum-of-positive checksum cannot see it
    row = phi_row(data, 7, -1)
    next(t for t in row["terms"] if t["expt"] == {"r1": 5, "r2": 1})["coeff"] = "-114689"


def repeated_term(data):
    row = phi_row(data, 4, 1)
    row["terms"].append(dict(row["terms"][0]))


@pytest.mark.parametrize("plant, row", [
    (wrong_coefficient, ("phi.7", {"rho": -1})),
    (repeated_term, ("phi.4", {"rho": 1})),
])
def test_planted_error_is_unexplained(monkeypatch, plant, row):
    edit_fixture(monkeypatch, "phi_tables.json", plant)
    assert unexplained_rows() == [row]
    assert cli.main(["verify", "--conjecture", "tables"]) == cli.EXIT_VERIFY_FAIL


def test_ledger_is_exact_both_ways(monkeypatch):
    typos = golden.load_fixture("known_typos.json")["typos"]
    term_typos = [t for t in typos if t["table"].startswith(("phi.", "gw.", "gw_deg."))]
    known = [d for d in golden.full_report().discrepancies if d.known]
    assert (len(term_typos), len(known)) == (8, 7)
    # the entries sit on exactly the known rows, and each one is needed there
    assert {(t["table"], str(t["row"])) for t in term_typos} == {(d.table, str(d.row)) for d in known}
    for typo in term_typos:
        with monkeypatch.context() as m:
            edit_fixture(m, "known_typos.json", lambda data: data["typos"].remove(typo))
            assert unexplained_rows() == [(typo["table"], typo["row"])]
    labels = [t["row"]["label"] for t in typos if t["table"].startswith("relations.")]
    assert sorted(labels) == ["d", "h'"]
    assert set(labels) <= {e["label"] for e in golden.catalog_relations()}
