"""The fixture files record the tables as published; the engine must match
them exactly except where the versioned typo ledger says otherwise."""

import importlib.util
import os

from rootmean import golden
from rootmean.relations import RelationVector, check_inheritance

from oracles import from_json


def discrepancies(prefix):
    """(rows compared, discrepancies) of ``full_report`` in the tables whose
    name starts with prefix."""
    report = golden.full_report()
    rows = sum(1 for table, *_ in golden._printed_rows() if table.startswith(prefix))
    return rows, [d for d in report.discrepancies if d.table.startswith(prefix)]


def test_phi_tables_reproduce():
    rows, found = discrepancies("phi.")
    assert rows == 60
    # exactly the two ledgered coefficient typos
    assert len(found) == 2
    assert all(d.known for d in found), [d.describe() for d in found]


def test_gw_tables_reproduce():
    _, found = discrepancies("gw")
    assert all(d.known for d in found), [d.describe() for d in found]
    assert len(found) == 5  # one in the family-size collation, four cells in the degree collation


def test_full_report_counts():
    report = golden.full_report()
    assert report.compared_rows == 126
    assert report.matches == 119
    assert report.clean


def test_catalog_relations_all_annihilate():
    entries = golden.catalog_relations()
    assert len(entries) > 100
    for entry in entries:
        rel = RelationVector.make(entry["D"], entry["delta"], entry["alpha"].items())
        assert rel.verify()


def test_catalog_covers_all_value_orders():
    deltas = {(e["D"], e["delta"]) for e in golden.catalog_relations()}
    for key in ((3, 1), (4, 2), (5, 3), (6, 4), (3, -2), (3, -1)):
        assert key in deltas


def test_inheritance_chains_verify():
    chains = golden.inheritance_chains()
    assert set(chains) == set("abcdefghi")
    for label, chain in chains.items():
        for idx, entry in enumerate(chain):
            rel = RelationVector.make(entry["D"], entry["delta"], entry["alpha"].items())
            assert rel.verify()
            if idx + 1 < len(chain):
                nxt = chain[idx + 1]
                assert nxt["D"] == entry["D"] + 1
                assert nxt["delta"] == entry["delta"] + 1
                assert nxt["alpha"] == {r + 1: a for r, a in entry["alpha"].items()}
                assert check_inheritance(rel)


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


def test_fixture_generator_reproduces_fixtures():
    # load the generator as a module: its main() would overwrite the fixtures
    path = os.path.join(os.path.dirname(__file__), "..", "tools", "make_fixtures.py")
    spec = importlib.util.spec_from_file_location("make_fixtures", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    files = tool.fixture_files()
    assert len(files) == 5
    for name, data in files.items():
        with open(os.path.join(tool.OUT, name), encoding="utf-8") as fh:
            assert tool.dump(data) == fh.read(), name
