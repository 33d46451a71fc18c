import argparse
import json

import pytest

from rootmean import means, numeric, relations
from rootmean.cli import (
    EXIT_CONFIG,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_VERIFY_FAIL,
    HARD_DEGREE_CAP,
    ConfigError,
    check_degree,
    main,
    parse_relation_spec,
    parse_rho_window,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    return code, json.loads(out), err


def test_parse_rho_window():
    assert list(parse_rho_window("-7..2")) == list(range(-7, 3))
    assert list(parse_rho_window("3")) == [3]
    with pytest.raises(Exception):
        parse_rho_window("5..1")


def test_parse_relation_spec():
    assert parse_relation_spec("5:1,-6:2,1:3") == {1: 5, 2: -6, 3: 1}


def test_gw_table_sum_column(capsys):
    code, blob, _ = run_json(capsys, "gw", "--n", "3", "--max-deg", "7")
    assert code == EXIT_OK
    sums = [row["sum_positive"] for row in blob["rows"]]
    assert sums == ["1", "3", "10", "37", "141", "541", "2080"]
    assert blob["seed"] == 42


def test_gw_single_element_family(capsys):
    code, blob, _ = run_json(capsys, "gw", "--n", "1", "--max-deg", "3")
    assert code == EXIT_OK
    assert blob["rows"][2]["terms"] == [{"coeff": "1", "expt": {"r1": 3}}]


def test_phi_table_json(capsys):
    code, blob, _ = run_json(capsys, "phi", "--D", "4", "--delta", "0")
    assert code == EXIT_OK
    by_rho = {row["rho"]: row for row in blob["rows"]}
    assert by_rho[1]["terms"][0] == {"coeff": "-9", "expt": {"r1": 4}}
    assert by_rho[-6]["sum_positive"] == "1283"


def test_phi_zero_row(capsys):
    code, blob, _ = run_json(capsys, "phi", "--D", "2", "--delta", "0", "--rho", "0..0")
    assert code == EXIT_OK
    assert blob["rows"][0]["terms"] == []
    assert blob["rows"][0]["sum_positive"] == "0"


def test_phi_bad_window(capsys):
    code, _, err = run(capsys, "phi", "--D", "3", "--rho", "3..3")
    assert code == EXIT_CONFIG
    assert "empty root family" in err


def test_relations_sextic(capsys):
    code, blob, _ = run_json(capsys, "relations", "--D", "6")
    assert code == EXIT_OK
    assert blob["dim"] == 1
    assert blob["basis"][0]["alpha"] == [77, -120, 60, -20, 3]
    assert blob["zero_sum_ok"] is True
    assert blob["catalog_failures"] == []


def test_relations_degree_two_empty(capsys):
    code, blob, _ = run_json(capsys, "relations", "--D", "2")
    assert code == EXIT_OK
    assert blob["dim"] == 0 and blob["basis"] == []


def test_relations_mixed_order(capsys):
    code, blob, _ = run_json(
        capsys, "relations", "--D", "5", "--delta", "2", "--rho", "0..4"
    )
    assert code == EXIT_OK
    supports = {tuple(r["support"]): tuple(r["alpha"]) for r in blob["minimal_support"]}
    assert supports[(0, 3)] == (1, 5)


def test_verify_dimension(capsys):
    code, blob, _ = run_json(capsys, "verify", "--conjecture", "dimension", "--max-degree", "8")
    assert code == EXIT_OK
    assert blob["pass"] is True
    assert blob["dims"] == [0, 1, 1, 2, 1, 2, 1]


def test_verify_dimension_independent_of_threads(capsys):
    outs = []
    for threads in ("1", "2"):
        # cold caches, so each thread count computes every degree itself
        means.phi.cache_clear()
        relations.relation_space_dim.cache_clear()
        code, out, _ = run(
            capsys, "verify", "--conjecture", "dimension", "--max-degree", "12",
            "--threads", threads, "--format", "json",
        )
        assert code == EXIT_OK
        outs.append(out)
    assert outs[0] == outs[1]


def test_threads_only_on_verify():
    with pytest.raises(SystemExit) as exc:
        main(["gw", "--n", "2", "--max-deg", "3", "--threads", "2"])
    assert exc.value.code == EXIT_CONFIG


def test_verify_odd_binomial(capsys):
    code, blob, _ = run_json(capsys, "verify", "--conjecture", "odd-binomial", "--max-degree", "9")
    assert code == EXIT_OK and blob["pass"] is True


def test_verify_prop5(capsys):
    code, blob, _ = run_json(capsys, "verify", "--conjecture", "prop5", "--max-degree", "7")
    assert code == EXIT_OK and blob["pass"] is True


def test_verify_tables(capsys):
    code, blob, _ = run_json(capsys, "verify", "--conjecture", "tables")
    assert code == EXIT_OK
    assert blob["tables"]["clean"] is True
    assert blob["tables"]["unexplained"] == []


def test_numeric_check_auto(capsys):
    code, blob, _ = run_json(
        capsys, "numeric-check", "--auto", "--D", "4", "--samples", "60", "--seed", "7"
    )
    assert code == EXIT_OK
    assert blob["pass"] is True
    assert blob["reports"][0]["max_rel_residual"] <= 1e-8
    assert blob["reports"][0]["seed"] == 7


def test_numeric_check_explicit_relation(capsys):
    code, blob, _ = run_json(
        capsys, "numeric-check", "--relation", "5:1,-6:2,1:3", "--D", "4",
        "--samples", "40", "--seed", "3",
    )
    assert code == EXIT_OK and blob["pass"] is True


def test_numeric_check_zero_samples_warns(capsys):
    code, out, _ = run(
        capsys, "numeric-check", "--relation", "5:1,-6:2,1:3", "--D", "4", "--samples", "0"
    )
    assert code == EXIT_OK
    assert "vacuously" in out


@pytest.mark.parametrize(
    "argv",
    [
        ("numeric-check", "--relation", "5-1", "--D", "4"),
        ("phi", "--D", "4", "--rho", "3..x"),
        ("numeric-check", "--auto", "--D", "4", "--samples", "-5"),
        ("mine", "--k-max", "1", "--d-sweep", "5"),
        ("numeric-check", "--conjecture", "relative-rates", "--max-degree", "1"),
        ("numeric-check", "--conjecture", "relative-rates", "--max-degree", "0"),
        ("numeric-check", "--conjecture", "translation", "--max-degree", "1"),
        ("numeric-check", "--conjecture", "translation", "--max-degree", "31", "--samples", "1"),
        ("verify", "--conjecture", "odd-binomial", "--max-degree", "2"),
        ("verify", "--conjecture", "prop5", "--max-degree", "2"),
    ],
    ids=[
        "relation-spec", "rho-window", "negative-samples", "k-max-below-2",
        "relative-rates-degree-1", "relative-rates-degree-0", "translation-degree-1",
        "translation-above-cap", "odd-binomial-nothing-to-check", "prop5-nothing-to-check",
    ],
)
def test_bad_input_is_a_config_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_CONFIG
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert out == ""


def test_numeric_failure_exit_code(monkeypatch, capsys):
    def fail(*args):
        raise numeric.RootFindingError("forced")

    monkeypatch.setattr(numeric, "relative_rates_report", fail)
    code, out, err = run(
        capsys, "numeric-check", "--conjecture", "relative-rates", "--max-degree", "3"
    )
    assert code == EXIT_NUMERIC
    assert err == "numeric failure: forced\n"
    assert out == ""


def test_numeric_check_needs_target(capsys):
    code, _, err = run(capsys, "numeric-check", "--samples", "5")
    assert code == EXIT_CONFIG


def test_numeric_check_relative_rates(capsys):
    code, blob, _ = run_json(
        capsys, "numeric-check", "--conjecture", "relative-rates",
        "--max-degree", "6", "--samples", "40",
    )
    assert code == EXIT_OK and blob["pass"] is True


def test_mine_small_sweep(capsys):
    code, blob, _ = run_json(capsys, "mine", "--k-max", "4", "--d-sweep", "12")
    assert code == EXIT_OK
    assert blob["sequences"]["lcd"]["values"] == ["1", "2", "24"]
    assert blob["structure"]["4"]["irreducible"] is True


def test_mine_stable_at_degree_cap(capsys):
    # the held-out rule: sweeping two degrees further changes no mined value
    seqs = []
    for d_sweep in (HARD_DEGREE_CAP - 2, HARD_DEGREE_CAP):
        code, blob, _ = run_json(capsys, "mine", "--k-max", "10", "--d-sweep", str(d_sweep))
        assert code == EXIT_OK
        seqs.append({name: s["values"] for name, s in blob["sequences"].items()})
    assert seqs[0] == seqs[1]
    assert len(seqs[0]["lcd"]) == len(seqs[0]["leading"]) == 9


def test_mine_bfile_comparison(tmp_path, capsys):
    # cross-check against a locally supplied b-file in the standard format
    path = tmp_path / "b.txt"
    path.write_text("# values\n1 1\n2 2\n3 24\n", encoding="utf-8")
    code, blob, _ = run_json(
        capsys, "mine", "--k-max", "4", "--d-sweep", "12",
        "--oeis-bfile", str(path), "--oeis-bfile-for", "lcd",
    )
    assert code == EXIT_OK
    assert blob["bfile"]["lcd"]["matched"] == 3


def test_mine_config_error(capsys):
    code, _, err = run(capsys, "mine", "--k-max", "8", "--d-sweep", "10")
    assert code == EXIT_CONFIG
    assert "d-sweep" in err


def test_degree_cap(capsys):
    code, _, err = run(capsys, "phi", "--D", "31")
    assert code == EXIT_CONFIG
    assert "cap" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("phi", "--D", "5", "--rho", "1"),
        ("relations", "--D", "5"),
        ("numeric-check", "--auto", "--D", "5"),
        ("numeric-check", "--relation", "1:1,-1:2", "--D", "5"),
    ],
    ids=["phi", "relations", "numeric-auto", "numeric-relation"],
)
def test_value_order_degree_cap(capsys, argv):
    # D - delta is the degree of every phi monomial; delta=-50 used to run unbounded
    code, out, err = run(capsys, *argv, "--delta", "-50")
    assert code == EXIT_CONFIG
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert "55" in err and "cap" in err
    assert out == ""


def test_value_order_cap_boundary_and_override():
    assert check_degree(5, argparse.Namespace(delta=5 - HARD_DEGREE_CAP)) is None
    with pytest.raises(ConfigError):
        check_degree(5, argparse.Namespace(delta=4 - HARD_DEGREE_CAP))
    assert check_degree(5, argparse.Namespace(delta=-50, unsafe_degree=True)) is None


def test_output_files_and_determinism(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        code, _, _ = run(
            capsys, "numeric-check", "--auto", "--D", "5", "--samples", "30",
            "--seed", "42", "--format", "json", "--output", str(path),
        )
        assert code == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_csv_output(capsys):
    code, out, _ = run(capsys, "gw", "--n", "2", "--max-deg", "3", "--format", "csv")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "n,j,terms,sum_positive"
    assert len(lines) == 4


def test_relations_exit_one_on_catalog_failure(monkeypatch, capsys):
    # a golden-catalog relation that no longer annihilates must flip the exit code
    from rootmean import golden

    bogus = {"section": "fundamental", "D": 4, "delta": 0, "alpha": {1: 1, 2: 1}, "label": None}
    real = golden.catalog_relations

    def patched():
        return real() + [bogus]

    monkeypatch.setattr("rootmean.cli.golden.catalog_relations", patched)
    code, blob, _ = run_json(capsys, "relations", "--D", "4")
    assert code == EXIT_VERIFY_FAIL
    assert blob["catalog_failures"]


def test_exit_code_on_failing_bfile(tmp_path, capsys):
    path = tmp_path / "b.txt"
    path.write_text("1 999\n2 999\n3 999\n", encoding="utf-8")
    code, _, _ = run(
        capsys, "mine", "--k-max", "4", "--d-sweep", "12",
        "--oeis-bfile", str(path), "--oeis-bfile-for", "lcd", "--format", "json",
    )
    assert code == EXIT_VERIFY_FAIL
