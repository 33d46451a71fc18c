import argparse
import hashlib
import json
import math
import threading
from fractions import Fraction

import pytest

from rootmean import cli, means, mining, numeric, relations
from rootmean.cli import (
    EXIT_CONFIG,
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


def test_uncertified_dimension_exits_one(monkeypatch, capsys):
    # bounds that cannot meet are a verification failure, never a reported dim
    monkeypatch.setattr(relations, "mean_values", lambda a, ns, s: [Fraction(0)] * len(ns))
    code, out, err = run(capsys, "verify", "--conjecture", "dimension", "--max-degree", "6")
    assert code == EXIT_VERIFY_FAIL
    assert out == ""
    assert err.startswith("verification failure: ") and err.count("\n") == 1
    assert "not certified" in err
    with pytest.raises(relations.RelationError):
        relations.relation_space_dim(6)


PLANTED_EVALUATOR_FAULTS = {
    "no 1/n": lambda a, ns, s: [v * n for v, n in zip(means.mean_values(a, ns, s), ns)],
    "family one degree too large": lambda a, ns, s: means.mean_values(
        a, [n + 1 for n in ns], list(s) + [0]
    ),
}


@pytest.mark.parametrize("fault", PLANTED_EVALUATOR_FAULTS)
def test_planted_evaluator_faults_are_caught(monkeypatch, capsys, fault):
    # both callers of the one exact evaluator must fail loudly when it is wrong
    monkeypatch.setattr(relations, "mean_values", PLANTED_EVALUATOR_FAULTS[fault])
    monkeypatch.setattr(mining, "mean_values", PLANTED_EVALUATOR_FAULTS[fault])
    code, _, _ = run(capsys, "verify", "--conjecture", "dimension", "--max-degree", "9")
    assert code == EXIT_VERIFY_FAIL
    code, _, _ = run(capsys, "mine", "--k-max", "3", "--d-sweep", "7")
    assert code == EXIT_VERIFY_FAIL


def test_dimension_sweep_sequential_by_default(monkeypatch, capsys):
    # the sweep runs in the calling thread, whatever --threads says
    def no_thread(self):
        raise AssertionError("thread started")

    monkeypatch.setattr(threading.Thread, "start", no_thread)
    for extra in ((), ("--threads", "0"), ("--threads", "4")):
        code, blob, _ = run_json(
            capsys, "verify", "--conjecture", "dimension", "--max-degree", "8", *extra
        )
        assert code == EXIT_OK and blob["dims"] == [0, 1, 1, 2, 1, 2, 1]


def test_verify_dimension_independent_of_threads(capsys):
    # --threads is still parsed and is ignored: the output is byte-identical
    outs = []
    for extra in ((), ("--threads", "1"), ("--threads", "2")):
        code, out, _ = run(
            capsys, "verify", "--conjecture", "dimension", "--max-degree", "12", *extra, "--format", "json"
        )
        assert code == EXIT_OK
        outs.append(out)
    assert outs[0] == outs[1] == outs[2]


def test_threads_only_on_verify():
    with pytest.raises(SystemExit) as exc:
        main(["gw", "--n", "2", "--max-deg", "3", "--threads", "2"])
    assert exc.value.code == EXIT_CONFIG


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--conjecture", "odd-binomial"],
        ["numeric-check", "--D", "4", "--relation", "5:1,-6:2,1:3", "--samples", "3"],
    ],
    ids=["verify", "numeric-check"],
)
def test_csv_only_on_table_commands(argv):
    # these commands have no rows to write, so csv would print nothing
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--format", "csv"])
    assert exc.value.code == EXIT_CONFIG


def test_verify_tables(capsys):
    code, blob, _ = run_json(capsys, "verify", "--conjecture", "tables")
    assert code == EXIT_OK
    assert blob["tables"]["clean"] is True
    assert blob["tables"]["unexplained"] == []


def test_verify_inheritance_checks_each_delta(monkeypatch, capsys):
    # at delta >= D phi is constant and any zero-sum alpha holds, so a link
    # must step delta by one as well as D
    chain = [
        {"D": 4, "delta": 0, "alpha": {1: 5, 2: -6, 3: 1}},
        {"D": 5, "delta": 5, "alpha": {2: 5, 3: -6, 4: 1}},
        {"D": 6, "delta": 2, "alpha": {3: 5, 4: -6, 5: 1}},
    ]
    monkeypatch.setattr("rootmean.cli.golden.inheritance_chains", lambda: {"b": chain})
    code, blob, _ = run_json(capsys, "verify", "--conjecture", "inheritance", "--max-degree", "9")
    assert code == EXIT_VERIFY_FAIL
    assert blob["inheritance"] == {"b": False}


def test_verify_inheritance_rejects_a_link_that_is_no_relation(monkeypatch, capsys):
    # the second link is the first shifted, but at delta = 0, where 5, -6, 1
    # over rho = 2..4 does not annihilate
    chain = [
        {"D": 4, "delta": 0, "alpha": {1: 5, 2: -6, 3: 1}},
        {"D": 5, "delta": 0, "alpha": {2: 5, 3: -6, 4: 1}},
    ]
    monkeypatch.setattr("rootmean.cli.golden.inheritance_chains", lambda: {"b": chain})
    code, out, err = run(capsys, "verify", "--conjecture", "inheritance")
    assert code == EXIT_VERIFY_FAIL
    assert err.startswith("verification failure: ") and err.count("\n") == 1
    assert out == ""


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


def test_numeric_check_passes_exact_zero_means(capsys):
    # phi(D, delta, delta), phi(D, 1, 1) and phi(D, D-1, rho) are 0 exactly, and their
    # rounding grows like D!/(D-delta)!: it is read against the rounding scale, not as 1
    for D in range(2, 13):
        for delta in range(1, D + 1):
            code, out, err = run(
                capsys, "numeric-check", "--auto", "--D", str(D), "--delta", str(delta),
                "--samples", "20",
            )
            assert code == EXIT_OK or "no relation" in err, (D, delta, out)
    code, blob, _ = run_json(capsys, "numeric-check", "--auto", "--D", "7", "--delta", "6")
    assert code == EXIT_OK and blob["pass"]
    for argv in (
        ("--relation", "1:1", "--D", "8", "--delta", "7"),
        ("--auto", "--D", "30", "--delta", "29", "--unsafe-degree", "--samples", "20"),
    ):
        code, blob, _ = run_json(capsys, "numeric-check", *argv)
        assert code == EXIT_OK and blob["pass"], argv


@pytest.mark.parametrize(
    "argv",
    [
        ("--relation", "1:1,-1:2", "--D", "9", "--delta", "1"),
        ("--relation", "1:2", "--D", "20", "--delta", "1"),
        # at delta == D the averaged f^(D) = D! is constant: sum(alpha) != 0 fails
        ("--relation", "1:1,1:2", "--D", "3", "--delta", "3"),
    ],
)
def test_numeric_check_still_fails_false_relations(capsys, argv):
    code, blob, _ = run_json(capsys, "numeric-check", *argv, "--samples", "20")
    assert code == EXIT_VERIFY_FAIL and not blob["pass"]


@pytest.mark.parametrize(
    "argv",
    [
        ("numeric-check", "--relation", "5-1", "--D", "4"),
        ("phi", "--D", "4", "--rho", "3..x"),
        ("numeric-check", "--auto", "--D", "4", "--samples", "-5"),
        ("numeric-check", "--relation", "5:1,-6:2,1:3", "--D", "4", "--samples", "0"),
        ("mine", "--k-max", "1", "--d-sweep", "5"),
        ("numeric-check", "--conjecture", "relative-rates", "--max-degree", "1"),
        ("numeric-check", "--conjecture", "relative-rates", "--max-degree", "0"),
        ("numeric-check", "--conjecture", "translation", "--max-degree", "1"),
        ("numeric-check", "--conjecture", "translation", "--max-degree", "31", "--samples", "1"),
        ("verify", "--conjecture", "odd-binomial", "--max-degree", "2"),
        ("verify", "--conjecture", "prop5", "--max-degree", "2"),
        ("numeric-check", "--D", "4", "--relation", "0:1,0:2", "--samples", "10"),
        ("verify", "--conjecture", "dimension", "--max-degree", "5",
         "--output", "/nonexistent/x.json"),
        ("mine", "--k-max", "2", "--d-sweep", "8", "--oeis-bfile", "/nonexistent", "--oeis-bfile-for", "lcd"),
        ("mine", "--k-max", "2", "--d-sweep", "4"),
        # a b-file's sequence named without the b-file would compare nothing
        ("mine", "--k-max", "2", "--d-sweep", "5", "--oeis-bfile-for", "lcd"),
        ("numeric-check", "--auto", "--D", "2", "--samples", "10"),
        ("numeric-check", "--D", "4", "--relation", "1:1,1:2", "--samples", "20", "--tol", "inf"),
        ("numeric-check", "--D", "4", "--relation", "5:1,-6:2,1:3", "--samples", "5", "--tol", "nan"),
        ("numeric-check", "--D", "4", "--relation", "5:1,-6:2,1:3", "--samples", "5", "--tol", "-1"),
        ("numeric-check", "--D", "4", "--relation", "5:1,-6:1,1:3", "--samples", "5"),
        ("numeric-check", "--samples", "0"),
        ("numeric-check", "--conjecture", "translation", "--auto", "--D", "4",
         "--relation", "5:1,-6:2,1:3"),
        ("numeric-check", "--auto", "--D", "4", "--relation", "5:1,-6:2,1:3", "--samples", "5"),
        ("relations", "--D", "4", "--rho", "1..3", "--extended"),
        # f^(delta) = 0 past D: every mean is 0 and the check would pass on nothing
        ("numeric-check", "--relation", "1:1,-1:2", "--D", "3", "--delta", "9"),
        ("numeric-check", "--auto", "--D", "5", "--delta", "7"),
    ],
    ids=[
        "relation-spec", "rho-window", "negative-samples", "zero-samples", "k-max-below-2",
        "relative-rates-degree-1", "relative-rates-degree-0", "translation-degree-1",
        "translation-above-cap", "odd-binomial-nothing-to-check", "prop5-nothing-to-check",
        "all-zero-relation", "output-path-missing", "bfile-missing", "sweep-too-short-to-fit",
        "bfile-for-without-bfile", "auto-no-relation", "tol-inf", "tol-nan", "tol-negative", "repeated-rho",
        "zero-samples-nothing-requested", "three-modes", "auto-and-relation", "rho-and-extended",
        "relation-delta-above-degree", "auto-delta-above-degree",
    ],
)
def test_bad_input_is_a_config_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_CONFIG
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert out == ""


def test_non_finite_residual_is_strict_json(monkeypatch, capsys):
    # a NaN mean fails the report, and JSON has no token for its residual
    monkeypatch.setattr(numeric, "mean_over_family", lambda coeffs, roots: complex(math.nan, math.nan))
    code, out, _ = run(capsys, "numeric-check", "--relation", "5:1,-6:2,1:3", "--D", "4",
                       "--samples", "2", "--format", "json")

    def reject(token):
        raise ValueError(f"not JSON: {token}")

    blob = json.loads(out, parse_constant=reject)
    assert code == EXIT_VERIFY_FAIL and not blob["pass"]
    assert [rep["max_rel_residual"] for rep in blob["reports"]] == [None]


def test_translation_failed_solves_exit_one(monkeypatch, capsys):
    # a failed root solve is a skipped evaluation, never a crash
    def fail(*args):
        raise numeric.RootFindingError("forced")

    monkeypatch.setattr(numeric, "find_roots", fail)
    code, out, err = run(
        capsys, "numeric-check", "--conjecture", "translation", "--max-degree", "4", "--samples", "3"
    )
    assert code == EXIT_VERIFY_FAIL
    assert err == ""
    assert "(skipped 27) FAIL" in out and out.endswith("FAIL\n")


def test_numeric_check_needs_target(capsys):
    code, _, err = run(capsys, "numeric-check", "--samples", "5")
    assert code == EXIT_CONFIG


@pytest.mark.parametrize("conjecture", ["relative-rates", "translation"])
def test_conjectures_cap_only_the_max_degree(capsys, conjecture):
    # the conjectures ignore --delta, so it cannot push them over the cap
    code, blob, err = run_json(
        capsys, "numeric-check", "--conjecture", conjecture,
        "--max-degree", "5", "--delta", "-30", "--samples", "3",
    )
    assert code == EXIT_OK, err
    assert blob["pass"] is True


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
    # the irreducibility verdicts up to the cap: undecided (null) at four degrees
    undecided = {15, 17, 28, 29}
    assert {int(D): s["irreducible"] for D, s in blob["structure"].items()} == {
        D: None if D in undecided else True for D in range(2, HARD_DEGREE_CAP + 1)
    }
    # k = 2..10; they agree with the Stirling closed form of t_k(D)
    assert seqs[0]["lcd"] == [str(v) for v in (1, 2, 24, 48, 5760, 11520, 2903040, 5806080, 1393459200)]
    assert seqs[0]["leading"] == [str(v) for v in (1, -1, 3, -1, 15, -3, 63, -9, 135)]


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


def test_dimension_suite_reaches_the_paper_range(monkeypatch, capsys):
    # the paper states the pattern for all dimensions up to 49; a stand-in
    # for relation_space_dim keeps D=49 out of the test run
    def paper_pattern(D):
        return 0 if D == 2 else 2 if D % 2 and D >= 5 else 1

    monkeypatch.setattr(relations, "relation_space_dim", paper_pattern)
    code, blob, _ = run_json(capsys, "verify", "--conjecture", "dimension", "--max-degree", "49")
    assert code == EXIT_OK and blob["pass"]
    assert blob["dims"] == [paper_pattern(D) for D in range(2, 50)]
    code, out, err = run(capsys, "verify", "--conjecture", "dimension", "--max-degree", "50")
    assert code == EXIT_CONFIG and out == ""
    assert "above the cap 49" in err and err.count("\n") == 1
    for argv in (("verify", "--conjecture", "prop4", "--max-degree", "31"), ("relations", "--D", "31")):
        code, _, err = run(capsys, *argv)
        assert code == EXIT_CONFIG and "above the cap 30" in err


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
    assert check_degree(5, argparse.Namespace(unsafe_degree=False), 5 - HARD_DEGREE_CAP) is None
    with pytest.raises(ConfigError):
        check_degree(5, argparse.Namespace(unsafe_degree=False), 4 - HARD_DEGREE_CAP)
    assert check_degree(5, argparse.Namespace(unsafe_degree=True), -50) is None


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


def test_malformed_bfile_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "b.txt"
    # each bad line is named by its number; a file without a single
    # "index value" pair has no line to name
    for text, reason in (
        ("1 2\nfoo bar\n", "line 2"),
        ("1 1\n2\n3 24\n", "line 2"),  # truncated line
        ("# header\n1 1\n2 2 2\n", "line 3"),  # extra field
        ("1 1\n2 2\n1 3\n", "line 3"),  # repeated index
        ("# comments only\n\n", "no 'index value' line"),
    ):
        path.write_text(text, encoding="utf-8")
        code, out, err = run(
            capsys, "mine", "--k-max", "4", "--d-sweep", "10",
            "--oeis-bfile", str(path), "--oeis-bfile-for", "lcd",
        )
        assert code == EXIT_CONFIG, text
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert reason in err, err
        assert out == ""


def test_bfile_matching_nothing_reports_no_offset(tmp_path, capsys):
    # no shift matches a mined value: no offset, and no mismatches from the
    # first shift tried
    path = tmp_path / "b.txt"
    path.write_text("5 5\n6 6\n", encoding="utf-8")
    for name in ("lcd", "leading"):
        code, blob, _ = run_json(
            capsys, "mine", "--k-max", "4", "--d-sweep", "10", "--oeis-bfile", str(path),
            "--oeis-bfile-for", name,
        )
        assert code == EXIT_VERIFY_FAIL and blob["pass"] is False
        assert blob["bfile"] == {name: {
            "offset": None, "matched": 0, "total": 3, "absolute_values": False, "mismatches": [],
        }}


def test_bfile_is_compared_with_the_sequence_it_names(tmp_path, capsys):
    # the lcd sequence at k = 2..7; the leading sequence matches only its first value
    path = tmp_path / "b.txt"
    path.write_text("2 1\n3 2\n4 24\n5 48\n6 5760\n7 11520\n", encoding="utf-8")
    # a b-file holds one sequence, so the call must name which
    code, out, err = run(capsys, "mine", "--k-max", "7", "--d-sweep", "19", "--oeis-bfile", str(path))
    assert code == EXIT_CONFIG
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert out == ""
    code, blob, _ = run_json(
        capsys, "mine", "--k-max", "7", "--d-sweep", "19", "--oeis-bfile", str(path),
        "--oeis-bfile-for", "lcd",
    )
    assert code == EXIT_OK and blob["pass"] is True
    assert list(blob["bfile"]) == ["lcd"] and blob["bfile"]["lcd"]["matched"] == 6
    code, blob, _ = run_json(
        capsys, "mine", "--k-max", "7", "--d-sweep", "19", "--oeis-bfile", str(path),
        "--oeis-bfile-for", "leading",
    )
    assert code == EXIT_VERIFY_FAIL and list(blob["bfile"]) == ["leading"]


# sha256 of the output of calls whose polynomials carry integration
# constants: pins how a part above D is named (c<m>) and where c-bearing terms
# fall in the canonical order, in every format
CONSTANT_OUTPUT_DIGESTS = [
    (("phi", "--D", "4", "--delta", "-3", "--rho=-5..3"), "json",
     "fdc76d7833dc6f27ce307d16c668506d0e152e08eb82e394bc37fe1cff81bf39"),
    (("phi", "--D", "4", "--delta", "-3", "--rho=-5..3"), "pretty",
     "4777f823b0e29f64305b92e637908ab694ba42c22bcc1d3c85510235d222b7e9"),
    (("phi", "--D", "4", "--delta", "-3", "--rho=-5..3"), "csv",
     "69825806f41feb8406dd17f228b25f92befa129ff7425813787513805b9b9097"),
    (("phi", "--D", "6", "--delta", "-2"), "json",
     "32de20c94fc942fdb3ee2b3affe7099f54038951b6e15b5adc32e56c58f67fdc"),
    (("phi", "--D", "6", "--delta", "-2"), "pretty",
     "9b66f31131770aecbfb5340c05aa406eb5125141598ba026bb23e56d6e918f67"),
    (("phi", "--D", "6", "--delta", "-2"), "csv",
     "0132ee6bbd51b1ac8bd93bdae0b2377493c8fd965bdb84e0cc6130489ec47f08"),
    (("relations", "--D", "5", "--delta", "-1", "--rho=-3..4"), "json",
     "4a505b4a97bd373e396f01e62293135089fa41c2b16bf90b762e99158c74b7ef"),
]


@pytest.mark.parametrize(
    "argv, fmt, digest",
    CONSTANT_OUTPUT_DIGESTS,
    ids=[" ".join(argv) + f" {fmt}" for argv, fmt, _ in CONSTANT_OUTPUT_DIGESTS],
)
def test_output_with_constants_is_pinned(capsys, argv, fmt, digest):
    code, out, _ = run(capsys, *argv, "--format", fmt)
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of numeric-check JSON, residuals included: pins every rng draw and
# every float operation of the relation and translation checks at one seed
NUMERIC_OUTPUT_DIGESTS = [
    (("numeric-check", "--auto", "--D", "7", "--delta", "6", "--samples", "20", "--seed", "3"),
     "54db7ddc70c0b5f3205ecd20355662b35e84b5571d2202cc42f1b9b5ba2dc433"),
    (("numeric-check", "--conjecture", "translation", "--max-degree", "5", "--samples", "5",
      "--seed", "3"),
     "9d5157b88395b32163a030d10c06879467b3dd31422838917963ba3fd758563d"),
]


@pytest.mark.parametrize(
    "argv, digest", NUMERIC_OUTPUT_DIGESTS, ids=[" ".join(argv) for argv, _ in NUMERIC_OUTPUT_DIGESTS]
)
def test_numeric_output_is_pinned(capsys, argv, digest):
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of each call's exit code and verdicts, residual floats left out:
# how the root finder reaches its roots may move residuals in their last
# digits, but never a verdict, a skip count or a relation label
NUMERIC_VERDICT_DIGESTS = [
    ([("numeric-check", "--auto", "--D", str(D), "--samples", "30", "--seed", str(seed))
      for seed in range(3) for D in range(3, 10)],
     "53534491ff45aec2910b499afacf8e189b638756f11c3f4c985b7c10b8bf57f0"),
    ([("numeric-check", "--conjecture", "translation", "--max-degree", "7", "--samples", "10",
       "--seed", "5")],
     "a1b35553389da6182353d2a7ccd2da9658de1d1663141f31fb410322262657bd"),
]


def verdicts_digest(capsys, calls) -> str:
    keep = ("pass", "tol", "relation", "samples", "skipped")
    verdicts = []
    for argv in calls:
        code, blob, _ = run_json(capsys, *argv)
        reports = [{k: r[k] for k in keep} for r in blob["reports"]]
        verdicts.append({"exit": code, "pass": blob["pass"], "tol": blob["tol"], "reports": reports})
    return hashlib.sha256(json.dumps(verdicts, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize(
    "calls, digest", NUMERIC_VERDICT_DIGESTS, ids=[" ".join(c[0]) for c, _ in NUMERIC_VERDICT_DIGESTS]
)
def test_numeric_verdicts_are_pinned(capsys, calls, digest):
    assert verdicts_digest(capsys, calls) == digest


def with_formats(argv, formats=("pretty", "csv", "json")):
    return [(*argv, "--format", fmt) for fmt in formats]


# Every symbolic subcommand in every format it offers: the tables, the
# relation catalogue through the printed degrees, each verification suite and
# the mined sequences.
SYMBOLIC_CALLS = [
    *with_formats(("gw", "--n", "5", "--max-deg", "9")),
    *with_formats(("phi", "--D", "7")),
    *with_formats(("phi", "--D", "7", "--rho=-7..6")),
    *[call for D in range(3, 14) for call in with_formats(("relations", "--D", str(D)))],
    *with_formats(("relations", "--D", "5", "--delta", "2", "--rho", "0..4")),
    *with_formats(("relations", "--D", "7", "--no-minimal-support")),
    *with_formats(("relations", "--D", "6", "--extended")),
    *[call for suite in sorted(cli.VERIFIERS)
      for call in with_formats(("verify", "--conjecture", suite, "--max-degree", "9"), ("pretty", "json"))],
    *with_formats(("mine", "--k-max", "7", "--d-sweep", "19")),
]


def test_symbolic_outputs_are_pinned(capsys):
    # sha256 of (argv, exit code, stdout) for each call, in order
    record = [[list(argv), *run(capsys, *argv)[:2]] for argv in SYMBOLIC_CALLS]
    assert len(record) == 66
    digest = hashlib.sha256(json.dumps(record).encode()).hexdigest()
    assert digest == "cdae98262fb1739376058f54ff15bedeeac1f1dbaf22711688d0c68ed9fd758d"
