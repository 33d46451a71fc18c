"""Each correctness check accepts a genuine CLI payload and rejects a tampered one.

Run with ``python3 -m pytest perfbench/tests``.
"""

import contextlib
import copy
import io
import json
import math
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(HERE)), "src"))

import workloads  # noqa: E402
from rootmean import cli  # noqa: E402
from rootmean.mining import top_parameter_coefficient  # noqa: E402


def cli_payload(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv) + ["--format", "json"])
    assert code == 0
    return json.loads(out.getvalue())


@pytest.fixture(scope="module")
def payloads():
    return {
        "dimension": (["verify", "--conjecture", "dimension", "--max-degree", "9"],
                      cli_payload("verify", "--conjecture", "dimension", "--max-degree", "9", "--threads", "1")),
        "mining": (["mine", "--k-max", "4", "--d-sweep", "10"],
                   cli_payload("mine", "--k-max", "4", "--d-sweep", "10")),
        "minimal-support": (["relations", "--D", "5"], cli_payload("relations", "--D", "5")),
        "numeric": (["numeric-check", "--auto", "--D", "4", "--samples", "20", "--seed", "1"],
                    cli_payload("numeric-check", "--auto", "--D", "4", "--samples", "20", "--seed", "1")),
    }


def failed_ops(workload, argv, payload):
    attempted, failures = workloads.CHECKS[workload](argv, payload)
    assert attempted > 0
    return sum(n for n, _ in failures)


def test_genuine_payloads_pass(payloads):
    for workload, (argv, payload) in payloads.items():
        assert workloads.CHECKS[workload](argv, payload)[1] == [], workload


def test_closed_form_matches_engine():
    for D in range(2, 11):
        for n in range(1, D + 4):
            assert top_parameter_coefficient(D, D - n) == workloads.top_coefficient_closed_form(D, n)


def test_dimension_pattern_is_the_papers():
    assert [workloads.dimension_expected(D) for D in range(2, 10)] == [0, 1, 1, 2, 1, 2, 1, 2]


def test_dimension_rejects_tampering(payloads):
    argv, good = payloads["dimension"]
    bad = copy.deepcopy(good)
    bad["dims"][4] += 1
    assert failed_ops("dimension", argv, bad) == 1
    bad = copy.deepcopy(good)
    bad["dims"].pop()
    assert failed_ops("dimension", argv, bad) == 8
    bad = copy.deepcopy(good)
    bad["pass"] = False
    assert failed_ops("dimension", argv, bad) == 8


@pytest.mark.parametrize("field,change", [
    ("g", lambda g: g[:-2] + [str(int(g[-2]) + 1), g[-1]]),  # breaks the closed form
    ("g", lambda g: g[:-1] + ["2"]),  # not monic
    ("g", lambda g: g[:-1] + ["1/2", "1"]),  # wrong degree, not integer
    ("chi", lambda chi: 1 - chi),
    ("degree", lambda d: d + 1),
])
def test_mining_rejects_tampering(payloads, field, change):
    argv, good = payloads["mining"]
    bad = copy.deepcopy(good)
    entry = bad["structure"]["8"]
    entry[field] = change(entry[field])
    assert failed_ops("mining", argv, bad) == 1


def test_mining_rejects_a_missing_degree(payloads):
    argv, good = payloads["mining"]
    bad = copy.deepcopy(good)
    del bad["structure"]["7"]
    assert failed_ops("mining", argv, bad) >= 1


@pytest.mark.parametrize("tamper", [
    lambda p: p["minimal_support"][0]["alpha"].__setitem__(0, p["minimal_support"][0]["alpha"][0] + 1),
    lambda p: p["catalog_failures"].append({"alpha": {"1": 1}, "label": "x"}),
    lambda p: p.__setitem__("zero_sum_ok", False),
    lambda p: p.__setitem__("dim", 1),
    lambda p: p["minimal_support"].pop(),
])
def test_minimal_support_rejects_tampering(payloads, tamper):
    argv, good = payloads["minimal-support"]
    bad = copy.deepcopy(good)
    tamper(bad)
    assert failed_ops("minimal-support", argv, bad) == 1


@pytest.mark.parametrize("tamper", [
    lambda r: r.__setitem__("skipped", 1),
    lambda r: r.__setitem__("max_rel_residual", 1e-6),
    lambda r: r.__setitem__("max_rel_residual", math.nan),
    lambda r: r.__setitem__("pass", False),
    lambda r: r.__setitem__("samples", 0),
])
def test_numeric_rejects_tampering(payloads, tamper):
    argv, good = payloads["numeric"]
    bad = copy.deepcopy(good)
    tamper(bad["reports"][0])
    assert failed_ops("numeric", argv, bad) >= 1


def test_numeric_rejects_a_vacuous_pass(payloads):
    argv, good = payloads["numeric"]
    bad = dict(good, reports=[])
    assert failed_ops("numeric", argv, bad) == 20


def test_numeric_counts_samples_drawn():
    assert workloads.numeric_samples(["numeric-check", "--auto", "--D", "4", "--samples", "20"]) == 20
    rates = ["numeric-check", "--conjecture", "relative-rates", "--max-degree", "10", "--samples", "5"]
    assert workloads.numeric_samples(rates) == 45


def test_digest_catches_what_the_semantic_check_does_not(payloads):
    for workload, (argv, good) in payloads.items():
        argv = workloads.with_format(argv)
        ref = {workloads.call_key(argv): workloads.payload_digest(workload, good)}
        stdout = json.dumps(good)
        assert workloads.check_call(workload, argv, 0, stdout, ref)[1:] == (0, [])
        bad = dict(good, seed=good["seed"] + 1)
        if workload == "numeric":
            bad = copy.deepcopy(good)
            bad["reports"][0]["relation"] += " "
        attempted, failed, reasons = workloads.check_call(workload, argv, 0, json.dumps(bad), ref)
        assert failed == attempted and any("digest" in r for r in reasons), workload


def test_numeric_digest_ignores_residual_bits(payloads):
    _, good = payloads["numeric"]
    other = copy.deepcopy(good)
    other["reports"][0]["max_rel_residual"] /= 3
    assert workloads.payload_digest("numeric", other) == workloads.payload_digest("numeric", good)


def test_exit_code_and_garbage_fail_every_operation(payloads):
    argv, good = payloads["dimension"]
    argv = workloads.with_format(argv)
    ref = {workloads.call_key(argv): workloads.payload_digest("dimension", good)}
    assert workloads.check_call("dimension", argv, 1, json.dumps(good), ref)[:2] == (8, 8)
    assert workloads.check_call("dimension", argv, 0, "Traceback", ref)[:2] == (8, 8)


def test_call_key_drops_only_the_seed():
    argv = ["numeric-check", "--auto", "--D", "4", "--seed", "7", "--format", "json"]
    assert workloads.call_key(argv) == "numeric-check --auto --D 4 --format json"


def test_symbolic_calls_do_not_depend_on_the_seed():
    for workload, dependent in workloads.SEED_DEPENDENT.items():
        same = workloads.calls(workload, 1) == workloads.calls(workload, 2)
        assert same != dependent, workload
