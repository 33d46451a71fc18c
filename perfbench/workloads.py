"""The four benchmark workloads: the CLI calls each one makes, and the checks
that decide whether its outputs are correct.

A workload is the list of ``rootmean`` argument vectors one cold process runs
in order.  The checks below never import ``rootmean``: each payload is judged
against a reference that does not come from the engine (the paper's dimension
pattern, the closed form of the top-parameter coefficient, the relation sets
printed in the paper) and against a digest of the payload recorded in
``reference.json``.

Every check returns ``(attempted, failures)``: ``attempted`` counts operations
(a degree for the symbolic workloads, a drawn polynomial sample for
``numeric``) and ``failures`` is a list of ``(operations_lost, reason)``.
"""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction

# Sizes are the acceptance-suite inputs scaled so one cold run takes about two
# seconds on a 2-CPU machine; each scaled range keeps the layer the workload is
# named for doing most of the work.
DIMENSION_MAX_DEGREE = 19
MINING_K_MAX = 7
MINING_D_SWEEP = 19  # the CLI needs d_sweep >= 3 * k_max - 2
NUMERIC_AUTO_DEGREES = range(3, 10)
NUMERIC_AUTO_SAMPLES = 300
NUMERIC_RATES = (10, 150)  # (max degree, samples)
NUMERIC_TRANSLATION = (7, 30)
MINIMAL_SUPPORT_DEGREES = range(3, 12)

NUMERIC_TOL = 1e-8

# Symbolic workloads make the same calls for every seed; numeric passes the
# seed to every call.
SEED_DEPENDENT = {"dimension": False, "mining": False, "numeric": True, "minimal-support": False}


def calls(workload: str, seed: int) -> list:
    """Argument vectors of one run of ``workload``, CLI defaults otherwise."""
    if workload == "dimension":
        return [["verify", "--conjecture", "dimension", "--max-degree", str(DIMENSION_MAX_DEGREE)]]
    if workload == "mining":
        return [["mine", "--k-max", str(MINING_K_MAX), "--d-sweep", str(MINING_D_SWEEP)]]
    if workload == "minimal-support":
        return [["relations", "--D", str(d)] for d in MINIMAL_SUPPORT_DEGREES]
    if workload == "numeric":
        out = [
            ["numeric-check", "--auto", "--D", str(d), "--samples", str(NUMERIC_AUTO_SAMPLES)]
            for d in NUMERIC_AUTO_DEGREES
        ]
        out.append(["numeric-check", "--conjecture", "relative-rates",
                    "--max-degree", str(NUMERIC_RATES[0]), "--samples", str(NUMERIC_RATES[1])])
        out.append(["numeric-check", "--conjecture", "translation",
                    "--max-degree", str(NUMERIC_TRANSLATION[0]), "--samples", str(NUMERIC_TRANSLATION[1])])
        return [argv + ["--seed", str(seed)] for argv in out]
    raise KeyError(workload)


def with_format(argv: list) -> list:
    return argv + ["--format", "json"]


# ---------------------------------------------------------------------------
# digests


def payload_digest(workload: str, payload: dict) -> str:
    """sha256 of what must not change: the whole payload, or for ``numeric``
    only the verdicts and counts (float residuals vary with the seed)."""
    if workload == "numeric":
        payload = {
            "pass": payload.get("pass"),
            "tol": payload.get("tol"),
            "reports": [
                {k: r.get(k) for k in ("relation", "samples", "skipped", "pass", "tol")}
                for r in payload.get("reports", [])
            ],
        }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def call_key(argv: list) -> str:
    """Reference key of a call: its arguments without the seed."""
    out, skip = [], False
    for a in argv:
        if skip:
            skip = False
        elif a == "--seed":
            skip = True
        else:
            out.append(a)
    return " ".join(out)


# ---------------------------------------------------------------------------
# per-call semantic checks; each returns (attempted, failures)


def dimension_expected(D: int) -> int:
    """The paper's pattern: 0 at D=2, 1 at D=3 and at even D, 2 at odd D >= 5."""
    if D == 2:
        return 0
    if D == 3 or D % 2 == 0:
        return 1
    return 2


def check_dimension(argv, payload):
    top = int(argv[argv.index("--max-degree") + 1])
    degrees = list(range(2, top + 1))
    dims = payload.get("dims")
    if not isinstance(dims, list) or len(dims) != len(degrees):
        return len(degrees), [(len(degrees), f"dims has the wrong shape: {dims!r}")]
    failures = [
        (1, f"D={D}: dim {got} != {dimension_expected(D)}")
        for D, got in zip(degrees, dims)
        if got != dimension_expected(D)
    ]
    if payload.get("pass") is not True:
        failures.append((len(degrees), "verdict is not PASS"))
    return len(degrees), failures


def top_coefficient_closed_form(D: int, n: int) -> Fraction:
    """(-1)^D (1 - C(n-1, D-1)): the top-parameter coefficient of phi(D, 0, D-n)."""
    return Fraction((-1) ** D * (1 - math.comb(n - 1, D - 1)))


def check_mining(argv, payload):
    d_sweep = int(argv[argv.index("--d-sweep") + 1])
    degrees = list(range(2, d_sweep + 1))
    structure = payload.get("structure", {})
    failures = []
    for D in degrees:
        entry = structure.get(str(D))
        if entry is None:
            failures.append((1, f"D={D}: missing from structure"))
            continue
        reason = _mining_degree_error(D, entry)
        if reason:
            failures.append((1, f"D={D}: {reason}"))
    if set(structure) != {str(D) for D in degrees}:
        failures.append((1, f"structure degrees {sorted(structure, key=int)}"))
    if payload.get("pass") is not True:
        failures.append((len(degrees), "verdict is not PASS"))
    return len(degrees), failures


def _mining_degree_error(D: int, entry: dict):
    chi = entry.get("chi")
    if chi != D % 2:
        return f"chi {chi!r} != {D % 2}"
    g = [Fraction(c) for c in entry.get("g", [])]
    if not g or any(c.denominator != 1 for c in g):
        return "g is not an integer polynomial"
    if g[-1] != 1:
        return "g is not monic"
    want_deg = D - 2 - chi
    if len(g) - 1 != want_deg or entry.get("degree") != want_deg:
        return f"g has degree {len(g) - 1}, want {want_deg}"
    const = Fraction((-1) ** D * D, math.factorial(D))
    for n in range(1, D + 4):
        g_n = sum(c * n**k for k, c in enumerate(g))
        h_n = const * (D - n) * n**chi * g_n
        if h_n != top_coefficient_closed_form(D, n):
            return f"h({n}) = {h_n} != closed form {top_coefficient_closed_form(D, n)}"
    return None


# The relation sets the paper prints for D = 3..8 (basis, minimal supports and
# the alternating-binomial relation together), as (support, alpha) pairs.
PRINTED_RELATIONS = {
    3: {((1, 2), (1, -1))},
    4: {((1, 2, 3), (5, -6, 1))},
    5: {
        ((1, 3, 4), (1, -3, 2)),
        ((2, 3, 4), (2, -5, 3)),
        ((1, 2, 3), (3, -4, 1)),
        ((1, 2, 4), (5, -6, 1)),
        ((1, 2, 3, 4), (1, -2, 2, -1)),
    },
    6: {((1, 2, 3, 4, 5), (77, -120, 60, -20, 3))},
    7: {
        ((1, 2, 3, 4, 5), (85, -144, 90, -40, 9)),
        ((1, 2, 3, 4, 6), (82, -135, 75, -25, 3)),
        ((1, 2, 3, 5, 6), (77, -120, 50, -15, 8)),
        ((1, 2, 4, 5, 6), (67, -90, 50, -45, 18)),
        ((1, 3, 4, 5, 6), (37, -150, 200, -135, 48)),
        ((2, 3, 4, 5, 6), (111, -335, 385, -246, 85)),
        ((1, 2, 3, 4, 5, 6), (1, -3, 5, -5, 3, -1)),
    },
    8: {((1, 2, 3, 4, 5, 6, 7), (669, -1260, 1050, -700, 315, -84, 10))},
}


def _relation_pairs(payload) -> set:
    rels = list(payload.get("basis", [])) + list(payload.get("minimal_support", []))
    if payload.get("distinguished"):
        rels.append(payload["distinguished"])
    return {(tuple(r["support"]), tuple(r["alpha"])) for r in rels}


def check_minimal_support(argv, payload):
    D = int(argv[argv.index("--D") + 1])
    reasons = []
    if payload.get("D") != D:
        reasons.append(f"payload is for D={payload.get('D')}")
    if payload.get("catalog_failures") != []:
        reasons.append(f"catalog failures {payload.get('catalog_failures')!r}")
    if payload.get("zero_sum_ok") is not True:
        reasons.append("zero_sum_ok is not true")
    for rel in payload.get("basis", []) + payload.get("minimal_support", []):
        if sum(rel["alpha"]) != 0:
            reasons.append(f"relation {rel} does not sum to zero")
    if payload.get("dim") != dimension_expected(D):
        reasons.append(f"dim {payload.get('dim')} != {dimension_expected(D)}")
    if D in PRINTED_RELATIONS and _relation_pairs(payload) != PRINTED_RELATIONS[D]:
        reasons.append("relation set differs from the printed one")
    return 1, [(1, "; ".join(reasons))] if reasons else []


def numeric_samples(argv) -> int:
    """Polynomials the call draws: samples per degree times degrees."""
    samples = int(argv[argv.index("--samples") + 1])
    if "--auto" in argv:
        return samples
    top = int(argv[argv.index("--max-degree") + 1])
    return samples * (top - 1)  # degrees 2..max


def check_numeric(argv, payload):
    attempted = numeric_samples(argv)
    samples = int(argv[argv.index("--samples") + 1])
    reports = payload.get("reports", [])
    if not reports:
        return attempted, [(attempted, "no reports: the check passed vacuously")]
    failures = []
    skipped = sum(r.get("skipped", 0) for r in reports)
    if skipped:
        failures.append((skipped, f"{skipped} samples skipped"))
    for r in reports:
        bad = []
        if r.get("pass") is not True:
            bad.append("verdict FAIL")
        if not (r.get("max_rel_residual", math.inf) <= NUMERIC_TOL):
            bad.append(f"residual {r.get('max_rel_residual')} > {NUMERIC_TOL}")
        if r.get("tol") != NUMERIC_TOL or r.get("samples") != samples:
            bad.append(f"ran with tol {r.get('tol')} and {r.get('samples')} samples")
        if bad:
            failures.append((attempted, f"{r.get('relation')}: {', '.join(bad)}"))
    if payload.get("pass") is not True:
        failures.append((attempted, "verdict is not PASS"))
    return attempted, failures


CHECKS = {
    "dimension": check_dimension,
    "mining": check_mining,
    "minimal-support": check_minimal_support,
    "numeric": check_numeric,
}


def check_call(workload: str, argv: list, code: int, stdout: str, reference: dict):
    """Judge one CLI call: exit code, payload, semantic check, recorded digest.

    Returns ``(attempted, failed, reasons)`` with ``failed <= attempted``.
    """
    check = CHECKS[workload]
    try:
        payload = json.loads(stdout)
    except ValueError:
        payload = None
    if not isinstance(payload, dict):
        attempted, _ = check(argv, {})
        return attempted, attempted, [f"{call_key(argv)}: exit {code}, no JSON payload"]
    attempted, failures = check(argv, payload)
    if code != 0:
        failures.append((attempted, f"exit code {code}"))
    want = reference.get(call_key(argv))
    if want is None:
        failures.append((attempted, "no recorded digest for this call"))
    elif payload_digest(workload, payload) != want:
        failures.append((attempted, "payload differs from the recorded digest"))
    failed = min(attempted, sum(n for n, _ in failures))
    reasons = [f"{call_key(argv)}: {why}" for _, why in failures]
    return attempted, failed, reasons
