import contextlib
import io
import json
import math
import os
import random
import struct
import subprocess
import sys

import pytest

from rootmean import cli, numeric
from rootmean.numeric import (
    NumPoly,
    RootFindingError,
    check_relations_batch,
    check_translation_invariance,
    differentiate,
    find_roots,
    horner,
    integrate,
    mean_over_family,
    monic_from_roots,
    monicized,
    sample_rng,
    sample_roots,
)

from oracles import elementary_symmetric, evaluate


def sorted_roots(roots):
    return sorted(roots, key=lambda z: (round(z.real, 7), round(z.imag, 7)))


def relative_rate(p, k, roots):
    """sum over the simple roots r of p of f^(k)(r) / f'(r)."""
    return numeric._relative_rates(p, (k,), list(roots))[0][0]


def moments(roots):
    """(mean, variance, third central moment) of a finite multiset."""
    n = len(roots)
    mean = sum(roots) / n
    return mean, sum((r - mean) ** 2 for r in roots) / n, sum((r - mean) ** 3 for r in roots) / n


def test_numpoly_requires_monic():
    with pytest.raises(ValueError):
        NumPoly((2, 0, -1))
    with pytest.raises(ValueError):
        NumPoly((1,))
    assert monicized([2, 0, -2]).coeffs == (1, 0, -1)


def test_find_roots_quadratic():
    r = sorted_roots(find_roots(NumPoly((1, 0, -1))))
    assert abs(r[0] + 1) < 1e-12 and abs(r[1] - 1) < 1e-12


def test_find_roots_triple_root():
    roots = find_roots(NumPoly((1, -3, 3, -1)))  # (x-1)^3
    assert len(roots) == 3
    for z in roots:
        assert abs(z - 1) < 1e-3


def test_find_roots_keeps_close_roots_apart():
    for planted in ([1, 1 + 5e-5, -2], [0.5, 0.5 + 2e-5j, 3, -1 + 1j]):
        got = sorted_roots(find_roots(monic_from_roots(planted)))
        for a, b in zip(got, sorted_roots(planted)):
            assert abs(a - b) < 1e-9


def test_find_roots_exact_zero_roots():
    # a_deg == 0 shrinks the residual scale to 0 with |r|, so the zeros are
    # split off exactly rather than approximated
    for planted in ([-1, 0, 1], [0, 0, 1], [0, 2j, -1 + 1j, 0]):
        got = sorted_roots(find_roots(monic_from_roots(planted)))
        for a, b in zip(got, sorted_roots(planted)):
            assert abs(a - b) < 1e-9
    for k in range(1, 13):
        assert find_roots(NumPoly((1,) + (0,) * k)) == (0j,) * k


def kernel_solve(p):
    coeffs = list(p.coeffs)
    return numeric._kernel.aberth_refine(coeffs, numeric._initial_guesses(coeffs), numeric.MAX_SWEEPS)


# clusters, Wilkinson's degree-10 polynomial and two close roots
KERNEL_HARD_CASES = [[1] * k for k in range(2, 7)] + [list(range(1, 11)), [1, 1 + 5e-5, -2]]


def test_kernel_stops_early_on_multiple_and_close_roots():
    # started on the centroid circle and stopped per root, the kernel settles
    # clusters at the rounding level instead of running out of sweeps
    for planted in KERNEL_HARD_CASES:
        _, sweeps, converged = kernel_solve(monic_from_roots(planted))
        assert converged and sweeps <= 30, (planted, sweeps)


def test_kernel_sweeps_on_sampled_families():
    # mean sweeps over every derivative family of sampled degree-2..8
    # polynomials: 5.6 from the centroid circle with per-root stopping, 7.6
    # from the origin-centred Fujiwara circle with whole-sweep stopping
    sweeps = []
    for D in range(2, 9):
        rng = random.Random(D)
        for _ in range(20):
            f = monic_from_roots(sample_roots(rng, D))
            for rho in range(D - 1):
                _, n, converged = kernel_solve(monicized(differentiate(f.coeffs, rho)))
                assert converged
                sweeps.append(n)
    assert sum(sweeps) / len(sweeps) < 6.5


def reference_aberth_refine(coeffs, z0, max_sweeps):
    """The kernel's loop written plainly, with the rounding-level sum taken
    at every step and float operands in the Aberth sum: the kernel must
    reproduce it bit for bit."""
    z = list(z0)
    tail = coeffs[1:]
    abs_tail = [abs(c) for c in tail]
    lead = coeffs[0]
    abs_lead = abs(lead)
    rounding = 4.0 * len(tail) * sys.float_info.epsilon
    active = list(range(len(z)))
    for it in range(max_sweeps):
        moving = []
        for i in active:
            zi = z[i]
            az = abs(zi)
            p = lead
            dp = 0j
            scale = abs_lead
            for c, ac in zip(tail, abs_tail):
                dp = dp * zi + p
                p = p * zi + c
                scale = scale * az + ac
            if not abs(p) < math.inf:  # inf or NaN: the root can only turn into NaN
                return z, it + 1, False
            if abs(p) <= rounding * scale:
                continue
            if dp == 0:
                z[i] = zi + (1e-8 + 1e-8j) * (1.0 + az)
                moving.append(i)
                continue
            newton = p / dp
            s = 0j
            for zk in z:
                d = zi - zk
                if d != 0:
                    s += 1.0 / d
            denom = 1.0 - newton * s
            w = newton if denom == 0 else newton / denom
            zi = zi - w
            z[i] = zi
            if abs(w) >= numeric._kernel.CORRECTION_TOL * (1.0 + abs(zi)):
                moving.append(i)
        active = moving
        if not active:
            return z, it + 1, True
    return z, max_sweeps, False


def float_bits(result):
    # NaN != NaN, so compare the bytes of every root
    z, sweeps, converged = result
    return [struct.pack("dd", r.real, r.imag) for r in z], sweeps, converged


def test_kernel_is_bit_identical_to_reference():
    polys = [monic_from_roots(planted) for planted in KERNEL_HARD_CASES]
    for D in range(2, 10):
        rng = random.Random(100 + D)
        for _ in range(10):
            f = monic_from_roots(sample_roots(rng, D))
            polys += [monicized(differentiate(f.coeffs, rho)) for rho in range(D - 1)]
    for p in polys:
        coeffs = list(p.coeffs)
        circle = numeric._initial_guesses(coeffs)
        # modulus 1e200 overflows |z|^deg: every start, and one among the circle
        starts = [circle, [1e200 * z / abs(z) for z in circle], [1e200j] + circle[1:]]
        for z0 in starts:
            want = reference_aberth_refine(coeffs, z0, numeric.MAX_SWEEPS)
            got = numeric._kernel.aberth_refine(coeffs, z0, numeric.MAX_SWEEPS)
            assert float_bits(got) == float_bits(want), (p, z0[0])


def test_kernel_reports_overflow_as_unconverged():
    # seven coinciding starts on z^7 - 1/2 throw the roots to about 9e45j,
    # where |p(z)| overflows: that solve has not converged
    coeffs = [1 + 0j] + [0j] * 6 + [-0.5 + 0j]
    z, _, converged = numeric._kernel.aberth_refine(coeffs, [0j] * 7, numeric.MAX_SWEEPS)
    assert not converged
    assert not numeric._accepted(coeffs, z)


def record_kernel(monkeypatch, fail_warm=False):
    """Record (start, sweeps, converged) of every kernel call; with fail_warm,
    a call not started from the circle returns its start unrefined.  The
    samples stay in this process, where the record is kept."""
    monkeypatch.setattr(numeric, "WORKERS", 1)
    calls = []
    real = numeric._kernel.aberth_refine

    def kernel(coeffs, z0, max_sweeps):
        warm = list(z0) != numeric._initial_guesses(coeffs)
        z, sweeps, converged = (list(z0), 1, False) if fail_warm and warm else real(coeffs, z0, max_sweeps)
        calls.append((list(z0), warm, sweeps, converged))
        return z, sweeps, converged

    monkeypatch.setattr(numeric._kernel, "aberth_refine", kernel)
    return calls


def chain_reports(samples=30, seed=3):
    from rootmean.relations import find_relations

    return [
        rep.to_json()
        for D in range(3, 10)
        for rep in check_relations_batch(D, 0, find_relations(D).all_relations(), samples, seed)
    ]


def test_warm_starts_cut_sweeps_on_derivative_chains(monkeypatch):
    # every f^(rho) starts from the roots of f^(rho-1); the circle needs 5.5
    # sweeps a solve on these families
    calls = record_kernel(monkeypatch)
    reports = chain_reports()
    assert all(rep["pass"] and rep["skipped"] == 0 for rep in reports)
    assert all(converged for _, _, _, converged in calls)
    assert sum(warm for _, warm, _, _ in calls) == 30 * sum(D - 2 for D in range(3, 10))
    assert sum(sweeps for _, _, sweeps, _ in calls) / len(calls) < 4.8


def test_failed_warm_start_retries_from_circle(monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(numeric, "_derivative_start", lambda coeffs, parent: None)
        circle_only = chain_reports(samples=10)
    calls = record_kernel(monkeypatch, fail_warm=True)
    # the retry from the circle gives the roots, and the residuals, of a
    # solve that had no start
    assert chain_reports(samples=10) == circle_only
    warm = [i for i, call in enumerate(calls) if call[1]]
    assert warm and all(not calls[i + 1][1] for i in warm)
    rep = check_translation_invariance(monic_from_roots([1, 2j, -3, 0.5]), [0.5, -1j, 2])
    assert rep.passed and rep.skipped == 0 and calls[-1][1] is False


def test_unusable_start_falls_back_to_circle(monkeypatch):
    calls = record_kernel(monkeypatch)
    p = monic_from_roots([1, 2, 3])
    close = [1.1, 2.1, 2.9]
    find_roots(p, start=close)
    assert calls[-1][0] == close
    for q, start in [
        (monic_from_roots([0, 1, 2, 3]), [0.1, 1.1, 2.1, 2.9]),  # a zero is stripped
        (p, [1.1, 2.1]),  # too few points
        (p, [1.1, 2.1, 2.9, 4]),  # too many
    ]:
        got = find_roots(q, start=start)
        # the cubic's circle: for q with a zero root, after the zero is stripped
        assert calls[-1][0] == numeric._initial_guesses(list(q.coeffs[:4]))
        assert sorted_roots(got) == sorted_roots(find_roots(q))


def test_start_that_diverges_falls_back_to_circle(monkeypatch):
    # from seven coinciding points the kernel sends the roots of z^7 - 1/2
    # past 1e45, where |p| / scale is inf / inf; no NaN passes the residual
    # test, so the solve is retried from the circle
    calls = record_kernel(monkeypatch)
    q = NumPoly((1,) + (0,) * 6 + (-0.5,))
    got = find_roots(q, start=[0j] * 7)
    assert len(calls) == 2 and not calls[-1][1]
    assert max(abs(z) for z in calls[0][0]) == 0
    assert sorted_roots(got) == sorted_roots(find_roots(q))
    # the translation check starts z^7 - dh from the seven exact zeros of z^7
    rep = check_translation_invariance(NumPoly((1,) + (0,) * 7), [0.5, -1j, 0.3 + 0.2j])
    assert rep.passed and rep.skipped == 0


def test_find_roots_plant_and_recover():
    rng = random.Random(6)
    for _ in range(20):
        deg = rng.randint(2, 8)
        planted = sample_roots(rng, deg)
        got = sorted_roots(find_roots(monic_from_roots(planted)))
        want = sorted_roots(planted)
        for a, b in zip(got, want):
            assert abs(a - b) < 1e-9


def test_find_roots_rational_roots_degree8():
    planted = [complex(k) / 2 for k in range(-4, 4)]
    got = sorted_roots(find_roots(monic_from_roots(planted)))
    for a, b in zip(got, sorted_roots(planted)):
        assert abs(a - b) < 1e-9


def test_find_roots_error_carries_residual(monkeypatch):
    monkeypatch.setattr(numeric, "MAX_SWEEPS", 1)
    with pytest.raises(RootFindingError):
        find_roots(NumPoly(tuple([1] + [0] * 7 + [-1])))


def test_derivative_and_integral_coefficients():
    p = NumPoly((1, -2, 3, -4))
    assert differentiate(p.coeffs) == [3, -4, 3]
    assert differentiate(p.coeffs, 3) == [6]
    anti = integrate(p.coeffs, [5.0])
    assert anti == [0.25, -2 / 3, 1.5, -4, 5.0]
    assert numeric._derived_chain(p.coeffs, -1, 0, [5.0])[-1] == anti
    assert numeric._derived_chain(p.coeffs, 0, 0, ())[0] == list(p.coeffs)


def test_derived_chain_is_bit_identical():
    # the relation check and the relative-rates check build each derivative
    # one step from the last; that must be the same floats as from scratch
    rng = random.Random(14)
    for _ in range(20):
        D = rng.randint(2, 8)
        roots = sample_roots(rng, D)
        p = monic_from_roots(roots)
        constants = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(3)]
        chain = numeric._derived_chain(p.coeffs, -3, D + 1, constants)
        for order in range(D + 2):
            assert chain[order] == differentiate(p.coeffs, order)
        for depth in range(1, 4):
            assert chain[-depth] == integrate(p.coeffs, constants[:depth])
        d1 = differentiate(p.coeffs)
        ks = range(2, D + 1)
        for k, (total, terms) in zip(ks, numeric._relative_rates(p, ks, roots)):
            dk = differentiate(p.coeffs, k)
            assert terms == [horner(dk, r) / horner(d1, r) for r in roots]
            assert total == relative_rate(p, k, roots)


def test_mean_over_own_roots_is_zero():
    rng = random.Random(9)
    for _ in range(10):
        roots = sample_roots(rng, rng.randint(2, 7))
        p = monic_from_roots(roots)
        assert abs(mean_over_family(p.coeffs, roots)) < 1e-9 * (1 + max(abs(r) for r in roots))


def test_mean_over_empty_family_rejected():
    with pytest.raises(ValueError):
        mean_over_family([1, 0], [])


def test_quartic_relation_direct():
    p = monic_from_roots([1, 2, 3, 4])
    means = {}
    for rho in (1, 2, 3):
        roots = find_roots(monicized(differentiate(p.coeffs, rho)))
        means[rho] = mean_over_family(p.coeffs, roots)
    assert abs(5 * means[1] - 6 * means[2] + means[3]) < 1e-10


def test_cubic_mean_slope_is_three_halves_variance():
    rng = random.Random(12)
    for _ in range(10):
        roots = sample_roots(rng, 3)
        p = monic_from_roots(roots)
        mean_slope = mean_over_family(differentiate(p.coeffs), roots)
        _, var, _ = moments(roots)
        assert abs(mean_slope - 1.5 * var) < 1e-9


def test_check_one_relation_quartic():
    [rep] = check_relations_batch(4, 0, [{1: 5, 2: -6, 3: 1}], samples=200, seed=42)
    assert rep.passed and rep.max_rel_residual < 1e-10
    assert rep.skipped == 0


def test_check_one_relation_septic():
    [rep] = check_relations_batch(
        7, 0, [{1: 37, 3: -150, 4: 200, 5: -135, 6: 48}], samples=100, seed=42
    )
    assert rep.passed


def test_check_one_relation_vacuous():
    # zero samples would evaluate nothing, and a check must not pass on nothing
    with pytest.raises(ValueError):
        check_relations_batch(4, 0, [{1: 5, 2: -6, 3: 1}], samples=0, seed=1)


def test_check_one_relation_antiderivative_orders():
    # constants are drawn per sample; independence from them is part of the check
    [rep] = check_relations_batch(3, 0, [{-1: 1, 1: 2}], samples=150, seed=11)
    assert rep.passed
    [rep] = check_relations_batch(3, -2, [{0: 2, 1: -5, 2: 3}], samples=100, seed=11)
    assert rep.passed


def test_batch_matches_single():
    from rootmean.relations import find_relations

    rels = find_relations(5).all_relations()
    batch = check_relations_batch(5, 0, rels, samples=40, seed=42)
    for rel, rep in zip(rels, batch):
        [single] = check_relations_batch(5, 0, [rel], samples=40, seed=42)
        assert rep.passed == single.passed
        assert abs(rep.max_rel_residual - single.max_rel_residual) < 1e-12


def test_all_samples_skipped_does_not_pass(monkeypatch):
    def fail(*args, **kwargs):
        raise RootFindingError("forced")

    monkeypatch.setattr(numeric, "find_roots", fail)
    [rep] = check_relations_batch(4, 0, [{1: 5, 2: -6, 3: 1}], samples=10, seed=42)
    assert rep.skipped == 10
    assert not rep.passed


def test_nan_residual_fails_every_report(monkeypatch):
    # max(0.0, nan) is 0.0: a NaN must count as an infinite residual, not vanish
    nan = complex(math.nan, math.nan)
    monkeypatch.setattr(numeric, "mean_over_family", lambda coeffs, roots: nan)
    monkeypatch.setattr(numeric, "_relative_rates", lambda p, ks, roots: [(nan, [nan])] * len(ks))
    [batch] = check_relations_batch(4, 0, [{1: 5, 2: -6, 3: 1}], 5, 1)
    reports = [
        batch,
        check_translation_invariance(monic_from_roots([1, 2, 3]), [0.5]),
        numeric.relative_rates_report(4, 2, 1),
        numeric.translation_invariance_report(4, 2, 1),
    ]
    for rep in reports:
        assert rep.max_rel_residual == math.inf and rep.skipped == 0, rep
        assert not rep.passed, rep


def test_negative_samples_rejected():
    with pytest.raises(ValueError):
        check_relations_batch(4, 0, [{1: 5, 2: -6, 3: 1}], samples=-5, seed=42)


def test_relative_rates_symmetric_quadratic():
    p = NumPoly((1, 0, -1))
    total = relative_rate(p, 2, roots=[-1, 1])
    assert abs(total) < 1e-14


def test_relative_rates_above_degree_is_exact_zero():
    p = NumPoly((1, 0, -1))
    assert relative_rate(p, 5, roots=[-1, 1]) == 0j


def test_relative_rates_random():
    rng = random.Random(4)
    for _ in range(25):
        deg = rng.randint(2, 10)
        roots = sample_roots(rng, deg)
        p = monic_from_roots(roots)
        for k in range(2, deg + 1):
            total = relative_rate(p, k, roots=roots)
            dk = differentiate(p.coeffs, k)
            d1 = differentiate(p.coeffs, 1)
            mag = sum(abs(horner(dk, r) / horner(d1, r)) for r in roots)
            assert abs(total) <= 1e-8 * max(mag, 1.0)


def test_translation_invariance_zero_shift_exact():
    p = monic_from_roots([1, 2, 3])
    rep = check_translation_invariance(p, [0.0])
    assert rep.max_rel_residual < 1e-12


def test_translation_invariance_quadratic_any_shift():
    # the mean slope of a quadratic equals the slope at the vertex: constant
    p = NumPoly((1, -3, 1))
    rep = check_translation_invariance(p, [0.5, -2.0, 11.0])
    assert rep.passed


def test_translation_invariance_random():
    rng = random.Random(8)
    for _ in range(10):
        roots = sample_roots(rng, rng.randint(2, 7))
        p = monic_from_roots(roots)
        dh = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(3)]
        rep = check_translation_invariance(p, dh)
        assert rep.passed


def fail_shifted_solves(monkeypatch):
    """Let each base solve through and make every shifted solve raise.

    A shift changes only the constant term, so a polynomial whose other
    coefficients were already seen is a shifted one.
    """
    seen = set()
    real_find_roots = numeric.find_roots

    def find_roots_or_fail(p, *args, **kwargs):
        if p.coeffs[:-1] in seen:
            raise RootFindingError("forced")
        seen.add(p.coeffs[:-1])
        return real_find_roots(p, *args, **kwargs)

    monkeypatch.setattr(numeric, "find_roots", find_roots_or_fail)


def test_translation_invariance_all_shifts_skipped_does_not_pass(monkeypatch):
    fail_shifted_solves(monkeypatch)
    rep = check_translation_invariance(monic_from_roots([1, 2, 3]), [0.5, -1, 2])
    assert rep.skipped == 3
    assert not rep.passed


def test_translation_report_all_shifts_skipped_does_not_pass(monkeypatch):
    fail_shifted_solves(monkeypatch)
    rep = numeric.translation_invariance_report(4, 5, 42)
    assert rep.skipped == 45
    assert not rep.passed


def test_translation_failed_base_solve_skips_every_shift(monkeypatch):
    def fail(*args, **kwargs):
        raise RootFindingError("forced")

    monkeypatch.setattr(numeric, "find_roots", fail)
    rep = check_translation_invariance(monic_from_roots([1, 2, 3]), [0.5, -1, 2])
    assert rep.skipped == 3 and not rep.passed
    rep = numeric.translation_invariance_report(4, 3, 42)
    assert rep.skipped == 27
    assert not rep.passed


def test_report_verdict_follows_its_counts():
    rep = numeric.NumericReport(label="x", samples=4, attempted=4)
    assert rep.passed
    rep.skipped = 3
    assert rep.passed
    rep.skipped = 4
    assert not rep.passed
    rep.skipped, rep.max_rel_residual = 0, 2 * rep.tol
    assert not rep.passed
    # nothing attempted fails: no check passes vacuously
    assert not numeric.NumericReport(label="x", samples=0).passed
    assert "attempted" not in rep.to_json()


def test_cubic_inflection_point_value():
    # for a monic cubic the value at the root mean is the negated third
    # central moment
    rng = random.Random(33)
    for _ in range(30):
        roots = sample_roots(rng, 3)
        p = monic_from_roots(roots)
        E, _, W = moments(roots)
        assert abs(horner(p.coeffs, E) + W) < 1e-9


def test_sample_rng_deterministic_and_stream_separated():
    a = sample_rng(42, 5, 0, 7).random()
    b = sample_rng(42, 5, 0, 7).random()
    c = sample_rng(42, 5, 0, 8).random()
    assert a == b and a != c


def test_sample_roots_separation():
    rng = random.Random(50)
    for _ in range(20):
        roots = sample_roots(rng, 6)
        for i in range(6):
            for j in range(i + 1, 6):
                assert abs(roots[i] - roots[j]) >= numeric.MIN_ROOT_SEPARATION


def test_symbolic_numeric_agreement():
    # evaluate the exact mean-value polynomial at a random polynomial's
    # root-mean parameters and compare with direct averaging over refined
    # derivative/antiderivative roots
    from rootmean.means import PhiKey, phi

    rng = random.Random(424242)
    for D in range(2, 8):
        for _ in range(6):
            roots = sample_roots(rng, D)
            p = monic_from_roots(roots)
            e = elementary_symmetric(roots)
            values = {i: e[i] / math.comb(D, i) for i in range(1, D + 1)}
            constants = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(2)]
            chain = numeric._derived_chain(p.coeffs, -2, 2, constants)
            for rho in range(-2, min(3, D)):
                for delta in range(0, min(3, D)):
                    res = phi(PhiKey(D, delta, rho))
                    if any(part > D for part in res.poly.symbols()):
                        continue  # delta < 0 only; not in this window
                    want = evaluate(res.poly, values)
                    if rho == 0:
                        family = roots
                    else:
                        family = find_roots(monicized(chain[rho]))
                    got = mean_over_family(chain[delta], family)
                    scale = max(1.0, abs(complex(want)))
                    assert abs(complex(want) - got) <= 1e-8 * scale


# ---------------------------------------------------------------------------
# samples split across forked workers


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def numeric_json(monkeypatch, workers, argv):
    monkeypatch.setattr(numeric, "WORKERS", workers)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["numeric-check", *argv, "--seed", "5", "--format", "json"])
    return code, out.getvalue()


@pytest.mark.parametrize(
    "argv, code",
    [
        (["--auto", "--D", "5", "--samples", "30"], 0),
        (["--auto", "--D", "7", "--samples", "12"], 0),
        (["--conjecture", "relative-rates", "--max-degree", "6", "--samples", "7"], 0),
        (["--conjecture", "translation", "--max-degree", "5", "--samples", "5"], 0),
        (["--relation", "1:1,1:2", "--D", "5", "--samples", "10"], 1),
        (["--auto", "--D", "4", "--samples", "1"], 0),
    ],
    ids=["auto-5", "auto-7", "relative-rates", "translation", "false-relation", "one-sample"],
)
def test_payload_does_not_depend_on_worker_count(monkeypatch, argv, code):
    got = [numeric_json(monkeypatch, workers, argv) for workers in (1, 2, 3)]
    assert got[0][0] == code
    assert got[1] == got[0] and got[2] == got[0]
    assert_no_child_left()


def test_skipped_samples_do_not_depend_on_worker_count(monkeypatch):
    # fail every third polynomial by its own coefficients, not by call order,
    # which differs between processes
    real_find_roots = numeric.find_roots

    def find_roots_or_fail(p, *args, **kwargs):
        if int(abs(p.coeffs[-1]) * 1e6) % 3 == 0:
            raise RootFindingError("forced")
        return real_find_roots(p, *args, **kwargs)

    monkeypatch.setattr(numeric, "find_roots", find_roots_or_fail)
    for argv in (["--auto", "--D", "5", "--samples", "30"],
                 ["--conjecture", "translation", "--max-degree", "4", "--samples", "5"]):
        got = [numeric_json(monkeypatch, workers, argv) for workers in (1, 2, 3)]
        skipped = [rep["skipped"] for rep in json.loads(got[0][1])["reports"]]
        assert all(skipped), skipped
        assert got[1] == got[0] and got[2] == got[0]
    assert_no_child_left()


def test_fan_out_splits_into_strided_parts_in_order(monkeypatch):
    monkeypatch.setattr(numeric, "WORKERS", 3)
    assert numeric._fan_out(list, range(7)) == [[0, 3, 6], [1, 4], [2, 5]]
    assert numeric._fan_out(list, range(2)) == [[0], [1]]
    assert numeric._fan_out(list, []) == [[]]
    assert_no_child_left()


@pytest.mark.parametrize("bad", [1, 0], ids=["in-child", "in-parent"])
def test_fan_out_raises_what_a_part_raised(monkeypatch, bad):
    monkeypatch.setattr(numeric, "WORKERS", 2)

    def work(part):
        if bad in part:  # part 0 runs in this process, part 1 in a child
            raise ValueError("bad part")
        return sum(part)

    with pytest.raises(ValueError, match="bad part"):
        numeric._fan_out(work, range(4))
    assert_no_child_left()


def test_fan_out_raises_when_a_child_dies(monkeypatch):
    monkeypatch.setattr(numeric, "WORKERS", 2)
    parent = os.getpid()

    def work(part):
        if os.getpid() != parent:
            os._exit(3)
        return sum(part)

    with pytest.raises(RuntimeError, match="status 3"):
        numeric._fan_out(work, range(4))
    assert_no_child_left()


def test_fan_out_raises_on_a_truncated_message(monkeypatch):
    import pickle

    real_dumps = pickle.dumps
    monkeypatch.setattr(pickle, "dumps", lambda obj: real_dumps(obj)[:-3])  # only children pickle
    monkeypatch.setattr(numeric, "WORKERS", 2)
    with pytest.raises(RuntimeError, match="truncated"):
        numeric._fan_out(sum, range(4))
    assert_no_child_left()


def test_import_does_not_load_pickle():
    # the workers' pickle is imported on first use, not at start-up
    code = "import sys, rootmean.cli; print('pickle' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(numeric.__file__))})
    assert out.stdout.strip() == "False"
