"""Floating-point oracle: root finding and direct mean-value checks.

Everything here is deliberately independent of the exact symbolic engine so
it can cross-validate it: polynomials are plain complex coefficient lists,
root families come from a simultaneous-iteration root finder, and means are
computed by Horner evaluation and averaging.

The root-refinement inner loop and the Horner evaluator live in
``rootmean._aberth_py``; this module adds initial guesses, Newton polish,
residual acceptance and clustering on top of it.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass

# perfbench/tracer.py wraps the kernel under the name ``_kernel.aberth_refine``
from . import _aberth_py as _kernel
from ._aberth_py import horner

# recorded in benchmark provenance; perfbench/compare.py refuses to compare
# results whose backends differ
KERNEL_BACKEND = "python"

ROOT_RESIDUAL_TOL = 1e-10
CLUSTER_TOL = 1e-4
RELATION_TOL = 1e-8
MIN_ROOT_SEPARATION = 1e-6


class RootFindingError(RuntimeError):
    def __init__(self, message, best_residual=None):
        super().__init__(message)
        self.best_residual = best_residual


@dataclass(frozen=True)
class NumPoly:
    """Monic polynomial with complex double coefficients, descending powers."""

    coeffs: tuple

    def __post_init__(self):
        if len(self.coeffs) < 2:
            raise ValueError("degree must be >= 1")
        if self.coeffs[0] != 1:
            raise ValueError("leading coefficient must be exactly 1")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, z):
        return horner(self.coeffs, z)


def monic_from_roots(roots) -> NumPoly:
    coeffs = [1 + 0j]
    for r in roots:
        nxt = [1 + 0j] * (len(coeffs) + 1)
        nxt[0] = coeffs[0]
        for i in range(1, len(coeffs)):
            nxt[i] = coeffs[i] - r * coeffs[i - 1]
        nxt[len(coeffs)] = -r * coeffs[-1]
        coeffs = nxt
    return NumPoly(tuple(coeffs))


def differentiate(coeffs, order=1) -> list:
    out = list(coeffs)
    for _ in range(order):
        deg = len(out) - 1
        if deg == 0:
            return [0j]
        out = [out[k] * (deg - k) for k in range(deg)]
    return out


def integrate(coeffs, constants) -> list:
    """Iterated antiderivative; constants[k] is the additive constant of the k-th integration."""
    out = list(coeffs)
    for c in constants:
        deg = len(out) - 1
        out = [out[k] / (deg - k + 1) for k in range(deg + 1)] + [complex(c)]
    return out


def derived_coeffs(p: NumPoly, delta: int, constants=()) -> list:
    """Coefficients of the delta-th derived function (negative = antiderivative)."""
    if delta >= 0:
        return differentiate(p.coeffs, delta)
    need = -delta
    consts = list(constants) + [0j] * (need - len(list(constants)))
    return integrate(p.coeffs, consts[:need])


def monicized(coeffs) -> NumPoly:
    """NumPoly with the same roots: divide through by the leading coefficient."""
    lead = coeffs[0]
    if lead == 0:
        raise ValueError("zero leading coefficient")
    return NumPoly((1 + 0j,) + tuple(c / lead for c in coeffs[1:]))


@dataclass(frozen=True)
class RootFamily:
    roots: tuple
    source: tuple  # (degree, rho)
    condition_estimate: float = 0.0

    def __len__(self):
        return len(self.roots)


def _fujiwara_radius(coeffs) -> float:
    # upper bound on root moduli for a monic polynomial
    deg = len(coeffs) - 1
    best = 0.0
    for k in range(1, deg + 1):
        a = abs(coeffs[k])
        if a:
            best = max(best, a ** (1.0 / k))
    return 2.0 * best + 1e-9


def _initial_guesses(coeffs) -> list:
    deg = len(coeffs) - 1
    radius = _fujiwara_radius(coeffs)
    # shift angles off the axes so real-coefficient symmetry cannot stall
    return [
        radius * cmath.exp(2j * math.pi * (k + 0.25) / deg + 0.45j)
        for k in range(deg)
    ]


def _residual_scale(coeffs, z) -> float:
    az = abs(z)
    scale = 0.0
    for c in coeffs:
        scale = scale * az + abs(c)
    return max(scale, 1e-300)


def find_roots(p: NumPoly, max_iter: int = 160) -> RootFamily:
    """All complex roots of p by simultaneous (Aberth-style) refinement.

    Accepts the result when every residual satisfies
    |p(r)| <= ROOT_RESIDUAL_TOL * scale(r) with scale(r) = sum_k |a_k| |r|^(deg-k);
    otherwise raises RootFindingError carrying the best residual reached.
    Near-coincident roots (within CLUSTER_TOL relative) are averaged into a
    cluster center, one entry per member, which handles multiple roots.
    """
    coeffs = list(p.coeffs)
    deg = p.degree
    if deg == 1:
        return RootFamily((-coeffs[1],), (deg, None), 1.0)

    z0 = _initial_guesses(coeffs)
    z, _, _ = _kernel.aberth_refine(coeffs, z0, max_iter, 1e-13)

    # two polishing Newton sweeps sharpen simple roots to machine precision
    dcoeffs = differentiate(coeffs)
    for _ in range(2):
        for i in range(deg):
            pv = horner(coeffs, z[i])
            dv = horner(dcoeffs, z[i])
            if dv != 0:
                step = pv / dv
                if abs(step) < 0.1 * (1 + abs(z[i])):
                    z[i] = z[i] - step

    worst = 0.0
    cond = 0.0
    for zi in z:
        res = abs(p(zi)) / _residual_scale(coeffs, zi)
        worst = max(worst, res)
        dv = horner(dcoeffs, zi)
        if abs(dv) > 0:
            cond = max(cond, _residual_scale(coeffs, zi) / (abs(dv) * max(abs(zi), 1.0)))
        else:
            cond = math.inf
    if worst > ROOT_RESIDUAL_TOL:
        raise RootFindingError(
            f"root refinement did not reach residual tolerance {ROOT_RESIDUAL_TOL}",
            best_residual=worst,
        )

    # cluster near-coincident approximations and replace by their mean
    used = [False] * deg
    out = []
    for i in range(deg):
        if used[i]:
            continue
        group = [i]
        used[i] = True
        for k in range(i + 1, deg):
            if not used[k] and abs(z[i] - z[k]) <= CLUSTER_TOL * (1.0 + abs(z[i])):
                used[k] = True
                group.append(k)
        center = sum(z[g] for g in group) / len(group)
        out.extend([center] * len(group))
    return RootFamily(tuple(out), (deg, None), cond)


def mean_over_family(p: NumPoly, delta: int, fam: RootFamily, constants=()) -> complex:
    """(1/n) sum of the delta-th derived function of p over the family's roots.

    For delta < 0 the antiderivative's additive constants default to zero;
    pass the sample's constants to keep a whole derived chain consistent.
    """
    if not fam.roots:
        raise ValueError("empty family")
    coeffs = derived_coeffs(p, delta, constants)
    total = 0j
    for r in fam.roots:
        total += horner(coeffs, r)
    return total / len(fam.roots)


# ---------------------------------------------------------------------------
# sampling

def sample_roots(rng: random.Random, degree: int):
    """Roots i.i.d. uniform on the disk of radius 2, resampled until pairwise
    separation exceeds MIN_ROOT_SEPARATION."""
    while True:
        roots = []
        for _ in range(degree):
            r = 2.0 * math.sqrt(rng.random())
            th = rng.uniform(0.0, 2.0 * math.pi)
            roots.append(r * cmath.exp(1j * th))
        ok = True
        for i in range(degree):
            for k in range(i + 1, degree):
                if abs(roots[i] - roots[k]) < MIN_ROOT_SEPARATION:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return roots


def sample_rng(seed: int, *streams) -> random.Random:
    """Reproducible per-sample generator derived from the master seed.

    Mixing is plain integer arithmetic so results do not depend on hashing or
    on how samples are scheduled across workers.
    """
    x = seed & 0xFFFFFFFFFFFF
    for s in streams:
        x = (x * 1_000_003 + (s & 0xFFFFFFFF) + 0x9E3779B9) & 0xFFFFFFFFFFFFFFFF
    return random.Random(x)


# ---------------------------------------------------------------------------
# relation and conjecture checks

@dataclass
class NumericReport:
    label: str
    samples: int
    max_rel_residual: float = 0.0
    skipped: int = 0
    seed: int = 0
    tol: float = RELATION_TOL
    passed: bool = True

    def to_json(self) -> dict:
        return {
            "relation": self.label,
            "samples": self.samples,
            "max_rel_residual": self.max_rel_residual,
            "skipped": self.skipped,
            "pass": self.passed,
            "seed": self.seed,
            "tol": self.tol,
        }


def _relation_terms(D: int, delta: int, rel):
    """(label, support, alpha) of a RelationVector or a {rho: alpha} mapping."""
    if isinstance(rel, dict):
        support = tuple(sorted(rel))
        alpha = tuple(rel[r] for r in support)
        label = f"D={D} delta={delta} " + " ".join(f"{a:+d}@{r}" for r, a in zip(support, alpha))
        return label, support, alpha
    return str(rel), rel.support, rel.alpha


def check_relations_batch(
    D: int,
    delta: int,
    rels,
    samples: int,
    seed: int,
    tol: float = RELATION_TOL,
) -> list:
    """Evaluate sum_rho alpha_rho * mean(f^(delta) over roots of f^(rho)) on
    random monic degree-D polynomials f and report, per relation, the worst
    relative residual.

    rels: RelationVectors, or {rho: alpha} mappings, sharing (D, delta).
    Root families are found once per sample and reused across relations, so a
    degree's whole relation set costs the same as its slowest single relation,
    and each relation's residuals do not depend on which others share the
    batch.  A sample whose root finding fails is skipped for every relation.
    Zero samples pass vacuously; otherwise a report passes only if at least
    one sample was evaluated.
    """
    if samples < 0:
        raise ValueError("samples must be >= 0")
    terms = [_relation_terms(D, delta, rel) for rel in rels]
    reports = [
        NumericReport(label=label, samples=samples, seed=seed, tol=tol) for label, _, _ in terms
    ]
    if not terms:
        return reports
    support_union = sorted({r for _, support, _ in terms for r in support})
    deepest = max(0, -min([*support_union, delta]))
    for idx in range(samples):
        rng = sample_rng(seed, D, delta, idx)
        roots = sample_roots(rng, D)
        f = monic_from_roots(roots)
        constants = [
            complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            for _ in range(deepest)
        ]
        means = {}
        try:
            for rho in support_union:
                if rho == 0:
                    fam = RootFamily(tuple(roots), (D, 0))
                else:
                    fam = find_roots(monicized(derived_coeffs(f, rho, constants)))
                means[rho] = mean_over_family(f, delta, fam, constants)
        except RootFindingError:
            for rep in reports:
                rep.skipped += 1
            continue
        for (_, support, alpha), rep in zip(terms, reports):
            num = sum(a * means[r] for r, a in zip(support, alpha))
            den = sum(abs(a * means[r]) for r, a in zip(support, alpha))
            residual = abs(num) / den if den > 1e-12 else abs(num)
            rep.max_rel_residual = max(rep.max_rel_residual, residual)
    for rep in reports:
        rep.passed = rep.max_rel_residual <= tol and (samples == 0 or rep.skipped < samples)
    return reports


def check_relative_rates(p: NumPoly, k: int, roots=None) -> complex:
    """sum over the roots r of p of f^(k)(r) / f'(r); needs simple roots.

    Verification treats the value as zero when |sum| <= tol * sum of term
    magnitudes; k > degree gives exactly 0.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    if roots is None:
        roots = find_roots(p).roots
    roots = list(roots)
    for i in range(len(roots)):
        for j in range(i + 1, len(roots)):
            if abs(roots[i] - roots[j]) < MIN_ROOT_SEPARATION:
                raise RootFindingError("repeated roots: resample")
    if k > p.degree:
        return 0j
    dk = differentiate(p.coeffs, k)
    d1 = differentiate(p.coeffs, 1)
    total = 0j
    for r in roots:
        total += horner(dk, r) / horner(d1, r)
    return total


def relative_rates_report(
    max_degree: int, samples: int, seed: int, tol: float = RELATION_TOL
) -> NumericReport:
    report = NumericReport(label=f"relative-rates degrees 2..{max_degree}", samples=samples, seed=seed, tol=tol)
    for D in range(2, max_degree + 1):
        ks = range(2, D) if D > 2 else (2,)
        for idx in range(samples):
            rng = sample_rng(seed, 7_001, D, idx)
            roots = sample_roots(rng, D)
            p = monic_from_roots(roots)
            for k in ks:
                total = check_relative_rates(p, k, roots=roots)
                dk = differentiate(p.coeffs, k)
                d1 = differentiate(p.coeffs, 1)
                mag = sum(abs(horner(dk, r) / horner(d1, r)) for r in roots)
                residual = abs(total) / mag if mag > 1e-12 else abs(total)
                report.max_rel_residual = max(report.max_rel_residual, residual)
    report.passed = report.max_rel_residual <= tol
    return report


def check_translation_invariance(p: NumPoly, dh_list, tol: float = RELATION_TOL) -> NumericReport:
    """Mean slope over the roots of p - dh compared with dh = 0, per dh.

    With shifts requested, passes only if at least one shifted solve was evaluated.
    """
    report = NumericReport(label=f"translation-invariance degree {p.degree}", samples=len(dh_list), tol=tol)
    base_fam = find_roots(p)
    base = mean_over_family(p, 1, base_fam)
    scale = max(1.0, abs(base))
    for dh in dh_list:
        shifted = list(p.coeffs)
        shifted[-1] = shifted[-1] - dh
        try:
            fam = find_roots(NumPoly(tuple(shifted)))
        except RootFindingError:
            report.skipped += 1
            continue
        m = mean_over_family(p, 1, fam)
        residual = abs(m - base) / scale
        report.max_rel_residual = max(report.max_rel_residual, residual)
    report.passed = report.max_rel_residual <= tol and (not dh_list or report.skipped < len(dh_list))
    return report


def translation_invariance_report(
    max_degree: int, samples: int, seed: int, tol: float = RELATION_TOL
) -> NumericReport:
    report = NumericReport(label=f"translation-invariance degrees 2..{max_degree}", samples=samples, seed=seed, tol=tol)
    shifts = 0
    for D in range(2, max_degree + 1):
        for idx in range(samples):
            rng = sample_rng(seed, 9_001, D, idx)
            roots = sample_roots(rng, D)
            p = monic_from_roots(roots)
            dh = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(3)]
            sub = check_translation_invariance(p, dh, tol)
            shifts += sub.samples
            report.skipped += sub.skipped
            report.max_rel_residual = max(report.max_rel_residual, sub.max_rel_residual)
    report.passed = report.max_rel_residual <= tol and (not shifts or report.skipped < shifts)
    return report


# ---------------------------------------------------------------------------
# statistical solvers (order 2 and 3)

def solve_quadratic_statistical(E, V):
    """Roots of the monic quadratic whose root mean is E and variance V: E +/- sqrt(V)."""
    s = cmath.sqrt(complex(V))
    return (complex(E) - s, complex(E) + s)


def solve_cubic_statistical(E, V, W):
    """Roots of the monic cubic with root mean E, variance V, third central moment W.

    Uses the trigonometric-free radical form: with T+- the cube roots of
    W/2 +- sqrt((W/2)^2 - (V/2)^3) paired so that T+ T- = V/2, the roots are
    E + w^k T+ + w^-k T- over the cube roots of unity w^k.
    """
    E, V, W = complex(E), complex(V), complex(W)
    disc = cmath.sqrt((W / 2) ** 2 - (V / 2) ** 3)
    base = W / 2 + disc
    if abs(base) < 1e-300:
        base = W / 2 - disc
    if abs(base) < 1e-300:
        t_plus = 0j
        t_minus = 0j
    else:
        t_plus = base ** (1.0 / 3.0)
        t_minus = (V / 2) / t_plus
    omega = cmath.exp(2j * math.pi / 3)
    return tuple(E + omega**k * t_plus + omega**-k * t_minus for k in range(3))


def sample_moments(roots):
    """(mean, variance, third central moment) of a finite multiset."""
    n = len(roots)
    mean = sum(roots) / n
    var = sum((r - mean) ** 2 for r in roots) / n
    third = sum((r - mean) ** 3 for r in roots) / n
    return mean, var, third
