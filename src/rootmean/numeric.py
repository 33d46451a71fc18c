"""Floating-point oracle: root finding and direct mean-value checks.

Everything here is deliberately independent of the exact symbolic engine so
it can cross-validate it: polynomials are plain complex coefficient lists,
root families come from a simultaneous-iteration root finder, and means are
computed by Horner evaluation and averaging.

The root-refinement inner loop and the Horner evaluator live in
``rootmean._aberth_py``; this module adds the starting points and the
residual test that accepts or rejects the kernel's roots, in one pass per
root.  The kernel stops each root on its own once it has converged.  A solve
starts from roots already found where there are some: the roots of f^(rho)
from those of f^(rho-1), whose critical points they are, and each shifted
polynomial of the translation check from the roots of the unshifted one.
Otherwise, or when a warm-started solve fails the residual test, it starts
from a circle around the root centroid whose radius is the geometric-mean
distance to the roots.

The three checks share one path, ``_run``: it counts every evaluation as
attempted and every failed root solve, one that fails from the circle, as
skipped.  A report passes only if its worst residual is within ``tol`` (a
non-finite residual counts as infinite) and it evaluated something: fewer
evaluations were skipped than attempted, so a report that attempted nothing
fails.  ``_run`` splits a check's samples across forked worker processes,
one per CPU this process may run on (``WORKERS``).  Every sample is seeded
from its index and the reports fold their parts with order-independent
maxima and sums, so the output does not depend on the number of workers.
The workers are separate processes: the peak RSS of this one does not
include theirs.
"""

from __future__ import annotations

import cmath
import itertools
import math
import os
import random
import threading
from dataclasses import dataclass

# perfbench/tracer.py wraps the kernel under the name ``_kernel.aberth_refine``
from . import _aberth_py as _kernel
from ._aberth_py import horner

# recorded in benchmark provenance; perfbench/compare.py refuses to compare
# results whose backends differ
KERNEL_BACKEND = "python"

ROOT_RESIDUAL_TOL = 1e-10
RELATION_TOL = 1e-8
MIN_ROOT_SEPARATION = 1e-6
MAX_SWEEPS = 160  # Aberth sweeps before find_roots gives up on a root

# processes a check's samples are split across: the CPUs this process may use
if not hasattr(os, "fork"):
    WORKERS = 1
elif hasattr(os, "sched_getaffinity"):
    WORKERS = len(os.sched_getaffinity(0))
else:
    WORKERS = os.cpu_count() or 1


class RootFindingError(RuntimeError):
    pass


@dataclass(frozen=True)
class NumPoly:
    """Monic polynomial with complex double coefficients, descending powers."""

    coeffs: tuple

    def __post_init__(self):
        if len(self.coeffs) < 2:
            raise ValueError("degree must be >= 1")
        if self.coeffs[0] != 1:
            raise ValueError("leading coefficient must be exactly 1")


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


def _derived_chain(coeffs, lowest: int, highest: int, constants) -> dict:
    """{order: coefficients of the order-th derived function} for every order
    in lowest..highest, each one step from its neighbour towards order 0.

    Negative orders integrate with constants[k - 1] at the k-th step down.
    Stepping gives the same floats as ``differentiate`` or ``integrate``
    applied from order 0.
    """
    chain = {0: list(coeffs)}
    for k in range(1, highest + 1):
        chain[k] = differentiate(chain[k - 1])
    for k in range(1, 1 - lowest):
        chain[-k] = integrate(chain[1 - k], [constants[k - 1]])
    return chain


def monicized(coeffs) -> NumPoly:
    """NumPoly with the same roots: divide through by the leading coefficient."""
    lead = coeffs[0]
    if lead == 0:
        raise ValueError("zero leading coefficient")
    return NumPoly((1 + 0j,) + tuple(c / lead for c in coeffs[1:]))


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
    """Aberth starting points on a circle around the root centroid.

    The centre is c = -a_1 / deg and the radius |p(c)|^(1/deg), the geometric
    mean of the distances |c - r| to the roots, so the circle passes through
    the middle of the root cloud.  When p(c) == 0 that mean says nothing
    (c is itself a root), and the Fujiwara bound on the root moduli is used.
    """
    deg = len(coeffs) - 1
    centre = -coeffs[1] / deg
    value = abs(horner(coeffs, centre))
    radius = value ** (1.0 / deg) if value else _fujiwara_radius(coeffs)
    # shift angles off the axes so real-coefficient symmetry cannot stall
    return [
        centre + radius * cmath.exp(2j * math.pi * (k + 0.25) / deg + 0.45j)
        for k in range(deg)
    ]


def _accepted(coeffs, z) -> bool:
    """True when every root r satisfies |p(r)| <= ROOT_RESIDUAL_TOL * scale(r),
    scale(r) = sum_k |a_k| |r|^(deg-k): one fused value-and-scale pass per
    root, the same floats as ``horner`` on the coefficients and on their
    moduli at |r|, stopping at the first root that fails or is not finite."""
    abs_coeffs = [abs(c) for c in coeffs]
    for zi in z:
        az = abs(zi)
        p = 0j
        scale = 0.0
        for c, ac in zip(coeffs, abs_coeffs):
            p = p * zi + c
            scale = scale * az + ac
        # written to fail on NaN: a root that ran off to infinity has
        # |p| / scale = inf / inf
        if not abs(p) / max(scale, 1e-300) <= ROOT_RESIDUAL_TOL:
            return False
    return True


def find_roots(p: NumPoly, start=None) -> tuple:
    """All complex roots of p, repeated by multiplicity, by Aberth's
    simultaneous iteration.

    Exact trailing zero coefficients are exact roots 0: they are stripped and
    returned as 0j after the other roots, because the residual scale below
    vanishes with |r| when a_deg == 0.  The rest is solved by the kernel,
    each root stopping on its own once converged.  The kernel starts from
    ``start`` (approximations of p's roots, such as the roots of a nearby
    polynomial) when one is given, no zero was stripped, it has one point
    per root and its result passes the residual test; otherwise it starts
    from the circle of ``_initial_guesses``.  The roots are accepted
    when every residual satisfies |p(r)| <= ROOT_RESIDUAL_TOL * scale(r) with
    scale(r) = sum_k |a_k| |r|^(deg-k).  Only a solve from the circle that
    fails raises RootFindingError.  A multiple root comes back as that many
    separate approximations, and close distinct roots stay apart.
    """
    coeffs = list(p.coeffs)
    zeros = 0
    while coeffs[-1] == 0:
        coeffs.pop()
        zeros += 1
    deg = len(coeffs) - 1
    if deg == 0:
        z = []
    elif deg == 1:
        z = [-coeffs[1]]
    else:
        z = None
        if start is not None and not zeros and len(start) == deg:
            z, _, _ = _kernel.aberth_refine(coeffs, start, MAX_SWEEPS)
        if z is None or not _accepted(coeffs, z):
            z, _, _ = _kernel.aberth_refine(coeffs, _initial_guesses(coeffs), MAX_SWEEPS)
            if not _accepted(coeffs, z):
                raise RootFindingError(f"root refinement did not reach residual tolerance {ROOT_RESIDUAL_TOL}")
    return tuple(z) + (0j,) * zeros


def _derivative_start(coeffs, parent):
    """Aberth start for the roots of the monic ``coeffs`` from the roots of
    the polynomial it is the (scaled) derivative of, or None without them.

    Both share the centroid c = -a_1 / n, and the critical points of a
    random polynomial pair up with its roots (Kabluchko 2015, Hanin 2017).
    So the n + 1 parent roots less the one nearest c start the n roots
    sought, each moved toward c by the factor n / (n + 1).
    """
    n = len(coeffs) - 1
    if parent is None or n < 2:  # find_roots solves degree 1 without a start
        return None
    c = -coeffs[1] / n
    gaps = [abs(r - c) for r in parent]
    shrink = n / (n + 1)
    start = [c + (r - c) * shrink for r in parent]
    del start[gaps.index(min(gaps))]
    return start


def mean_over_family(coeffs, roots) -> complex:
    """(1/n) sum of the polynomial with these coefficients over the n given roots."""
    if not roots:
        raise ValueError("empty family")
    total = 0j
    for r in roots:
        total += horner(coeffs, r)
    return total / len(roots)


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
        if all(abs(a - b) >= MIN_ROOT_SEPARATION for a, b in itertools.combinations(roots, 2)):
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


def _sample(seed: int, degree: int, *streams):
    """(rng, roots, f): rng is sample_rng(seed, *streams) after drawing the
    roots of the monic degree-``degree`` f; the caller may draw on."""
    rng = sample_rng(seed, *streams)
    roots = sample_roots(rng, degree)
    return rng, roots, monic_from_roots(roots)


def _fan_out(work, items) -> list:
    """[work(part) for each part] in part order, the parts being the
    n = min(WORKERS, len(items)) strided slices items[k::n].

    The parent runs part 0 itself, and runs everything itself while other
    threads run.  Each other part runs in a forked child that sends back
    pickle.dumps((ok, result or exception)) through a pipe and always ends
    with os._exit, so it never flushes the parent's stdout buffers or runs
    its atexit handlers.  A child's exception is raised here with its own
    type; a child that exits non-zero or sends a truncated message raises
    RuntimeError.  Every child is reaped before this returns or raises.
    """
    items = list(items)
    # a forked child has only the calling thread, and a lock another thread
    # held at the fork stays held there, so with other threads nothing forks
    n = min(WORKERS, len(items)) if threading.active_count() == 1 else 1
    if n <= 1:
        return [work(items)]
    import pickle

    children = {}  # pid: read end of its pipe
    messages, codes = {}, {}
    try:
        for k in range(1, n):
            read, write = os.pipe()
            pid = os.fork()
            if pid == 0:
                code = 1
                try:
                    for fd in (read, *children.values()):
                        os.close(fd)
                    try:
                        message = pickle.dumps((True, work(items[k::n])))
                    except BaseException as exc:
                        message = pickle.dumps((False, exc))
                    with os.fdopen(write, "wb") as fh:
                        fh.write(message)
                    code = 0
                finally:
                    os._exit(code)
            os.close(write)
            children[pid] = read
        parts = [work(items[0::n])]
        for pid, read in children.items():
            with open(read, "rb", closefd=False) as fh:
                messages[pid] = fh.read()
    finally:
        for pid, read in children.items():
            os.close(read)
            codes[pid] = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    for pid in children:
        if codes[pid] != 0:
            raise RuntimeError(f"sample worker {pid} exited with status {codes[pid]}")
        try:
            ok, value = pickle.loads(messages[pid])
        except (pickle.UnpicklingError, EOFError):
            raise RuntimeError(f"sample worker {pid} sent a truncated message") from None
        if not ok:
            raise value
        parts.append(value)
    return parts


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
    attempted: int = 0  # evaluations a failed root solve can skip; not written to JSON

    @property
    def passed(self) -> bool:
        return self.max_rel_residual <= self.tol and self.skipped < self.attempted

    def to_json(self) -> dict:
        return {
            "relation": self.label,
            "samples": self.samples,
            # strict JSON has no infinity; a non-finite residual already fails
            "max_rel_residual": self.max_rel_residual if math.isfinite(self.max_rel_residual) else None,
            "skipped": self.skipped,
            "pass": self.passed,
            "seed": self.seed,
            "tol": self.tol,
        }


def _worse(worst: float, residual: float) -> float:
    """The larger residual, a non-finite one counting as inf: max(0.0, nan)
    is 0.0, which would pass a NaN mean."""
    return max(worst, residual) if math.isfinite(residual) else math.inf


def _run(labels, samples: int, seed: int, tol: float, items, evaluate) -> list:
    """One NumericReport per label over the outcomes that evaluate(item, worst)
    yields for each of ``items``, split across ``_fan_out``'s workers.  An
    outcome is one evaluation: one residual per report, or None for a failed
    root solve, which every report counts as skipped.  ``worst`` is the
    worker's running worst residual per report, folded with ``_worse``."""

    def work(part):
        worst = [0.0] * len(labels)
        attempted = skipped = 0
        for item in part:
            for outcome in evaluate(item, worst):
                attempted += 1
                if outcome is None:
                    skipped += 1
                else:
                    worst[:] = [_worse(w, r) for w, r in zip(worst, outcome)]
        return attempted, skipped, worst

    reports = [NumericReport(label=label, samples=samples, seed=seed, tol=tol) for label in labels]
    for attempted, skipped, worst in _fan_out(work, items):
        for rep, w in zip(reports, worst):
            rep.attempted += attempted
            rep.skipped += skipped
            rep.max_rel_residual = _worse(rep.max_rel_residual, w)
    return reports


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
    relative residual |num| / den, den = sum_rho |alpha_rho mean_rho|.  An
    exactly-zero mean leaves only rounding, which grows with the averaged
    function's coefficients c_k, so when den <= tol * S the residual is
    |num| / S, S = sum_rho |alpha_rho| mean_r sum_k |c_k| |r|^(deg-k).  As
    den <= S, that only lowers a residual, so S is computed only for a
    sample that would otherwise raise the worst one, and the worst residual
    is the largest lowered one in whatever order the samples run.

    rels: RelationVectors, or {rho: alpha} mappings, sharing (D, delta).
    Root families are found once per sample and reused across relations, so a
    degree's whole relation set costs the same as its slowest single relation,
    and each relation's residuals do not depend on which others share the
    batch.  Families are solved in ascending rho, and f^(rho), rho >= 1,
    starts from the roots of f^(rho-1) when those are at hand (the sampled
    roots for rho = 1).  A sample whose root finding fails is skipped for
    every relation.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    terms = [_relation_terms(D, delta, rel) for rel in rels]
    if not terms:
        return []
    support_union = sorted({r for _, support, _ in terms for r in support})
    lowest = min([*support_union, delta])
    highest = max([*support_union, delta])
    deepest = max(0, -lowest)

    def evaluate(idx, worst):
        rng, roots, f = _sample(seed, D, D, delta, idx)
        constants = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(deepest)]
        chain = _derived_chain(f.coeffs, lowest, highest, constants)
        values = chain[delta]
        fams, means = {}, {}
        try:
            for rho in support_union:
                if rho == 0:
                    fams[0] = roots
                else:
                    monic = monicized(chain[rho])
                    parent = roots if rho == 1 else fams.get(rho - 1)
                    fams[rho] = find_roots(monic, _derivative_start(monic.coeffs, parent))
                means[rho] = mean_over_family(values, fams[rho])
        except RootFindingError:
            yield None
            return
        outcome = []
        for w, (_, support, alpha) in zip(worst, terms):
            num = sum(a * means[r] for r, a in zip(support, alpha))
            den = sum(abs(a * means[r]) for r, a in zip(support, alpha))
            residual = abs(num) / den if den else 0.0
            if residual > w:
                moduli = [abs(c) for c in values]
                scale = sum(abs(a) * sum(horner(moduli, abs(z)) for z in fams[r]) / len(fams[r])
                            for r, a in zip(support, alpha))
                if den <= tol * scale:
                    residual = abs(num) / scale
            outcome.append(residual)
        yield outcome

    return _run([label for label, _, _ in terms], samples, seed, tol, range(samples), evaluate)


def _relative_rates(p: NumPoly, ks, roots) -> list:
    """[(sum, terms)] of f^(k)(r) / f'(r) over the roots r of p, in root order,
    for each k of the ascending ks; needs simple roots, as ``sample_roots``
    draws them.

    f' at the roots and the derivative chain are built once for all ks.
    """
    chain = _derived_chain(p.coeffs, 0, max(ks), ())
    slopes = [horner(chain[1], r) for r in roots]
    out = []
    for k in ks:
        terms = [horner(chain[k], r) / s for r, s in zip(roots, slopes)]
        total = 0j
        for t in terms:
            total += t
        out.append((total, terms))
    return out


def relative_rates_report(
    max_degree: int, samples: int, seed: int, tol: float = RELATION_TOL
) -> NumericReport:
    def evaluate(item, worst):
        D, idx = item
        _, roots, p = _sample(seed, D, 7_001, D, idx)
        residual = 0.0
        for total, terms in _relative_rates(p, range(2, D) if D > 2 else (2,), roots):
            mag = sum(abs(t) for t in terms)
            residual = _worse(residual, abs(total) / mag if mag > 1e-12 else abs(total))
        return [(residual,)]

    pairs = [(D, idx) for D in range(2, max_degree + 1) for idx in range(samples)]
    [report] = _run([f"relative-rates degrees 2..{max_degree}"], samples, seed, tol, pairs, evaluate)
    return report


def _shift_outcomes(p: NumPoly, dh_list):
    """One outcome per dh: the mean slope over the roots of p - dh compared
    with dh = 0, as a one-residual tuple, or None when a solve failed.

    Each shifted solve starts from the roots of p.  A failed shifted solve
    skips its shift; a failed solve of p skips them all.
    """
    try:
        base_fam = find_roots(p)
    except RootFindingError:
        yield from [None] * len(dh_list)
        return
    slope = differentiate(p.coeffs)
    base = mean_over_family(slope, base_fam)
    scale = max(1.0, abs(base))
    for dh in dh_list:
        try:
            fam = find_roots(NumPoly(p.coeffs[:-1] + (p.coeffs[-1] - dh,)), base_fam)
        except RootFindingError:
            yield None
            continue
        yield (abs(mean_over_family(slope, fam) - base) / scale,)


def translation_invariance_report(
    max_degree: int, samples: int, seed: int, tol: float = RELATION_TOL
) -> NumericReport:
    def evaluate(item, worst):
        D, idx = item
        rng, _, p = _sample(seed, D, 9_001, D, idx)
        return _shift_outcomes(p, [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(3)])

    pairs = [(D, idx) for D in range(2, max_degree + 1) for idx in range(samples)]
    [report] = _run([f"translation-invariance degrees 2..{max_degree}"], samples, seed, tol, pairs, evaluate)
    return report


# the --conjecture checks of numeric-check: (max_degree, samples, seed, tol) -> NumericReport
CONJECTURES = {
    "relative-rates": relative_rates_report,
    "translation": translation_invariance_report,
}
