"""Simultaneous root refinement (Ehrlich-Aberth iteration) and the package's
one Horner evaluator.

``rootmean.numeric.find_roots`` starts ``aberth_refine`` from roots already
found for a nearby polynomial, or on a circle around the root centroid, and
takes the result only if the kernel accepts it: every root passes the
residual test.  The kernel stops updating each root on its own once that
root is done (MPSolve practice, Bini & Fiorentino 2000), so a sweep costs
only the roots still moving, and it takes the rounding-level sum of a root's
Horner pass only once the root is close enough for that sum to decide.  A
root stopped at the rounding level passes the residual test by construction,
so only the other roots are evaluated a second time.  Everything else that
evaluates a polynomial goes through ``horner``: the numeric oracle on floats,
its rounding scale sum_k |a_k| |z|^(deg-k) too (``horner`` over the moduli at
|z|), and ``rootmean.mining`` on exact integers and Fractions.  There is one
measured exception: the kernel's hot loop inlines its own fused
value-and-derivative Horner pass and its rounding-level sum.
"""

from __future__ import annotations

import sys

CORRECTION_TOL = 1e-13
ROOT_RESIDUAL_TOL = 1e-10
MAX_SWEEPS = 160  # Aberth sweeps before the roots still moving are tested
_EPS = sys.float_info.epsilon
# complex operands spare the hot loop float's NotImplemented round trip in
# 1.0 / d and 1.0 - x; the floats are the same
_ONE = 1 + 0j
_INF = float("inf")


def horner(coeffs, z):
    """Value at z of the polynomial with descending coefficients coeffs.

    It starts from an exact 0, so ints and Fractions evaluate exactly.
    """
    p = 0
    for c in coeffs:
        p = p * z + c
    return p


def aberth_refine(coeffs, z0):
    """Refine all roots of the monic polynomial simultaneously, then test them.

    coeffs: descending complex coefficients, coeffs[0] == 1: ``find_roots``
    divides by the leading coefficient before it calls the kernel.
    z0: initial guesses, one per root: a circle, or roots already found for
    a nearby polynomial.
    A root stops being updated once its own relative correction
    |w| / (1 + |z|) falls below CORRECTION_TOL, or once |p(z)| is at the
    rounding level of the Horner sum scale(z) = sum_k |a_k| |z|^(deg-k),
    where no further step can be told from noise.  That sum is computed only
    when |p(z)| is within twice the rounding level of
    sum_k |a_k| max(1, |z|)^deg, which bounds it, so it costs nothing while
    a root is far from done and every decision is the same as with the sum
    taken at every step.  Stopped roots still enter the Aberth sums of the
    roots that are moving.  After MAX_SWEEPS sweeps the roots still moving
    stop where they are.
    Returns (roots list, sweeps used, accepted); accepted means every root
    passes the residual test |p(z)| <= ROOT_RESIDUAL_TOL * scale(z).  A root
    stopped at the rounding level 4 deg eps passes it by construction, as
    that level is below ROOT_RESIDUAL_TOL for every degree below 10^5; every
    other root gets one closing test through ``horner``.  A root whose |p(z)|
    is not finite can only turn into NaN, so it ends the solve at once,
    rejected.
    """
    z = list(z0)
    tail = coeffs[1:]
    abs_tail = [abs(c) for c in tail]
    lead = coeffs[0]
    abs_lead = abs(lead)
    deg = len(tail)
    # Horner's rounding error is at most about 2 deg eps times the sum of
    # the moduli of its terms; complex arithmetic adds a small factor
    rounding = 4.0 * deg * _EPS
    # the factor 2 covers the rounding of the float Horner sum it bounds
    near = 2.0 * rounding * (abs_lead + sum(abs_tail))
    # from this modulus on, |z|^deg or near * |z|^deg could overflow: take
    # the sum itself
    huge = 0.5 * (sys.float_info.max / max(near, 1.0)) ** (1.0 / deg)
    active = list(range(len(z)))
    unsure = []  # the roots the correction test stopped
    sweeps = 0
    while active and sweeps < MAX_SWEEPS:
        sweeps += 1
        moving = []
        for i in active:
            zi = z[i]
            az = abs(zi)
            p = lead
            dp = 0j
            for c in tail:
                dp = dp * zi + p
                p = p * zi + c
            ap = abs(p)
            if not ap < _INF:  # inf or NaN
                return z, sweeps, False
            if az >= huge or ap <= near * (az**deg if az > 1.0 else 1.0):
                scale = abs_lead
                for ac in abs_tail:
                    scale = scale * az + ac
                if ap <= rounding * scale:
                    # at the rounding level, below ROOT_RESIDUAL_TOL: passes
                    # the residual test by construction, no closing test
                    continue
            if dp == 0:
                # nudge off the stationary point
                z[i] = zi + (1e-8 + 1e-8j) * (1.0 + az)
                moving.append(i)
                continue
            newton = p / dp
            s = 0j
            for zk in z:
                d = zi - zk
                if d != 0:
                    s += _ONE / d
            denom = _ONE - newton * s
            w = newton if denom == 0 else newton / denom
            zi = zi - w
            z[i] = zi
            if abs(w) >= CORRECTION_TOL * (1.0 + abs(zi)):
                moving.append(i)
            else:
                unsure.append(i)
        active = moving
    abs_coeffs = [abs_lead] + abs_tail
    # written to fail on NaN: a root that ran off to infinity has
    # |p| / scale = inf / inf
    return z, sweeps, all(
        abs(horner(coeffs, z[i])) / max(horner(abs_coeffs, abs(z[i])), 1e-300) <= ROOT_RESIDUAL_TOL
        for i in unsure + active)
