"""Simultaneous root refinement (Ehrlich-Aberth iteration) and the package's
one Horner evaluator.

``rootmean.numeric.find_roots`` starts ``aberth_refine`` on a circle around
the root centroid and accepts the result only if every root passes its
residual test.  The kernel stops updating each root on its own once that root
is done (MPSolve practice, Bini & Fiorentino 2000), so a sweep costs only the
roots still moving.  Everything else that evaluates a polynomial in the
numeric oracle goes through ``horner``; the kernel inlines its own fused
value-and-derivative Horner pass, because it is the one hot loop.
"""

from __future__ import annotations

import sys

CORRECTION_TOL = 1e-13
_EPS = sys.float_info.epsilon


def horner(coeffs, z):
    """Value at z of the polynomial with descending coefficients coeffs."""
    p = 0j
    for c in coeffs:
        p = p * z + c
    return p


def aberth_refine(coeffs, z0, max_sweeps):
    """Refine all roots of the monic polynomial simultaneously.

    coeffs: descending complex coefficients, coeffs[0] == 1.
    z0: initial guesses, one per root.
    A root stops being updated once its own relative correction
    |w| / (1 + |z|) falls below CORRECTION_TOL, or once |p(z)| is at the
    rounding level of the Horner sum sum_k |a_k| |z|^(deg-k), where no
    further step can be told from noise.  Stopped roots still enter the
    Aberth sums of the roots that are moving.
    Returns (roots list, sweeps used, converged flag); converged means every
    root stopped within max_sweeps sweeps.
    """
    z = list(z0)
    tail = coeffs[1:]
    abs_tail = [abs(c) for c in tail]
    lead = coeffs[0]
    abs_lead = abs(lead)
    # Horner's rounding error is at most about 2 deg eps times the sum of
    # the moduli of its terms; complex arithmetic adds a small factor
    rounding = 4.0 * len(tail) * _EPS
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
            if abs(p) <= rounding * scale:
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
                    s += 1.0 / d
            denom = 1.0 - newton * s
            w = newton if denom == 0 else newton / denom
            zi = zi - w
            z[i] = zi
            if abs(w) >= CORRECTION_TOL * (1.0 + abs(zi)):
                moving.append(i)
        active = moving
        if not active:
            return z, it + 1, True
    return z, max_sweeps, False
