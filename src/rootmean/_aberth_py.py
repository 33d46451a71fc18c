"""Simultaneous root refinement (Ehrlich-Aberth iteration) and the package's
one Horner evaluator.

``rootmean.numeric.find_roots`` runs ``aberth_refine`` from its initial
guesses and accepts the result only if every root passes its residual test;
everything that evaluates a polynomial in the numeric oracle goes through
``horner``.
"""

from __future__ import annotations

CORRECTION_TOL = 1e-13


def horner(coeffs, z):
    """Value at z of the polynomial with descending coefficients coeffs."""
    p = 0j
    for c in coeffs:
        p = p * z + c
    return p


def aberth_refine(coeffs, z0, max_iter):
    """Refine all roots of the monic polynomial simultaneously.

    coeffs: descending complex coefficients, coeffs[0] == 1.
    z0: initial guesses, one per root.
    Returns (roots list, iterations used, converged flag); converged means the
    largest relative correction in the final sweep fell below CORRECTION_TOL.
    """
    n = len(z0)
    z = list(z0)
    deg = len(coeffs) - 1
    dcoeffs = [coeffs[k] * (deg - k) for k in range(deg)]
    iterations = 0
    for it in range(max_iter):
        iterations = it + 1
        max_corr = 0.0
        for i in range(n):
            zi = z[i]
            p = horner(coeffs, zi)
            dp = horner(dcoeffs, zi)
            if p == 0:
                continue
            if dp == 0:
                # nudge off the stationary point
                z[i] = zi + (1e-8 + 1e-8j) * (1.0 + abs(zi))
                max_corr = 1.0
                continue
            newton = p / dp
            s = 0j
            for k in range(n):
                if k != i:
                    d = zi - z[k]
                    if d != 0:
                        s += 1.0 / d
            denom = 1.0 - newton * s
            w = newton if denom == 0 else newton / denom
            z[i] = zi - w
            rel = abs(w) / (1.0 + abs(z[i]))
            if rel > max_corr:
                max_corr = rel
        if max_corr < CORRECTION_TOL:
            return z, iterations, True
    return z, iterations, False
