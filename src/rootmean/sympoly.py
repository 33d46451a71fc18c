"""Sparse exact polynomial algebra over the graded parameter family.

A degree-D monic polynomial is written with coefficient of x^j equal to
(-1)^(D-j) C(D,j) times the order-(D-j) parameter, where the order-i
parameter is the mean of all C(D,i) products of i roots.  Parameters are
graded, and every derived function of a degree-D polynomial draws on one
family with exactly one parameter per weight: weight p is the root
parameter r_p for p <= D and the integration constant c_(p-D) above D
(a derivative truncates the family, an antiderivative extends it).  So a
monomial of weight w is a partition of w, and a polynomial keys its terms by
``exact.PartitionVector``, the type the Girard-Waring expansion and single
coefficient queries use as well.  ``part_name`` names a part; it needs D
only to tell the constants apart.

Everything here is immutable and safe to share across threads.
"""

from __future__ import annotations

from fractions import Fraction

from .exact import ZERO, PartitionVector


def part_name(p: int, D: int | None = None) -> str:
    """r<p> for p <= D, c<p-D> above D; with D None every part is a root parameter."""
    return f"r{p}" if D is None or p <= D else f"c{p - D}"


def _sort_key(m: PartitionVector):
    # graded, then lexicographic over ascending parts with larger exponents
    # first: within one weight this is the table order r1^D, r1^(D-2) r2, ...
    return (m.j, tuple((p, -k) for p, k in reversed(m.items)))


class SymPoly:
    """Immutable sparse polynomial: PartitionVector -> nonzero Fraction."""

    __slots__ = ("_terms",)

    def __init__(self, terms: dict | None = None):
        self._terms = {m: c for m, c in (terms or {}).items() if c != 0}

    @classmethod
    def _raw(cls, clean_terms: dict) -> "SymPoly":
        # trusted constructor: no zero coefficients present
        out = cls.__new__(cls)
        out._terms = clean_terms
        return out

    # ---- constructors -------------------------------------------------
    @classmethod
    def term(cls, coeff, parts) -> "SymPoly":
        """coeff times the monomial {part: exponent} (a dict or its pairs)."""
        coeff = Fraction(coeff)
        return cls._raw({PartitionVector.from_parts(dict(parts)): coeff} if coeff else {})

    # ---- inspection ----------------------------------------------------
    def __bool__(self):
        return bool(self._terms)

    def __len__(self):
        return len(self._terms)

    def terms(self):
        """Terms in canonical order (graded, then lexicographic)."""
        return sorted(self._terms.items(), key=lambda t: _sort_key(t[0]))

    def coefficient(self, monomial: PartitionVector) -> Fraction:
        return self._terms.get(monomial, ZERO)

    def monomials(self):
        """The monomials with a nonzero coefficient, in no particular order."""
        return self._terms.keys()

    def symbols(self) -> set:
        """The parts (parameter weights) that occur."""
        return {p for m in self._terms for p, _ in m.items}

    def sum_positive(self) -> Fraction:
        return sum((c for c in self._terms.values() if c > 0), ZERO)

    # ---- arithmetic ----------------------------------------------------------
    def scale(self, c) -> "SymPoly":
        c = Fraction(c)
        return SymPoly._raw({m: c * v for m, v in self._terms.items()} if c else {})

    def __eq__(self, other):
        return isinstance(other, SymPoly) and self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    # ---- serialization ------------------------------------------------------
    def to_json(self, D: int | None = None) -> dict:
        """{"terms": [{"expt": {"r1": 4}, "coeff": "-9"}, ...]} in canonical order.

        Parts above D are named as integration constants (``part_name``).
        """
        terms = []
        for m, c in self.terms():
            expt = {part_name(p, D): e for p, e in reversed(m.items)}
            coeff = str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"
            terms.append({"expt": expt, "coeff": coeff})
        return {"terms": terms}

    def render(self, name=part_name) -> str:
        """'c1 m1 + c2 m2 ...' in canonical order; ``name(p)`` spells the part p."""
        if not self._terms:
            return "0"
        bits = []
        for m, c in self.terms():
            lead = f"+ {c}" if c > 0 else f"- {-c}"
            if m.items:
                lead += " " + " ".join(
                    name(p) if e == 1 else f"{name(p)}^{e}" for p, e in reversed(m.items)
                )
            bits.append(lead)
        out = " ".join(bits)
        return out[2:] if out.startswith("+ ") else "-" + out[2:]

    def __str__(self):
        return self.render()

    def __repr__(self):
        return f"SymPoly({self})"


def poly_sum(polys) -> SymPoly:
    """Sum many polynomials without intermediate copies, dropping cancellations."""
    acc: dict = {}
    for p in polys:
        for m, c in p._terms.items():
            v = acc.get(m, ZERO) + c
            if v:
                acc[m] = v
            else:
                acc.pop(m, None)
    return SymPoly._raw(acc)
