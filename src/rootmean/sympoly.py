"""Sparse exact polynomial algebra over the root-mean parameters.

A degree-D monic polynomial is written with coefficient of x^j equal to
(-1)^(D-j) C(D,j) times the order-(D-j) parameter, where the order-i
parameter is the mean of all C(D,i) products of i roots.  Parameters are
graded: the order-i root parameter has weight i; integration constants
(introduced when antiderivatives extend the parameter family) are assigned
their own weights at creation.

Everything here is immutable and safe to share across threads.  Symbols and
monomials cache their hashes; degree-20+ sweeps hammer these paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .exact import ZERO, binomial


class UnboundSymbolError(KeyError):
    """Raised by substitute()/evaluate() when a symbol has no binding."""

    def __init__(self, symbol):
        self.symbol = symbol
        super().__init__(f"no binding for symbol {symbol}")


class Symbol:
    """A graded indeterminate: a root-mean parameter or an integration constant.

    kind "r": order i is the bar count, weight == i.
    kind "c": order m is the constant's index, weight assigned at creation.
    """

    __slots__ = ("kind", "order", "weight", "_key", "_hash")

    def __init__(self, kind: str, order: int, weight: int):
        if kind not in ("r", "c"):
            raise ValueError(f"unknown symbol kind {kind!r}")
        if order < 1:
            raise ValueError("symbol order must be >= 1")
        if kind == "r" and weight != order:
            raise ValueError("root parameter weight must equal its order")
        self.kind = kind
        self.order = order
        self.weight = weight
        self._key = (0 if kind == "r" else 1, order, weight)
        self._hash = hash(self._key)

    @property
    def name(self) -> str:
        return f"{self.kind}{self.order}"

    def sort_key(self):
        return self._key

    def __lt__(self, other):
        return self._key < other._key

    def __eq__(self, other):
        return self is other or (isinstance(other, Symbol) and self._key == other._key)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return self.name


@lru_cache(maxsize=None)
def root_param(i: int) -> Symbol:
    return Symbol("r", i, i)


@lru_cache(maxsize=None)
def integration_const(m: int, weight: int) -> Symbol:
    return Symbol("c", m, weight)


def parse_symbol(name: str, const_weights: dict | None = None) -> Symbol:
    """Inverse of Symbol.name.  Constants need their weights supplied."""
    kind, order = name[0], int(name[1:])
    if kind == "r":
        return root_param(order)
    if kind == "c":
        if const_weights is None or order not in const_weights:
            raise ValueError(f"cannot parse {name!r} without a weight for c{order}")
        return integration_const(order, const_weights[order])
    raise ValueError(f"bad symbol name {name!r}")


class Monomial:
    """Product of symbol powers; ``powers`` is sorted by symbol, no zero exponents."""

    __slots__ = ("powers", "weight", "_hash")

    def __init__(self, powers: tuple):
        # trusted constructor: powers must be sorted with positive exponents
        self.powers = powers
        self.weight = sum(s.weight * e for s, e in powers)
        self._hash = hash(powers)

    @classmethod
    def from_pairs(cls, pairs) -> "Monomial":
        items = tuple(sorted(((s, e) for s, e in pairs if e), key=lambda p: p[0]._key))
        if any(e < 0 for _, e in items):
            raise ValueError("negative exponent")
        return cls(items)

    def mul(self, other: "Monomial") -> "Monomial":
        if not self.powers:
            return other
        if not other.powers:
            return self
        acc = {s: e for s, e in self.powers}
        for s, e in other.powers:
            acc[s] = acc.get(s, 0) + e
        return Monomial.from_pairs(acc.items())

    def sort_key(self):
        # graded, then lexicographic with larger exponents first: within one
        # weight this reproduces the usual table ordering r1^D, r1^(D-2) r2, ...
        return (self.weight, tuple((s._key, -e) for s, e in self.powers))

    def symbols(self):
        return [s for s, _ in self.powers]

    def __eq__(self, other):
        return isinstance(other, Monomial) and self.powers == other.powers

    def __hash__(self):
        return self._hash

    def __str__(self):
        if not self.powers:
            return "1"
        bits = []
        for s, e in self.powers:
            bits.append(s.name if e == 1 else f"{s.name}^{e}")
        return " ".join(bits)

    def __repr__(self):
        return f"Monomial({self})"


MONOMIAL_ONE = Monomial(())


class SymPoly:
    """Immutable sparse polynomial: Monomial -> nonzero Fraction."""

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
    def zero(cls) -> "SymPoly":
        return cls._raw({})

    @classmethod
    def constant(cls, c) -> "SymPoly":
        c = Fraction(c)
        return cls._raw({MONOMIAL_ONE: c} if c else {})

    @classmethod
    def symbol(cls, s: Symbol) -> "SymPoly":
        return cls._raw({Monomial(((s, 1),)): Fraction(1)})

    @classmethod
    def term(cls, coeff, pairs) -> "SymPoly":
        coeff = Fraction(coeff)
        if not coeff:
            return cls.zero()
        return cls._raw({Monomial.from_pairs(pairs): coeff})

    # ---- inspection ----------------------------------------------------
    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self):
        return bool(self._terms)

    def __len__(self):
        return len(self._terms)

    def terms(self):
        """Terms in canonical order (graded, then lexicographic)."""
        return sorted(self._terms.items(), key=lambda t: t[0].sort_key())

    def coefficient(self, monomial: Monomial) -> Fraction:
        return self._terms.get(monomial, ZERO)

    def monomials(self):
        """The monomials with a nonzero coefficient, in no particular order."""
        return self._terms.keys()

    def symbols(self) -> set:
        out = set()
        for m in self._terms:
            out.update(m.symbols())
        return out

    def weights(self) -> set:
        return {m.weight for m in self._terms}

    def sum_positive(self) -> Fraction:
        return sum((c for c in self._terms.values() if c > 0), ZERO)

    # ---- ring operations -------------------------------------------------
    def __add__(self, other: "SymPoly") -> "SymPoly":
        if not isinstance(other, SymPoly):
            return NotImplemented
        acc = dict(self._terms)
        _accumulate(acc, other._terms, None)
        return SymPoly._raw(acc)

    def __neg__(self) -> "SymPoly":
        return SymPoly._raw({m: -c for m, c in self._terms.items()})

    def __sub__(self, other: "SymPoly") -> "SymPoly":
        if not isinstance(other, SymPoly):
            return NotImplemented
        acc = dict(self._terms)
        _accumulate(acc, other._terms, Fraction(-1))
        return SymPoly._raw(acc)

    def scale(self, c) -> "SymPoly":
        c = Fraction(c)
        if not c:
            return SymPoly.zero()
        return SymPoly._raw({m: c * v for m, v in self._terms.items()})

    def __mul__(self, other: "SymPoly") -> "SymPoly":
        if not isinstance(other, SymPoly):
            return NotImplemented
        acc: dict = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                m = m1.mul(m2)
                v = acc.get(m, ZERO) + c1 * c2
                if v:
                    acc[m] = v
                else:
                    acc.pop(m, None)
        return SymPoly._raw(acc)

    def __pow__(self, e: int) -> "SymPoly":
        if e < 0:
            raise ValueError("negative power")
        out = SymPoly.constant(1)
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def __eq__(self, other):
        return isinstance(other, SymPoly) and self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    # ---- substitution and evaluation --------------------------------------
    def substitute(self, binding: dict) -> "SymPoly":
        """Simultaneous substitution Symbol -> SymPoly; every symbol must be bound."""
        out: dict = {}
        for m, c in self._terms.items():
            piece = SymPoly.constant(c)
            for s, e in m.powers:
                if s not in binding:
                    raise UnboundSymbolError(s)
                piece = piece * (binding[s] ** e)
            _accumulate(out, piece._terms, None)
        return SymPoly._raw(out)

    def evaluate(self, values: dict):
        """Evaluate at concrete values (Fractions stay exact, floats/complex work too)."""
        total = None
        for m, c in self._terms.items():
            piece = c
            for s, e in m.powers:
                if s not in values:
                    raise UnboundSymbolError(s)
                piece = piece * values[s] ** e
            total = piece if total is None else total + piece
        return ZERO if total is None else total

    # ---- serialization ------------------------------------------------------
    def to_json(self) -> dict:
        """{"terms": [{"expt": {"r1": 4}, "coeff": "-9"}, ...]} in canonical order."""
        terms = []
        for m, c in self.terms():
            expt = {s.name: e for s, e in m.powers}
            coeff = str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"
            terms.append({"expt": expt, "coeff": coeff})
        return {"terms": terms}

    @classmethod
    def from_json(cls, data: dict, const_weights: dict | None = None) -> "SymPoly":
        acc: dict = {}
        for t in data["terms"]:
            pairs = [(parse_symbol(name, const_weights), e) for name, e in t["expt"].items()]
            m = Monomial.from_pairs(pairs)
            c = Fraction(t["coeff"])
            v = acc.get(m, ZERO) + c
            if v:
                acc[m] = v
            else:
                acc.pop(m, None)
        return cls._raw(acc)

    def __str__(self):
        if not self._terms:
            return "0"
        bits = []
        for m, c in self.terms():
            lead = f"+ {c}" if c > 0 else f"- {-c}"
            bits.append(f"{lead} {m}" if m.powers else lead)
        out = " ".join(bits)
        return out[2:] if out.startswith("+ ") else "-" + out[2:]

    def __repr__(self):
        return f"SymPoly({self})"


def _accumulate(acc: dict, terms: dict, factor) -> None:
    """acc += factor * terms, in place, dropping cancellations."""
    for m, c in terms.items():
        v = acc.get(m, ZERO) + (c if factor is None else factor * c)
        if v:
            acc[m] = v
        else:
            acc.pop(m, None)


def poly_sum(polys) -> SymPoly:
    """Sum many polynomials without intermediate copies."""
    acc: dict = {}
    for p in polys:
        _accumulate(acc, p._terms, None)
    return SymPoly._raw(acc)


def linear_combination(pairs) -> SymPoly:
    """sum of coeff * poly over (coeff, poly) pairs, single accumulation pass."""
    acc: dict = {}
    for coeff, p in pairs:
        coeff = Fraction(coeff)
        if coeff:
            _accumulate(acc, p._terms, coeff)
    return SymPoly._raw(acc)


@dataclass(frozen=True)
class QuasiBinomialVector:
    """The ordered parameter family of a monic polynomial, one entry per order.

    Entry i (1-based) carries weight i; normally it is the atomic order-i root
    parameter, but antiderivative extension appends integration-constant
    symbols in the slots past the original degree.
    """

    entries: tuple  # of SymPoly

    @classmethod
    def standard(cls, degree: int) -> "QuasiBinomialVector":
        if degree < 1:
            raise ValueError("degree must be >= 1")
        return cls(tuple(SymPoly.symbol(root_param(i)) for i in range(1, degree + 1)))

    @property
    def degree(self) -> int:
        return len(self.entries)

    def entry(self, i: int) -> SymPoly:
        """1-based access to the order-i parameter."""
        return self.entries[i - 1]


def truncate_params(R: QuasiBinomialVector, m: int) -> QuasiBinomialVector:
    """Drop the top m entries: the parameter vector of the m-th derivative."""
    if not 0 < m < R.degree:
        raise ValueError(f"truncate_params needs 0 < m < degree, got m={m}, degree={R.degree}")
    return QuasiBinomialVector(R.entries[: R.degree - m])


def extend_params(R: QuasiBinomialVector, m: int) -> QuasiBinomialVector:
    """Append m fresh integration constants: the parameter vector of the m-th antiderivative.

    The new constants get indices continuing any already present and weights
    degree+1 .. degree+m, so extending twice agrees with extending once by the sum.
    """
    if m < 1:
        raise ValueError("extend_params needs m >= 1")
    existing = 0
    for e in R.entries:
        if any(s.kind == "c" for s in e.symbols()):
            existing += 1
    new = [
        SymPoly.symbol(integration_const(existing + i, R.degree + i))
        for i in range(1, m + 1)
    ]
    return QuasiBinomialVector(R.entries + tuple(new))


def quasi_binomial_coeffs(D: int, R: QuasiBinomialVector) -> list:
    """Coefficient list (x^D down to x^0) of the monic degree-D polynomial on R.

    Coefficient of x^(D-i) is (-1)^i C(D,i) times entry i; the leading
    coefficient is 1.
    """
    if D < 1:
        raise ValueError("degree must be >= 1")
    if R.degree < D:
        raise ValueError(f"parameter vector of degree {R.degree} too short for D={D}")
    coeffs = [SymPoly.constant(1)]
    for i in range(1, D + 1):
        sign = -1 if i % 2 else 1
        coeffs.append(R.entry(i).scale(sign * binomial(D, i)))
    return coeffs
