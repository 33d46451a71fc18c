"""Discovery and verification of universal linear relations among mean values.

Writing each mean value as an exact coefficient vector over the monomial
basis, every identity sum_rho alpha_rho * phi(D, delta, rho) = 0 is a right
nullspace vector of the resulting matrix, so discovery reduces to exact
row reduction.  Vectors are normalized to primitive integer form (entry gcd
1, first nonzero entry positive).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from .exact import binomial
from .means import PhiKey, phi
from .sympoly import SymPoly, linear_combination


@dataclass(frozen=True)
class PhiMatrix:
    """Columns are mean-value keys, rows the monomials appearing in any of them."""

    keys: tuple  # of PhiKey
    monomials: tuple
    rows: tuple  # tuple of tuples of Fraction, shape (len(monomials), len(keys))

    @classmethod
    def build(cls, D: int, delta: int, rho_set) -> "PhiMatrix":
        keys = tuple(PhiKey(D, delta, r) for r in rho_set)
        polys = [phi(k).poly for k in keys]
        monos = sorted({m for p in polys for m, _ in p.terms()}, key=lambda m: m.sort_key())
        rows = tuple(
            tuple(p.coefficient(m) for p in polys) for m in monos
        )
        return cls(keys, tuple(monos), rows)

    @property
    def shape(self):
        return (len(self.monomials), len(self.keys))


def _clear_row_denominators(row) -> list:
    """Integer multiple of a row of ints or Fractions; an integral row is read as is."""
    lcm = 1
    for x in row:
        lcm = lcm * x.denominator // math.gcd(lcm, x.denominator)
    if lcm == 1:
        return [x.numerator for x in row]
    return [x.numerator * (lcm // x.denominator) for x in row]


def _echelon(int_rows, ncols: int) -> list:
    """Nonzero rows of a fraction-free (Bareiss) forward elimination.

    Reduces ``int_rows`` (lists of ints, modified in place) to row echelon
    form with the same row space; at most ``ncols`` rows remain.
    """
    mat = [r for r in int_rows if any(r)]
    nrows = len(mat)
    prev_piv = 1
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pr = next((i for i in range(r, nrows) if mat[i][c] != 0), None)
        if pr is None:
            continue
        if pr != r:
            mat[r], mat[pr] = mat[pr], mat[r]
        piv = mat[r][c]
        for i in range(r + 1, nrows):
            if not any(mat[i][c:]):
                continue
            fi = mat[i][c]
            for jc in range(c, ncols):
                mat[i][jc] = (mat[i][jc] * piv - fi * mat[r][jc]) // prev_piv
        prev_piv = piv
        r += 1
    return mat[:r]


def nullspace(rows, ncols: int | None = None) -> list:
    """Exact right-nullspace basis of a matrix of ints or Fractions.

    Denominators are cleared row by row, the integer matrix is reduced by
    ``_echelon``, and rational back-substitution gives the reduced echelon
    parametrization: one basis vector per free column, with a 1 in that free
    column and 0 in the other free columns.  The result depends only on the
    row space, so any matrix with the same row space (its echelon rows, say)
    gives the same basis.  Deterministic.  ``ncols`` is only needed when the
    matrix has no rows at all.
    """
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    mat = _echelon([_clear_row_denominators(row) for row in rows], ncols)
    pivot_cols = [next(c for c, x in enumerate(row) if x) for row in mat]
    free_cols = [c for c in range(ncols) if c not in pivot_cols]
    basis = []
    for f in free_cols:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for i in range(len(pivot_cols) - 1, -1, -1):
            c = pivot_cols[i]
            s = sum((mat[i][jc] * v[jc] for jc in range(c + 1, ncols)), Fraction(0))
            v[c] = -s / mat[i][c]
        basis.append(v)
    return basis


def primitive(vector) -> list:
    """Scale a rational vector to integers with gcd 1 and first nonzero > 0."""
    ints = _clear_row_denominators([Fraction(x) for x in vector])
    g = math.gcd(*ints)
    if g:
        ints = [x // g for x in ints]
    first = next((x for x in ints if x), 0)
    if first < 0:
        ints = [-x for x in ints]
    return ints


class RelationError(ValueError):
    pass


@dataclass(frozen=True)
class RelationVector:
    """A primitive integer vector alpha with sum_rho alpha_rho phi(D,delta,rho) = 0.

    The defining identity is re-verified symbolically on construction.
    """

    D: int
    delta: int
    support: tuple  # rho indices, ascending
    alpha: tuple  # ints aligned with support

    @classmethod
    def make(cls, D: int, delta: int, pairs) -> "RelationVector":
        items = sorted((int(r), a) for r, a in pairs if a)
        support = tuple(r for r, _ in items)
        alpha = tuple(primitive([a for _, a in items]))
        rel = cls(D, delta, support, alpha)
        if not rel.verify():
            raise RelationError(
                f"alpha {alpha} over rho {support} does not annihilate at D={D}, delta={delta}"
            )
        return rel

    def combination(self) -> SymPoly:
        return linear_combination(
            (a, phi(PhiKey(self.D, self.delta, r)).poly)
            for r, a in zip(self.support, self.alpha)
        )

    def verify(self) -> bool:
        return self.combination().is_zero()

    def as_mapping(self) -> dict:
        return dict(zip(self.support, self.alpha))

    def alpha_sum(self) -> int:
        return sum(self.alpha)

    def __str__(self):
        bits = []
        for r, a in zip(self.support, self.alpha):
            bits.append(f"{a:+d}*phi({self.D},{self.delta},{r})")
        return " ".join(bits) + " = 0"


def _dense(rel: RelationVector, rho_list) -> tuple:
    m = rel.as_mapping()
    return tuple(m.get(r, 0) for r in rho_list)


@dataclass
class RelationReport:
    D: int
    delta: int
    rho_set: tuple
    basis: list = field(default_factory=list)
    minimal_support: list = field(default_factory=list)
    distinguished: RelationVector | None = None
    zero_phis: tuple = ()
    minimal_support_skipped: bool = False

    @property
    def dim(self) -> int:
        return len(self.basis)

    def all_relations(self) -> list:
        out = list(self.basis)
        for rel in self.minimal_support:
            if rel not in out:
                out.append(rel)
        if self.distinguished is not None and self.distinguished not in out:
            out.append(self.distinguished)
        return out

    def zero_sum_ok(self) -> bool:
        return all(r.alpha_sum() == 0 for r in self.basis)

    def rank(self) -> int:
        dense = [list(_dense(r, self.rho_set)) for r in self.all_relations()]
        return len(_echelon(dense, len(self.rho_set)))

    def to_json(self) -> dict:
        return {
            "D": self.D,
            "delta": self.delta,
            "rho_set": list(self.rho_set),
            "dim": self.dim,
            "basis": [{"support": list(r.support), "alpha": list(r.alpha)} for r in self.basis],
            "minimal_support": [
                {"support": list(r.support), "alpha": list(r.alpha)} for r in self.minimal_support
            ],
            "distinguished": (
                {"support": list(self.distinguished.support), "alpha": list(self.distinguished.alpha)}
                if self.distinguished
                else None
            ),
            "zero_phis": list(self.zero_phis),
            "zero_sum_ok": self.zero_sum_ok(),
            "minimal_support_skipped": self.minimal_support_skipped,
        }


MINIMAL_SUPPORT_CAP = 12  # subset enumeration is 2^len; keep the window bounded


def find_relations(
    D: int,
    delta: int = 0,
    rho_set=None,
    minimal_support: bool = True,
    max_support: int | None = None,
) -> RelationReport:
    """Primitive basis of the relation space plus the minimal-support relations.

    The basis is the reduced-echelon nullspace basis, denominator-cleared.
    Minimal-support mining enumerates subsets of the nonzero columns whose
    mean values are linearly dependent while every proper subset is
    independent; each such subset carries a unique primitive vector.

    The matrix is reduced once by ``_echelon``; the basis and every subset
    nullspace are computed on (column slices of) those at most ``len(rho_set)``
    echelon rows.  They have the row space of the full matrix, so a column
    subset has the same nullspace there, and ``RelationVector.make`` still
    re-verifies each relation symbolically.
    """
    if rho_set is None:
        rho_set = range(1, D)
    rho_set = tuple(sorted(set(int(r) for r in rho_set)))
    for r in rho_set:
        PhiKey(D, delta, r)  # validates

    matrix = PhiMatrix.build(D, delta, rho_set)
    ncols = len(rho_set)
    echelon = _echelon([_clear_row_denominators(row) for row in matrix.rows], ncols)
    zero_phis = tuple(r for i, r in enumerate(rho_set) if not any(row[i] for row in echelon))

    basis_vecs = nullspace(echelon, ncols=ncols)
    basis = []
    for v in basis_vecs:
        ints = primitive(v)
        pairs = [(r, a) for r, a in zip(rho_set, ints) if a]
        if pairs:
            basis.append(RelationVector.make(D, delta, pairs))
    report = RelationReport(D, delta, rho_set, basis=basis, zero_phis=zero_phis)

    if minimal_support:
        live = [i for i, r in enumerate(rho_set) if r not in zero_phis]
        cap = max_support if max_support is not None else MINIMAL_SUPPORT_CAP
        if len(live) > cap:
            # subset enumeration is 2^|live|; report honestly instead of mining
            report.minimal_support_skipped = True
            live = []
        found: list = []
        found_supports: list = []
        for size in range(2, len(live) + 1):
            for subset in combinations(live, size):
                if any(set(s) <= set(subset) for s in found_supports):
                    continue
                null = nullspace([[row[i] for i in subset] for row in echelon], ncols=size)
                if not null:
                    continue
                # minimal dependent subset => one-dimensional, full support
                vec = primitive(null[0])
                if all(vec):
                    found_supports.append(subset)
                    found.append(
                        RelationVector.make(D, delta, zip((rho_set[i] for i in subset), vec))
                    )
        found.sort(key=lambda rel: (len(rel.support), rel.support, rel.alpha))
        report.minimal_support = found

    if delta == 0 and D % 2 == 1 and rho_set == tuple(range(1, D)):
        alt = alternating_binomial_vector(D)
        if alt is not None:
            report.distinguished = alt
    return report


@lru_cache(maxsize=None)
def relation_space_dim(D: int) -> int:
    """Nullspace dimension of the fundamental family (delta=0, rho=1..D-1)."""
    if D < 2:
        raise ValueError("D must be >= 2")
    matrix = PhiMatrix.build(D, 0, range(1, D))
    return len(nullspace(list(matrix.rows), ncols=len(matrix.keys)))


def alternating_binomial_vector(D: int) -> RelationVector | None:
    """The primitive form of sum_(0<rho<D) (-1)^rho C(D,rho) phi(D,0,rho), if it annihilates."""
    pairs = [(r, (-1) ** r * binomial(D, r)) for r in range(1, D)]
    try:
        return RelationVector.make(D, 0, pairs)
    except RelationError:
        return None


def check_odd_binomial(D: int) -> bool:
    """True iff the alternating binomial combination vanishes identically (odd D)."""
    if D < 3 or D % 2 == 0:
        raise ValueError("check_odd_binomial needs odd D >= 3")
    return alternating_binomial_vector(D) is not None


def check_inheritance(rel: RelationVector) -> bool:
    """True iff the shifted relation (D+1, delta+1, support+1) also annihilates."""
    D1, d1 = rel.D + 1, rel.delta + 1
    support = tuple(r + 1 for r in rel.support)
    for r in support:
        PhiKey(D1, d1, r)  # raises on invalid shifted keys
    return RelationVector(D1, d1, support, rel.alpha).verify()
