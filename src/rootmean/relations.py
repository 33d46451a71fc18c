"""Discovery and verification of universal linear relations among mean values.

Writing each mean value as an exact coefficient vector over the monomial
basis, every identity sum_rho alpha_rho * phi(D, delta, rho) = 0 is a right
nullspace vector of the resulting matrix, so discovery reduces to exact
row reduction; the minimal-support relations are the circuits of its columns,
read off the nullspace basis.  Vectors are normalized to primitive integer
form (entry gcd 1, first nonzero entry positive).

Every relation, found or given, is proved by one exact check that expands
no mean value, the coefficient-sum certificate ``certify_relations``.  The
certificate is centred: mean values are translation invariant, so it checks
the identity on the slice r_1 = 0 and walks only the partitions without the
part 1.

The dimension of the fundamental relation space (delta = 0, rho = 1..D-1) is
certified by two exact bounds that must meet: phi evaluated at D+1 integer
points (``means.mean_values``, Newton's identities) gives a matrix whose
nullity bounds it from above, and the certificate proves each kernel vector.
"""

from __future__ import annotations

import math
import operator
import random
from dataclasses import dataclass, field
from itertools import combinations

from .means import PhiKey, mean_values, phi


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
        # row order cannot change a nullspace basis, so monomials stay unsorted
        monos = tuple(dict.fromkeys(m for p in polys for m in p.monomials()))
        rows = tuple(tuple(p.coefficient(m) for p in polys) for m in monos)
        return cls(keys, monos, rows)

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
    """Exact right-nullspace basis of a matrix of ints or Fractions, as
    primitive integer vectors: one per free column, 0 in the other ones.

    Denominators are cleared row by row, and the integer matrix is reduced
    by ``_echelon``.  Back-substitution sets the free entry to the last
    Bareiss pivot, the determinant of the pivot rows on the pivot columns,
    so by Cramer's rule every entry is an integer and each division exact.
    Each vector is the primitive form of the reduced echelon one (1 in its
    free column), which depends only on the row space, so any matrix with
    the same row space (its echelon rows, say) gives the same basis.
    ``ncols`` is only needed when the matrix has no rows at all.
    """
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    mat = _echelon([_clear_row_denominators(row) for row in rows], ncols)
    pivot_cols = [next(c for c, x in enumerate(row) if x) for row in mat]
    last_pivot = mat[-1][pivot_cols[-1]] if mat else 1
    basis = []
    for f in (c for c in range(ncols) if c not in pivot_cols):
        v = [0] * ncols
        v[f] = last_pivot
        for row, c in zip(reversed(mat), reversed(pivot_cols)):
            v[c] = -sum(map(operator.mul, row, v)) // row[c]
        basis.append(primitive(v))
    return basis


def primitive(vector) -> list:
    """Scale a vector of ints or Fractions to integers with gcd 1 and first nonzero > 0."""
    ints = _clear_row_denominators(vector)
    g = math.gcd(*ints)
    if g:
        ints = [x // g for x in ints]
    first = next((x for x in ints if x), 0)
    if first < 0:
        ints = [-x for x in ints]
    return ints


def _circuits(vecs) -> list:
    """Minimal-support vectors of the span of independent integer ``vecs``, one per support.

    With ``k = len(vecs)``, a set ``T`` of ``k - 1`` coordinates on which
    ``vecs`` have a one-dimensional kernel fixes the line of the span that
    vanishes on ``T``, and it is a circuit: a smaller support also vanishes on
    ``T``.  Every circuit vanishes on some such ``T``, so this finds them all.
    """
    k = len(vecs)
    if not k:
        return []
    ncols = len(vecs[0])
    found = {}
    for T in combinations(range(ncols), k - 1):
        null = nullspace([[vec[t] for vec in vecs] for t in T], ncols=k)
        if len(null) != 1:
            continue
        vec = [sum(c * v[j] for c, v in zip(null[0], vecs)) for j in range(ncols)]
        found.setdefault(tuple(j for j, a in enumerate(vec) if a), vec)
    return list(found.values())


class RelationError(ValueError):
    pass


@dataclass(frozen=True)
class RelationVector:
    """A primitive integer vector alpha with sum_rho alpha_rho phi(D,delta,rho) = 0.

    ``make`` is the constructor: it proves the defining identity with
    ``certify_relations``.
    """

    D: int
    delta: int
    support: tuple  # rho indices, ascending
    alpha: tuple  # ints aligned with support

    @classmethod
    def make(cls, D: int, delta: int, pairs) -> "RelationVector":
        items = sorted((int(r), a) for r, a in pairs if a)
        if not items:
            raise RelationError(f"no nonzero coefficient at D={D}, delta={delta}")
        support = tuple(r for r, _ in items)
        alpha = tuple(primitive([a for _, a in items]))
        if not certify_relations(D, [alpha], delta, support):
            raise RelationError(
                f"alpha {alpha} over rho {support} does not annihilate at D={D}, delta={delta}"
            )
        return cls(D, delta, support, alpha)

    def to_json(self) -> dict:
        return {"support": list(self.support), "alpha": list(self.alpha)}

    def __str__(self):
        bits = []
        for r, a in zip(self.support, self.alpha):
            bits.append(f"{a:+d}*phi({self.D},{self.delta},{r})")
        return " ".join(bits) + " = 0"


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
        return all(sum(r.alpha) == 0 for r in self.basis)

    def to_json(self) -> dict:
        return {
            "D": self.D,
            "delta": self.delta,
            "rho_set": list(self.rho_set),
            "dim": self.dim,
            "basis": [r.to_json() for r in self.basis],
            "minimal_support": [r.to_json() for r in self.minimal_support],
            "distinguished": self.distinguished.to_json() if self.distinguished else None,
            "zero_phis": list(self.zero_phis),
            "zero_sum_ok": self.zero_sum_ok(),
            "minimal_support_skipped": self.minimal_support_skipped,
        }


# most live columns (window columns whose phi is not 0) searched for circuits:
# --D 5 --extended has 11 and 157 circuits, --D 6 --extended 13 and is skipped
MINIMAL_SUPPORT_CAP = 12


def find_relations(
    D: int,
    delta: int = 0,
    rho_set=None,
    minimal_support: bool = True,
) -> RelationReport:
    """Primitive basis of the relation space plus the minimal-support relations.

    The basis is the primitive nullspace basis of the ``PhiMatrix``
    (``nullspace``), one integer vector per free column.  A mean value is
    zero exactly when its unit vector is a basis vector.

    The minimal-support relations are the circuits of the column matroid: the
    minimal-support vectors of the relation space restricted to the live
    (nonzero) columns, read off the basis by ``_circuits``.
    ``RelationVector.make`` proves each one with ``certify_relations``.
    """
    if rho_set is None:
        rho_set = range(1, D)
    rho_set = tuple(sorted(set(int(r) for r in rho_set)))
    matrix = PhiMatrix.build(D, delta, rho_set)
    ncols = len(rho_set)
    basis_vecs = nullspace(matrix.rows, ncols=ncols)
    zero_phis = tuple(rho_set[v.index(1)] for v in basis_vecs if sum(map(bool, v)) == 1)
    basis = [RelationVector.make(D, delta, zip(rho_set, v)) for v in basis_vecs]
    report = RelationReport(D, delta, rho_set, basis=basis, zero_phis=zero_phis)

    if minimal_support:
        live = [i for i, r in enumerate(rho_set) if r not in zero_phis]
        if len(live) > MINIMAL_SUPPORT_CAP:
            report.minimal_support_skipped = True
            live = []
        # a zero column's free vector is its unit vector, which vanishes on live
        vecs = [[v[i] for i in live] for v in basis_vecs if any(v[i] for i in live)]
        rhos = [rho_set[i] for i in live]
        found = [RelationVector.make(D, delta, zip(rhos, vec)) for vec in _circuits(vecs)]
        report.minimal_support = sorted(found, key=lambda rel: (len(rel.support), rel.support, rel.alpha))

    if delta == 0 and D % 2 == 1 and rho_set == tuple(range(1, D)):
        alt = alternating_binomial_vector(D)
        if alt is not None:
            report.distinguished = alt
    return report


def certify_relations(D: int, alphas, delta: int = 0, rho_set=None) -> bool:
    """True iff each alpha gives sum_rho alpha_rho phi(D, delta, rho) = 0 exactly.

    Each alpha is an integer vector aligned with ``rho_set``, strictly
    ascending (default 1..D-1); an invalid key raises ValueError
    (``PhiKey``).  Scaling an alpha changes no verdict.  With
    deg_g = D - delta and n = D - rho, phi is sum_j w_j (order deg_g - j
    parameter) mean(z^j), and a partition kappa of j contributes
    c(kappa) prod_i C(n,i)^(k_i) / n to mean(z^j) (Girard-Waring), with
    c(kappa) = (-1)^(j+|kappa|) j multinomial(|kappa|; k) / |kappa|.  So,
    times L = lcm of the n, each kappa adds
    w_j c(kappa) sum_rho alpha_rho (L/n) prod_i C(n,i)^(k_i)
    to the coefficient of exactly one monomial, kappa + {deg_g - j} (a part
    p > D stands for the integration constant c_(p-D), a part 0 for none),
    and the empty partition adds w_0 L sum(alpha) to {deg_g}.  The factor
    D!/(D-delta)! of every w_j (``means._term_weight``) cannot make a total
    zero, so the walk weighs by C(deg_g, j) (-1)^(deg_g - j) alone.

    The walk is centred: it checks only the monomials without the part 1,
    the restriction of the combination to the slice r_1 = 0.  That proves
    the whole identity, because every mean value is translation invariant.
    A shift x -> x + c maps the original polynomial and each of its derived
    functions onto the same derived function of another member of the
    family; for an antiderivative this holds because every integration
    constant is a free parameter of the family.  The shift moves the roots
    of the rho-th derived function and the values of the delta-th together,
    so phi(D, delta, rho) is the same polynomial in the shifted parameters,
    for every delta and rho.  Choosing c = r_1 moves any point onto r_1 = 0,
    so a combination vanishes identically iff it vanishes there, that is,
    iff every coefficient of a monomial without the part 1 is 0.  The walk
    therefore visits only partitions with parts >= 2 and drops each term
    whose added part deg_g - j is 1.  At delta = D - 1 no monomial is left
    and every alpha is proved: the derived function f^(D-1) is linear and
    vanishes at the centroid r_1 of every root family.

    One depth-first walk over those partitions adds each term straight into
    its total, carrying the per-rho products, |kappa| and the multinomial;
    every total must end at 0.  c(kappa) is an integer
    (j (|kappa|-1)!/prod_i k_i! is a sum of multinomials), so the arithmetic
    stays integral.  At delta = D the walk is empty and only the constant
    term, L sum(alpha), remains; past D, phi is zero.
    """
    if rho_set is None:
        rho_set = range(1, D)
    ns = [D - rho for rho in rho_set]
    if any(a <= b for a, b in zip(ns, ns[1:])):
        raise ValueError(f"rho_set {tuple(rho_set)} is not strictly ascending")
    for rho in rho_set[-1:]:
        PhiKey(D, delta, rho)  # checks D, and the smallest family, which comes last
    if any(len(alpha) != len(ns) for alpha in alphas):
        raise ValueError(f"every alpha needs {len(ns)} entries, one per rho")
    if delta > D:
        return True
    deg_g = D - delta
    L = math.lcm(*ns)
    scaled = [[a * (L // n) for a, n in zip(alpha, ns)] for alpha in alphas]
    # C(n, part) over the n >= part, a prefix of the descending ns: parts only
    # shrink along a walk, so the first part fixes which rho stay live
    cols = [[math.comb(n, part) for n in ns if n >= part] for part in range(deg_g + 1)]
    w = [math.comb(deg_g, j) * (-1) ** (deg_g - j) for j in range(deg_g + 1)]
    # a multiset of parts is keyed by the sum of B^part, B = deg_g + 1 > any
    # multiplicity; part 0 adds nothing
    power = [0] + [(deg_g + 1) ** part for part in range(1, deg_g + 1)]
    # the empty partition feeds {deg_g}, which holds r_1 when deg_g = 1
    totals = {} if deg_g == 1 else {power[deg_g]: [w[0] * L * sum(alpha) for alpha in alphas]}

    def walk(j, top, mult, card, multinomial, prods, key):
        # kappa, a partition of j keyed by key, has card parts, the smallest
        # top with multiplicity mult, and multinomial(card; k) = multinomial
        for part in range(min(deg_g - j, top), 1, -1):
            # the child kappa + {part}, where part has multiplicity k
            k = mult + 1 if part == top else 1
            child_multinomial = multinomial * (card + 1) // k
            child_prods = list(map(operator.mul, prods, cols[part]))
            if deg_g - j - part != 1:
                c = (-1) ** (j + part + card + 1) * (j + part) * child_multinomial // (card + 1)
                term = [c * w[j + part] * sum(map(operator.mul, child_prods, a)) for a in scaled]
                m = key + power[part] + power[deg_g - j - part]
                total = totals.get(m)
                totals[m] = term if total is None else list(map(operator.add, total, term))
            if j + part < deg_g:
                walk(j + part, part, k, card + 1, child_multinomial, child_prods, key + power[part])

    walk(0, deg_g, 0, 0, 1, [1] * len(ns), 0)
    return not any(any(total) for total in totals.values())


EVALUATION_RANGE = 10  # the parameters of each evaluation point lie in -10..10


def relation_space_dim(D: int) -> int:
    """Certified dimension of the relation space of the fundamental family (delta=0, rho=1..D-1).

    The upper bound is the nullity of the exact evaluation matrix at D + 1
    integer points drawn from ``random.Random(D)``, each row
    phi(D, 0, rho) = M(D, D - rho) for rho = 1..D-1 (``mean_values``): it is
    the coefficient matrix times an evaluation map, so its kernel contains
    every relation.  The lower bound certifies each kernel basis vector with
    ``certify_relations``.  If a vector fails, the bound is loose, and D + 1
    more points are drawn once; if the bounds still do not meet, RelationError.
    """
    if D < 2:
        raise ValueError("D must be >= 2")
    rng = random.Random(D)
    rows = []
    for npoints in (D + 1, 2 * (D + 1)):
        while len(rows) < npoints:
            point = [1] + [rng.randint(-EVALUATION_RANGE, EVALUATION_RANGE) for _ in range(D)]
            rows.append(mean_values(D, range(D - 1, 0, -1), point))
        basis = nullspace(rows, ncols=D - 1)
        if certify_relations(D, basis):
            return len(basis)
    raise RelationError(
        f"relation dimension at D={D} not certified: the {len(basis)} kernel vectors "
        f"of {len(rows)} exact evaluations are not all relations"
    )


def alternating_binomial_vector(D: int) -> RelationVector | None:
    """The primitive form of sum_(0<rho<D) (-1)^rho C(D,rho) phi(D,0,rho), if it annihilates."""
    pairs = [(r, (-1) ** r * math.comb(D, r)) for r in range(1, D)]
    try:
        return RelationVector.make(D, 0, pairs)
    except RelationError:
        return None
