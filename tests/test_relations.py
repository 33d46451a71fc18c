from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rootmean import relations
from rootmean.cli import HARD_DEGREE_CAP
from rootmean.means import PhiKey, phi
from rootmean.relations import (
    MINIMAL_SUPPORT_CAP,
    PhiMatrix,
    RelationError,
    RelationVector,
    alternating_binomial_vector,
    certify_relations,
    _circuits,
    _clear_row_denominators,
    _echelon,
    find_relations,
    nullspace,
    primitive,
    relation_space_dim,
)

from oracles import add, as_mapping, evaluate, full_walk_verdicts, rank, rational_nullspace


def plain_rank(vectors) -> int:
    """Rank by plain rational Gaussian elimination, independent of ``_echelon``."""
    if not vectors:
        return 0
    rows = [[Fraction(x) for x in v] for v in vectors]
    ncols = len(rows[0])
    rank = 0
    for c in range(ncols):
        pr = next((i for i in range(rank, len(rows)) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[rank], rows[pr] = rows[pr], rows[rank]
        piv = rows[rank][c]
        for i in range(rank + 1, len(rows)):
            if rows[i][c]:
                f = rows[i][c] / piv
                for jc in range(c, ncols):
                    rows[i][jc] -= f * rows[rank][jc]
        rank += 1
    return rank


def as_set(rels):
    return {(r.support, r.alpha) for r in rels}


def test_nullspace_identity():
    rows = [[Fraction(int(i == j)) for j in range(3)] for i in range(3)]
    assert nullspace(rows) == []


def test_nullspace_duplicate_columns():
    rows = [[Fraction(1), Fraction(1), Fraction(0)], [Fraction(2), Fraction(2), Fraction(5)]]
    assert nullspace(rows) == [[1, -1, 0]]


def test_nullspace_of_quartic_columns():
    m = PhiMatrix.build(4, 0, (1, 2, 3))
    assert nullspace(list(m.rows)) == [[5, -6, 1]]


def test_nullspace_wide_zero_matrix():
    rows = [[Fraction(0)] * 4]
    basis = nullspace(rows)
    assert len(basis) == 4  # every column is free


def test_primitive_normalization():
    assert primitive([Fraction(-5, 3), Fraction(10, 3)]) == [1, -2]
    assert primitive([Fraction(0), Fraction(-4), Fraction(6)]) == [0, 2, -3]


def test_relation_vector_verifies_on_construction():
    rel = RelationVector.make(4, 0, {1: 5, 2: -6, 3: 1}.items())
    assert rel.support == (1, 2, 3)
    assert rel.alpha == (5, -6, 1)
    with pytest.raises(RelationError):
        RelationVector.make(4, 0, {1: 1, 2: 1, 3: 1}.items())
    with pytest.raises(RelationError):
        RelationVector.make(4, 0, {1: 0, 2: 0}.items())  # the empty relation proves nothing


def test_relation_vector_normalizes():
    rel = RelationVector.make(4, 0, {1: -10, 2: 12, 3: -2}.items())
    assert rel.alpha == (5, -6, 1)


def test_mixed_value_order_relation():
    rep = find_relations(5, delta=2, rho_set=(0, 3))
    assert as_set(rep.all_relations()) == {((0, 3), (1, 5))}


def test_zero_phi_columns_reported():
    rep = find_relations(4, 0, range(-2, 4), minimal_support=False)
    assert rep.zero_phis == (0,)


def test_dimension_examples():
    assert relation_space_dim(2) == 0
    assert relation_space_dim(6) == 1
    assert relation_space_dim(7) == 2


def relation_space_dim_by_expansion(D) -> int:
    """Nullity of the expanded PhiMatrix: the reference ``relation_space_dim`` must meet."""
    m = PhiMatrix.build(D, 0, range(1, D))
    return len(nullspace(list(m.rows), ncols=len(m.keys)))


def test_relation_space_dim_matches_expansion():
    for D in range(2, 15):
        assert relation_space_dim(D) == relation_space_dim_by_expansion(D), D


def test_relation_space_dim_expands_nothing(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("relation_space_dim expanded a mean value")

    monkeypatch.setattr(relations, "phi", forbidden)
    monkeypatch.setattr(relations.PhiMatrix, "build", classmethod(forbidden))
    monkeypatch.setattr("rootmean.means.materialize", forbidden)
    assert [relation_space_dim(D) for D in range(2, 12)] == [0, 1, 1, 2, 1, 2, 1, 2, 1, 2]


def test_certificate_needs_no_gw_factor_or_partition_vector(monkeypatch):
    # the walk carries the multinomial and keys partitions by integers
    def forbidden(*args, **kwargs):
        raise AssertionError("the certificate built a gw_factor or a PartitionVector")

    monkeypatch.setattr("rootmean.powersums.gw_factor", forbidden)
    monkeypatch.setattr("rootmean.exact.PartitionVector", forbidden)
    monkeypatch.setattr(relations, "gw_factor", forbidden, raising=False)
    monkeypatch.setattr(relations, "PartitionVector", forbidden, raising=False)
    assert certify_relations(12, [PRINTED_RELATIONS[-1][1]])
    assert relation_space_dim(16) == 1


def test_dimension_pattern_to_the_degree_cap():
    # criterion 4 stops at D=21; the CLI takes degrees up to HARD_DEGREE_CAP
    degrees = range(22, HARD_DEGREE_CAP + 1)
    assert [relation_space_dim(D) for D in degrees] == [1 + D % 2 for D in degrees]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_evaluator_matches_expanded_phi(data):
    # the upper bound is sound only if the Newton-identity evaluator is phi
    D = data.draw(st.integers(2, 10))
    point = [1] + data.draw(st.lists(st.integers(-30, 30), min_size=D, max_size=D))
    values = {i: Fraction(point[i]) for i in range(1, D + 1)}
    want = [evaluate(phi(PhiKey(D, 0, rho)).poly, values) for rho in range(1, D)]
    assert relations.mean_values(D, range(D - 1, 0, -1), point) == want


PRINTED_RELATIONS = [
    (4, [5, -6, 1]),
    (7, [85, -144, 90, -40, 9, 0]),
    (7, [82, -135, 75, -25, 0, 3]),
    (8, [669, -1260, 1050, -700, 315, -84, 10]),
    (12, [55991, -138600, 207900, -277200, 291060, -232848, 138600, -59400, 17325, -3080, 252]),
]


@pytest.mark.parametrize("D, alpha", PRINTED_RELATIONS)
def test_certificate_accepts_relations_and_rejects_perturbations(D, alpha):
    assert certify_relations(D, [alpha])
    assert certify_relations(D, [[Fraction(a, 7) for a in alpha]])  # scale-free
    for i in range(len(alpha)):
        for step in (1, -1):
            moved = list(alpha)
            moved[i] += step
            assert not certify_relations(D, [moved]), (i, step)
            assert not certify_relations(D, [alpha, moved]), (i, step)


def symbolic_relation(D, delta, rho_set, alpha) -> bool:
    """sum_rho alpha_rho phi(D, delta, rho) == 0 by expanding every phi: the certificate's oracle."""
    return not add(*(phi(PhiKey(D, delta, rho)).poly.scale(a) for rho, a in zip(rho_set, alpha)))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_certificate_matches_symbolic_oracle_property(data):
    D = data.draw(st.integers(2, 9), label="D")
    delta = data.draw(st.integers(-3, D + 1), label="delta")
    lo = data.draw(st.integers(-(D + 2), D - 1), label="lo")
    hi = data.draw(st.integers(lo, min(D - 1, lo + 8)), label="hi")
    rho_set = tuple(range(lo, hi + 1))
    coeff = st.integers(-3, 3)
    basis = nullspace(list(PhiMatrix.build(D, delta, rho_set).rows), ncols=len(rho_set))
    if basis and data.draw(st.booleans(), label="found"):
        lam = data.draw(st.lists(coeff, min_size=len(basis), max_size=len(basis)), label="lam")
        alpha = primitive([sum(c * v[i] for c, v in zip(lam, basis)) for i in range(len(rho_set))])
    else:
        alpha = data.draw(st.lists(coeff, min_size=len(rho_set), max_size=len(rho_set)), label="alpha")
    if data.draw(st.booleans(), label="perturb"):
        alpha[data.draw(st.integers(0, len(alpha) - 1))] += data.draw(st.sampled_from((1, -1)))
    want = symbolic_relation(D, delta, rho_set, alpha)
    assert certify_relations(D, [alpha], delta, rho_set) == want
    if any(alpha):
        pairs = zip(rho_set, alpha)
        if want:
            RelationVector.make(D, delta, pairs)
        else:
            with pytest.raises(RelationError):
                RelationVector.make(D, delta, pairs)


@pytest.fixture(scope="module")
def lemma_windows():
    """(D, delta, rho_set, PhiMatrix, kernel basis) on every window the centring
    lemma is checked on: D=2..7, delta=-3..D, the extended rho=-(D+2)..D-1."""
    out = []
    for D in range(2, 8):
        for delta in range(-3, D + 1):
            rho_set = tuple(range(-(D + 2), D))
            m = PhiMatrix.build(D, delta, rho_set)
            out.append((D, delta, rho_set, m, nullspace(list(m.rows), ncols=len(rho_set))))
    assert len(out) == 51
    return out


def test_kernel_is_read_off_the_slice_without_r1(lemma_windows):
    # translation invariance: the monomials without the part 1 carry the whole kernel
    for D, delta, rho_set, m, basis in lemma_windows:
        centred = [row for mono, row in zip(m.monomials, m.rows) if 1 not in dict(mono.items)]
        assert nullspace(centred, ncols=len(rho_set)) == basis, (D, delta)


def test_centred_certificate_matches_the_full_walk(lemma_windows):
    # each basis vector and each of its +-1 perturbations, on every lemma window
    checks = 0
    for D, delta, rho_set, _, basis in lemma_windows:
        for v in basis:
            alphas = [primitive(v)]
            for i in range(len(rho_set)):
                for step in (1, -1):
                    moved = list(alphas[0])
                    moved[i] += step
                    if any(moved):
                        alphas.append(moved)
            for alpha, want in zip(alphas, full_walk_verdicts(D, alphas, delta, rho_set)):
                assert certify_relations(D, [alpha], delta, rho_set) == want, (D, delta, alpha)
                checks += 1
    assert checks == 12507


def test_certificate_rejects_invalid_keys():
    with pytest.raises(ValueError, match="empty root family"):
        certify_relations(4, [[1, 1]], 0, (3, 4))
    with pytest.raises(ValueError, match="degree must be >= 2"):
        certify_relations(1, [[1]], 0, (0,))
    with pytest.raises(ValueError, match="empty root family"):
        RelationVector.make(4, 0, {1: 1, 4: 1}.items())
    with pytest.raises(ValueError, match="ascending"):
        certify_relations(4, [[1, -6, 5]], 0, (3, 2, 1))
    with pytest.raises(ValueError, match="entries"):
        certify_relations(4, [[5, -6]])


def test_uncertified_degree_raises(monkeypatch):
    # a wrong evaluator loosens the upper bound past what the certificate proves
    monkeypatch.setattr(relations, "mean_values", lambda a, ns, s: [Fraction(0)] * len(ns))
    for D in (2, 6, 7):
        with pytest.raises(RelationError, match=f"D={D}"):
            relation_space_dim(D)


def test_loose_bound_retries_with_more_points(monkeypatch):
    calls = []
    mean_values = relations.mean_values

    def first_points_lost(a, ns, s):
        calls.append(s)
        if len(calls) <= a + 1:
            return [Fraction(0)] * len(ns)
        return mean_values(a, ns, s)

    monkeypatch.setattr(relations, "mean_values", first_points_lost)
    assert relation_space_dim(9) == 2
    assert len(calls) == 2 * (9 + 1)


def test_nullspace_dimension_against_plain_rank():
    # independent oracle: rank by plain rational elimination (no fraction-free
    # division step), dim = columns - rank
    import random

    for D in range(2, 13):
        m = PhiMatrix.build(D, 0, range(1, D))
        dim = len(nullspace(list(m.rows), ncols=len(m.keys)))
        rank = plain_rank([list(col) for col in zip(*m.rows)]) if m.rows else 0
        assert dim == len(m.keys) - rank

    rng = random.Random(14)
    for _ in range(25):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
        rows = [[Fraction(rng.randint(-4, 4)) for _ in range(ncols)] for _ in range(nrows)]
        dim = len(nullspace(rows, ncols=ncols))
        rank = plain_rank([list(col) for col in zip(*rows)])
        assert dim == ncols - rank
        # every basis vector actually annihilates
        for v in nullspace(rows, ncols=ncols):
            for row in rows:
                assert sum(a * b for a, b in zip(row, v)) == 0


def test_dependency_structure_d5_d7():
    # any 3 of the printed relations are dependent, any 2 independent
    for D in (5, 7):
        rep = find_relations(D)
        rels = rep.minimal_support + ([rep.distinguished] if rep.distinguished else [])
        vectors = []
        for rel in rels:
            m = as_mapping(rel)
            vectors.append([Fraction(m.get(r, 0)) for r in rep.rho_set])

        for i in range(len(vectors)):
            for j in range(i + 1, len(vectors)):
                assert plain_rank([vectors[i], vectors[j]]) == 2
                for k in range(j + 1, len(vectors)):
                    assert plain_rank([vectors[i], vectors[j], vectors[k]]) == 2


def test_odd_binomial():
    assert alternating_binomial_vector(5).alpha == (1, -2, 2, -1)
    assert alternating_binomial_vector(7).alpha == (1, -3, 5, -5, 3, -1)
    assert alternating_binomial_vector(3).alpha == (1, -1)
    # even degrees have no alternating-binomial relation
    assert alternating_binomial_vector(4) is None


def shifted(rel):
    """The relation (D+1, delta+1, support+1) with the same alpha, proved by make."""
    pairs = [(r + 1, a) for r, a in zip(rel.support, rel.alpha)]
    return RelationVector.make(rel.D + 1, rel.delta + 1, pairs)


def test_inheritance_examples():
    for D, delta, alpha in ((4, 0, {1: 5, 2: -6, 3: 1}), (3, 0, {1: 1, 2: -1}), (3, 1, {0: 1, 2: 1})):
        rel = RelationVector.make(D, delta, alpha.items())
        assert shifted(rel).alpha == rel.alpha


def test_inheritance_shifted_vector_matches_printed():
    b = RelationVector.make(4, 0, {1: 5, 2: -6, 3: 1}.items())
    b_prime = RelationVector.make(5, 1, {2: 5, 3: -6, 4: 1}.items())
    assert shifted(b) == b_prime
    assert b_prime.alpha == (5, -6, 1)


def test_extended_window_includes_negative_orders():
    rep = find_relations(4, 0, range(-2, 4), minimal_support=True)
    found = as_set(rep.minimal_support)
    # the 2-support proportionality phi(4,0,2) = -(1/9) phi(4,0,-2)
    assert ((-2, 2), (1, 9)) in found


def test_zero_value_order_window_is_full_dimensional():
    # a window where every mean is identically zero annihilates trivially:
    # the relation space is all of it, one unit vector per column
    rep = find_relations(4, 5, (0, 1, 2))
    assert rep.zero_phis == (0, 1, 2)
    assert rep.dim == 3
    assert {(r.support, r.alpha) for r in rep.basis} == {
        ((0,), (1,)), ((1,), (1,)), ((2,), (1,))
    }


def test_miner_rediscovers_printed_extended_catalog():
    from rootmean import golden

    windows = {4: range(-6, 4), 5: range(-5, 5), 6: range(-4, 6)}
    mined = {}
    for D, window in windows.items():
        rep = find_relations(D, 0, window, minimal_support=True)
        mined[D] = as_set(rep.minimal_support) | as_set(rep.basis)
        if rep.distinguished:
            mined[D].add((rep.distinguished.support, rep.distinguished.alpha))
    for entry in golden.catalog_relations():
        if entry["section"] != "alpha_grids":
            continue
        D = entry["D"]
        rel = RelationVector.make(D, entry["delta"], entry["alpha"].items())
        if len(rel.support) == D - 1 and rel.support == tuple(range(1, D)):
            # the full-support alternating vector is not minimal-support;
            # it is produced separately on the fundamental window
            continue
        assert (rel.support, rel.alpha) in mined[D], (D, rel.support, rel.alpha)


def test_report_json_schema():
    rep = find_relations(7, minimal_support=True)
    blob = rep.to_json()
    assert blob["D"] == 7 and blob["delta"] == 0
    assert blob["dim"] == 2
    assert blob["zero_sum_ok"] is True
    assert len(blob["minimal_support"]) == 6
    assert blob["distinguished"]["alpha"] == [1, -3, 5, -5, 3, -1]


def relations_on_full_columns(D, delta, rho_set):
    """Basis and minimal-support relations from nullspaces of the full PhiMatrix.

    The reference for ``find_relations``, which reads the circuits off the
    nullspace basis instead of searching column subsets; ``None`` in place of
    the minimal set above the cap.
    """
    m = PhiMatrix.build(D, delta, rho_set)
    basis = []
    for v in nullspace(list(m.rows), ncols=len(rho_set)):
        ints = primitive(v)
        basis.append(
            (tuple(r for r, a in zip(rho_set, ints) if a), tuple(a for a in ints if a))
        )
    live = [i for i in range(len(rho_set)) if any(row[i] for row in m.rows)]
    if len(live) > MINIMAL_SUPPORT_CAP:
        return basis, None
    supports, minimal = [], []
    for size in range(2, len(live) + 1):
        for subset in combinations(live, size):
            if any(set(s) <= set(subset) for s in supports):
                continue
            null = nullspace([[row[i] for i in subset] for row in m.rows], ncols=size)
            if null and all(primitive(null[0])):
                supports.append(subset)
                minimal.append(
                    (tuple(rho_set[i] for i in subset), tuple(primitive(null[0])))
                )
    return basis, sorted(minimal, key=lambda rel: (len(rel[0]), rel))


@pytest.mark.parametrize(
    "D, delta, rho_set",
    [(D, 0, range(1, D)) for D in range(3, 11)]
    + [(D, 0, range(-(D + 2), D)) for D in range(4, 8)]
    + [(5, 2, range(0, 5)), (8, 0, range(-3, 8)), (7, 2, range(-3, 7)), (6, -1, range(-2, 6))],
)
def test_echelon_search_matches_full_columns(D, delta, rho_set):
    rep = find_relations(D, delta, rho_set)
    basis, minimal = relations_on_full_columns(D, delta, tuple(rho_set))
    assert [(r.support, r.alpha) for r in rep.basis] == basis
    assert rep.minimal_support_skipped == (minimal is None)
    assert [(r.support, r.alpha) for r in rep.minimal_support] == (minimal or [])


@st.composite
def small_matrices(draw):
    """Small integer matrices with zero rows, duplicate columns and dependent rows."""
    ncols = draw(st.integers(1, 4))
    entry = st.integers(-3, 3)
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), max_size=5))
    if rows and draw(st.booleans()):
        j = draw(st.integers(0, ncols - 1))
        rows = [row + [row[j]] for row in rows]  # duplicate column
        ncols += 1
    if len(rows) >= 2 and draw(st.booleans()):
        rows.append([a - 2 * b for a, b in zip(rows[0], rows[1])])  # rank deficient
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), [0] * ncols)
    return rows, ncols


@settings(max_examples=200, deadline=None)
@given(small_matrices(), st.data())
def test_nullspace_of_echelon_rows_property(matrix, data):
    rows, ncols = matrix
    dens = data.draw(st.lists(st.integers(1, 4), min_size=len(rows), max_size=len(rows)))
    scaled = [[Fraction(x, d) for x in row] for row, d in zip(rows, dens)]
    assert nullspace(rows, ncols=ncols) == nullspace(scaled, ncols=ncols)

    for mat in (rows, scaled):
        echelon = _echelon([_clear_row_denominators(row) for row in mat], ncols)
        assert len(echelon) == plain_rank(mat) == plain_rank(echelon) <= ncols
        for size in range(1, ncols + 1):
            for subset in combinations(range(ncols), size):
                full = nullspace([[row[i] for i in subset] for row in mat], ncols=size)
                reduced = nullspace([[row[i] for i in subset] for row in echelon], ncols=size)
                assert reduced == full


@st.composite
def wide_matrices(draw):
    """Integer or Fraction matrices up to 5 x 7, often wider than tall, with
    zero rows and rows that combine earlier ones."""
    ncols = draw(st.integers(1, 7))
    entry = st.integers(-9, 9)
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), max_size=5))
    for _ in range(draw(st.integers(0, 2))):
        if rows:
            a, b = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
            i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(rows) - 1))
            rows.append([a * x + b * y for x, y in zip(rows[i], rows[j])])  # rank deficient
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), [0] * ncols)
    if draw(st.booleans()):
        dens = draw(st.lists(st.integers(1, 6), min_size=len(rows), max_size=len(rows)))
        rows = [[Fraction(x, d) for x in row] for row, d in zip(rows, dens)]
    return rows, ncols


@settings(max_examples=300, deadline=None)
@given(wide_matrices())
def test_nullspace_is_primitive_rational_back_substitution_property(matrix):
    rows, ncols = matrix
    basis = nullspace(rows, ncols=ncols)
    assert basis == [primitive(v) for v in rational_nullspace(rows, ncols)]
    for v in basis:
        assert all(type(a) is int for a in v) and primitive(v) == v
        for row in rows:
            assert sum(a * b for a, b in zip(row, v)) == 0


@settings(max_examples=200, deadline=None)
@given(small_matrices(), st.booleans())
def test_circuits_match_subset_search_property(matrix, mix):
    # oracle: the column subsets, smallest first, with a one-line full-support
    # nullspace and no smaller such subset inside
    rows, ncols = matrix
    oracle = set()
    for size in range(1, ncols + 1):
        for subset in combinations(range(ncols), size):
            if any(set(s) <= set(subset) for s, _ in oracle):
                continue
            null = nullspace([[row[i] for i in subset] for row in rows], ncols=size)
            if null and all(primitive(null[0])):
                full = dict(zip(subset, primitive(null[0])))
                oracle.add((subset, tuple(full.get(i, 0) for i in range(ncols))))
    vecs = [primitive(v) for v in nullspace(rows, ncols=ncols)]
    if mix:  # any basis of the span, not only the reduced-echelon one
        vecs = [[sum(col) for col in zip(*vecs[i:])] for i in range(len(vecs))]
    found = [(tuple(i for i, a in enumerate(v) if a), tuple(primitive(v))) for v in _circuits(vecs)]
    assert len(found) == len(oracle)
    assert set(found) == oracle


def test_minimal_support_at_the_subset_cap():
    # D=13 has 12 live columns, the most MINIMAL_SUPPORT_CAP lets through
    for D, dim, count in ((12, 1, 1), (13, 2, 12)):
        rep = find_relations(D)
        assert len(rep.rho_set) - len(rep.zero_phis) <= MINIMAL_SUPPORT_CAP
        assert not rep.minimal_support_skipped
        assert rep.dim == dim
        assert len(rep.minimal_support) == count
        assert all(sum(rel.alpha) == 0 for rel in rep.all_relations())
    assert len(rep.rho_set) == MINIMAL_SUPPORT_CAP
