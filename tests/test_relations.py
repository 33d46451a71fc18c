from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rootmean.relations import (
    MINIMAL_SUPPORT_CAP,
    PhiMatrix,
    RelationError,
    RelationVector,
    alternating_binomial_vector,
    check_inheritance,
    check_odd_binomial,
    _circuits,
    _clear_row_denominators,
    _echelon,
    find_relations,
    nullspace,
    primitive,
    relation_space_dim,
)


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
    basis = nullspace(rows)
    assert len(basis) == 1
    assert primitive(basis[0]) == [1, -1, 0]


def test_nullspace_of_quartic_columns():
    m = PhiMatrix.build(4, 0, (1, 2, 3))
    basis = nullspace(list(m.rows))
    assert len(basis) == 1
    assert primitive(basis[0]) == [5, -6, 1]


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


def test_relation_vector_normalizes():
    rel = RelationVector.make(4, 0, {1: -10, 2: 12, 3: -2}.items())
    assert rel.alpha == (5, -6, 1)


def test_find_relations_printed_sets():
    assert as_set(find_relations(2).all_relations()) == set()

    rep3 = find_relations(3)
    assert as_set(rep3.all_relations()) == {((1, 2), (1, -1))}

    rep4 = find_relations(4)
    assert as_set(rep4.all_relations()) == {((1, 2, 3), (5, -6, 1))}

    rep5 = find_relations(5)
    assert rep5.dim == 2
    assert as_set(rep5.all_relations()) == {
        ((1, 3, 4), (1, -3, 2)),
        ((2, 3, 4), (2, -5, 3)),
        ((1, 2, 3), (3, -4, 1)),
        ((1, 2, 4), (5, -6, 1)),
        ((1, 2, 3, 4), (1, -2, 2, -1)),
    }
    assert rep5.rank() == 2

    rep6 = find_relations(6)
    assert as_set(rep6.all_relations()) == {((1, 2, 3, 4, 5), (77, -120, 60, -20, 3))}

    rep7 = find_relations(7)
    assert rep7.dim == 2
    assert as_set(rep7.minimal_support) == {
        ((1, 2, 3, 4, 5), (85, -144, 90, -40, 9)),
        ((1, 2, 3, 4, 6), (82, -135, 75, -25, 3)),
        ((1, 2, 3, 5, 6), (77, -120, 50, -15, 8)),
        ((1, 2, 4, 5, 6), (67, -90, 50, -45, 18)),
        ((1, 3, 4, 5, 6), (37, -150, 200, -135, 48)),
        ((2, 3, 4, 5, 6), (111, -335, 385, -246, 85)),
    }
    assert rep7.distinguished.alpha == (1, -3, 5, -5, 3, -1)
    assert rep7.rank() == 2

    rep8 = find_relations(8)
    assert as_set(rep8.all_relations()) == {
        ((1, 2, 3, 4, 5, 6, 7), (669, -1260, 1050, -700, 315, -84, 10))
    }


def test_mixed_value_order_relation():
    rep = find_relations(5, delta=2, rho_set=(0, 3))
    assert as_set(rep.all_relations()) == {((0, 3), (1, 5))}


def test_zero_sum_on_fundamental_families():
    for D in range(3, 9):
        rep = find_relations(D, minimal_support=False)
        assert rep.zero_sum_ok()
        for rel in rep.basis:
            assert rel.alpha_sum() == 0


def test_zero_phi_columns_reported():
    rep = find_relations(4, 0, range(-2, 4), minimal_support=False)
    assert rep.zero_phis == (0,)


def test_dimension_examples():
    assert relation_space_dim(2) == 0
    assert relation_space_dim(6) == 1
    assert relation_space_dim(7) == 2


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
            m = rel.as_mapping()
            vectors.append([Fraction(m.get(r, 0)) for r in rep.rho_set])

        for i in range(len(vectors)):
            for j in range(i + 1, len(vectors)):
                assert plain_rank([vectors[i], vectors[j]]) == 2
                for k in range(j + 1, len(vectors)):
                    assert plain_rank([vectors[i], vectors[j], vectors[k]]) == 2


def test_odd_binomial():
    assert check_odd_binomial(3)
    assert check_odd_binomial(5)
    assert check_odd_binomial(7)
    assert alternating_binomial_vector(5).alpha == (1, -2, 2, -1)
    assert alternating_binomial_vector(7).alpha == (1, -3, 5, -5, 3, -1)
    assert alternating_binomial_vector(3).alpha == (1, -1)
    with pytest.raises(ValueError):
        check_odd_binomial(4)


def test_inheritance_examples():
    b = RelationVector.make(4, 0, {1: 5, 2: -6, 3: 1}.items())
    assert check_inheritance(b)
    a = RelationVector.make(3, 0, {1: 1, 2: -1}.items())
    assert check_inheritance(a)
    e = RelationVector.make(3, 1, {0: 1, 2: 1}.items())
    assert check_inheritance(e)


def test_inheritance_shifted_vector_matches_printed():
    b = RelationVector.make(4, 0, {1: 5, 2: -6, 3: 1}.items())
    assert check_inheritance(b)
    b_prime = RelationVector.make(5, 1, {2: 5, 3: -6, 4: 1}.items())
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
        assert all(rel.alpha_sum() == 0 for rel in rep.all_relations())
    assert len(rep.rho_set) == MINIMAL_SUPPORT_CAP
