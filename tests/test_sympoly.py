import math
import random
from fractions import Fraction

import pytest

import rootmean
from rootmean.exact import PartitionVector
from rootmean.means import PhiKey, _term_weight, phi
from rootmean.sympoly import SymPoly, part_name

from oracles import (
    UnboundSymbolError,
    add,
    evaluate,
    from_json,
    mul,
    name_part,
    sub,
    symbol,
    weights,
)

# a monomial is a partition: part i is the weight-i parameter
R1, R2, R3 = 1, 2, 3


def test_symbol_invariants():
    # at D = 3 parts 1..3 are root parameters and part 4 is the first constant
    assert part_name(R2, 3) == "r2"
    assert part_name(4, 3) == "c1"
    assert name_part("c1", 3) == 4 and name_part("r2", 3) == R2
    # without a degree every part is a root parameter, and a constant is unreadable
    assert part_name(7) == "r7" and name_part("r7") == 7
    for bad, D in (("c1", None), ("r4", 3), ("x1", 3), ("r0", 3), ("r", 3), ("c-1", 3)):
        with pytest.raises(ValueError):
            name_part(bad, D)


def test_mul_and_add():
    assert mul(symbol(R1), symbol(R1)) == SymPoly.term(1, [(R1, 2)])
    p = sub(SymPoly.term(3, [(R1, 2)]), SymPoly.term(2, [(R2, 1)]))
    assert not add(p, p.scale(-1))
    # (3 r1^2 - 2 r2) * r1 = 3 r1^3 - 2 r1 r2, by hand
    q = mul(p, symbol(R1))
    assert q == add(SymPoly.term(3, [(R1, 3)]), SymPoly.term(-2, [(R1, 1), (R2, 1)]))


def test_weights():
    m = PartitionVector.from_parts({R1: 2, R3: 1})
    assert m.j == 5
    p = add(SymPoly.term(1, [(R1, 2)]), SymPoly.term(-4, [(R2, 1)]))
    assert weights(p) == {2}


def test_mul_adds_weights_randomized():
    rng = random.Random(5)
    syms = [1, 2, 3, 4]

    def random_homogeneous(weight):
        acc = SymPoly()
        for _ in range(4):
            left = weight
            pairs = {}
            while left:
                s = rng.choice([x for x in syms if x <= left])
                pairs[s] = pairs.get(s, 0) + 1
                left -= s
            acc = add(acc, SymPoly.term(rng.randint(-5, 5), pairs.items()))
        return acc

    for _ in range(25):
        wa, wb = rng.randint(1, 5), rng.randint(1, 5)
        a, b = random_homogeneous(wa), random_homogeneous(wb)
        prod = mul(a, b)
        if prod:
            assert weights(prod) == {wa + wb}
        s = add(a, random_homogeneous(wa))
        if s:
            assert weights(s) == {wa}


def test_evaluate_exact():
    p = sub(SymPoly.term(2, [(R1, 2)]), symbol(R2))
    val = evaluate(p, {R1: Fraction(3, 2), R2: Fraction(1, 4)})
    assert val == Fraction(2) * Fraction(9, 4) - Fraction(1, 4)


def test_evaluate_unbound_names_symbol():
    p = mul(symbol(R1), symbol(R2))
    with pytest.raises(UnboundSymbolError) as err:
        evaluate(p, {R1: Fraction(2)})
    assert err.value.symbol == R2


def test_serialization_roundtrip():
    p = add(SymPoly.term(Fraction(-9), [(R1, 4)]), SymPoly.term(Fraction(1, 3), [(R2, 2)]))
    blob = p.to_json()
    assert blob["terms"][0]["coeff"] == "-9"
    assert from_json(blob) == p
    assert from_json(p.to_json()).to_json() == p.to_json()


def test_serialization_with_constants():
    c1 = 4  # the first integration constant of a cubic
    p = SymPoly.term(2, [(R1, 1), (c1, 1)])
    blob = p.to_json(3)
    assert blob["terms"][0]["expt"] == {"r1": 1, "c1": 1}
    back = from_json(blob, 3)
    assert back == p


def test_serialization_roundtrip_every_phi():
    # every mean value with D <= 7, constants included, survives to_json(D) and
    # back; no value order delta >= 0 names a constant
    named_constants = 0
    for D in range(2, 8):
        for delta in range(-3, D):
            for rho in range(-3, D):
                p = phi(PhiKey(D, delta, rho)).poly
                blob = p.to_json(D)
                assert from_json(blob, D) == p, (D, delta, rho)
                names = {name for t in blob["terms"] for name in t["expt"]}
                has_constant = any(name.startswith("c") for name in names)
                assert not (delta >= 0 and has_constant), (D, delta, rho)
                named_constants += has_constant
    assert named_constants > 0


def test_canonical_term_order():
    # within one weight: r1^4, r1^2 r2, r1 r3, r2^2, r4 (the printed order)
    p = add(
        SymPoly.term(1, [(4, 1)]),
        SymPoly.term(1, [(R2, 2)]),
        SymPoly.term(1, [(R1, 4)]),
        SymPoly.term(1, [(R1, 1), (R3, 1)]),
        SymPoly.term(1, [(R1, 2), (R2, 1)]),
    )
    assert str(p) == "1 r1^4 + 1 r1^2 r2 + 1 r1 r3 + 1 r2^2 + 1 r4"


def quasi_binomial_coeffs(D):
    """Coefficients of x^D, ..., x^0 of the monic degree-D polynomial: (-1)^i C(D, i) r_i."""
    coeffs = [SymPoly.term(_term_weight(D, 0, D), {})]
    for i in range(1, D + 1):
        coeffs.append(symbol(i).scale(_term_weight(D, 0, D - i)))
    return coeffs


def test_quasi_binomial_coeffs():
    c3 = quasi_binomial_coeffs(3)
    assert c3 == [
        SymPoly.term(1, {}),
        symbol(R1).scale(-3),
        symbol(R2).scale(3),
        symbol(R3).scale(-1),
    ]
    assert quasi_binomial_coeffs(1) == [SymPoly.term(1, {}), symbol(R1).scale(-1)]
    c4 = quasi_binomial_coeffs(4)
    assert [str(c) for c in c4] == ["1", "-4 r1", "6 r2", "-4 r3", "1 r4"]
    for D in range(1, 9):
        for i in range(D + 1):
            assert _term_weight(D, 0, D - i) == (-1) ** i * math.comb(D, i)
    # past degree D the chain holds integration constants, not root parameters
    assert [part_name(p, 4)[0] for p in range(1, 6)] == ["r", "r", "r", "r", "c"]


def test_quasi_binomial_sign_and_weight():
    coeffs = quasi_binomial_coeffs(6)
    for i, c in enumerate(coeffs):
        if i == 0:
            continue
        assert weights(c) == {i}
        (coeff,) = [v for _, v in c.terms()]
        assert (coeff > 0) == (i % 2 == 0)


def test_public_names_resolve():
    # a deleted export must leave no stale name behind in __all__
    for name in rootmean.__all__:
        assert getattr(rootmean, name, None) is not None, name
    namespace = {}
    exec("from rootmean import *", namespace)
    assert set(rootmean.__all__) <= set(namespace)
