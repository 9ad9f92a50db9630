import random

import pytest

from gln_modp.finite_field import FqField
from gln_modp.eigen import (
    ParamPair, SmoothCharacter, change_of_weight_applicable,
    compatible_tame_exponents, eval_T, eval_element, eval_tau,
    factors_through, is_supersingular, trivial_character, twist,
)
from gln_modp.hecke import HeckeElement, multiply
from gln_modp.root_datum import StandardParabolic, add, all_parabolics
from gln_modp.weights import make_weight

Q = 3
F9 = FqField(3, 2)
UNITS = [u for u in F9.units()]
T2 = StandardParabolic.torus(2)
G2 = StandardParabolic.full(2)
G3 = StandardParabolic.full(3)
P21 = StandardParabolic((2, 1))


def chars(*units, tame=0):
    return tuple(SmoothCharacter(u, tame, Q) for u in units)


def test_smooth_character_normalization():
    eta = SmoothCharacter(UNITS[1], 5, Q)
    assert eta.tame_exponent == 5 % (Q - 1)
    with pytest.raises(ValueError):
        SmoothCharacter(F9.zero, 0, Q)


@pytest.mark.parametrize("q", [0, 1, 2, 5, 6, 12, 18, -3])
def test_smooth_character_needs_q_a_power_of_the_field_characteristic(q):
    with pytest.raises(ValueError, match="not a positive power"):
        SmoothCharacter(UNITS[1], 1, q)


def test_smooth_character_accepts_every_power_of_the_field_characteristic():
    for q in (3, 9, 27, 3 ** 20):
        assert SmoothCharacter(UNITS[1], q, q).tame_exponent == 1


def test_eval_tau_rules():
    pair = ParamPair(T2, chars(UNITS[1], UNITS[2]))
    assert eval_tau(pair, (-1, 0)) == UNITS[1]
    assert eval_tau(pair, (0, 1)) == UNITS[2].inverse()
    assert eval_tau(pair, (0, 0)) == F9.one
    pair_G = ParamPair(G2, chars(UNITS[1]))
    assert eval_tau(pair_G, (-1, 0)) == F9.zero
    assert eval_tau(pair_G, (-1, -1)) == UNITS[1]  # value at the central z = w^-1 I
    with pytest.raises(ValueError):
        eval_tau(pair, (0, -1))


def test_eval_tau_is_monoid_character():
    rng = random.Random(5)
    for _ in range(200):
        n = rng.choice([2, 3])
        M = rng.choice(all_parabolics(n))
        pair = ParamPair(M, tuple(SmoothCharacter(rng.choice(UNITS), rng.randint(0, 1), Q)
                                  for _ in M.composition))
        lam = tuple(sorted(rng.randint(-3, 3) for _ in range(n)))
        mu = tuple(sorted(rng.randint(-3, 3) for _ in range(n)))
        assert eval_tau(pair, add(lam, mu)) == eval_tau(pair, lam) * eval_tau(pair, mu)


def test_eval_tau_support_is_central_cone():
    pair = ParamPair(P21, chars(UNITS[1], UNITS[2]))
    assert eval_tau(pair, (-1, -1, 0)) != F9.zero
    assert eval_tau(pair, (-1, 0, 0)) == F9.zero


def test_eval_T_examples():
    triv = make_weight((0, 0), Q)
    one = trivial_character(F9, Q)
    assert eval_T(ParamPair(T2, (one, one)), (-1, 0), triv) == F9.one
    assert eval_T(ParamPair(G2, (one,)), (-1, 0), triv) == F9.zero
    assert eval_T(ParamPair(T2, (one, one)), (0, 0), triv) == F9.one


def test_eval_T_compatibility_enforced():
    V = make_weight((2, 0), Q)
    bad = ParamPair(T2, chars(UNITS[1], UNITS[2], tame=1))
    with pytest.raises(ValueError):
        eval_T(bad, (-1, 0), V)
    good_tames = compatible_tame_exponents(V, T2)
    pair = ParamPair(T2, tuple(SmoothCharacter(UNITS[1], t, Q) for t in good_tames))
    eval_T(pair, (-1, 0), V)  # must not raise


def test_factors_through_and_supersingular():
    pair = ParamPair(P21, chars(UNITS[1], UNITS[2]))
    assert factors_through(pair, P21)
    assert factors_through(pair, G3)
    assert not factors_through(pair, StandardParabolic((1, 2)))
    ss = ParamPair(G3, chars(UNITS[1]))
    assert not factors_through(ss, P21)
    assert is_supersingular(ss)
    assert not is_supersingular(ParamPair(T2, chars(UNITS[0], UNITS[0])))
    assert not is_supersingular(pair)


def test_twist():
    one = trivial_character(F9, Q)
    eta = SmoothCharacter(UNITS[2], 1, Q)
    pair = ParamPair(T2, chars(UNITS[1], UNITS[3]))
    assert twist(pair, one) == pair
    assert twist(pair, eta).chars == (pair.chars[0] * eta, pair.chars[1] * eta)
    pg = ParamPair(G2, chars(UNITS[1]))
    tw = twist(pg, eta)
    assert tw.chars[0].unramified == UNITS[1] * eta.unramified ** 2
    assert tw.chars[0].tame_exponent == (0 + 2 * eta.tame_exponent) % (Q - 1)
    assert twist(twist(pair, eta), eta.power(-1)) == pair
    assert is_supersingular(twist(ParamPair(G3, chars(UNITS[1])), eta))


def test_change_of_weight_applicable():
    triv = make_weight((0, 0), Q)
    assert change_of_weight_applicable(triv, 1, ParamPair(T2, chars(UNITS[1], UNITS[2])))
    assert not change_of_weight_applicable(triv, 1, ParamPair(T2, chars(UNITS[1], UNITS[1])))
    triv3 = make_weight((0, 0, 0), Q)
    assert change_of_weight_applicable(triv3, 2, ParamPair(P21, chars(UNITS[1], UNITS[1])))
    with pytest.raises(ValueError):
        change_of_weight_applicable(make_weight((2, 0), Q), 1,
                                    ParamPair(T2, chars(UNITS[1], UNITS[2])))
    with pytest.raises(ValueError):
        change_of_weight_applicable(triv3, 1, ParamPair(StandardParabolic((2, 1)),
                                                        chars(UNITS[1], UNITS[2])))


def test_eval_element_multiplicative():
    rng = random.Random(6)
    for _ in range(60):
        n = rng.choice([2, 3])
        nu = tuple(sorted((rng.randint(0, Q - 1) for _ in range(n)), reverse=True))
        try:
            V = make_weight(nu, Q)
        except ValueError:
            continue
        M = rng.choice(all_parabolics(n))
        tames = compatible_tame_exponents(V, M)
        pair = ParamPair(M, tuple(SmoothCharacter(rng.choice(UNITS), t, Q) for t in tames))
        def rand_elem():
            terms = {}
            for _ in range(rng.randint(1, 3)):
                lam = tuple(sorted(rng.randint(-3, 3) for _ in range(n)))
                terms[lam] = F9(rng.randint(1, 8))
            return HeckeElement(V, "T", terms, F9)
        x, y = rand_elem(), rand_elem()
        assert eval_element(pair, multiply(x, y)) == eval_element(pair, x) * eval_element(pair, y)


def test_distinct_compatible_pairs_give_distinct_functionals():
    # fix the weight; enumerate all compatible pairs for n = 2 over F_9 and
    # compare the induced functionals on tau elements in a small box
    V = make_weight((1, 0), Q)
    box = [(a, b) for a in range(-2, 3) for b in range(-2, 3) if a <= b]
    pairs = []
    for M in all_parabolics(2):
        tames = compatible_tame_exponents(V, M)
        if M.composition == (1, 1):
            for u1 in UNITS:
                for u2 in UNITS:
                    pairs.append(ParamPair(M, (SmoothCharacter(u1, tames[0], Q),
                                                SmoothCharacter(u2, tames[1], Q))))
        else:
            for u in UNITS:
                pairs.append(ParamPair(M, (SmoothCharacter(u, tames[0], Q),)))
    fingerprints = [tuple(eval_tau(p, lam) for lam in box) for p in pairs]
    assert len(set(fingerprints)) == len(pairs)
