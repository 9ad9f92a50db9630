import pytest
from hypothesis import given, strategies as st

from gln_modp.root_datum import StandardParabolic, all_parabolics
from gln_modp.weights import (
    LeviWeightClass, WeightClass, central_character_exponents,
    enumerate_levi_weight_classes, enumerate_weight_classes, is_M_regular,
    make_levi_weight, make_weight, regular_cover, restrict_to_levi,
    weight_partner_for_change,
)

T2 = StandardParabolic.torus(2)
T3 = StandardParabolic.torus(3)
G2 = StandardParabolic.full(2)
G3 = StandardParabolic.full(3)


def test_canonicalization_and_validation():
    assert make_weight((4, 2), 3).nu == (2, 0)
    assert make_weight((3, 1), 3).nu == (3, 1)  # already canonical: shifts go in steps of q-1
    assert make_weight((0, 0), 2).nu == (0, 0)
    with pytest.raises(ValueError):
        WeightClass((0, 1), 3)          # not dominant
    with pytest.raises(ValueError):
        WeightClass((3, 0), 3)          # not q-restricted
    with pytest.raises(ValueError):
        WeightClass((4, 2), 3)          # not canonical: last entry outside [0, q-2]
    # canonicalization is idempotent
    for q in (2, 3, 4):
        for V in enumerate_weight_classes(2, q):
            assert make_weight(V.nu, q) == V


def refuses(build):
    try:
        build()
    except ValueError:
        return True
    return False


@given(st.sampled_from((1, 2, 3, 4, 5, 6)), st.lists(st.integers(-2, 6), min_size=1, max_size=4))
def test_a_weight_is_a_weight_of_the_one_block_levi(q, nu):
    # the two classes refuse exactly the same vectors, and canonicalize alike
    full = StandardParabolic.full(len(nu))
    assert refuses(lambda: WeightClass(nu, q)) == refuses(lambda: LeviWeightClass(full, nu, q))
    if refuses(lambda: make_weight(nu, q)):
        assert refuses(lambda: make_levi_weight(full, nu, q))
    else:
        assert make_levi_weight(full, nu, q).nu == make_weight(nu, q).nu


@pytest.mark.parametrize("q", [-1, 0, 1, 6, 10, 12])
def test_both_classes_and_both_factories_refuse_the_same_q(q):
    # a q that is not a prime power is refused with the same text before
    # any block is canonicalized (q = 1 once divided by q - 1 = 0)
    full = StandardParabolic.full(2)
    builds = [lambda: WeightClass((0, 0), q), lambda: LeviWeightClass(full, (0, 0), q),
              lambda: make_weight((0, 0), q), lambda: make_levi_weight(full, (0, 0), q)]
    messages = set()
    for build in builds:
        with pytest.raises(ValueError) as info:
            build()
        messages.add(str(info.value))
    assert len(messages) == 1


def test_equivalence_mod_global_shift():
    q = 4
    assert make_weight((5, 2), q) == make_weight((2, -1), q)
    assert make_weight((5, 2), q) != make_weight((4, 2), q)


def test_restrict_to_levi_examples():
    assert restrict_to_levi(make_weight((2, 0), 3), T2).nu == (0, 0)
    assert restrict_to_levi(make_weight((1, 1, 0), 2), StandardParabolic((2, 1))).nu == (0, 0, 0)
    assert restrict_to_levi(make_weight((0, 0, 0), 4), StandardParabolic((2, 1))).nu == (0, 0, 0)


def test_is_M_regular_examples():
    assert is_M_regular(make_weight((2, 0), 3), T2)
    assert not is_M_regular(make_weight((0, 0), 3), T2)
    assert not is_M_regular(make_weight((0, 0), 2), T2)
    assert is_M_regular(make_weight((1, 1, 0), 3), StandardParabolic((2, 1)))


def test_regular_cover_examples():
    assert regular_cover(make_levi_weight(T2, (0, 0), 3)).nu == (2, 0)
    vb = make_levi_weight(G3, (1, 1, 0), 3)
    assert regular_cover(vb).nu == (1, 1, 0)
    assert regular_cover(make_levi_weight(T3, (0, 0, 0), 3)).nu == (4, 2, 0)


def test_levi_weight_of_the_wrong_rank_is_refused():
    for nu in ((2, 1, 0), (2, 1, 0, 0, 0)):
        with pytest.raises(ValueError, match="rank mismatch"):
            make_levi_weight(StandardParabolic((4,)), nu, 3)


def test_cover_section_property():
    for n in (2, 3):
        for q in (2, 3, 4):
            for M in all_parabolics(n):
                for Vbar in enumerate_levi_weight_classes(M, q):
                    V = regular_cover(Vbar)
                    assert is_M_regular(V, M)
                    assert restrict_to_levi(V, M) == Vbar


def test_central_character_exponents():
    assert central_character_exponents(make_levi_weight(T2, (2, 0), 3)) == (0, 0)
    assert central_character_exponents(make_levi_weight(G2, (1, 0), 3)) == (1,)
    assert central_character_exponents(
        make_levi_weight(StandardParabolic((2, 1)), (1, 1, 0), 4)) == (2, 0)


def test_weight_partner_for_change():
    q = 7
    assert weight_partner_for_change(make_weight((0, 0), q), 1).nu == (q - 1, 0)
    assert weight_partner_for_change(make_weight((0, 0, 0), 3), 2).nu == (2, 2, 0)
    with pytest.raises(ValueError):
        weight_partner_for_change(make_weight((1, 0), 3), 1)


def test_partner_preserves_torus_central_character():
    for q in (2, 3, 5):
        for V in enumerate_weight_classes(3, q):
            for i in (1, 2):
                if V.nu[i - 1] != V.nu[i]:
                    continue
                W = weight_partner_for_change(V, i)
                Tn = StandardParabolic.torus(3)
                assert (central_character_exponents(restrict_to_levi(V, Tn))
                        == central_character_exponents(restrict_to_levi(W, Tn)))
                # the partner's stabilizer loses exactly the reflection at i
                assert W.levi.delta == V.levi.delta - {i}


def test_enumeration_sizes():
    # q^(n-1) pairing patterns times q-1 choices of the last entry
    for n in (2, 3):
        for q in (2, 3, 4):
            assert len(enumerate_weight_classes(n, q)) == q ** (n - 1) * (q - 1)
