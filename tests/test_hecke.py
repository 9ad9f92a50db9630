import random
from functools import lru_cache
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, strategies as st

from gln_modp.finite_field import FqField
from gln_modp.hecke import (
    HeckeElement, basis_element, double_support_claim, multiply,
    satake_T_to_tau, satake_tau_to_T,
)
from gln_modp.root_datum import (
    StandardParabolic, add, all_parabolics, fundamental_antidominant_coweight,
    interval_above, leq_M, simple_coroot,
)
from gln_modp.weights import make_weight

F3 = FqField(3)
G2 = StandardParabolic.full(2)
G3 = StandardParabolic.full(3)
TRIV2 = make_weight((0, 0), 3)
TRIV3 = make_weight((0, 0, 0), 3)


def levi_weight(M, q):
    """A weight whose stabilizer Levi is exactly M: constant on blocks,
    dropping by one across each boundary."""
    vals = range(len(M.composition) - 1, -1, -1)
    V = make_weight(tuple(v for val, size in zip(vals, M.composition)
                          for v in [val] * size), q)
    assert V.levi == M
    return V


def random_stab_weight(rng, n, q=5):
    """A weight whose stabilizer Levi is a random composition."""
    comp, left = [], n
    while left:
        c = rng.randint(1, left)
        comp.append(c)
        left -= c
    return levi_weight(StandardParabolic(tuple(comp)), q)


def random_element(rng, V, field, basis="T", radius=4, max_terms=4):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        lam = tuple(sorted(rng.randint(-radius, radius) for _ in range(V.n)))
        terms[lam] = field(rng.randint(1, field.size - 1))
    return HeckeElement(V, basis, terms, field)


@lru_cache(maxsize=None)
def reference_moebius(mu, lam, comp) -> int:
    """Moebius function of the poset of antidominant coweights under >=_M,
    by recursion over whole intervals: the brute-force reference for the
    closed form on the unit cube.  Not translation invariant (the
    antidominance cut depends on position), so the memo key is the pair."""
    M = StandardParabolic(comp)
    if mu == lam:
        return 1
    total = 0
    for xi in interval_above(mu, M):
        if xi != lam and leq_M(xi, lam, M):
            total += reference_moebius(mu, xi, comp)
    return -total


# a large prime, so that distinct small integer values stay distinct in the
# field
F101 = FqField(101)


def check_rows_against_reference(M, lams):
    V = levi_weight(M, F101.p)
    for lam in lams:
        want = {}
        for nu in interval_above(lam, M):
            value = reference_moebius(lam, nu, M.composition)
            if value:
                want[nu] = F101(value)
        assert satake_T_to_tau(basis_element(V, "T", lam, F101)).terms == want


@pytest.mark.parametrize("n, box", [(2, 4), (3, 4), (4, 4), (5, 3)])
def test_closed_form_matches_reference_moebius(n, box):
    lams = list(combinations_with_replacement(range(-box, box + 1), n))
    for M in all_parabolics(n):
        check_rows_against_reference(M, lams)


def test_closed_form_matches_reference_moebius_n6_row():
    check_rows_against_reference(StandardParabolic.full(6), [(-2, -1, -1, 1, 1, 2)])


def test_T_to_tau_expands_up_to_levi_rank_13():
    # every gap 2: each of the 2^|Delta_M| sets S is admissible, with
    # mu = (-1)^|S|; one rank more is refused before any subset is scanned
    for n in (14, 15):
        lam = tuple(range(2 - 2 * n, 1, 2))
        x = basis_element(make_weight((0,) * n, 3), "T", lam, F3)
        if n == 14:
            values = list(satake_T_to_tau(x).terms.values())
            assert (values.count(F3.one), values.count(F3(-1))) == (4096, 4096)
        else:
            with pytest.raises(ValueError, match="Levi rank too large"):
                satake_T_to_tau(x)


def test_satake_T_to_tau_examples():
    e = satake_T_to_tau(basis_element(TRIV2, "T", (-2, 0), F3))
    assert e.terms == {(-2, 0): F3.one, (-1, -1): F3(-1)}
    assert satake_T_to_tau(basis_element(TRIV2, "T", (-1, 0), F3)).terms == {(-1, 0): F3.one}
    VT = make_weight((2, 0), 3)  # stabilizer Levi is the torus
    for lam in [(-2, 0), (-1, 3), (0, 0)]:
        assert satake_T_to_tau(basis_element(VT, "T", lam, F3)).terms == {lam: F3.one}


def test_satake_tau_to_T_examples():
    e = satake_tau_to_T(basis_element(TRIV2, "tau", (-1, 1), F3))
    assert e.terms == {(-1, 1): F3.one, (0, 0): F3.one}
    e = satake_tau_to_T(basis_element(TRIV3, "tau", (-1, 0, 1), F3))
    assert e.terms == {(-1, 0, 1): F3.one, (0, 0, 0): F3.one}
    VT = make_weight((2, 0), 3)
    assert satake_tau_to_T(basis_element(VT, "tau", (-3, 1), F3)).terms == {(-3, 1): F3.one}


def test_moebius_examples():
    # the Moebius values mu(lam, nu) are the tau-coefficients of T_lam
    def row(V, lam):
        return satake_T_to_tau(basis_element(V, "T", lam, F3)).terms

    assert row(TRIV2, (-1, 1)) == {(-1, 1): F3.one, (0, 0): F3(-1)}
    assert row(TRIV3, (-1, 0, 1)) == {(-1, 0, 1): F3.one, (0, 0, 0): F3(-1)}
    # above (-2,0,2) both alpha_1 and alpha_2 keep antidominance, so the
    # square of subsets gives +1 at its top; (0,0,0) has coroot coordinates
    # (2,2), off the unit cube
    assert row(TRIV3, (-2, 0, 2)) == {(-2, 0, 2): F3.one, (-2, 1, 1): F3(-1),
                                      (-1, -1, 2): F3(-1), (-1, 0, 1): F3.one}
    # (-1,1) is not above (0,0)
    assert row(TRIV2, (0, 0)) == {(0, 0): F3.one}
    with pytest.raises(ValueError):
        row(TRIV2, (0, -1))


def test_round_trip_random():
    rng = random.Random(1)
    F5 = FqField(5)
    for n in (2, 3, 4):
        for _ in range(25):
            V = random_stab_weight(rng, n)
            x = random_element(rng, V, F5, "T")
            assert satake_tau_to_T(satake_T_to_tau(x)) == x
            y = random_element(rng, V, F5, "tau")
            assert satake_T_to_tau(satake_tau_to_T(y)) == y


def test_unitriangularity():
    rng = random.Random(2)
    for n in (2, 3, 4):
        for _ in range(20):
            V = random_stab_weight(rng, n, q=3)
            lam = tuple(sorted(rng.randint(-3, 3) for _ in range(n)))
            e = satake_T_to_tau(basis_element(V, "T", lam, F3))
            assert e.terms[lam] == F3.one
            M = V.levi
            for mu in e.terms:
                assert leq_M(lam, mu, M)


def test_multiply_examples_and_identity():
    a = basis_element(TRIV2, "T", (-1, 0), F3)
    assert multiply(a, a).terms == {(-2, 0): F3.one, (-1, -1): F3.one}
    t = basis_element(TRIV2, "tau", (-1, 0), F3)
    assert multiply(t, t).terms == {(-2, 0): F3.one}
    e = basis_element(TRIV2, "T", (0, 0), F3)
    assert multiply(e, a) == a and multiply(a, e) == a
    with pytest.raises(ValueError):
        multiply(a, basis_element(TRIV3, "T", (0, 0, 0), F3))


def test_multiply_commutative_associative():
    rng = random.Random(3)
    for _ in range(15):
        a = random_element(rng, TRIV3, F3, radius=3, max_terms=3)
        b = random_element(rng, TRIV3, F3, radius=3, max_terms=3)
        c = random_element(rng, TRIV3, F3, radius=3, max_terms=3)
        assert multiply(a, b) == multiply(b, a)
        assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))


def test_minuscule_specialization():
    for n in (2, 3, 4):
        triv = make_weight((0,) * n, 3)
        for i in range(1, n):
            lam = fundamental_antidominant_coweight(n, i)
            e = satake_T_to_tau(basis_element(triv, "T", lam, F3))
            assert e.terms == {lam: F3.one}


def test_double_support_claim_examples():
    assert double_support_claim(G2, 1, 4)
    assert double_support_claim(G3, 1, 3)
    with pytest.raises(ValueError):
        double_support_claim(StandardParabolic((2, 2)), 2, 3)


def reference_double_support_claim(M, i, box):
    """The claim over the weakly increasing vectors of [-box, box]^n with the
    coordinate sum of 2*lam, built by a recursion pruned on the sum."""
    n = M.n
    if i not in M.delta:
        raise ValueError(f"alpha_{i} is not a simple root of the Levi {M}")
    lam2 = tuple(2 * v for v in fundamental_antidominant_coweight(n, i))
    target = add(lam2, simple_coroot(n, i))

    def scan(prefix, last, remaining):
        k = n - len(prefix)
        if k == 0:
            if remaining == 0:
                mu = tuple(prefix)
                return leq_M(lam2, mu, M) == (mu == lam2 or leq_M(target, mu, M))
            return True
        for v in range(last, box + 1):
            rest = remaining - v
            if rest < (k - 1) * v:
                break
            if rest > (k - 1) * box:
                continue
            if not scan(prefix + [v], v, rest):
                return False
        return True

    return scan([], -box, sum(lam2))


def test_double_support_claim_matches_the_pruned_recursion():
    # every Levi of GL_n for n <= 5, every i and every box up to 4, with
    # the error for a root outside Delta_M
    cases = 0
    for n in range(2, 6):
        for M in all_parabolics(n):
            for i in range(1, n):
                for box in range(5):
                    outcomes = []
                    for claim in (double_support_claim, reference_double_support_claim):
                        try:
                            outcomes.append(claim(M, i, box))
                        except ValueError as exc:
                            outcomes.append(str(exc))
                    assert outcomes[0] == outcomes[1], (M, i, box)
                    cases += 1
    assert cases == 490


def test_two_term_expansion_of_squares():
    for n in (2, 3, 4):
        triv = make_weight((0,) * n, 3)
        for i in range(1, n):
            lam2 = tuple(2 * v for v in fundamental_antidominant_coweight(n, i))
            e = satake_T_to_tau(basis_element(triv, "T", lam2, F3))
            assert len(e.terms) == 2
            total = F3.zero
            for c in e.terms.values():
                total = total + c
            assert not total


FIELDS = ((FqField(3), 3), (FqField(3, 2), 9))


@st.composite
def hecke_elements(draw, basis, ns=(2, 3, 4, 5), radius=6, max_terms=3, setting=None):
    """A random element in the Hecke algebra of a weight with a random
    stabilizer Levi, over F_3 or F_9."""
    if setting is None:
        n = draw(st.sampled_from(ns))
        field, q = draw(st.sampled_from(FIELDS))
        M = StandardParabolic.from_delta(n, draw(st.sets(st.integers(1, n - 1))))
        setting = levi_weight(M, q), field
    V, field = setting
    lam = st.lists(st.integers(-radius, radius), min_size=V.n, max_size=V.n)
    coeff = st.lists(st.integers(0, field.p - 1), min_size=field.m, max_size=field.m).filter(any)
    terms = draw(st.dictionaries(lam.map(lambda v: tuple(sorted(v))), coeff.map(field),
                                 min_size=1, max_size=max_terms))
    return HeckeElement(V, basis, terms, field)


@given(hecke_elements("T"), hecke_elements("tau"))
def test_satake_round_trip_property(x, y):
    assert satake_tau_to_T(satake_T_to_tau(x)) == x
    assert satake_T_to_tau(satake_tau_to_T(y)) == y


@given(st.data(), st.sampled_from(("T", "tau")))
def test_multiply_commutative_associative_property(data, basis):
    a = data.draw(hecke_elements(basis, ns=(2, 3, 4), radius=3, max_terms=2))
    b, c = (data.draw(hecke_elements(basis, radius=3, max_terms=2,
                                     setting=(a.weight, a.field))) for _ in range(2))
    assert multiply(a, b) == multiply(b, a)
    assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))


@given(hecke_elements("T", max_terms=1), st.sampled_from(("T", "tau")))
def test_unitriangularity_property(x, basis):
    (lam,) = x.terms
    e = basis_element(x.weight, basis, lam, x.field)
    out = satake_T_to_tau(e) if basis == "T" else satake_tau_to_T(e)
    assert out.terms[lam] == x.field.one
    assert all(leq_M(lam, mu, x.weight.levi) for mu in out.terms)
