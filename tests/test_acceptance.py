"""Acceptance suite: every criterion is exact (field equality or integer
counts, zero tolerance) and prints one pass/fail line.  Run with

    pytest tests/test_acceptance.py -v -s
"""

import hashlib
import io
import json
import random
from itertools import combinations

import pytest
from hypothesis import example, given, strategies as st

from gln_modp.finite_field import FqField
from gln_modp.root_datum import (
    StandardParabolic, all_parabolics, fundamental_antidominant_coweight,
    simple_coroot, add,
)
from gln_modp.weights import (
    enumerate_levi_weight_classes, enumerate_weight_classes, is_M_regular,
    make_weight, restrict_to_levi, regular_cover,
)
from gln_modp.hecke import (
    HeckeElement, basis_element, double_support_claim, multiply,
    satake_T_to_tau, satake_tau_to_T,
)
from gln_modp.eigen import (
    ParamPair, SmoothCharacter, change_of_weight_applicable,
    compatible_tame_exponents, eval_element, eval_tau, trivial_character,
)
from gln_modp.classify import (
    InductionDatum, Steinberg, Supersingular, constituents, delta,
    param_pair, submodule_lattice, validate,
)
from gln_modp.hecke0 import (
    derive_rotation_invariance, verify_braid_and_rotation,
    verify_translation_power, verify_word_shift_identity,
)
from gln_modp import cli, oracle


def report(ok: bool, label: str):
    print(f"[{'PASS' if ok else 'FAIL'}] {label}")
    assert ok, label


def random_stab_weight(rng, n, q):
    comp, left = [], n
    while left:
        c = rng.randint(1, left)
        comp.append(c)
        left -= c
    vals = list(range(len(comp) - 1, -1, -1))
    nu = [v for val, size in zip(vals, comp) for v in [val] * size]
    V = make_weight(tuple(nu), q)
    assert V.levi == StandardParabolic(tuple(comp))
    return V


def test_criterion_1_satake_round_trip():
    """Exact round trip of the two basis changes on random elements."""
    rng = random.Random(20240801)
    fields = [FqField(2), FqField(3), FqField(5, 2)]
    total = 0
    for n in (2, 3, 4):
        for _ in range(200):
            field = rng.choice(fields)
            V = random_stab_weight(rng, n, q=field.p)
            terms = {}
            for _ in range(rng.randint(1, 4)):
                lam = tuple(sorted(rng.randint(-4, 4) for _ in range(n)))
                terms[lam] = field(rng.randint(1, field.size - 1))
            x = HeckeElement(V, "T", terms, field)
            assert satake_tau_to_T(satake_T_to_tau(x)) == x
            y = HeckeElement(V, "tau", terms, field)
            assert satake_T_to_tau(satake_tau_to_T(y)) == y
            total += 1
    report(total == 600, "criterion 1: satake round trip is the identity "
                         f"({total} random elements, n in 2..4, radius-4 box)")


def test_criterion_2_minuscule_oracle_gate():
    """Finite-group coset counts are Schubert powers of q and reduce mod p to
    the single-term basis change."""
    ok = True
    for n, q in [(2, 2), (2, 3), (2, 5), (3, 2), (3, 3)]:
        for i in range(1, n):
            ok &= oracle.check_minuscule_satake(n, q, i)
    report(ok, "criterion 2: minuscule coset counts match the basis change "
               "mod p for (n,q) in {(2,2),(2,3),(2,5),(3,2),(3,3)}")


def test_criterion_3_double_support_claim():
    """Interval splitting above doubled fundamental coweights, and the
    two-term zero-sum expansion it implies."""
    F3 = FqField(3)
    ok = True
    for n in (2, 3, 4):
        for M in all_parabolics(n):
            for i in sorted(M.delta):
                ok &= double_support_claim(M, i, 4)
        triv = make_weight((0,) * n, 3)
        for i in range(1, n):
            lam2 = tuple(2 * v for v in fundamental_antidominant_coweight(n, i))
            e = satake_T_to_tau(basis_element(triv, "T", lam2, F3))
            total = F3.zero
            for c in e.terms.values():
                total = total + c
            ok &= len(e.terms) == 2 and not total
    report(ok, "criterion 3: doubled-coweight support claim holds for n <= 4, "
               "box radius 4; squares expand to two terms summing to zero")


def _random_datum(rng, P, units, q):
    blocks = []
    for size in P.composition:
        if size > 1 and rng.random() < 0.4:
            blocks.append(Supersingular(size, f"s{size}",
                                        SmoothCharacter(rng.choice(units), rng.randint(0, 1), q)))
        else:
            sub = rng.sample(range(1, size), k=rng.randint(0, size - 1)) if size > 1 else []
            blocks.append(Steinberg(size, StandardParabolic.from_delta(size, sub),
                                    SmoothCharacter(rng.choice(units), rng.randint(0, 1), q)))
    return InductionDatum(P, tuple(blocks))


def test_criterion_4_classification_counts():
    """2^delta constituents, pairwise distinct, one shared eigenvalue pair;
    trivial principal series has length 2^(n-1)."""
    q = 3
    F9 = FqField(3, 2)
    units = list(F9.units())
    rng = random.Random(77)
    ok = True
    for n in range(2, 6):
        for P in all_parabolics(n):
            for _ in range(5):
                d = _random_datum(rng, P, units, q)
                cp = constituents(d)
                ok &= len(cp) == 2 ** delta(d)
                ok &= len(set(cp.elements)) == len(cp)
                ok &= {param_pair(r) for r in cp.elements} == {param_pair(d)}
                ok &= all(validate(r.datum) for r in cp.elements)
    one = trivial_character(F9, q)
    lengths = {}
    for n in (2, 3, 4):
        d = InductionDatum(StandardParabolic.torus(n),
                           tuple(Steinberg(1, StandardParabolic.full(1), one)
                                 for _ in range(n)))
        lengths[n] = len(constituents(d))
    ok &= lengths == {2: 2, 3: 4, 4: 8}
    report(ok, "criterion 4: |constituents| = 2^delta over all compositions of "
               "n <= 5 with F_9 characters; trivial principal series lengths 2, 4, 8")


F9_UNITS = tuple(FqField(3, 2).units())
F9_CHARS = st.builds(SmoothCharacter, st.sampled_from(F9_UNITS), st.integers(0, 1), st.just(3))


@st.composite
def induction_data(draw):
    """A datum over a composition of n <= 5 with F_9 characters.  Half the
    Steinberg blocks that follow a Steinberg block repeat its twist, so runs
    of equal twists, and hence delta > 0, are common."""
    P = draw(st.sampled_from(all_parabolics(draw(st.integers(2, 5)))))
    blocks = []
    for size in P.composition:
        eta = draw(F9_CHARS)
        if size > 1 and draw(st.booleans()):
            blocks.append(Supersingular(size, f"s{size}", eta))
            continue
        if blocks and isinstance(blocks[-1], Steinberg) and draw(st.booleans()):
            eta = blocks[-1].eta
        sub = draw(st.sets(st.integers(1, size - 1))) if size > 1 else ()
        blocks.append(Steinberg(size, StandardParabolic.from_delta(size, sub), eta))
    return InductionDatum(P, tuple(blocks))


# the drawn data reach delta = 2 at most; runs of four and five size-1
# Steinberg blocks with one twist reach delta = 3 and 4
ST1 = Steinberg(1, StandardParabolic.full(1), trivial_character(FqField(3, 2), 3))


@given(induction_data())
@example(InductionDatum(StandardParabolic.torus(4), (ST1,) * 4))
@example(InductionDatum(StandardParabolic.torus(5), (ST1,) * 5))
def test_criterion_4_property(d):
    """Criterion 4 as a property: 2^delta pairwise distinct, valid
    constituents sharing one eigenvalue pair."""
    cp = constituents(d)
    assert len(cp) == 2 ** delta(d)
    assert len(set(cp.elements)) == len(cp)
    assert {param_pair(r) for r in cp.elements} == {param_pair(d)}
    assert all(validate(r.datum) for r in cp.elements)


def _boolean_down_set_count(k):
    """Independent count of lower sets of (subsets of a k-set, reverse
    inclusion) by direct enumeration over families of subsets."""
    elements = []
    for r in range(k + 1):
        elements.extend(frozenset(c) for c in combinations(range(k), r))
    # reverse inclusion: e below f iff e contains f
    below = {(a, b): a >= b for a in elements for b in elements}
    count = 0
    for bits in range(1 << len(elements)):
        family = [e for j, e in enumerate(elements) if bits >> j & 1]
        if all(below[(a, b)] <= (a in family) for b in family for a in elements
               if below[(a, b)]):
            count += 1
    return count


def test_criterion_5_lattice_counts():
    """Submodule-lattice sizes of the trivial principal series match an
    independent down-set enumeration of the Boolean poset: 3, 6, 20."""
    q = 3
    F9 = FqField(3, 2)
    one = trivial_character(F9, q)
    ok = True
    for n, expected in ((2, 3), (3, 6), (4, 20)):
        d = InductionDatum(StandardParabolic.torus(n),
                           tuple(Steinberg(1, StandardParabolic.full(1), one)
                                 for _ in range(n)))
        lat = submodule_lattice(d)
        indep = _boolean_down_set_count(n - 1)
        ok &= lat.count == expected == indep
    report(ok, "criterion 5: lattice sizes 3, 6, 20 for the trivial principal "
               "series, matching independent Boolean down-set counts")


def test_criterion_6_hecke0_identities():
    """Algebra relations and word identities for n <= 5; the derivation
    succeeds for n in {2,3,4} at the default cap and for n = 5 at cap 30,
    with the pinned three-line trace at n = 2."""
    ok = True
    for n in (2, 3, 4, 5):
        ok &= verify_braid_and_rotation(n)
        ok &= verify_word_shift_identity(n)
        for i in range(1, n):
            ok &= verify_translation_power(n, i)
    traces = {}
    for n, cap in ((2, 20), (3, 20), (4, 20), (5, 30)):
        rep = derive_rotation_invariance(n, cap)
        ok &= rep.status == "derived" and rep.conclusion == "v = Πv"
        traces[n] = rep
    ok &= traces[2].steps[0].trace == (
        "(S_1Π)²v = S_1Π(v - Πv)",
        "= S_1Πv - S_1v",
        "= S_1Πv",
    )
    report(ok, "criterion 6: 0-Hecke relations and word identities for n <= 5; "
               "derivation succeeds for n in {2,3,4,5} with the pinned n=2 trace")


def test_criterion_7_weight_bijection():
    """Restriction is a bijection from regular weight classes onto Levi
    classes, by full enumeration."""
    ok = True
    for n in (2, 3):
        for q in (2, 3, 4):
            for M in all_parabolics(n):
                regs = [V for V in enumerate_weight_classes(n, q) if is_M_regular(V, M)]
                images = [restrict_to_levi(V, M) for V in regs]
                ok &= len(set(images)) == len(regs)
                ok &= set(images) == set(enumerate_levi_weight_classes(M, q))
                ok &= all(regular_cover(restrict_to_levi(V, M)) == V for V in regs)
    report(ok, "criterion 7: restriction is a bijection from regular classes "
               "onto Levi classes for n <= 3, q in {2,3,4}")


def test_criterion_8_finite_group_gates():
    """Invariants/coinvariants and projection-support gates over the whole
    supported family, n <= 3 and prime q <= 3.  The report is pinned byte
    for byte to the one the full scan over GL_n(F_q) produced."""
    out = io.StringIO()
    code = cli.run({"command": "verify", "params": {"max_n": 3, "max_q": 3}}, out)
    text = out.getvalue()
    rep = json.loads(text)
    counts = {k: len(v) for k, v in rep.items() if isinstance(v, list)}
    assert counts == {"order": 4, "minuscule": 6, "iwahori": 10,
                      "invariants": 60, "double_coset": 114}
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "4a62dca1df358a0a7923c05638ca598b14ed8de1e393448c805a75ad1bcea425")
    ok = code == 0 and rep["ok"]
    report(ok, "criterion 8: all finite-group gates pass on the supported "
               f"family for n <= 3, q <= 3 ({counts['invariants']} invariance, "
               f"{counts['double_coset']} support checks)")


def test_criterion_9_eigen_algebra():
    """Multiplicativity of eigensystems on 500 random triples, and agreement
    of the weight-change test with direct evaluation at the doubled coweight
    and its coroot shift."""
    q = 3
    F9 = FqField(3, 2)
    units = list(F9.units())
    rng = random.Random(4242)
    done = 0
    ok = True
    while done < 500:
        n = rng.choice([2, 3])
        nu = tuple(sorted((rng.randint(0, q - 1) for _ in range(n)), reverse=True))
        try:
            V = make_weight(nu, q)
        except ValueError:
            continue
        M = rng.choice(all_parabolics(n))
        tames = compatible_tame_exponents(V, M)
        pair = ParamPair(M, tuple(SmoothCharacter(rng.choice(units), t, q) for t in tames))
        def rand_elem():
            terms = {}
            for _ in range(rng.randint(1, 3)):
                lam = tuple(sorted(rng.randint(-3, 3) for _ in range(n)))
                terms[lam] = rng.choice(units)
            return HeckeElement(V, "T", terms, F9)
        x, y = rand_elem(), rand_elem()
        ok &= eval_element(pair, multiply(x, y)) == eval_element(pair, x) * eval_element(pair, y)
        done += 1

    checked = 0
    for n in (2, 3):
        triv = make_weight((0,) * n, q)
        for M in all_parabolics(n):
            free = sorted(set(range(1, n)) - M.delta)
            for i in free:
                tames = compatible_tame_exponents(triv, M)
                for _ in range(20):
                    pair = ParamPair(M, tuple(
                        SmoothCharacter(rng.choice(units), t, q) for t in tames))
                    lam = fundamental_antidominant_coweight(n, i)
                    lam2 = add(lam, lam)
                    shifted = add(lam2, simple_coroot(n, i))
                    a, b = eval_tau(pair, lam2), eval_tau(pair, shifted)
                    direct = bool(a) and a != b
                    ok &= change_of_weight_applicable(triv, i, pair) == direct
                    checked += 1
    report(ok, "criterion 9: eigensystems multiplicative on 500 random triples; "
               f"weight-change test agrees with direct evaluation ({checked} cases)")


@st.composite
def eigen_products(draw):
    """A weight of GL_2 or GL_3 over q = 3, a Levi with a compatible pair of
    F_9 characters, and two T-basis elements of one to three terms with
    coweight entries in [-3, 3] and nonzero F_9 coefficients."""
    q, field = 3, FqField(3, 2)
    n = draw(st.integers(2, 3))
    V = make_weight(sorted(draw(st.lists(st.integers(0, q - 1), min_size=n, max_size=n)),
                           reverse=True), q)
    M = draw(st.sampled_from(all_parabolics(n)))
    pair = ParamPair(M, tuple(SmoothCharacter(draw(st.sampled_from(F9_UNITS)), t, q)
                              for t in compatible_tame_exponents(V, M)))
    coweights = st.lists(st.integers(-3, 3), min_size=n, max_size=n).map(
        lambda lam: tuple(sorted(lam)))
    elements = st.dictionaries(coweights, st.sampled_from(F9_UNITS), min_size=1, max_size=3)
    x, y = (HeckeElement(V, "T", draw(elements), field) for _ in range(2))
    return pair, x, y


@given(eigen_products())
def test_criterion_9_property(case):
    """Criterion 9 as a property: evaluating an eigensystem is
    multiplicative on products of T-basis elements."""
    pair, x, y = case
    assert eval_element(pair, multiply(x, y)) == eval_element(pair, x) * eval_element(pair, y)
