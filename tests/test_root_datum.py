import random
import time
from itertools import combinations_with_replacement

import pytest

from gln_modp import root_datum
from gln_modp.root_datum import (
    StandardParabolic, all_parabolics,
    fundamental_antidominant_coweight, interval_above, is_antidominant,
    leq_M, pairing, simple_coroot, stab_levi,
)

G2 = StandardParabolic.full(2)
G3 = StandardParabolic.full(3)
T2 = StandardParabolic.torus(2)


def test_pairing():
    assert pairing((-1, 0, 0), 1) == -1
    assert pairing((0, 0), 1) == 0
    assert pairing((-1, -1, 0), 2) == -1
    with pytest.raises(ValueError):
        pairing((0, 0), 2)


def test_parabolic_composition_subset_bijection():
    for n in range(1, 6):
        for P in all_parabolics(n):
            assert StandardParabolic.from_delta(n, P.delta) == P
    assert StandardParabolic((2, 1)).delta == frozenset({1})
    assert StandardParabolic((2, 1)).boundaries == (2,)


def test_leq_M_examples():
    assert leq_M((-1, 1), (0, 0), G2)
    assert leq_M((-1, 1), (-1, 1), T2)
    assert not leq_M((-1, 0, 1), (0, 0, 0), StandardParabolic((2, 1)))
    with pytest.raises(ValueError):
        leq_M((0, 0), (0, 0, 0), G3)


def test_leq_M_partial_order_and_torus():
    rng = random.Random(0)
    vecs = [tuple(sorted(rng.randint(-2, 2) for _ in range(3))) for _ in range(40)]
    for M in all_parabolics(3):
        for a in vecs:
            assert leq_M(a, a, M)
            for b in vecs:
                if leq_M(a, b, M) and leq_M(b, a, M):
                    assert a == b
                if leq_M(a, b, M):
                    assert leq_M(a, b, G3)  # order refines the full order
                for c in vecs:
                    if leq_M(a, b, M) and leq_M(b, c, M):
                        assert leq_M(a, c, M)
    for a in vecs:
        for b in vecs:
            assert leq_M(a, b, StandardParabolic.torus(3)) == (a == b)


def test_rational_and_integral_criterion_agree():
    # the partial-sum coefficients are automatically integral, so allowing
    # rational coefficients in the cone test cannot change any verdict
    rng = random.Random(1)
    for _ in range(200):
        n = rng.choice([2, 3, 4])
        lam = tuple(rng.randint(-3, 3) for _ in range(n))
        mu = tuple(rng.randint(-3, 3) for _ in range(n))
        diffs = [lam[i] - mu[i] for i in range(n)]
        partial = 0
        rational_ok = True
        for i in range(n - 1):
            partial += diffs[i]
            if partial < 0:
                rational_ok = False
        rational_ok = rational_ok and sum(diffs) == 0
        assert rational_ok == leq_M(mu, lam, StandardParabolic.full(n))


def test_interval_above_examples():
    assert interval_above((-1, 1), G2) == ((-1, 1), (0, 0))
    assert interval_above((-1, 0, 1), G3) == ((-1, 0, 1), (0, 0, 0))
    assert interval_above((0, 0), T2) == ((0, 0),)
    with pytest.raises(ValueError):
        interval_above((1, 0), G2)


def test_interval_above_refuses_an_interval_past_its_bound_while_listing():
    # above (-k, k) in GL_2 lie the k + 1 coweights (-j, j), j = 0..k
    k = root_datum._MAX_INTERVAL
    assert len(interval_above((1 - k, k - 1), G2)) == k
    for mu, M in [((-k, k), G2), ((-1000, 0, 0, 0, 0, 1000), StandardParabolic.full(6))]:
        start = time.perf_counter()
        with pytest.raises(ValueError, match="^interval too large"):
            interval_above(mu, M)
        assert time.perf_counter() - start < 1


def test_interval_above_membership_properties():
    rng = random.Random(2)
    for _ in range(50):
        n = rng.choice([2, 3, 4])
        mu = tuple(sorted(rng.randint(-3, 3) for _ in range(n)))
        M = rng.choice(all_parabolics(n))
        iv = interval_above(mu, M)
        assert mu in iv
        for lam in iv:
            assert sum(lam) == sum(mu)
            assert is_antidominant(lam)
            assert leq_M(mu, lam, M)


def reference_interval_above(mu, M):
    """The box filter: every antidominant vector with entries in
    [mu_1, mu_n] and the coordinate sum of mu, kept when it is >=_M mu."""
    n = len(mu)
    hi = mu[-1]
    out = []

    def extend(prefix, last, remaining):
        k = n - len(prefix)
        if k == 0:
            if remaining == 0 and leq_M(mu, tuple(prefix), M):
                out.append(tuple(prefix))
            return
        for v in range(last, hi + 1):
            rest = remaining - v
            if rest < (k - 1) * v:
                break
            if rest > (k - 1) * hi:
                continue
            extend(prefix + [v], v, rest)

    extend([], mu[0], sum(mu))
    return tuple(sorted(out))


@pytest.mark.parametrize("n, box", [(2, 4), (3, 4), (4, 4), (5, 3), (6, 2)])
def test_interval_above_matches_box_filter(n, box):
    for M in all_parabolics(n):
        for mu in combinations_with_replacement(range(-box, box + 1), n):
            assert interval_above(mu, M) == reference_interval_above(mu, M)


def test_stab_levi():
    assert stab_levi((0, 0, 0)) == G3
    assert stab_levi((2, 0)) == T2
    assert stab_levi((1, 1, 0)) == StandardParabolic((2, 1))


def test_fundamental_coweights_minuscule():
    assert fundamental_antidominant_coweight(2, 1) == (-1, 0)
    assert fundamental_antidominant_coweight(3, 2) == (-1, -1, 0)
    assert fundamental_antidominant_coweight(4, 1) == (-1, 0, 0, 0)
    for n in range(2, 7):
        for i in range(1, n):
            lam = fundamental_antidominant_coweight(n, i)
            assert is_antidominant(lam)
            for j in range(1, n):
                assert pairing(lam, j) == (-1 if j == i else 0)
            # -lam pairs to {0,1} with every positive root e_a - e_b
            for a in range(n):
                for b in range(a + 1, n):
                    assert -(lam[a] - lam[b]) in (0, 1)


def test_simple_coroot():
    assert simple_coroot(3, 2) == (0, 1, -1)
