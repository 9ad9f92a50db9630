import hashlib
import random
import time
from itertools import product

import pytest

from gln_modp.finite_field import (
    FqField, default_modulus, is_prime, poly_is_irreducible, prime_radical,
)


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (5, 1), (2, 2), (3, 2), (2, 3), (5, 2)])
def test_field_axioms(p, m):
    F = FqField(p, m)
    els = list(F.elements())
    assert len(els) == p ** m
    rng = random.Random(0)
    for _ in range(200):
        a, b, c = rng.choice(els), rng.choice(els), rng.choice(els)
        assert (a + b) * c == a * c + b * c
        assert (a * b) * c == a * (b * c)
        assert a + b == b + a and a * b == b * a
    for a in els:
        assert a + F.zero == a and a * F.one == a
        if a:
            assert a * a.inverse() == F.one
            assert a ** (p ** m - 1) == F.one


def test_characteristic():
    F = FqField(3, 2)
    acc = F.zero
    for _ in range(3):
        acc = acc + F.one
    assert not acc


def test_default_modulus_is_irreducible():
    assert default_modulus(3, 2) == (1, 0, 1)  # x^2 + 1 over F_3
    for p, m in [(2, 2), (2, 3), (3, 3), (5, 2)]:
        assert poly_is_irreducible(default_modulus(p, m), p)


def test_reducible_modulus_rejected():
    with pytest.raises(ValueError):
        FqField(3, 2, (0, 0, 1))  # x^2
    with pytest.raises(ValueError):
        FqField(4, 1)


def test_extension_fields_past_2_to_the_16_elements_are_refused_at_once():
    # F_{2^16} and F_{251^2} are the largest of their p; prime fields need no
    # modulus search, so a prime near 2^32 still builds
    assert FqField(2, 16).size == 2 ** 16 and FqField(251, 2).size == 63001
    assert FqField(4_294_967_291).size == 4_294_967_291
    start = time.perf_counter()
    for p, m in [(2, 17), (257, 2), (2, 20), (3, 40), (2, 10 ** 12)]:
        with pytest.raises(ValueError, match=r"^F_\{%d\^%d\} exceeds" % (p, m)):
            FqField(p, m)
    with pytest.raises(ValueError, match="extension guard"):
        FqField(2, 17, (1,) + (0,) * 16 + (1,))  # refused before the irreducibility test
    assert time.perf_counter() - start < 0.5


def test_parse_and_str_round_trip():
    F = FqField(3, 2)
    for x in F.elements():
        assert F.parse(str(x)) == x


def test_negative_powers():
    F = FqField(5)
    a = F(2)
    assert a ** -1 == a.inverse()
    assert a ** -3 * a ** 3 == F.one


def test_mixed_field_arithmetic_rejected():
    F1, F2 = FqField(3), FqField(5)
    with pytest.raises(ValueError):
        F1.one + F2.one


# sha256 of the ';'-joined multiplication table (a * b over all pairs, in
# elements() order) and inverse table (nonzero a) of F_{p^m}: every field
# element prints into CLI output, so both tables must stay byte for byte
TABLE_DIGESTS = {
    (2, 2): ('14a13921b869ef661767f98889fa19dd60c7d9ea2e06283d0a52c2a24e17d434',
             '26a73443e1de0f4a95309e7d9c763efd162664bfff6dea9b9276d8c5dec1512c'),
    (2, 3): ('36510bba5ff4ddaac2f2f105f31522a57896dbffb86dcbe7acc1c47e840ffc65',
             '4125e1220c8421456ba4d628a12b7ac5cfdbc4401a599466af83ba6b12ee14be'),
    (3, 2): ('ac60dd36346eaf03660c1e2ca50e097b9a8e2778a0e1a64b49c0b4d9bfc9bd8c',
             '67c3960b855feb7e36a23aec39bfcb20c69a34247c1a12f9cfb6156b385bea3b'),
    (5, 2): ('1d06f937571cdeb60cdba0ec5e7cb7fe9e3a6741e5f2400500965831c7c683e2',
             'c5be9cf3d558aaa0e9c45ddffb990743f80427e07e173256c85e30ff11696dea'),
    (3, 3): ('51d29b3a7e236c5005e7a628bc21b4996f5c57585688e0bcc8347856d67d884a',
             '292bff699eab4140d2403620aeb4daa88ee408aa465722b8b25297508ea06f77'),
    (7, 2): ('47a785acc4788058eb33472db79fd3b6a69c1b6b605706d12f6bd68ff481678a',
             '71512abc4723a24d95429cd55504214dc16e7c9810157db4d846b80566b0f20e'),
}


@pytest.mark.parametrize("p, m", sorted(TABLE_DIGESTS))
def test_multiplication_and_inverse_tables_pinned(p, m):
    F = FqField(p, m)
    els = list(F.elements())
    mul = ";".join(str(a * b) for a in els for b in els)
    inv = ";".join(str(a.inverse()) for a in els if a)
    assert tuple(hashlib.sha256(t.encode()).hexdigest() for t in (mul, inv)) == TABLE_DIGESTS[p, m]


MOBIUS = {1: 1, 2: -1, 3: -1, 4: 0}


@pytest.mark.parametrize("p", [2, 3, 5])
def test_irreducible_counts_are_necklace_counts(p):
    for d in range(1, 5):
        found = sum(poly_is_irreducible(lower + (1,), p) for lower in product(range(p), repeat=d))
        assert found * d == sum(MOBIUS[d // k] * p ** k for k in range(1, d + 1) if d % k == 0)


def test_primality_and_prime_radical():
    assert [n for n in range(30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert [prime_radical(q) for q in (2, 4, 8, 9, 25, 27, 49, 97)] == [2, 2, 2, 3, 5, 3, 7, 97]
    with pytest.raises(ValueError, match="^q = 12 is not a prime power$"):
        prime_radical(12)
    with pytest.raises(ValueError, match="^q must be >= 2$"):
        prime_radical(1)


def test_trial_division_stops_below_2_to_the_32():
    # 2^32 - 5 is the largest prime below 2^32: at most 65,536 trial divisors
    assert is_prime(2 ** 32 - 5) and prime_radical(2 ** 32 - 5) == 2 ** 32 - 5
    assert prime_radical(65521 ** 2) == 65521
    for n in (2 ** 32, 2 ** 61 - 1, 10 ** 18 + 3):
        with pytest.raises(ValueError, match=f"^{n} is too large to factor"):
            is_prime(n)
        with pytest.raises(ValueError, match=f"^{n} is too large to factor"):
            prime_radical(n)
